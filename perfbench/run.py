#!/usr/bin/env python3
"""Benchmark harness for pita: time to verdict on four workloads.

    python3 perfbench/run.py --workload suite-b3 --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Every sample runs in a fresh interpreter
(users pay for imports and hom enumeration on every ``pita`` run), one
process at a time, with ``PITA_THREADS`` unset. A run first samples
set-up on its own a few times, then starts whole samples until
``--seconds`` have passed; a sample is never cut short, so a sweep
longer than ``--seconds`` is measured once. ``--trace 1`` instead runs
one untraced and one traced sample and reports the per-layer metrics.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A record of the run (machine,
versions, load, samples) is written under ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUNS = HERE / "runs"
SETUP_PROBES = 7
# The worker's reference work takes about this long on the 2-vCPU Xeon the
# benchmark was defined on. Times taken while a sample runs are scaled by
# REFERENCE_S over the reference work's mean time in that sample, which
# removes the slowdowns other load on a shared machine causes; the
# constant only sets the scale.
REFERENCE_S = 0.6e-3
# every run ends within this many seconds, whatever the workload does
RUN_BUDGET_S = 170.0


class SampleFailed(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("PITA_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, deadline):
    """Run the worker once and return its result, with the set-up time
    counted from just before the process was started."""
    timeout = max(1.0, deadline - time.perf_counter())
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleFailed(f"timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise SampleFailed(
            f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise SampleFailed(f"no result: {proc.stdout[-500:]!r}") from exc
    result["setup_s"] = result["ready_at"] - spawned
    return result


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Run:
    def __init__(self, workload, seed, definition):
        self.workload = workload
        self.seed = seed
        self.expected_ops = definition.expected_ops
        self.op_latency = definition.op_latency
        self.samples = []
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def sample(self, index, deadline, extra=()):
        args = ["--workload", self.workload, "--seed", str(self.seed),
                "--sample", str(index), *extra]
        try:
            result = spawn(args, deadline)
        except SampleFailed as exc:
            # a crashed sample fails every operation it should have made
            self.errors.append(str(exc))
            self.attempted += self.expected_ops
            self.failed += self.expected_ops
            return None
        ops = result["ops"]
        self.attempted += max(len(ops), self.expected_ops)
        self.failed += sum(not o["ok"] for o in ops)
        self.failed += max(0, self.expected_ops - len(ops))
        self.samples.append(result)
        return result

    def outcome(self, metrics):
        return {
            "correct": self.failed == 0 and bool(self.samples),
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }


def speed(sample):
    return REFERENCE_S / sample["reference_s"]


def end_to_end(run, setups):
    samples = run.samples
    walls = [s["wall_s"] * speed(s) for s in samples]
    rates = [
        sum(o["checks"] for o in s["ops"]) / wall
        for s, wall in zip(samples, walls)
    ]
    if run.op_latency:
        latencies = [
            o["s"] * speed(s) * 1e6 for s in samples for o in s["ops"]
        ]
    else:
        latencies = [w * 1e6 for w in walls]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (
            statistics.median(s["rss_mb"] for s in samples), "MB"
        ),
        "op_p50_us": (percentile(latencies, 50), "us"),
        "op_p99_us": (percentile(latencies, 99), "us"),
    }


def timed_run(run, seconds, deadline):
    setups = []
    for _ in range(SETUP_PROBES):
        try:
            probe = spawn(["--workload", run.workload, "--seed",
                           str(run.seed), "--setup-only"], deadline)
        except SampleFailed as exc:
            run.errors.append(str(exc))
            continue
        setups.append(probe["setup_s"])
    stop = min(time.perf_counter() + seconds, deadline)
    index = 0
    while True:
        result = run.sample(index, deadline)
        index += 1
        if result is None:
            break
        setups.append(result["setup_s"])
        if time.perf_counter() >= stop:
            break
    if not run.samples:
        return run.outcome({})
    return run.outcome(end_to_end(run, setups))


def trace_run(run, deadline, trace_file):
    plain = run.sample(0, deadline)
    traced = run.sample(0, deadline, ["--trace-out", str(trace_file)])
    if plain is None or traced is None:
        return run.outcome({})
    scale = speed(traced)
    metrics = {
        name: (value * scale if unit == "s" else value, unit)
        for name, (value, unit) in traced["layers"].items()
    }
    metrics["trace.overhead_s"] = (
        traced["wall_s"] * scale - plain["wall_s"] * speed(plain), "s"
    )
    return run.outcome(metrics)


# ------------------------------------------------------------ run record


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def commit_hash():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pita").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def package_version(name):
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def machine_record():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "commit": commit_hash(),
        "source_sha256": source_digest(),
    }


# ------------------------------------------------------------ entry point


def self_test(deadline):
    """Feed the gate wrong answers; both runs must come out failed."""
    cases = [
        ("coalg-n7", "decomposition-fibres pinned at 1,571 checks"),
        ("factor-stream", "one split with two values of pi swapped"),
    ]
    caught = True
    for workload, what in cases:
        run = Run(workload, 1, WORKLOADS[workload])
        run.sample(0, deadline, ["--wrong-answer"])
        frac = run.failed / max(1, run.attempted)
        caught = caught and run.failed > 0
        print(json.dumps({
            "self_test": workload, "fed": what,
            "attempted": run.attempted, "failed": run.failed,
            "failed_frac": frac, "correct": run.failed == 0,
        }))
    print(json.dumps({"self_test": "gate", "caught": caught}))
    return 0 if caught else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pita" / "__init__.py").is_file():
        print(f"perfbench: no pita sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    if args.self_test:
        return self_test(deadline)
    if args.workload is None:
        parser.error("--workload is required")

    # one throwaway set-up so byte-compiled modules exist before timing;
    # if it fails, the samples fail too and are counted there
    try:
        spawn(["--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"], deadline)
    except SampleFailed:
        pass

    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pita_threads_env": os.environ.get("PITA_THREADS"),
        **machine_record(),
        "loadavg_before": os.getloadavg(),
    }
    run = Run(args.workload, args.seed, WORKLOADS[args.workload])
    if args.trace:
        outcome = trace_run(run, deadline, RUNS / f"{stem}-spans.json")
    else:
        outcome = timed_run(run, args.seconds, deadline)
    record["loadavg_after"] = os.getloadavg()
    record["pita_threads"] = sorted({s["threads"] for s in run.samples})
    record["failed_frac"] = run.failed / max(1, run.attempted)
    record["errors"] = run.errors
    # a sweep's reports keep their names and times; the stream's pairs
    # are only counted
    record["samples"] = [
        {k: v for k, v in s.items() if k != "layers"}
        | ({"ops": len(s["ops"])} if run.op_latency else {})
        for s in run.samples
    ]
    record["result"] = outcome
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}),
          file=sys.stderr)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
