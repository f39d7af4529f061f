"""Summarise perfbench runs of a parent commit and a change as one record.

    python scripts/bench_record.py --parent PARENT_RUNS --change CHANGE_RUNS \
        --out BENCH_24.json

Each argument is a ``perfbench/runs`` directory: run the benchmark in a
checkout of the parent and in one of the change, alternating between the
two, and each checkout keeps its own records there. Only untraced records
are read. Within a workload each side's records are taken in the order
they were written and paired run by run, so alternating runs pair up as
they were made.

For every workload and end-to-end metric of BENCHMARK.json the record
holds each side's runs, median and quartiles, the change/parent ratio of
the medians and the pairs the change won (ties count for neither side);
beside them the check counts of the reports a sample ran, the attempted
and failed operations, and the machine the runs were made on.

The end-to-end times are scaled by perfbench's meter thread, which
shares the CPUs with the sample. So each run also keeps its thread
count and the median over its samples of the raw wall_s, cpu_s and
reference_s (the meter's reading), and each side the spread of those
medians over its runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE = ("nproc", "cpu_model", "python", "numpy")
# per-sample times the worker measures, before any speed adjustment
RAW = ("wall_s", "cpu_s", "reference_s")


def load_runs(runs_dir: Path) -> dict[str, list[tuple[Path, dict]]]:
    """Untraced records by workload, oldest first."""
    by_workload: dict[str, list[tuple[Path, dict]]] = {}
    paths = sorted(
        (p for p in runs_dir.glob("*.json") if not p.name.endswith("-spans.json")),
        key=lambda p: p.stat().st_mtime_ns,
    )
    for path in paths:
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            by_workload.setdefault(record["workload"], []).append((path, record))
    return by_workload


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "values": values,
    }


def checks_of(record: dict) -> dict:
    """Checks per report of the record's samples; every sample of a
    deterministic sweep must agree."""
    seen = {
        json.dumps(
            {op["name"]: op["checks"] for op in s["ops"] if "checks" in op},
            sort_keys=True,
        )
        for s in record["samples"]
        if isinstance(s.get("ops"), list)
    }
    if len(seen) > 1:
        raise SystemExit(f"{record['workload']}: samples disagree on checks")
    return json.loads(seen.pop()) if seen else {}


def side(runs: list[tuple[Path, dict]]) -> dict:
    records = [r for _, r in runs]
    checks = {json.dumps(checks_of(r), sort_keys=True) for r in records}
    per_run = [
        {
            "file": path.name,
            "seed": r["seed"],
            "loadavg_before": r["loadavg_before"],
            "pita_threads": r["pita_threads"],
            "samples": len(r["samples"]),
            **{
                key: statistics.median(s[key] for s in r["samples"])
                for key in RAW
            },
            "attempted": r["result"]["attempted"],
            "failed": r["result"]["failed"],
            "correct": r["result"]["correct"],
        }
        for path, r in runs
    ]
    return {
        "source_sha256": sorted({r["source_sha256"] for r in records}),
        "commit": sorted({str(r["commit"]) for r in records}),
        "runs": per_run,
        "raw": {key: spread([run[key] for run in per_run]) for key in RAW},
        "checks": [json.loads(c) for c in sorted(checks)],
    }


def summarise(parent: list, change: list, metrics: list[dict]) -> dict:
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    out = {"pairs": n, "parent": side(parent), "change": side(change)}
    out["checks_equal"] = out["parent"]["checks"] == out["change"]["checks"]
    out["metrics"] = {}
    for m in metrics:
        name = m["name"]
        before = [r["result"]["metrics"][name]["value"] for _, r in parent]
        after = [r["result"]["metrics"][name]["value"] for _, r in change]
        lower = m["better"] == "lower"
        won = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
        tied = sum(a == b for a, b in zip(after, before))
        p, c = spread(before), spread(after)
        out["metrics"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": p,
            "change": c,
            "ratio": c["median"] / p["median"] if p["median"] else None,
            "pairs_won": won,
            "pairs_tied": tied,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = [w["name"] for w in bench["workloads"]]
    missing = [w for w in workloads if not (parent.get(w) and change.get(w))]
    if missing:
        print(f"bench_record: no runs on both sides for {missing}",
              file=sys.stderr)
        return 2
    first = change[workloads[0]][0][1]
    record = {
        "command": bench["command"],
        "machine": {k: first[k] for k in MACHINE},
        "workloads": {
            w: summarise(parent[w], change[w], bench["end_to_end"])
            for w in workloads
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for w, s in record["workloads"].items():
        line = ", ".join(
            f"{name} {m['parent']['median']:.4g} -> {m['change']['median']:.4g}"
            f" (won {m['pairs_won']}/{s['pairs']})"
            for name, m in s["metrics"].items()
        )
        print(f"{w}: {line}")
        raw = ", ".join(
            f"{key} {s['parent']['raw'][key]['median']:.4g} -> "
            f"{s['change']['raw'][key]['median']:.4g}"
            for key in RAW
        )
        print(f"{w} (raw): {raw}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
