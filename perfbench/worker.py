"""One sample of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload coalg-n7 --seed 1 --sample 0

Imports ``pita`` from ``src/`` of the checkout, builds the workload's
instance, optionally installs the tracer, runs the sample and prints one
JSON object on its last line of output. ``--setup-only`` stops after the
set-up, which is how set-up time is sampled on its own;
``--wrong-answer`` makes the workload doctor one answer or pinned value,
for the self-test of the gate.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
METER_PERIOD_S = 0.05


def reference_work():
    """A fixed piece of pure-Python work, well under a millisecond, made of
    what the program's inner loops do: small tuples as dict keys, and a
    keyed sort and a tuple rebuild over a 256-element table."""
    table = {}
    for i in range(200):
        key = tuple((i * 7 + j * 3) % 11 for j in range(6))
        table[key] = table.get(key, 0) + 1
    values = [(j * 37) % 101 for j in range(256)]
    order = sorted(range(256), key=lambda j: (values[j], j))
    return table, tuple(values[j] for j in order)


class SpeedMeter:
    """Times the reference work every METER_PERIOD_S on a thread of the
    sample's own process, so the readings see the same processor, and the
    same slowdowns from other load on the machine, as the sample."""

    def __init__(self):
        self.readings = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while True:
            start = perf_counter()
            reference_work()
            self.readings.append(perf_counter() - start)
            if self._stop.wait(METER_PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sample", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--wrong-answer", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import pita
    import pita.cli
    from pita.instances import make_instance

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    inst = make_instance(workload.instance)
    ready_at = perf_counter()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tracer = None
    if args.trace_out:
        import pita._tables

        from tracing import LAYERS, Tracer

        tracer = Tracer()
        tracer.install(
            {short: getattr(pita, short) for short in LAYERS}
        )
    sample = SimpleNamespace(
        inst=inst, seed=args.seed, index=args.sample, wrong=args.wrong_answer
    )
    started = perf_counter()
    cpu_started = process_time()
    try:
        with SpeedMeter() as meter:
            wall, ops = workload.run(pita, sample)
    except Exception:
        traceback.print_exc()
        return 1
    readings = meter.readings
    result = {
        "ready_at": ready_at,
        "wall_s": wall,
        "cpu_s": process_time() - cpu_started,
        "reference_s": sum(readings) / len(readings),
        "reference_readings": len(readings),
        "ops": ops,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "threads": pita.opcat.default_threads(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(started)
        with open(args.trace_out, "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
