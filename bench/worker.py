"""One workload in one process: set up, run whole rounds, report as JSON.

Started by ``run.py``; not meant to be run by hand.  The last line of
standard output is a JSON object with the monotonic time at which set-up
ended (the first timed call starts right after), the wall and CPU time of
every round's calls into the package, the operation counts and, with
``--trace 1``, the per-layer metrics.  With ``--probe`` the process stops
after set-up, so that ``run.py`` can sample set-up time again.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from reference import CheckFailed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_ops: Counter = Counter()
        self.errors: list[str] = []  # failures other than the known faults


def run_round(ops, tally: Tally, by_op: dict) -> tuple[float, float]:
    """Run every operation once; return (wall, cpu) seconds of the calls alone.

    ``by_op`` gathers, per operation name, this round's wall time.
    """
    wall = cpu = 0.0
    round_by_op: Counter = Counter()
    clock, cpu_clock = time.perf_counter, time.process_time
    for op in ops:
        c0 = cpu_clock()
        t0 = clock()
        error = None
        try:
            result = op.call()
        except Exception as exc:  # the package raised: a failed operation
            error = exc
        t1 = clock()
        cpu += cpu_clock() - c0
        wall += t1 - t0
        round_by_op[op.name] += t1 - t0
        if error is None:
            try:
                op.check(result)
            except CheckFailed as exc:
                error = exc
        tally.attempted += 1
        if error is not None:
            tally.failed += 1
            tally.failed_ops[op.name] += 1
            if op.fault is None and len(tally.errors) < 20:
                tally.errors.append(f"{op.name}: {type(error).__name__}: {error}")
    for name, t in round_by_op.items():
        by_op.setdefault(name, []).append(t)
    return wall, cpu


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()
    out_dir = Path(args.out_dir)

    tracer = None
    if args.trace:
        import workloads
        from tracer import Tracer

        tracer = Tracer(extra_modules=(workloads,))
        tracer.install()
    ops = WORKLOADS[args.workload](args.seed, out_dir)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    setup_layers = {}
    if tracer is not None:
        tracer.uninstall()
        setup_layers = tracer.take()

    tally = Tally()
    walls, cpus, traced_walls, traced_layers = [], [], [], []
    by_op: dict[str, list[float]] = {}
    start = time.perf_counter()
    cycles = 0
    peak_rss_kb = None
    while True:
        wall, cpu = run_round(ops, tally, by_op)
        walls.append(wall)
        cpus.append(cpu)
        if peak_rss_kb is None:
            # later rounds repeat the same calls; the heap can still grow then
            # by several MiB of seed-dependent fragmentation, which is the
            # allocator's history rather than the package's need
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.install()
            wall, _ = run_round(ops, tally, {})
            tracer.uninstall()
            traced_walls.append(wall)
            traced_layers.append(tracer.take())
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed * (cycles + 1) / cycles > args.seconds:
            break

    out = {
        "ready": ready,
        "walls": walls,
        "op_walls": by_op,
        "cpus": cpus,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ops": dict(sorted(tally.failed_ops.items())),
        "errors": tally.errors,
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer is not None:
        keys = set(setup_layers).union(*traced_layers)
        layers = {
            k: setup_layers.get(k, 0.0) + statistics.median(t.get(k, 0.0) for t in traced_layers)
            for k in keys
        }
        layers["process.cpu_s"] = statistics.median(cpus)
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        out["layers"] = layers
        out["traced_walls"] = traced_walls
        tracer.write(out_dir / "trace.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
