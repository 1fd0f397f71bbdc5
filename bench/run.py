"""Benchmark of the sunflower_circuits package: one workload per invocation.

    python3 bench/run.py --workload closure-hr --seed 1 --seconds 36 --trace 0

Runs the workload in its own single-threaded process for whole rounds of
the same operations until ``--seconds`` would be exceeded, then samples
set-up time again in fresh processes that stop after set-up.  Every call
into the package is checked against ``reference`` outside the timed
region.  The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("closure-hr", "extract-exact", "mc-sample")
SETUP_PROBES = 6  # extra set-up samples; with the main process, 7 in all

_SUBCOMMANDS = ("coverage", "sunflower-extract", "closure-demo", "hr-verify", "clique-verify",
                "clique-extract", "janson", "code-poly", "spread-experiment")

# per-layer metrics of the traced run, each with its unit
PER_LAYER = (
    [("rng.block.calls", "count"), ("rng.block.slots", "count"), ("rng.block.time_s", "s"),
     ("rng.next_below.calls", "count"),
     ("probability.coverage_exact.calls", "count"), ("probability.coverage_exact.time_s", "s"),
     ("probability.coverage_mc.calls", "count"), ("probability.coverage_mc.samples", "count"),
     ("probability.coverage_mc.time_s", "s"),
     ("probability.mc_event_probability.samples", "count"),
     ("probability.mc_event_probability.time_s", "s"),
     ("probability.sample_p_subset.calls", "count"), ("probability.sample_p_subset.time_s", "s"),
     ("setfamily.check_spread.calls", "count"), ("setfamily.check_spread.time_s", "s"),
     ("setfamily.check_spread.submasks", "count"),
     ("sunflowers.extract_robust_sunflower.calls", "count"),
     ("sunflowers.extract_robust_sunflower.time_s", "s"),
     ("sunflowers.extract_robust_sunflower.self_s", "s"),
     ("sunflowers.extract_robust_sunflower.trace_steps", "count"),
     ("sunflowers.is_robust_sunflower.time_s", "s"),
     ("monotone.closure.calls", "count"), ("monotone.closure.time_s", "s"),
     ("monotone.closure.rounds", "count"), ("monotone.closure.coverage_calls", "count"),
     ("monotone.approximate_circuit.time_s", "s"), ("monotone.approximate_circuit.gates", "count"),
     ("monotone.approximate_circuit.ledger_s", "s"),
     ("harnik_raz.build_hr_family.time_s", "s"), ("harnik_raz.exact_items.time_s", "s"),
     ("harnik_raz.verify.time_s", "s"), ("harnik_raz.sample_positive.calls", "count"),
     ("cliques.find_clique_sunflower.calls", "count"), ("cliques.find_clique_sunflower.time_s", "s"),
     ("cliques.pq_coverage_exact.calls", "count"), ("cliques.pq_coverage_exact.time_s", "s"),
     ("cliques.janson_certificate.calls", "count"), ("cliques.janson_certificate.time_s", "s"),
     ("cliques.janson_certificate.pairs", "count"),
     ("cliques.pq_coverage_mc.samples", "count"), ("cliques.pq_coverage_mc.time_s", "s"),
     ("cliques.verify_no_kclique_bound.samples", "count"),
     ("cliques.verify_no_kclique_bound.time_s", "s"),
     ("cliques.verify_no_kclique_bound.self_s", "s"),
     ("cliques.gnp_sample.calls", "count"),
     ("codes.build_polynomial.time_s", "s"), ("codes.max_pairwise_agreement.time_s", "s"),
     ("codes.canonical_decomposition.time_s", "s"), ("codes.single_monomial_audit.time_s", "s")]
    + [(f"cli.{sub}.time_s", "s") for sub in _SUBCOMMANDS]
    + [("cli.emit.time_s", "s"), ("process.cpu_s", "s"), ("trace.overhead_s", "s")]
)


def _worker(args, out_dir: Path, probe: bool, timeout: float) -> tuple[float, dict]:
    """Start one worker process and wait for it; return (start time, its result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sunflower_circuits" / "__init__.py").is_file():
        print(f"error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        started, result = _worker(args, out_dir, probe=False, timeout=150)
        setup = [result["ready"] - started]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                t, probe = _worker(args, out_dir, probe=True, timeout=15)
                setup.append(probe["ready"] - t)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in result["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": len(result["walls"]),
        "round_wall_s": result["walls"], "setup_samples_s": setup,
        "failed_operations": result["failed_ops"],
    }))
    if args.trace:
        layers = result["layers"]
        metrics = {
            name: {"value": layers.get(name, 0.0) if unit == "s" else int(layers.get(name, 0)),
                   "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        metrics = {
            # the mean over all rounds averages the host's speed swings over
            # the whole run; a median of two or three long rounds does not
            "wall_s": {"value": statistics.fmean(result["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MiB"},
        }
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
