"""Timing wrappers around the package's public functions, for the traced run.

Each wrapper records a span (name, start, end, parent span) and the counts
of the layer it guards.  A wrapper replaces the function on every module
that looks it up (``probability.coverage_exact`` and
``monotone.coverage_exact`` alike); methods are replaced on their class.
Spans are kept in compact arrays and written out once, when the run ends.

Metric names follow ``<module>.<function>.<quantity>``: ``calls``,
``time_s`` (inclusive, outermost span of a name only) and ``self_s``
(minus the time of child spans), plus the per-layer counts below.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from sunflower_circuits import (
    cli,
    cliques,
    codes,
    harnik_raz,
    monotone,
    probability,
    rng,
    setfamily,
    sunflowers,
)

PACKAGE_MODULES = (rng, setfamily, probability, sunflowers, monotone, harnik_raz, cliques, codes, cli)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_under(ancestor: str, key: str):
    """Count a call made while a span of ``ancestor`` is open."""
    def count(tracer, args, kwargs, result):
        if tracer.open(ancestor):
            tracer.metrics[key] += 1
    return count


def _count_arg(key: str, index: int, name: str):
    def count(tracer, args, kwargs, result):
        tracer.metrics[key] += _arg(args, kwargs, index, name)
    return count


_count_coverage = _count_under("monotone.closure", "monotone.closure.coverage_calls")


def _count_coverage_mc(tracer, args, kwargs, result):
    _count_coverage(tracer, args, kwargs, result)
    tracer.metrics["probability.coverage_mc.samples"] += _arg(args, kwargs, 3, "samples")


def _count_submasks(tracer, args, kwargs, result):
    family = _arg(args, kwargs, 0, "family")
    tracer.metrics["setfamily.check_spread.submasks"] += sum(1 << m.bit_count() for m in family.members)


def _count_trace_steps(tracer, args, kwargs, result):
    tracer.metrics["sunflowers.extract_robust_sunflower.trace_steps"] += len(result.recursion_trace)


def _count_gates(tracer, args, kwargs, result):
    tracer.metrics["monotone.approximate_circuit.gates"] += _arg(args, kwargs, 0, "circuit").size


def _count_pairs(tracer, args, kwargs, result):
    m = len(_arg(args, kwargs, 0, "s").members)
    tracer.metrics["cliques.janson_certificate.pairs"] += m * (m - 1)


# (owner, attribute, span name, count callback); owner is a module or a class
TARGETS = (
    (rng.CounterStream, "block", "rng.block", _count_arg("rng.block.slots", 2, "count")),
    (rng.CounterStream, "next_below", "rng.next_below", None),
    (probability, "coverage_exact", "probability.coverage_exact", _count_coverage),
    (probability, "coverage_mc", "probability.coverage_mc", _count_coverage_mc),
    (probability, "mc_event_probability", "probability.mc_event_probability",
     _count_arg("probability.mc_event_probability.samples", 2, "samples")),
    (probability, "sample_p_subset", "probability.sample_p_subset", None),
    (probability, "is_robust_sunflower", "sunflowers.is_robust_sunflower", None),
    (setfamily, "check_spread", "setfamily.check_spread", _count_submasks),
    (sunflowers, "extract_robust_sunflower", "sunflowers.extract_robust_sunflower", _count_trace_steps),
    (monotone, "closure", "monotone.closure", None),
    (monotone, "is_closed", "monotone.is_closed", _count_under("monotone.closure", "monotone.closure.rounds")),
    (monotone, "approximate_circuit", "monotone.approximate_circuit", _count_gates),
    (harnik_raz, "build_hr_family", "harnik_raz.build_hr_family", None),
    (harnik_raz.PositiveTestDistribution, "exact_items", "harnik_raz.exact_items", None),
    (harnik_raz, "verify_positive_acceptance", "harnik_raz.verify", None),
    (harnik_raz, "verify_negative_rejection", "harnik_raz.verify", None),
    (harnik_raz, "verify_minterm_spread", "harnik_raz.verify", None),
    (harnik_raz, "verify_cwise_independence", "harnik_raz.verify", None),
    (harnik_raz, "sample_positive", "harnik_raz.sample_positive", None),
    (cliques, "find_clique_sunflower", "cliques.find_clique_sunflower", None),
    (cliques, "pq_coverage_exact", "cliques.pq_coverage_exact", None),
    (cliques, "janson_certificate", "cliques.janson_certificate", _count_pairs),
    (cliques, "pq_coverage_mc", "cliques.pq_coverage_mc",
     _count_arg("cliques.pq_coverage_mc.samples", 4, "samples")),
    (cliques, "verify_no_kclique_bound", "cliques.verify_no_kclique_bound",
     _count_arg("cliques.verify_no_kclique_bound.samples", 3, "samples")),
    (cliques, "gnp_sample", "cliques.gnp_sample", None),
    (codes, "build_polynomial", "codes.build_polynomial", None),
    (codes, "max_pairwise_agreement", "codes.max_pairwise_agreement", None),
    (codes, "canonical_decomposition", "codes.canonical_decomposition", None),
    (codes, "single_monomial_audit", "codes.single_monomial_audit", None),
    (cli, "emit", "cli.emit", None),
    (cli, "main", None, None),  # named cli.<subcommand> from its argv
)

# generator functions whose items are produced inside the span
_MATERIALIZE = {"harnik_raz.exact_items"}


class Tracer:
    def __init__(self, extra_modules=()):
        self.modules = PACKAGE_MODULES + tuple(extra_modules)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, start, child time]
        self._depth: list[int] = []
        self._keys: list[tuple[str, str, str]] = []
        self.metrics: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self._keys.append((f"{name}.calls", f"{name}.time_s", f"{name}.self_s"))
        return nid

    def open(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and self._depth[nid] > 0

    def _wrap(self, fn, name, count):
        tracer = self
        clock = time.perf_counter
        fixed = None if name is None else self._name_id(name)
        materialize = name in _MATERIALIZE
        closure_id = self._name_id("monotone.closure")

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._name_id(f"cli.{args[0][0]}")
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer._depth[nid] += 1
            frame = [idx, nid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                tracer.span_start[idx] = frame[2]
                tracer.span_end[idx] = end
                tracer._depth[nid] -= 1
                if stack:
                    stack[-1][3] += dur
                calls, inclusive, self_key = tracer._keys[nid]
                m = tracer.metrics
                m[calls] += 1
                m[self_key] += dur - frame[3]
                if tracer._depth[nid] == 0:
                    m[inclusive] += dur
                if nid == closure_id and tracer.open("monotone.approximate_circuit"):
                    m["monotone.approximate_circuit.closure_s"] += dur
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, count in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, count)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in self.modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def take(self) -> dict[str, float]:
        """The metrics gathered since the last take, with derived layer times."""
        m = dict(self.metrics)
        self.metrics = defaultdict(float)
        approx = m.get("monotone.approximate_circuit.time_s", 0.0)
        m["monotone.approximate_circuit.ledger_s"] = approx - m.pop(
            "monotone.approximate_circuit.closure_s", 0.0)
        return m

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
