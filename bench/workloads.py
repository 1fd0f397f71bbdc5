"""The benchmark's three workloads: seeded inputs, operations and their checks.

An operation is one call into the package (a library function or an
in-process ``cli.main`` invocation) plus a check of its output against
``reference``.  Only the call is timed.  Every workload builds its inputs
once from ``--seed``; each round then runs the same operations on them, so
the share of failed operations is the same in every round.

The package is always reached through module attributes
(``probability.coverage_exact``, not an imported name), so the traced run's
wrappers see every call the benchmark makes.

Seeds change labels, member choices and Monte-Carlo streams, never the
sizes, so every seed asks the package for about the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from sunflower_circuits import (
    cli,
    cliques,
    harnik_raz,
    monotone,
    probability,
    setfamily,
    sunflowers,
)

import reference as R
from reference import require

HALF = Fraction(1, 2)


@dataclass
class Op:
    """One timed call and the untimed check of its result.

    ``fault`` names a known fault of the package for operations that are
    expected to fail until that fault is mended; any other failure makes
    the run incorrect.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    fault: Optional[str] = None


class Call:
    """A call into the package, looked up on its module when it runs.

    Resolving the function at call time (not when the inputs are built)
    lets the traced run's wrappers see it.
    """

    def __init__(self, owner, attr: str, *args, **kwargs):
        self.owner, self.attr, self.args, self.kwargs = owner, attr, args, kwargs

    def __call__(self):
        return getattr(self.owner, self.attr)(*self.args, **self.kwargs)


class Lazy:
    """A reference value computed on first use, outside the timed region."""

    def __init__(self, fn, *args):
        self._fn, self._args, self._done, self._value = fn, args, False, None

    def get(self):
        if not self._done:
            self._value = self._fn(*self._args)
            self._done = True
        return self._value


# ---------------------------------------------------------------------------
# helpers


def _permute(mask: int, perm: list[int]) -> int:
    out = 0
    for i, target in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << target
    return out


def _random_sets(rng: random.Random, n: int, count: int, size: int, min_width: int = 0):
    """``count`` distinct ``size``-subsets of [n] whose union has >= min_width elements."""
    while True:
        masks: set[int] = set()
        while len(masks) < count:
            masks.add(sum(1 << e for e in rng.sample(range(n), size)))
        env = 0
        for m in masks:
            env |= m
        if env.bit_count() >= min_width:
            return sorted(masks)


def _elements(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _write_family(path: Path, n: int, masks) -> str:
    lines = [f"n={n}"] + [",".join(map(str, _elements(m))) for m in masks]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _core(masks) -> int:
    y = -1
    for m in masks:
        y &= m
    return y


def _disjoint_beyond(masks, y: int) -> bool:
    acc = 0
    for m in masks:
        part = m & ~y
        if part & acc:
            return False
        acc |= part
    return True


def _frac(text) -> Fraction:
    return Fraction(str(text))


def _expect(exc_type, call: Call):
    """Run the call; return the exception of type exc_type it raises, else its result."""
    try:
        return call()
    except exc_type as exc:
        return exc


class CliRun:
    """One in-process ``cli.main`` invocation writing its report to a file."""

    def __init__(self, out_dir: Path, name: str, argv: list[str]):
        self.path = out_dir / f"{name}.json"
        self.argv = argv + ["--out", str(self.path)]

    def __call__(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(self.argv))
        return code, err.getvalue()

    def report(self) -> dict:
        return json.loads(self.path.read_text(encoding="utf-8"))


def _checks_by_name(report: dict) -> dict:
    return {c["name"]: c for c in report["checks"]}


def _cli_passed(run: CliRun, result) -> dict:
    code, err = result
    require(code == 0, f"{run.argv[0]} exited {code}: {err.strip()}")
    report = run.report()
    require(report["all_passed"], f"{run.argv[0]} reported a failed check")
    return report


def _near(value: float, half_width: float, low, high, what: str) -> None:
    require(
        R.within_half_widths(value, half_width, low, high),
        f"{what}: estimate {value} +- {half_width} outside 3 half-widths "
        f"of [{float(low)}, {float(high)}]",
    )


def _report_near(d: dict, low, high, what: str) -> None:
    """A CLI report's estimate ({"value", "half_width", ...}) lands near [low, high]."""
    _near(d["value"], d["half_width"], low, high, what)


def _coverage_reference(members, y: int, p) -> Fraction:
    """Closed form when the members are disjoint beyond y, else enumeration."""
    if _disjoint_beyond(members, y):
        return R.disjoint_petal_coverage([(m & ~y).bit_count() for m in members], p)
    return R.coverage_enumeration(members, y, p)


# ---------------------------------------------------------------------------
# closure-hr


def _check_closure(ref: Lazy, result) -> None:
    require(sorted(result.minterms) == ref.get(),
            "closure differs from the truth-table closure")


def _hr_circuit(hr, rng: random.Random):
    """The OR-of-ANDs circuit of the DNF, in a seeded term and variable order."""
    n = hr.params.n
    terms = list(hr.family.members)
    rng.shuffle(terms)
    gates: list[tuple] = [("input", i) for i in range(1, n + 1)]
    heads = []
    for m in terms:
        elems = _elements(m)
        rng.shuffle(elems)
        cur = elems[0]
        for e in elems[1:]:
            gates.append(("and", cur, e))
            cur = len(gates)
        heads.append(cur)
    cur = heads[0]
    for h in heads[1:]:
        gates.append(("or", cur, h))
        cur = len(gates)
    return monotone.MonotoneCircuit(n, tuple(gates), cur)


def _circuit_truth(circuit) -> np.ndarray:
    """The circuit's output on all 2^n inputs, evaluated gate by gate."""
    xs = np.arange(1 << circuit.n)
    vals = []
    for g in circuit.gates:
        if g[0] == "input":
            vals.append((xs >> (g[1] - 1)) & 1 == 1)
        elif g[0] == "or":
            vals.append(vals[g[1] - 1] | vals[g[2] - 1])
        else:
            vals.append(vals[g[1] - 1] & vals[g[2] - 1])
    return vals[circuit.output - 1]


def _check_approximation(circuit, params, pos_sets, result) -> None:
    approx, ledger = result
    n = circuit.n
    require(len(ledger.entries) == len(circuit.gates), "one ledger entry per gate")
    for e in ledger.entries:
        require(
            0 <= e.positive_error <= 1 and 0 <= e.negative_error <= 1,
            f"gate {e.gate}: ledger entry outside [0, 1]",
        )
    require(
        all(m.bit_count() <= params.c / 2 for m in approx.minterms),
        "approximator keeps a minterm above the trim size",
    )
    out = _circuit_truth(circuit)
    ap = np.zeros(1 << n, dtype=np.uint8)
    ap[list(approx.minterms)] = 1
    R.up_closure(ap, n)
    ap = ap.astype(bool)
    pos_err = Fraction(sum(1 for x in pos_sets if out[x] and not ap[x]), len(pos_sets))
    neg_err = Fraction(int((~out & ap).sum()), 1 << n)
    require(pos_err <= ledger.total_positive, "positive disagreement above the ledger total")
    require(neg_err <= ledger.total_negative, "negative disagreement above the ledger total")


def _check_closure_demo(run: CliRun, ref: Lazy, result) -> None:
    report = _cli_passed(run, result)
    got = sorted(sum(1 << (e - 1) for e in elems) for elems in report["payload"]["closure_minterms"])
    require(got == ref.get(), "closure-demo minterms differ from the truth-table closure")


def _check_hr_verify_exact(run: CliRun, n, c, k, ref: Lazy, result) -> None:
    report = _cli_passed(run, result)
    checks = _checks_by_name(report)
    want = ref.get()
    require(_frac(checks["positive-accept-rate"]["value"]) == want["positive_accept"],
            "hr-verify positive acceptance differs from the polynomial enumeration")
    require(_frac(checks["negative-reject-rate"]["value"]) == want["negative_reject"],
            "hr-verify negative rejection differs from the truth-table count")
    require(_frac(checks["cwise-independence"]["value"]) == Fraction(1, n ** min(c, k)),
            "hr-verify c-wise independence is not n^-c")
    require(checks["family-size"]["value"] == len(want["minterms"]),
            "hr-verify family size differs from the minterm count")


def _check_bad_input(result) -> None:
    code, err = result
    require(code == 2, f"bad input exited {code}, expected 2")
    require(len(err.strip().splitlines()) == 1, "bad input should print a one-line error")


def closure_hr(seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []

    hr17 = harnik_raz.build_hr_family(harnik_raz.HRParams(17, 2, 5))
    perm = list(range(17))
    rng.shuffle(perm)
    f17 = monotone.MonotoneFunction.from_masks(17, [_permute(m, perm) for m in hr17.family.members])
    p17 = monotone.ClosureParams(eps=0.1, c=4)
    ref17 = Lazy(R.closure_truth_table, 17, f17.minterms, p17.eps, p17.c)
    ops.append(Op("closure-hr17", Call(monotone, "closure", f17, p17),
                  partial(_check_closure, ref17)))

    hr11 = harnik_raz.build_hr_family(harnik_raz.HRParams(11, 2, 3))
    circuit = _hr_circuit(hr11, rng)
    pc = monotone.ClosureParams(eps=0.1, c=4)
    pos = harnik_raz.PositiveTestDistribution(hr11)
    neg = probability.PBiasedDistribution(11, HALF)
    ops.append(Op("approximate-circuit-hr11",
                  Call(monotone, "approximate_circuit", circuit, pc, pos, neg, "exact"),
                  partial(_check_approximation, circuit, pc, R.hr_value_sets(11, 2, 3))))

    n = 12
    demo = [sum(1 << e for e in rng.sample(range(n), 2 + i % 2)) for i in range(6)]
    spec = ";".join(",".join(map(str, _elements(m))) for m in demo)
    run = CliRun(out_dir, "closure-demo", [
        "closure-demo", "-P", f"n={n}", "-P", f"minterms={spec}", "-P", "eps=1/10", "-P", "c=3"])
    ref = Lazy(R.closure_truth_table, n, demo, 0.1, 3)
    ops.append(Op("cli-closure-demo", run, partial(_check_closure_demo, run, ref)))

    run = CliRun(out_dir, "hr-verify-exact", ["hr-verify", "-P", "n=13", "-P", "c=2", "-P", "k=4"])
    ops.append(Op("cli-hr-verify-exact", run,
                  partial(_check_hr_verify_exact, run, 13, 2, 4, Lazy(R.hr_reference, 13, 2, 4))))

    run = CliRun(out_dir, "hr-verify-bad-input", ["hr-verify", "-P", "n=12", "-P", "c=2", "-P", "k=3"])
    ops.append(Op("cli-hr-verify-bad-input", run, _check_bad_input,
                  fault="a ValueError from HRParams escapes cli.main as a traceback"))
    return ops


# ---------------------------------------------------------------------------
# extract-exact


def _extraction_instance(kind: str, j: int, rng: random.Random):
    """(family, eps, B) of one seeded extraction input.

    B is chosen per kind so that no extraction stops at a failed 1-uniform
    base case, whatever the labels: in stars and padded families only core
    elements violate spreadness (r <= m), so the recursion links down to
    the m petals; disjoint families are spread; random 2-uniform families
    of >= 10 members only link on elements lying in >= 7 of them.
    """
    if kind == "star":
        m, core = 6 + j % 9, 1 + j % 2
        n = m + core + 2
        masks = [((1 << core) - 1) | 1 << (core + i) for i in range(m)]
        eps, B = (0.05, 0.1)[j % 2], 0.5
    elif kind == "disjoint":
        size = 1 + j % 3
        m = (6 + j % 10, 4 + j % 5, 3 + j % 3)[size - 1]
        n = m * size
        masks = [((1 << size) - 1) << (i * size) for i in range(m)]
        eps, B = (0.2, 0.4)[j % 2], 0.25
    elif kind == "padded":
        pad, size, m = 1 + j % 2, 1 + (j // 2) % 2, 8 + j % 7
        n = pad + m * size
        masks = [((1 << pad) - 1) | ((1 << size) - 1) << (pad + i * size) for i in range(m)]
        eps, B = (0.2, 0.4)[j % 2], 0.25
    else:
        m, n = 10 + j % 7, 10 + j % 5
        masks = _random_sets(rng, n, m, 2)
        eps, B = 0.4, 0.5
    perm = list(range(n))
    rng.shuffle(perm)
    fam = setfamily.SetFamily.from_masks(n, [_permute(m, perm) for m in masks])
    return fam, eps, B


def _check_extraction(fam, p, eps, result) -> None:
    members = result.subfamily.members
    require(members and set(members) <= set(fam.members), "subfamily is not inside the input")
    require(result.kernel == _core(members), "kernel is not the core of the subfamily")
    require(len(result.recursion_trace) >= 1, "empty recursion trace")
    value = result.probability.value
    require(value == _coverage_reference(members, result.kernel, p),
            "robustness coverage differs from its reference")
    require(result.verified == (value > 1 - Fraction(eps)),
            "verified flag disagrees with coverage > 1 - eps")


def _check_clique_extraction(fam, p, q, eps, result) -> None:
    members = result.subfamily.members
    require(result.status == "ok" and result.verified, f"clique extraction status {result.status}")
    require(set(members) <= set(fam.members), "clique subfamily is not inside the input")
    core = _core(members)
    require(result.core_set == core, "core is not the intersection of the subfamily")
    require(_disjoint_beyond(members, core), "expected members disjoint beyond the core")
    want = R.clique_disjoint_coverage([m.bit_count() for m in members], core.bit_count(), p, q)
    require(result.probability.value == want, "clique coverage differs from the closed form")
    require(want > 1 - Fraction(eps), "verified extraction below 1 - eps")


def _janson_reference(vertex_masks, p, q):
    mu, delta = R.janson_moments(vertex_masks, p, q)
    return mu, delta, 1 - R.clique_hit_inclusion_exclusion(vertex_masks, p, q)


def _check_janson(ref: Lazy, result) -> None:
    mu, delta, miss = ref.get()
    require(result.mu_exact == mu and result.delta_bar_exact == delta,
            "Janson moments differ from the pairwise sum")
    require(float(miss) <= result.bound * (1 + 1e-12), "Janson bound below the miss probability")


def _check_coverage(ref: Lazy, result) -> None:
    require(result.value == ref.get(), "coverage_exact differs from the enumeration")


def _check_cli_coverage_exact(run, ref: Lazy, result) -> None:
    report = _cli_passed(run, result)
    require(_frac(report["checks"][0]["value"]) == ref.get(),
            "coverage (exact) report differs from the enumeration")


def _check_cli_sunflower(run, fam, p, eps, result) -> None:
    report = _cli_passed(run, result)
    petals = [sum(1 << (e - 1) for e in elems) for elems in report["payload"]["petals"]]
    kernel = sum(1 << (e - 1) for e in report["payload"]["kernel"])
    require(set(petals) <= set(fam.members), "sunflower-extract petals not inside the input")
    require(kernel == _core(petals), "sunflower-extract kernel is not the core")
    value = _frac(report["checks"][0]["probability"])
    require(value == _coverage_reference(petals, kernel, p) and value > 1 - Fraction(eps),
            "sunflower-extract coverage differs from its closed form")


def _check_cli_clique_extract(run, fam, result) -> None:
    report = _cli_passed(run, result)
    members = [sum(1 << (e - 1) for e in elems) for elems in report["payload"]["members"]]
    require(report["checks"][0]["value"] is True, "clique-extract did not verify")
    require(set(members) <= set(fam), "clique-extract members not inside the input")


def _check_cli_janson(run, masks, p, q, result) -> None:
    report = _cli_passed(run, result)
    check = report["checks"][0]
    want = 1 - R.clique_disjoint_coverage([m.bit_count() for m in masks], 0, p, q)
    require(_frac(check["value"]) == want, "janson miss differs from the closed form")
    require(float(want) <= float(check["bound"]) * (1 + 1e-12), "janson bound below the miss")


def _check_cli_code_poly(run, q, dim, result) -> None:
    report = _cli_passed(run, result)
    checks = _checks_by_name(report)
    require(checks["monomial-count"]["value"] == q**dim, "monomial count is not q^dim")
    require(checks["max-agreement"]["value"] == dim - 1, "max agreement is not dim-1")
    require(checks["canonical-audit"]["status"] == "pass", "canonical audit failed")


def _check_cli_spread(run, seed, n, size, count, members, p, eps, B, result) -> None:
    report = _cli_passed(run, result)
    rows = report["payload"]["trials"]
    require(len(rows) == count, "spread-experiment trial count")
    r = B * math.log(size / float(eps)) / float(p)
    stream = R.SplitMix(seed, 3)
    for row in rows:
        masks: set[int] = set()
        while len(masks) < members:
            mask = 0
            while mask.bit_count() < size:
                mask |= 1 << stream.below(n)
            masks.add(mask)
        spread, _, _ = R.spread_witness(sorted(masks), Fraction(r))
        require(row["spread"] == spread, f"trial {row['trial']}: spread flag differs")
        require(_frac(row["coverage"]) == R.coverage_enumeration(sorted(masks), 0, p),
                f"trial {row['trial']}: coverage differs from the enumeration")


def extract_exact(seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []

    kinds = ("star", "disjoint", "padded", "random")
    for i in range(200):
        kind, j = kinds[i % 4], i // 4
        fam, eps, B = _extraction_instance(kind, j, rng)
        params = sunflowers.ThresholdParams(B=B)
        ops.append(Op(f"extract-{kind}",
                      Call(sunflowers, "extract_robust_sunflower", fam, HALF, eps, params),
                      partial(_check_extraction, fam, HALF, eps)))

    for m in (10, 12, 14):
        perm = list(range(16))
        rng.shuffle(perm)
        masks = [_permute(0b11 | 1 << (2 + i), perm) for i in range(m)]
        fam = cliques.CliqueFamily.from_masks(16, masks)
        ops.append(Op("find-clique-sunflower-star",
                      Call(cliques, "find_clique_sunflower", fam, HALF, 1, 0.1),
                      partial(_check_clique_extraction, fam, HALF, 1, 0.1)))
    perm = list(range(18))
    rng.shuffle(perm)
    tri = [_permute(0b111 << (3 * i), perm) for i in range(6)]
    fam = cliques.CliqueFamily.from_masks(18, tri)
    ops.append(Op("find-clique-sunflower-janson",
                  Call(cliques, "find_clique_sunflower", fam, Fraction(3, 4), 1, 0.1),
                  partial(_check_clique_extraction, fam, Fraction(3, 4), 1, 0.1)))

    grid = (Fraction(1, 4), HALF, Fraction(3, 4))
    for i in range(300):
        vsets = _random_sets(rng, 7, 2 + i % 5, 3)
        p, q = grid[i % 3], grid[(i // 3) % 3]
        fam = cliques.CliqueFamily.from_masks(7, vsets)
        ops.append(Op("janson-certificate", Call(cliques, "janson_certificate", fam, p, q),
                      partial(_check_janson, Lazy(_janson_reference, vsets, p, q))))

    for name, n, count, min_width in (("coverage-exact-ie20", 24, 20, 20),
                                      ("coverage-exact-enum22", 22, 26, 22)):
        masks = _random_sets(rng, n, count, 3, min_width)
        fam = setfamily.SetFamily.from_masks(n, masks)
        ref = Lazy(R.coverage_enumeration, masks, 0, HALF)
        ops.append(Op(name, Call(probability, "coverage_exact", fam, 0, HALF),
                      partial(_check_coverage, ref)))

    masks = _random_sets(rng, 16, 14, 3)
    y = sum(1 << e for e in rng.sample(range(16), 2))
    path = _write_family(out_dir / "coverage-exact.txt", 16, masks)
    run = CliRun(out_dir, "coverage-exact", [
        "coverage", "-P", "n=16", "-P", f"family={path}", "-P",
        "Y=" + ",".join(map(str, _elements(y))), "-P", "p=1/3"])
    ref = Lazy(R.coverage_enumeration, masks, y, Fraction(1, 3))
    ops.append(Op("cli-coverage-exact", run, partial(_check_cli_coverage_exact, run, ref)))

    perm = list(range(14))
    rng.shuffle(perm)
    star = setfamily.SetFamily.from_masks(14, [_permute(0b11 | 1 << (2 + i), perm) for i in range(12)])
    path = _write_family(out_dir / "sunflower.txt", 14, star.members)
    run = CliRun(out_dir, "sunflower-extract", [
        "sunflower-extract", "-P", "n=14", "-P", f"family={path}", "-P", "p=1/2",
        "-P", "eps=1/10", "-P", "B=0.5"])
    ops.append(Op("cli-sunflower-extract", run,
                  partial(_check_cli_sunflower, run, star, HALF, Fraction(1, 10))))

    perm = list(range(14))
    rng.shuffle(perm)
    cmasks = [_permute(0b11 | 1 << (2 + i), perm) for i in range(10)]
    path = _write_family(out_dir / "clique-star.txt", 14, cmasks)
    run = CliRun(out_dir, "clique-extract", [
        "clique-extract", "-P", "n=14", "-P", f"family={path}", "-P", "p=1/2",
        "-P", "q=1", "-P", "eps=1/10"])
    ops.append(Op("cli-clique-extract", run, partial(_check_cli_clique_extract, run, cmasks)))

    perm = list(range(12))
    rng.shuffle(perm)
    tmasks = [_permute(0b111 << (3 * i), perm) for i in range(4)]
    path = _write_family(out_dir / "triangles.txt", 12, tmasks)
    run = CliRun(out_dir, "janson", [
        "janson", "-P", "n=12", "-P", f"family={path}", "-P", "p=1/2", "-P", "q=1/2"])
    ops.append(Op("cli-janson", run, partial(_check_cli_janson, run, tmasks, HALF, HALF)))

    run = CliRun(out_dir, "code-poly", [
        "code-poly", "-P", "q=11", "-P", "n=9", "-P", "dim=3", "-P", "audit=true"])
    ops.append(Op("cli-code-poly", run, partial(_check_cli_code_poly, run, 11, 3)))

    run = CliRun(out_dir, "spread-experiment", [
        "spread-experiment", "--seed", str(seed), "-P", "n=12", "-P", "l=3", "-P", "count=20",
        "-P", "members=12", "-P", "p=1/2", "-P", "eps=1/10", "-P", "B=1"])
    ops.append(Op("cli-spread-experiment", run,
                  partial(_check_cli_spread, run, seed, 12, 3, 20, 12, HALF, Fraction(1, 10), 1.0)))
    return ops


# ---------------------------------------------------------------------------
# mc-sample


def _check_estimate(low, high, what, result) -> None:
    _near(result.value, result.half_width, low, high, what)


def _check_hr_mc(ref: Lazy, key: str, result) -> None:
    est, _ = result
    want = ref.get()[key]
    _near(est.value, est.half_width, want, want, key)


def _check_mc_closure(f, refs: Lazy, result) -> None:
    """The Monte-Carlo closure lies between two exact closures.

    A set is added only when its estimate clears 1-eps by a half-width, so
    (estimates within 3 half-widths) its true acceptance exceeds
    1-eps-2h and it lies below the closure at eps+2h; the result is closed
    at 1-eps+4h, so it lies above the closure at eps-4h.
    """
    low, high = refs.get()
    mine = R.truth_table(f.n, result.minterms)
    require(bool(np.all(R.truth_table(f.n, f.minterms) <= mine)),
            "Monte-Carlo closure does not contain f")
    require(bool(np.all(R.truth_table(f.n, low) <= mine) and np.all(mine <= R.truth_table(f.n, high))),
            "Monte-Carlo closure outside the exact closures at eps -4h / +2h")


def _mc_closure_bounds(f, eps, c, samples: int):
    h = R.wilson_half_width_bound(samples, 0.99)
    return (R.closure_truth_table(f.n, f.minterms, Fraction(eps) - Fraction(4 * h), c),
            R.closure_truth_table(f.n, f.minterms, Fraction(eps) + Fraction(2 * h), c))


def _check_cli_coverage_mc(run, want, result) -> None:
    report = _cli_passed(run, result)
    _report_near(report["checks"][0]["value"], want, want, "coverage --engine mc")


def _check_cli_hr_mc(run, ref: Lazy, result) -> None:
    report = _cli_passed(run, result)
    checks = _checks_by_name(report)
    want = ref.get()
    _report_near(checks["positive-accept-rate"]["value"], want["positive_accept"],
                        want["positive_accept"], "hr-verify positive acceptance")
    _report_near(checks["negative-reject-rate"]["value"], want["negative_reject"],
                        want["negative_reject"], "hr-verify negative rejection")


def _check_cli_clique_verify(run, n, k, p, result) -> None:
    report = _cli_passed(run, result)
    checks = _checks_by_name(report)
    low, high = R.kclique_bracket(n, k, p)
    _report_near(checks["kclique-probability"]["value"], low, high, "clique-verify")
    spread = checks["clique-spread"]
    size = spread["size"]
    require(_frac(spread["value"]) == Fraction(math.comb(n - size, k - size), math.comb(n, k)),
            "clique-spread value is not the hypergeometric ratio")


def _check_config_precedence(run, result) -> None:
    report = _cli_passed(run, result)
    require(report["config"]["engine"] == "mc" and report["config"]["samples"] == 1000,
            "explicit --engine/--samples flags lost to the --config file")


def _check_raises_value_error(result) -> None:
    require(isinstance(result, ValueError), f"p=2 accepted, returned {result!r}")


def mc_sample(seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []

    perm = list(range(48))
    rng.shuffle(perm)
    masks = [_permute(0b1111 << (4 * i), perm) for i in range(12)]
    fam = setfamily.SetFamily.from_masks(48, masks)
    want = R.disjoint_petal_coverage([4] * 12, HALF)
    ops.append(Op("coverage-mc-narrow",
                  Call(probability, "coverage_mc", fam, 0, HALF, 1_000_000, seed=seed),
                  partial(_check_estimate, want, want, "coverage_mc width 48")))

    perm = list(range(80))
    rng.shuffle(perm)
    masks = [_permute(0b11 << (2 * i), perm) for i in range(40)]
    fam = setfamily.SetFamily.from_masks(80, masks)
    want = R.disjoint_petal_coverage([2] * 40, Fraction(1, 8))
    ops.append(Op("coverage-mc-wide",
                  Call(probability, "coverage_mc", fam, 0, Fraction(1, 8), 100_000, seed=seed),
                  partial(_check_estimate, want, want, "coverage_mc width 80")))

    perm = list(range(8))
    rng.shuffle(perm)
    core = _permute(0b11, perm)
    cmasks = [_permute(0b11 | 1 << (2 + i), perm) for i in range(6)]
    cfam = cliques.CliqueFamily.from_masks(8, cmasks)
    want = R.clique_disjoint_coverage([3] * 6, 2, HALF, HALF)
    ops.append(Op("pq-coverage-mc",
                  Call(cliques, "pq_coverage_mc", cfam, core, HALF, HALF, 20_000, seed=seed),
                  partial(_check_estimate, want, want, "pq_coverage_mc")))

    low, high = R.kclique_bracket(64, 4, Fraction(1, 16))
    ops.append(Op("verify-no-kclique-bound",
                  Call(cliques, "verify_no_kclique_bound", 64, 4, Fraction(1, 16), 4000, seed),
                  partial(_check_estimate, low, high, "k-clique probability")))

    hr = harnik_raz.build_hr_family(harnik_raz.HRParams(13, 2, 4))
    ref13 = Lazy(R.hr_reference, 13, 2, 4)
    ops.append(Op("verify-positive-acceptance-mc",
                  Call(harnik_raz, "verify_positive_acceptance", hr, "mc", 30_000, seed),
                  partial(_check_hr_mc, ref13, "positive_accept")))
    ops.append(Op("verify-negative-rejection-mc",
                  Call(harnik_raz, "verify_negative_rejection", hr, "mc", 30_000, seed),
                  partial(_check_hr_mc, ref13, "negative_reject")))

    # closed already at this eps, so every seed scans all 293 unaccepted candidates
    n = 12
    small = _random_sets(rng, n, 6, 3)
    f = monotone.MonotoneFunction.from_masks(n, small)
    params = monotone.ClosureParams(eps=0.05, c=3)
    refs = Lazy(_mc_closure_bounds, f, params.eps, params.c, 2000)
    ops.append(Op("closure-mc",
                  Call(monotone, "closure", f, params, "mc", samples=2000, seed=seed),
                  partial(_check_mc_closure, f, refs)))

    perm = list(range(30))
    rng.shuffle(perm)
    masks = [_permute(0b111 << (3 * i), perm) for i in range(10)]
    path = _write_family(out_dir / "coverage-mc.txt", 30, masks)
    run = CliRun(out_dir, "coverage-mc", [
        "coverage", "--engine", "mc", "--samples", "200000", "--seed", str(seed),
        "-P", "n=30", "-P", f"family={path}", "-P", "p=1/2"])
    ops.append(Op("cli-coverage-mc", run,
                  partial(_check_cli_coverage_mc, run, R.disjoint_petal_coverage([3] * 10, HALF))))

    run = CliRun(out_dir, "hr-verify-mc", [
        "hr-verify", "--samples", "20000", "--seed", str(seed),
        "-P", "n=11", "-P", "c=2", "-P", "k=3", "-P", "mode=mc"])
    ops.append(Op("cli-hr-verify-mc", run,
                  partial(_check_cli_hr_mc, run, Lazy(R.hr_reference, 11, 2, 3))))

    run = CliRun(out_dir, "clique-verify", [
        "clique-verify", "--samples", "2000", "--seed", str(seed), "-P", "n=32", "-P", "k=4"])
    ops.append(Op("cli-clique-verify", run,
                  partial(_check_cli_clique_verify, run, 32, 4, 32 ** (-2.0 / 3))))

    # fixed inputs: these operations fail on every seed until the fault is mended
    tiny = _write_family(out_dir / "tiny.txt", 6, [0b11, 0b1100])
    config = out_dir / "precedence.cfg"
    config.write_text("samples=2000\nengine=exact\n", encoding="utf-8")
    run = CliRun(out_dir, "config-precedence", [
        "coverage", "--config", str(config), "--samples", "1000", "--engine", "mc",
        "--seed", "1", "-P", "n=6", "-P", f"family={tiny}", "-P", "p=1/2"])
    ops.append(Op("cli-coverage-config-precedence", run, partial(_check_config_precedence, run),
                  fault="--config samples=/engine= override the explicit flags"))
    small_fam = setfamily.SetFamily.from_masks(6, [0b11, 0b1100])
    ops.append(Op("coverage-mc-p2",
                  partial(_expect, ValueError, Call(probability, "coverage_mc", small_fam, 0, 2, 100)),
                  _check_raises_value_error,
                  fault="coverage_mc accepts p outside [0, 1]"))
    small_cf = cliques.CliqueFamily.from_masks(4, [0b111])
    ops.append(Op("pq-coverage-mc-p2",
                  partial(_expect, ValueError, Call(cliques, "pq_coverage_mc", small_cf, 0, 2, 1, 100)),
                  _check_raises_value_error,
                  fault="pq_coverage_mc accepts p outside [0, 1]"))
    return ops


WORKLOADS = {
    "closure-hr": closure_hr,
    "extract-exact": extract_exact,
    "mc-sample": mc_sample,
}
