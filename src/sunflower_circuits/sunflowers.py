"""Sunflower detection and constructive robust-sunflower extraction.

A sunflower is a family whose pairwise intersections all equal a common
kernel; the robust variant asks instead that a p-biased set W joined with
the kernel covers some member with probability > 1 - eps.

``descend`` runs the popular-core argument of Alweiss-Lovett-Wu-Zhang
(2019) as one loop for both extractions: a uniform family either stops
(spread enough, or a base case) or has a popular core T whose link is a
smaller uniform family to step into; the family reached is lifted once by
the union of the Ts and verified.  ``extract_robust_sunflower`` steps over
the witness of a failed r-spread check (r = B*ln(l/eps)/p), and
``cliques.find_clique_sunflower`` over popular vertex cores.  B is a
tunable constant, so every result is post-verified and carries a
``verified`` flag; a False flag with a too-small B is a legitimate
experimental outcome, not an error.  The threshold formulas here are the
Erdős–Rado bound of ``find_sunflower`` and ``spread_radius``; the paper's
improved robust-sunflower threshold is ``spread_radius(...) ** l``.

All logarithms are natural; a change of base is absorbed into B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import BaseCaseFailedError, ExactIntractableError, ThresholdNotMetError
from .probability import RobustnessCheck, is_robust_sunflower
from .setfamily import SetFamily, check_spread, core, link, uniform_size


@dataclass(frozen=True)
class Sunflower:
    petals: SetFamily
    kernel: int

    def is_valid(self) -> bool:
        """Every pair of distinct petals intersects exactly in the kernel (so it is their core)."""
        return all(a & b == self.kernel for a, b in combinations(self.petals.members, 2))


@dataclass(frozen=True)
class ThresholdParams:
    """Tunable constant B of the spread radius.

    The bound only guarantees that some B > 0 works; 64 is a generous
    default for experiments and is deliberately configurable.
    """

    B: float = 64.0

    def __post_init__(self):
        if self.B <= 0:
            raise ValueError("B must be positive")


def erdos_rado_threshold(size: int, petals: int) -> int:
    """l!(r-1)^l: families above this size contain an r-petal sunflower."""
    if size < 1 or petals < 2:
        raise ValueError("need size >= 1 and petals >= 2")
    return math.factorial(size) * (petals - 1) ** size


def spread_radius(size: int, p: float, eps: float, params: ThresholdParams) -> float:
    """r = B ln(l/eps)/p used by the extraction loop; p outside (0, 1], eps outside (0, 1) raise."""
    if not (0 < p <= 1 and 0 < eps < 1):
        raise ValueError(f"need 0 < p <= 1 and 0 < eps < 1, got p={p}, eps={eps}")
    return params.B * math.log(size / eps) / p


def _greedy_disjoint(family: SetFamily, petals: int) -> list[int]:
    taken: list[int] = []
    acc = 0
    for m in family.members:
        if m & acc == 0:
            taken.append(m)
            acc |= m
            if len(taken) == petals:
                break
    return taken


def find_sunflower(family: SetFamily, petals: int) -> Sunflower:
    """Find a sunflower with >= ``petals`` petals in a uniform family.

    Textbook induction, run as a loop: greedily collect pairwise-disjoint
    members; with fewer than r of them, every member meets their union, so
    some element lies in at least |F|/(l(r-1)) members; step to its link
    and add it to the kernel, lifting the petals by the kernel at the end.
    Succeeds whenever |F| > l!(r-1)^l; below the threshold it still tries
    and raises ThresholdNotMet only if the search fails.
    """
    if petals < 1:
        raise ValueError("petals must be >= 1")
    size = uniform_size(family) if family.members else 0
    fam, kernel = family, 0
    while fam.members:
        taken = _greedy_disjoint(fam, petals)
        if len(taken) >= petals:
            return Sunflower(SetFamily.from_masks(family.n, (m | kernel for m in taken)), kernel)
        if all(m == 0 for m in fam.members):
            break  # only the empty set remains; cannot reach r petals
        counts: dict[int, int] = {}
        for m in fam.members:
            mm = m
            while mm:
                low = mm & -mm
                counts[low] = counts.get(low, 0) + 1
                mm ^= low
        best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        fam, kernel = link(fam, best), kernel | best
    if size >= 1 and len(family) > erdos_rado_threshold(size, max(petals, 2)):
        raise AssertionError("family above the guarantee threshold but search failed")
    raise ThresholdNotMetError(
        f"no {petals}-petal sunflower found; family size {len(family)} is at or "
        f"below the guarantee threshold"
    )


@dataclass(frozen=True)
class TraceStep:
    depth: int
    uniform_size: int
    family_size: int
    r: float
    case: str
    chosen: Optional[int]

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "l": self.uniform_size,
            "family": self.family_size,
            "r": self.r,
            "case": self.case,
            "T": self.chosen,
        }


@dataclass(frozen=True)
class RobustSunflowerResult:
    subfamily: SetFamily
    kernel: int
    verified: bool
    probability: object  # ExactProbability or Estimate
    recursion_trace: tuple[TraceStep, ...] = field(default_factory=tuple)
    check: Optional[RobustnessCheck] = None


def descend(family: SetFamily, probs: dict, eps, bias, rule, trace_step, refusal: str, verify):
    """The popular-core descent of both extractions: (subfamily, trace, check, detail).

    ``probs`` (named as given) must lie in (0, 1] and eps in (0, 1), exactly.
    On the l-uniform family F reached, at b = bias(lift) for the union ``lift``
    of the cores stepped over, l = 0 stops (``trivial``); l = 1 stops (``base``)
    iff (1-b)^|F| < eps, exactly rather than the looser exp(-b|F|) <= eps, else
    raises ``BaseCaseFailedError`` with ``refusal`` formatted at count=|F|;
    larger l take (case, T, detail) from ``rule(F, l, b)``, and ``link`` steps
    into the link at T.  Each level appends ``trace_step(depth, l, |F|, case,
    T, b, detail)``.  F is lifted once by the (disjoint) cores and checked by
    ``verify(subfamily, engine)``: exactly, by Monte-Carlo if that refuses,
    and not at all after a ``below_threshold`` stop.
    """
    if not (all(0 < Fraction(v) <= 1 for v in probs.values()) and 0 < Fraction(eps) < 1):
        given = ", ".join(f"{name}={value}" for name, value in {**probs, "eps": eps}.items())
        raise ValueError(f"need 0 < {', '.join(probs)} <= 1 and 0 < eps < 1, got {given}")
    trace = []
    fam, lift = family, 0
    while True:
        size = uniform_size(fam)
        b = bias(lift)
        if size >= 2:
            case, t, detail = rule(fam, size, b)
        elif size == 1 and (1 - b) ** len(fam) >= Fraction(eps):
            raise BaseCaseFailedError(refusal.format(count=len(fam)))
        else:  # at l = 0 a member is empty, so coverage is certain
            case, t, detail = ("base" if size else "trivial"), None, None
        trace.append(trace_step(len(trace), size, len(fam), case, t, b, detail))
        if case != "link":
            break
        fam, lift = link(fam, t), lift | t
    subfamily = SetFamily.from_masks(family.n, (m | lift for m in fam.members))
    if case == "below_threshold":
        return subfamily, tuple(trace), None, detail
    try:
        check = verify(subfamily, "exact")
    except ExactIntractableError:
        check = verify(subfamily, "mc")
    return subfamily, tuple(trace), check, detail


def extract_robust_sunflower(
    family: SetFamily,
    p,
    eps,
    params: ThresholdParams = ThresholdParams(),
    mc_samples: int = 100_000,
    seed: int = 0,
) -> RobustSunflowerResult:
    """Extract a candidate (p, eps)-robust sunflower by ``descend`` at bias p, and verify it.

    At l >= 2, with r = B ln(l/eps)/p, an r-spread family stops with
    ``spread``; otherwise the witness T of ``check_spread`` is stepped over.
    """
    def rule(fam: SetFamily, size: int, b):
        r = spread_radius(size, float(p), float(eps), params)
        report = check_spread(fam, Fraction(r))
        return ("spread", None, r) if report.is_spread else ("link", report.witness, r)

    subfamily, trace, chk, _ = descend(
        family, {"p": p}, eps, lambda lift: Fraction(p), rule,
        lambda depth, size, count, case, t, b, r: TraceStep(depth, size, count, r or 0.0, case, t),
        "(1-p)^{count} >= eps at the 1-uniform base case",
        lambda sub, engine: is_robust_sunflower(sub, p, eps, engine, mc_samples, seed))
    return RobustSunflowerResult(subfamily, core(subfamily), chk.decision is True,
                                 chk.probability, trace, chk)
