"""Sunflower detection and constructive robust-sunflower extraction.

A sunflower is a family whose pairwise intersections all equal a common
kernel; the robust variant asks instead that a p-biased set W joined with
the kernel covers some member with probability > 1 - eps.

``extract_robust_sunflower`` runs the spreadness argument as a loop: a
family that is not r-spread has a popular set T whose link is a smaller
uniform family; step there.  An r-spread family (for r = B*ln(l/eps)/p)
ends the loop and is lifted once by the union of the Ts, which are
disjoint, so that equals lifting by each T in turn.  B is a tunable
constant, so every result is post-verified and carries a ``verified``
flag; a False flag with a too-small B is a legitimate experimental
outcome, not an error.  The threshold formulas here are the two the
extractions use, the Erdős–Rado bound and ``spread_radius``; the paper's
improved robust-sunflower threshold is ``spread_radius(...) ** l``.

All logarithms are natural; a change of base is absorbed into B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import BaseCaseFailedError, ExactIntractableError, ThresholdNotMetError
from .probability import RobustnessCheck, is_robust_sunflower
from .setfamily import SetFamily, check_spread, core, link, uniform_size


@dataclass(frozen=True)
class Sunflower:
    petals: SetFamily
    kernel: int

    def is_valid(self) -> bool:
        """Every pair of distinct petals intersects exactly in the kernel."""
        ms = self.petals.members
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                if ms[i] & ms[j] != self.kernel:
                    return False
        if len(ms) >= 2 and core(self.petals) != self.kernel:
            return False
        return True


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


def extract_robust_sunflower(
    family: SetFamily,
    p,
    eps,
    params: ThresholdParams = ThresholdParams(),
    mc_samples: int = 100_000,
    seed: int = 0,
) -> RobustSunflowerResult:
    """Extract a candidate (p, eps)-robust sunflower and verify it.

    Base case (1-uniform): the family itself qualifies once
    (1-p)^|F| < eps; the exact inequality is used instead of the looser
    exp(-p|F|) <= eps, so strictly more extractions succeed.  Otherwise
    compute r = B ln(l/eps)/p: a spreadness violation T steps to the link
    at T; an r-spread family is returned, lifted by every T stepped over.
    """
    eps_f = Fraction(eps)
    p_f = Fraction(p)
    trace: list[TraceStep] = []
    fam, lift, depth = family, 0, 0
    while True:
        fam_size = uniform_size(fam)
        if fam_size == 0:
            # a member shrank to the empty set: coverage is certain
            trace.append(TraceStep(depth, 0, len(fam), 0.0, "trivial", None))
            break
        if fam_size == 1:
            if (1 - p_f) ** len(fam) < eps_f:
                trace.append(TraceStep(depth, 1, len(fam), 0.0, "base", None))
                break
            raise BaseCaseFailedError(
                f"(1-p)^{len(fam)} >= eps at the 1-uniform base case"
            )
        r = spread_radius(fam_size, float(p), float(eps), params)
        report = check_spread(fam, Fraction(r))
        if report.is_spread:
            trace.append(TraceStep(depth, fam_size, len(fam), r, "spread", None))
            break
        t = report.witness
        trace.append(TraceStep(depth, fam_size, len(fam), r, "link", t))
        fam, lift, depth = link(fam, t), lift | t, depth + 1

    subfamily = SetFamily.from_masks(family.n, (m | lift for m in fam.members))
    kernel = core(subfamily)
    try:
        chk = is_robust_sunflower(subfamily, p, eps, "exact")
    except ExactIntractableError:
        chk = is_robust_sunflower(subfamily, p, eps, "mc", mc_samples, seed)
    return RobustSunflowerResult(
        subfamily=subfamily,
        kernel=kernel,
        verified=chk.decision is True,
        probability=chk.probability,
        recursion_trace=tuple(trace),
        check=chk,
    )
