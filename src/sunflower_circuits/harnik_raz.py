"""The polynomial-image DNF over a prime field and its test distributions.

For a prime n and integers c < k < n, every polynomial P of degree at most
c-1 over F_n yields the value set S_P = {P(1), ..., P(k)} inside [n]
(residue 0 is identified with element n, all other residues with
themselves).  The hard function is the DNF over all S_P with |S_P| >= k/2.

The positive test distribution draws a uniformly random polynomial and
returns the indicator vector of S_P -- including non-qualifying P, whose
rejection is exactly the positive-side failure event.  The negative test
distribution is the uniform (1/2-biased) distribution on inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

from .errors import EnumerationTooLargeError
from .probability import (
    DEFAULT_WORK_CAP_BITS,
    coverage_exact,
    mc_event_probability,
    sample_p_subset,
)
from .rng import CounterStream
from .setfamily import SetFamily, antichain_minimize

DEFAULT_POLY_CAP = 1 << 22


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class HRParams:
    """n: prime modulus and ground-set size; c: 1 + degree bound; k: points."""

    n: int
    c: int
    k: int

    def __post_init__(self):
        if not is_prime(self.n):
            raise ValueError(f"n={self.n} must be prime")
        if not 1 <= self.c < self.k < self.n:
            raise ValueError("need 1 <= c < k < n")

    @property
    def n_polynomials(self) -> int:
        return self.n**self.c

    @property
    def min_weight(self) -> int:
        return -(-self.k // 2)  # ceil(k/2)


def _residue_bit(r: int, n: int) -> int:
    # residue 0 maps to element n, other residues map to themselves
    return 1 << (n - 1) if r == 0 else 1 << (r - 1)


def eval_poly_points(coeffs: tuple[int, ...], k: int, n: int) -> int:
    """Mask of {P(1), ..., P(k)} for P given by coefficients (low degree first)."""
    mask = 0
    for x in range(1, k + 1):
        v = 0
        for a in reversed(coeffs):
            v = (v * x + a) % n
        mask |= _residue_bit(v, n)
    return mask


def iter_polynomials(params: HRParams) -> Iterator[tuple[int, ...]]:
    """All n^c coefficient tuples in lexicographic order (degree-0 fastest)."""
    return product(range(params.n), repeat=params.c)


@dataclass(frozen=True)
class HRFamily:
    params: HRParams
    family: SetFamily  # qualifying value sets, deduplicated, antichain-minimized
    n_qualifying: int  # number of polynomials with |S_P| >= ceil(k/2)

    def eval(self, x: int) -> int:
        return 1 if any(m & x == m for m in self.family.members) else 0


def build_hr_family(params: HRParams, cap: int = DEFAULT_POLY_CAP) -> HRFamily:
    """Enumerate all polynomials and collect the qualifying value sets."""
    if params.n_polynomials > cap:
        raise EnumerationTooLargeError(
            f"n^c = {params.n_polynomials} exceeds the cap {cap}"
        )
    qualifying = 0
    masks = set()
    for coeffs in iter_polynomials(params):
        m = eval_poly_points(coeffs, params.k, params.n)
        if m.bit_count() >= params.min_weight:
            qualifying += 1
            masks.add(m)
    family = SetFamily.from_masks(params.n, antichain_minimize(masks))
    return HRFamily(params, family, qualifying)


def sample_positive(hr: HRFamily, stream: CounterStream) -> int:
    """Uniform random polynomial, returned as the mask of its value set."""
    coeffs = tuple(stream.next_below(hr.params.n) for _ in range(hr.params.c))
    return eval_poly_points(coeffs, hr.params.k, hr.params.n)


def sample_negative(hr: HRFamily, stream: CounterStream) -> int:
    return sample_p_subset(hr.params.n, Fraction(1, 2), stream)


class PositiveTestDistribution:
    """Distribution of value-set masks of a uniform random polynomial."""

    def __init__(self, hr: HRFamily, cap: int = DEFAULT_POLY_CAP):
        self.hr = hr
        self.cap = cap

    def exact_items(self):
        params = self.hr.params
        if params.n_polynomials > self.cap:
            raise EnumerationTooLargeError("positive support too large")
        counts: dict[int, int] = {}
        for coeffs in iter_polynomials(params):
            m = eval_poly_points(coeffs, params.k, params.n)
            counts[m] = counts.get(m, 0) + 1
        total = params.n_polynomials
        for m in sorted(counts):
            yield m, Fraction(counts[m], total)

    def sample(self, stream: CounterStream) -> int:
        return sample_positive(self.hr, stream)


def verify_positive_acceptance(
    hr: HRFamily, mode: str = "exact", samples: int = 100_000, seed: int = 0,
    confidence: float = 0.99,
):
    """(Pr[f(pos)=1], 1-(k-1)/n): acceptance rate on the positive distribution.

    Exact mode counts qualifying polynomials; a qualifying S_P contains a
    minterm (itself), and a non-qualifying one is lighter than every
    minterm, so the count is exact, not just a bound.
    """
    params = hr.params
    bound = 1 - Fraction(params.k - 1, params.n)
    if mode == "exact":
        value = Fraction(hr.n_qualifying, params.n_polynomials)
        return value, bound
    est = mc_event_probability(
        lambda m: hr.eval(m) == 1,
        lambda stream: sample_positive(hr, stream),
        samples,
        confidence=confidence,
        seed=seed,
    )
    return est, float(bound)


def verify_negative_rejection(
    hr: HRFamily, mode: str = "exact", samples: int = 100_000, seed: int = 0,
    confidence: float = 0.99, work_cap_bits: int = DEFAULT_WORK_CAP_BITS,
):
    """(Pr[f(neg)=0], 1 - 2^-(k/2 - c log2 n)).

    At enumerable parameter scales k/2 <= c*log2(n), which makes the bound
    vacuous (negative); both sides are reported without assertion.
    """
    params = hr.params
    exponent = params.k / 2 - params.c * math.log2(params.n)
    bound = 1.0 - 2.0 ** (-exponent)
    if mode == "exact":
        accept = coverage_exact(hr.family, 0, Fraction(1, 2), work_cap_bits)
        return 1 - accept.value, bound
    est = mc_event_probability(
        lambda m: hr.eval(m) == 0,
        lambda stream: sample_negative(hr, stream),
        samples,
        confidence=confidence,
        seed=seed,
    )
    return est, bound


def verify_minterm_spread(
    hr: HRFamily, a_mask: int, mode: str = "exact", samples: int = 100_000,
    seed: int = 0, confidence: float = 0.99,
):
    """(Pr[A subset of S_P], (k/n)^|A|) for |A| <= c."""
    params = hr.params
    size = a_mask.bit_count()
    if size > params.c:
        raise ValueError("|A| must be at most c")
    bound = Fraction(params.k, params.n) ** size
    if mode == "exact":
        if params.n_polynomials > DEFAULT_POLY_CAP:
            raise EnumerationTooLargeError("spread enumeration too large")
        hits = sum(
            1
            for coeffs in iter_polynomials(params)
            if eval_poly_points(coeffs, params.k, params.n) & a_mask == a_mask
        )
        return Fraction(hits, params.n_polynomials), bound
    est = mc_event_probability(
        lambda m: m & a_mask == a_mask,
        lambda stream: sample_positive(hr, stream),
        samples,
        confidence=confidence,
        seed=seed,
    )
    return est, float(bound)


def verify_cwise_independence(
    params: HRParams, points: tuple[int, ...], values: tuple[int, ...]
) -> tuple[Fraction, Fraction]:
    """Exact Pr[P(j_1)=a_1, ..., P(j_l)=a_l] and its target value n^-l.

    The two are equal whenever l <= c: fixing a degree-(c-1) polynomial on
    at most c distinct points leaves a fiber of exactly n^(c-l) choices.
    """
    if len(points) != len(values):
        raise ValueError("points and values must align")
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    if any(not 1 <= j <= params.k for j in points):
        raise ValueError("points must lie in [1, k]")
    size = len(points)
    if size > params.c:
        raise ValueError("need at most c constraints")
    if params.n_polynomials > DEFAULT_POLY_CAP:
        raise EnumerationTooLargeError("independence enumeration too large")
    hits = 0
    for coeffs in iter_polynomials(params):
        ok = True
        for j, a in zip(points, values):
            v = 0
            for co in reversed(coeffs):
                v = (v * j + co) % params.n
            if v != a % params.n:
                ok = False
                break
        if ok:
            hits += 1
    return Fraction(hits, params.n_polynomials), Fraction(1, params.n**size)


def default_hr_parameters(n: int, B: float = 1.0) -> tuple[int, int]:
    """(k, c) = (round(sqrt(n)), round(k / (18 B ln n))), clamped to 1 <= c < k.

    B defaults to 1 so that desk-scale n yields a usable c; the
    extraction-grade default for B elsewhere is far larger.
    """
    if not is_prime(n):
        raise ValueError("n must be prime")
    k = round(math.sqrt(n))
    c = max(1, round(k / (18.0 * B * math.log(n))))
    c = min(c, k - 1)
    if not 1 <= c < k < n:
        raise ValueError(f"degenerate parameters for n={n}")
    return k, c
