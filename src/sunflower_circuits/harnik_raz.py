"""The polynomial-image DNF over a prime field and its test distributions.

For a prime n and integers c < k < n, every polynomial P of degree at most
c-1 over F_n yields the value set S_P = {P(1), ..., P(k)} inside [n]
(residue 0 is identified with element n, all other residues with
themselves).  The hard function is the DNF over all S_P with |S_P| >= k/2.

Polynomials are indexed 0 .. n^c - 1: coefficient j of polynomial i
(degree 0 first) is digit j of i in base n.  One evaluator,
``polynomial_values``, gives the values of every polynomial in that order
(``codes`` builds its Reed-Solomon codewords with it), and
``build_hr_family`` keeps the value set of each one, by index, as the
family's image table, which the positive sampler reads.  The exact positive
readings (``PositiveTestDistribution.acceptance`` and the exact minterm
spread) read its transpose, ``HRFamily.holders``: per element, the
polynomials whose value set holds it, as the bits of one int.  These are
the columns of the one row counter, ``probability.count_holding``, with
one row per polynomial.

The positive test distribution draws a uniformly random polynomial and
returns the indicator vector of S_P -- including non-qualifying P, whose
rejection is exactly the positive-side failure event.  Its one block
sampler is ``positive_rows``; ``sample_positive`` is one draw of its indices.
The negative test distribution is the uniform (1/2-biased) distribution.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import EnumerationTooLargeError
from .probability import (
    Estimate,
    bernoulli_hits,
    count_holding,
    coverage_exact,
    exact_engine,
    pack_rows,
    sampled_coverage,
    unpack_rows,
)
from .rng import CounterStream
from .setfamily import SetFamily, antichain_minimize

DEFAULT_POLY_CAP = 1 << 22
_CHUNK_ENTRIES = 1 << 21  # evaluator output entries per chunk


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


def polynomial_values(q: int, dim: int, points) -> Iterator[np.ndarray]:
    """Values mod q of all q^dim polynomials of degree < dim at ``points``.

    Polynomial i has coefficient j (degree 0 first) equal to digit j of i
    in base q.  Yields int64 arrays of shape (rows, len(points)) holding
    consecutive polynomials, at most max(1, 2^21 // q) rows each, so a chunk
    and a rows x q indicator of its values stay within about 2^21 entries.
    More than ``DEFAULT_POLY_CAP`` raise ``EnumerationTooLargeError`` at once.
    """
    total = q**dim
    if total > DEFAULT_POLY_CAP:
        raise EnumerationTooLargeError(f"{q}^{dim} = {total} polynomials, cap {DEFAULT_POLY_CAP}")
    xs = np.array(points, dtype=np.int64) % q
    rows = max(1, _CHUNK_ENTRIES // q)
    for lo in range(0, total, rows):
        index = np.arange(lo, min(lo + rows, total), dtype=np.int64)
        values = np.zeros((len(index), len(xs)), dtype=np.int64)
        for j in reversed(range(dim)):  # Horner, highest degree first
            values *= xs
            values += (index // q**j % q)[:, None]
            values %= q
        yield values


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


@dataclass(frozen=True)
class HRFamily:
    params: HRParams
    family: SetFamily  # qualifying value sets, deduplicated, antichain-minimized
    n_qualifying: int  # number of polynomials with |S_P| >= ceil(k/2)
    images: tuple[int, ...] = field(repr=False)  # value-set mask of polynomial i, by index

    def eval(self, x: int) -> int:
        return 1 if any(m & x == m for m in self.family.members) else 0

    @cached_property
    def holders(self) -> tuple[int, ...]:
        """Per element (bit e), the int whose bit i is set iff image i holds e.

        These are the image table's columns for ``probability.count_holding``.
        Built on first use, once per family: the image table is unpacked to
        boolean rows in chunks of at most 2^21 entries, each packed along
        the polynomial axis.  Repeated images keep their own bits.
        """
        n, images = self.params.n, self.images
        step = max(8, _CHUNK_ENTRIES // n // 8 * 8)  # whole bytes per chunk
        packed = np.concatenate([np.packbits(unpack_rows(images[i : i + step], n), axis=0,
                                             bitorder="little")
                                 for i in range(0, len(images), step)])
        return tuple(int.from_bytes(column.tobytes(), "little") for column in packed.T)


def build_hr_family(params: HRParams) -> HRFamily:
    """Evaluate every polynomial once; keep its value set and the qualifying ones."""
    n = params.n
    images: list[int] = []
    for values in polynomial_values(n, params.c, range(1, params.k + 1)):
        bits = np.zeros((len(values), n), dtype=bool)
        # residue r is element r (bit r-1), residue 0 element n (bit n-1)
        bits[np.arange(len(values))[:, None], (values - 1) % n] = True
        images.extend(pack_rows(bits))
    qualifying = [m for m in images if m.bit_count() >= params.min_weight]
    family = SetFamily.from_masks(n, antichain_minimize(qualifying))
    return HRFamily(params, family, len(qualifying), tuple(images))


def sample_positive(hr: HRFamily, stream: CounterStream) -> int:
    """Uniform random polynomial, as its value-set mask: one ``_positive_indices`` draw."""
    return hr.images[int(next(_positive_indices(hr.params, 1, stream))[0])]


def _draw_digits(draws: np.ndarray, n: int) -> np.ndarray:
    """The draws ``next_below(n)`` keeps, mod n: a draw at or above floor(2^64/n)*n is dropped."""
    limit = (1 << 64) // n * n
    if limit < 1 << 64:
        draws = draws[draws < np.uint64(limit)]
    return (draws % np.uint64(n)).astype(np.int64)


def _positive_indices(
    params: HRParams, samples: int, stream: CounterStream
) -> Iterator[np.ndarray]:
    """Indices of ``samples`` uniform random polynomials drawn from ``stream``, in chunks.

    The slots are read in blocks from ``stream.index`` on, in order; a
    rejected draw is dropped exactly as ``next_below`` drops it, and each c
    kept draws are one polynomial's coefficients, degree 0 first.  A block
    short of kept draws is topped up by exactly the missing number of slots,
    so the stream ends where c ``next_below(n)`` calls per draw leave it.
    """
    n, c = params.n, params.c
    place = n ** np.arange(c, dtype=np.int64)
    chunk = max(1, _CHUNK_ENTRIES // n)
    for done in range(0, samples, chunk):
        want = min(chunk, samples - done) * c
        digits = np.empty(0, dtype=np.int64)
        while len(digits) < want:
            take = want - len(digits)
            digits = np.concatenate([digits, _draw_digits(stream.block(stream.index, take), n)])
            stream.index += take
        index = digits.reshape(-1, c) @ place
        del digits  # not held while the caller builds the chunk's rows
        yield index


def positive_rows(hr: HRFamily, samples: int, stream: CounterStream) -> Iterator[np.ndarray]:
    """Value-set rows (n columns) of the ``_positive_indices`` draws, in chunks."""
    for index in _positive_indices(hr.params, samples, stream):
        drawn, where = np.unique(index, return_inverse=True)
        yield unpack_rows((hr.images[i] for i in drawn.tolist()), hr.params.n)[where]


class PositiveTestDistribution:
    """Distribution of value-set masks of a uniform random polynomial.

    ``acceptance(f)`` is the exact share of the polynomials, repeats
    included, whose value set contains some minterm of f:
    ``probability.count_holding`` on the columns ``HRFamily.holders``.
    ``rows(samples, stream)`` is the block sampler ``positive_rows``, over
    ``n`` columns, the family's ``params.n``.
    """

    def __init__(self, hr: HRFamily):
        self.hr = hr
        self.n = hr.params.n

    def exact_items(self):
        counts = Counter(self.hr.images)
        total = self.hr.params.n_polynomials
        for m in sorted(counts):
            yield m, Fraction(counts[m], total)

    def acceptance(self, f) -> Fraction:
        total = self.hr.params.n_polynomials
        return Fraction(count_holding(self.hr.holders, total, f.minterms), total)

    def rows(self, samples: int, stream: CounterStream) -> Iterator[np.ndarray]:
        return positive_rows(self.hr, samples, stream)


def verify_positive_acceptance(
    hr: HRFamily, mode: str = "exact", samples: int = 100_000, seed: int = 0
):
    """(Pr[f(pos)=1], 1-(k-1)/n): acceptance rate on the positive distribution.

    Exact mode counts qualifying polynomials; a qualifying S_P contains a
    minterm (itself), and a non-qualifying one is lighter than every
    minterm, so the count is exact, not just a bound.  Monte-Carlo mode
    counts the ``positive_rows`` of ``samples`` polynomials drawn from
    ``CounterStream(seed)`` whose value set contains a member of
    ``hr.family``.
    """
    params = hr.params
    bound = 1 - Fraction(params.k - 1, params.n)
    if exact_engine(mode):
        value = Fraction(hr.n_qualifying, params.n_polynomials)
        return value, bound
    rows = positive_rows(hr, samples, CounterStream(seed))
    return sampled_coverage(rows, hr.family.members, samples, seed), float(bound)


def verify_negative_rejection(
    hr: HRFamily, mode: str = "exact", samples: int = 100_000, seed: int = 0
):
    """(Pr[f(neg)=0], 1 - 2^-(k/2 - c log2 n)).

    At enumerable parameter scales k/2 <= c*log2(n), which makes the bound
    vacuous (negative); both sides are reported without assertion.
    """
    params = hr.params
    exponent = params.k / 2 - params.c * math.log2(params.n)
    bound = 1.0 - 2.0 ** (-exponent)
    if exact_engine(mode):
        accept = coverage_exact(hr.family, 0, Fraction(1, 2))
        return 1 - accept.value, bound
    half = Fraction(1, 2)
    stream = CounterStream(seed)
    covered = bernoulli_hits(stream, samples, params.n, params.n, half, half, hr.family.members)
    return Estimate.from_hits(samples - covered, samples, seed), bound


def verify_minterm_spread(
    hr: HRFamily, a_mask: int, mode: str = "exact", samples: int = 100_000, seed: int = 0
):
    """(Pr[A subset of S_P], (k/n)^|A|) for |A| <= c.

    Exact mode counts the polynomials holding every element of A:
    ``probability.count_holding`` on the columns ``HRFamily.holders``.
    Monte-Carlo mode counts the ``positive_rows`` drawn from
    ``CounterStream(seed)``, as ``verify_positive_acceptance`` does, whose
    value set contains A.
    """
    params = hr.params
    exact = exact_engine(mode)
    size = a_mask.bit_count()
    if size > params.c:
        raise ValueError("|A| must be at most c")
    bound = Fraction(params.k, params.n) ** size
    if exact:
        total = params.n_polynomials
        return Fraction(count_holding(hr.holders, total, [a_mask]), total), bound
    rows = positive_rows(hr, samples, CounterStream(seed))
    return sampled_coverage(rows, [a_mask], samples, seed), float(bound)


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
    target = np.array([a % params.n for a in values], dtype=np.int64)
    hits = sum(
        int((chunk == target).all(axis=1).sum())
        for chunk in polynomial_values(params.n, params.c, points)
    )
    return Fraction(hits, params.n_polynomials), Fraction(1, params.n**size)

