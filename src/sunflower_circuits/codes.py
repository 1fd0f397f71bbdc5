"""Codes over prime fields, their multilinear polynomials, and decompositions.

A code C inside F_q^n induces the multilinear homogeneous degree-n
polynomial with one monomial per codeword over the q*n variables x[i,j]
(row i in [q], column j in [n]): monomial(c) picks, in every column j, the
row of the residue c(j).  Residue 0 maps to row q, other residues to
themselves, mirroring the ground-set convention used elsewhere.

A monomial is an int bitmask over the grid, as ``SetFamily`` stores a set:
x[i,j] is bit (q-i)*n + (n-j) (``variable_bit``), so row i fills one n-bit
chunk with column 1 on top.  Product is ``|``, common variables are ``&``
and the degree is ``bit_count()``; among monomials of one degree,
descending int order is the lexicographic order of their sorted (row,
column) pairs.

The decomposition machinery validates sum-of-two-factor representations
(variable-disjoint, homogeneous, both degrees in the structural lemma's
window [d/3, 2d/3], positive coefficients) and audits the single-monomial
property that forces any valid decomposition of a high-distance code
polynomial to have one summand per codeword.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (
    MonomialBlowupError,
    NegativeConstantError,
    TooLargeError,
)
from .harnik_raz import is_prime, polynomial_values

AGREEMENT_CAP = 1 << 14
AGREEMENT_BLOCK_CELLS = 1 << 18  # counters per row block of the pairwise scan
DEFAULT_MONOMIAL_CAP = 1 << 20

Monomial = int  # bitmask over the q*n grid variables, see variable_bit


@dataclass(frozen=True)
class Code:
    q: int
    n: int
    codewords: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError("alphabet size q must be prime")
        if len(set(self.codewords)) != len(self.codewords):
            raise ValueError("codewords must be distinct")
        if set(map(len, self.codewords)) - {self.n}:
            raise ValueError(f"every codeword must have length {self.n}")
        values = set().union(*self.codewords)  # the distinct coordinates, gathered in C
        if values and not 0 <= min(values) <= max(values) < self.q:
            raise ValueError("codeword coordinates must lie in [0, q)")

    def __len__(self) -> int:
        return len(self.codewords)


def reed_solomon_code(q: int, n: int, dim: int) -> Code:
    """Evaluations of all q^dim polynomials of degree < dim at points 0..n-1.

    Codeword i is polynomial i of ``harnik_raz.polynomial_values``: its
    coefficient j (degree 0 first) is digit j of i in base q.  Distinct
    polynomials of degree < dim <= n agree on at most dim-1 of the n
    points, so the code has q^dim words and max pairwise agreement dim-1.
    More than 2^22 words raise ``EnumerationTooLargeError``.
    """
    if not is_prime(q):
        raise ValueError("q must be prime")
    if not 1 <= dim <= n <= q:
        raise ValueError("need 1 <= dim <= n <= q")
    words = tuple(
        tuple(word) for values in polynomial_values(q, dim, range(n)) for word in values.tolist()
    )
    return Code(q, n, words)


def max_pairwise_agreement(code: Code) -> int:
    """Max number of equal coordinates over distinct codeword pairs.

    Agreement counts every coordinate with equal values, zeros included;
    distance = n - agreement.  The scan takes the words in row blocks of at
    most ``AGREEMENT_BLOCK_CELLS`` counters, one per (block word, later
    word) pair, and adds the equal coordinates column by column; it stops
    once a pair agrees everywhere.
    """
    m = len(code.codewords)
    if m < 2:
        raise ValueError("need at least two codewords")
    if m > AGREEMENT_CAP:
        raise TooLargeError(f"{m} codewords exceed the pairwise-scan cap {AGREEMENT_CAP}")
    columns = np.array(code.codewords, dtype=np.min_scalar_type(code.q - 1)).T.copy()
    best = 0
    start = 0
    while start < m - 1 and best < code.n:
        width = m - 1 - start  # the words after the block's first
        stop = start + max(1, min(width, AGREEMENT_BLOCK_CELLS // width))
        counts = np.zeros((stop - start, width), dtype=np.min_scalar_type(code.n))
        equal = np.empty(counts.shape, dtype=bool)
        for column in columns:
            np.equal(column[start:stop, None], column[None, start + 1 :], out=equal)
            np.add(counts, equal.view(np.uint8), out=counts)
        # block word start+r meets later word start+1+k only where k >= r
        best = max(best, int(np.triu(counts).max()))
        start = stop
    return best


def row_of_residue(r: int, q: int) -> int:
    return q if r == 0 else r


def variable_bit(row: int, col: int, q: int, n: int) -> Monomial:
    """The one-variable monomial x[row, col] of the q*n grid."""
    return 1 << ((q - row) * n + (n - col))


def codeword_monomial(word: tuple[int, ...], q: int) -> Monomial:
    n = len(word)
    return sum(variable_bit(row_of_residue(v, q), j, q, n) for j, v in enumerate(word, start=1))


@dataclass(frozen=True)
class MonomialSet:
    """0/1-coefficient multilinear monomials over the (row, column) grid."""

    q: int
    n: int
    monomials: tuple[Monomial, ...]

    def __post_init__(self):
        n = self.n
        for m in self.monomials:
            if m < 0 or m >> (self.q * n):
                raise ValueError("variable index outside the grid")
            # m and the sum of its q row chunks agree modulo 2^n - 1.  n powers
            # of two below 2^n sum to no multiple of 2^n - 1 but 2^n - 1 itself,
            # and to that only when distinct: one bit in every column
            if m.bit_count() != n or (n and m % ((1 << n) - 1)):
                raise ValueError("each monomial must pick exactly one row per column")
        if len(set(self.monomials)) != len(self.monomials):
            raise ValueError("monomials must be distinct")

    def __len__(self) -> int:
        return len(self.monomials)


def build_polynomial(code: Code) -> MonomialSet:
    """One degree-n monomial per codeword (distinct words give distinct monomials).

    The monomials come in descending int order, which is the order of their
    sorted (row, column) pairs.
    """
    if len(code) > DEFAULT_MONOMIAL_CAP:
        raise TooLargeError(f"{len(code)} monomials exceed the cap {DEFAULT_MONOMIAL_CAP}")
    q, n = code.q, code.n
    bits = [
        [variable_bit(row_of_residue(v, q), j, q, n) for v in range(q)] for j in range(1, n + 1)
    ]
    monos = sorted((sum(map(list.__getitem__, bits, w)) for w in code.codewords), reverse=True)
    return MonomialSet(q, n, tuple(monos))


# ---------------------------------------------------------------------------
# monotone arithmetic circuits


@dataclass(frozen=True)
class ArithCircuit:
    """DAG over Var(i,j), positive Const, Add and Mul gates (1-indexed)."""

    q: int
    n: int
    gates: tuple[tuple, ...]
    output: int

    def __post_init__(self):
        for idx, gate in enumerate(self.gates, start=1):
            kind = gate[0]
            if kind == "var":
                i, j = gate[1], gate[2]
                if not (1 <= i <= self.q and 1 <= j <= self.n):
                    raise ValueError(f"gate {idx}: variable outside the grid")
            elif kind == "const":
                if gate[1] <= 0:
                    raise NegativeConstantError(
                        f"gate {idx}: constants must be positive"
                    )
            elif kind in ("add", "mul"):
                a, b = gate[1], gate[2]
                if not (1 <= a < idx and 1 <= b < idx):
                    raise ValueError(f"gate {idx}: operands must reference earlier gates")
            else:
                raise ValueError(f"gate {idx}: unknown kind {kind!r}")
        if not 1 <= self.output <= len(self.gates):
            raise ValueError("output gate out of range")


@dataclass(frozen=True)
class GateFlags:
    gate: int
    multilinear: bool
    homogeneous: bool


def circuit_to_monomials(
    circuit: ArithCircuit,
) -> tuple[dict[Monomial, Fraction], list[GateFlags]]:
    """Expand the circuit bottom-up into monomial->coefficient form.

    Since all constants are positive there are no cancellations, so a
    monotone circuit computing a multilinear homogeneous polynomial must be
    multilinear and homogeneous gate by gate; the flags record where either
    property breaks (a Mul joining overlapping supports squares a variable,
    an Add mixing degrees breaks homogeneity).
    """
    polys: list[dict[Monomial, Fraction]] = []
    flags: list[GateFlags] = []
    for idx, gate in enumerate(circuit.gates, start=1):
        if gate[0] == "var":
            poly = {variable_bit(gate[1], gate[2], circuit.q, circuit.n): Fraction(1)}
        elif gate[0] == "const":
            poly = {0: Fraction(gate[1])}
        elif gate[0] == "add":
            poly = dict(polys[gate[1] - 1])
            for m, c in polys[gate[2] - 1].items():
                poly[m] = poly.get(m, Fraction(0)) + c
        else:
            # bitwise or collapses any repeated variable; the multilinearity
            # flag below marks the gates where that collapse happened
            poly = {}
            for m1, c1 in polys[gate[1] - 1].items():
                for m2, c2 in polys[gate[2] - 1].items():
                    key = m1 | m2
                    poly[key] = poly.get(key, Fraction(0)) + c1 * c2
        if len(poly) > DEFAULT_MONOMIAL_CAP:
            raise MonomialBlowupError(f"gate {idx} holds {len(poly)} monomials")
        multilinear = True
        if gate[0] == "mul":
            multilinear = all(
                not (m1 & m2)
                for m1 in polys[gate[1] - 1]
                for m2 in polys[gate[2] - 1]
            )
        degrees = {m.bit_count() for m in poly}
        flags.append(GateFlags(idx, multilinear, len(degrees) <= 1))
        polys.append(poly)
    return polys[circuit.output - 1], flags


# ---------------------------------------------------------------------------
# decompositions


@dataclass(frozen=True)
class CoeffPoly:
    """A polynomial with explicit positive coefficients: ``int`` or ``Fraction``."""

    terms: tuple[tuple[Monomial, int | Fraction], ...]

    @property
    def support(self) -> Monomial:
        out = 0
        for m, _ in self.terms:
            out |= m
        return out

    def degree_set(self) -> set[int]:
        return {m.bit_count() for m, _ in self.terms}


@dataclass(frozen=True)
class Decomposition:
    pairs: tuple[tuple[CoeffPoly, CoeffPoly], ...]

    def __len__(self) -> int:
        return len(self.pairs)


def _check_degree(poly: MonomialSet, n: int) -> None:
    if n != poly.n:
        raise ValueError(f"degree n={n} differs from the polynomial's n={poly.n}")


def verify_decomposition(
    d: Decomposition, poly: MonomialSet, n: int
) -> tuple[bool, Optional[str]]:
    """Check the structural invariants and the exact expansion to ``poly``.

    Per pair: nonempty factors with positive coefficients, homogeneous,
    both degrees within [n/3, 2n/3] (compared exactly in thirds), and the
    two factors variable disjoint; multilinearity is inherent in the
    bitmask encoding of monomials.  Then sum(g_i * h_i) must equal the
    target with every coefficient exactly 1: integer coefficients multiply
    and add as ``int``, and a ``Fraction`` one keeps its products exact.
    An n other than ``poly.n`` raises ``ValueError``.
    """
    _check_degree(poly, n)
    expansion: dict[Monomial, int | Fraction] = {}
    for idx, (g, h) in enumerate(d.pairs):
        for name, factor in (("g", g), ("h", h)):
            if not factor.terms:
                return False, f"pair {idx}: empty factor {name}"
            if any(c <= 0 for _, c in factor.terms):
                return False, f"pair {idx}: non-positive coefficient in {name}"
            degs = factor.degree_set()
            if len(degs) != 1:
                return False, f"pair {idx}: factor {name} not homogeneous"
            deg = degs.pop()
            if not _in_window(deg, n):
                return False, f"pair {idx}: factor {name} degree {deg} outside window"
        if g.support & h.support:
            return False, f"pair {idx}: factors share a variable"
        for mg, cg in g.terms:
            for mh, ch in h.terms:
                key, c = mg | mh, cg * ch
                prev = expansion.get(key)
                expansion[key] = c if prev is None else prev + c
    # every coefficient is positive, so no sum cancels to 0
    if expansion != dict.fromkeys(poly.monomials, 1):
        return False, "expansion does not match the target polynomial"
    return True, None


def single_monomial_audit(
    d: Decomposition, agreement_bound: int
) -> tuple[Optional[bool], Optional[tuple[Monomial, Monomial, int]]]:
    """Check that every factor carries a single monomial.

    A factor with two monomials alpha != beta, times a monomial gamma of its
    partner, yields product monomials alpha|gamma and beta|gamma.  In a
    valid decomposition of a code polynomial both are codeword monomials,
    so their overlap (at least |gamma| >= n/3) is at most the code's
    agreement.  Each factor with two or more monomials gives one witness:
    its first two monomials and the first monomial of its partner.

    Returns (True, None) when every factor has one monomial; (False,
    (m1, m2, overlap)) for the first witness whose overlap exceeds
    ``agreement_bound``, a contradiction shown constructively; and, when
    some factor has two monomials but no witness exceeds the bound, the
    lemma does not apply: (None, the first witness).
    """
    first_witness = None
    for g, h in d.pairs:
        for first, second in ((g, h), (h, g)):
            if len(first.terms) >= 2:
                gamma = second.terms[0][0]
                m1, m2 = first.terms[0][0] | gamma, first.terms[1][0] | gamma
                witness = (m1, m2, (m1 & m2).bit_count())
                if witness[2] > agreement_bound:
                    return False, witness
                first_witness = first_witness or witness
    if first_witness is None:
        return True, None
    return None, first_witness


def _in_window(deg: int, n: int) -> bool:
    """The structural lemma's window n/3 <= deg <= 2n/3, compared exactly."""
    return n <= 3 * deg <= 2 * n


def canonical_decomposition(poly: MonomialSet, n: int) -> Decomposition:
    """Split every monomial at the middle column: one single-monomial pair each.

    The left factor keeps columns 1..floor(n/2), one AND with a fixed
    column mask.  Both midpoint degrees lie in the window [n/3, 2n/3] for
    every n except 1, whose window holds no integer.  An n other than
    ``poly.n`` raises ``ValueError``.
    """
    _check_degree(poly, n)
    lo = n // 2
    if not (_in_window(lo, n) and _in_window(n - lo, n)):
        raise ValueError(f"no admissible factor degrees for n={n}")
    width = poly.n
    chunk = ((1 << lo) - 1) << (width - lo)  # columns 1..lo of one row
    left_mask = sum(chunk << (r * width) for r in range(poly.q))
    return Decomposition(
        tuple(
            (CoeffPoly(((m & left_mask, 1),)), CoeffPoly(((m & ~left_mask, 1),)))
            for m in poly.monomials
        )
    )


def size_lower_bound_report(code: Code, d: Decomposition) -> tuple[int, int, bool]:
    """(number of summands, |C|, summands >= |C|).

    Any decomposition that validates against P_C and survives the
    single-monomial audit has one monomial per pair, and all |C| monomials
    must be produced, so its size is at least |C|.
    """
    s = len(d.pairs)
    return s, len(code), s >= len(code)
