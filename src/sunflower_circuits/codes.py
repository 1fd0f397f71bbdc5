"""Codes over prime fields, their multilinear polynomials, and decompositions.

A code C inside F_q^n induces the multilinear homogeneous degree-n
polynomial with one monomial per codeword over the q*n variables x[i,j]
(row i in [q], column j in [n]): monomial(c) picks, in every column j, the
row of the residue c(j).  Residue 0 maps to row q, other residues to
themselves, mirroring the ground-set convention used elsewhere.

The decomposition machinery validates sum-of-two-factor representations
(variable-disjoint, homogeneous, degree between d/3 and 2d/3-1, positive
coefficients) and audits the single-monomial property that forces any
valid decomposition of a high-distance code polynomial to have one summand
per codeword.
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
DEFAULT_MONOMIAL_CAP = 1 << 20

Monomial = frozenset  # of (row, column) pairs


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
    distance = n - agreement.
    """
    m = len(code.codewords)
    if m < 2:
        raise ValueError("need at least two codewords")
    if m > AGREEMENT_CAP:
        raise TooLargeError(f"{m} codewords exceed the pairwise-scan cap {AGREEMENT_CAP}")
    arr = np.array(code.codewords, dtype=np.int16)
    best = 0
    for i in range(m - 1):
        agree = (arr[i + 1 :] == arr[i]).sum(axis=1)
        best = max(best, int(agree.max()))
        if best == code.n:
            break
    return best


def row_of_residue(r: int, q: int) -> int:
    return q if r == 0 else r


def codeword_monomial(word: tuple[int, ...], q: int) -> Monomial:
    return frozenset((row_of_residue(v, q), j + 1) for j, v in enumerate(word))


@dataclass(frozen=True)
class MonomialSet:
    """0/1-coefficient multilinear monomials over the (row, column) grid."""

    q: int
    n: int
    monomials: tuple[Monomial, ...]

    def __post_init__(self):
        for m in self.monomials:
            cols = [j for _, j in m]
            if len(m) != self.n or len(set(cols)) != self.n:
                raise ValueError("each monomial must pick exactly one row per column")
            if any(not (1 <= i <= self.q and 1 <= j <= self.n) for i, j in m):
                raise ValueError("variable index outside the grid")
        if len(set(self.monomials)) != len(self.monomials):
            raise ValueError("monomials must be distinct")

    def __len__(self) -> int:
        return len(self.monomials)


def build_polynomial(code: Code) -> MonomialSet:
    """One degree-n monomial per codeword (distinct words give distinct monomials)."""
    if len(code) > DEFAULT_MONOMIAL_CAP:
        raise TooLargeError(f"{len(code)} monomials exceed the cap {DEFAULT_MONOMIAL_CAP}")
    monos = tuple(
        sorted(
            (codeword_monomial(w, code.q) for w in code.codewords),
            key=lambda m: sorted(m),
        )
    )
    return MonomialSet(code.q, code.n, monos)


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
            poly = {frozenset({(gate[1], gate[2])}): Fraction(1)}
        elif gate[0] == "const":
            poly = {frozenset(): Fraction(gate[1])}
        elif gate[0] == "add":
            poly = dict(polys[gate[1] - 1])
            for m, c in polys[gate[2] - 1].items():
                poly[m] = poly.get(m, Fraction(0)) + c
        else:
            # set union collapses any repeated variable; the multilinearity
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
        degrees = {len(m) for m in poly}
        flags.append(GateFlags(idx, multilinear, len(degrees) <= 1))
        polys.append(poly)
    return polys[circuit.output - 1], flags


# ---------------------------------------------------------------------------
# decompositions


@dataclass(frozen=True)
class CoeffPoly:
    """A polynomial with explicit positive rational coefficients."""

    terms: tuple[tuple[Monomial, Fraction], ...]

    @property
    def support(self) -> frozenset:
        out = set()
        for m, _ in self.terms:
            out |= m
        return frozenset(out)

    def degree_set(self) -> set[int]:
        return {len(m) for m, _ in self.terms}


@dataclass(frozen=True)
class Decomposition:
    pairs: tuple[tuple[CoeffPoly, CoeffPoly], ...]

    def __len__(self) -> int:
        return len(self.pairs)


def verify_decomposition(
    d: Decomposition, poly: MonomialSet, n: int
) -> tuple[bool, Optional[str]]:
    """Check the structural invariants and the exact expansion to ``poly``.

    Per pair: nonempty factors with positive coefficients, homogeneous,
    both degrees within [n/3, 2n/3-1] (compared exactly in thirds), and
    the two factors variable disjoint; multilinearity is inherent in the
    set encoding of monomials.  Then sum(g_i * h_i) must equal the target
    with every coefficient exactly 1, over exact rationals.
    """
    expansion: dict[Monomial, Fraction] = {}
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
            # degree window: n/3 <= deg <= 2n/3 - 1, compared exactly
            if 3 * deg < n or 3 * (deg + 1) > 2 * n:
                return False, f"pair {idx}: factor {name} degree {deg} outside window"
        if g.support & h.support:
            return False, f"pair {idx}: factors share a variable"
        for mg, cg in g.terms:
            for mh, ch in h.terms:
                key = mg | mh
                expansion[key] = expansion.get(key, Fraction(0)) + cg * ch
    target = {m: Fraction(1) for m in poly.monomials}
    expansion = {m: c for m, c in expansion.items() if c != 0}
    if expansion != target:
        return False, "expansion does not match the target polynomial"
    return True, None


def single_monomial_audit(
    d: Decomposition, agreement_bound: int
) -> tuple[bool, Optional[tuple[Monomial, Monomial, int]]]:
    """Check that every factor carries a single monomial.

    A factor with two monomials alpha != beta, times any monomial gamma of
    its partner, yields product monomials alpha|gamma and beta|gamma whose
    supports overlap in at least |gamma| >= n/3 > agreement_bound
    variables; the counterexample pair and overlap size are returned so the
    caller can exhibit the contradiction constructively.
    """
    for g, h in d.pairs:
        for first, second in ((g, h), (h, g)):
            if len(first.terms) >= 2:
                alpha = first.terms[0][0]
                beta = first.terms[1][0]
                gamma = second.terms[0][0]
                m1 = alpha | gamma
                m2 = beta | gamma
                overlap = len(m1 & m2)
                return False, (m1, m2, overlap)
    return True, None


def canonical_decomposition(poly: MonomialSet, n: int) -> Decomposition:
    """Split every monomial at the middle column: one single-monomial pair each.

    The midpoint degrees floor(n/2) and ceil(n/2) sit inside the
    [n/3, 2n/3-1] window exactly when n >= 6 and n != 7; smaller n admit no
    valid split at all (the window is empty or misses n).
    """
    lo = n // 2
    if 3 * lo < n or 3 * (lo + 1) > 2 * n or 3 * (n - lo) < n or 3 * (n - lo + 1) > 2 * n:
        raise ValueError(f"no admissible factor degrees for n={n}")
    pairs = []
    for m in poly.monomials:
        left = frozenset((i, j) for i, j in m if j <= lo)
        right = m - left
        pairs.append(
            (
                CoeffPoly(((left, Fraction(1)),)),
                CoeffPoly(((right, Fraction(1)),)),
            )
        )
    return Decomposition(tuple(pairs))


def size_lower_bound_report(code: Code, d: Decomposition) -> tuple[int, int, bool]:
    """(number of summands, |C|, summands >= |C|).

    Any decomposition that validates against P_C and survives the
    single-monomial audit has one monomial per pair, and all |C| monomials
    must be produced, so its size is at least |C|.
    """
    s = len(d.pairs)
    return s, len(code), s >= len(code)
