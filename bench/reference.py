"""Reference computations the benchmark checks the package against.

Nothing here imports ``sunflower_circuits``: every value is computed by a
separate route (truth tables, closed forms, plain enumeration, moment
bounds), so a check fails when the package is wrong, not merely when its
output changes.  Sets are integer bit masks, element ``e`` at bit ``e-1``,
as in the package's public interface.
"""

from __future__ import annotations

import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np


class CheckFailed(AssertionError):
    """A package output disagrees with its reference or property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# truth tables over 2^n inputs


def _popcounts(n: int) -> np.ndarray:
    pc = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        pc[1 << i : 1 << (i + 1)] = pc[: 1 << i] + 1
    return pc


def up_closure(table: np.ndarray, n: int) -> None:
    """In place: table[x] becomes OR of table[y] over all y subset of x."""
    for i in range(n):
        view = table.reshape(-1, 2, 1 << i)
        view[:, 1, :] |= view[:, 0, :]


def superset_sums(table: np.ndarray, n: int) -> np.ndarray:
    """S[a] = number of x containing a with table[x] = 1 (Yates' transform)."""
    s = table.astype(np.int64)
    for i in range(n):
        view = s.reshape(-1, 2, 1 << i)
        view[:, 0, :] += view[:, 1, :]
    return s


def truth_table(n: int, minterms) -> np.ndarray:
    table = np.zeros(1 << n, dtype=np.uint8)
    for m in minterms:
        table[m] = 1
    up_closure(table, n)
    return table


def minterms_of(table: np.ndarray, n: int) -> list[int]:
    """Minimal accepted inputs of a monotone truth table, ascending by value."""
    minimal = table.copy()
    for i in range(n):
        view = minimal.reshape(-1, 2, 1 << i)
        below = table.reshape(-1, 2, 1 << i)[:, 0, :]
        view[:, 1, :] &= 1 - below
    return [int(x) for x in np.flatnonzero(minimal)]


def closure_truth_table(n: int, minterms, eps, c: int) -> list[int]:
    """Minterms of the least closed function above f, at noise 1/2.

    A set A with |A| <= c and f(A) = 0 violates closedness when
    Pr[f(N or A) = 1] = S[A] / 2^(n-|A|) exceeds 1 - eps, where S are the
    superset sums of f's truth table.  Every violator lies below the unique
    least closed function, so each round adds all of them at once; the
    comparison is made on exact integers.
    """
    eps = Fraction(eps)
    pc = _popcounts(n)
    # S > (1-eps) 2^(n-w) exactly iff S > floor((1-eps) 2^(n-w)) for integer S
    limit = np.array(
        [math.floor((1 - eps) * (1 << (n - w))) for w in range(n + 1)], dtype=np.int64
    )[pc]
    small = pc <= c
    table = truth_table(n, minterms)
    while True:
        s = superset_sums(table, n)
        violators = small & (table == 0) & (s > limit)
        if not violators.any():
            return minterms_of(table, n)
        table[violators] = 1
        up_closure(table, n)


# ---------------------------------------------------------------------------
# coverage probabilities


def coverage_enumeration(members, y: int, p) -> Fraction:
    """Pr over p-biased W of: some member lies inside W union y.

    Plain enumeration of W over the envelope of the reduced members.  The
    envelope is split into a high part, enumerated one assignment at a
    time, and a low part of at most 16 bits held as a truth table, so the
    memory stays small at widths up to about 26.
    """
    p = Fraction(p)
    reduced = [m & ~y for m in members]
    if not reduced:
        return Fraction(0)
    if any(m == 0 for m in reduced):
        return Fraction(1)
    env = 0
    for m in reduced:
        env |= m
    positions = [i for i in range(env.bit_length()) if env >> i & 1]
    width = len(positions)
    remapped = []
    for m in reduced:
        r = 0
        for j, pos in enumerate(positions):
            if m >> pos & 1:
                r |= 1 << j
        remapped.append(r)
    lo = min(width, 16)
    hi = width - lo
    low_mask = (1 << lo) - 1
    pc_lo = _popcounts(lo)
    counts = [0] * (width + 1)
    for h in range(1 << hi):
        table = np.zeros(1 << lo, dtype=np.uint8)
        for r in remapped:
            if (r >> lo) & ~h == 0:
                table[r & low_mask] = 1
        up_closure(table, lo)
        by_weight = np.bincount(pc_lo[table.astype(bool)], minlength=lo + 1)
        hw = h.bit_count()
        for w, cnt in enumerate(by_weight.tolist()):
            counts[hw + w] += cnt
    q = 1 - p
    return sum(
        (cnt * p**w * q ** (width - w) for w, cnt in enumerate(counts) if cnt),
        Fraction(0),
    )


def disjoint_petal_coverage(petal_sizes, p) -> Fraction:
    """1 - prod(1 - p^|petal|): members whose parts outside Y are disjoint.

    A disjoint family of m l-sets gives 1-(1-p^l)^m; a star over its core
    gives 1-(1-p)^m.
    """
    p = Fraction(p)
    miss = Fraction(1)
    for size in petal_sizes:
        miss *= 1 - p**size
    return 1 - miss


def clique_disjoint_coverage(sizes, core_size: int, p, q) -> Fraction:
    """1 - prod(1 - p^(C(l,2)-C(b,2)) q^(l-b)) for cliques disjoint beyond a core.

    With core size b = 0 this is the vertex-disjoint clique case
    1 - prod(1 - p^C(l,2) q^l).
    """
    p, q = Fraction(p), Fraction(q)
    miss = Fraction(1)
    for size in sizes:
        edges = math.comb(size, 2) - math.comb(core_size, 2)
        miss *= 1 - p**edges * q ** (size - core_size)
    return 1 - miss


def _clique_edge_mask(vertex_mask: int) -> int:
    verts = [i + 1 for i in range(vertex_mask.bit_length()) if vertex_mask >> i & 1]
    e = 0
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            u, v = verts[a], verts[b]
            e |= 1 << ((v - 1) * (v - 2) // 2 + (u - 1))
    return e


def clique_hit_inclusion_exclusion(vertex_masks, p, q) -> Fraction:
    """Pr[some A: K_A inside G(n,p) and A inside U(n,q)], summed over subfamilies."""
    p, q = Fraction(p), Fraction(q)
    edges = [_clique_edge_mask(a) for a in vertex_masks]
    total = Fraction(0)
    m = len(vertex_masks)
    for sub in range(1, 1 << m):
        eu = vu = 0
        for i in range(m):
            if sub >> i & 1:
                eu |= edges[i]
                vu |= vertex_masks[i]
        term = p ** eu.bit_count() * q ** vu.bit_count()
        total += term if sub.bit_count() & 1 else -term
    return total


def janson_moments(vertex_masks, p, q) -> tuple[Fraction, Fraction]:
    """(mu, delta_bar) summed pair by pair from the shared edges and vertices."""
    p, q = Fraction(p), Fraction(q)
    edges = [_clique_edge_mask(a) for a in vertex_masks]
    mu = sum((p ** e.bit_count() * q ** a.bit_count() for a, e in zip(vertex_masks, edges)),
             Fraction(0))
    delta = Fraction(0)
    for i, (a, e) in enumerate(zip(vertex_masks, edges)):
        for j, (a2, e2) in enumerate(zip(vertex_masks, edges)):
            if i != j and a & a2:
                delta += p ** (e | e2).bit_count() * q ** (a | a2).bit_count()
    return mu, delta


# ---------------------------------------------------------------------------
# r-spreadness


def spread_witness(members, r) -> tuple[bool, int | None, int]:
    """(is r-spread, smallest violating T, its link size), by direct counting.

    T ranges over nonempty subsets of members; a T in no member has link
    size 0 and cannot violate.  The smallest T is by cardinality, then value.
    """
    r = Fraction(r)
    size = len(members)
    counts: dict[int, int] = {}
    for m in members:
        elems = [1 << i for i in range(m.bit_length()) if m >> i & 1]
        for k in range(1, 1 << len(elems)):
            t = 0
            for i, bit in enumerate(elems):
                if k >> i & 1:
                    t |= bit
            counts[t] = counts.get(t, 0) + 1
    bad = [t for t, cnt in counts.items() if cnt * r ** t.bit_count() > size]
    if not bad:
        return True, None, 0
    t = min(bad, key=lambda x: (x.bit_count(), x))
    return False, t, counts[t]


# ---------------------------------------------------------------------------
# polynomial-image DNF


def hr_value_sets(n: int, c: int, k: int) -> list[int]:
    """Value-set mask of every polynomial of degree < c over F_n at points 1..k.

    Residue 0 is element n; residue r > 0 is element r.
    """
    out = []
    for index in range(n**c):
        coeffs = []
        v = index
        for _ in range(c):
            coeffs.append(v % n)
            v //= n
        mask = 0
        for x in range(1, k + 1):
            val = sum(a * x**d for d, a in enumerate(coeffs)) % n
            mask |= 1 << ((val if val else n) - 1)
        out.append(mask)
    return out


def hr_reference(n: int, c: int, k: int) -> dict:
    """Acceptance rates of the polynomial-image DNF, by enumeration.

    A qualifying value set (|S_P| >= ceil(k/2)) is accepted; a
    non-qualifying one is lighter than every minterm and is rejected.
    """
    sets = hr_value_sets(n, c, k)
    need = -(-k // 2)
    qualifying = [m for m in sets if m.bit_count() >= need]
    table = truth_table(n, qualifying)
    return {
        "positive_accept": Fraction(len(qualifying), n**c),
        "negative_reject": 1 - Fraction(int(table.sum(dtype=np.int64)), 1 << n),
        "minterms": minterms_of(table, n),
    }


# ---------------------------------------------------------------------------
# k-cliques in G(n, p)


def kclique_bracket(n: int, k: int, p) -> tuple[Fraction, Fraction]:
    """(E[X]^2 / E[X^2], min(1, E[X])) for X the number of k-cliques of G(n,p).

    The second-moment bound below and Markov's bound above bracket
    Pr[X > 0].  Pairs of k-sets are grouped by the j vertices they share,
    which share C(j,2) edges.
    """
    p = Fraction(p)
    sets = math.comb(n, k)
    e = math.comb(k, 2)
    mean = sets * p**e
    second = sum(
        sets * math.comb(k, j) * math.comb(n - k, k - j) * p ** (2 * e - math.comb(j, 2))
        for j in range(k + 1)
    )
    return mean * mean / second, min(Fraction(1), mean)


# ---------------------------------------------------------------------------
# Monte-Carlo tolerance


def wilson_half_width_bound(samples: int, confidence: float) -> float:
    """Largest Wilson half-width over all hit counts (reached at phat = 1/2)."""
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    return (z / (1 + z * z / samples)) * math.sqrt(0.25 / samples + z * z / (4.0 * samples**2))


def within_half_widths(value: float, half_width: float, low, high, widths: int = 3) -> bool:
    """An estimate lands within ``widths`` half-widths of [low, high]."""
    slack = widths * half_width
    return float(low) - slack <= value <= float(high) + slack


# ---------------------------------------------------------------------------
# the package's splitmix64 counter stream, restated from its documentation


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix:
    """Output i of stream (seed, s) is mix64(key + (i+1)*GOLDEN).

    Used only to regenerate the families that ``spread-experiment`` draws
    from its ``--seed`` inside the package, so that they can be checked.
    """

    def __init__(self, seed: int, stream: int):
        seed &= _MASK64
        self.key = _mix64(seed ^ _mix64((stream + 1) * _GOLDEN))
        self.index = 0

    def below(self, n: int) -> int:
        limit = ((1 << 64) // n) * n
        while True:
            self.index += 1
            v = _mix64(self.key + self.index * _GOLDEN)
            if v < limit:
                return v % n
