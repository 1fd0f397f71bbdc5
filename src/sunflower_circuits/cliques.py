"""Graphs, clique indicators, clique-sunflowers and their Janson certificates.

Graphs on n vertices are edge bit-vectors over the C(n,2) vertex pairs:
edge {u, v} with 1 <= u < v <= n sits at index (v-1)(v-2)/2 + (u-1),
zero-based.  A clique family is a ``SetFamily`` of vertex subsets A of [n]
(a member with at most one vertex denotes the empty graph); its edge family
{K_A} feeds the coverage engine of set families, and ``find_clique_sunflower``
runs their descent (``sunflowers.descend``): the two notions stay aligned.

The (p, q) variant draws an edge-biased graph and an independent
q-biased vertex set.  A member A over the vertex core B is the single
mask (edges(A) & ~edges(B)) | ((A & ~B) << C(n,2)): p-biased edge bits,
then q-biased vertex bits.  This module builds those masks and reads
cliques; the coverage core of ``probability`` makes every exact strategy
choice and refusal (``exact_coverage``) and samples (``estimate_coverage``:
one row of C(n,2)+n columns per sample, edges first), exactly as for set
families.  The plain clique-sunflower is the q = 1 case, one call of the
(p, q) path: both engines clear the certain vertex bits
(``reduce_coverage``), which leaves the edge family {K_A \\ K_B}; the
sampled rows keep their n vertex columns.  ``has_k_clique`` is the one
clique decider; it prunes a block of graphs to a fixpoint, then searches
the rows that are left.

Clique-shaped functions are ``monotone.MonotoneFunction``s over vertex
masks (``clique_function``); ``CliqueApproxParams`` reads their closure.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import EmptyFamilyError
from .probability import (
    Estimate,
    ExactProbability,
    RobustnessCheck,
    bernoulli_rows,
    estimate_coverage,
    exact_engine,
    exact_coverage,
    pack_rows,
    sample_p_subset,
)
from .rng import CounterStream
from .setfamily import (
    SetFamily,
    core,
    elements_of,
    popular_core,
    uniform_size,
)
from .monotone import ClosureParams, MonotoneFunction
from .sunflowers import descend


_ADJ_BLOCK = 1 << 17  # adjacency entries per sub-block of the clique decider


def edge_count(n: int) -> int:
    return n * (n - 1) // 2


def edge_index(u: int, v: int) -> int:
    """Zero-based index of edge {u, v}, 1 <= u < v."""
    if not 1 <= u < v:
        raise ValueError("need 1 <= u < v")
    return (v - 1) * (v - 2) // 2 + (u - 1)


def clique_edges(vertex_mask: int) -> int:
    """Edge mask of the clique on the given vertices (empty if <= 1 vertex)."""
    verts = elements_of(vertex_mask)
    edges = 0
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            edges |= 1 << edge_index(verts[i], verts[j])
    return edges


def gnp_sample(n: int, p, stream: CounterStream) -> int:
    """The edge mask of one G(n, p) draw: one ``sample_p_subset`` row of C(n,2) slots."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return sample_p_subset(edge_count(n), p, stream)


def _has_clique_masks(adj: list[int], k: int) -> bool:
    """Ordered k-clique search over neighbour masks (Carraghan-Pardalos 1990).

    Take the lowest candidate v, drop it, and extend by v over the candidates
    adjacent to v; a branch stops once fewer candidates are left than it lacks.
    """
    def extend(size: int, cand: int) -> bool:
        if size == k:
            return True
        while cand.bit_count() >= k - size:
            low = cand & -cand
            cand ^= low
            if extend(size + 1, cand & adj[low.bit_length() - 1]):
                return True
        return False

    return extend(0, (1 << len(adj)) - 1)


@lru_cache(maxsize=16)
def _edge_columns(n: int) -> np.ndarray:
    """Column of edge {u, v} in an edge row at [u-1, v-1] and [v-1, u-1]; C(n,2) on the diagonal."""
    m = edge_count(n)
    hi, lo = np.tril_indices(n, -1)  # edge_index order: vertex v-1 = hi above u-1 = lo
    pair = np.full((n, n), m)
    pair[hi, lo] = pair[lo, hi] = np.arange(m)
    pair.flags.writeable = False
    return pair


def has_k_clique(bits: np.ndarray, n: int, k: int) -> np.ndarray:
    """Per row of edge bits (``edge_index`` order), whether its graph has a k-clique.

    The rows are cut into sub-blocks of about ``_ADJ_BLOCK`` adjacency
    entries.  In each, rounds of one batched 0/1 matrix product drop every
    edge whose endpoints have fewer than k-2 common neighbours, until a
    round drops nothing.  An edge of a k-clique keeps its k-2 in-clique
    common neighbours, so no decision changes.  A row left with fewer than
    C(k,2) edges has no k-clique; at k <= 3 one round decides the rest (a
    kept edge lies in a k-clique), and otherwise ``_has_clique_masks``.
    """
    rows = len(bits)
    if k <= 1 or k > n:  # no edge to test: the empty clique always, one vertex when n >= 1
        return np.full(rows, k <= 0 or k <= n)
    m = edge_count(n)
    need = 2 * math.comb(k, 2)  # adjacency entries of a k-clique
    found = np.zeros(rows, dtype=bool)
    step = max(1, _ADJ_BLOCK // (n * n))
    for start in range(0, rows, step):
        block = bits[start : start + step]
        padded = np.zeros((len(block), m + 1), dtype=bool)  # column m stays 0
        padded[:, :m] = block
        adj = padded.take(_edge_columns(n), axis=1)  # (rows, n, n) symmetric adjacency
        index = np.arange(start, start + len(block))
        while len(adj):
            a = adj.astype(np.float32)  # counts below n < 2^24 are exact
            kept = adj & (np.matmul(a, a) >= k - 2)
            stable = k <= 3 or np.array_equal(kept, adj)  # at k <= 3 one round decides
            live = kept.sum(axis=(1, 2)) >= need
            adj, index = kept[live], index[live]
            if stable:
                break
        if k <= 3:  # an edge with k-2 common neighbours lies in a k-clique
            found[index] = True
            continue
        for i, row in zip(index, adj):
            found[i] = _has_clique_masks(pack_rows(row), k)
    return found


CliqueFamily = SetFamily  # the name bench/workloads.py builds clique families by


def _pq_masks(s: SetFamily, core_vertices: int) -> Iterator[int]:
    """Each member's missing edges, then its missing vertices above C(n,2)."""
    b = core_vertices
    b_edges = clique_edges(b)
    split = edge_count(s.n)
    return ((clique_edges(a) & ~b_edges) | ((a & ~b) << split) for a in s.members)


def pq_coverage_exact(s: SetFamily, core_vertices: int, p, q) -> ExactProbability:
    """Exact Pr[some A: K_A inside G union K_B and A inside U union B].

    The per-member event is a conjunction of independent coordinates (the
    missing edges of K_A must be in G, the missing vertices in U), so the
    coverage core's (p, q) rule applies to the concatenated masks, with the
    vertex bits as its q-part.  At q = 1 this is the coverage of the edge
    family {K_A} over K_B by G(n, p).
    """
    return ExactProbability(exact_coverage(_pq_masks(s, core_vertices), edge_count(s.n), p, q))


def pq_coverage_mc(
    s: SetFamily, core_vertices: int, p, q, samples: int, seed: int = 0
) -> Estimate:
    """Sampled joint coverage (``estimate_coverage``) over rows of C(n,2)+n columns, edges first."""
    split = edge_count(s.n)
    return estimate_coverage(_pq_masks(s, core_vertices), split + s.n, split, p, q, samples, seed)


def is_pq_clique_sunflower(
    s: SetFamily,
    p,
    q,
    eps,
    engine: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
) -> RobustnessCheck:
    """Strict test: (p, q) coverage over the family's vertex core > 1 - eps."""
    if not s.members:
        raise EmptyFamilyError("empty clique family")
    b = core(s)
    if exact_engine(engine):
        prob = pq_coverage_exact(s, b, p, q)
    else:
        prob = pq_coverage_mc(s, b, p, q, samples, seed)
    return RobustnessCheck.of(prob, b, eps)


@lru_cache(maxsize=None)
def _s_poly_frac(size: int, t: Fraction) -> Fraction:
    if size == 0:
        return Fraction(1)
    return t * sum(math.comb(size, j) * _s_poly_frac(j, t) for j in range(size))


def s_poly_exact(size: int, t) -> Fraction:
    """s_0 = 1, s_l(t) = t * sum_{j<l} C(l,j) s_j(t), exactly."""
    if size < 0:
        raise ValueError("size must be >= 0")
    tf = Fraction(t)
    if tf <= 0:
        raise ValueError("t must be positive")
    return _s_poly_frac(size, tf)


@dataclass(frozen=True)
class JansonCertificate:
    """exp(-mu^2/(mu+delta_bar)) upper bound on the all-miss probability."""

    mu: float
    delta_bar: float
    exponent: float
    bound: float
    mu_exact: Fraction
    delta_bar_exact: Fraction


def janson_certificate(s: SetFamily, p, q) -> JansonCertificate:
    """Certificate for Pr[forall A: K_A not in G(n,p) or A not in U(n,q)].

    mu sums the individual appearance probabilities q^l p^C(l,2);
    delta_bar sums, over ordered pairs with |A cap A'| = j in [1, l-1],
    the joint probabilities q^(2l-j) p^(2C(l,2)-C(j,2)); the pairs are
    counted per j, so at most l-1 terms are evaluated.  Pairs with
    disjoint members share no edges or vertices and drop out, and only a
    member paired with itself shares all l vertices.  Every term is an
    integer numerator over the common denominator D = q_d^(2l) p_d^(2C(l,2))
    (p = p_n/p_d, q = q_n/q_d), so mu = M/D and delta_bar = Delta/D are
    summed in integers, and the exponent mu^2/(mu+delta_bar) is the
    rational M^2/(D (M + Delta)), rounded to float once.
    """
    if not s.members:
        raise EmptyFamilyError("empty clique family")
    pf, qf = Fraction(p), Fraction(q)
    if not (0 < qf <= 1 and 0 < pf <= 1):
        raise ValueError("need p, q in (0, 1]")
    size = uniform_size(s)
    edges = math.comb(size, 2)
    pn, pd, qn, qd = pf.numerator, pf.denominator, qf.numerator, qf.denominator
    den = qd ** (2 * size) * pd ** (2 * edges)
    mu_n = len(s.members) * (qn * qd) ** size * (pn * pd) ** edges
    shared = Counter((a & a2).bit_count() for a in s.members for a2 in s.members)
    delta_n = sum(
        shared[j] * qn ** (2 * size - j) * qd**j
        * pn ** (2 * edges - math.comb(j, 2)) * pd ** math.comb(j, 2)
        for j in range(1, size)
    )
    mu, delta = Fraction(mu_n, den), Fraction(delta_n, den)
    exponent = mu_n * mu_n / (den * (mu_n + delta_n))  # int / int rounds once, as float(Fraction)
    return JansonCertificate(float(mu), float(delta), exponent, math.exp(-exponent), mu, delta)


@dataclass(frozen=True)
class CliqueTraceStep:
    depth: int
    uniform_size: int
    family_size: int
    case: str
    j: Optional[int]
    chosen: Optional[int]
    q: float

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "l": self.uniform_size,
            "family": self.family_size,
            "case": self.case,
            "j": self.j,
            "B": self.chosen,
            "q": self.q,
        }


@dataclass(frozen=True)
class CliqueSunflowerResult:
    subfamily: SetFamily
    core_set: int
    verified: bool
    status: str  # "ok" or "below_threshold"
    certificate: Optional[JansonCertificate]
    probability: Optional[object]
    trace: tuple[CliqueTraceStep, ...]


def find_clique_sunflower(
    s: SetFamily,
    p,
    q,
    eps,
    mc_samples: int = 100_000,
    seed: int = 0,
) -> CliqueSunflowerResult:
    """Extract a (p, q, eps)-clique-sunflower by ``sunflowers.descend`` at bias q' = q p^|lift|.

    With c_j = s_j(ln(1/eps)), the canonically first core B, 1 <= |B| = j < l,
    in at least c_{l-j} (1/(q' p^j))^{l-j} (1/p)^C(l-j,2) members is stepped
    over.  Without one, the family stops with its Janson certificate: ``janson``
    if the exponent beats ln(1/eps), else ``below_threshold``, unverified.
    """
    if not s.members:
        raise EmptyFamilyError("empty clique family")
    p_f, q_f = Fraction(p), Fraction(q)

    def rule(fam: SetFamily, size: int, q_now: Fraction):
        ln_inv_eps = Fraction(math.log(1.0 / float(eps)))
        # a count is an integer, so it meets a threshold iff it meets its ceiling
        need = {
            j: math.ceil(
                _s_poly_frac(size - j, ln_inv_eps)
                * (1 / (q_now * p_f**j)) ** (size - j)
                * (1 / p_f) ** math.comb(size - j, 2)
            )
            for j in range(1, size)
        }
        hit = popular_core(fam, need)
        if hit is not None:
            return "link", hit[0], None
        cert = janson_certificate(fam, p, q_now)
        return ("janson" if cert.exponent > float(ln_inv_eps) else "below_threshold"), None, cert

    def trace_step(depth, size, count, case, t, q_now, cert):
        return CliqueTraceStep(depth, size, count, case, None if t is None else t.bit_count(), t,
                               float(q_now))

    subfamily, trace, chk, cert = descend(
        s, {"p": p, "q": q}, eps, lambda lift: q_f * p_f ** lift.bit_count(), rule,
        trace_step, "(1-q)^|S| >= eps at the 1-uniform base case",
        lambda sub, engine: is_pq_clique_sunflower(sub, p, q, eps, engine, mc_samples, seed))
    ok = chk is not None  # a below_threshold stop is not verified
    return CliqueSunflowerResult(subfamily, core(subfamily), ok and chk.decision is True,
                                 "ok" if ok else "below_threshold", cert,
                                 chk.probability if ok else None, trace)


def clique_parameters(n: int, delta: float) -> tuple[int, float, float]:
    """(k, p, eps) = (round(n^(1/3-delta)), n^(-2/(k-1)), n^-k)."""
    if not 0 < delta < 1 / 3:
        raise ValueError("delta must be in (0, 1/3)")
    k = max(2, round(n ** (1 / 3 - delta)))
    p = n ** (-2.0 / (k - 1))
    eps = float(n) ** (-k)
    return k, p, eps


def verify_no_kclique_bound(n: int, k: int, p, samples: int, seed: int = 0) -> Estimate:
    """Monte-Carlo Pr[G(n,p) contains a k-clique]; the target bound is 3/4.

    Sample s is row s of ``bernoulli_rows`` on ``CounterStream(seed)``: it
    reads counter slots s*C(n,2) + j, edge j in ``edge_index`` order, so the
    estimate equals one ``gnp_sample`` edge mask per sample.  The rows are
    decided a block at a time by ``has_k_clique``, whose pruning changes no
    decision, so the hit count is exact.  n < 1 or k < 0 raise ``ValueError``.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if k < 0:
        raise ValueError("need k >= 0")
    m = edge_count(n)
    rows = bernoulli_rows(CounterStream(seed), samples, m, m, p, p)
    hits = sum(int(has_k_clique(bits, n, k).sum()) for bits in rows)
    return Estimate.from_hits(hits, samples, seed)


def clique_spread_check(n: int, k: int, a_size: int) -> tuple[Fraction, Fraction]:
    """(containment probability, (k/n)^l) for a fixed l-set inside a uniform k-set.

    The containment probability of an l-subset in a uniform random k-subset
    of [n] is the hypergeometric ratio C(n-l, k-l)/C(n, k).
    """
    if not 0 <= a_size <= k <= n:
        raise ValueError("need 0 <= |A| <= k <= n")
    value = Fraction(math.comb(n - a_size, k - a_size), math.comb(n, k))
    bound = Fraction(k, n) ** a_size
    return value, bound


# ---------------------------------------------------------------------------
# clique-shaped monotone functions


def clique_function(n: int, masks: Iterable[int]) -> MonotoneFunction:
    """The function accepting every graph that contains some K_A, A in masks.

    A member with at most one vertex has no edges and makes f constant 1.
    On this normal form f(A) = f(K_A), and ``&`` is the wedge: each pairwise
    conjunction becomes its union clique, equal to it on every clique input.
    """
    return MonotoneFunction.from_masks(n, (0 if m.bit_count() <= 1 else m for m in masks))


@dataclass(frozen=True)
class CliqueApproxParams(ClosureParams):
    """The closure read on cliques: scan K_A for 2 <= |A| <= c under noise G(n, noise_p)."""

    def __post_init__(self):
        super().__post_init__()
        if self.c < 2:
            raise ValueError("c must be >= 2")

    def candidates(self, n: int) -> Iterator[int]:
        return (a for a in super().candidates(n) if a.bit_count() >= 2)

    def coverage_family(self, f: MonotoneFunction) -> SetFamily:
        return SetFamily.from_masks(edge_count(f.n), map(clique_edges, f.minterms))

    def coverage_mask(self, a: int) -> int:
        return clique_edges(a)
