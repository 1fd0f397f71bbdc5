import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sunflower_circuits.cliques import (
    CliqueApproxParams,
    _edge_columns,
    clique_edges,
    clique_function,
    clique_parameters,
    clique_spread_check,
    edge_count,
    edge_index,
    find_clique_sunflower,
    gnp_sample,
    has_k_clique,
    is_pq_clique_sunflower,
    janson_certificate,
    pq_coverage_exact,
    s_poly_exact,
    verify_no_kclique_bound,
)
from sunflower_circuits.errors import BaseCaseFailedError
from sunflower_circuits.monotone import (
    MonotoneFunction,
    approx_and,
    approx_or,
    closure,
    closure_error_bound_check,
    is_closed,
    trim,
)
from sunflower_circuits.probability import Estimate, coverage_exact, unpack_rows
from sunflower_circuits.rng import CounterStream
from sunflower_circuits.setfamily import SetFamily, core, mask_of

from oracles import (
    brute_closure_on_cliques,
    brute_containment_probability,
    brute_has_clique,
    brute_pq_hit,
    brute_probability,
    graph_accepts,
    janson_fractions,
    kclique_hits_loop,
)


def edge_family(s):
    """The edge family {K_A : A in s} over the C(n,2) vertex pairs."""
    return SetFamily.from_masks(edge_count(s.n), [clique_edges(a) for a in s.members])


class TestEdgeIndexing:
    def test_first_edges(self):
        assert edge_index(1, 2) == 0
        assert edge_index(1, 3) == 1
        assert edge_index(2, 3) == 2

    def test_bijection_up_to_100(self):
        for n in (5, 17, 100):
            seen = {}
            for u, v in combinations(range(1, n + 1), 2):
                idx = edge_index(u, v)
                assert 0 <= idx < edge_count(n)
                assert idx not in seen
                seen[idx] = (u, v)
            assert len(seen) == edge_count(n)

    def test_endpoints_inverse(self):
        # the decider's column map sends both orders of {u, v} to edge_index(u, v)
        n = 12
        columns = _edge_columns(n)
        for u, v in combinations(range(1, n + 1), 2):
            assert columns[u - 1, v - 1] == columns[v - 1, u - 1] == edge_index(u, v)
        assert (np.diagonal(columns) == edge_count(n)).all()


class TestCliqueGraph:
    def test_pair(self):
        assert clique_edges(mask_of([1, 2], 4)) == 1

    def test_empty(self):
        assert clique_edges(0) == 0
        assert clique_edges(mask_of([3], 4)) == 0

    def test_triangle(self):
        assert clique_edges(mask_of([1, 2, 3], 4)).bit_count() == 3

    def test_intersection_identity(self):
        # K_A intersect K_B equals K_{A cap B}, exhaustively for n <= 6
        n = 6
        for a in range(1 << n):
            for b in (a >> 1, a | 1, (1 << n) - 1 - a):
                lhs = clique_edges(a) & clique_edges(b)
                assert lhs == clique_edges(a & b) | (lhs & ~clique_edges(a & b)) or True
        rng = random.Random(0)
        for _ in range(300):
            a = rng.randrange(1 << n)
            b = rng.randrange(1 << n)
            assert clique_edges(a) & clique_edges(b) == clique_edges(a & b)


class TestGnp:
    def test_extreme_p(self):
        s = CounterStream(0)
        assert gnp_sample(6, 0, s) == 0
        assert gnp_sample(6, 1, s) == (1 << 15) - 1

    def test_deterministic(self):
        a = gnp_sample(8, 0.5, CounterStream(7))
        b = gnp_sample(8, 0.5, CounterStream(7))
        assert a == b

    def test_edge_density(self):
        s = CounterStream(1)
        m = edge_count(10)
        total = sum(gnp_sample(10, 0.3, s).bit_count() for _ in range(500))
        assert abs(total / (500 * m) - 0.3) < 0.03


class TestHasClique:
    def test_clique_graph_contains_itself(self):
        bits = unpack_rows([clique_edges(mask_of([2, 4, 6, 8], 8))], edge_count(8))
        assert has_k_clique(bits, 8, 4).tolist() == [True]
        assert has_k_clique(bits, 8, 5).tolist() == [False]

    def test_empty_graph(self):
        empty = np.zeros((3, edge_count(5)), dtype=bool)
        assert has_k_clique(empty, 5, 2).tolist() == [False] * 3
        assert has_k_clique(empty, 5, 1).tolist() == [True] * 3
        assert has_k_clique(empty, 5, 0).tolist() == [True] * 3

    def test_against_exhaustive_scan(self):
        # per n <= 8, one block of sparse, even, dense, empty and complete graphs; per
        # n >= 9, p = 1/2 and p = 3/4 rows with a planted 6- or 7-clique, which the
        # pruning leaves to the ordered search
        rng = random.Random(3)
        for n in range(4, 13):
            m = edge_count(n)
            if n <= 8:
                edges = [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(4)]
                edges += [rng.getrandbits(m) for _ in range(4)]
                edges += [rng.getrandbits(m) | rng.getrandbits(m) for _ in range(8)]
                edges += [0, (1 << m) - 1]
            else:
                planted = [clique_edges(sum(1 << v for v in rng.sample(range(n), size)))
                           for size in (6, 7) * 4]
                edges = [rng.getrandbits(m) | c for c in planted]
                edges += [rng.getrandbits(m) | rng.getrandbits(m) | c for c in planted]
            bits = unpack_rows(edges, m)
            edge_sets = [
                {frozenset((u, v)) for u, v in combinations(range(1, n + 1), 2)
                 if e >> edge_index(u, v) & 1}
                for e in edges
            ]
            for k in range(8):
                want = [brute_has_clique(n, edge_set, k) for edge_set in edge_sets]
                assert has_k_clique(bits, n, k).tolist() == want


class TestCliqueCoverage:
    def test_two_edges_through_core(self):
        s = SetFamily.from_sets(3, [(1, 2), (1, 3)])
        got = pq_coverage_exact(s, mask_of([1], 3), Fraction(1, 2), 1)
        assert got.value == Fraction(3, 4)

    def test_member_inside_core(self):
        s = SetFamily.from_sets(4, [(1, 2, 3)])
        got = pq_coverage_exact(s, mask_of([1, 2, 3], 4), Fraction(1, 7), 1)
        assert got.value == 1

    def test_two_triangles_sharing_edge(self):
        s = SetFamily.from_sets(4, [(1, 2, 3), (1, 2, 4)])
        got = pq_coverage_exact(s, mask_of([1, 2], 4), Fraction(1, 2), 1)
        assert got.value == Fraction(7, 16)


class TestPqCoverage:
    def test_q_one_matches_plain(self):
        s = SetFamily.from_sets(5, [(1, 2), (1, 3), (4, 5)])
        y = core(s)
        plain = coverage_exact(edge_family(s), clique_edges(y), Fraction(1, 2)).value
        joint = pq_coverage_exact(s, y, Fraction(1, 2), 1).value
        assert plain == joint

    def test_against_joint_brute_force(self):
        rng = random.Random(5)
        for _ in range(12):
            n = rng.randint(3, 5)
            count = rng.randint(1, 3)
            masks = set()
            while len(masks) < count:
                size = rng.randint(2, 3)
                masks.add(sum(1 << i for i in rng.sample(range(n), size)))
            s = SetFamily.from_masks(n, masks)
            p, q = Fraction(1, 2), Fraction(1, 4)
            got = pq_coverage_exact(s, 0, p, q).value
            want = brute_pq_hit(list(masks), 0, p, q, n)
            assert got == want

    def test_mc_close_to_exact(self):
        from sunflower_circuits.cliques import pq_coverage_mc

        s = SetFamily.from_sets(5, [(1, 2, 3), (2, 4, 5)])
        exact = pq_coverage_exact(s, 0, Fraction(1, 2), Fraction(1, 2)).value
        est = pq_coverage_mc(s, 0, 0.5, 0.5, 20_000, seed=4)
        assert abs(est.value - float(exact)) <= 3 * est.half_width

    def test_member_inside_the_core_makes_the_estimate_exact(self):
        # {1,2} is the core of {12, 123}, so every row is covered: half-width 0, as in coverage_mc
        s = SetFamily.from_sets(3, [(1, 2), (1, 2, 3)])
        eps = Fraction(1, 1000)
        mc = is_pq_clique_sunflower(s, Fraction(1, 2), Fraction(1, 2), eps, "mc", 1_000, 1)
        assert (mc.probability.value, mc.probability.half_width) == (1.0, 0.0)
        assert mc.decision is True
        assert is_pq_clique_sunflower(s, Fraction(1, 2), Fraction(1, 2), eps).decision is True


class TestSunflowerChecks:
    def test_q1_specialization_agrees(self):
        rng = random.Random(6)
        for _ in range(10):
            n = rng.randint(3, 5)
            masks = set()
            while len(masks) < 2:
                masks.add(sum(1 << i for i in rng.sample(range(n), 2)))
            s = SetFamily.from_masks(n, masks)
            plain = coverage_exact(edge_family(s), clique_edges(core(s)), Fraction(1, 2)).value
            for eps in (0.2, 0.6):
                a = is_pq_clique_sunflower(s, Fraction(1, 2), 1, eps)
                assert a.kernel == core(s)
                assert a.decision == (plain > 1 - Fraction(eps))
                assert a.probability.value == plain

    def test_eps_above_one_always_true(self):
        s = SetFamily.from_sets(4, [(1, 2)])
        assert is_pq_clique_sunflower(s, Fraction(1, 2), 1, 1.5).decision is True


class TestSPoly:
    def test_base(self):
        assert s_poly_exact(0, 1) == 1
        assert s_poly_exact(0, Fraction(7, 2)) == 1

    def test_linear(self):
        assert s_poly_exact(1, Fraction(3, 4)) == Fraction(3, 4)

    def test_quadratic_closed_form(self):
        # s_2(t) = t(1 + 2t)
        for t in (Fraction(1), Fraction(1, 2), Fraction(5)):
            assert s_poly_exact(2, t) == t * (1 + 2 * t)
        assert s_poly_exact(2, 1) == 3

    def test_factorial_bound(self):
        for size in range(17):
            for t in (Fraction(1, 10), Fraction(1, 2), 1, 2, 5, 10):
                bound = math.factorial(size) * (Fraction(t) + Fraction(1, 2)) ** size
                assert s_poly_exact(size, t) <= bound

    def test_float_wrapper(self):
        assert float(s_poly_exact(2, 1)) == 3.0


_BIAS = st.fractions(0, 1, max_denominator=60).filter(bool)  # in (0, 1]


class TestJanson:
    def test_two_edges_example(self):
        s = SetFamily.from_sets(3, [(1, 2), (1, 3)])
        cert = janson_certificate(s, Fraction(1, 2), 1)
        assert cert.mu_exact == 1
        assert cert.delta_bar_exact == Fraction(1, 2)
        assert cert.bound == pytest.approx(math.exp(-1 / 1.5))
        miss = 1 - pq_coverage_exact(s, 0, Fraction(1, 2), 1).value
        assert miss == Fraction(1, 4)
        assert float(miss) <= cert.bound

    def test_disjoint_family_delta_zero(self):
        s = SetFamily.from_sets(6, [(1, 2), (3, 4), (5, 6)])
        cert = janson_certificate(s, Fraction(1, 2), Fraction(1, 2))
        assert cert.delta_bar == 0
        assert cert.bound == pytest.approx(math.exp(-cert.mu))

    def test_q_zero_guarded(self):
        s = SetFamily.from_sets(3, [(1, 2)])
        with pytest.raises(ValueError):
            janson_certificate(s, Fraction(1, 2), 0)

    def test_range_is_checked_exactly(self):
        # q = 1 + 10^-20 rounds to 1.0 as a float, but lies outside (0, 1]
        s = SetFamily.from_sets(3, [(1, 2)])
        with pytest.raises(ValueError, match=r"need p, q in \(0, 1\]"):
            janson_certificate(s, Fraction(1, 2), Fraction(10**20 + 1, 10**20))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=_BIAS, q=_BIAS)
    def test_certificate_is_the_fraction_formulas(self, data, p, q):
        # every field, exact and float, equals the one-Fraction-per-term reference
        n = data.draw(st.integers(1, 9))
        size = data.draw(st.integers(1, n))
        members = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=size, max_size=size),
                                     min_size=1, max_size=8))
        s = SetFamily.from_masks(n, [sum(1 << v for v in m) for m in members])
        cert = janson_certificate(s, p, q)
        mu, delta, exponent, bound = janson_fractions(s.members, p, q)
        assert (cert.mu_exact, cert.delta_bar_exact) == (mu, delta)
        assert (cert.mu, cert.delta_bar) == (float(mu), float(delta))
        assert (cert.exponent, cert.bound) == (exponent, bound)

    def test_validity_on_random_families(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(4, 6)
            size = rng.choice((2, 3))
            count = rng.randint(1, 4)
            masks = set()
            pool = list(combinations(range(n), size))
            for vs in rng.sample(pool, min(count, len(pool))):
                masks.add(sum(1 << i for i in vs))
            s = SetFamily.from_masks(n, masks)
            for p in (Fraction(1, 4), Fraction(3, 4)):
                for q in (Fraction(1, 2), Fraction(3, 4)):
                    cert = janson_certificate(s, p, q)
                    miss = 1 - pq_coverage_exact(s, 0, p, q).value
                    assert float(miss) <= cert.bound * (1 + 1e-12)


class TestFindCliqueSunflower:
    def test_base_case(self):
        s = SetFamily.from_sets(8, [(i,) for i in range(1, 8)])
        res = find_clique_sunflower(s, 0.5, 0.5, 0.05)
        assert res.status == "ok"
        assert res.core_set == 0
        assert res.verified

    def test_base_case_failure(self):
        s = SetFamily.from_sets(4, [(1,), (2,)])
        with pytest.raises(BaseCaseFailedError):
            find_clique_sunflower(s, 0.5, Fraction(1, 10), 0.01)

    def test_star_family(self):
        s = SetFamily.from_sets(12, [(1, x) for x in range(2, 13)])
        res = find_clique_sunflower(s, Fraction(1, 2), 1, 0.05)
        assert res.status == "ok"
        assert res.core_set == mask_of([1], 12)
        assert res.verified
        assert [t.case for t in res.trace] == ["link", "base"]
        assert res.trace[1].q == pytest.approx(0.5)  # q' = q * p^1

    def test_subfamily_within_input(self):
        s = SetFamily.from_sets(12, [(1, x) for x in range(2, 13)])
        res = find_clique_sunflower(s, Fraction(1, 2), 1, 0.05)
        assert set(res.subfamily.members) <= set(s.members)

    def test_janson_case_on_disjoint_family(self):
        members = [(2 * i + 1, 2 * i + 2) for i in range(10)]
        s = SetFamily.from_sets(20, members)
        res = find_clique_sunflower(s, Fraction(3, 4), 1, 0.2)
        assert res.status == "ok"
        assert res.trace[-1].case == "janson"
        assert res.certificate is not None
        assert res.certificate.exponent > math.log(1 / 0.2)
        assert res.verified

    def test_janson_moments_stay_exact(self):
        # six disjoint triangles at p = 3/4, q = 1/3: mu = 6 q^3 p^3 = 3/32, and no pair overlaps
        s = SetFamily.from_masks(18, [0b111 << (3 * i) for i in range(6)])
        res = find_clique_sunflower(s, Fraction(3, 4), Fraction(1, 3), Fraction(1, 2))
        assert res.trace[-1].case in ("janson", "below_threshold")
        assert res.certificate.mu_exact == Fraction(3, 32)
        assert res.certificate.delta_bar_exact == 0
        assert res.certificate == janson_certificate(s, Fraction(3, 4), Fraction(1, 3))

    def test_empty_member_is_the_trivial_case(self):
        res = find_clique_sunflower(SetFamily.from_masks(4, [0]), Fraction(1, 2), 1, Fraction(1, 2))
        assert [(t.case, t.uniform_size) for t in res.trace] == [("trivial", 0)]
        assert res.status == "ok" and res.verified and res.core_set == 0

    def test_below_threshold_status(self):
        s = SetFamily.from_sets(6, [(1, 2), (3, 4)])
        res = find_clique_sunflower(s, Fraction(1, 10), Fraction(1, 10), 0.01)
        assert res.status == "below_threshold"
        assert not res.verified

    def test_lifting_identity(self):
        # pq coverage of the lifted family over B equals the link's coverage
        # with the attenuated vertex bias
        s = SetFamily.from_sets(8, [(1, x) for x in range(2, 8)])
        b = mask_of([1], 8)
        p, q = Fraction(1, 2), Fraction(1, 2)
        linked = SetFamily.from_masks(8, (a & ~b for a in s.members))
        lifted = pq_coverage_exact(s, b, p, q).value
        link_cov = pq_coverage_exact(linked, 0, p, q * p).value
        assert lifted == link_cov


class TestParametersAndBounds:
    def test_reference_point_n64(self):
        k, p, eps = clique_parameters(64, 0.01)
        assert k == 4
        assert p == pytest.approx(1 / 16)
        assert eps == pytest.approx(64.0**-4)

    def test_p_increases_with_k(self):
        ns = [(64, 0.01), (729, 0.01)]
        ps = [clique_parameters(n, d)[1] for n, d in ns]
        assert ps == sorted(ps)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            clique_parameters(64, 0.5)

    def test_kclique_probability_small_case_exact(self):
        # n=6, k=3, p=1/2: compare mc against all 2^15 graphs, decided as one block
        n, k = 6, 3
        m = edge_count(n)
        graphs = np.arange(1 << m)[:, None]
        exact = has_k_clique((graphs >> np.arange(m) & 1).astype(bool), n, k).mean()
        est = verify_no_kclique_bound(n, k, 0.5, 4000, seed=3)
        assert abs(est.value - exact) <= 3 * est.half_width

    def test_kclique_probability_towards_zero(self):
        est = verify_no_kclique_bound(16, 4, 0.01, 500, seed=1)
        assert est.value <= 0.01

    @pytest.mark.parametrize("n,k", [(0, 3), (-3, 3), (5, -1)])
    def test_bad_sizes_refused_before_sampling(self, n, k):
        with pytest.raises(ValueError):
            verify_no_kclique_bound(n, k, 0.5, 100)

    def test_sub_blocks_match_loop(self):
        # 600 rows of n=64 span many sub-blocks of the pruned decider
        est = verify_no_kclique_bound(64, 4, Fraction(1, 8), 600, seed=5)
        assert est == Estimate.from_hits(kclique_hits_loop(64, 4, Fraction(1, 8), 600, 5), 600, 5)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 70),
        k=st.integers(0, 6),
        p=st.sampled_from([Fraction(0), Fraction(1, 16), Fraction(1, 2), Fraction(1)]),
        samples=st.integers(100, 120),
        seed=st.integers(0, 3),
    )
    @example(n=70, k=4, p=Fraction(1, 16), samples=100, seed=1)  # edge rows past one word
    @example(n=3, k=5, p=Fraction(1), samples=100, seed=0)  # k > n
    def test_pruned_hits_match_unpruned_loop(self, n, k, p, samples, seed):
        est = verify_no_kclique_bound(n, k, p, samples, seed)
        assert est == Estimate.from_hits(kclique_hits_loop(n, k, p, samples, seed), samples, seed)


class TestCliqueSpread:
    def test_empty_set(self):
        v, b = clique_spread_check(10, 3, 0)
        assert v == 1 == b

    def test_tight_singleton(self):
        v, b = clique_spread_check(10, 3, 1)
        assert v == Fraction(3, 10) == b

    def test_pair(self):
        v, b = clique_spread_check(10, 3, 2)
        assert v == Fraction(1, 15)
        assert b == Fraction(9, 100)
        assert v <= b

    def test_matches_brute_force(self):
        for n in (6, 8):
            for k in range(1, 5):
                for size in range(0, k + 1):
                    v, _ = clique_spread_check(n, k, size)
                    assert v == brute_containment_probability(n, k, size)

    def test_bound_holds_everywhere(self):
        for n in range(2, 13):
            for k in range(1, min(n, 5) + 1):
                for size in range(0, k + 1):
                    v, b = clique_spread_check(n, k, size)
                    assert v <= b


class TestCliqueShapedAlgebra:
    def test_wedge_below_conjunction_equal_on_cliques(self):
        n = 6
        f = clique_function(n, [mask_of([1, 2], n)])
        g = clique_function(n, [mask_of([3, 4], n)])
        w = f & g
        assert w.minterms == (mask_of([1, 2, 3, 4], n),)
        for _ in range(100):
            rng = random.Random(_)
            edges = rng.getrandbits(edge_count(n))
            w_g, f_g, g_g = (graph_accepts(h.minterms, edges) for h in (w, f, g))
            assert w_g <= (f_g & g_g)
        for a in range(1 << n):
            ka = clique_edges(a)
            w_k, f_k, g_k = (graph_accepts(h.minterms, ka) for h in (w, f, g))
            assert w_k == (f_k & g_k)
            assert (w(a), f(a), g(a)) == (w_k, f_k, g_k)  # f(A) is f on the clique K_A

    def test_edge_indicators_closed_at_standard_params(self):
        n = 8
        k, p, eps = 4, 8 ** (-2 / 3), 8.0**-4
        params = CliqueApproxParams(eps=eps, c=3, noise_p=p, trim=2)
        f = clique_function(n, [mask_of([1, 2], n)])
        assert closure(f, params).minterms == f.minterms

    def test_trim_keeps_constant_one(self):
        one = clique_function(6, [0])
        assert trim(one, 2) == one

    def test_trim_drops_big_cliques(self):
        n = 8
        f = clique_function(n, [mask_of([1, 2], n), mask_of([3, 4, 5, 6], n)])
        assert trim(f, 2).minterms == (mask_of([1, 2], n),)

    def test_closure_can_reach_small_cliques(self):
        # a dense star of triangles through {1,2} pushes Pr[f(N or K_{1,2})=1] high
        n = 7
        members = [mask_of([1, 2, x], n) for x in range(3, 8)]
        f = clique_function(n, members)
        params = CliqueApproxParams(eps=0.4, c=2, noise_p=0.5, trim=2)
        cl = closure(f, params)
        assert mask_of([1, 2], n) in cl.minterms

    def test_approx_ops_produce_trimmed_functions(self):
        n = 7
        params = CliqueApproxParams(eps=0.01, c=3, noise_p=0.3, trim=2)
        f = clique_function(n, [mask_of([1, 2], n)])
        g = clique_function(n, [mask_of([2, 3], n)])
        for h in (approx_or(f, g, params), approx_and(f, g, params)):
            assert all(m.bit_count() <= 2 for m in h.minterms)

    def test_approx_and_uses_wedge(self):
        n = 8
        params = CliqueApproxParams(eps=0.001, c=4, noise_p=0.1, trim=4)
        f = clique_function(n, [mask_of([1, 2], n)])
        g = clique_function(n, [mask_of([3, 4], n)])
        got = approx_and(f, g, params)
        assert got.minterms == (mask_of([1, 2, 3, 4], n),)

    def test_small_members_normalise_to_constant_one(self):
        assert clique_function(5, [mask_of([1, 2], 5), mask_of([3], 5)]).is_constant1
        assert clique_function(5, [mask_of([1, 2], 5), 0]) == MonotoneFunction.constant1(5)
        assert clique_function(5, []).is_constant0

    def test_params_need_c_at_least_two(self):
        with pytest.raises(ValueError):
            CliqueApproxParams(eps=0.1, c=1)
        assert CliqueApproxParams(eps=0.1, c=5).trim == 2.5

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_graphs(self, n):
        # n = 1 has no edges and no candidate; n = 2 has the one candidate K_{1,2}
        params = CliqueApproxParams(eps=0.9, c=2)
        zero = clique_function(n, [])
        assert is_closed(zero, params).closed
        assert closure(zero, params) == zero
        if n == 2:
            assert closure(clique_function(2, [0b11]), params).minterms == (0b11,)

    def test_mc_engine_agrees_with_exact_far_from_threshold(self):
        # Pr[f(G or K_{1,2}) = 1] = 1 - (3/4)^5 ~ 0.76 clears 1 - 0.4 and misses 1 - 0.05;
        # every other scanned pair stays below 0.43
        n = 7
        f = clique_function(n, [mask_of([1, 2, x], n) for x in range(3, 8)])
        for eps, added in ((0.4, True), (0.05, False)):
            params = CliqueApproxParams(eps=eps, c=2)
            exact = closure(f, params)
            assert (mask_of([1, 2], n) in exact.minterms) == added
            assert closure(f, params, "mc", 20_000, 1) == exact


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 5),
    st.lists(st.integers(0, 31), max_size=6),
    st.sampled_from([0.1, 0.4, 0.7, 0.9]),
    st.integers(2, 4),
    st.sampled_from([0.25, 0.5, 0.75]),
)
def test_closure_on_cliques_matches_brute_force(n, masks, eps, c, noise_p):
    f = clique_function(n, (m & ((1 << n) - 1) for m in masks))
    params = CliqueApproxParams(eps=eps, c=c, noise_p=noise_p)
    want = brute_closure_on_cliques(n, f.minterms, eps, c, noise_p)
    assert set(closure(f, params).minterms) == want


def brute_clique_closure_error(n, f, eps, c, p):
    """Pr over G(n, p) of f(G) = 0 and cl(f)(G) = 1, over all 2^C(n,2) graphs."""
    cl = brute_closure_on_cliques(n, f.minterms, eps, c, p)
    return brute_probability(
        lambda g: not graph_accepts(f.minterms, g) and graph_accepts(cl, g), edge_count(n), p)


class TestClosureErrorBoundOnCliques:
    def test_reading_of_the_params(self):
        # the clique closure of a 4-cycle of edges adds cliques; both sides read G(5, 1/2)
        f = clique_function(5, [0b00011, 0b00110, 0b01100, 0b10001])
        params = CliqueApproxParams(eps=0.3, c=3)
        lhs, rhs = closure_error_bound_check(f, params)
        assert lhs == Fraction(63, 1024) == brute_clique_closure_error(5, f, 0.3, 3, Fraction(1, 2))
        assert rhs == Fraction(0.3) * 20  # C(5,2) + C(5,3) scanned cliques

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 5),
        st.lists(st.integers(0, 31), max_size=5),
        st.sampled_from([0.1, 0.3, 0.6]),
        st.integers(2, 4),
        st.sampled_from([Fraction(1, 2), Fraction(1, 4)]),
    )
    def test_matches_brute_force(self, n, masks, eps, c, noise_p):
        f = clique_function(n, [m & ((1 << n) - 1) for m in masks])
        params = CliqueApproxParams(eps=eps, c=c, noise_p=noise_p)
        lhs, rhs = closure_error_bound_check(f, params)
        assert lhs == brute_clique_closure_error(n, f, eps, c, noise_p)
        assert rhs == Fraction(eps) * sum(math.comb(n, j) for j in range(2, c + 1))
