import dataclasses
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sunflower_circuits import harnik_raz
from sunflower_circuits.cliques import gnp_sample
from sunflower_circuits.errors import EnumerationTooLargeError
from sunflower_circuits.harnik_raz import (
    HRParams,
    PositiveTestDistribution,
    build_hr_family,
    is_prime,
    polynomial_values,
    sample_positive,
    verify_cwise_independence,
    verify_minterm_spread,
    verify_negative_rejection,
    verify_positive_acceptance,
)
from sunflower_circuits.monotone import MonotoneFunction
from sunflower_circuits.probability import mc_event_probability, sample_p_subset
from sunflower_circuits.rng import CounterStream
from sunflower_circuits.setfamily import elements_of, mask_of

from oracles import (
    hr_value_set,
    image_acceptance,
    index_digits,
    p_subset_draw,
    poly_value,
    positive_draw,
)


class TestParams:
    def test_prime_required(self):
        with pytest.raises(ValueError):
            HRParams(10, 2, 3)

    def test_ordering_required(self):
        with pytest.raises(ValueError):
            HRParams(11, 3, 3)
        with pytest.raises(ValueError):
            HRParams(11, 2, 11)

    def test_is_prime(self):
        primes = [2, 3, 5, 7, 11, 13, 10007]
        assert all(is_prime(p) for p in primes)
        assert not any(is_prime(x) for x in (1, 4, 9, 10005))


class TestPolyEvaluation:
    def test_identity_polynomial(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        assert elements_of(hr.images[0 + 1 * 11]) == (1, 2, 3)  # P(x) = x

    def test_constant_polynomial(self):
        hr = build_hr_family(HRParams(11, 1, 5))
        assert elements_of(hr.images[7]) == (7,)

    def test_residue_zero_maps_to_n(self):
        # P(x) = 2x + 1 mod 5 at 1..3 gives residues {3, 0, 2} -> elements {2, 3, 5}
        hr = build_hr_family(HRParams(5, 2, 3))
        assert elements_of(hr.images[1 + 2 * 5]) == (2, 3, 5)
        assert hr.images[1 + 2 * 5] == hr_value_set((1, 2), 3, 5)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rows_and_images_match_scalar_horner(self, data):
        n = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
        k = data.draw(st.integers(2, n - 1))
        c = data.draw(st.integers(1, min(k - 1, 3)))
        points = data.draw(st.lists(st.integers(0, 2 * n), max_size=4))
        rows = [row for chunk in polynomial_values(n, c, points) for row in chunk.tolist()]
        hr = build_hr_family(HRParams(n, c, k))
        assert len(rows) == len(hr.images) == n**c
        for i, (row, image) in enumerate(zip(rows, hr.images)):
            coeffs = index_digits(i, n, c)
            assert row == [poly_value(coeffs, x, n) for x in points]
            assert image == hr_value_set(coeffs, k, n)

    def test_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(harnik_raz, "_CHUNK_ENTRIES", 50)
        chunks = list(polynomial_values(7, 3, (1, 2, 6)))
        assert len(chunks) == 7**3 // (50 // 7)
        rows = [row for chunk in chunks for row in chunk.tolist()]
        assert rows == [
            [poly_value(index_digits(i, 7, 3), x, 7) for x in (1, 2, 6)] for i in range(7**3)
        ]

    def test_cap_checked_before_work(self):
        with pytest.raises(EnumerationTooLargeError):
            next(polynomial_values(101, 5, range(50)))


class TestBuildFamily:
    def test_counts_at_11_2_3(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        # constants fail |S_P| >= 2, all 110 non-constant linear maps qualify
        assert hr.n_qualifying == 110
        assert all(m.bit_count() == 3 for m in hr.family.members)

    def test_constant_only_code_is_empty(self):
        hr = build_hr_family(HRParams(5, 1, 3))
        assert hr.n_qualifying == 0
        assert len(hr.family) == 0
        assert hr.eval((1 << 5) - 1) == 0

    def test_dedup(self):
        params = HRParams(11, 2, 3)
        hr = build_hr_family(params)
        masks = set()
        for i in range(params.n_polynomials):
            m = hr_value_set(index_digits(i, params.n, params.c), params.k, params.n)
            if m.bit_count() >= params.min_weight:
                masks.add(m)
        assert set(hr.family.members) <= masks
        assert len(hr.family) <= hr.n_qualifying

    def test_cap(self):
        with pytest.raises(EnumerationTooLargeError):
            build_hr_family(HRParams(101, 4, 50))

    def test_minterm_weights_at_least_half_k(self):
        for n, c, k in ((11, 2, 3), (13, 2, 5), (7, 2, 3)):
            hr = build_hr_family(HRParams(n, c, k))
            lo = -(-k // 2)
            assert all(lo <= m.bit_count() <= k for m in hr.family.members)

    def test_family_size_at_most_poly_count(self):
        for n, c, k in ((11, 2, 3), (13, 3, 5)):
            hr = build_hr_family(HRParams(n, c, k))
            assert len(hr.family) <= n**c


class TestEval:
    def test_full_input_accepts(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        assert hr.eval((1 << 11) - 1) == 1

    def test_empty_input_rejects(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        assert hr.eval(0) == 0

    def test_qualifying_value_set_accepts(self):
        params = HRParams(11, 2, 3)
        hr = build_hr_family(params)
        m = hr.images[0 + 1 * params.n]  # identity map
        assert hr.eval(m) == 1

    def test_monotone(self):
        hr = build_hr_family(HRParams(7, 2, 3))
        rng = random.Random(0)
        for _ in range(200):
            x = rng.randrange(0, 1 << 7)
            y = x | rng.randrange(0, 1 << 7)
            assert hr.eval(x) <= hr.eval(y)


class TestPositiveAcceptance:
    def test_exact_value_11_2_3(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        value, bound = verify_positive_acceptance(hr)
        assert value == Fraction(110, 121)
        assert bound == Fraction(9, 11)
        assert value >= bound

    def test_degree_zero_with_k2_is_certain(self):
        # constants qualify when k = 2 (|S_P| = 1 >= 1), so acceptance is 1
        hr = build_hr_family(HRParams(7, 1, 2))
        value, bound = verify_positive_acceptance(hr)
        assert value == 1
        assert value >= bound

    def test_degree_zero_with_k3_fails_bound(self):
        # the pairwise-independence argument needs c >= 2: at c=1 the bound breaks
        hr = build_hr_family(HRParams(7, 1, 3))
        value, bound = verify_positive_acceptance(hr)
        assert value == 0
        assert value < bound

    def test_mc_close_to_exact(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        exact, _ = verify_positive_acceptance(hr)
        est, _ = verify_positive_acceptance(hr, "mc", samples=20_000, seed=1)
        assert abs(est.value - float(exact)) <= 3 * est.half_width


class TestNegativeRejection:
    def test_exact_value_is_complement_of_coverage(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        value, bound = verify_negative_rejection(hr)
        assert value == Fraction(29, 256)  # frozen from the 2^11 brute-force oracle
        # bound is vacuous at this scale but must still be reported
        assert bound < 0

    def test_empty_family_rejects_always(self):
        hr = build_hr_family(HRParams(5, 1, 3))
        value, _ = verify_negative_rejection(hr)
        assert value == 1

    @pytest.mark.parametrize("n,c,k", [(5, 1, 3), (13, 2, 4), (67, 2, 3)])
    def test_mc_matches_per_sample_loop(self, n, c, k):
        # widths 5 and 13 take the 64-bit row path, 67 the wide one; HR(5,1,3) is empty
        hr = build_hr_family(HRParams(n, c, k))
        est, _ = verify_negative_rejection(hr, "mc", samples=1000, seed=4)
        loop = mc_event_probability(
            lambda m: hr.eval(m) == 0,
            lambda stream: p_subset_draw(n, Fraction(1, 2), stream),
            1000,
            seed=4,
        )
        assert est == loop

    def test_mc_close_to_exact(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        exact, _ = verify_negative_rejection(hr)
        est, _ = verify_negative_rejection(hr, "mc", samples=20_000, seed=2)
        assert abs(est.value - float(exact)) <= 3 * est.half_width


class TestMintermSpread:
    def test_single_element(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        value, bound = verify_minterm_spread(hr, mask_of([1], 11))
        assert bound == Fraction(3, 11)
        assert value <= bound

    def test_empty_set(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        value, bound = verify_minterm_spread(hr, 0)
        assert value == 1 == bound

    def test_pairs(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        for pair in combinations(range(1, 12), 2):
            value, bound = verify_minterm_spread(hr, mask_of(pair, 11))
            assert bound == Fraction(9, 121)
            assert value <= bound

    def test_size_above_c_rejected(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        with pytest.raises(ValueError):
            verify_minterm_spread(hr, mask_of([1, 2, 3], 11))


class TestCwiseIndependence:
    def test_pairs_exact(self):
        params = HRParams(5, 2, 3)
        for pts in combinations(range(1, 4), 2):
            for vals in product(range(5), repeat=2):
                got, want = verify_cwise_independence(params, pts, vals)
                assert got == want == Fraction(1, 25)

    def test_single_point(self):
        params = HRParams(7, 2, 3)
        for j in range(1, 4):
            for a in range(7):
                got, want = verify_cwise_independence(params, (j,), (a,))
                assert got == want == Fraction(1, 7)

    def test_zero_constraints(self):
        got, want = verify_cwise_independence(HRParams(5, 2, 3), (), ())
        assert got == want == 1

    def test_too_many_constraints_rejected(self):
        with pytest.raises(ValueError):
            verify_cwise_independence(HRParams(5, 2, 4), (1, 2, 3), (0, 0, 0))

    def test_triples_at_c3(self):
        params = HRParams(5, 3, 4)
        rng = random.Random(1)
        for _ in range(10):
            pts = tuple(rng.sample(range(1, 5), 3))
            vals = tuple(rng.randrange(5) for _ in range(3))
            got, want = verify_cwise_independence(params, pts, vals)
            assert got == want == Fraction(1, 125)


class _ScriptedStream(CounterStream):
    """A stream whose slot i holds draws[i], read one at a time or in blocks."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = draws

    def at(self, i):
        return int(self.draws[i])

    def block(self, start, count):
        assert start + count <= len(self.draws), "read past the scripted draws"
        return self.draws[start : start + count].copy()


class TestBlockPositiveSampler:
    N, C = 11, 2
    LIMIT = (1 << 64) // 11 * 11  # next_below(11) rejects draws at or above this

    def _draws(self, seed):
        rng = random.Random(seed)
        values = [rng.getrandbits(64) for _ in range(400)]
        for i in rng.sample(range(400), 60):  # dense rejections, runs of them included
            values[i] = rng.randrange(self.LIMIT, 1 << 64)
        values[:3] = [self.LIMIT, (1 << 64) - 1, self.LIMIT + 1]
        return np.array(values, dtype=np.uint64)

    def test_digits_drop_rejected_draws(self):
        draws = self._draws(0)
        want = [int(d) % self.N for d in draws if int(d) < self.LIMIT]
        assert harnik_raz._draw_digits(draws, self.N).tolist() == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_indices_replay_sample_positive_over_the_same_slots(self, seed):
        draws = self._draws(seed)
        params = HRParams(self.N, self.C, 3)
        # images = indices, so the per-draw reference returns the polynomial index it drew
        hr = dataclasses.replace(build_hr_family(params), images=tuple(range(params.n_polynomials)))
        samples = len(harnik_raz._draw_digits(draws, self.N)) // self.C
        block, twin = _ScriptedStream(draws), _ScriptedStream(draws)
        got = np.concatenate(list(harnik_raz._positive_indices(params, samples, block)))
        assert got.tolist() == [positive_draw(hr, twin) for _ in range(samples)]
        assert block.index == twin.index

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mc_verifiers_equal_the_per_draw_loop(self, seed):
        hr = build_hr_family(HRParams(13, 2, 4))
        a_mask = mask_of([2, 5], 13)
        draw = lambda stream: positive_draw(hr, stream)
        est, _ = verify_positive_acceptance(hr, "mc", 3000, seed)
        assert est == mc_event_probability(lambda m: hr.eval(m) == 1, draw, 3000, seed)
        est, _ = verify_minterm_spread(hr, a_mask, "mc", 3000, seed)
        assert est == mc_event_probability(lambda m: m & a_mask == a_mask, draw, 3000, seed)


class TestSamplers:
    def test_positive_deterministic(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        a = sample_positive(hr, CounterStream(5))
        b = sample_positive(hr, CounterStream(5))
        assert a == b

    def test_positive_includes_nonqualifying(self):
        hr = build_hr_family(HRParams(5, 1, 3))  # all constants
        stream = CounterStream(0)
        masks = {sample_positive(hr, stream) for _ in range(50)}
        assert all(m.bit_count() == 1 for m in masks)

    def test_negative_mean_weight(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        stream = CounterStream(3)
        total = sum(sample_p_subset(11, Fraction(1, 2), stream).bit_count() for _ in range(2000))
        assert abs(total / (2000 * 11) - 0.5) < 0.03

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_draws_read_the_oracle_slots(self, seed):
        # the per-draw samplers share one stream: each returns the oracle's draw
        # and leaves the stream where the oracle leaves it
        hr = build_hr_family(HRParams(11, 2, 3))
        draws = [
            (lambda s: sample_p_subset(11, Fraction(1, 3), s),
             lambda s: p_subset_draw(11, Fraction(1, 3), s)),
            (lambda s: sample_positive(hr, s), lambda s: positive_draw(hr, s)),
            (lambda s: gnp_sample(7, Fraction(1, 2), s),
             lambda s: p_subset_draw(21, Fraction(1, 2), s)),
            (lambda s: sample_p_subset(5, 0, s), lambda s: p_subset_draw(5, 0, s)),
            (lambda s: sample_p_subset(5, 1, s), lambda s: p_subset_draw(5, 1, s)),
        ]
        rng = random.Random(seed)
        stream, twin = CounterStream(seed, stream=4), CounterStream(seed, stream=4)
        for _ in range(60):
            draw, reference = rng.choice(draws)
            assert draw(stream) == reference(twin)
            assert stream.index == twin.index

    @pytest.mark.parametrize("n,c,k", [(11, 2, 3), (13, 3, 5)])
    def test_positive_is_oracle_of_drawn_coefficients(self, n, c, k):
        hr = build_hr_family(HRParams(n, c, k))
        stream, twin = CounterStream(8), CounterStream(8)
        for _ in range(300):
            coeffs = tuple(twin.next_below(n) for _ in range(c))
            assert sample_positive(hr, stream) == hr_value_set(coeffs, k, n)
        assert stream.index == twin.index

    def test_exact_distribution_sums_to_one(self):
        hr = build_hr_family(HRParams(7, 2, 3))
        dist = PositiveTestDistribution(hr)
        items = list(dist.exact_items())
        assert sum(w for _, w in items) == 1
        # acceptance probability recomputed from the support matches the count
        acc = sum(w for m, w in items if hr.eval(m))
        assert acc == Fraction(hr.n_qualifying, 49)

    def test_acceptance_packs_every_image_once(self):
        # per element e, bit i of holders[e] is set iff image i holds e, repeats kept;
        # built on first use, once per family, and shared by every distribution over it
        for params in (HRParams(11, 2, 3), HRParams(67, 1, 2), HRParams(13, 2, 4)):
            hr = build_hr_family(params)
            assert "holders" not in vars(hr)
            dist = PositiveTestDistribution(hr)
            assert "holders" not in vars(hr)
            dist.acceptance(MonotoneFunction.constant1(params.n))
            holders = hr.holders
            assert PositiveTestDistribution(hr).hr.holders is holders
            assert type(holders) is tuple and len(holders) == params.n
            for e in range(params.n):
                assert holders[e] == sum(1 << i for i, m in enumerate(hr.images) if m >> e & 1)
            assert sum(h.bit_count() for h in holders) == sum(m.bit_count() for m in hr.images)

    def test_acceptance_counts_accepted_polynomials(self):
        hr = build_hr_family(HRParams(7, 2, 3))
        dist = PositiveTestDistribution(hr)
        assert dist.acceptance(MonotoneFunction.from_masks(7, hr.family.members)) == Fraction(
            hr.n_qualifying, 49)
        assert dist.acceptance(MonotoneFunction.constant1(7)) == 1
        assert dist.acceptance(MonotoneFunction.constant0(7)) == 0


_ACCEPTANCE_FAMILIES = {p: build_hr_family(HRParams(*p)) for p in ((11, 2, 3), (13, 2, 4), (67, 1, 2))}
_ACCEPTANCE_DISTS = {p: PositiveTestDistribution(hr) for p, hr in _ACCEPTANCE_FAMILIES.items()}


@st.composite
def image_functions(draw):
    """An HR family and a function on its ground set: 0 to many minterms, some inside images."""
    key = draw(st.sampled_from(sorted(_ACCEPTANCE_FAMILIES)))
    hr = _ACCEPTANCE_FAMILIES[key]
    n = hr.params.n
    inside = st.tuples(st.sampled_from(hr.images), st.integers(0, (1 << n) - 1)).map(
        lambda pair: pair[0] & pair[1])  # a subset of an image
    anywhere = st.integers(0, (1 << n) - 1)
    small = st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(
        lambda bits: sum({1 << b for b in bits}))
    masks = draw(st.lists(st.one_of(inside, anywhere, small), max_size=40))
    return key, MonotoneFunction.from_masks(n, masks)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_exact_minterm_spread_is_the_per_image_count(data):
    # the AND of the elements' holders against one containment test per image; a set
    # with elements outside [n] lies in no image
    key = data.draw(st.sampled_from(sorted(_ACCEPTANCE_FAMILIES)))
    hr = _ACCEPTANCE_FAMILIES[key]
    n, c = hr.params.n, hr.params.c
    elements = st.one_of(st.integers(0, n - 1), st.integers(n, 2 * n + 70))
    a_mask = sum({1 << e for e in data.draw(st.lists(elements, max_size=c))})
    value, bound = verify_minterm_spread(hr, a_mask)
    hits = sum(1 for m in hr.images if m & a_mask == a_mask)
    assert type(value) is Fraction
    assert value == Fraction(hits, hr.params.n_polynomials)
    assert bound == Fraction(hr.params.k, n) ** a_mask.bit_count()
    if a_mask >> n:
        assert value == 0


class TestOutsideTheGroundSet:
    """A minterm with an element outside [n] lies in no value set, on every reading."""

    @pytest.mark.parametrize("extra", [11, 63, 64, 70, 200])
    def test_an_outside_element_lies_in_no_image(self, extra):
        hr = _ACCEPTANCE_FAMILIES[(11, 2, 3)]
        dist = _ACCEPTANCE_DISTS[(11, 2, 3)]
        for minterms in ([1 << 1 | 1 << extra], [1 << extra], [1 << 1 | 1 << extra, 1 << 2]):
            f = MonotoneFunction.from_masks(extra + 1, minterms)
            want = image_acceptance(hr.images, f.minterms, 121)
            assert dist.acceptance(f) == want
        assert dist.acceptance(MonotoneFunction.from_masks(72, [0b10 | 1 << 71])) == 0

    @pytest.mark.parametrize("extra", [11, 64, 71])
    def test_minterm_spread_of_an_outside_element_is_zero(self, extra):
        hr = _ACCEPTANCE_FAMILIES[(11, 2, 3)]
        assert verify_minterm_spread(hr, 0b10 | 1 << extra)[0] == 0
        est, _ = verify_minterm_spread(hr, 0b10 | 1 << extra, "mc", 500, 3)
        assert est.value == 0


@given(case=image_functions())
@settings(max_examples=150, deadline=None)
def test_acceptance_is_the_per_image_count(case):
    key, f = case
    hr = _ACCEPTANCE_FAMILIES[key]
    got = _ACCEPTANCE_DISTS[key].acceptance(f)
    assert type(got) is Fraction
    assert got == image_acceptance(hr.images, f.minterms, hr.params.n_polynomials)
