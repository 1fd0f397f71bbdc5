import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sunflower_circuits import cliques, harnik_raz, monotone, probability
from sunflower_circuits.cli import _plain
from sunflower_circuits.errors import EmptyFamilyError, ExactIntractableError
from sunflower_circuits.probability import (
    CoverageBlocks,
    Estimate,
    ExactProbability,
    PBiasedDistribution,
    compact,
    count_covered,
    coverage_exact,
    coverage_mc,
    is_robust_sunflower,
    mc_event_probability,
    reduce_coverage,
    sample_p_subset,
    wilson_half_width,
)
from sunflower_circuits.rng import CounterStream
from sunflower_circuits.setfamily import SetFamily, mask_of

from oracles import brute_coverage, brute_probability, p_subset_draw, rows_containing


def fam(n, *sets):
    return SetFamily.from_sets(n, sets)


class TestCoverageExact:
    def test_two_sets_through_core(self):
        got = coverage_exact(fam(4, (1, 2), (1, 3)), mask_of([1], 4), Fraction(1, 2))
        assert got.value == Fraction(3, 4)

    def test_member_inside_y(self):
        got = coverage_exact(fam(4, (1,)), mask_of([1], 4), Fraction(1, 7))
        assert got.value == 1

    def test_independent_singletons(self):
        got = coverage_exact(fam(4, (1,), (2,)), 0, Fraction(1, 3))
        assert got.value == Fraction(5, 9)

    def test_empty_family(self):
        assert coverage_exact(SetFamily.from_masks(4, []), 0, Fraction(1, 2)).value == 0

    def test_against_brute_force_random(self):
        import random

        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 9)
            masks = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))}
            y = rng.randrange(0, 1 << n)
            p = Fraction(rng.randint(1, 9), 10)
            f = SetFamily.from_masks(n, masks)
            assert coverage_exact(f, y, p).value == brute_coverage(f.members, y, p, n)

    def test_monotone_in_p(self):
        import random

        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 8)
            masks = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))}
            f = SetFamily.from_masks(n, masks)
            ps = sorted(Fraction(rng.randint(1, 19), 20) for _ in range(2))
            assert (
                coverage_exact(f, 0, ps[0]).value <= coverage_exact(f, 0, ps[1]).value
            )

    def test_padding_members_with_y_is_invisible(self):
        f = fam(6, (2, 3), (4,))
        y = mask_of([1, 5], 6)
        padded = SetFamily.from_masks(6, (m | y for m in f.members))
        p = Fraction(2, 7)
        assert coverage_exact(f, y, p).value == coverage_exact(padded, y, p).value

    def test_enumeration_and_ie_strategies_agree(self):
        import random

        rng = random.Random(9)
        # 25 members forces the enumeration path; compare against brute force
        n = 10
        masks = set()
        while len(masks) < 25:
            masks.add(rng.randrange(1, 1 << n))
        f = SetFamily.from_masks(n, masks)
        p = Fraction(1, 3)
        assert coverage_exact(f, 0, p).value == brute_coverage(f.members, 0, p, n)

    def test_work_cap(self):
        n = 60
        masks = [mask_of([i, i + 1], n) for i in range(1, 55)]
        f = SetFamily.from_masks(n, masks)
        with pytest.raises(ExactIntractableError):
            coverage_exact(f, 0, Fraction(1, 2))  # a path: 54 members, width 55, one component

    def test_disjoint_members_past_both_caps_multiply(self):
        # 27 disjoint pairs (width 54) are 27 one-mask components
        n = 60
        f = SetFamily.from_masks(n, [mask_of([i, i + 1], n) for i in range(1, 55, 2)])
        assert coverage_exact(f, 0, Fraction(1, 2)).value == 1 - Fraction(3, 4) ** 27

    def test_shadow_close_to_rational(self):
        got = coverage_exact(fam(5, (1, 2), (3, 4, 5)), 0, Fraction(1, 3))
        assert abs(got.shadow - float(got.value)) < 2**-40


class TestCoverageMC:
    def test_reproducible(self):
        f = fam(6, (1, 2), (3, 4))
        a = coverage_mc(f, 0, 0.5, 1000, seed=11)
        b = coverage_mc(f, 0, 0.5, 1000, seed=11)
        assert a == b
        c = coverage_mc(f, 0, 0.5, 1000, seed=12)
        assert a != c

    def test_empty_family_is_zero(self):
        est = coverage_mc(SetFamily.from_masks(4, []), 0, 0.3, 1000, seed=1)
        assert est.value == 0.0 and est.half_width == 0.0

    def test_member_inside_y_is_one(self):
        est = coverage_mc(fam(4, (1,)), mask_of([1], 4), 0.3, 1000, seed=1)
        assert est.value == 1.0 and est.half_width == 0.0

    def test_close_to_exact(self):
        f = fam(4, (1, 2), (1, 3))
        est = coverage_mc(f, mask_of([1], 4), 0.5, 100_000, seed=5)
        assert abs(est.value - 0.75) <= 3 * est.half_width

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            coverage_mc(fam(3, (1,)), 0, 0.5, 99, seed=0)

    def test_wide_universe_path(self):
        # >64 relevant elements exercises the packed fallback
        n = 80
        f = SetFamily.from_masks(n, [1 << i for i in range(70)])
        est = coverage_mc(f, 0, 0.5, 200, seed=2)
        assert est.value == 1.0  # 70 independent singletons: miss prob 2^-70


class TestWilson:
    def test_interval_contains_phat_center_behavior(self):
        hw = wilson_half_width(75, 100, 0.95)
        assert 0 < hw < 0.12

    def test_extreme_counts_have_positive_width(self):
        assert wilson_half_width(0, 1000, 0.99) > 0
        assert wilson_half_width(1000, 1000, 0.99) > 0

    def test_estimate_clamping(self):
        est = Estimate(1.0, 0.01, 0.99, 100, 0)
        assert est.high == 1.0
        assert est.low == 0.99


class TestEstimateJson:
    # a report writes an estimate through the CLI's ``_plain``
    def test_round_trip(self):
        est = Estimate(0.5, 0.01, 0.99, 1000, 7)
        assert Estimate(**json.loads(json.dumps(_plain(est)))) == est

    def test_fields_present(self):
        d = json.loads(json.dumps(_plain(Estimate(0.25, 0.02, 0.95, 400, 3))))
        assert set(d) == {"value", "half_width", "confidence", "samples", "seed"}


class TestSamplers:
    def test_p_zero_and_one(self):
        s = CounterStream(0)
        assert sample_p_subset(8, 0, s) == 0
        assert sample_p_subset(8, 1, s) == 255

    def test_deterministic(self):
        a = sample_p_subset(4, 0.5, CounterStream(42))
        b = sample_p_subset(4, 0.5, CounterStream(42))
        assert a == b

    def test_mean_weight(self):
        s = CounterStream(1)
        n, reps, p = 16, 2000, 0.75
        total = sum(sample_p_subset(n, p, s).bit_count() for _ in range(reps))
        mean = total / (reps * n)
        sigma = math.sqrt(p * (1 - p) / (reps * n))
        assert abs(mean - p) <= 4 * sigma


class TestRobustCheck:
    def test_singleton_blocks(self):
        f = fam(6, (1,), (2,), (3,), (4,), (5,))
        chk = is_robust_sunflower(f, 0.5, 0.1, "exact")
        assert chk.decision is True
        assert chk.probability.value == Fraction(31, 32)

    def test_single_member_family_certain(self):
        chk = is_robust_sunflower(fam(4, (1, 2)), 0.5, 0.1, "exact")
        assert chk.decision is True
        assert chk.probability.value == 1

    def test_two_blocks_low_p(self):
        chk = is_robust_sunflower(fam(4, (1, 2), (3, 4)), Fraction(1, 10), 0.5, "exact")
        assert chk.decision is False
        assert chk.probability.value == 1 - Fraction(99, 100) ** 2

    def test_mc_agrees_far_from_threshold(self):
        f = fam(6, (1,), (2,), (3,), (4,), (5,))
        chk = is_robust_sunflower(f, 0.5, 0.1, "mc", samples=20_000, seed=3)
        assert chk.decision is True

    def test_mc_indeterminate_near_threshold(self):
        # coverage is exactly 3/4; eps makes the threshold 3/4 too
        f = fam(4, (1, 2), (1, 3))
        chk = is_robust_sunflower(f, 0.5, 0.25, "mc", samples=10_000, seed=8)
        assert chk.decision is None

    def test_empty_family_raises(self):
        with pytest.raises(EmptyFamilyError):
            is_robust_sunflower(SetFamily.from_masks(3, []), 0.5, 0.1)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_count_covered_reads_no_bit_past_the_rows(data):
    # a mask with a bit past the rows' columns, in the last word or past it, lies in no row;
    # up to 200 rows, so the packed columns cross byte and word boundaries
    width = data.draw(st.integers(0, 130))
    rows = [[bool(r >> j & 1) for j in range(width)]
            for r in data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=200))]
    bit = st.integers(0, width + 140)
    masks = data.draw(st.lists(st.lists(bit, max_size=3).map(lambda bs: sum({1 << b for b in bs})),
                               max_size=4))
    bits = np.array(rows, dtype=bool).reshape(len(rows), width)
    assert count_covered(bits, masks) == rows_containing(rows, masks)


def test_count_covered_of_a_mask_past_the_last_word():
    ones = np.ones((5, 3), dtype=bool)
    for mask in (1 << 10, 1 << 63, 1 << 64, 1 << 70, 0b1 | 1 << 70):
        assert count_covered(ones, [mask]) == 0 == rows_containing(ones.tolist(), [mask])
    assert count_covered(ones, [1 << 70, 0b11]) == 5


_BLOCK_PS = [Fraction(1, 3), 0.3, 0, 1]


def _check_blocks(p, samples: int, seed: int, cases) -> None:
    """One ``CoverageBlocks`` reads every (family, y) of ``cases`` as ``coverage_mc`` does, bit
    for bit, and draws ``bernoulli_rows`` once per compacted width."""
    drawn, real = [], probability.bernoulli_rows

    def counted(stream, rows, width, *rest):
        drawn.append(width)
        return real(stream, rows, width, *rest)

    blocks = CoverageBlocks(p, samples, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(probability, "bernoulli_rows", counted)
        got = [blocks.coverage(family, y) for family, y in cases]
    assert got == [coverage_mc(family, y, p, samples, seed) for family, y in cases]
    widths = {compact(reduce_coverage((m & ~y for m in family.members), family.n, p, p))[1]
              for family, y in cases}
    assert sorted(drawn) == sorted(widths)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_coverage_blocks_is_coverage_mc(data):
    n = data.draw(st.integers(1, 10))
    family = st.lists(st.integers(1, (1 << n) - 1), max_size=5).map(
        lambda ms: SetFamily.from_masks(n, ms))
    cases = data.draw(st.lists(st.tuples(family, st.integers(0, (1 << n) - 1)),
                               min_size=1, max_size=6))
    _check_blocks(data.draw(st.sampled_from(_BLOCK_PS)), data.draw(st.sampled_from([100, 700])),
                  data.draw(st.integers(0, 3)), cases)


@pytest.mark.parametrize("p", _BLOCK_PS)
def test_coverage_blocks_of_the_zero_mask_and_of_no_mask(p):
    # Y = a member clears it to the zero mask; the empty family (and at p = 0 any Y that
    # clears no member) leaves no mask; each is read again from the same blocks
    family = SetFamily.from_masks(6, [0b111, 0b11100, 0b110001])
    empty = SetFamily.from_masks(6, [])
    cases = [(family, 0b111), (family, 0), (empty, 0), (family, 0b1000), (family, 0b111),
             (empty, 0b11), (family, 0)]
    _check_blocks(p, 300, 2, cases)


def test_coverage_blocks_across_two_chunks():
    # two families over 40 columns, at 60,000 samples: the rows of bernoulli_rows come in
    # two chunks, the first of 2^21 // 40 = 52,428 rows (not a whole number of bytes)
    assert probability._CHUNK_SLOTS // 40 < 60_000
    pairs = SetFamily.from_masks(40, [0b11 << i for i in range(39)])
    triples = SetFamily.from_masks(40, [0b111 << i for i in range(0, 38, 2)] + [1 << 39])
    _check_blocks(Fraction(1, 3), 60_000, 5, [(pairs, 0), (triples, 0), (pairs, 0)])


def test_pbiased_distribution_exact_items_sum_to_one():
    # the total mass: the constant 1 accepts every input, the constant 0 none
    dist = PBiasedDistribution(5, Fraction(1, 3))
    assert dist.acceptance(monotone.MonotoneFunction.constant1(5)) == 1
    assert dist.acceptance(monotone.MonotoneFunction.constant0(5)) == 0


def test_mc_event_probability_matches_exact():
    dist = PBiasedDistribution(8, Fraction(1, 2))
    event = lambda m: m.bit_count() >= 4
    exact = brute_probability(event, 8, Fraction(1, 2))
    est = mc_event_probability(event, lambda s: p_subset_draw(8, dist.p, s), 20_000, seed=4)
    assert abs(est.value - float(exact)) <= 3 * est.half_width


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), max_size=5),
            st.lists(st.integers(0, (1 << n) - 1), max_size=5),
        )
    ),
    st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1)]),
)
def test_acceptance_difference_is_the_joint_probability(case, p):
    # for monotone f, g: Pr[f or g] - Pr[g] = Pr[f and not g], since g <= f | g
    n, fm, gm = case
    f = monotone.MonotoneFunction.from_masks(n, fm)
    g = monotone.MonotoneFunction.from_masks(n, gm)
    dist = PBiasedDistribution(n, p)
    want = brute_probability(lambda x: f(x) and not g(x), n, p)
    assert dist.acceptance(f | g) - dist.acceptance(g) == want


@pytest.mark.parametrize("p", [2, -1, Fraction(3, 2), -0.25])
def test_p_outside_unit_interval_refused(p):
    with pytest.raises(ValueError):
        PBiasedDistribution(3, p)
    with pytest.raises(ValueError):
        sample_p_subset(3, p, CounterStream(1))
    with pytest.raises(ValueError):
        cliques.gnp_sample(4, p, CounterStream(1))


def test_pbiased_acceptance_refuses_past_the_work_cap():
    # the path of 41 pairs: too many masks for inclusion-exclusion, width 42 past enumeration
    f = monotone.MonotoneFunction.from_masks(42, (0b11 << i for i in range(41)))
    with pytest.raises(ExactIntractableError):
        PBiasedDistribution(42, Fraction(1, 2)).acceptance(f)


def test_pbiased_acceptance_of_disjoint_pairs_past_both_caps():
    # 21 disjoint pairs: 21 one-mask components, each accepted with probability 1/4
    f = monotone.MonotoneFunction.from_masks(42, (0b11 << (2 * i) for i in range(21)))
    assert PBiasedDistribution(42, Fraction(1, 2)).acceptance(f) == 1 - Fraction(3, 4) ** 21


def test_exact_probability_validates_range():
    with pytest.raises(ValueError):
        ExactProbability(Fraction(3, 2))


def _engine_calls():
    """Each public function taking an engine (or mode), on inputs that need no coverage."""
    one = monotone.MonotoneFunction.constant1(4)  # accepts every candidate
    params = monotone.ClosureParams(eps=0.1, c=1)
    inputs_only = monotone.circuit_from_text("INPUT 1\nOUTPUT 1\n", 4)  # no gate to close
    dist = PBiasedDistribution(4, Fraction(1, 2))
    s = SetFamily.from_masks(4, [0b111, 0b1011])
    hr = harnik_raz.build_hr_family(harnik_raz.HRParams(5, 1, 3))
    return {
        "is_robust_sunflower": lambda e: is_robust_sunflower(fam(4, (1, 2)), 0.5, 0.1, e),
        "is_closed": lambda e: monotone.is_closed(one, params, e),
        "closure": lambda e: monotone.closure(one, params, e),
        "approximate_circuit": lambda e: monotone.approximate_circuit(
            inputs_only, params, dist, dist, e),
        "is_pq_clique_sunflower": lambda e: cliques.is_pq_clique_sunflower(s, 0.5, 1, 0.1, e),
        "verify_positive_acceptance": lambda e: harnik_raz.verify_positive_acceptance(hr, e),
        "verify_negative_rejection": lambda e: harnik_raz.verify_negative_rejection(hr, e),
        "verify_minterm_spread": lambda e: harnik_raz.verify_minterm_spread(hr, 0b1, e),
    }


@pytest.mark.parametrize("name", sorted(_engine_calls()))
def test_unknown_engine_raises(name):
    call = _engine_calls()[name]
    call("exact")
    for engine in ("exakt", "MC", ""):
        with pytest.raises(ValueError, match="unknown engine"):
            call(engine)
