"""The shared coverage core: set and clique families through one reduction,
one inclusion-exclusion, one block sampler and one threshold rule."""

import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sunflower_circuits import probability
from sunflower_circuits.cliques import (
    clique_edges,
    is_pq_clique_sunflower,
    pq_coverage_exact,
    pq_coverage_mc,
    verify_no_kclique_bound,
)
from sunflower_circuits.errors import ExactIntractableError
from sunflower_circuits.probability import (
    Estimate,
    ExactProbability,
    above_threshold,
    coverage_exact,
    coverage_mc,
    is_robust_sunflower,
    union_probability,
)
from sunflower_circuits.rng import CounterStream
from sunflower_circuits.setfamily import SetFamily, mask_of

from oracles import (
    brute_coverage,
    brute_pq_hit,
    component_coverage,
    conditioned_pq_coverage,
    covered_weight_counts,
    pq_hit_inclusion_exclusion,
    pq_reduced,
    pq_sample_hits,
    set_sample_hits,
)


def all_pairs(n):
    return SetFamily.from_masks(n, [(1 << i) | (1 << j) for i, j in combinations(range(n), 2)])


class TestConditioningBranch:
    @pytest.mark.parametrize("p,q", [(Fraction(1, 2), Fraction(1, 3)),
                                     (Fraction(1, 5), Fraction(3, 4)),
                                     (Fraction(2, 3), 1)])
    def test_all_21_pairs_of_7_match_closed_form(self, p, q):
        # 21 reduced members exceed the inclusion-exclusion limit of 20
        got = pq_coverage_exact(all_pairs(7), 0, p, q).value
        p, q = Fraction(p), Fraction(q)
        want = sum(
            math.comb(7, k) * q**k * (1 - q) ** (7 - k) * (1 - (1 - p) ** math.comb(k, 2))
            for k in range(8)
        )
        assert got == want

    def test_small_cap_also_conditions(self, monkeypatch):
        # the limit is min(work cap, 20): 7 members condition at cap 6; they are one
        # component (the 6-cycle and one chord share vertices), its envelope 6 vertices
        s = SetFamily.from_sets(6, [(i, i % 6 + 1) for i in range(1, 7)] + [(1, 4)])
        p, q = Fraction(1, 3), Fraction(1, 2)
        edges = [clique_edges(a) for a in s.members]
        want = pq_hit_inclusion_exclusion(list(s.members), edges, p, q)
        monkeypatch.setattr(probability, "DEFAULT_WORK_CAP_BITS", 6)
        assert pq_coverage_exact(s, 0, p, q).value == want
        monkeypatch.setattr(probability, "DEFAULT_WORK_CAP_BITS", 5)
        with pytest.raises(ExactIntractableError):
            pq_coverage_exact(s, 0, p, q)


class TestBlockSamplerMatchesPerSampleLoops:
    @pytest.mark.parametrize("n,q", [(8, Fraction(1, 2)), (12, Fraction(2, 3)), (8, 1)])
    @pytest.mark.parametrize("seed", [0, 7, 31])
    def test_same_pq_estimate(self, n, q, seed):
        rng = random.Random(n * 100 + seed)
        masks = {sum(1 << v for v in rng.sample(range(n), rng.randint(2, 4))) for _ in range(5)}
        s = SetFamily.from_masks(n, masks)
        b = s.members[0] & s.members[1]
        p = Fraction(1, 2)
        est = pq_coverage_mc(s, b, p, q, 300, seed=seed)
        hits = pq_sample_hits(list(s.members), b, p, q, n, 300, CounterStream(seed, stream=0))
        want = Estimate.from_hits(hits, 300, seed)
        if b in s.members:  # a member inside the core covers every row: the estimate is exact
            want = replace(want, half_width=0.0)
        assert est == want

    @pytest.mark.parametrize("n,size", [(12, 3), (150, 2)])  # about 10 and 100 columns
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_set_estimate(self, n, size, seed):
        rng = random.Random(n + seed)
        masks = {sum(1 << e for e in rng.sample(range(n), size)) for _ in range(n // 2)}
        masks |= {m | 1 << rng.randrange(n) for m in list(masks)[:3]}  # supersets to reduce away
        f = SetFamily.from_masks(n, masks)
        y = 1 << rng.randrange(n)
        est = coverage_mc(f, y, Fraction(1, 3), 300, seed=seed)
        hits = set_sample_hits(f.members, y, Fraction(1, 3), 300, CounterStream(seed, stream=0))
        assert est == Estimate.from_hits(hits, 300, seed)

    @pytest.mark.parametrize("width", [63, 64, 65, 128, 129])
    def test_same_estimate_at_word_boundaries(self, width):
        # disjoint pairs (and a singleton when width is odd) span exactly ``width`` columns
        masks = [0b11 << (2 * i) for i in range(width // 2)] + [1 << (width - 1)] * (width % 2)
        f = SetFamily.from_masks(width, masks)
        est = coverage_mc(f, 0, Fraction(1, 8), 300, seed=5)
        hits = set_sample_hits(f.members, 0, Fraction(1, 8), 300, CounterStream(5, stream=0))
        assert est == Estimate.from_hits(hits, 300, 5)


class TestValidationAndCaps:
    @pytest.mark.parametrize("p", [2, -0.5, Fraction(3, 2)])
    def test_bias_outside_unit_interval_raises(self, p):
        f = SetFamily.from_masks(6, [0b11, 0b1100])
        s = SetFamily.from_masks(4, [0b111])
        with pytest.raises(ValueError):
            coverage_mc(f, 0, p, 100)
        with pytest.raises(ValueError):
            coverage_mc(SetFamily.from_masks(6, []), 0, p, 100)
        with pytest.raises(ValueError):
            pq_coverage_mc(s, 0, p, 1, 100)
        with pytest.raises(ValueError):
            pq_coverage_mc(s, 0, Fraction(1, 2), p, 100)
        with pytest.raises(ValueError):
            pq_coverage_exact(s, 0, Fraction(1, 2), p)
        with pytest.raises(ValueError):
            verify_no_kclique_bound(6, 3, p, 100)

    def test_pq_samples_minimum(self):
        with pytest.raises(ValueError):
            pq_coverage_mc(SetFamily.from_masks(4, [0b111]), 0, 0.5, 0.5, 99)

    def test_ie_limit_follows_work_cap(self, monkeypatch):
        rng = random.Random(3)
        masks = set()
        while len(masks) < 20:
            masks.add(sum(1 << e for e in rng.sample(range(24), 3)))
        f = SetFamily.from_masks(24, masks)
        monkeypatch.setattr(probability, "DEFAULT_WORK_CAP_BITS", 4)
        with pytest.raises(ExactIntractableError):
            coverage_exact(f, 0, Fraction(1, 2))

    def test_refusal_names_the_strategy_nearer_its_cap(self):
        # 22 members over 33 points: inclusion-exclusion is 2 past its 20, enumeration 9 past 24
        rng = random.Random(3)
        masks = set()
        while len(masks) < 22:
            masks.add(sum(1 << e for e in rng.sample(range(40), 3)))
        with pytest.raises(ExactIntractableError) as refusal:
            coverage_exact(SetFamily.from_masks(40, masks), 0, Fraction(1, 2))
        assert str(refusal.value) == (
            "exact coverage needs ~2^22 inclusion-exclusion terms, cap is 2^20")

    def test_refusal_names_enumeration_and_conditioning(self):
        # all 325 pairs of 26 points: enumeration is 2 past its 24, inclusion-exclusion 305
        pairs = SetFamily.from_sets(26, combinations(range(1, 27), 2))
        with pytest.raises(ExactIntractableError, match=r"^exact coverage needs ~2\^26 "
                           r"enumerated rows, cap is 2\^24$"):
            coverage_exact(pairs, 0, Fraction(1, 2))
        # the q-biased path of 24 pairs: past inclusion-exclusion, 25 vertices to condition on
        with pytest.raises(ExactIntractableError, match=r"^exact coverage needs ~2\^25 "
                           r"conditioning outcomes, cap is 2\^20$"):
            probability.exact_coverage([0b11 << i for i in range(24)], 0, Fraction(1, 2),
                                       Fraction(1, 2))

    def test_singleton_components_answer_past_both_caps(self):
        # 25 q-biased singletons are 25 one-mask components: no strategy runs
        got = probability.exact_coverage([1 << i for i in range(25)], 0, Fraction(1, 2),
                                         Fraction(1, 3))
        assert got == 1 - Fraction(2, 3) ** 25

    def test_refusal_names_the_first_component_past_both_caps(self):
        # component order is the order of the reduced masks' first members: the plain path
        # of 25 pairs (2^26 rows) comes before the plain path of 30 pairs (2^31 rows)
        first = [0b11 << i for i in range(25)]
        second = [0b11 << (40 + i) for i in range(30)]
        for masks in (first + second, second + first):
            with pytest.raises(ExactIntractableError, match=r"~2\^26 enumerated rows"):
                probability.exact_coverage(masks, 80, Fraction(1, 2), Fraction(1, 2))

    @settings(max_examples=60, deadline=None)
    @given(
        split=st.integers(32, 60),
        size=st.integers(3, 5),
        count=st.integers(21, 40),
        q_parts=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_refusal_names_a_cost_past_its_cap(self, split, size, count, q_parts, seed):
        # more than 20 distinct masks of one size (an antichain) over more than 24 points are
        # past both plain strategies; with one q-biased bit each, past the conditioning.  Each
        # mask shares a point with the one before, so the masks are one component
        rng = random.Random(seed)
        masks, last = set(), rng.randrange(split)
        while len(masks) < count:
            points = [last] + rng.sample([e for e in range(split) if e != last], size - 1)
            mask = sum(1 << e for e in points)
            if mask not in masks:
                last = rng.choice(points)
                masks.add(mask)
        if q_parts:
            masks = {m | 1 << (split + i) for i, m in enumerate(sorted(masks))}
        union = 0
        for m in masks:
            union |= m
        assume(q_parts or union.bit_count() > probability.DEFAULT_WORK_CAP_BITS)
        with pytest.raises(ExactIntractableError) as refusal:
            probability.exact_coverage(masks, split, Fraction(1, 2), Fraction(1, 3))
        assert refusal.value.cost_bits > refusal.value.cap_bits

    def test_default_cap_keeps_inclusion_exclusion_at_20(self):
        # 20 disjoint pairs: width 40 is past enumeration, 20 members still fit
        f = SetFamily.from_masks(40, [0b11 << (2 * i) for i in range(20)])
        want = 1 - (1 - Fraction(1, 4)) ** 20
        assert coverage_exact(f, 0, Fraction(1, 2)).value == want


class TestUnionProbability:
    def test_q_part_is_separately_biased(self):
        # masks {e0, v0} and {e1}: Pr = pq + p - p^2 q
        split = 2
        masks = [0b1 | 0b1 << split, 0b10]
        p, q = Fraction(1, 3), Fraction(3, 5)
        assert union_probability(masks, split, p, q) == p * q + p - p * p * q


class TestThresholdRule:
    def test_exact_is_strict_and_rational(self):
        assert above_threshold(ExactProbability(Fraction(9, 10)), Fraction(1, 10)) is False
        assert above_threshold(ExactProbability(Fraction(91, 100)), Fraction(1, 10)) is True

    def test_estimate_within_one_half_width_is_indeterminate(self):
        est = Estimate(0.9, 0.01, 0.99, 1000, 0)
        assert above_threshold(est, 0.105) is None
        assert above_threshold(est, 0.2) is True
        assert above_threshold(est, 0.05) is False

    def test_estimate_touching_the_threshold_is_indeterminate(self):
        # dyadic values, so v - h and v + h equal t = 1 - eps exactly
        est = Estimate(0.75, 0.125, 0.99, 1000, 0)
        assert above_threshold(est, 0.375) is None  # v - h = t
        assert above_threshold(est, Fraction(1, 8)) is None  # v + h = t
        assert above_threshold(est, 0.376) is True
        assert above_threshold(est, 0.124) is False

    def test_clique_check_records_vertex_core(self):
        s = SetFamily.from_sets(5, [(1, 2, 3), (1, 4, 5)])
        chk = is_pq_clique_sunflower(s, Fraction(1, 2), 1, Fraction(1, 2))
        assert chk.kernel == mask_of([1], 5)
        assert chk.engine == "exact" and chk.threshold == 0.5
        assert chk.decision is (chk.probability.value > Fraction(1, 2))


def _families(max_n):
    """(n, masks, y): arbitrary masks and Y, or a random share of all k-subsets and Y = 0.

    The second kind often keeps more members after reduction than it has
    elements, which sends ``coverage_exact`` down the enumeration path.
    """
    def share_of_k_subsets(n, k):
        subsets = [sum(1 << e for e in c) for c in combinations(range(n), k)]
        keep = st.lists(st.booleans(), min_size=len(subsets), max_size=len(subsets))
        return keep.map(lambda flags: [m for m, f in zip(subsets, flags) if f] or subsets[:1])

    def for_n(n):
        arbitrary = st.tuples(
            st.just(n),
            st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=14),
            st.integers(0, (1 << n) - 1),
        )
        shares = st.tuples(
            st.just(n), st.integers(2, 3).flatmap(lambda k: share_of_k_subsets(n, k)), st.just(0)
        )
        return st.one_of(arbitrary, shares)

    return st.integers(3, max_n).flatmap(for_n)


@settings(max_examples=80, deadline=None)
@given(_families(7), st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(4, 5)]))
def test_coverage_exact_matches_brute_force(data, p):
    # few members take inclusion-exclusion, more members than elements enumerate
    n, masks, y = data
    f = SetFamily.from_masks(n, masks)
    assert coverage_exact(f, y, p).value == brute_coverage(f.members, y, p, n)


@settings(max_examples=60, deadline=None)
@given(_families(5), st.sampled_from([(Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 4), 1)]))
def test_pq_coverage_exact_matches_oracle(data, pq):
    n, masks, _ = data
    masks = sorted(set(masks))[:8]
    p, q = pq
    s = SetFamily.from_masks(n, masks)
    edges = [clique_edges(a) for a in masks]
    assert pq_coverage_exact(s, 0, p, q).value == pq_hit_inclusion_exclusion(masks, edges, p, q)


def _value_or_refusal(compute):
    try:
        return compute()
    except ExactIntractableError:
        return None


def _conditioning_families():
    """(n, singletons, members, B): one or two singletons, and pairs and triples elsewhere.

    A singleton member covers every outcome of U that holds its vertex, so
    the outcomes without it keep only the other members: few enough, for a
    cap a little below the reduced family's size, that some values survive.
    """
    def for_n(n):
        rest = [sum(1 << v for v in c) for k in (2, 3) for c in combinations(range(2, n), k)]
        return st.tuples(
            st.just(n),
            st.sets(st.sampled_from([0b1, 0b10]), min_size=1),
            st.sets(st.sampled_from(rest), min_size=3, max_size=16),
            st.sampled_from([0, 1 << (n - 1)]),
        )

    return st.integers(5, 7).flatmap(for_n)


@settings(max_examples=100, deadline=None)
@given(
    _conditioning_families(),
    st.sampled_from([(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), 1),
                     (Fraction(3, 4), Fraction(2, 3)), (Fraction(1, 2), 1)]),
    st.integers(1, 3),
)
def test_pq_conditioning_matches_oracle_loop(data, pq, slack):
    # a cap ``slack`` below the reduced family's size sends its larger components past
    # inclusion-exclusion into the conditioning; some outcomes, or an envelope, then
    # refuse.  At q = 1 the vertex bits are certain and the oracle is the plain edge
    # coverage of {K_A} over K_B
    n, singles, rest, b = data
    s = SetFamily.from_masks(n, singles | rest)
    p, q = pq
    cap = max(1, len(pq_reduced(s.members, b)) - slack)

    def edge_coverage(edges, b_edges):
        return coverage_exact(SetFamily.from_masks(n * (n - 1) // 2, edges), b_edges, p).value

    with patch.object(probability, "DEFAULT_WORK_CAP_BITS", cap):
        got = _value_or_refusal(lambda: pq_coverage_exact(s, b, p, q).value)
        if q == 1:
            want = _value_or_refusal(lambda: edge_coverage(
                [clique_edges(a) for a in s.members], clique_edges(b)))
        else:
            want = _value_or_refusal(lambda: conditioned_pq_coverage(
                s.members, b, p, q, probability.ie_limit(), edge_coverage))
    assert got == want


@st.composite
def _q_one_cases(draw):
    """(n, members, B, cap): up to 12 vertex sets of 1-4 vertices, B the core of
    some members or 0, and a work cap at most 4 below the member count, so
    that the vertex envelope often exceeds it and some families refuse."""
    n = draw(st.integers(2, 12))
    member = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(4, n)).map(
        lambda vs: sum(1 << v for v in vs))
    members = draw(st.lists(member, min_size=1, max_size=12, unique=True))
    b = draw(st.sampled_from([0, members[0], members[0] & members[-1]]))
    return n, members, b, max(2, len(members) - draw(st.integers(0, 4)))


@settings(max_examples=150, deadline=None)
@given(_q_one_cases(), st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1)]))
def test_pq_coverage_at_q_one_is_the_edge_coverage(case, p):
    # value and refusal alike: the certain vertex bits drop out before any strategy runs
    n, members, b, cap = case
    s = SetFamily.from_masks(n, members)
    edges = SetFamily.from_masks(n * (n - 1) // 2, [clique_edges(a) for a in s.members])
    with patch.object(probability, "DEFAULT_WORK_CAP_BITS", cap):
        got = _value_or_refusal(lambda: pq_coverage_exact(s, b, p, 1).value)
        want = _value_or_refusal(lambda: coverage_exact(edges, clique_edges(b), p).value)
    assert got == want


@st.composite
def _masks_of_width(draw):
    """(width, masks): widths shorter than a word, up to 8 words, up to the
    16 low bits the counts take as columns, and past them; masks anywhere
    in [0, 2^width), possibly none."""
    width = draw(st.one_of(st.integers(0, 2), st.integers(3, 6), st.integers(7, 16),
                           st.integers(17, 18)))
    return width, draw(st.lists(st.integers(0, (1 << width) - 1), max_size=8))


@settings(max_examples=120, deadline=None)
@given(_masks_of_width())
def test_up_closure_and_weight_counts_match_the_mask_loop(data):
    width, masks = data
    table = probability.up_closure(masks, width)
    rows = np.arange(1 << width)
    covered = np.zeros(1 << width, dtype=bool)
    for m in masks:
        covered |= (rows & m) == m
    assert table.dtype == np.uint8 and np.array_equal(table, covered)
    assert probability._weight_counts(table, width) == covered_weight_counts(masks, width)


@pytest.mark.parametrize("cost,unused", [((0, 1, 1), "up_closure"),
                                         ((1, 0, 0), "union_probability")])
@settings(max_examples=60, deadline=None)
@given(data=_families(7), p=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(4, 5)]))
def test_either_plain_strategy_matches_brute_force(cost, unused, data, p):
    # free inclusion-exclusion steps send every call of at most 20 reduced
    # masks there, a free enumeration every call to the table; the other
    # strategy must not run
    n, masks, y = data
    f = SetFamily.from_masks(n, sorted(set(masks))[:20])

    def refuse(*args):
        raise AssertionError(f"{unused} ran")

    with patch.object(probability, "EXACT_COST_NS", cost), \
            patch.object(probability, unused, refuse):
        assert coverage_exact(f, y, p).value == brute_coverage(f.members, y, p, n)


def test_enumeration_at_the_work_cap_stays_small():
    # 60 random 3-sets spanning 24 elements: the uint8 table is 16 MiB, and an
    # int64 (or uint32 index) array over 2^24 rows would add 128 (or 64) MiB
    rng = random.Random(0)
    masks = set()
    while len(masks) < 60:
        masks.add(sum(1 << e for e in rng.sample(range(24), 3)))
    f = SetFamily.from_masks(24, masks)
    reduced, width = probability.compact(f.members)
    assert len(reduced) == 60 and width == probability.DEFAULT_WORK_CAP_BITS == 24
    tracemalloc.start()
    try:
        coverage_exact(f, 0, Fraction(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


def _disjoint_pairs():
    """The CLI's ``disjoint:25:2`` on n = 50: 25 one-mask components."""
    return SetFamily.from_masks(50, [0b11 << (2 * i) for i in range(25)])


def _path():
    """The path {i, i+1}, i < 25, on 26 points: one component past both exact caps inside (0, 1)."""
    return SetFamily.from_masks(26, [0b11 << i for i in range(25)])


class TestCertainAndImpossibleBits:
    """Both engines clear the bias-1 bits and drop the masks with a bias-0 bit first."""

    def test_pq_monte_carlo_decides_as_exact_at_q_one(self):
        s = SetFamily.from_sets(3, [(1,), (2, 3)])
        mc = is_pq_clique_sunflower(s, Fraction(1, 2), 1, Fraction(1, 1000), "mc", 1000, 1)
        assert mc.decision is True and mc.probability.half_width == 0.0
        assert is_pq_clique_sunflower(s, Fraction(1, 2), 1, Fraction(1, 1000)).decision is True

    @pytest.mark.parametrize("p,value", [(1, 1.0), (0, 0.0)])
    def test_coverage_mc_is_exact_at_bias_one_and_zero(self, p, value):
        est = coverage_mc(_disjoint_pairs(), 0, p, 1000, seed=1)
        assert (est.value, est.half_width) == (value, 0.0)

    def test_robust_sunflower_mc_decides_at_bias_one(self):
        chk = is_robust_sunflower(_disjoint_pairs(), 1, Fraction(1, 1000), "mc", 1000, 1)
        assert chk.decision is True

    @pytest.mark.parametrize("p,value", [(1, 1), (0, 0)])
    def test_coverage_exact_answers_where_the_bias_collapses_the_family(self, p, value):
        assert coverage_exact(_path(), 0, p).value == value
        with pytest.raises(ExactIntractableError, match=r"~2\^26 enumerated rows"):
            coverage_exact(_path(), 0, Fraction(1, 2))

    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 2)])
    def test_disjoint_pairs_are_a_closed_form_inside_the_unit_interval(self, p):
        assert coverage_exact(_disjoint_pairs(), 0, p).value == 1 - (1 - p * p) ** 25


@st.composite
def _biased_cases(draw):
    """(n, members, B, p, q): up to 6 vertex sets on 2-4 vertices, B the core of
    some members or 0, and p, q each 0, 1/3, 1/2 or 1."""
    n = draw(st.integers(2, 4))
    members = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6, unique=True))
    b = draw(st.sampled_from([0, members[0], members[0] & members[-1]]))
    biases = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
    return n, members, b, draw(biases), draw(biases)


@settings(max_examples=80, deadline=None)
@given(_biased_cases(), st.integers(0, 3))
def test_both_engines_match_the_oracles_at_any_bias(case, seed):
    # the members read as a clique family over the vertex core B, and as a
    # set family over Y = B; an estimate is exact (half-width 0) exactly
    # when its event is certain or impossible
    n, members, b, p, q = case
    s = SetFamily.from_masks(n, members)
    pq_exact, plain_exact = pq_coverage_exact(s, b, p, q).value, coverage_exact(s, b, p).value
    assert pq_exact == brute_pq_hit(members, b, p, q, n)
    assert plain_exact == brute_coverage(members, b, p, n)
    for exact, est, hits in [
        (pq_exact, pq_coverage_mc(s, b, p, q, 100, seed),
         pq_sample_hits(members, b, p, q, n, 100, CounterStream(seed))),
        (plain_exact, coverage_mc(s, b, p, 100, seed),
         set_sample_hits(members, b, p, 100, CounterStream(seed))),
    ]:
        assert est.value == hits / 100
        assert (est.half_width == 0) == (exact in (0, 1))


_BIASES = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])


@st.composite
def _disjoint_unions(draw):
    """(masks, split): 1-4 small random families of up to 5 masks, each on its own 4
    p-biased bits (and, with q-parts, its own 2 q-biased bits), relabelled by a random
    permutation of the p-bits and one of the q-bits, the masks shuffled."""
    q_width = draw(st.sampled_from([0, 2]))
    k = draw(st.integers(1, 4))
    split = 4 * k
    p_bits = draw(st.permutations(range(split)))
    q_bits = draw(st.permutations(range(split, split + q_width * k)))
    masks = []
    for i in range(k):
        for m in draw(st.lists(st.integers(1, (1 << (4 + q_width)) - 1), min_size=1, max_size=5)):
            bits = [p_bits[4 * i + j] for j in range(4) if m >> j & 1]
            bits += [q_bits[q_width * i + j] for j in range(q_width) if m >> (4 + j) & 1]
            masks.append(sum(1 << b for b in bits))
    return draw(st.permutations(masks)), split


@settings(max_examples=150, deadline=None)
@given(_disjoint_unions(), _BIASES, _BIASES, st.sampled_from([None, (1, 0, 0)]))
def test_components_match_the_per_part_reference(case, p, q, cost):
    # each family may split further; free enumeration sends every plain component of
    # more than one mask through the table instead of inclusion-exclusion
    masks, split = case
    with patch.object(probability, "EXACT_COST_NS", cost or probability.EXACT_COST_NS):
        got = probability.exact_coverage(masks, split, p, q)
    assert got == component_coverage(masks, split, p, q)
