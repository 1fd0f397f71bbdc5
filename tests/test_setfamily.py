from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sunflower_circuits import setfamily
from sunflower_circuits.errors import EmptyFamilyError, TooLargeError
from sunflower_circuits.setfamily import (
    SetFamily,
    antichain_minimize,
    SpreadReport,
    check_spread,
    core,
    elements_of,
    family_from_text,
    family_to_text,
    is_uniform,
    link,
    mask_of,
)

from oracles import brute_spread, brute_spread_witness, minimal_masks


def fam(n, *sets):
    return SetFamily.from_sets(n, sets)


class TestCore:
    def test_pairwise_intersection(self):
        assert core(fam(4, (1, 2), (1, 3))) == mask_of([1], 4)

    def test_disjoint_sets(self):
        assert core(fam(4, (1,), (2,))) == 0

    def test_singleton_family(self):
        assert core(fam(4, (1, 2, 3))) == mask_of([1, 2, 3], 4)

    def test_empty_family_raises(self):
        with pytest.raises(EmptyFamilyError):
            core(SetFamily.from_masks(4, []))


class TestLink:
    def test_definition_unfolding(self):
        got = link(fam(4, (1, 2), (1, 3), (2, 3)), mask_of([1], 4))
        assert got.members == (mask_of([2], 4), mask_of([3], 4))

    def test_no_superset_of_t(self):
        assert len(link(fam(4, (1, 2)), mask_of([3], 4))) == 0

    def test_empty_t_is_identity(self):
        f = fam(4, (1, 2), (1, 3))
        assert link(f, 0) == f

    def test_link_of_core_has_empty_core(self):
        f = fam(6, (1, 2, 3), (1, 2, 4), (1, 5))
        linked = link(f, core(f))
        assert core(linked) == 0

    def test_link_size_equality_iff_t_in_core(self):
        f = fam(6, (1, 2, 3), (1, 2, 4), (1, 2, 5))
        assert len(link(f, mask_of([1, 2], 6))) == len(f)
        assert len(link(f, mask_of([3], 6))) < len(f)


class TestUniform:
    def test_uniform(self):
        assert is_uniform(fam(4, (1, 2), (3, 4)), 2)

    def test_not_uniform(self):
        assert not is_uniform(fam(4, (1,), (2, 3)), 2)

    def test_empty_family_vacuous(self):
        assert is_uniform(SetFamily.from_masks(4, []), 5)


class TestSpread:
    def test_star_violates(self):
        rep = check_spread(fam(5, (1, 2), (1, 3), (1, 4)), 2)
        assert not rep.is_spread
        assert rep.witness == mask_of([1], 5)
        assert rep.link_size == 3

    def test_disjoint_singletons_spread(self):
        assert check_spread(fam(5, (1,), (2,), (3,), (4,)), 2).is_spread

    def test_two_disjoint_pairs_r1(self):
        assert check_spread(fam(5, (1, 2), (3, 4)), 1).is_spread

    def test_r1_always_spread_on_random_families(self):
        # with r=1 the bound is |F| itself, unbeatable by distinct sets
        import random

        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 8)
            masks = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 10))}
            assert check_spread(SetFamily.from_masks(n, masks), 1).is_spread

    def test_matches_brute_force(self):
        import random

        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 7)
            masks = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 8))}
            f = SetFamily.from_masks(n, masks)
            for r in (Fraction(3, 2), 2, 3):
                assert check_spread(f, r).is_spread == brute_spread(f.members, r, n)

    def test_empty_family_raises(self):
        with pytest.raises(EmptyFamilyError):
            check_spread(SetFamily.from_masks(3, []), 2)

    def test_count_equal_to_an_integer_bound_does_not_violate(self):
        # |F| = 4 at r = 2: elements 1 and 4 lie in 4/2 members, each pair in 4/4
        f = fam(6, (1, 2), (1, 3), (4, 5), (4, 6))
        assert check_spread(f, 2) == SpreadReport(True, None, 0)
        assert brute_spread(f.members, 2, 6)
        r = 2 + Fraction(1, 10**12 + 39)  # a hair above the bound: 2 r > 4
        assert check_spread(f, r) == SpreadReport(False, mask_of([1], 6), 2)
        assert not brute_spread(f.members, r, 6)

    def test_over_submask_cap_refused(self, monkeypatch):
        monkeypatch.setattr(setfamily, "SUBMASK_CAP", 8)
        assert check_spread(fam(5, (1, 2, 3)), 1).is_spread  # 2^3 submasks, at the cap
        with pytest.raises(TooLargeError, match="12 submasks exceed the cap 8"):
            check_spread(fam(5, (1, 2, 3), (4, 5)), 2)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 7),
    st.sets(st.integers(1, 127), min_size=1, max_size=12),
    st.integers(0, 3),
    st.integers(0, 2**62),
    st.sampled_from([1, 3, 10**9 + 7, 2**61 - 1]),
)
def test_spread_matches_brute_force_at_large_denominators(n, masks, whole, num, den):
    # r in (0, 4) with denominators up to 2^61 (integer r makes |F| / r^k often
    # an exact integer); the witness is the least violating T (size, then
    # mask) and its count
    f = SetFamily.from_masks(n, {m & ((1 << n) - 1) or 1 for m in masks})
    r = whole + Fraction(num % den, den) or Fraction(1, den)
    rep = check_spread(f, r)
    want = brute_spread_witness(f.members, r, n)
    assert rep.is_spread == brute_spread(f.members, r, n) == (want is None)
    assert (rep.witness, rep.link_size) == (want or (None, 0))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.sets(st.integers(0, 255), max_size=10))
def test_canonicalize_idempotent(n, masks):
    masks = {m & ((1 << n) - 1) for m in masks}
    f = SetFamily.from_masks(n, masks)
    assert SetFamily.from_masks(n, f.members) == f
    assert len(f) == len(set(masks))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.sets(st.integers(0, 255), min_size=1, max_size=8), st.integers(0, 255))
def test_link_never_grows(n, masks, t):
    full = (1 << n) - 1
    f = SetFamily.from_masks(n, (m & full for m in masks))
    assert len(link(f, t & full)) <= len(f)


class TestSerialization:
    def test_round_trip(self):
        f = fam(6, (1, 2), (3,), ())
        assert family_from_text(family_to_text(f)) == f

    def test_header(self):
        assert family_to_text(fam(3, (1,))).startswith("n=3\n")

    def test_canonical_output_order(self):
        f = SetFamily.from_sets(4, [(3, 4), (1,), (1, 2)])
        assert family_to_text(f) == "n=4\n1\n1,2\n3,4\n"

    def test_bad_header(self):
        with pytest.raises(ValueError):
            family_from_text("3\n1,2\n")


def test_ground_set_bounds():
    with pytest.raises(ValueError):
        SetFamily.from_masks(0, ())
    with pytest.raises(ValueError):
        SetFamily.from_masks(5000, ())
    assert SetFamily.from_masks(64, [(1 << 64) - 1]).n == 64


def test_elements_round_trip():
    m = mask_of([2, 5, 7], 8)
    assert elements_of(m) == (2, 5, 7)


@st.composite
def mask_lists(draw):
    """Masks of mixed sizes on up to 70 points, with repeats and often the empty mask:
    sparse masks make many kept masks of one size, so both antichain tests are reached."""
    n = draw(st.sampled_from([1, 3, 6, 10, 16, 70]))
    sparse = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 4))
    mask = st.one_of(sparse.map(lambda s: sum(1 << i for i in s)), st.integers(0, (1 << n) - 1))
    pool = draw(st.lists(mask, min_size=5, max_size=80))
    repeats = draw(st.lists(st.sampled_from(pool), max_size=40))
    return pool + repeats + [0] if draw(st.integers(0, 9)) == 0 else pool + repeats


class TestAntichainMinimize:
    @settings(max_examples=300, deadline=None)
    @given(mask_lists())
    def test_matches_the_definition(self, masks):
        assert antichain_minimize(masks) == minimal_masks(masks)
        assert antichain_minimize(iter(masks)) == minimal_masks(masks)

    def test_subset_lookup_and_kept_scan_agree(self):
        # eight kept singletons outnumber the 1-subsets of a 2- or 3-set, so those are
        # looked up; the one kept 2-set is fewer than a 3-set's 2-subsets, so it is tested
        singles = [1 << i for i in range(8)]
        masks = singles + [0b11 << 8, 0b111 << 8, 0b1101 << 8, 1 << 12 | 1]
        assert antichain_minimize(masks) == tuple(singles) + (0b11 << 8, 0b1101 << 8)
        assert antichain_minimize(masks) == minimal_masks(masks)

    def test_empty_mask_absorbs_everything(self):
        assert antichain_minimize([0b101, 0, 0b11, 0, 0b1]) == (0,)
        assert antichain_minimize([]) == ()
