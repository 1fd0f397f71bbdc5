import math
import random
from fractions import Fraction

import pytest

from sunflower_circuits.errors import BaseCaseFailedError, ThresholdNotMetError
from sunflower_circuits.probability import coverage_exact
from sunflower_circuits.setfamily import SetFamily, core, link, mask_of
from sunflower_circuits.sunflowers import (
    Sunflower,
    ThresholdParams,
    erdos_rado_threshold,
    extract_robust_sunflower,
    find_sunflower,
    spread_radius,
)


def fam(n, *sets):
    return SetFamily.from_sets(n, sets)


class TestThresholds:
    def test_erdos_rado_values(self):
        assert erdos_rado_threshold(2, 3) == 8
        assert erdos_rado_threshold(1, 2) == 1
        assert erdos_rado_threshold(3, 2) == 6

    def test_erdos_rado_big_integers(self):
        # Python ints are unbounded; 2^63 is not a cliff
        assert erdos_rado_threshold(25, 10) == math.factorial(25) * 9**25

    def test_improved_threshold_values(self):
        # the improved threshold (B ln(l/eps)/p)^l is the spread radius to the power l
        one = spread_radius(1, 0.5, 0.5, ThresholdParams(B=1))
        assert one == pytest.approx(2 * math.log(2))
        two = spread_radius(2, 0.5, 0.5, ThresholdParams(B=1)) ** 2
        assert two == pytest.approx((2 * math.log(4)) ** 2)

    def test_improved_threshold_monotone_in_B(self):
        lo = spread_radius(3, 0.25, 0.1, ThresholdParams(B=1))
        hi = spread_radius(3, 0.25, 0.1, ThresholdParams(B=2))
        assert lo < hi

    def test_improved_beats_factorial_bound_when_B_small(self):
        # at eps = n^{-2c} scales, any B below 2 l!^{1/l} ln(1/eps)/ln(l/eps) puts
        # r^l under the robust-sunflower bound l!(2 ln(1/eps)/p)^l
        for n, c in ((11, 2), (13, 2)):
            eps = float(n) ** (-2 * c)
            for size in (2, 3):
                cap = (
                    2.0
                    * math.factorial(size) ** (1.0 / size)
                    * math.log(1 / eps)
                    / math.log(size / eps)
                )
                factorial_bound = math.factorial(size) * (2.0 * math.log(1 / eps) / 0.5) ** size
                for B in (1.0, 2.0):
                    if B <= cap:
                        r = spread_radius(size, 0.5, eps, ThresholdParams(B=B))
                        assert r**size < factorial_bound

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            erdos_rado_threshold(0, 3)
        with pytest.raises(ValueError):
            ThresholdParams(B=0)


class TestFindSunflower:
    def test_star(self):
        sf = find_sunflower(fam(5, (1, 2), (1, 3), (1, 4)), 3)
        assert sf.kernel == mask_of([1], 5)
        assert len(sf.petals) == 3
        assert sf.is_valid()

    def test_disjoint_singletons(self):
        sf = find_sunflower(fam(4, (1,), (2,), (3,)), 3)
        assert sf.kernel == 0
        assert sf.is_valid()

    def test_above_threshold_2uniform(self):
        # any 9 two-element sets beat 2!(3-1)^2 = 8
        rng = random.Random(0)
        for _ in range(20):
            masks = set()
            while len(masks) < 9:
                a, b = rng.sample(range(10), 2)
                masks.add(1 << a | 1 << b)
            sf = find_sunflower(SetFamily.from_masks(10, masks), 3)
            assert len(sf.petals) >= 3
            assert sf.is_valid()
            assert all(m in set(masks) for m in sf.petals.members)

    def test_below_threshold_may_fail(self):
        with pytest.raises(ThresholdNotMetError):
            find_sunflower(fam(4, (1, 2), (1, 3), (2, 3)), 3)

    def test_validator_catches_bad_sunflower(self):
        bad = Sunflower(fam(4, (1, 2), (2, 3)), 0)
        assert not bad.is_valid()


def sunflower_bounds(sf, p):
    """Coverage of r petals of size l over the kernel, the closed form
    1-(1-p^(l-|kernel|))^r of disjoint petal remainders, and the weaker
    1-(1-p^l)^r and 1-exp(-r p^l)."""
    r, size = len(sf.petals), sf.petals.members[0].bit_count()
    cover = coverage_exact(sf.petals, sf.kernel, p).value
    closed_form = 1 - (1 - p ** (size - sf.kernel.bit_count())) ** r
    return cover, closed_form, 1 - (1 - p**size) ** r, 1 - math.exp(-r * p**size)


class TestUniformRobustness:
    def test_two_disjoint_singletons(self):
        sf = Sunflower(fam(4, (1,), (2,)), 0)
        cover, closed_form, weak, exp_bound = sunflower_bounds(sf, Fraction(1, 2))
        assert cover == Fraction(3, 4)
        assert cover >= closed_form >= weak
        assert float(cover) >= exp_bound

    def test_star_sunflower_bounds(self):
        sf = Sunflower(fam(6, (1, 2), (1, 3), (1, 4)), mask_of([1], 6))
        cover, closed_form, _, exp_bound = sunflower_bounds(sf, Fraction(1, 2))
        # disjoint petal remainders: coverage equals the closed form exactly
        assert cover == closed_form
        assert float(cover) >= exp_bound


class TestExtraction:
    def test_base_case_whole_family(self):
        f = fam(10, *[(i,) for i in range(1, 11)])
        res = extract_robust_sunflower(f, Fraction(1, 2), 0.01)
        assert res.subfamily == f
        assert res.kernel == 0
        assert res.verified

    def test_base_case_failure(self):
        f = fam(4, (1,), (2,))
        with pytest.raises(BaseCaseFailedError):
            extract_robust_sunflower(f, Fraction(1, 10), 0.01)

    def test_star_family_link_case(self):
        f = fam(12, *[(1, x) for x in range(2, 13)])
        res = extract_robust_sunflower(f, Fraction(1, 2), 0.05, ThresholdParams(B=2))
        assert res.kernel == mask_of([1], 12)
        assert res.verified
        assert res.check.probability.value == 1 - Fraction(1, 2) ** 11
        cases = [s.case for s in res.recursion_trace]
        assert cases == ["link", "base"]

    def test_spread_family_returned_unchanged(self):
        # disjoint blocks are very spread; B small keeps r low enough
        f = fam(12, (1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12))
        res = extract_robust_sunflower(f, Fraction(1, 2), 0.45, ThresholdParams(B=0.5))
        assert res.subfamily == f
        assert res.recursion_trace[-1].case == "spread"

    def test_verified_false_is_legitimate(self):
        # r-spread for tiny B, but two disjoint pairs only cover w.p. 7/16
        f = fam(12, (1, 2), (3, 4))
        res = extract_robust_sunflower(f, Fraction(1, 2), 0.45, ThresholdParams(B=0.4))
        assert res.recursion_trace[-1].case == "spread"
        assert res.check.probability.value == Fraction(7, 16)
        assert res.verified is False

    def test_subfamily_subset_of_input(self):
        rng = random.Random(2)
        for _ in range(15):
            n = 10
            masks = set()
            while len(masks) < 8:
                a, b, c = rng.sample(range(n), 3)
                masks.add(1 << a | 1 << b | 1 << c)
            f = SetFamily.from_masks(n, masks)
            try:
                res = extract_robust_sunflower(f, Fraction(1, 2), 0.2, ThresholdParams(B=1))
            except BaseCaseFailedError:
                continue
            assert set(res.subfamily.members) <= set(f.members)
            assert res.kernel == core(res.subfamily)

    def test_lifting_identity(self):
        # coverage(lifted family over kernel|T) == coverage(link family over kernel)
        f = fam(12, *[(1, x) for x in range(2, 13)])
        t = mask_of([1], 12)
        linked = link(f, t)
        p = Fraction(1, 2)
        lifted = SetFamily.from_masks(12, (m | t for m in linked.members))
        assert (
            coverage_exact(lifted, t, p).value
            == coverage_exact(linked, 0, p).value
        )

    def test_non_uniform_rejected(self):
        with pytest.raises(ValueError):
            extract_robust_sunflower(fam(5, (1,), (2, 3)), 0.5, 0.1)
