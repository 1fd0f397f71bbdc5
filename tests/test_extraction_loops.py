"""The three extraction loops against their recursive reference forms.

``find_sunflower``, ``extract_robust_sunflower`` and ``find_clique_sunflower``
step from link to link and lift once by the accumulated kernel; the last
two share one loop, ``sunflowers.descend``.  The oracles recurse and lift
one level at a time.  Both must agree result for result, trace step for
trace step, and refusal for refusal.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sunflower_circuits.cliques import find_clique_sunflower
from sunflower_circuits.errors import ThresholdNotMetError
from sunflower_circuits.setfamily import SetFamily
from sunflower_circuits.sunflowers import (
    ThresholdParams,
    extract_robust_sunflower,
    find_sunflower,
)

from oracles import (
    recursive_extract_robust_sunflower,
    recursive_find_clique_sunflower,
    recursive_find_sunflower,
)

PROBS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10), 0.3)
EPS = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), 0.05)
BS = (0.5, 1.0, 2.0, 64.0)
MC_SAMPLES = 2_000  # the Monte-Carlo fallback of a refused exact verification


def outcome(fn, *args):
    """The result, or the refusal as (type, message)."""
    try:
        return fn(*args)
    except Exception as exc:  # every exception type is compared, not only refusals
        return type(exc), str(exc)


@st.composite
def uniform_families(draw):
    """l-uniform families, l <= 3, n <= 12, whose members share a drawn core of 0 to l-1 elements."""
    size = draw(st.integers(1, 3))
    n = draw(st.integers(max(size, 2), 12))
    shared = draw(st.sets(st.integers(0, n - 1), max_size=size - 1))
    rest = [e for e in range(n) if e not in shared]
    count = draw(st.integers(1, 24))
    members = draw(st.lists(
        st.lists(st.sampled_from(rest), min_size=size - len(shared),
                 max_size=size - len(shared), unique=True),
        min_size=count, max_size=count,
    ))
    core = sum(1 << e for e in shared)
    return SetFamily.from_masks(n, (core | sum(1 << e for e in m) for m in members))


@settings(max_examples=300, deadline=None)
@given(fam=uniform_families(), petals=st.integers(2, 4))
def test_find_sunflower_matches_recursion(fam, petals):
    assert outcome(find_sunflower, fam, petals) == outcome(recursive_find_sunflower, fam, petals)


@settings(max_examples=300, deadline=None)
@given(fam=uniform_families(), p=st.sampled_from(PROBS), eps=st.sampled_from(EPS),
       b=st.sampled_from(BS))
def test_robust_extraction_matches_recursion(fam, p, eps, b):
    args = (fam, p, eps, ThresholdParams(B=b), MC_SAMPLES, 1)
    got = outcome(extract_robust_sunflower, *args)
    want = outcome(recursive_extract_robust_sunflower, *args)
    assert got == want
    if not isinstance(want, tuple):  # the trace as the CLI reports it
        assert [t.to_dict() for t in got.recursion_trace] == [
            t.to_dict() for t in want.recursion_trace]


@settings(max_examples=300, deadline=None)
@given(fam=uniform_families(), p=st.sampled_from(PROBS), q=st.sampled_from((1,) + PROBS),
       eps=st.sampled_from(EPS))
def test_clique_extraction_matches_recursion(fam, p, q, eps):
    args = (fam, p, q, eps, MC_SAMPLES, 1)
    got = outcome(find_clique_sunflower, *args)
    want = outcome(recursive_find_clique_sunflower, *args)
    assert got == want
    if not isinstance(want, tuple):  # the trace as the CLI reports it
        assert [t.to_dict() for t in got.trace] == [t.to_dict() for t in want.trace]


@settings(max_examples=150, deadline=None)
@given(fam=uniform_families(), p=st.sampled_from((Fraction(3, 4), Fraction(9, 10))),
       q=st.sampled_from((1, Fraction(9, 10))), eps=st.sampled_from((Fraction(1, 4), Fraction(1, 2))))
def test_clique_core_choice_matches_recursion(fam, p, q, eps):
    """Where p and q are near 1, cores of several sizes qualify at once, so the choice shows."""
    args = (fam, p, q, eps, MC_SAMPLES, 1)
    assert outcome(find_clique_sunflower, *args) == outcome(recursive_find_clique_sunflower, *args)


def test_two_links_lift_by_both_cores():
    """On the star {1, 2, k}, each extraction steps over {1}, then {2}, before it stops."""
    star = SetFamily.from_sets(20, [(1, 2, k) for k in range(3, 21)])
    half, tenth = Fraction(1, 2), Fraction(1, 10)

    sf = find_sunflower(star, 3)
    assert sf == recursive_find_sunflower(star, 3)
    assert sf.kernel == 0b11 and sf.is_valid()

    res = extract_robust_sunflower(star, half, tenth, ThresholdParams(B=2))
    assert [s.case for s in res.recursion_trace] == ["link", "link", "base"]
    assert res == recursive_extract_robust_sunflower(star, half, tenth, ThresholdParams(B=2))
    assert res.subfamily == star and res.kernel == 0b11

    res = find_clique_sunflower(star, half, 1, half)
    assert [(s.case, s.j, s.q) for s in res.trace] == [
        ("link", 1, 1.0), ("link", 1, 0.5), ("base", None, 0.25)]
    assert res == recursive_find_clique_sunflower(star, half, 1, half)
    assert res.subfamily == star and res.core_set == 0b11


def test_link_depth_is_not_bounded_by_the_stack():
    """1,500 links, one element each, end with no 2-petal sunflower."""
    fam = SetFamily.from_masks(1500, [(1 << 1500) - 1])
    with pytest.raises(ThresholdNotMetError, match="no 2-petal sunflower found"):
        find_sunflower(fam, 2)
