import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import and_

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sunflower_circuits import probability
from sunflower_circuits.cliques import verify_no_kclique_bound
from sunflower_circuits.harnik_raz import HRParams, build_hr_family, verify_positive_acceptance
from sunflower_circuits.probability import (
    _CHUNK_SLOTS,
    bernoulli_hits,
    bernoulli_rows,
    compact,
    count_covered,
    coverage_mc,
)
from sunflower_circuits.rng import _PIECE, CounterStream, bias, mix64, threshold_for
from sunflower_circuits.setfamily import SetFamily, antichain_minimize

from oracles import bernoulli_block, clique_edge_mask, iter_bits, pq_sample_hits, set_sample_hits


def test_scalar_and_block_agree():
    s = CounterStream(12345, stream=2)
    scalars = [s.next_u64() for _ in range(50)]
    s2 = CounterStream(12345, stream=2)
    assert s2.block(0, 50).tolist() == scalars


def test_streams_differ():
    a = CounterStream(1, stream=0)
    b = CounterStream(1, stream=1)
    assert a.block(0, 8).tolist() != b.block(0, 8).tolist()


def test_random_access_matches_state():
    s = CounterStream(7)
    seq = [s.next_u64() for _ in range(10)]
    assert [s.at(i) for i in range(10)] == seq


def test_mix64_is_deterministic_and_wide():
    assert mix64(0) == mix64(0)
    outs = {mix64(i) for i in range(1000)}
    assert len(outs) == 1000  # finalizer is a bijection on 64-bit inputs


def test_threshold_exact_for_dyadic():
    assert threshold_for(0.5) == 1 << 63
    assert threshold_for(0.25) == 1 << 62
    assert threshold_for(0) == 0
    assert threshold_for(1) == 1 << 64


@pytest.mark.parametrize("p", [2, -1, 1.5, -1e-9])
def test_threshold_refuses_p_outside_unit_interval(p):
    with pytest.raises(ValueError, match="outside"):
        threshold_for(p)
    with pytest.raises(ValueError):
        bernoulli_block(CounterStream(0), 0, 8, p)
    with pytest.raises(ValueError):
        next(bernoulli_rows(CounterStream(0), 1, 8, 8, p, p))


def test_next_below_uniform_support():
    s = CounterStream(3)
    draws = [s.next_below(7) for _ in range(2000)]
    assert set(draws) == set(range(7))


def test_bernoulli_block_mean():
    s = CounterStream(42)
    bits = bernoulli_block(s, 0, 100_000, 0.25)
    mean = bits.mean()
    assert abs(mean - 0.25) < 0.01
    row = next(bernoulli_rows(CounterStream(42), 1, 100_000, 100_000, 0.25, 0.25))[0]
    assert (row == bits).all()


def test_block_reaches_the_top_of_the_counter():
    s = CounterStream(1)
    top = 2**64
    assert s.block(top - 2, 3).tolist() == [s.at(top - 2), s.at(top - 1), s.at(top)]


def test_block_refuses_a_negative_count():
    with pytest.raises(ValueError, match="negative"):
        CounterStream(1).block(0, -1)
    assert CounterStream(1).block(5, 0).tolist() == []


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, _PIECE - 2, 2 * _PIECE - 1, 2**64 - 3]) | st.integers(0, 2**64),
    st.sampled_from([0, _PIECE - 1, _PIECE, _PIECE + 1, 3 * _PIECE + 5]),
)
def test_block_is_at_slot_by_slot(seed, start, count):
    s = CounterStream(seed, stream=seed % 5)
    assert s.block(start, count).tolist() == [s.at(i) for i in range(start, start + count)]


def _rows_reference(stream, samples, width, split, p, q):
    """The rows ``bernoulli_rows`` should yield: slot by slot, p below the split, q above."""
    start, count = stream.index, samples * width
    below = bernoulli_block(stream, start, count, p).reshape(samples, width)
    above = bernoulli_block(stream, start, count, q).reshape(samples, width)
    return np.hstack([below[:, :split], above[:, split:]]), start + count


_THIRD = Fraction(1, 3)


# (width, split, samples): each crosses a piece boundary; the last is one row wider than a piece
@pytest.mark.parametrize(
    "width,split,samples",
    [
        (1, 0, _PIECE + 300),
        (7, 3, _PIECE // 7 + 19),
        (48, 17, _PIECE // 48 + 18),
        (2016, 1000, 20),
        (_PIECE + 3, 5, 2),
    ],
)
@pytest.mark.parametrize("p,q", [(a, b) for a in (0, _THIRD, 1) for b in (0, _THIRD, 1)])
def test_bernoulli_rows_are_the_reference_rows(width, split, samples, p, q):
    stream = CounterStream(9, stream=4)
    stream.index = 11
    expected, end = _rows_reference(stream, samples, width, split, p, q)
    got = np.concatenate(list(bernoulli_rows(stream, samples, width, split, p, q)))
    assert got.shape == (samples, width)
    assert (got == expected).all()
    assert stream.index == end


def test_bernoulli_rows_across_chunks():
    # one p-biased column and 47 certain ones: every slot is drawn, column 0's are read
    width = 48
    samples = _CHUNK_SLOTS // width + 5
    stream = CounterStream(3)
    stream.index = start = 7
    chunks = list(bernoulli_rows(stream, samples, width, 1, _THIRD, 1))
    assert len(chunks) == 2
    rows = np.concatenate(chunks)
    column = [bernoulli_block(stream, start + r * width, 1, _THIRD)[0] for r in range(samples)]
    assert (rows[:, 0] == column).all()
    assert rows[:, 1:].all()
    assert stream.index == start + samples * width


@pytest.mark.parametrize(
    "estimate", ["coverage_mc", "verify_no_kclique_bound", "verify_positive_acceptance"]
)
def test_monte_carlo_working_set_is_pieces(estimate):
    # a chunk's uint64 draws, 16 MiB, are never held whole: draws live one piece at a time;
    # the positive sampler's chunk of digits (3 MiB at HR(11,2,3)) is let go before its rows are built
    family = SetFamily.from_masks(48, [0b111 << 3 * i for i in range(16)])
    hr = build_hr_family(HRParams(11, 2, 3))
    run, bound = {
        "coverage_mc": (lambda: coverage_mc(family, 0, Fraction(1, 2), 200_000, 1), 8 << 20),
        "verify_no_kclique_bound": (
            lambda: verify_no_kclique_bound(64, 4, Fraction(1, 16), 1000, 1), 8 << 20),
        "verify_positive_acceptance": (
            lambda: verify_positive_acceptance(hr, "mc", 200_000, 1), 10 << 20),
    }[estimate]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 5, 2**64 - 3]) | st.integers(0, 2**64),
    st.lists(st.integers(0, 2**64 - 1), max_size=40),
)
def test_gather_is_at_slot_by_slot(seed, start, offsets):
    s = CounterStream(seed, stream=seed % 3)
    slots = np.array(offsets, dtype=np.uint64)
    assert s.gather(start, slots).tolist() == [s.at(start + i) for i in offsets]
    assert slots.tolist() == offsets  # the caller's array is left as it is


_BIASES = [0, _THIRD, Fraction(1, 2), 1]


@st.composite
def _hit_cases(draw, max_width=12):
    """(width, split, masks): blocks of a partition of the columns, or masks sharing a column."""
    width = draw(st.integers(1, max_width))
    split = draw(st.integers(0, width))
    disjoint = draw(st.booleans())
    if disjoint:
        columns = draw(st.permutations(range(width)))
        cuts = sorted(draw(st.sets(st.integers(1, width), max_size=width)) | {width})
        blocks = [columns[lo:hi] for lo, hi in zip([0] + cuts, cuts)]
        masks = [sum(1 << j for j in b) for b in blocks if draw(st.booleans())]
    else:
        masks = draw(st.lists(st.integers(1, 2**width - 1), min_size=1, max_size=6))
        masks.append(masks[0] | draw(st.integers(0, 2**width - 1)))  # shares masks[0]'s columns
    return width, split, masks


def _rows_hits(stream, samples, width, split, p, q, masks):
    rows = bernoulli_rows(stream, samples, width, split, p, q)
    return sum(count_covered(bits, masks) for bits in rows)


@settings(max_examples=60, deadline=None)
@given(
    _hit_cases(),
    st.sampled_from([1, 100, _PIECE - 1, _PIECE + 7]),
    st.sampled_from(_BIASES),
    st.sampled_from(_BIASES),
    st.integers(0, 2**40),
)
def test_hit_counter_counts_the_rows(case, samples, p, q, start):
    width, split, masks = case
    lazy, rows = CounterStream(6, stream=1), CounterStream(6, stream=1)
    lazy.index = rows.index = start
    hits = bernoulli_hits(lazy, samples, width, split, p, q, masks)
    assert hits == _rows_hits(rows, samples, width, split, p, q, masks)
    assert lazy.index == rows.index == start + samples * width


@settings(max_examples=40, deadline=None)
@given(_hit_cases(max_width=8), st.integers(1, 60), st.sampled_from(_BIASES), st.integers(0, 500))
def test_hit_counter_is_the_set_sample_loop(case, samples, p, start):
    # the oracle draws only the columns of the minimal masks: compact them onto all columns
    masks, width = compact(antichain_minimize(case[2]))
    stream, reference = CounterStream(2), CounterStream(2)
    stream.index = reference.index = start
    hits = bernoulli_hits(stream, samples, width, width, p, p, masks)
    assert hits == set_sample_hits(masks, 0, p, samples, reference)
    assert stream.index == reference.index == start + samples * width


@st.composite
def _clique_cases(draw):
    """(n, vertex masks, core): petals of one vertex each over the core, or arbitrary members."""
    n = draw(st.integers(3, 5))
    if draw(st.booleans()):  # disjoint (p, q) masks
        core = draw(st.sampled_from([0b11, 0b1]))
        outside = [v for v in range(n) if not core >> v & 1]
        vertex_masks = [core | 1 << v for v in draw(st.lists(st.sampled_from(outside), min_size=1,
                                                               unique=True))]
    else:
        vertex_masks = draw(st.lists(st.integers(0, 2**n - 1).filter(lambda m: m.bit_count() >= 2),
                                     min_size=1, max_size=4))
        core = draw(st.sampled_from([0, reduce(and_, vertex_masks)]))
    return n, vertex_masks, core


@settings(max_examples=40, deadline=None)
@given(_clique_cases(), st.integers(1, 30), st.sampled_from(_BIASES), st.sampled_from(_BIASES),
       st.integers(0, 500))
def test_hit_counter_is_the_pq_sample_loop(case, samples, p, q, start):
    n, vertex_masks, core = case
    m = n * (n - 1) // 2
    core_edges = clique_edge_mask([v + 1 for v in iter_bits(core)])
    masks = [(clique_edge_mask([v + 1 for v in iter_bits(a)]) & ~core_edges) | (a & ~core) << m
             for a in vertex_masks]
    stream, reference = CounterStream(8), CounterStream(8)
    stream.index = reference.index = start
    hits = bernoulli_hits(stream, samples, m + n, m, p, q, masks)
    assert hits == pq_sample_hits(vertex_masks, core, p, q, n, samples, reference)
    assert stream.index == reference.index == start + samples * (m + n)


def _refuse(*args, **kwargs):
    raise AssertionError("the other path of the disjointness rule ran")


@pytest.mark.parametrize(
    "masks,disjoint",
    [([0b0011, 0b1100], True), ([0, 0b0011, 0b0100], True), ([], True),
     ([0b0011, 0b0110], False), ([0b0111, 0b0011], False)],
)
def test_hit_counter_reads_only_disjoint_masks_by_slot(monkeypatch, masks, disjoint):
    # disjoint masks never build rows; overlapping ones never read a single slot
    expected = _rows_hits(CounterStream(4), 500, 4, 4, _THIRD, _THIRD, masks)
    if disjoint:
        monkeypatch.setattr(probability, "bernoulli_rows", _refuse)
    else:
        monkeypatch.setattr(CounterStream, "gather", _refuse)
    stream = CounterStream(4)
    assert bernoulli_hits(stream, 500, 4, 4, _THIRD, _THIRD, masks) == expected
    assert stream.index == 2000


class TestBias:
    def test_fraction_in_range_comes_back_as_it_is(self):
        for p in (Fraction(0), Fraction(1, 3), Fraction(1)):
            assert bias(p) is p

    @pytest.mark.parametrize("p,text", [(Fraction(3, 2), "3/2"), (Fraction(-1, 2), "-1/2"),
                                        (1.5, "1.5"), (-0.25, "-0.25"), ("3/2", "3/2")])
    def test_out_of_range_raises_naming_the_value(self, p, text):
        with pytest.raises(ValueError, match=rf"^probability {text} outside \[0, 1\]$"):
            bias(p)

    @pytest.mark.parametrize("p,want", [(0.25, Fraction(1, 4)), (1.0, Fraction(1)), (0, Fraction(0)),
                                        ("1/3", Fraction(1, 3)), ("0.5", Fraction(1, 2))])
    def test_floats_strings_and_integers_become_fractions(self, p, want):
        got = bias(p)
        assert type(got) is Fraction and got == want
