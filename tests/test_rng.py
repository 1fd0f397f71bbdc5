import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sunflower_circuits.cliques import verify_no_kclique_bound
from sunflower_circuits.probability import _CHUNK_SLOTS, bernoulli_rows, coverage_mc
from sunflower_circuits.rng import _PIECE, CounterStream, mix64, threshold_for
from sunflower_circuits.setfamily import SetFamily

from oracles import bernoulli_block


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


@pytest.mark.parametrize("estimate", ["coverage_mc", "verify_no_kclique_bound"])
def test_monte_carlo_working_set_is_pieces(estimate):
    # a chunk's uint64 draws, 16 MiB, are never held whole: draws live one piece at a time
    family = SetFamily.from_masks(48, [0b111 << 3 * i for i in range(16)])
    run = {
        "coverage_mc": lambda: coverage_mc(family, 0, Fraction(1, 2), 200_000, 1),
        "verify_no_kclique_bound": lambda: verify_no_kclique_bound(64, 4, Fraction(1, 16), 1000, 1),
    }[estimate]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
