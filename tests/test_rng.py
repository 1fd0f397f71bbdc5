import pytest

from sunflower_circuits.probability import bernoulli_rows
from sunflower_circuits.rng import CounterStream, mix64, threshold_for

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
