"""The benchmark's reference checks agree with the test suite's brute force.

These show that the references are right on inputs small enough to
enumerate, so a failed check in a benchmark run points at the package.
"""

import json
import math
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
import reference as R  # noqa: E402

from sunflower_circuits.rng import CounterStream  # noqa: E402

HALF = Fraction(1, 2)
N4_FUNCTIONS = oracles.enumerate_antichains(4)


def _brute_closure(minterms, n, eps, c):
    """Add violators one at a time, each judged by full enumeration of the noise."""
    eps = Fraction(eps)
    current = list(minterms)
    while True:
        for a in sorted(range(1 << n), key=lambda m: (m.bit_count(), m)):
            if a.bit_count() > c or oracles.eval_antichain(current, a):
                continue
            if oracles.brute_coverage(current, a, Fraction(1, 2), n) > 1 - eps:
                current.append(a)
                break
        else:
            accepted = [x for x in range(1 << n) if oracles.eval_antichain(current, x)]
            return sorted(x for x in accepted
                          if not any(y != x and y & x == y for y in accepted))


def test_truth_table_round_trip_on_all_n4_functions():
    assert len(N4_FUNCTIONS) == 168
    for minterms in N4_FUNCTIONS:
        table = R.truth_table(4, minterms)
        assert R.minterms_of(table, 4) == sorted(minterms)
        for x in range(16):
            assert table[x] == oracles.eval_antichain(minterms, x)


@pytest.mark.parametrize("eps,c", [(0.3, 2), (0.1, 3), (0.45, 4), (Fraction(1, 2), 1)])
def test_closure_truth_table_matches_brute_force_on_n4(eps, c):
    for minterms in N4_FUNCTIONS:
        assert R.closure_truth_table(4, minterms, eps, c) == _brute_closure(minterms, 4, eps, c)


def test_closure_truth_table_on_random_n6_functions():
    rng = random.Random(6)
    for _ in range(40):
        masks = {rng.randrange(1, 64) for _ in range(rng.randint(1, 5))}
        minterms = R.minterms_of(R.truth_table(6, masks), 6)
        eps = rng.choice((0.05, 0.2, 0.4))
        assert R.closure_truth_table(6, minterms, eps, 2) == _brute_closure(minterms, 6, eps, 2)


def test_coverage_enumeration_matches_brute_force():
    rng = random.Random(3)
    for trial in range(60):
        n = rng.randint(2, 11)
        members = list({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 7))})
        y = rng.randrange(1 << n) if trial % 2 else 0
        p = Fraction(rng.randint(1, 4), 5)
        assert R.coverage_enumeration(members, y, p) == oracles.brute_coverage(members, y, p, n)


def test_coverage_enumeration_splits_wide_envelopes():
    # 18 disjoint singletons: width 18 takes the high/low split path
    members = [1 << i for i in range(18)]
    p = Fraction(1, 3)
    assert R.coverage_enumeration(members, 0, p) == R.disjoint_petal_coverage([1] * 18, p)


@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)])
def test_closed_forms_match_brute_force(p):
    disjoint = [0b11, 0b1100, 0b110000]
    assert R.disjoint_petal_coverage([2, 2, 2], p) == oracles.brute_coverage(disjoint, 0, p, 6)
    star = [0b1 | 1 << i for i in range(1, 6)]
    assert R.disjoint_petal_coverage([1] * 5, p) == oracles.brute_coverage(star, 0b1, p, 6)


def test_clique_closed_form_matches_brute_force():
    p, q = Fraction(1, 2), Fraction(2, 3)
    triangle_and_edge = [0b00111, 0b11000]
    want = oracles.brute_pq_hit(triangle_and_edge, 0, p, q, 5)
    assert R.clique_disjoint_coverage([3, 2], 0, p, q) == want
    star = [0b11 | 1 << i for i in range(2, 5)]
    want = oracles.brute_pq_hit(star, 0b11, p, q, 5)
    assert R.clique_disjoint_coverage([3, 3, 3], 2, p, q) == want


def test_clique_inclusion_exclusion_matches_oracles():
    rng = random.Random(7)
    vsets = [sum(1 << v for v in c) for c in combinations(range(5), 3)]
    for _ in range(10):
        masks = rng.sample(vsets, rng.randint(1, 4))
        p, q = Fraction(rng.randint(1, 3), 4), Fraction(rng.randint(1, 3), 4)
        edges = [oracles.clique_edge_mask([i + 1 for i in oracles.iter_bits(a)]) for a in masks]
        got = R.clique_hit_inclusion_exclusion(masks, p, q)
        assert got == oracles.pq_hit_inclusion_exclusion(masks, edges, p, q)
    masks = [0b00111, 0b01110]
    assert R.clique_hit_inclusion_exclusion(masks, HALF, HALF) == oracles.brute_pq_hit(
        masks, 0, HALF, HALF, 5)


def test_janson_moments_match_the_intersection_formula():
    size, p, q = 3, Fraction(1, 3), Fraction(3, 4)
    masks = [sum(1 << v for v in c) for c in combinations(range(6), size)][:9]
    mu, delta = R.janson_moments(masks, p, q)
    assert mu == len(masks) * q**size * p ** math.comb(size, 2)
    want = Fraction(0)
    for a in masks:
        for b in masks:
            j = (a & b).bit_count()
            if a != b and j:
                want += q ** (2 * size - j) * p ** (2 * math.comb(size, 2) - math.comb(j, 2))
    assert delta == want


def test_spread_witness_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(3, 8)
        members = list({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))})
        r = Fraction(rng.randint(1, 8), 2)
        spread, witness, size = R.spread_witness(members, r)
        assert spread == oracles.brute_spread(members, r, n)
        if not spread:
            assert size == sum(1 for m in members if m & witness == witness)
            assert size * r ** witness.bit_count() > len(members)


def test_hr_reference_on_hr_11_2_3():
    ref = R.hr_reference(11, 2, 3)
    assert ref["positive_accept"] == Fraction(110, 121)
    accepted = sum(oracles.eval_antichain(ref["minterms"], x) for x in range(1 << 11))
    assert ref["negative_reject"] == 1 - Fraction(accepted, 1 << 11)
    assert len(ref["minterms"]) == 55  # each 3-term progression, up to direction


def test_kclique_bracket_contains_the_exact_probability():
    n, k, p = 5, 3, Fraction(1, 2)
    pairs = list(combinations(range(1, n + 1), 2))
    hit = Fraction(0)
    for g in range(1 << len(pairs)):
        edges = {frozenset(pairs[i]) for i in range(len(pairs)) if g >> i & 1}
        if oracles.brute_has_clique(n, edges, k):
            hit += p ** len(edges) * (1 - p) ** (len(pairs) - len(edges))
    low, high = R.kclique_bracket(n, k, p)
    assert low <= hit <= high


def test_wilson_bound_covers_every_hit_count():
    samples, confidence = 400, 0.99
    z = 2.5758293035489
    bound = R.wilson_half_width_bound(samples, confidence)
    for hits in range(samples + 1):
        phat = hits / samples
        hw = (z / (1 + z * z / samples)) * math.sqrt(
            phat * (1 - phat) / samples + z * z / (4 * samples**2))
        assert hw <= bound + 1e-12


def test_splitmix_replays_the_package_stream():
    for seed, stream in ((0, 3), (12345, 3), (2**63 + 5, 7)):
        mine = R.SplitMix(seed, stream)
        theirs = CounterStream(seed, stream=stream)
        for n in (5, 12, 1000, 3):
            assert mine.below(n) == theirs.next_below(n)


def test_workloads_build_and_name_their_known_faults(tmp_path):
    import workloads

    faulty = {}
    for name, build in workloads.WORKLOADS.items():
        ops = build(1, tmp_path)
        assert ops
        faulty[name] = sorted(op.name for op in ops if op.fault)
    assert faulty == {
        "closure-hr": ["cli-hr-verify-bad-input"],
        "extract-exact": [],
        "mc-sample": ["cli-coverage-config-precedence", "coverage-mc-p2", "pq-coverage-mc-p2"],
    }


def test_benchmark_json_lists_the_metrics_run_py_prints():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in declared["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
