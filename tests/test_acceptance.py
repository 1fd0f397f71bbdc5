"""Acceptance suite: one test per exit criterion, each printing a verdict line.

The headline statements of the underlying theory are asymptotic; what is
checkable at desk scale is every finite quantitative ingredient, exactly
where an exact engine exists and within Monte-Carlo margins elsewhere.
Each test ends with a single ``ACCEPTANCE n: PASS`` print so a plain
``pytest -s tests/test_acceptance.py`` doubles as a checklist.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations

from sunflower_circuits.cli import ExperimentConfig, report_to_json, run as run_experiment
from sunflower_circuits.cliques import (
    clique_spread_check,
    janson_certificate,
    s_poly_exact,
    verify_no_kclique_bound,
)
from sunflower_circuits.codes import (
    CoeffPoly,
    Decomposition,
    build_polynomial,
    canonical_decomposition,
    codeword_monomial,
    max_pairwise_agreement,
    reed_solomon_code,
    single_monomial_audit,
    size_lower_bound_report,
    verify_decomposition,
)
from sunflower_circuits.errors import BaseCaseFailedError
from sunflower_circuits.harnik_raz import (
    HRParams,
    build_hr_family,
    verify_cwise_independence,
    verify_minterm_spread,
    verify_positive_acceptance,
)
from sunflower_circuits.monotone import (
    ClosureParams,
    MonotoneFunction,
    closure,
    closure_error_bound_check,
    is_closed,
)
from sunflower_circuits.probability import coverage_exact, coverage_mc
from sunflower_circuits.rng import CounterStream
from sunflower_circuits.setfamily import SetFamily, link, mask_of
from sunflower_circuits.sunflowers import (
    ThresholdParams,
    erdos_rado_threshold,
    extract_robust_sunflower,
    find_sunflower,
)

from oracles import (
    brute_coverage,
    brute_pq_hit,
    clique_edge_mask,
    enumerate_antichains,
    iter_bits,
    pq_hit_inclusion_exclusion,
)


def _verdict(num, detail):
    print(f"\nACCEPTANCE {num}: PASS  [{detail}]", flush=True)


def _random_family(stream, n, members, min_size=1, max_size=None):
    max_size = max_size or n
    masks = set()
    while len(masks) < members:
        size = min_size + stream.next_below(max_size - min_size + 1)
        mask = 0
        while mask.bit_count() < size:
            mask |= 1 << stream.next_below(n)
        masks.add(mask)
    return SetFamily.from_masks(n, masks)


def test_criterion_1_coverage_oracle_agreement():
    start = time.monotonic()
    stream = CounterStream(1001, stream=0)
    ps = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    agree = 0
    trials = 100
    for t in range(trials):
        n = 4 + stream.next_below(11)  # 4..14
        members = 1 + stream.next_below(8)
        fam = _random_family(stream, n, members, 1, min(n, 5))
        y = 0
        p = ps[t % 3]
        exact = coverage_exact(fam, y, p).value
        est = coverage_mc(fam, y, p, 100_000, seed=2000 + t)
        if abs(est.value - float(exact)) <= 3 * est.half_width:
            agree += 1
    elapsed = time.monotonic() - start
    assert agree >= 99, f"only {agree}/100 within 3 half-widths"
    assert elapsed < 60
    _verdict(1, f"{agree}/100 agreed, {elapsed:.1f}s")


def test_criterion_2_erdos_rado_extraction():
    start = time.monotonic()
    rng = random.Random(77)
    done = 0
    while done < 500:
        size = rng.randint(1, 3)
        petals = rng.randint(2, 3)
        n = rng.randint(max(6, size * petals), 10)
        need = erdos_rado_threshold(size, petals) + 1
        pool = list(combinations(range(n), size))
        if len(pool) < need:
            continue
        chosen = rng.sample(pool, rng.randint(need, len(pool)))
        fam = SetFamily.from_masks(n, (sum(1 << i for i in vs) for vs in chosen))
        sf = find_sunflower(fam, petals)
        assert len(sf.petals) >= petals
        assert sf.is_valid()
        assert set(sf.petals.members) <= set(fam.members)
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _verdict(2, f"500 extractions validated, {elapsed:.1f}s")


def _soundness_instances():
    """Stars, disjoint unions and padded links over n <= 16."""
    rng = random.Random(424)
    instances = []
    while len(instances) < 200:
        kind = rng.choice(("star", "disjoint", "padded"))
        if kind == "star":
            m = rng.randint(6, 12)
            core_size = rng.randint(1, 2)
            n = m + core_size
            if n > 16:
                continue
            core_mask = (1 << core_size) - 1
            members = [core_mask | 1 << (core_size + i) for i in range(m)]
            eps = rng.choice((0.05, 0.1))
            instances.append((SetFamily.from_masks(n, members), Fraction(1, 2), eps))
        elif kind == "disjoint":
            size = rng.randint(1, 3)
            m = rng.randint(3, 16 // size)
            n = m * size
            members = [
                sum(1 << (i * size + j) for j in range(size)) for i in range(m)
            ]
            eps = rng.choice((0.2, 0.4))
            instances.append((SetFamily.from_masks(n, members), Fraction(1, 2), eps))
        else:
            m = rng.randint(7, 12)
            pad = rng.randint(1, 3)
            n = m + pad
            if n > 16:
                continue
            pad_mask = (1 << pad) - 1
            members = [pad_mask | 1 << (pad + i) for i in range(m)]
            eps = rng.choice((0.05, 0.1))
            instances.append((SetFamily.from_masks(n, members), Fraction(1, 2), eps))
    return instances


def test_criterion_3_robust_extraction_soundness():
    start = time.monotonic()
    verified_count = 0
    lift_checked = 0
    brute_checked = 0
    for idx, (fam, p, eps) in enumerate(_soundness_instances()):
        try:
            res = extract_robust_sunflower(fam, p, eps, ThresholdParams(B=2.0))
        except BaseCaseFailedError:
            continue
        if res.verified:
            verified_count += 1
            cover = coverage_exact(res.subfamily, res.kernel, p).value
            assert cover > 1 - Fraction(eps)
            if fam.n <= 12 and brute_checked < 20:
                assert cover == brute_coverage(
                    res.subfamily.members, res.kernel, p, fam.n
                )
                brute_checked += 1
        # lifting identity at every linking step of the recursion
        current = fam
        for step in res.recursion_trace:
            if step.case != "link":
                continue
            t = step.chosen
            linked = link(current, t)
            lifted = SetFamily.from_masks(current.n, (m | t for m in linked.members))
            assert (
                coverage_exact(lifted, t, p).value
                == coverage_exact(linked, 0, p).value
            )
            lift_checked += 1
            current = linked
    elapsed = time.monotonic() - start
    assert verified_count > 100  # constructions are designed to succeed
    assert lift_checked > 20
    assert brute_checked == 20
    assert elapsed < 120
    _verdict(
        3,
        f"{verified_count} verified extractions sound, {lift_checked} lifts exact, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_closure_correctness_n4():
    start = time.monotonic()
    functions = [
        MonotoneFunction(4, masks) for masks in enumerate_antichains(4)
    ]
    assert len(functions) == 168
    for eps, c in ((0.3, 2), (0.1, 3)):
        params = ClosureParams(eps=eps, c=c)
        closures = {}
        closed_flags = {}
        for i, f in enumerate(functions):
            cl = closure(f, params)
            closures[i] = cl
            assert f.le(cl)
            assert closure(cl, params) == cl
        for i, f in enumerate(functions):
            closed_flags[i] = is_closed(f, params).closed
        for i, f in enumerate(functions):
            cl = closures[i]
            for j, g in enumerate(functions):
                if closed_flags[j] and f.le(g):
                    assert cl.le(g), (i, j, eps, c)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _verdict(4, f"168 functions x 2 parameter sets, {elapsed:.1f}s")


def test_criterion_5_closure_error_bound():
    start = time.monotonic()
    stream = CounterStream(5005)
    for trial in range(50):
        n = 6 + stream.next_below(7)  # 6..12
        members = 2 + stream.next_below(5)
        fam = _random_family(stream, n, members, 1, 3)
        f = MonotoneFunction.from_masks(n, fam.members)
        eps = (0.05, 0.1, 0.2)[trial % 3]
        params = ClosureParams(eps=eps, c=2)
        lhs, rhs = closure_error_bound_check(f, params)
        assert 0 <= lhs <= rhs  # exact rational comparison
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _verdict(5, f"50 random functions within the union bound, {elapsed:.1f}s")


def test_criterion_6_hr_exact_checks():
    start = time.monotonic()
    params = HRParams(11, 2, 3)
    hr = build_hr_family(params)
    value, bound = verify_positive_acceptance(hr)
    assert value == Fraction(110, 121)
    assert bound == Fraction(9, 11)
    assert value >= bound
    # degree-bounded independence: every constraint tuple with <= c points
    for j in range(1, 4):
        for a in range(11):
            got, want = verify_cwise_independence(params, (j,), (a,))
            assert got == want == Fraction(1, 11)
    for pts in combinations(range(1, 4), 2):
        for a1 in range(11):
            for a2 in range(11):
                got, want = verify_cwise_independence(params, pts, (a1, a2))
                assert got == want == Fraction(1, 121)
    # positive-distribution spread for every target of size <= 2
    for size in (1, 2):
        for elems in combinations(range(1, 12), size):
            v, b = verify_minterm_spread(hr, mask_of(elems, 11))
            assert v <= b == Fraction(3, 11) ** size
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _verdict(6, f"acceptance 110/121 >= 9/11, independence and spread exact, {elapsed:.1f}s")


def test_criterion_7_janson_certificate_validity():
    start = time.monotonic()
    n = 6
    grid = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    checked = 0
    spot_checked = 0
    rng = random.Random(99)
    for size in (2, 3):
        vsets = list(combinations(range(1, n + 1), size))
        vmasks = [sum(1 << (v - 1) for v in vs) for vs in vsets]
        emasks = [clique_edge_mask(vs) for vs in vsets]
        families = []
        for m in range(1, 5):
            families.extend(combinations(range(len(vsets)), m))
        for pf in grid:
            for qf in grid:
                for fam in families:
                    vm = [vmasks[i] for i in fam]
                    em = [emasks[i] for i in fam]
                    miss = 1 - pq_hit_inclusion_exclusion(vm, em, pf, qf)
                    cert = janson_certificate(
                        SetFamily.from_masks(n, vm), pf, qf
                    )
                    assert float(miss) <= cert.bound * (1 + 1e-12), (fam, pf, qf)
                    checked += 1
                    # anchor the inclusion-exclusion oracle on tiny cases
                    if n <= 6 and spot_checked < 5 and rng.random() < 0.0002:
                        small_n = max(max(iter_bits(v)) for v in vm) + 1
                        if small_n <= 5:
                            assert miss == 1 - brute_pq_hit(vm, 0, pf, qf, small_n)
                            spot_checked += 1
    elapsed = time.monotonic() - start
    assert checked == 73215
    assert elapsed < 300
    _verdict(7, f"{checked} certificates valid, {elapsed:.1f}s")


def test_criterion_8_s_poly_bound():
    start = time.monotonic()
    for size in range(17):
        for t in (Fraction(1, 10), Fraction(1, 2), 1, 2, 5, 10):
            value = s_poly_exact(size, t)
            bound = math.factorial(size) * (Fraction(t) + Fraction(1, 2)) ** size
            assert value <= bound * (1 + Fraction(1, 10**9))
    elapsed = time.monotonic() - start
    assert elapsed < 1
    _verdict(8, f"sizes 0..16 across six t values, {elapsed:.2f}s")


def test_criterion_9_kclique_probability_bound():
    start = time.monotonic()
    est = verify_no_kclique_bound(64, 4, Fraction(1, 16), 10_000, seed=4242)
    assert est.value <= 0.75 + 3 * est.half_width
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _verdict(9, f"estimate {est.value:.4f} +- {est.half_width:.4f} <= 3/4, {elapsed:.1f}s")


def test_criterion_10_clique_spread_bound():
    start = time.monotonic()
    for n in range(2, 13):
        for k in range(1, min(n, 5) + 1):
            for size in range(0, k + 1):
                v, b = clique_spread_check(n, k, size)
                assert v <= b
    elapsed = time.monotonic() - start
    assert elapsed < 1
    _verdict(10, f"all n <= 12, k <= 5, l <= k exact, {elapsed:.2f}s")


def test_criterion_11_code_polynomial():
    start = time.monotonic()
    code = reed_solomon_code(11, 9, 3)
    poly = build_polynomial(code)
    assert len(poly) == 1331 == len(code)
    assert max_pairwise_agreement(code) == 2
    # support intersections equal agreements; spot-check plus the numpy max
    monos = [codeword_monomial(w, 11) for w in code.codewords]
    rng = random.Random(5)
    for _ in range(500):
        i, j = rng.sample(range(1331), 2)
        inter = (monos[i] & monos[j]).bit_count()
        agree = sum(1 for a, b in zip(code.codewords[i], code.codewords[j]) if a == b)
        assert inter == agree <= 2
    d = canonical_decomposition(poly, 9)
    ok, why = verify_decomposition(d, poly, 9)
    assert ok, why
    assert size_lower_bound_report(code, d) == (1331, 1331, True)
    ok_single, _ = single_monomial_audit(d, 2)
    assert ok_single
    # every merged candidate must fail the audit with an overlap >= n/3 = 3
    for first, second in ((0, 1), (7, 100), (500, 501), (42, 1330)):
        (g1, h1) = d.pairs[first]
        (g2, _) = d.pairs[second]
        merged = Decomposition(
            ((CoeffPoly(tuple(g1.terms) + tuple(g2.terms)), h1),)
            + tuple(p for i, p in enumerate(d.pairs) if i not in (first, second))
        )
        bad, counter = single_monomial_audit(merged, 2)
        assert not bad
        _, _, overlap = counter
        assert overlap >= 3
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _verdict(11, f"1331 monomials, agreement 2, audits exact, {elapsed:.1f}s")


def test_criterion_12_determinism():
    start = time.monotonic()
    configs = [
        lambda: ExperimentConfig(
            "coverage",
            {"n": 12, "family": "random:7:3", "p": "1/2"},
            engine="mc",
            samples=5000,
            seed=31,
        ),
        lambda: ExperimentConfig(
            "hr-verify", {"n": 11, "c": 2, "k": 3, "mode": "mc"}, seed=17, samples=2000
        ),
        lambda: ExperimentConfig(
            "clique-verify", {"n": 16, "k": 4}, seed=23, samples=500
        ),
    ]
    for make in configs:
        a = json.loads(report_to_json(run_experiment(make())))
        b = json.loads(report_to_json(run_experiment(make())))
        a.pop("wall_clock_s")
        b.pop("wall_clock_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    elapsed = time.monotonic() - start
    _verdict(12, f"3 experiments byte-identical modulo wall clock, {elapsed:.1f}s")
