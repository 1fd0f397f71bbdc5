import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sunflower_circuits import monotone
from sunflower_circuits.cliques import CliqueApproxParams, clique_function
from sunflower_circuits.monotone import (
    ClosureParams,
    MonotoneCircuit,
    MonotoneFunction,
    approx_and,
    approx_or,
    approximate_circuit,
    circuit_from_text,
    circuit_function,
    circuit_to_text,
    closed_minterm_bound_check,
    closure,
    closure_error_bound_check,
    is_closed,
    iter_masks_up_to,
    trim,
)
from sunflower_circuits.harnik_raz import HRParams, PositiveTestDistribution, build_hr_family
from sunflower_circuits.probability import PBiasedDistribution, coverage_exact, mc_event_probability
from sunflower_circuits.rng import CounterStream
from sunflower_circuits.setfamily import (
    antichain_extend,
    antichain_minimize,
    elements_of,
    mask_of,
)

from oracles import (
    brute_closure,
    brute_polynomial_probability,
    brute_probability,
    coordinate_superset_sums,
    enumerate_antichains,
    mc_closedness_scan,
    p_subset_draw,
    positive_draw,
    reading_ledger,
    reversed_scan_closure,
)


def mf(n, *sets):
    return MonotoneFunction.from_masks(n, (mask_of(s, n) for s in sets))


def random_monotone(n, rng, max_minterms=6):
    masks = {rng.randrange(0, 1 << n) for _ in range(rng.randint(1, max_minterms))}
    return MonotoneFunction.from_masks(n, masks)


class TestEvalAndLattice:
    def test_constant_one(self):
        one = MonotoneFunction.constant1(4)
        assert all(one(x) for x in range(16))

    def test_minterm_accepts_superset(self):
        f = mf(4, (1, 2))
        assert f(mask_of([1, 2, 3], 4)) == 1
        assert f(mask_of([1, 3], 4)) == 0

    def test_or_absorption(self):
        assert (mf(4, (1,)) | mf(4, (1, 2))).minterms == mf(4, (1,)).minterms

    def test_and_of_singletons(self):
        assert (mf(4, (1,)) & mf(4, (2,))).minterms == mf(4, (1, 2)).minterms

    def test_and_identity(self):
        f = mf(4, (1, 3), (2,))
        assert (MonotoneFunction.constant1(4) & f) == f

    def test_truth_table_semantics(self):
        rng = random.Random(0)
        for _ in range(25):
            n = rng.randint(2, 6)
            f, g = random_monotone(n, rng), random_monotone(n, rng)
            h_or, h_and = f | g, f & g
            for x in range(1 << n):
                assert h_or(x) == (f(x) | g(x))
                assert h_and(x) == (f(x) & g(x))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 8),
    st.sets(st.integers(0, 255), min_size=1, max_size=5),
    st.sets(st.integers(0, 255), min_size=1, max_size=5),
)
def test_or_and_commutative(n, aa, bb):
    full = (1 << n) - 1
    f = MonotoneFunction.from_masks(n, (m & full for m in aa))
    g = MonotoneFunction.from_masks(n, (m & full for m in bb))
    assert f | g == g | f
    assert f & g == g & f


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 6),
    st.sets(st.integers(0, 63), min_size=1, max_size=4),
    st.sets(st.integers(0, 63), min_size=1, max_size=4),
    st.sets(st.integers(0, 63), min_size=1, max_size=4),
)
def test_or_and_associative(n, aa, bb, cc):
    full = (1 << n) - 1
    f, g, h = (
        MonotoneFunction.from_masks(n, (m & full for m in s)) for s in (aa, bb, cc)
    )
    assert (f | g) | h == f | (g | h)
    assert (f & g) & h == f & (g & h)


class TestClosed:
    def test_indicator_closed_at_standard_eps(self):
        n, c = 6, 2
        params = ClosureParams(eps=float(n) ** (-2 * c), c=c)
        assert is_closed(MonotoneFunction.indicator(n, 1), params).closed

    def test_constant_one_closed(self):
        params = ClosureParams(eps=0.01, c=2)
        assert is_closed(MonotoneFunction.constant1(5), params).closed

    def test_constant_zero_closed(self):
        params = ClosureParams(eps=0.01, c=2)
        assert is_closed(MonotoneFunction.constant0(5), params).closed

    def test_singletons_witness_empty_set(self):
        n = 8
        f = mf(n, *[(i,) for i in range(1, n + 1)])
        report = is_closed(f, ClosureParams(eps=0.9, c=1))
        assert not report.closed
        assert report.witness == 0
        assert report.probability.value == 1 - Fraction(1, 2) ** n


class TestClosure:
    def test_fixpoint_on_constant_one(self):
        params = ClosureParams(eps=0.1, c=2)
        one = MonotoneFunction.constant1(4)
        assert closure(one, params) == one

    def test_fixpoint_on_indicator(self):
        n, c = 6, 2
        params = ClosureParams(eps=float(n) ** (-2 * c), c=c)
        ind = MonotoneFunction.indicator(n, 2)
        assert closure(ind, params) == ind

    def test_singletons_close_to_constant_one(self):
        f = mf(4, (1,), (2,), (3,), (4,))
        cl = closure(f, ClosureParams(eps=0.9, c=2))
        assert cl.is_constant1

    def test_pointwise_dominates_input(self):
        rng = random.Random(1)
        for _ in range(10):
            n = rng.randint(3, 8)
            f = random_monotone(n, rng)
            cl = closure(f, ClosureParams(eps=0.2, c=2))
            assert f.le(cl)
            for x in range(1 << n):
                assert f(x) <= cl(x)

    def test_idempotent(self):
        rng = random.Random(2)
        params = ClosureParams(eps=0.15, c=2)
        for _ in range(10):
            f = random_monotone(6, rng)
            cl = closure(f, params)
            assert closure(cl, params) == cl

    def test_scan_order_invariance(self):
        rng = random.Random(3)
        params = ClosureParams(eps=0.25, c=2)
        for _ in range(15):
            n = rng.randint(3, 5)
            f = random_monotone(n, rng)
            want = reversed_scan_closure(n, f.minterms, params.eps, params.c)
            assert set(closure(f, params).minterms) == want

    def test_and_of_closed_is_closed(self):
        rng = random.Random(4)
        params = ClosureParams(eps=0.2, c=2)
        for _ in range(10):
            f = closure(random_monotone(6, rng), params)
            g = closure(random_monotone(6, rng), params)
            assert is_closed(f & g, params).closed

    def test_tiny_eps_means_no_additions(self):
        # nothing reaches probability > 1 - eps when eps is absurdly small
        rng = random.Random(5)
        params = ClosureParams(eps=1e-12, c=2)
        for _ in range(5):
            f = random_monotone(5, rng)
            if not any(m == 0 for m in f.minterms):
                assert closure(f, params) == f or f.le(closure(f, params))


# plain and clique readings; a single-vertex minterm has no edges, so on the
# clique reading every candidate's reduced family holds the zero mask
_MC_SCANS = {
    "plain": (mf(6, (1, 2, 3), (3, 4, 5), (1, 5, 6)), ClosureParams(eps=0.5, c=3)),
    "clique": (clique_function(5, [0b00111, 0b01110, 0b11100]), CliqueApproxParams(eps=0.8, c=3)),
    "clique-zero-mask": (MonotoneFunction.from_masks(5, [0b00001, 0b11100]),
                         CliqueApproxParams(eps=0.5, c=3)),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("reading", sorted(_MC_SCANS))
def test_mc_closure_is_the_per_candidate_scan(reading, seed):
    # each round's report, and the fixpoint, are the oracle's one candidate at a time
    f, params = _MC_SCANS[reading]
    current, rounds = f, 0
    while True:
        found = mc_closedness_scan(current, params, 200, seed)
        report = is_closed(current, params, "mc", 200, seed)
        if found is None:
            assert report == (True, None, None, ())
            break
        witness, est = found
        assert report == (False, witness, est, (witness,))
        current = MonotoneFunction.from_masks(f.n, current.minterms + (witness,))
        rounds += 1
    assert rounds >= 3
    assert closure(f, params, "mc", 200, seed) == current


class TestTrim:
    def test_keeps_small_minterms(self):
        f = mf(6, (1, 2), (3, 4, 5))
        assert trim(f, 2) == mf(6, (1, 2))

    def test_all_large_becomes_constant_zero(self):
        f = mf(6, (1, 2, 3), (4, 5, 6))
        assert trim(f, 2).is_constant0

    def test_constant_one_untouched(self):
        one = MonotoneFunction.constant1(6)
        assert trim(one, 1) == one

    def test_pointwise_below_and_idempotent(self):
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(2, 7)
            f = random_monotone(n, rng)
            t = trim(f, 2)
            assert t.le(f)
            assert trim(t, 2) == t


class TestApproxOps:
    def test_trim_size_defaults_to_half_c(self):
        f = mf(6, (1, 2))  # closed: no |A| <= 2 without {1, 2} gets near-certain acceptance
        assert ClosureParams(eps=1e-9, c=2).trim == 1
        assert approx_or(f, f, ClosureParams(eps=1e-9, c=2)).is_constant0
        assert approx_or(f, f, ClosureParams(eps=1e-9, c=2, trim=2)) == f

    def test_or_of_indicators_already_closed(self):
        n, c = 6, 2
        params = ClosureParams(eps=float(n) ** (-2 * c), c=c)
        f = MonotoneFunction.indicator(n, 1)
        g = MonotoneFunction.indicator(n, 2)
        got = approx_or(f, g, params)
        assert got == (f | g)
        assert is_closed(f | g, params).closed

    def test_and_with_constant_zero(self):
        n = 6
        params = ClosureParams(eps=float(n) ** (-4), c=2)
        zero = MonotoneFunction.constant0(n)
        f = MonotoneFunction.indicator(n, 1)
        assert approx_and(zero, f, params).is_constant0

    def test_idempotent_on_algebra_members(self):
        n, c = 6, 2
        params = ClosureParams(eps=float(n) ** (-2 * c), c=c)
        f = approx_or(MonotoneFunction.indicator(n, 1), MonotoneFunction.indicator(n, 2), params)
        assert approx_or(f, f, params) == f


class TestCircuits:
    def test_single_input(self):
        c = circuit_from_text("INPUT 2\nOUTPUT 1\n", 4)
        assert c.eval(mask_of([2], 4)) == 1
        assert c.eval(mask_of([1], 4)) == 0
        assert c.size == 0

    def test_or_of_inputs(self):
        c = circuit_from_text("INPUT 1\nINPUT 2\nOR 1 2\nOUTPUT 3\n", 4)
        assert c.eval(mask_of([2], 4)) == 1
        assert c.eval(0) == 0

    def test_and_of_or(self):
        text = "INPUT 1\nINPUT 2\nINPUT 3\nOR 1 2\nAND 4 3\nOUTPUT 5\n"
        c = circuit_from_text(text, 3)
        assert c.eval(mask_of([1, 3], 3)) == 1
        assert c.eval(mask_of([1, 2], 3)) == 0
        assert c.size == 2

    def test_round_trip(self):
        text = "INPUT 1\nINPUT 2\nAND 1 2\nOUTPUT 3\n"
        c = circuit_from_text(text, 4)
        assert circuit_to_text(c) == text

    @pytest.mark.parametrize("text,line", [
        ("INPUT 1\nOR 1\nOUTPUT 2\n", "line 2: OR takes 2 integer operand(s), got 'OR 1'"),
        ("INPUT\nOUTPUT 1\n", "line 1: INPUT takes 1 integer operand(s), got 'INPUT'"),
        ("INPUT 1\n\nOUTPUT\n", "line 3: OUTPUT takes 1 integer operand(s), got 'OUTPUT'"),
        ("INPUT 1\nINPUT 2\nINPUT 3\nAND 1 2 3\nOUTPUT 4\n",
         "line 4: AND takes 2 integer operand(s), got 'AND 1 2 3'"),
        ("INPUT 1\nINPUT x\nOUTPUT 1\n", "line 2: INPUT takes 1 integer operand(s), got 'INPUT x'"),
        ("INPUT 1\nINPUT 2\nOUTPUT 1\n# last\nOUTPUT 2\n", "line 5: second OUTPUT line 'OUTPUT 2'"),
        ("INPUT 1\nNOT 1\nOUTPUT 1\n", "line 2: unknown directive 'NOT' in 'NOT 1'"),
    ], ids=["or-one-operand", "input-bare", "output-bare", "and-three-operands",
            "non-integer", "second-output", "unknown-directive"])
    def test_malformed_line_names_its_number_and_text(self, text, line):
        with pytest.raises(ValueError) as err:
            circuit_from_text(text, 3)
        assert str(err.value) == line

    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError):
            MonotoneCircuit(3, (("or", 1, 2), ("input", 1)), 1)

    def test_circuit_function_matches_eval(self):
        text = "INPUT 1\nINPUT 2\nINPUT 3\nOR 1 2\nAND 4 3\nOR 4 5\nOUTPUT 6\n"
        c = circuit_from_text(text, 3)
        f = circuit_function(c)
        for x in range(8):
            assert f(x) == c.eval(x)


class TestApproximateCircuit:
    def setup_method(self):
        self.pos = lambda n, p: PBiasedDistribution(n, Fraction(*p))
        self.neg = lambda n: PBiasedDistribution(n, Fraction(1, 2))

    def test_single_input_gate_no_errors(self):
        c = circuit_from_text("INPUT 1\nOUTPUT 1\n", 5)
        params = ClosureParams(eps=5.0 ** (-4), c=2)
        ap, ledger = approximate_circuit(
            c, params, self.pos(5, (1, 4)), self.neg(5)
        )
        assert ap == MonotoneFunction.indicator(5, 1)
        assert ledger.total_positive == 0 and ledger.total_negative == 0

    def test_or_gate_no_errors_when_closed(self):
        n, c_param = 6, 4
        c = circuit_from_text("INPUT 1\nINPUT 2\nOR 1 2\nOUTPUT 3\n", n)
        params = ClosureParams(eps=float(n) ** (-2 * c_param), c=c_param)
        ap, ledger = approximate_circuit(c, params, self.pos(n, (1, 4)), self.neg(n))
        assert ap == mf(n, (1,), (2,))
        assert ledger.total_positive == 0 and ledger.total_negative == 0

    def test_trimmed_joint_minterm_error_is_exact(self):
        # AND(AND(x1,x2), x3) at c=4 trims the size-3 joint minterm {1,2,3};
        # the positive error at the top gate is exactly Pr[y >= that minterm]
        n, c_param = 8, 4
        p_pos = Fraction(1, 4)
        text = "INPUT 1\nINPUT 2\nINPUT 3\nAND 1 2\nAND 4 3\nOUTPUT 5\n"
        circ = circuit_from_text(text, n)
        params = ClosureParams(eps=float(n) ** (-2 * c_param), c=c_param)
        ap, ledger = approximate_circuit(
            circ, params, self.pos(n, (1, 4)), self.neg(n)
        )
        assert ap.is_constant0
        top = ledger.entries[-1]
        assert top.positive_error == p_pos**3
        # trimming only helps on the negative side
        assert top.negative_error == 0
        # the trimming bound: sum over trimmed sizes of p^l * count
        assert top.positive_error <= sum(
            p_pos**l * len([m for m in [(1, 2, 3)] if len(m) == l]) for l in (2, 3, 4)
        )

    def test_ledger_csv_shape(self):
        c = circuit_from_text("INPUT 1\nINPUT 2\nAND 1 2\nOUTPUT 3\n", 6)
        params = ClosureParams(eps=6.0 ** (-8), c=4)
        _, ledger = approximate_circuit(c, params, self.pos(6, (1, 2)), self.neg(6))
        csv = ledger.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "gate,kind,pos_err,neg_err"
        assert len(lines) == 4

    def test_mc_engine_close_to_exact(self):
        n, c_param = 8, 4
        text = "INPUT 1\nINPUT 2\nINPUT 3\nAND 1 2\nAND 4 3\nOUTPUT 5\n"
        circ = circuit_from_text(text, n)
        params = ClosureParams(eps=float(n) ** (-2 * c_param), c=c_param)
        _, exact_ledger = approximate_circuit(
            circ, params, self.pos(n, (1, 4)), self.neg(n)
        )
        _, mc_ledger = approximate_circuit(
            circ, params, self.pos(n, (1, 4)), self.neg(n),
            engine="mc", samples=20_000, seed=9,
        )
        for ee, me in zip(exact_ledger.entries, mc_ledger.entries):
            assert abs(float(ee.positive_error) - me.positive_error) < 0.02
            assert abs(float(ee.negative_error) - me.negative_error) < 0.02

    @pytest.mark.parametrize("engine", ["exact", "mc"])
    def test_distributions_must_have_the_circuit_n(self, engine):
        # AND(x1, x12) over n = 12 against distributions over 11 columns: exact would read x12
        # as biased past the split and mc as absent from every row, so either side is refused
        circ = circuit_from_text("INPUT 1\nINPUT 12\nAND 1 2\nOUTPUT 3\n", 12)
        params = ClosureParams(eps=0.1, c=1)
        short, full = self.neg(11), self.neg(12)
        positive = PositiveTestDistribution(build_hr_family(HRParams(11, 2, 3)))
        assert positive.n == 11
        for pos, neg in ((short, short), (short, full), (full, short), (positive, full)):
            with pytest.raises(ValueError, match=f"n = 12.* n = {pos.n} .* n = {neg.n}"):
                approximate_circuit(circ, params, pos, neg, engine, 20_000, 1)
        # with the circuit's n both engines charge the trimmed AND gate Pr[x1 and x12] = 1/4
        _, ledger = approximate_circuit(circ, params, full, full, engine, 20_000, 1)
        assert abs(ledger.entries[-1].positive_error - Fraction(1, 4)) < 0.02


def random_circuit(n, rng, size):
    gates = [("input", j) for j in range(1, n + 1)]
    for _ in range(size):
        gates.append((rng.choice(("or", "and")), rng.randint(1, len(gates)), rng.randint(1, len(gates))))
    return MonotoneCircuit(n, tuple(gates), len(gates))


def or_of_ands(n, terms):
    """The DNF over ``terms`` as a chain of ANDs per term, then a chain of ORs."""
    gates = [("input", i) for i in range(1, n + 1)]
    heads = []
    for m in terms:
        elems = elements_of(m)
        cur = elems[0]
        for e in elems[1:]:
            gates.append(("and", cur, e))
            cur = len(gates)
        heads.append(cur)
    cur = heads[0]
    for h in heads[1:]:
        gates.append(("or", cur, h))
        cur = len(gates)
    return MonotoneCircuit(n, tuple(gates), cur)


def gate_functions(circuit, params, **kw):
    """The final approximator and, per gate, (raw, approximator) rebuilt with approx_or/and."""
    approx, per_gate = [], []
    for gate in circuit.gates:
        if gate[0] == "input":
            approx.append(MonotoneFunction.indicator(circuit.n, 1 << (gate[1] - 1)))
            per_gate.append(None)
            continue
        fa, fb = approx[gate[1] - 1], approx[gate[2] - 1]
        if gate[0] == "or":
            raw, ap = fa | fb, approx_or(fa, fb, params, **kw)
        else:
            raw, ap = fa & fb, approx_and(fa, fb, params, **kw)
        approx.append(ap)
        per_gate.append((raw, ap))
    return approx[circuit.output - 1], per_gate


class TestLedgerAgainstOracles:
    """Every exact ledger entry against brute-force sums over the whole support."""

    def check(self, circuit, params, pos, neg, pos_prob, neg_prob):
        ap, ledger = approximate_circuit(circuit, params, pos, neg)
        final, per_gate = gate_functions(circuit, params)
        assert ap == final
        assert len(ledger.entries) == len(circuit.gates)
        charged = 0
        for e, fs in zip(ledger.entries, per_gate):
            if fs is None:
                assert e.positive_error == 0 and e.negative_error == 0
                continue
            raw, a = fs
            assert e.positive_error == pos_prob(lambda x: raw(x) and not a(x))
            assert e.negative_error == neg_prob(lambda x: not raw(x) and a(x))
            charged += e.positive_error > 0 or e.negative_error > 0
        # the errors telescope: the end-to-end disagreement is at most each side's total
        assert pos_prob(lambda x: circuit.eval(x) and not ap(x)) <= ledger.total_positive
        assert neg_prob(lambda x: not circuit.eval(x) and ap(x)) <= ledger.total_negative
        return charged

    def test_random_circuits_on_pbiased_sides(self):
        rng = random.Random(12)
        ps = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
        charged = 0
        for _ in range(25):
            n = rng.randint(2, 8)
            circuit = random_circuit(n, rng, rng.randint(2, 10))
            params = ClosureParams(eps=rng.choice((0.05, 0.1, 0.2, 0.3)), c=rng.randint(1, 4),
                                   noise_p=rng.choice((0.25, 0.5)))
            p_pos, p_neg = rng.choice(ps), rng.choice(ps)
            charged += self.check(
                circuit, params, PBiasedDistribution(n, p_pos), PBiasedDistribution(n, p_neg),
                lambda e: brute_probability(e, n, p_pos), lambda e: brute_probability(e, n, p_neg),
            )
        assert charged > 0  # the oracle comparison saw nonzero entries

    @pytest.mark.parametrize("n,c,k", [(5, 2, 3), (7, 2, 3)])
    def test_hr_or_of_ands_circuit(self, n, c, k):
        hr = build_hr_family(HRParams(n, c, k))
        circuit = or_of_ands(n, hr.family.members)
        params = ClosureParams(eps=0.1, c=4)
        charged = self.check(
            circuit, params, PositiveTestDistribution(hr), PBiasedDistribution(n, Fraction(1, 2)),
            lambda e: brute_polynomial_probability(e, n, c, k),
            lambda e: brute_probability(e, n, Fraction(1, 2)),
        )
        assert charged > 0

    def test_mc_ledger_entries_are_the_joint_estimates(self):
        rng = random.Random(4)
        hr = build_hr_family(HRParams(5, 2, 3))
        # each distribution with its per-draw reference sampler
        cases = [(or_of_ands(5, hr.family.members), PositiveTestDistribution(hr),
                  lambda s: positive_draw(hr, s))]
        for _ in range(3):
            n = rng.randint(3, 6)
            cases.append((random_circuit(n, rng, 6), PBiasedDistribution(n, Fraction(1, 4)),
                          lambda s, n=n: p_subset_draw(n, Fraction(1, 4), s)))
        params = ClosureParams(eps=0.45, c=2)  # loose enough that closures add minterms
        nonzero = [0, 0]
        for seed, (circuit, pos, pos_draw) in enumerate(cases, start=1):
            neg = PBiasedDistribution(circuit.n, Fraction(1, 2))
            neg_draw = lambda s, n=circuit.n: p_subset_draw(n, Fraction(1, 2), s)
            ap, ledger = approximate_circuit(circuit, params, pos, neg, "mc", 200, seed)
            final, per_gate = gate_functions(circuit, params, engine="mc", samples=200, seed=seed)
            assert ap == final
            for idx, (e, fs) in enumerate(zip(ledger.entries, per_gate), start=1):
                if fs is None:
                    continue
                raw, a = fs
                pos_est = mc_event_probability(lambda x: raw(x) == 1 and a(x) == 0, pos_draw,
                                               200, seed=seed, stream_id=2 * idx)
                neg_est = mc_event_probability(lambda x: raw(x) == 0 and a(x) == 1, neg_draw,
                                               200, seed=seed, stream_id=2 * idx + 1)
                assert (e.positive_error, e.negative_error) == (pos_est.value, neg_est.value)
                nonzero[0] += e.positive_error > 0
                nonzero[1] += e.negative_error > 0
        assert min(nonzero) > 0  # both sides were charged somewhere


def _ledger_rows(ledger):
    return [(e.gate, e.kind, e.positive_error, e.negative_error) for e in ledger.entries]


def _shortcut_cases(c=4):
    """The HR(11,2,3) OR-of-ANDs circuit and random OR-of-ANDs circuits on HR(7,2,3) and
    HR(11,2,3), each with its positive distribution and two closure settings: eps 1/10 at
    scan width ``c`` (every exact closure certified at c = 4), and eps 0.45 at c = 2, where
    closures add minterms."""
    rng = random.Random(29)
    cases = []
    for n in (7, 11):
        hr = build_hr_family(HRParams(n, 2, 3))
        circuits = [or_of_ands(n, hr.family.members)] if n == 11 else []
        circuits += [or_of_ands(n, [sum(1 << b for b in rng.sample(range(n), rng.randint(1, 3)))
                                    for _ in range(rng.randint(1, 6))]) for _ in range(3)]
        cases += [(circuit, PositiveTestDistribution(hr), params) for circuit in circuits
                  for params in (ClosureParams(eps=0.1, c=c), ClosureParams(eps=0.45, c=2))]
    return cases


class TestLedgerShortcut:
    """A side equal to either reads 0 with no reading; the ledger stays the four-reading one."""

    def test_exact_ledger_is_the_four_reading_ledger(self):
        charged = 0
        for circuit, pos, params in _shortcut_cases():
            neg = PBiasedDistribution(circuit.n, Fraction(1, 2))
            ap, ledger = approximate_circuit(circuit, params, pos, neg)
            final, per_gate = gate_functions(circuit, params)
            want = reading_ledger(circuit, per_gate, pos, neg)
            assert ap == final
            assert _ledger_rows(ledger) == want
            assert [tuple(map(type, r)) for r in _ledger_rows(ledger)] == [
                tuple(map(type, r)) for r in want]
            charged += sum(1 for r in want if r[2] or r[3])
        assert charged > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_mc_ledger_is_the_four_reading_ledger(self, seed):
        charged = 0
        for circuit, pos, params in _shortcut_cases(c=2):  # a Monte-Carlo scan of c = 4 is slow
            neg = PBiasedDistribution(circuit.n, Fraction(1, 2))
            ap, ledger = approximate_circuit(circuit, params, pos, neg, "mc", 200, seed)
            final, per_gate = gate_functions(circuit, params, engine="mc", samples=200, seed=seed)
            want = reading_ledger(circuit, per_gate, pos, neg, 200,
                                  lambda k: CounterStream(seed, k))
            assert ap == final
            assert _ledger_rows(ledger) == want
            assert [tuple(map(type, r)) for r in _ledger_rows(ledger)] == [
                tuple(map(type, r)) for r in want]
            charged += sum(1 for r in want if r[2] or r[3])
        assert charged > 0

    def test_certified_gates_make_no_negative_reading(self, monkeypatch):
        # every closure of the HR(11,2,3) circuit at eps 1/10, c 4 is certified, so
        # ap = trim(raw) <= raw and either = raw: only positive pairs with ap != raw are read
        hr = build_hr_family(HRParams(11, 2, 3))
        circuit = or_of_ands(11, hr.family.members)
        params = ClosureParams(eps=0.1, c=4)
        pos, neg = PositiveTestDistribution(hr), PBiasedDistribution(11, Fraction(1, 2))
        reads = {"pos": 0, "neg": 0}
        for name, dist in (("pos", pos), ("neg", neg)):
            real = dist.acceptance
            monkeypatch.setattr(dist, "acceptance",
                                lambda f, name=name, real=real: reads.__setitem__(
                                    name, reads[name] + 1) or real(f))
        approximate_circuit(circuit, params, pos, neg)
        _, per_gate = gate_functions(circuit, params)
        changed = sum(1 for fs in per_gate if fs is not None and fs[0] != fs[1])
        assert reads == {"pos": 2 * changed, "neg": 0}
        assert 0 < changed < circuit.size

    def test_equal_sides_still_refuse_few_samples(self, monkeypatch):
        # OR(x1, x1) with closures that add nothing: both sides equal either at every gate,
        # and the Monte-Carlo reading still refuses fewer than 100 samples without drawing
        monkeypatch.setattr(monotone, "closure", lambda f, *a: f)
        circuit = circuit_from_text("INPUT 1\nOR 1 1\nOUTPUT 2\n", 3)
        params = ClosureParams(eps=0.1, c=2)
        dist = PBiasedDistribution(3, Fraction(1, 2))
        with pytest.raises(ValueError, match="100 samples"):
            approximate_circuit(circuit, params, dist, dist, "mc", 50, 1)
        _, ledger = approximate_circuit(circuit, params, dist, dist, "mc", 100, 1)
        assert _ledger_rows(ledger) == [(1, "input", 0, 0), (2, "or", 0.0, 0.0)]
        assert type(ledger.entries[1].positive_error) is float


class TestClosureErrorBound:
    def test_closed_function_has_zero_error(self):
        n = 6
        params = ClosureParams(eps=float(n) ** (-4), c=2)
        f = MonotoneFunction.indicator(n, 1)
        lhs, rhs = closure_error_bound_check(f, params)
        assert lhs == 0

    def test_bound_holds_on_singletons(self):
        n = 6
        params = ClosureParams(eps=Fraction(1, 5), c=2)
        f = mf(n, *[(i,) for i in range(1, n + 1)])
        lhs, rhs = closure_error_bound_check(f, params)
        assert rhs == Fraction(1, 5) * (1 + 6 + 15)
        assert lhs <= rhs

    def test_random_functions_obey_bound(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randint(4, 8)
            f = random_monotone(n, rng)
            params = ClosureParams(eps=0.1, c=2)
            lhs, rhs = closure_error_bound_check(f, params)
            assert 0 <= lhs <= rhs


class TestClosedMintermBound:
    def test_constant_one_counts(self):
        params = ClosureParams(eps=0.1, c=3)
        rows = closed_minterm_bound_check(MonotoneFunction.constant1(8), params, B=1.0)
        assert [(size, count) for size, count, _ in rows] == [(1, 0), (2, 0), (3, 0)]

    def test_closure_of_pairs_counts(self):
        rng = random.Random(9)
        n = 10
        params = ClosureParams(eps=float(n) ** (-4), c=2)
        masks = set()
        while len(masks) < 6:
            a, b = rng.sample(range(n), 2)
            masks.add(1 << a | 1 << b)
        f = closure(MonotoneFunction.from_masks(n, masks), params)
        rows = closed_minterm_bound_check(f, params, B=64.0)
        for size, count, bound in rows:
            assert count == sum(1 for m in f.minterms if m.bit_count() == size)
            assert count <= bound  # generous B makes the bound comfortable


NOISES = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 3), Fraction(2, 5)]


def on_scan_path(fn, *args, **kw):
    """``fn`` with the truth-table strategy switched off: every n is above its limit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monotone, "TABLE_MAX_N", 0)
        return fn(*args, **kw)


@st.composite
def closure_cases(draw):
    """A function of one to five minterms of size 1 to 3 with n <= 10, c <= 4, a
    noise from NOISES and a rational eps, often an exact tie: 1 - eps is the
    acceptance of some rejected candidate, and another one's lies above it."""
    n = draw(st.integers(1, 10))
    c = draw(st.integers(0, 4))
    p = draw(st.sampled_from(NOISES))
    sets = draw(st.lists(st.sets(st.integers(1, n), min_size=1, max_size=3), min_size=1, max_size=5))
    f = MonotoneFunction.from_masks(n, (mask_of(s, n) for s in sets))
    eps = draw(st.fractions(Fraction(1, 50), Fraction(49, 50), max_denominator=50))
    values = sorted({coverage_exact(f.minterm_family(), a, p).value
                     for a in iter_masks_up_to(n, c) if not f(a)} - {0, 1})
    if len(values) > 1 and draw(st.booleans()):  # below the top value: a violation too
        eps = 1 - draw(st.sampled_from(values[:-1]))
    return f, ClosureParams(eps=eps, c=c, noise_p=p)


class TestTruthTableClosure:
    """The truth-table closure against the per-candidate scan and the oracles."""

    @settings(max_examples=100, deadline=None)
    @given(closure_cases())
    def test_matches_scan_reversed_scan_and_brute_force(self, case):
        f, params = case
        n, eps, c, p = f.n, params.eps, params.c, params.noise_p
        cl = closure(f, params)
        assert cl == on_scan_path(closure, f, params)
        assert set(cl.minterms) == brute_closure(n, f.minterms, eps, c, p)
        if n <= 6:  # the reversed scan pays 2^n Fractions per candidate and round
            assert set(cl.minterms) == reversed_scan_closure(n, f.minterms, eps, c, p)
        report = is_closed(f, params)
        assert report == on_scan_path(is_closed, f, params)
        if not report.closed:
            assert report.probability == coverage_exact(f.minterm_family(), report.witness, p)

    def test_reports_every_violator_with_the_first_as_witness(self):
        rng = random.Random(21)
        seen = 0
        for _ in range(40):
            n, c = rng.randint(2, 8), rng.randint(0, 3)
            p = rng.choice(NOISES)
            f = random_monotone(n, rng, max_minterms=4)
            params = ClosureParams(eps=Fraction(rng.randint(1, 9), 10), c=c, noise_p=p)
            threshold = 1 - params.eps
            want = tuple(a for a in iter_masks_up_to(n, c) if not f(a)
                         and coverage_exact(f.minterm_family(), a, p).value > threshold)
            report = is_closed(f, params)
            assert report.violators == want
            assert report.witness == (want[0] if want else None)
            scan = on_scan_path(is_closed, f, params)
            assert scan.violators == want
            seen += len(want) > 1
        assert seen > 0  # some round added more than one violator

    def test_clique_closure_adds_every_violator_of_a_round(self, monkeypatch):
        # the four edges {5,6}, {1,7}, {6,7}, {7,8} on 8 vertices close to every edge; one
        # violator per round would take 24 violating rounds and a closed one
        rounds, real = [], monotone.is_closed
        monkeypatch.setattr(monotone, "is_closed", lambda *a: rounds.append(a) or real(*a))
        got = closure(clique_function(8, (48, 65, 96, 192)), CliqueApproxParams(eps=0.1, c=3))
        assert sorted(got.minterms) == sorted(a | b for a in (1 << i for i in range(8))
                                              for b in (1 << j for j in range(8)) if a < b)
        assert len(rounds) < 25

    def test_scan_order_is_the_candidate_order(self):
        for n, c in [(1, 0), (5, 2), (7, 7), (9, 4)]:
            masks, weight = monotone._scan_order(n, c)
            assert masks.tolist() == list(iter_masks_up_to(n, c))
            assert weight.tolist() == [m.bit_count() for m in iter_masks_up_to(n, c)]

    def test_strategy_covers_the_exact_plain_reading_only(self, monkeypatch):
        # three disjoint pairs lie above the union-bound certificate at each noise below
        # (3 * 1/3 = 1 > 3/4, 3 * 0.3 > 3/4), so each closure reaches the path it names
        calls, real = [], monotone._table_scan
        monkeypatch.setattr(monotone, "_table_scan", lambda *a: calls.append(a) or real(*a))
        scans, real_coverage = [], monotone.coverage_exact
        monkeypatch.setattr(monotone, "coverage_exact",
                            lambda *a: scans.append(a) or real_coverage(*a))
        f = mf(6, (1, 2), (3, 4), (5, 6))
        closure(f, ClosureParams(eps=Fraction(1, 4), c=2, noise_p=Fraction(1, 3)))
        assert len(calls) > 0 and scans == []
        calls.clear()
        closure(f, ClosureParams(eps=0.25, c=2, noise_p=0.3))  # b = 2^54: b^6 >= 2^63
        assert len(scans) > 0
        closure(f, ClosureParams(eps=0.25, c=2), "mc", samples=500, seed=1)
        closure(clique_function(6, [0b111]), CliqueApproxParams(eps=0.25, c=3))
        on_scan_path(closure, f, ClosureParams(eps=0.25, c=2))
        assert calls == []

    def test_hr_closure_matches_the_scan(self):
        hr = build_hr_family(HRParams(11, 2, 3))
        f = MonotoneFunction.from_masks(11, hr.family.members)
        for params in (ClosureParams(eps=0.1, c=3), ClosureParams(eps=0.01, c=2, noise_p=0.25)):
            assert closure(f, params) == on_scan_path(closure, f, params)

    def test_ledgers_match_fraction_for_fraction(self):
        rng = random.Random(22)
        hr = build_hr_family(HRParams(7, 2, 3))
        cases = [(or_of_ands(7, hr.family.members), ClosureParams(eps=0.1, c=4),
                  PositiveTestDistribution(hr))]
        for _ in range(12):
            n = rng.randint(2, 8)
            params = ClosureParams(eps=Fraction(rng.randint(1, 6), 10), c=rng.randint(1, 4),
                                   noise_p=rng.choice(NOISES))
            cases.append((random_circuit(n, rng, rng.randint(2, 10)), params,
                          PBiasedDistribution(n, rng.choice(NOISES))))
        for circuit, params, pos in cases:
            neg = PBiasedDistribution(circuit.n, Fraction(1, 2))
            want = on_scan_path(approximate_circuit, circuit, params, pos, neg)
            assert approximate_circuit(circuit, params, pos, neg) == want


@st.composite
def certified_cases(draw):
    """A function whose minterm count k keeps k * p <= 1 - eps, with n <= 8, c <= 3, p in
    {1/3, 1/2, 2/3} and eps often at the equality 1 - k * p."""
    n = draw(st.integers(1, 8))
    c = draw(st.integers(0, 3))
    p = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]))
    k = draw(st.integers(0, math.ceil(1 / p) - 1))  # k * p < 1 leaves room for eps > 0
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    f = MonotoneFunction.from_masks(n, masks)  # absorption may only lower the count
    top = min(1 - k * p, Fraction(49, 50))  # eps < 1 for the constant 0
    eps = draw(st.one_of(st.just(top), st.fractions(Fraction(1, 50), top, max_denominator=50)))
    return f, ClosureParams(eps=eps, c=c, noise_p=p)


class TestUnionBoundCertificate:
    """|minterms| * p <= 1 - eps closes f without a truth table or a coverage call."""

    @staticmethod
    def forbid_paths(monkeypatch):
        def fail(*a):
            raise AssertionError("the certificate should have answered")
        monkeypatch.setattr(monotone, "_table_scan", fail)
        monkeypatch.setattr(monotone, "coverage_exact", fail)

    @settings(max_examples=150, deadline=None)
    @given(certified_cases())
    def test_certified_functions_are_their_own_closure(self, case):
        f, params = case
        assert len(f.minterms) * params.noise_p <= 1 - params.eps
        assert brute_closure(f.n, f.minterms, params.eps, params.c, params.noise_p) == set(f.minterms)
        with pytest.MonkeyPatch.context() as mp:
            self.forbid_paths(mp)
            assert is_closed(f, params) == (True, None, None, ())
            assert on_scan_path(is_closed, f, params) == (True, None, None, ())
            assert closure(f, params) == f

    def test_equality_closes(self, monkeypatch):
        # 3 * 1/4 = 1 - 1/4: the test is strict, so the bound's equality case is closed
        f = mf(6, (1, 2), (3, 4), (5, 6))
        params = ClosureParams(eps=Fraction(1, 4), c=3, noise_p=Fraction(1, 4))
        assert brute_closure(6, f.minterms, params.eps, 3, params.noise_p) == set(f.minterms)
        self.forbid_paths(monkeypatch)
        assert is_closed(f, params) == (True, None, None, ())

    def test_one_minterm_over_the_bound_still_scans(self, monkeypatch):
        # 1 * 1/2 > 1 - 3/4: the table answers, and the empty set is a violator
        calls, real = [], monotone._table_scan
        monkeypatch.setattr(monotone, "_table_scan", lambda *a: calls.append(a) or real(*a))
        report = is_closed(mf(3, (1,)), ClosureParams(eps=0.75, c=1))
        assert len(calls) == 1
        assert report.witness == 0 and report.probability.value == Fraction(1, 2)

    def test_clique_reading_keeps_its_violators(self):
        # a one-vertex minterm has no edge, so every candidate is covered with certainty;
        # 1 * 1/2 <= 1 - 1/4 would wrongly certify it on the plain reading's bound
        f = MonotoneFunction(4, (0b1,))
        params = CliqueApproxParams(eps=0.25, c=3)
        report = is_closed(f, params)
        want = tuple(a for a in params.candidates(4) if not a & 1)
        assert not report.closed
        assert report.violators == want and report.witness == want[0]
        assert report.probability.value == 1

    def test_hr11_gates_are_the_brute_force_closures(self, monkeypatch):
        # every gate's raw function and approximator of the HR(11,2,3) OR-of-ANDs circuit at
        # c = 4 against brute_closure plus trim; each closure there is certified
        hr = build_hr_family(HRParams(11, 2, 3))
        circuit = or_of_ands(11, hr.family.members)
        params = ClosureParams(eps=0.1, c=4)
        closures = {}  # raw minterms -> brute-force closure

        def brute_ap(raw):
            if raw.minterms not in closures:
                closures[raw.minterms] = brute_closure(11, raw.minterms, 0.1, 4, Fraction(1, 2))
            return trim(MonotoneFunction.from_masks(11, closures[raw.minterms]), params.trim)

        seen, real = [], monotone.closure
        monkeypatch.setattr(monotone, "closure", lambda f, *a: seen.append(f) or real(f, *a))
        self.forbid_paths(monkeypatch)
        got, _ = approximate_circuit(circuit, params, PositiveTestDistribution(hr),
                                     PBiasedDistribution(11, Fraction(1, 2)))
        approx, raws = [], []
        for gate in circuit.gates:
            if gate[0] == "input":
                approx.append(MonotoneFunction.indicator(11, 1 << (gate[1] - 1)))
                continue
            fa, fb = approx[gate[1] - 1], approx[gate[2] - 1]
            raws.append(fa | fb if gate[0] == "or" else fa & fb)
            approx.append(brute_ap(raws[-1]))
        assert seen == raws
        assert got == approx[circuit.output - 1]


def test_noise_outside_unit_interval_refused():
    for noise in (7, -0.5, Fraction(3, 2)):
        with pytest.raises(ValueError):
            ClosureParams(eps=0.1, c=2, noise_p=noise)


@pytest.mark.parametrize("engine", ["exact", "mc"])
def test_minterm_outside_ground_set_refused(engine):
    # one ValueError at construction, before either engine's closure could see the mask
    with pytest.raises(ValueError, match="outside"):
        closure(MonotoneFunction(3, (8,)), ClosureParams(eps=0.1, c=2), engine, 200, 0)
    with pytest.raises(ValueError, match="outside"):
        MonotoneFunction.from_masks(3, [0b1, 0b1000])


class TestOneAntichainPass:
    def test_from_masks_minimizes_once(self, monkeypatch):
        calls = []

        def counted(masks):
            calls.append(1)
            return antichain_minimize(masks)

        monkeypatch.setattr(monotone, "antichain_minimize", counted)
        f = MonotoneFunction.from_masks(5, [0b111, 0b11, 0b11, 0b10100, 0b111])
        assert calls == [1]
        assert f.minterms == (0b11, 0b10100) and f.n == 5
        calls.clear()
        assert f == MonotoneFunction(5, (0b11, 0b10100))  # direct construction still checks
        assert calls == [1]

    @pytest.mark.parametrize("n", range(0, 9))
    def test_from_masks_is_the_checked_construction(self, n):
        rng = random.Random(n)
        for _ in range(50):
            masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 8))]
            f = MonotoneFunction.from_masks(n, masks)
            g = MonotoneFunction(n, antichain_minimize(masks))
            assert f == g and hash(f) == hash(g)
            assert f.minterms == g.minterms and type(f.minterms) is tuple

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(0, 9))
    def test_a_closure_round_extends_the_antichain(self, data, n):
        # a round adds masks the function rejects: minimizing them alone and dropping
        # the minterms they lie inside is from_masks on the concatenation
        f = MonotoneFunction.from_masks(n, data.draw(st.lists(st.integers(0, (1 << n) - 1),
                                                              max_size=8)))
        masks = [m for m in data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
                 if not f(m)]
        want = MonotoneFunction.from_masks(n, f.minterms + tuple(masks)).minterms
        assert antichain_extend(f.minterms, masks) == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(0, 12))
    def test_the_table_extension_is_antichain_extend(self, data, n):
        # members are unions of two masks, so that many masks contain none of them; the
        # violators are distinct, in any order, up to 80 of them (the crossover is 32 here)
        full = (1 << n) - 1
        pairs = st.tuples(st.integers(0, full), st.integers(0, full)).map(lambda ab: ab[0] | ab[1])
        antichain = antichain_minimize(data.draw(st.lists(pairs, max_size=10)))
        masks = data.draw(st.sets(st.integers(0, full), max_size=80))
        if data.draw(st.booleans()):
            masks.add(0)
        violators = data.draw(st.permutations(
            [v for v in masks if not any(m & v == m for m in antichain)]))
        assert monotone._table_extend(antichain, violators, n) == antichain_extend(
            antichain, violators)
        assert monotone._table_extend(antichain, [], n) == antichain == antichain_extend(
            antichain, [])

    def test_the_table_extension_sees_both_sides_of_the_crossover(self):
        # violator counts just below, at and above the crossover max(MIN, 2^n >> SHIFT)
        rng = random.Random(7)
        for n in (10, 14, 17, 18):
            crossover = max(monotone._TABLE_EXTEND_MIN, (1 << n) >> monotone._TABLE_EXTEND_SHIFT)
            antichain = antichain_minimize(rng.getrandbits(n) | rng.getrandbits(n)
                                           for _ in range(20))
            pool = [v for v in range(1 << n) if not any(m & v == m for m in antichain)]
            for count in (crossover - 1, crossover, crossover + 1):
                violators = rng.sample(pool, count)
                assert monotone._table_extend(antichain, violators, n) == antichain_extend(
                    antichain, violators)

    def test_large_exact_rounds_take_the_table(self, monkeypatch):
        # the exact closures of random functions, with the table path on and off
        rng = random.Random(11)
        calls, real = [], monotone._table_extend
        monkeypatch.setattr(monotone, "_table_extend", lambda *a: calls.append(len(a[1])) or real(*a))
        for _ in range(12):
            n = rng.randint(8, 12)
            f = random_monotone(n, rng, max_minterms=12)
            params = ClosureParams(eps=rng.choice((0.3, 0.45, 0.6)), c=rng.randint(2, 4))
            got = closure(f, params)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(monotone, "_TABLE_EXTEND_MIN", 1 << 30)
                assert closure(f, params) == got
        assert calls and min(calls) >= monotone._TABLE_EXTEND_MIN

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_monte_carlo_closure_never_takes_the_table(self, monkeypatch, seed):
        # one violator a round is below the crossover at every n
        def fail(*a):
            raise AssertionError("a Monte-Carlo round took the table extension")
        monkeypatch.setattr(monotone, "_table_extend", fail)
        f, params = _MC_SCANS["plain"]
        rounds, real = [], monotone.is_closed
        monkeypatch.setattr(monotone, "is_closed", lambda *a: rounds.append(1) or real(*a))
        got = closure(f, params, "mc", 200, seed)
        assert len(rounds) >= 4 and got != f
        assert monotone._TABLE_EXTEND_MIN > 1

    def test_both_constructors_refuse_bad_input(self):
        with pytest.raises(ValueError, match="outside"):
            MonotoneFunction(3, (8,))
        with pytest.raises(ValueError, match="outside"):
            MonotoneFunction.from_masks(3, [0b11, 0b1000])
        with pytest.raises(ValueError, match="outside"):
            MonotoneFunction.from_masks(3, [-1])
        for minterms in ((0b11, 0b1), (0b1, 0b11), (0b10, 0b1), (0b1, 0b1), (0, 0b1)):
            with pytest.raises(ValueError, match="canonical antichain"):
                MonotoneFunction(3, minterms)


@pytest.mark.parametrize("n", range(0, 19))
@pytest.mark.parametrize("noise", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)])
def test_transform_is_the_per_coordinate_loop(n, noise):
    # the low coordinates run on transposed blocks; the integers and dtype must not move
    a, b = noise.numerator, noise.denominator
    rng = np.random.default_rng(n * 10 + b)
    for density in (0.0, 0.2, 1.0):
        table = (rng.random(1 << n) < density).astype(np.uint8)
        want = coordinate_superset_sums(table, n, a, b)
        got = monotone._noisy_acceptance(table, n, a, b)
        assert got.dtype == want.dtype == (np.int32 if b**n < 1 << 31 else np.int64)
        assert got.shape == (1 << n,) and np.array_equal(got, want)


def test_transform_blocks_are_independent(monkeypatch):
    # several transposed blocks, and blocks of one row, give the same integers
    rng = np.random.default_rng(3)
    table = (rng.random(1 << 12) < 0.4).astype(np.uint8)
    want = coordinate_superset_sums(table, 12, 2, 5)
    for rows in (1, 2, 16, 1 << 12):
        monkeypatch.setattr(monotone, "_LOW_ROWS", rows)
        assert np.array_equal(monotone._noisy_acceptance(table, 12, 2, 5), want)


def test_antichain_enumeration_count_matches_dedekind():
    # cross-check the test oracle itself: 168 monotone functions on 4 variables
    assert len(enumerate_antichains(4)) == 168
    assert len(enumerate_antichains(3)) == 20


def test_iter_masks_canonical_order():
    got = list(iter_masks_up_to(4, 2))
    weights = [m.bit_count() for m in got]
    assert weights == sorted(weights)
    for w in set(weights):
        vals = [m for m in got if m.bit_count() == w]
        assert vals == sorted(vals)
    assert len(got) == 1 + 4 + 6
