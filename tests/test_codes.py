import random
from fractions import Fraction
from itertools import combinations

import pytest

from sunflower_circuits import codes
from sunflower_circuits.codes import (
    ArithCircuit,
    Code,
    CoeffPoly,
    Decomposition,
    MonomialSet,
    build_polynomial,
    canonical_decomposition,
    circuit_to_monomials,
    codeword_monomial,
    max_pairwise_agreement,
    reed_solomon_code,
    row_of_residue,
    single_monomial_audit,
    size_lower_bound_report,
    verify_decomposition,
)
from sunflower_circuits.errors import (
    EnumerationTooLargeError,
    NegativeConstantError,
    TooLargeError,
)

from oracles import brute_agreement, eval_polynomial, index_digits, poly_value


class TestReedSolomon:
    def test_small_code_shape(self):
        code = reed_solomon_code(5, 5, 2)
        assert len(code) == 25
        assert max_pairwise_agreement(code) == 1

    def test_constants_never_agree(self):
        code = reed_solomon_code(7, 5, 1)
        assert len(code) == 7
        assert max_pairwise_agreement(code) == 0

    def test_reference_code(self):
        code = reed_solomon_code(11, 9, 3)
        assert len(code) == 1331
        assert max_pairwise_agreement(code) == 2

    def test_agreement_equals_dim_minus_one_grid(self):
        # oracle: the agreement of two evaluation words is the number of
        # roots of their (nonzero) difference polynomial among the points,
        # so the max over pairs is the max root count over difference polys
        def oracle_max_agreement(q, n, dim):
            best = 0
            for index in range(1, q**dim):
                coeffs = index_digits(index, q, dim)
                roots = sum(1 for x in range(n) if poly_value(coeffs, x, q) == 0)
                best = max(best, roots)
            return best

        for q in (5, 7, 11, 13):
            for dim in (2, 3, 4):
                for n in (dim, min(q, dim + 3), q):
                    assert oracle_max_agreement(q, n, dim) == dim - 1
                    if q**dim <= 2048:
                        code = reed_solomon_code(q, n, dim)
                        assert max_pairwise_agreement(code) == dim - 1

    @pytest.mark.parametrize("q,n,dim", [(5, 5, 2), (7, 5, 1), (11, 9, 3), (13, 13, 4)])
    def test_codewords_match_scalar_horner(self, q, n, dim):
        code = reed_solomon_code(q, n, dim)
        assert code.codewords == tuple(
            tuple(poly_value(index_digits(i, q, dim), x, q) for x in range(n))
            for i in range(q**dim)
        )

    def test_word_cap_refuses_at_once(self):
        with pytest.raises(EnumerationTooLargeError):
            reed_solomon_code(101, 50, 5)  # 101^5 words

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            reed_solomon_code(9, 5, 2)  # q not prime
        with pytest.raises(ValueError):
            reed_solomon_code(5, 7, 2)  # n > q

    def test_distinct_words_enforced(self):
        with pytest.raises(ValueError):
            Code(5, 3, ((0, 1, 2), (0, 1, 2)))

    @pytest.mark.parametrize("words", [
        ((0, 1, 2), (0, 1)),  # short word
        ((0, 1, 2), (0, 1, 2, 3)),  # long word
        ((0, 1, 2), (0, -1, 2)),  # coordinate below 0
        ((0, 1, 2), (0, 5, 2)),  # coordinate q
    ])
    def test_invalid_codewords_rejected(self, words):
        with pytest.raises(ValueError):
            Code(5, 3, words)


class TestAgreement:
    def test_near_identical_words(self):
        code = Code(5, 6, ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)))
        assert max_pairwise_agreement(code) == 5

    def test_counts_equal_zeros(self):
        code = Code(3, 4, ((0, 0, 1, 2), (0, 0, 2, 1)))
        assert max_pairwise_agreement(code) == 2

    def test_matches_brute_force(self):
        rng = random.Random(0)
        words = set()
        while len(words) < 30:
            words.add(tuple(rng.randrange(5) for _ in range(8)))
        code = Code(5, 8, tuple(words))
        want = max(
            brute_agreement(a, b) for a, b in combinations(code.codewords, 2)
        )
        assert max_pairwise_agreement(code) == want

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(codes, "AGREEMENT_CAP", 10)
        code = reed_solomon_code(5, 5, 2)
        with pytest.raises(TooLargeError):
            max_pairwise_agreement(code)


class TestPolynomial:
    def test_single_codeword(self):
        code = Code(3, 2, ((1, 0),))
        poly = build_polynomial(code)
        assert poly.monomials == (frozenset({(1, 1), (3, 2)}),)

    def test_monomial_count_equals_code_size(self):
        code = reed_solomon_code(7, 5, 2)
        assert len(build_polynomial(code)) == len(code)

    def test_support_intersection_equals_agreement(self):
        rng = random.Random(1)
        code = reed_solomon_code(7, 6, 2)
        monos = [codeword_monomial(w, code.q) for w in code.codewords]
        idx = list(range(len(code)))
        for _ in range(300):
            i, j = rng.sample(idx, 2)
            inter = len(monos[i] & monos[j])
            agree = brute_agreement(code.codewords[i], code.codewords[j])
            assert inter == agree

    def test_support_intersection_exhaustive_small(self):
        code = reed_solomon_code(5, 4, 2)
        monos = [codeword_monomial(w, 5) for w in code.codewords]
        for (w1, m1), (w2, m2) in combinations(zip(code.codewords, monos), 2):
            assert len(m1 & m2) == brute_agreement(w1, w2)

    def test_row_mapping(self):
        assert row_of_residue(0, 7) == 7
        assert row_of_residue(3, 7) == 3

    def test_eval_all_ones(self):
        code = reed_solomon_code(5, 4, 2)
        poly = build_polynomial(code)
        ones = {(i, j): 1 for i in range(1, 6) for j in range(1, 5)}
        assert eval_polynomial(((m, 1) for m in poly.monomials), ones) == len(code)

    def test_eval_zero_assignment(self):
        code = reed_solomon_code(5, 4, 2)
        poly = build_polynomial(code)
        zeros = {(i, j): 0 for i in range(1, 6) for j in range(1, 5)}
        assert eval_polynomial(((m, 1) for m in poly.monomials), zeros) == 0

    def test_eval_codeword_indicator(self):
        code = reed_solomon_code(5, 4, 2)
        poly = build_polynomial(code)
        word = code.codewords[7]
        assign = {(i, j): 0 for i in range(1, 6) for j in range(1, 5)}
        for j, v in enumerate(word):
            assign[(row_of_residue(v, 5), j + 1)] = 1
        assert eval_polynomial(((m, 1) for m in poly.monomials), assign) == 1

    def test_monomial_shape_validation(self):
        with pytest.raises(ValueError):
            MonomialSet(3, 2, (frozenset({(1, 1), (2, 1)}),))  # two rows, column 1


class TestArithCircuit:
    def test_var_gate(self):
        circ = ArithCircuit(3, 2, (("var", 1, 1),), 1)
        poly, flags = circuit_to_monomials(circ)
        assert poly == {frozenset({(1, 1)}): 1}
        assert all(f.multilinear and f.homogeneous for f in flags)

    def test_mul_of_disjoint_vars(self):
        circ = ArithCircuit(3, 2, (("var", 1, 1), ("var", 2, 2), ("mul", 1, 2)), 3)
        poly, flags = circuit_to_monomials(circ)
        assert poly == {frozenset({(1, 1), (2, 2)}): 1}

    def test_add_matches_direct_evaluation(self):
        rng = random.Random(2)
        circ = ArithCircuit(
            3,
            2,
            (
                ("var", 1, 1),
                ("var", 2, 2),
                ("var", 3, 1),
                ("mul", 1, 2),
                ("mul", 3, 2),
                ("add", 4, 5),
                ("const", Fraction(3, 2)),
                ("mul", 6, 7),
            ),
            8,
        )
        poly, flags = circuit_to_monomials(circ)
        assert all(f.multilinear for f in flags)
        for _ in range(5):
            assign = {
                (i, j): Fraction(rng.randint(0, 5))
                for i in range(1, 4)
                for j in range(1, 3)
            }
            direct = (
                (assign[(1, 1)] * assign[(2, 2)] + assign[(3, 1)] * assign[(2, 2)])
                * Fraction(3, 2)
            )
            assert eval_polynomial(poly.items(), assign) == direct

    def test_squaring_flagged_not_multilinear(self):
        circ = ArithCircuit(3, 2, (("var", 1, 1), ("mul", 1, 1)), 2)
        _, flags = circuit_to_monomials(circ)
        assert not flags[1].multilinear

    def test_mixed_degree_flagged(self):
        circ = ArithCircuit(3, 2, (("var", 1, 1), ("const", 1), ("add", 1, 2)), 3)
        _, flags = circuit_to_monomials(circ)
        assert not flags[2].homogeneous

    def test_negative_constant_rejected(self):
        with pytest.raises(NegativeConstantError):
            ArithCircuit(3, 2, (("const", -1),), 1)


class TestDecomposition:
    def setup_method(self):
        self.code = reed_solomon_code(11, 9, 3)
        self.poly = build_polynomial(self.code)

    def test_canonical_is_valid(self):
        d = canonical_decomposition(self.poly, 9)
        ok, why = verify_decomposition(d, self.poly, 9)
        assert ok, why
        assert len(d) == len(self.code)

    def test_canonical_degrees(self):
        d = canonical_decomposition(self.poly, 9)
        for g, h in d.pairs:
            assert g.degree_set() == {4}
            assert h.degree_set() == {5}
            assert not (g.support & h.support)

    def test_canonical_passes_audit(self):
        d = canonical_decomposition(self.poly, 9)
        ok, counter = single_monomial_audit(d, 2)
        assert ok and counter is None

    def test_size_report(self):
        d = canonical_decomposition(self.poly, 9)
        assert size_lower_bound_report(self.code, d) == (1331, 1331, True)

    def test_shared_variable_rejected(self):
        m = self.poly.monomials[0]
        ordered = sorted(m)
        left = frozenset(ordered[:4])
        # keep the right factor at degree 5 but swap in a left variable
        right = (m - left - {ordered[4]}) | {ordered[0]}
        bad = Decomposition(
            ((CoeffPoly(((left, Fraction(1)),)), CoeffPoly(((right, Fraction(1)),))),)
        )
        ok, why = verify_decomposition(bad, self.poly, 9)
        assert not ok and "share" in why

    def test_degree_window_rejected(self):
        m = self.poly.monomials[0]
        left = frozenset(sorted(m)[:2])  # degree 2 < 9/3
        right = m - left
        bad = Decomposition(
            ((CoeffPoly(((left, Fraction(1)),)), CoeffPoly(((right, Fraction(1)),))),)
        )
        ok, why = verify_decomposition(bad, self.poly, 9)
        assert not ok and "window" in why

    def test_wrong_expansion_rejected(self):
        d = canonical_decomposition(self.poly, 9)
        truncated = Decomposition(d.pairs[:-1])
        ok, why = verify_decomposition(truncated, self.poly, 9)
        assert not ok and "expansion" in why

    def test_merged_candidate_fails_audit_with_big_overlap(self):
        d = canonical_decomposition(self.poly, 9)
        (g1, h1), (g2, _) = d.pairs[0], d.pairs[1]
        merged = Decomposition(
            ((CoeffPoly(tuple(g1.terms) + tuple(g2.terms)), h1),) + d.pairs[2:]
        )
        ok, counter = single_monomial_audit(merged, 2)
        assert not ok
        m1, m2, overlap = counter
        assert 3 * overlap >= 9  # overlap at least n/3 variables
        assert len(m1 & m2) == overlap

    def test_merged_candidate_dichotomy(self):
        # the chimera monomial either sits in the polynomial (impossible for
        # high-distance codes) or the expansion breaks; assert the dichotomy
        d = canonical_decomposition(self.poly, 9)
        (g1, h1), (g2, _) = d.pairs[0], d.pairs[1]
        merged = Decomposition(
            ((CoeffPoly(tuple(g1.terms) + tuple(g2.terms)), h1),) + d.pairs[2:]
        )
        chimera = g2.terms[0][0] | h1.terms[0][0]
        in_poly = chimera in set(self.poly.monomials)
        ok, _ = verify_decomposition(merged, self.poly, 9)
        assert not in_poly
        assert not ok

    def test_empty_decomposition_of_zero_polynomial(self):
        empty_poly = MonomialSet(11, 9, ())
        d = Decomposition(())
        ok, _ = verify_decomposition(d, empty_poly, 9)
        assert ok
        ok2, counter = single_monomial_audit(d, 2)
        assert ok2 and counter is None

    def test_no_admissible_split_for_small_n(self):
        code = reed_solomon_code(5, 4, 2)
        poly = build_polynomial(code)
        with pytest.raises(ValueError):
            canonical_decomposition(poly, 4)

    def test_single_codeword_report(self):
        code = Code(7, 6, ((0, 1, 2, 3, 4, 5),))
        poly = build_polynomial(code)
        d = canonical_decomposition(poly, 6)
        assert size_lower_bound_report(code, d) == (1, 1, True)
