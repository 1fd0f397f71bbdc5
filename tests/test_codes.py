import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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
    variable_bit,
    verify_decomposition,
)
from sunflower_circuits.errors import (
    EnumerationTooLargeError,
    NegativeConstantError,
    TooLargeError,
)

from oracles import (
    agreement_row_scan,
    brute_agreement,
    eval_polynomial,
    index_digits,
    mask_pairs,
    pair_monomial,
    pair_polynomial_order,
    poly_value,
)


def bits_descending(m):
    """The one-variable monomials of m, highest bit first: its sorted (row, column) order."""
    return [1 << b for b in reversed(range(m.bit_length())) if m >> b & 1]


def single_pair(left, right):
    return (CoeffPoly(((left, Fraction(1)),)), CoeffPoly(((right, Fraction(1)),)))


@st.composite
def random_codes(draw, min_words=2, max_words=60, near_pair=False):
    """Distinct random words over q in {2, 3, 5, 7, 11}; with ``near_pair``, two
    of them differ in one coordinate only."""
    q = draw(st.sampled_from((2, 3, 5, 7, 11)))
    m = draw(st.integers(min_words, max_words))
    n_min = 1
    while q**n_min < m:
        n_min += 1
    n = draw(st.integers(n_min, n_min + 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    words = [index_digits(i, q, n) for i in rng.sample(range(q**n), m - near_pair)]
    if near_pair:
        twin = list(rng.choice(words))
        col = rng.randrange(n)
        twin[col] = (twin[col] + rng.randrange(1, q)) % q
        if tuple(twin) not in words:
            words.insert(rng.randrange(len(words) + 1), tuple(twin))
    return Code(q, n, tuple(words))


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

    @given(random_codes())
    @settings(max_examples=80, deadline=None)
    def test_matches_row_scan(self, code):
        assert max_pairwise_agreement(code) == agreement_row_scan(code.codewords)

    @given(random_codes(min_words=600, max_words=900))
    @settings(max_examples=10, deadline=None)
    def test_matches_row_scan_across_blocks(self, code):
        # more than 2^18 / 600 words in a block's counters: at least two blocks
        assert max_pairwise_agreement(code) == agreement_row_scan(code.codewords)

    @given(random_codes(max_words=700, near_pair=True))
    @settings(max_examples=30, deadline=None)
    def test_pair_differing_in_one_coordinate(self, code):
        assert max_pairwise_agreement(code) == code.n - 1 == agreement_row_scan(code.codewords)

    @given(random_codes(max_words=40, near_pair=True), st.sampled_from((1, 7, 64)))
    @settings(max_examples=40, deadline=None)
    def test_tiny_blocks(self, code, cells):
        with mock.patch.object(codes, "AGREEMENT_BLOCK_CELLS", cells):
            assert max_pairwise_agreement(code) == agreement_row_scan(code.codewords)
            assert max_pairwise_agreement(reed_solomon_code(5, 5, 2)) == 1


class TestPolynomial:
    def test_single_codeword(self):
        code = Code(3, 2, ((1, 0),))
        poly = build_polynomial(code)
        assert poly.monomials == (variable_bit(1, 1, 3, 2) | variable_bit(3, 2, 3, 2),)
        assert mask_pairs(poly.monomials[0], 3, 2) == frozenset({(1, 1), (3, 2)})

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
            inter = (monos[i] & monos[j]).bit_count()
            agree = brute_agreement(code.codewords[i], code.codewords[j])
            assert inter == agree

    def test_support_intersection_exhaustive_small(self):
        code = reed_solomon_code(5, 4, 2)
        monos = [codeword_monomial(w, 5) for w in code.codewords]
        for (w1, m1), (w2, m2) in combinations(zip(code.codewords, monos), 2):
            assert (m1 & m2).bit_count() == brute_agreement(w1, w2)

    def test_row_mapping(self):
        assert row_of_residue(0, 7) == 7
        assert row_of_residue(3, 7) == 3

    def test_eval_all_ones(self):
        code = reed_solomon_code(5, 4, 2)
        poly = build_polynomial(code)
        ones = {(i, j): 1 for i in range(1, 6) for j in range(1, 5)}
        terms = ((mask_pairs(m, 5, 4), 1) for m in poly.monomials)
        assert eval_polynomial(terms, ones) == len(code)

    def test_eval_zero_assignment(self):
        code = reed_solomon_code(5, 4, 2)
        poly = build_polynomial(code)
        zeros = {(i, j): 0 for i in range(1, 6) for j in range(1, 5)}
        terms = ((mask_pairs(m, 5, 4), 1) for m in poly.monomials)
        assert eval_polynomial(terms, zeros) == 0

    def test_eval_codeword_indicator(self):
        code = reed_solomon_code(5, 4, 2)
        poly = build_polynomial(code)
        word = code.codewords[7]
        assign = {(i, j): 0 for i in range(1, 6) for j in range(1, 5)}
        for j, v in enumerate(word):
            assign[(row_of_residue(v, 5), j + 1)] = 1
        terms = ((mask_pairs(m, 5, 4), 1) for m in poly.monomials)
        assert eval_polynomial(terms, assign) == 1

    @given(random_codes(max_words=120))
    @settings(max_examples=60, deadline=None)
    def test_order_is_the_sorted_pair_order(self, code):
        poly = build_polynomial(code)
        assert [mask_pairs(m, code.q, code.n) for m in poly.monomials] == pair_polynomial_order(
            code.codewords, code.q
        )
        for w in code.codewords[:10]:
            assert mask_pairs(codeword_monomial(w, code.q), code.q, code.n) == pair_monomial(w, code.q)

    @given(random_codes(min_words=600, max_words=900))
    @settings(max_examples=5, deadline=None)
    def test_order_is_the_sorted_pair_order_on_large_codes(self, code):
        poly = build_polynomial(code)
        assert [mask_pairs(m, code.q, code.n) for m in poly.monomials] == pair_polynomial_order(
            code.codewords, code.q
        )

    def test_reference_order(self):
        code = reed_solomon_code(11, 9, 3)
        poly = build_polynomial(code)
        assert [mask_pairs(m, 11, 9) for m in poly.monomials] == pair_polynomial_order(
            code.codewords, 11
        )

    @given(st.integers(1, 4), st.integers(0, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_validation_matches_the_column_count(self, q, n, data):
        m = data.draw(st.integers(0, (1 << (q * n + 2)) - 1))
        one_per_column = m < 1 << (q * n) and sorted(
            col for _, col in mask_pairs(m, q, n)
        ) == list(range(1, n + 1))
        try:
            MonomialSet(q, n, (m,))
        except ValueError:
            assert not one_per_column
        else:
            assert one_per_column

    def test_validation_messages(self):
        bit = lambda row, col: variable_bit(row, col, 3, 2)  # noqa: E731
        with pytest.raises(ValueError, match="outside the grid"):
            MonomialSet(3, 2, (bit(1, 1) | 1 << 6,))
        with pytest.raises(ValueError, match="outside the grid"):
            MonomialSet(3, 2, (-1,))
        with pytest.raises(ValueError, match="one row per column"):
            MonomialSet(3, 2, (bit(1, 1),))  # column 2 missing
        with pytest.raises(ValueError, match="distinct"):
            MonomialSet(3, 2, (bit(1, 1) | bit(2, 2),) * 2)

    def test_monomial_shape_validation(self):
        with pytest.raises(ValueError, match="one row per column"):
            # two rows in column 1
            MonomialSet(3, 2, (variable_bit(1, 1, 3, 2) | variable_bit(2, 1, 3, 2),))


class TestArithCircuit:
    def test_var_gate(self):
        circ = ArithCircuit(3, 2, (("var", 1, 1),), 1)
        poly, flags = circuit_to_monomials(circ)
        assert poly == {variable_bit(1, 1, 3, 2): 1}
        assert all(f.multilinear and f.homogeneous for f in flags)

    def test_mul_of_disjoint_vars(self):
        circ = ArithCircuit(3, 2, (("var", 1, 1), ("var", 2, 2), ("mul", 1, 2)), 3)
        poly, flags = circuit_to_monomials(circ)
        assert poly == {variable_bit(1, 1, 3, 2) | variable_bit(2, 2, 3, 2): 1}

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
            terms = ((mask_pairs(m, 3, 2), c) for m, c in poly.items())
            assert eval_polynomial(terms, assign) == direct

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

    @pytest.mark.parametrize("n", [2, 8])
    def test_degree_other_than_the_polynomials_is_refused(self, n):
        # RS(5,3,2) has n = 3; 8 made the canonical split shift by a negative count
        poly = build_polynomial(reed_solomon_code(5, 3, 2))
        want = f"degree n={n} differs from the polynomial's n=3"
        with pytest.raises(ValueError, match=want):
            canonical_decomposition(poly, n)
        with pytest.raises(ValueError, match=want):
            verify_decomposition(canonical_decomposition(poly, 3), poly, n)
        assert verify_decomposition(canonical_decomposition(poly, 3), poly, 3) == (True, None)

    def test_shared_variable_rejected(self):
        m = self.poly.monomials[0]
        ordered = bits_descending(m)
        left = sum(ordered[:4])
        # keep the right factor at degree 5 but swap in a left variable
        right = (m & ~left & ~ordered[4]) | ordered[0]
        bad = Decomposition((single_pair(left, right),))
        ok, why = verify_decomposition(bad, self.poly, 9)
        assert not ok and "share" in why
        assert why == "pair 0: factors share a variable"

    def test_degree_window_rejected(self):
        m = self.poly.monomials[0]
        left = sum(bits_descending(m)[:2])  # degree 2 < 9/3
        right = m & ~left
        bad = Decomposition((single_pair(left, right),))
        ok, why = verify_decomposition(bad, self.poly, 9)
        assert not ok and "window" in why
        assert why == "pair 0: factor g degree 2 outside window"

    def test_empty_factor_rejected(self):
        d = canonical_decomposition(self.poly, 9)
        g, _ = d.pairs[1]
        bad = Decomposition((d.pairs[0], (g, CoeffPoly(()))) + d.pairs[2:])
        assert verify_decomposition(bad, self.poly, 9) == (False, "pair 1: empty factor h")

    @pytest.mark.parametrize("coefficient", [Fraction(0), Fraction(-1, 2)])
    def test_non_positive_coefficient_rejected(self, coefficient):
        d = canonical_decomposition(self.poly, 9)
        (g, h) = d.pairs[2]
        bad_g = CoeffPoly(((g.terms[0][0], coefficient),))
        bad = Decomposition(d.pairs[:2] + ((bad_g, h),) + d.pairs[3:])
        assert verify_decomposition(bad, self.poly, 9) == (
            False,
            "pair 2: non-positive coefficient in g",
        )

    def test_non_homogeneous_factor_rejected(self):
        d = canonical_decomposition(self.poly, 9)
        (g, h) = d.pairs[1]
        m = g.terms[0][0]
        low = bits_descending(m)[-1]
        mixed = CoeffPoly(g.terms + ((m & ~low, Fraction(1)),))  # degrees 4 and 3
        bad = Decomposition((d.pairs[0], (mixed, h)) + d.pairs[2:])
        assert verify_decomposition(bad, self.poly, 9) == (
            False,
            "pair 1: factor g not homogeneous",
        )

    @pytest.mark.parametrize("n", range(1, 12))
    def test_window_is_the_structural_lemma(self, n):
        # every split (a, n - a) of every monomial verifies iff n/3 <= a <= 2n/3
        poly = build_polynomial(reed_solomon_code(11, n, 1))
        for a in range(n + 1):
            lefts = [sum(bits_descending(m)[:a]) for m in poly.monomials]
            d = Decomposition(
                tuple(single_pair(left, m & ~left) for left, m in zip(lefts, poly.monomials))
            )
            ok, why = verify_decomposition(d, poly, n)
            want = Fraction(n, 3) <= a <= Fraction(2 * n, 3)
            assert ok == want, (n, a, why)
            if not ok:
                assert "outside window" in why

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
        assert (m1 & m2).bit_count() == overlap

    def test_audit_reads_its_agreement_bound(self):
        # the merged candidate's witness overlaps in 7 variables: a contradiction
        # only for a code whose pairs agree on fewer
        d = canonical_decomposition(self.poly, 9)
        (g1, h1), (g2, _) = d.pairs[0], d.pairs[1]
        merged = Decomposition(
            ((CoeffPoly(tuple(g1.terms) + tuple(g2.terms)), h1),) + d.pairs[2:]
        )
        rejected, witness = single_monomial_audit(merged, 6)
        assert rejected is False and witness[2] == 7
        for bound in (7, 8):
            assert single_monomial_audit(merged, bound) == (None, witness)
        assert single_monomial_audit(d, 9) == (True, None)

    def test_audit_returns_the_first_witness_over_the_bound(self):
        # pair 0's h holds two right halves sharing no variable (witness overlap 4 = |g|);
        # pair 1's g holds two left halves sharing 2 variables (overlap 2 + |h| = 7)
        d = canonical_decomposition(self.poly, 9)
        lefts = [g.terms[0][0] for g, _ in d.pairs]
        rights = [h.terms[0][0] for _, h in d.pairs]
        far = next(j for j in range(1, len(rights)) if not rights[0] & rights[j])
        close = next(j for j in range(2, len(lefts)) if (lefts[1] & lefts[j]).bit_count() == 2)
        low = (CoeffPoly(((lefts[0], 1),)), CoeffPoly(((rights[0], 1), (rights[far], 1))))
        high = (CoeffPoly(((lefts[1], 1), (lefts[close], 1))), CoeffPoly(((rights[1], 1),)))
        low_witness = (rights[0] | lefts[0], rights[far] | lefts[0], 4)
        high_witness = (lefts[1] | rights[1], lefts[close] | rights[1], 7)
        both = Decomposition((low, high))
        assert single_monomial_audit(both, 3) == (False, low_witness)
        assert single_monomial_audit(both, 4) == (False, high_witness)  # the scan goes on
        assert single_monomial_audit(both, 6) == (False, high_witness)
        assert single_monomial_audit(both, 7) == (None, low_witness)  # the lemma does not apply

    def test_canonical_coefficients_are_integers(self):
        d = canonical_decomposition(self.poly, 9)
        assert all(type(c) is int and c == 1 for pair in d.pairs for f in pair for _, c in f.terms)
        # a Fraction coefficient is still accepted and read exactly
        (g, h), rest = d.pairs[0], d.pairs[1:]
        halves = ((CoeffPoly(((g.terms[0][0], Fraction(1, 2)),)), CoeffPoly(((h.terms[0][0], 2),))),)
        assert verify_decomposition(Decomposition(halves + rest), self.poly, 9) == (True, None)
        thirds = ((CoeffPoly(((g.terms[0][0], Fraction(1, 3)),)), CoeffPoly(((h.terms[0][0], 2),))),)
        ok, why = verify_decomposition(Decomposition(thirds + rest), self.poly, 9)
        assert not ok and "expansion" in why

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
        # n = 1: the window [1/3, 2/3] holds no integer degree
        poly = build_polynomial(reed_solomon_code(5, 1, 1))
        with pytest.raises(ValueError, match="no admissible factor degrees for n=1"):
            canonical_decomposition(poly, 1)

    def test_lemma_window_admits_the_midpoint_at_n_4(self):
        code = reed_solomon_code(5, 4, 2)
        poly = build_polynomial(code)
        d = canonical_decomposition(poly, 4)
        assert all(g.degree_set() == h.degree_set() == {2} for g, h in d.pairs)
        assert verify_decomposition(d, poly, 4) == (True, None)
        assert single_monomial_audit(d, 1) == (True, None)

    def test_single_codeword_report(self):
        code = Code(7, 6, ((0, 1, 2, 3, 4, 5),))
        poly = build_polynomial(code)
        d = canonical_decomposition(poly, 6)
        assert size_lower_bound_report(code, d) == (1, 1, True)
