import random
from functools import reduce
from itertools import islice, product

import pytest

from conftest import P, reference_matrix, rand_tuple
from shadowbracket import bracket
from shadowbracket.bracket import (BracketVector, charpoly, charpoly_factored,
                                   closed_form_bracket, closure, compose, gf_from_tuple,
                                   power, power_cubic, letter_tuple, pq_invariants,
                                   states_matrix, word_tuple)
from shadowbracket.generators import generator_tuple
from shadowbracket.matrix import LambdaPolynomial, PolyMatrix
from shadowbracket.oracle import compile_word, enumerate_states
from shadowbracket.poly import ONE, Polynomial, X, ZERO, power_by_squaring
from shadowbracket.tl3 import ELEMENTS, TLElement, closure_loops

T = generator_tuple("T")
C = generator_tuple("C")
E = generator_tuple("E")
UNIT = BracketVector.unit()

# Tuples on which the cubic's coefficients degenerate.
DEGENERATE = [
    BracketVector.of(0, P("x+1"), 2, P("x"), -1),  # a = 0
    BracketVector.of(0, 0, 0, 0, 0),  # the zero tuple
    BracketVector.of(0, 1, 1, 1, 1),  # m = 0
    BracketVector.of(P("x+2"), 1, -1, 1, -1),  # q^2 = 0
    BracketVector.of(P("x-1"), 0, 0, 0, 0),  # q^2 = 0, a lone eigenvalue
]


class TestCompose:
    def test_cupcap_product_lands_in_hook_slot(self):
        u1 = BracketVector.basis(TLElement.U1)
        u2 = BracketVector.basis(TLElement.U2)
        assert compose(u1, u2) == BracketVector.basis(TLElement.S)
        assert compose(u2, u1) == BracketVector.basis(TLElement.R)

    def test_unit_is_two_sided(self):
        rng = random.Random(1)
        for _ in range(50):
            v = rand_tuple(rng)
            assert compose(v, UNIT) == v
            assert compose(UNIT, v) == v

    def test_square_of_two_crossing_tangle_matches_state_sum(self):
        # Independently enumerated from the compiled word X1 X2 X1 X2.
        oracle = enumerate_states(compile_word(("X1", "X2", "X1", "X2")))
        frozen = BracketVector.of(1, P("x+3"), P("x+3"), 1, P("2x+4"))
        assert compose(T, T) == oracle == frozen

    def test_associative_on_random_triples(self):
        rng = random.Random(2)
        for _ in range(500):
            u, v, w = rand_tuple(rng), rand_tuple(rng), rand_tuple(rng)
            assert compose(compose(u, v), w) == compose(u, compose(v, w))

    def test_bilinear(self):
        rng = random.Random(3)
        for _ in range(100):
            u, v, w = rand_tuple(rng), rand_tuple(rng), rand_tuple(rng)
            p, q = P("x+1"), P("-2x")
            combined = u.scaled(p) + v.scaled(q)
            assert compose(combined, w) == \
                compose(u, w).scaled(p) + compose(v, w).scaled(q)
            assert compose(w, combined) == \
                compose(w, u).scaled(p) + compose(w, v).scaled(q)

    def test_hook_swapped_formula_is_the_same_product(self):
        # The same bilinear product written for the opposite labelling of the
        # two hook diagrams: it must agree with compose after swapping the
        # d and e slots on both inputs and on the output.
        rng = random.Random(4)
        for _ in range(100):
            v, w = rand_tuple(rng), rand_tuple(rng)
            swapped = _swap_hooks(compose(_swap_hooks(v), _swap_hooks(w)))
            assert _product_hooks_swapped(v, w) == swapped


def _swap_hooks(v: BracketVector) -> BracketVector:
    return BracketVector(v.a, v.b, v.c, v.e, v.d)


def _product_hooks_swapped(vb: BracketVector, vd: BracketVector) -> BracketVector:
    a_b, b_b, c_b, d_b, e_b = vb.entries()
    a_d, b_d, c_d, d_d, e_d = vd.entries()
    return BracketVector(
        a_b * a_d,
        b_b * a_d + (a_b + b_b * X + d_b) * b_d + (d_b * X + b_b) * e_d,
        c_b * a_d + (a_b + c_b * X + e_b) * c_d + (c_b + e_b * X) * d_d,
        d_b * a_d + (d_b * X + b_b) * c_d + (a_b + b_b * X + d_b) * d_d,
        e_b * a_d + (c_b + e_b * X) * b_d + (a_b + c_b * X + e_b) * e_d,
    )


class TestPower:
    def test_zero_is_unit(self):
        assert power(T, 0) == UNIT
        assert power(rand_tuple(random.Random(5)), 0) == UNIT

    def test_one_is_identity(self):
        assert power(T, 1) == T

    def test_square(self):
        assert power(T, 2) == compose(T, T)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            power(T, -1)

    def test_homomorphism(self):
        for v in (T, C, E):
            cache = [power(v, n) for n in range(17)]
            for m in range(9):
                for n in range(9):
                    assert cache[m + n] == compose(cache[m], cache[n])

    def test_first_component_is_multiplicative(self):
        rng = random.Random(6)
        for v in (T, C, E, rand_tuple(rng), rand_tuple(rng)):
            for n in range(8):
                assert power(v, n).a == v.a ** n


class TestPowerFromTheCubic:
    """``power`` reads v^n off the reduced cubic; check it three ways."""

    def test_cubic_identity_is_proved_on_a_grid(self):
        # Each entry of v^3 - s1 v^2 + s2 v - s3 is a polynomial over Z[x]
        # of degree at most 3 in each of a..e.  Vanishing on all of
        # {0, 1, 2, 3}^5 makes every such polynomial zero, so the identity
        # holds for every tuple.
        for entries in product(range(4), repeat=5):
            v = BracketVector.of(*entries)
            square = compose(v, v)
            s1, s2, s3 = power_cubic(v)
            assert compose(square, v) == (square.scaled(s1) + v.scaled(-s2)
                                          + UNIT.scaled(s3)), entries

    def test_cubic_of_the_generators(self):
        assert power_cubic(T) == (P("2x+4"), P("x^2+4x+4"), P("x^2+2x+1"))
        for v in (T, C, E):
            s1, s2, s3 = power_cubic(v)
            expanded = charpoly_factored(v)
            # -(lam^3 - s1 lam^2 + s2 lam - s3)(lam^2 - p lam + m)
            quadratic = LambdaPolynomial((pq_invariants(v).pair_product(),
                                          -pq_invariants(v).p, 1))
            assert expanded == -(LambdaPolynomial((-s3, s2, -s1, 1)) * quadratic)

    def test_power_equals_compose_squaring(self):
        rng = random.Random(82)
        assert pq_invariants(DEGENERATE[2]).pair_product() == ZERO
        assert pq_invariants(DEGENERATE[3]).q_squared == ZERO
        for v in [T, C, E, *DEGENERATE, *(rand_tuple(rng) for _ in range(4))]:
            # Powers by repeated gluing for every n, and by compose squaring
            # (the route power took before the cubic) where it is dearest.
            expected = UNIT
            for n in range(64):
                assert power(v, n) == expected, n
                if n in (31, 32, 63):
                    assert expected == power_by_squaring(v, n, UNIT, compose)
                expected = compose(expected, v)

    def test_first_powers_are_glued_without_the_cubic(self, monkeypatch):
        # v^1 is v itself and v^2 one gluing; v^3 is the first power that
        # reads the cubic and its series.
        rng = random.Random(83)
        tuples = [T, C, E, *DEGENERATE, *(rand_tuple(rng) for _ in range(4))]
        cubes = [power(v, 3) for v in tuples]

        def refuse(v):
            raise AssertionError("the cubic was formed")
        monkeypatch.setattr(bracket, "power_cubic", refuse)
        for v, cube in zip(tuples, cubes):
            assert power(v, 0) == UNIT
            assert power(v, 1) is v
            assert power(v, 2) == compose(v, v)
            assert cube == compose(compose(v, v), v)
        with pytest.raises(AssertionError, match="cubic"):
            power(T, 3)

    def test_closure_of_the_power_at_150(self):
        for v in (T, C, E):
            expected = gf_from_tuple(v).expand(150)[150]
            assert closure(power(v, 150)) == expected
            assert closed_form_bracket(v, 150) == expected


class TestClosure:
    def test_identity_closes_to_three_loops(self):
        assert closure(UNIT) == P("x^3")

    def test_generator_closures(self):
        assert closure(T) == P("x^3+2x^2+x")
        assert closure(C) == P("x^4+3x^3+3x^2+x")

    def test_trace_property(self):
        rng = random.Random(7)
        for _ in range(200):
            v, w = rand_tuple(rng), rand_tuple(rng)
            assert closure(compose(v, w)) == closure(compose(w, v))

    def test_mirror_invariance(self):
        rng = random.Random(8)
        for v in (T, C, E, rand_tuple(rng), rand_tuple(rng)):
            for n in range(9):
                assert closure(power(v.mirrored(), n)) == closure(power(v, n))


class TestStatesMatrix:
    def test_matches_reference_matrices(self):
        assert states_matrix(T) == reference_matrix("T")
        assert states_matrix(C) == reference_matrix("C")
        assert states_matrix(E) == reference_matrix("E")

    def test_unit_gives_identity_matrix(self):
        assert states_matrix(UNIT) == PolyMatrix.identity()

    @pytest.mark.parametrize("rows", [
        [[1] * 4] * 4,
        [[1] * 6] * 6,
        [[1] * 5] * 4 + [[1] * 4],
        [[1] * 5] * 4 + [[1] * 6],
    ], ids=["4x4", "6x6", "short-row", "long-row"])
    def test_only_five_by_five_is_accepted(self, rows):
        with pytest.raises(ValueError, match="5 rows of 5 entries"):
            PolyMatrix(rows)

    def test_matrix_acts_as_right_gluing(self):
        rng = random.Random(9)
        for _ in range(200):
            v, w = rand_tuple(rng), rand_tuple(rng)
            assert states_matrix(v).apply(w) == compose(w, v)

    def test_matrix_power_reproduces_tangle_power(self):
        for v in (T, C, E):
            matrix = states_matrix(v)
            for n in range(7):
                assert matrix.power(n).apply(UNIT) == power(v, n)
        rng = random.Random(10)
        for _ in range(10):
            v = rand_tuple(rng)
            assert states_matrix(v).power(4).apply(UNIT) == power(v, 4)

    def test_first_row_isolates_identity_slot(self):
        rng = random.Random(11)
        for _ in range(50):
            v = rand_tuple(rng)
            row = states_matrix(v)[0]
            assert row[0] == v.a
            assert all(entry.is_zero for entry in row[1:])

    def test_mirror_swap_conjugates_the_matrix(self):
        # Swapping (b, c) and (d, e) on the input permutes the matrix the
        # same way, so the two off-diagonal blocks are mirror images.
        perm = (0, 2, 1, 4, 3)
        rng = random.Random(12)
        for _ in range(50):
            v = rand_tuple(rng)
            original = states_matrix(v)
            mirrored = states_matrix(v.mirrored())
            for i in range(5):
                for j in range(5):
                    assert mirrored[i][j] == original[perm[i]][perm[j]]


class TestPQInvariants:
    def test_values_for_builtin_generators(self):
        pq_t = pq_invariants(T)
        assert (pq_t.p, pq_t.q_squared) == (P("2x+3"), P("4x+5"))
        pq_c = pq_invariants(C)
        assert (pq_c.p, pq_c.q_squared) == \
            (P("x^2+5x+5"), P("x^4+2x^3+3x^2+10x+9"))
        pq_e = pq_invariants(E)
        assert (pq_e.p, pq_e.q_squared) == (P("4x^2+12x+9"), P("8x^2+24x+17"))

    def test_pair_products(self):
        assert pq_invariants(T).pair_product() == P("x^2+2x+1")
        assert pq_invariants(C).pair_product() == P("2x^3+8x^2+10x+4")
        assert pq_invariants(E).pair_product() == P("4x^4+24x^3+52x^2+48x+16")

    def test_difference_always_divisible_by_four(self):
        # p^2 - q^2 = 4m, with the paper's q^2 typed out.  Each side has
        # degree at most 2 in each of a..e, so agreeing on {0,1,2}^5 proves
        # the identity for every tuple.
        for entries in product(range(3), repeat=5):
            v = BracketVector.of(*entries)
            a, b, c, d, e = v.entries()
            q2 = ((b * b - 2 * b * c + c * c + 4 * d * e) * (X * X)
                  + (2 * b * d + 2 * c * d + 2 * b * e + 2 * c * e) * X
                  + (4 * b * c + d * d - 2 * d * e + e * e))
            pq = pq_invariants(v)
            assert pq.p * pq.p - q2 == 4 * pq.m


class TestClosedForm:
    def test_two_crossing_tangle_squared(self):
        assert closed_form_bracket(T, 2) == P("3x^3+8x^2+5x")

    def test_power_zero_always_three_loops(self):
        rng = random.Random(14)
        for v in (T, C, E, rand_tuple(rng)):
            assert closed_form_bracket(v, 0) == P("x^3")

    def test_four_crossing_tangle_once(self):
        assert closed_form_bracket(E, 1) == P("x^5+4x^4+6x^3+4x^2+x")

    def test_agrees_with_direct_closure(self):
        for v in (T, C, E):
            for n in range(13):
                assert closed_form_bracket(v, n) == closure(power(v, n))
        rng = random.Random(15)
        for _ in range(30):
            v = rand_tuple(rng)
            for n in range(9):
                assert closed_form_bracket(v, n) == closure(power(v, n))
        # A 40-crossing word: the entries of its square and the s2 and s3 of
        # its cubic have about 40 terms, so every route multiplies operands
        # of 32 terms and more.
        v = word_tuple(("X1", "X2") * 20)
        assert min(len(p.coefficients) for p in power(v, 2).entries()[1:]) >= 32
        assert min(len(s.coefficients) for s in power_cubic(v)[1:]) >= 32
        walk = list(islice(gf_from_tuple(v).terms(), 7))
        matrix = states_matrix(v)
        for n in range(7):
            expected = power(v, n)
            assert expected == matrix.power(n).apply(UNIT), n
            assert closure(expected) == closed_form_bracket(v, n) == walk[n], n

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            closed_form_bracket(T, -2)

    def test_full_precision_walk_at_depth(self):
        # Closed T^n has 2n crossings: its bracket is 4^n at x = 1 and, once
        # n >= 1, 0 at x = -1 (its even and odd coefficients sum alike).  The
        # walk must meet both on every row up to closed T^800, 1,600
        # crossings, and reach the jump's term there.
        gf = gf_from_tuple(T)
        for n, walked in enumerate(islice(gf.terms(), 801)):
            coefficients = walked.coefficients
            assert sum(coefficients) == 4 ** n, n
            assert n == 0 or sum(coefficients[::2]) == sum(coefficients[1::2]), n
        assert walked == gf.term(800)

    def test_component_three_term_recurrence(self):
        # Every tuple component of the powers satisfies the cubic recurrence
        # with characteristic polynomial (lam - a)(lam^2 - p lam + m).
        rng = random.Random(16)
        for v in (T, C, E, rand_tuple(rng), rand_tuple(rng)):
            pq = pq_invariants(v)
            m = pq.pair_product()
            a, p = v.a, pq.p
            powers = [power(v, n) for n in range(11)]
            for n in range(8):
                for i in range(5):
                    t0 = powers[n].entries()[i]
                    t1 = powers[n + 1].entries()[i]
                    t2 = powers[n + 2].entries()[i]
                    t3 = powers[n + 3].entries()[i]
                    assert t3 == (a + p) * t2 - (a * p + m) * t1 + a * m * t0

    def test_state_sum_invariants_at_depth_on_both_readers(self):
        # A closed shadow of c crossings has 2^c states, so its bracket is
        # 2^c at x = 1, and 0 at x = -1 once it has a crossing.  At x = -2 it
        # is (-1)^c (-2)^mu, mu the shadow's number of components: 3 for T^n
        # when 3 divides n, else 1.  The depths cross three
        # SERIES_BLOCK_STEPS blocks of the packed jump.
        assert 250 > 3 * bracket.SERIES_BLOCK_STEPS
        depths = (1, 33, 100, 250)
        for v, crossings in ((T, 2), (C, 3), (E, 4)):
            gf = gf_from_tuple(v)
            walk = gf.expand(depths[-1])
            for n in depths:
                jump = gf.term(n)
                assert jump == walk[n], (v, n)
                assert jump.evaluate(1) == 2 ** (crossings * n)
                assert jump.evaluate(-1) == 0
                components = 3 if v == T and n % 3 == 0 else 1
                assert jump.evaluate(-2) == (-1) ** (crossings * n) * (-2) ** components


class TestCharpoly:
    def test_identity_matrix(self):
        minus_one = LambdaPolynomial([P("-1"), 1])  # lam - 1
        expected = LambdaPolynomial([1])
        for _ in range(5):
            expected = expected * minus_one
        assert charpoly(PolyMatrix.identity()) == -expected
        assert charpoly(PolyMatrix.identity()) == charpoly_factored(UNIT)

    def test_generator_matrices_factor(self):
        for v in (T, C, E):
            assert charpoly(states_matrix(v)) == charpoly_factored(v)

    def test_random_tuples_factor(self):
        rng = random.Random(17)
        tuples = [rand_tuple(rng) for _ in range(25)]
        # Entries of high degree, which exercise m at scale: those of the
        # 40-crossing word reach degree 19.
        tuples += [rand_tuple(rng, max_degree=4) for _ in range(4)]
        tuples.append(word_tuple(("X1", "X2") * 20))
        for v in tuples:
            assert charpoly(states_matrix(v)) == charpoly_factored(v)

    def test_degree_and_leading_coefficient(self):
        chi = charpoly(states_matrix(C))
        assert chi.degree == 5
        assert chi.coefficients[5] == P("-1")

    def test_quadratic_factor_matches_series_denominator(self):
        # (p^2 - q^2)/4 for the two-crossing generator is the y^2 denominator
        # coefficient of its generating function.
        assert pq_invariants(T).pair_product() == P("x^2+2x+1")


class TestHitchLetters:
    def test_mirror_letter_is_the_mirrored_hitch(self):
        assert letter_tuple("H") == BracketVector.of(P("x+2"), 0, 1, 0, 0)
        assert letter_tuple("M") == letter_tuple("H").mirrored()

    def test_words_accept_the_hitch_letters(self):
        word = "X1 H M".split()
        assert word_tuple(word) == enumerate_states(compile_word(word))


class TestBracketVector:
    def test_json_round_trip(self):
        rng = random.Random(18)
        for _ in range(50):
            v = rand_tuple(rng)
            assert BracketVector.from_json(v.to_json()) == v

    def test_json_missing_key(self):
        with pytest.raises(ValueError):
            BracketVector.from_json({"a": [1]})

    def test_of_coerces(self):
        v = BracketVector.of(1, [2, 1], P("x"), 0, 0)
        assert v.b == P("x+2")
        assert v.a == Polynomial([1])

    def test_mirrored_is_involution(self):
        rng = random.Random(19)
        v = rand_tuple(rng)
        assert v.mirrored().mirrored() == v
        assert C.mirrored() == BracketVector.of([2, 1], 1, [2, 1], 1, 0)

    def test_str(self):
        assert str(T) == "[1, 1, 1, 0, 1]"


class TestLambdaPolynomial:
    def test_trims_zero_leading_coefficients(self):
        assert LambdaPolynomial([1, 0]).degree == 0
        assert LambdaPolynomial([]).is_zero

    def test_arithmetic(self):
        lam = LambdaPolynomial([0, 1])
        assert (lam * lam).coefficients[2] == P("1")
        assert (lam - lam).is_zero

    def test_str(self):
        chi = LambdaPolynomial([P("x+1"), P("-2"), 1])
        assert str(chi) == "(1)L^2 + (-2)L + (x+1)"
        assert str(LambdaPolynomial([P("x"), 0, 0, 3])) == "(3)L^3 + (x)"
        assert str(LambdaPolynomial()) == "0"


class TestPoweringKernel:
    def test_power_equals_linear_fold(self):
        rng = random.Random(81)
        tuples = [T, C, E] + [rand_tuple(rng) for _ in range(4)]
        for v in tuples:
            for n in range(18):
                assert power(v, n) == reduce(compose, [v] * n, BracketVector.unit())

    def test_matrix_power_equals_repeated_product(self):
        matrix = states_matrix(C)
        product = PolyMatrix.identity()
        for n in range(7):
            assert matrix.power(n) == product
            product = product @ matrix
        with pytest.raises(ValueError):
            matrix.power(-1)

    def test_closure_weights_come_from_closure_loops(self):
        for element in ELEMENTS:
            assert closure(BracketVector.basis(element)) == X ** closure_loops(element)
