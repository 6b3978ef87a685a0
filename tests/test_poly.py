import json
import random

import pytest

from conftest import P, rand_poly
from shadowbracket.poly import (ONE, Polynomial, X, ZERO, power_by_squaring,
                                series_coefficients)


class TestAddition:
    def test_cancellation(self):
        assert P("x+1") + P("x^2-1") == P("x^2+x")

    def test_additive_identity(self):
        p = P("3x^3+8x^2+5x")
        assert p + ZERO == p
        assert ZERO + p == p

    def test_sum_of_two_closure_rows(self):
        # [0,1,2,1] + [0,5,8,3] summed coefficient-wise
        assert P("x^3+2x^2+x") + P("3x^3+8x^2+5x") == P("4x^3+10x^2+6x")


class TestMultiplication:
    def test_quadratic_product(self):
        assert P("x+1") * P("x+2") == P("x^2+3x+2")

    def test_x_times_x2_minus_2(self):
        assert X * P("x^2-2") == P("x^3-2x")

    def test_square_of_x_plus_2(self):
        assert P("x+2") * P("x+2") == P("x^2+4x+4")

    def test_degree_adds(self):
        rng = random.Random(41)
        for _ in range(100):
            p, q = rand_poly(rng), rand_poly(rng)
            if p.is_zero or q.is_zero:
                assert (p * q).is_zero
            else:
                assert (p * q).degree == p.degree + q.degree


class TestEvaluate:
    def test_counts_states_of_two_crossings(self):
        assert P("x^3+2x^2+x").evaluate(1) == 4

    def test_at_zero_gives_constant_term(self):
        rng = random.Random(42)
        for _ in range(50):
            p = rand_poly(rng)
            assert p.evaluate(0) == p.coefficient(0)

    def test_counts_states_of_four_crossings(self):
        assert P("3x^3+8x^2+5x").evaluate(1) == 16

    def test_is_ring_homomorphism(self):
        rng = random.Random(43)
        for _ in range(300):
            p, q = rand_poly(rng), rand_poly(rng)
            v = rng.randint(-5, 5)
            assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)
            assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)


def test_ring_axioms_on_random_triples():
    rng = random.Random(20260810)
    for _ in range(1000):
        p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_canonical_form_is_stable():
    rng = random.Random(44)
    for _ in range(300):
        p, q = rand_poly(rng), rand_poly(rng)
        for result in (p + q, p - q, p * q, p + (-p)):
            coeffs = result.coefficients
            assert not coeffs or coeffs[-1] != 0


class TestTextForm:
    def test_rendering(self):
        assert str(P("3x^3+8x^2+5x")) == "3x^3+8x^2+5x"
        assert str(Polynomial([-1, 0, 1])) == "x^2-1"
        assert str(Polynomial([0, -1])) == "-x"
        assert str(ZERO) == "0"
        assert str(Polynomial([7])) == "7"
        assert str(X) == "x"

    def test_parse_specific(self):
        assert P("0") == ZERO
        assert P("x") == X
        assert P("-x^2+3") == Polynomial([3, 0, -1])
        assert P("2x") == Polynomial([0, 2])

    def test_round_trip_random(self):
        rng = random.Random(45)
        for _ in range(300):
            p = rand_poly(rng, max_degree=9)
            assert Polynomial.parse(str(p)) == p

    def test_parse_rejects_garbage(self):
        for bad in ("", "x^", "2y", "x**2", "+", "3..1"):
            with pytest.raises(ValueError):
                Polynomial.parse(bad)


class TestJsonForm:
    def test_index_is_power(self):
        p = P("3x^3+8x^2+5x")
        assert list(p.coefficients) == [0, 5, 8, 3]

    def test_round_trip(self):
        rng = random.Random(46)
        for _ in range(100):
            p = rand_poly(rng)
            encoded = json.dumps(list(p.coefficients))
            assert Polynomial(json.loads(encoded)) == p

    def test_trailing_zeros_normalised(self):
        assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])


class TestMisc:
    def test_power(self):
        assert P("x+1") ** 2 == P("x^2+2x+1")
        assert P("x+1") ** 0 == ONE
        with pytest.raises(ValueError):
            X ** -1

    def test_exact_div(self):
        assert Polynomial([4, 8]).exact_div(4) == Polynomial([1, 2])
        with pytest.raises(ValueError):
            Polynomial([4, 9]).exact_div(4)

    def test_integer_coefficients_required(self):
        with pytest.raises(TypeError):
            Polynomial([1.5])

    def test_int_coercion_in_arithmetic(self):
        assert X + 1 == P("x+1")
        assert 2 - X == P("-x+2")
        assert 3 * X == P("3x")
        assert X - 1 == P("x-1")

    def test_monomial_and_constant(self):
        assert Polynomial.monomial(3, 2) == P("2x^3")
        assert Polynomial.constant(-4) == Polynomial([-4])
        with pytest.raises(ValueError):
            Polynomial.monomial(-1)

    def test_hash_and_eq(self):
        assert hash(P("x+1")) == hash(Polynomial([1, 1]))
        assert P("x") != "x"
        assert P("5") == 5


class TestKernels:
    def test_power_equals_repeated_multiplication(self):
        rng = random.Random(71)
        for _ in range(20):
            p = rand_poly(rng, 4)
            product = ONE
            for n in range(13):
                assert p ** n == product
                product = product * p

    def test_power_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            X ** -1
        with pytest.raises(ValueError):
            power_by_squaring(2, -1, 1, int.__mul__)

    def test_power_by_squaring_on_integers(self):
        for n in range(40):
            assert power_by_squaring(3, n, 1, int.__mul__) == 3 ** n

    def test_series_times_denominator_gives_numerator(self):
        # Truncated to the first terms, series * denominator = numerator.
        rng = random.Random(72)
        for _ in range(20):
            numerator = [rand_poly(rng, 3) for _ in range(rng.randint(0, 3))]
            denominator = [ONE] + [rand_poly(rng, 2) for _ in range(rng.randint(0, 3))]
            terms = list(zip(range(12), series_coefficients(numerator, denominator)))
            for n, _ in terms:
                product = sum((denominator[k] * terms[n - k][1]
                               for k in range(min(n, len(denominator) - 1) + 1)), ZERO)
                expected = numerator[n] if n < len(numerator) else ZERO
                assert product == expected
