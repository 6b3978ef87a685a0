import json
import os
import random
import subprocess
import sys
from itertools import islice, product, zip_longest

import pytest

import shadowbracket
from conftest import P, rand_poly
from shadowbracket.bracket import (SERIES_BLOCK_STEPS, BracketVector, LambdaPolynomial,
                                   RationalTerm, _digit_width, _pack, _unpack)
from shadowbracket.poly import (ONE, Polynomial, X, ZERO, int_text, parse_int,
                                power_by_squaring)


class TestAddition:
    def test_cancellation(self):
        assert P("x+1") + P("x^2-1") == P("x^2+x")

    def test_additive_identity(self):
        p = P("3x^3+8x^2+5x")
        assert p + ZERO == p
        assert ZERO + p == p

    def test_leading_cancellation_trims_the_degree(self):
        rng = random.Random(47)
        for _ in range(200):
            p, q = rand_poly(rng), rand_poly(rng, max_degree=3)
            shared = [rng.randint(-9, 9) for _ in range(rng.randint(1, 40))]
            high = Polynomial([0] * 10 + shared)
            # The high terms cancel, leaving only what p and q contribute.
            assert (p + high) - (q + high) == p - q
            assert ((p + high) + (q - high)).coefficients == (p + q).coefficients
            assert (high - high).coefficients == ()
        assert (P("x^5+2x+1") - P("x^5+2x")).coefficients == (1,)
        assert (P("-x^3+x") + P("x^3-x")).degree == -1

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


def _schoolbook(a: list[int], b: list[int]) -> list[int]:
    """Reference product of two coefficient lists, trimmed like Polynomial."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _signed_coefficients(rng: random.Random, length: int, bits: int) -> list[int]:
    """Signed coefficients of up to ``bits`` bits, about a fifth of them zero,
    with the extreme values of that width mixed in."""
    extremes = (1 << bits) - 1, -(1 << bits) + 1, -(1 << bits)
    out = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.2:
            out.append(0)
        elif roll < 0.25:
            out.append(rng.choice(extremes))
        else:
            out.append(rng.choice((-1, 1)) * rng.getrandbits(bits))
    return out


class TestProductRoutes:
    """Products agree with schoolbook at every operand length and coefficient
    size, on short, long, balanced and skewed operands.  Lengths 31 to 33
    span the crossover where a Kronecker route once took over."""

    LENGTHS = (0, 1, 2, 5, 31, 32, 33, 70, 200)

    def test_against_schoolbook_on_signed_coefficients(self):
        rng = random.Random(48)
        pairs = []
        for _ in range(300):
            la, lb = rng.choice(self.LENGTHS), rng.choice(self.LENGTHS)
            bits = rng.choice((1, 7, 8, 31, 64, 65, 600, 1000, 1100))
            a = _signed_coefficients(rng, la, bits)
            b = _signed_coefficients(rng, lb, rng.choice((1, 8, bits)))
            pairs.append((a, b))
        # The series walk's skewed shape: a feedback of 41 terms of 40 bits
        # times a term of 600 terms of 1,200 bits.
        pairs.append((_signed_coefficients(rng, 41, 40), _signed_coefficients(rng, 600, 1200)))
        for a, b in pairs:
            expected = _schoolbook(a, b)
            assert (Polynomial(a) * Polynomial(b)).coefficients == tuple(expected)
            assert (Polynomial(b) * Polynomial(a)).coefficients == tuple(expected)
        # LambdaPolynomial runs the same sum and product on Z[x] coefficients,
        # some of them zero, and on empty and all-zero operands.
        operands = [[], [ZERO], [ZERO] * 3]
        for _ in range(20):
            operands.append([rng.choice((ZERO, rand_poly(rng, 3)))
                             for _ in range(rng.randint(1, 6))])
        for a in operands:
            for b in operands:
                got = LambdaPolynomial(a) * LambdaPolynomial(b)
                assert got.coefficients == tuple(map(Polynomial.coerce, _schoolbook(a, b)))
                total = LambdaPolynomial(a) + LambdaPolynomial(b)
                assert total == LambdaPolynomial(
                    [p + q for p, q in zip_longest(a, b, fillvalue=ZERO)])

    def test_largest_coefficients_fill_the_digit(self):
        # The middle product coefficient reaches min(len) max|a| max|b|, the
        # largest any product coefficient can be, with either sign.
        for length in (32, 100, 128):
            for bits in (1, 8, 63, 64, 1000):
                top = (1 << bits) - 1
                for sa in (1, -1):
                    for sb in (1, -1):
                        a, b = [sa * top] * length, [sb * top] * length
                        assert (Polynomial(a) * Polynomial(b)).coefficients == \
                            tuple(_schoolbook(a, b))

    def test_leading_and_trailing_zero_coefficients(self):
        n = 32
        a = [0] * n + [3] + [0] * n + [-5]
        b = [0, 0, 1] + [0] * (2 * n) + [-1]
        assert (Polynomial(a) * Polynomial(b)).coefficients == tuple(_schoolbook(a, b))

    def test_zero_polynomial(self):
        long = Polynomial(range(1, 96))
        for p in (long, ONE, X, ZERO):
            assert (p * ZERO).coefficients == ()
            assert (ZERO * p).coefficients == ()
            assert (p * 0).coefficients == ()
            assert (0 * p).coefficients == ()

    def test_int_times_polynomial(self):
        rng = random.Random(49)
        for length in (1, 32, 150):
            p = Polynomial(_signed_coefficients(rng, length, 1200))
            for k in (1, -1, 7, -(1 << 1001)):
                expected = Polynomial([k * c for c in p.coefficients])
                assert k * p == expected
                assert p * k == expected

    def test_results_are_canonical_int_tuples(self):
        rng = random.Random(50)
        for _ in range(50):
            a = Polynomial(_signed_coefficients(rng, rng.choice(self.LENGTHS), 300))
            b = Polynomial(_signed_coefficients(rng, rng.choice(self.LENGTHS), 300))
            for result in (a * b, a + b, a - b, -a):
                coeffs = result.coefficients
                assert type(coeffs) is tuple
                assert all(type(c) is int for c in coeffs)
                assert not coeffs or coeffs[-1] != 0


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
            assert P(str(p)) == p

    def test_parse_rejects_garbage(self):
        for bad in ("", "x^", "2y", "x**2", "+", "3..1"):
            with pytest.raises(ValueError):
                P(bad)


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

    def test_integer_coefficients_required(self):
        with pytest.raises(TypeError):
            Polynomial([1.5])

    # bool is an int subclass; kept, True would be written out as invalid JSON.
    @pytest.mark.parametrize("build", [
        lambda: Polynomial([True, 0, True]),
        lambda: Polynomial([1, False]),
        lambda: Polynomial.coerce(True),
        lambda: X + False,
        lambda: BracketVector.of(True, 0, 0, 0, 0),
    ])
    def test_bool_coefficients_are_refused(self, build):
        with pytest.raises(TypeError, match="^integer coefficient required, got (True|False)$"):
            build()

    def test_int_coercion_in_arithmetic(self):
        assert X + 1 == P("x+1")
        assert 2 - X == P("-x+2")
        assert 3 * X == P("3x")
        assert X - 1 == P("x-1")

    def test_hash_and_eq(self):
        assert hash(P("x+1")) == hash(Polynomial([1, 1]))
        assert P("x") != "x"
        assert P("5") == 5
        assert P("0") == 0 and ZERO == 0
        assert P("-4") == -4
        assert P("5") != 0 and ZERO != 5
        assert P("x+5") != 5 and X != 0


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
            terms = list(zip(range(12), RationalTerm(numerator, denominator).terms()))
            for n, _ in terms:
                product = sum((denominator[k] * terms[n - k][1]
                               for k in range(min(n, len(denominator) - 1) + 1)), ZERO)
                expected = numerator[n] if n < len(numerator) else ZERO
                assert product == expected

    def test_truncated_series_is_the_series_reduced(self):
        rng = random.Random(73)
        for _ in range(40):
            series = RationalTerm(
                tuple(rand_poly(rng, 4) for _ in range(rng.randint(0, 3))),
                (ONE, *(rand_poly(rng, 3) for _ in range(rng.randint(0, 3)))))
            full = list(zip(range(15), series.terms()))
            for precision in (0, 1, 2, 5, 40):
                reduced = series.terms(precision)
                for (_, term), cut in zip(full, reduced):
                    assert cut == Polynomial(term.coefficients[:precision])
        with pytest.raises(ValueError, match="precision must be nonnegative"):
            next(series.terms(-1))


class TestSeriesTerm:
    """The packed jump to t_n agrees with the walk of RationalTerm.terms."""

    # Every n up to here crosses three block boundaries of the packed route.
    LAST = 3 * SERIES_BLOCK_STEPS + 4

    def _check(self, numerator, denominator):
        # The window is the last max(order, 1) terms up to t_n.  The n up to
        # LAST include final blocks shorter than the order.
        series = RationalTerm(tuple(numerator), tuple(denominator))
        window = max(len(denominator) - 1, 1)
        walk = list(islice(series.terms(), self.LAST + 1))
        for n in range(self.LAST + 1):
            assert series.term(n) == walk[max(0, n + 1 - window):n + 1], n
        return walk

    def test_against_the_walk_on_random_series(self):
        # Signed feedback with zero and unit coefficients and zero feedback
        # polynomials, numerators shorter than, as long as and longer than
        # the denominator, and order 0 (a polynomial) to 3.
        rng = random.Random(74)
        for order in range(4):
            for length in sorted({0, max(order, 1) - 1, order + 1, order + 3}):
                numerator = [Polynomial(_signed_coefficients(
                    rng, rng.randint(0, 3), rng.choice((1, 9, 70)))) for _ in range(length)]
                denominator = [ONE] + [Polynomial(_signed_coefficients(
                    rng, rng.randint(0, 4), rng.choice((1, 2)))) for _ in range(order)]
                self._check(numerator, denominator)

    def test_zero_feedback_and_zero_series(self):
        numerator = [P("x^2-3"), P("5x")]
        walk = self._check(numerator, [ONE, ZERO, ZERO])
        assert walk[:2] == numerator and all(t == ZERO for t in walk[2:])
        self._check([], [ONE, P("x+1")])
        self._check([ZERO, ONE], [ONE])

    def test_coefficients_on_the_digit_limit(self):
        # With monomial terms the l1 bound is exact: every coefficient of
        # M x^n and M (-x)^n is +-M = 2^(8w-1) - 1, the largest of w bytes.
        for width in (1, 2, 9):
            top = (1 << (8 * width - 1)) - 1
            for sign in (1, -1):
                for feedback in (X, -X):
                    walk = self._check([Polynomial([sign * top])], [ONE, -feedback])
                    assert {abs(c) for t in walk for c in t.coefficients if c} == {top}

    def test_every_feedback_term_counts_in_the_width(self):
        # t_n = x t_(n-1) + x^2 t_(n-2) and its signed twins have Fibonacci
        # numbers times x^n as terms, so the norm bound is exact; a bound
        # that left out either feedback term would be too narrow.
        square = X * X
        for first in (ONE, -ONE):
            for pair in ((-X, -square), (X, -square)):
                walk = self._check([first], [ONE, *pair])
                assert all(len(set(t.coefficients)) == 2 for t in walk[1:])
        fibonacci = [1, 1]
        while len(fibonacci) <= self.LAST:
            fibonacci.append(fibonacci[-1] + fibonacci[-2])
        assert RationalTerm((ONE,), (ONE, -X, -square)).term(self.LAST)[-1] == \
            Polynomial([0] * self.LAST + [fibonacci[self.LAST]])

    def test_jumps_to_deep_terms(self):
        # Terms of several hundred coefficients of several hundred bits.
        series = RationalTerm((P("2x"), P("-3x^2-2x")), (ONE, P("-2x-3"), P("x^2+2x+1")))
        walk = list(islice(series.terms(), 401))
        for n in (150, 257, 400):
            assert series.term(n) == walk[n - 1:n + 1]

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            RationalTerm((ONE,), (ONE, X)).term(-1)


class TestPackedDigits:
    """``_pack`` writes a coefficient list as its value at x = 2**(8w), and
    ``_unpack`` reads it back, for every coefficient that fits ``_digit_width``."""

    WIDTHS = (1, 2, 9)

    def _round_trip(self, coeffs, width):
        packed = _pack(coeffs, width)
        assert packed == Polynomial(coeffs).evaluate(1 << (8 * width)), (coeffs, width)
        assert _unpack(packed, width, len(coeffs)) == coeffs, (coeffs, width)
        # Digits past the last coefficient read back as zeros.
        assert _unpack(packed, width, len(coeffs) + 2) == [*coeffs, 0, 0]

    def test_width_holds_the_size_and_a_sign_bit(self):
        for width in self.WIDTHS:
            top = (1 << (8 * width - 1)) - 1
            assert _digit_width(top) == width
            assert _digit_width(top + 1) == width + 1
        assert _digit_width(0) == 1

    def test_every_coefficient_on_the_digit_limit(self):
        for width in self.WIDTHS:
            top = (1 << (8 * width - 1)) - 1
            for signs in product((1, -1), repeat=4):
                self._round_trip([sign * top for sign in signs], width)
            # One past the limit needs a wider digit, and round-trips there.
            for value in (top + 1, -top - 1):
                self._round_trip([value, -value, value], _digit_width(top + 1))

    def test_chained_borrows_of_negative_runs(self):
        # Runs of negative coefficients, alone and between other digits.  In
        # offset binary every digit is read on its own, with no borrow from
        # the digit below, so a run must round-trip like any other input.
        rng = random.Random(75)
        for width in self.WIDTHS:
            top = (1 << (8 * width - 1)) - 1
            for run in ([-1] * 6, [-top] * 5, [-1, -top, -1, -top]):
                for after in ([], [0], [1], [top], [0, 0, -1]):
                    for before in ([], [0], [top], [-1]):
                        self._round_trip([*before, *run, *after], width)
            for _ in range(50):
                coeffs = [rng.choice((-top, -1, 0, 1, top, rng.randint(-top, top)))
                          for _ in range(rng.randint(1, 40))]
                self._round_trip(coeffs, width)

    def test_zero_and_empty_inputs(self):
        for width in self.WIDTHS:
            for coeffs in ([], [0], [0, 0, 0], [0, 0, 5]):
                self._round_trip(coeffs, width)


class TestLongIntegerText:
    """Ints past ``sys.int_max_str_digits`` convert exactly, limit untouched."""

    LONG = 7 * 10 ** 5000 + 3

    def test_text_round_trips_past_the_limit(self):
        limit = sys.get_int_max_str_digits()
        for value in (self.LONG, -self.LONG, 0, -12, 10 ** 4299):
            text = int_text(value)
            assert parse_int(text) == value
            assert text == ("-" if value < 0 else "") + (
                "7" + "0" * 4999 + "3" if abs(value) == self.LONG else str(abs(value)))
        assert sys.get_int_max_str_digits() == limit

    def test_round_trips_at_the_lowest_limit(self):
        # 640 is the lowest limit Python allows.  The lengths sit around it,
        # twice it, the default limit of 4,300 and well past both, so halves
        # are split again; leading zeros and a low half that starts with
        # zeros must survive.  Decimal, which has no such limit, is the
        # reference.
        script = """if True:
            import random, sys
            from decimal import Decimal
            from shadowbracket.poly import int_text, parse_int
            assert sys.get_int_max_str_digits() == 640
            rng = random.Random(76)
            for length in (639, 640, 641, 1281, 4299, 4300, 4301, 8601, 13000):
                for digits in ("1" + "0" * (length - 1), "1" + "0" * (length - 2) + "1",
                               "".join([rng.choice("123456789"),
                                        *rng.choices("0123456789", k=length - 1)])):
                    for sign in ("", "-", "+"):
                        for zeros in ("", "000"):
                            text = sign + zeros + digits
                            value = parse_int(text)
                            assert value == int(Decimal(text)), text[:20]
                            assert int_text(value) == sign.strip("+") + digits, text[:20]
            print("ok")
        """
        src = os.path.dirname(os.path.dirname(os.path.abspath(shadowbracket.__file__)))
        done = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-W", "error", "-c", script],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
        assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")

    @pytest.mark.parametrize("text", ["1" * 5000 + ".5", "1" * 5000 + "e3", "x" + "1" * 5000,
                                      "1.5", "", "1" * 5000 + " 2"])
    def test_parse_refuses_what_int_refuses(self, text):
        with pytest.raises(ValueError):
            parse_int(text)

    def test_polynomial_text_round_trips_past_the_limit(self):
        p = Polynomial([self.LONG, 0, -self.LONG, 1, -1])
        text = str(p)
        assert text == f"-x^4+x^3-{int_text(self.LONG)}x^2+{int_text(self.LONG)}"
        assert P(text) == p
