"""Exact arithmetic for univariate integer polynomials.

Polynomials are stored densely: ``coefficients[k]`` is the coefficient of
``x**k``, the highest stored coefficient is nonzero, and the zero polynomial
stores nothing.  Coefficients are plain Python ints, so everything here is
exact at any size; there is deliberately no float path and no division.

Two interchange forms round-trip with each other: a text form like
``3x^3+8x^2+5x`` (descending powers, zero terms omitted, unit coefficients
omitted except for constants) and a JSON array form like ``[0, 5, 8, 3]``
whose index is the power of x.  Text is exact at any size: an int too long
for ``str`` (``sys.int_max_str_digits``) converts through ``Decimal``
(:func:`int_text`, :func:`parse_int`).

Products take one of two exact routes, chosen by the shorter operand's
length.  Products with a short operand are formed term by term.  Products
of two long operands use Kronecker substitution: each operand is packed
into one integer with one fixed-width digit per coefficient, the two
integers are multiplied by CPython's big-int multiply, and the digits of
the product are read back (Harvey, *Faster polynomial multiplication via
multipoint Kronecker substitution*, J. Symb. Comput. 44, 2009).  The
packing and digit reading are shared with the packed series recurrence of
:meth:`shadowbracket.bracket.RationalTerm.term`.
"""

from __future__ import annotations

import re
from operator import add
from typing import Callable, Iterable, Sequence, TypeVar, Union

# The text-form patterns, compiled (and cached by ``re``) at first use: only
# :meth:`Polynomial.parse` and :func:`parse_int`'s long-integer fallback read
# them, so no other command pays for compiling them.
_TERM_RE = r"^([0-9]+)?(x(?:\^([0-9]+))?)?$"
_SPLIT_RE = r"[+-][^+-]*|^[^+-]+"
_INT_RE = r"[+-]?[0-9]+"

PolynomialLike = Union["Polynomial", int, Iterable[int]]

T = TypeVar("T")

# Shortest operand length at which a product packs both operands into
# integers.  Against the term-by-term product, Kronecker substitution broke
# even at about 16 terms with 60-bit coefficients and at about 24 with 300-
# to 1,000-bit ones; from 32 terms it won at every size measured: 1.1 to 4.8
# times at 32 to 64 terms, and 2.9 to 5.4 times at 300 to 900 terms with
# 600- to 1,000-bit coefficients (more with smaller ones), with CPython 3.11
# on a 2-vCPU x86 VM.
# Below it, short-by-long products stay term by term: packing the short
# operand into digits as wide as the long one's costs more than it saves.
KRONECKER_MIN_TERMS = 32


class Polynomial:
    """An immutable polynomial in x with integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient required, got {c!r}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @classmethod
    def _unchecked(cls, coeffs: list[int]) -> "Polynomial":
        """A polynomial from a list of ints, trimmed of zero leading terms.

        The constructor of internal results: it skips the type check of
        ``__init__`` and takes ownership of ``coeffs``.
        """
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        result = object.__new__(cls)
        result._coeffs = tuple(coeffs)
        return result

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        return cls((value,))

    @classmethod
    def monomial(cls, power: int, coefficient: int = 1) -> "Polynomial":
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (coefficient,))

    @classmethod
    def coerce(cls, value: PolynomialLike) -> "Polynomial":
        """Build a polynomial from an int, a coefficient list, or pass one through."""
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, int):
            return cls._unchecked([value])
        return cls(value)

    @property
    def coefficients(self) -> tuple[int, ...]:
        """Coefficients by ascending power; also the JSON array form."""
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, power: int) -> int:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return 0

    def evaluate(self, value: int) -> int:
        """Exact evaluation at an integer point, by Horner's rule."""
        result = 0
        for c in reversed(self._coeffs):
            result = result * value + c
        return result

    def exact_div(self, divisor: int) -> "Polynomial":
        """Divide every coefficient by ``divisor``; raise if any remainder."""
        out = []
        for c in self._coeffs:
            q, r = divmod(c, divisor)
            if r:
                raise ValueError(f"coefficient {c} is not divisible by {divisor}")
            out.append(q)
        return Polynomial(out)

    def truncate(self, length: int) -> "Polynomial":
        """The remainder modulo ``x**length``: the terms below that power."""
        if length < 0:
            raise ValueError("length must be nonnegative")
        if length >= len(self._coeffs):
            return self
        return Polynomial._unchecked(list(self._coeffs[:length]))

    def __add__(self, other: PolynomialLike) -> "Polynomial":
        other = Polynomial.coerce(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial._unchecked([*map(add, a, b), *a[len(b):]])

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._unchecked([-c for c in self._coeffs])

    def __sub__(self, other: PolynomialLike) -> "Polynomial":
        return self + (-Polynomial.coerce(other))

    def __rsub__(self, other: PolynomialLike) -> "Polynomial":
        return Polynomial.coerce(other) + (-self)

    def __mul__(self, other: PolynomialLike) -> "Polynomial":
        other = Polynomial.coerce(other)
        a, b = self._coeffs, other._coeffs
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return ZERO
        if len(a) >= KRONECKER_MIN_TERMS:
            return Polynomial._unchecked(_kronecker_product(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return Polynomial._unchecked(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        return power_by_squaring(self, exponent, ONE, Polynomial.__mul__)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == (Polynomial.constant(other))._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self._coeffs[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if power == 0:
                body = int_text(mag)
            else:
                var = "x" if power == 1 else f"x^{power}"
                body = var if mag == 1 else int_text(mag) + var
            parts.append(sign + body)
        return "".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Parse the text form produced by ``str``; inverse of rendering."""
        compact = text.replace(" ", "")
        if not compact:
            raise ValueError("empty polynomial text")
        terms = re.findall(_SPLIT_RE, compact)
        if "".join(terms) != compact:
            raise ValueError(f"cannot parse polynomial: {text!r}")
        powers: dict[int, int] = {}
        for term in terms:
            sign = 1
            body = term
            if body[0] in "+-":
                sign = -1 if body[0] == "-" else 1
                body = body[1:]
            match = re.match(_TERM_RE, body)
            if not match or (match.group(1) is None and match.group(2) is None):
                raise ValueError(f"cannot parse polynomial term: {term!r}")
            coeff = parse_int(match.group(1)) if match.group(1) is not None else 1
            if match.group(2) is None:
                power = 0
            elif match.group(3) is None:
                power = 1
            else:
                power = int(match.group(3))
            powers[power] = powers.get(power, 0) + sign * coeff
        size = max(powers) + 1 if powers else 0
        out = [0] * size
        for power, coeff in powers.items():
            out[power] = coeff
        return cls(out)


ZERO = Polynomial()
ONE = Polynomial((1,))
X = Polynomial((0, 1))


def _kronecker_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of the product of two nonzero coefficient sequences.

    Every product coefficient is at most ``min(len) * max|a| * max|b|`` in
    size, which fixes the digit width (:func:`_digit_width`).
    """
    width = _digit_width(min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)))
    return _unpack(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1)


def _digit_width(bound: int) -> int:
    """Bytes per digit for coefficients of size at most ``bound``, sign bit included."""
    return (bound.bit_length() + 8) // 8


def _pack(coeffs: Sequence[int], width: int) -> int:
    """The value at x = 2**(8 * width) of a polynomial with these coefficients.

    The coefficients are written as two's-complement digits, so a negative
    digit borrows one from the digit above; the packed value is corrected
    for that.
    """
    if not coeffs:
        return 0
    packed = int.from_bytes(
        b"".join([c.to_bytes(width, "little", signed=True) for c in coeffs]), "little")
    if min(coeffs) < 0:
        one, zero = (1).to_bytes(width, "little"), bytes(width)
        borrows = b"".join([one if c < 0 else zero for c in coeffs])
        packed -= int.from_bytes(borrows, "little") << (8 * width)
    return packed


def _unpack(packed: int, width: int, digits: int) -> list[int]:
    """The first ``digits`` coefficients of a value packed by :func:`_pack`.

    Exact when every coefficient has size below ``2**(8 * width - 1)``: each
    digit is read as a signed number plus the borrow of the digit below.
    """
    data = packed.to_bytes(width * digits, "little", signed=True)
    out = []
    borrow = 0
    for start in range(0, len(data), width):
        digit = int.from_bytes(data[start:start + width], "little", signed=True)
        out.append(digit + borrow)
        borrow = digit < 0
    return out


def int_text(value: int) -> str:
    """The decimal digits of ``value``, however many there are.

    ``str`` refuses an int of more than ``sys.int_max_str_digits`` digits
    (4,300 by default), and a library must not raise that process-wide
    limit; only such an int converts through ``Decimal``, which is exact.
    """
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(value))


def parse_int(text: str) -> int:
    """``int(text)``, exact also past ``sys.int_max_str_digits`` digits."""
    try:
        return int(text)
    except ValueError:
        if not re.fullmatch(_INT_RE, text):
            raise
        from decimal import Decimal
        return int(Decimal(text))


def power_by_squaring(base: T, exponent: int, unit: T,
                      multiply: Callable[[T, T], T]) -> T:
    """``exponent`` copies of ``base`` multiplied together (``unit`` at 0).

    Square-and-multiply, O(log exponent) products.  ``multiply`` must be
    associative; powers of one element commute, so grouping does not matter.
    """
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    result = unit
    while exponent:
        if exponent & 1:
            result = multiply(result, base)
        exponent >>= 1
        if exponent:
            base = multiply(base, base)
    return result
