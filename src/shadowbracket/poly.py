"""Exact arithmetic for univariate integer polynomials.

Polynomials are stored densely: ``coefficients[k]`` is the coefficient of
``x**k``, the highest stored coefficient is nonzero, and the zero polynomial
stores nothing.  Coefficients are plain Python ints, so everything here is
exact at any size; there is deliberately no float path and no division.

A polynomial is read from a JSON array like ``[0, 5, 8, 3]``, whose index
is the power of x, and written both that way and as text like
``3x^3+8x^2+5x`` (descending powers, zero terms omitted, unit coefficients
omitted except for constants).  Integers are exact at any size: one too long
for ``str`` or ``int`` (``sys.int_max_str_digits``) converts in two halves,
split at a power of ten (:func:`int_text`, :func:`parse_int`).
:func:`parse_int` is the integer rule of every input file, the JSON files'
numbers and the b-files' fields alike.

Every product is formed term by term, one pass over the shorter operand.
The sum and product run on coefficient sequences (``_sum``, ``_product``),
so the one route serves both :class:`Polynomial` and the polynomials over
Z[x] of :mod:`shadowbracket.bracket` (``LambdaPolynomial``).
"""

from __future__ import annotations

import re
from operator import add
from typing import Callable, Iterable, Sequence, TypeVar, Union

# The integer text read: ASCII digits and an optional sign (``int`` alone
# would also take digit-group underscores, other scripts' digits and
# surrounding whitespace).
_INT_RE = r"[+-]?[0-9]+"

PolynomialLike = Union["Polynomial", int, Iterable[int]]

T = TypeVar("T")


class Polynomial:
    """An immutable polynomial in x with integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        for c in coeffs:
            # bool is a subclass of int, so test the exact type.
            if type(c) is not int:
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
    def coerce(cls, value: PolynomialLike) -> "Polynomial":
        """Build a polynomial from an int, a coefficient list, or pass one through."""
        if isinstance(value, Polynomial):
            return value
        if type(value) is int:
            return cls._unchecked([value])
        if isinstance(value, int):
            raise TypeError(f"integer coefficient required, got {value!r}")
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

    def __add__(self, other: PolynomialLike) -> "Polynomial":
        return Polynomial._unchecked(_sum(self._coeffs, Polynomial.coerce(other)._coeffs))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._unchecked([-c for c in self._coeffs])

    def __sub__(self, other: PolynomialLike) -> "Polynomial":
        return self + (-Polynomial.coerce(other))

    def __rsub__(self, other: PolynomialLike) -> "Polynomial":
        return Polynomial.coerce(other) + (-self)

    def __mul__(self, other: PolynomialLike) -> "Polynomial":
        return Polynomial._unchecked(_product(self._coeffs, Polynomial.coerce(other)._coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        return power_by_squaring(self, exponent, ONE, Polynomial.__mul__)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        # A constant hashes as the int it equals; any other by its coefficients.
        return hash(self._coeffs if len(self._coeffs) > 1 else self.coefficient(0))

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


ZERO = Polynomial()
ONE = Polynomial((1,))
X = Polynomial((0, 1))


def _sum(a: Sequence[T], b: Sequence[T]) -> list[T]:
    """The coefficients of the sum of two polynomials, lowest power first."""
    if len(a) < len(b):
        a, b = b, a
    return [*map(add, a, b), *a[len(b):]]


def _product(a: Sequence[T], b: Sequence[T]) -> list[T]:
    """The coefficients of the product of two polynomials, lowest power first.

    Term by term, one pass over the shorter operand, skipping its zero
    coefficients.  The coefficients may be ints or :class:`Polynomial`
    values; a slot that no term reaches stays the int 0.
    """
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


def int_text(value: int) -> str:
    """The decimal digits of ``value``, however many there are.

    ``str`` refuses an int of more than ``sys.int_max_str_digits`` digits
    (4,300 by default), and a library must not raise that process-wide
    limit.  Only such an int is split, by ``divmod`` at about half its
    digits, and each half written the same way, the low one zero-filled.
    """
    try:
        return str(value)
    except ValueError:
        k = value.bit_length() * 3 // 20  # at most half the digits: log10(2) > 3/10
        high, low = divmod(abs(value), 10 ** k)
        return ("-" if value < 0 else "") + int_text(high) + int_text(low).zfill(k)


def parse_int(text: str) -> int:
    """The integer that ``text`` spells, exact also past ``sys.int_max_str_digits``.

    Text outside ``_INT_RE`` is refused (``ValueError``), though ``int``
    would read some of it.  Only text that ``int`` refuses for its length is
    split: its digits in two halves, each parsed the same way.
    """
    if not re.fullmatch(_INT_RE, text):
        raise ValueError(f"invalid integer text {text!r}")
    try:
        return int(text)
    except ValueError:
        digits = text.lstrip("+-")
        k = len(digits) // 2
        value = parse_int(digits[:-k]) * 10 ** k + parse_int(digits[-k:])
        return -value if text[0] == "-" else value


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
