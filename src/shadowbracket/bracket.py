"""The bracket 5-tuple algebra for 3-tangle shadows.

The shadow bracket of a 3-tangle is a formal combination
``a<1_3> + b<U1> + c<U2> + d<r> + e<s>`` with coefficients in Z[x], identified
here with the tuple ``[a, b, c, d, e]``.  Gluing tangles corresponds to a
bilinear product on tuples (:func:`compose`), extended from the monoid
multiplication table by converting each detached loop into a factor of x.
A tangle word over ``X1 X2 U1 U2`` is the product of its letters' tuples
(:func:`word_tuple`).

Repeated gluing is linear: ``states_matrix(v)`` is the 5x5 matrix of the
right-gluing map ``w -> compose(w, v)``, so its n-th power applied to the
unit tuple is the tuple of the n-fold power of ``v``.  That matrix is
annihilated by a cubic built from ``a``, ``p`` and ``m``
(:func:`power_cubic`), so :func:`power` writes ``v^n`` as a combination of
1, ``v`` and ``v^2`` whose three coefficients come from one scalar series.
The closure of a tangle weights each slot by one factor of x per loop its
basis diagram closes to, and the closures of the powers have a rational
generating function built from the invariants ``p`` and ``q^2``;
:func:`closed_form_bracket` runs its recurrence without ever forming the
radical ``q``.  Both jump to their n-th term with
:func:`shadowbracket.poly.series_term`.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

from .poly import (ONE, X, ZERO, Polynomial, PolynomialLike, power_by_squaring,
                   series_term)
from .record import Record
from .tl3 import ELEMENTS, TLElement, closure_loops, multiply

# A generating-function term: numerator and denominator in y, lowest power first.
YRatio = tuple[tuple[Polynomial, ...], tuple[Polynomial, ...]]


class BracketVector(Record):
    """Coefficients of a tangle bracket on the five-diagram basis."""

    __slots__ = ("a", "b", "c", "d", "e")

    def __init__(self, a: PolynomialLike, b: PolynomialLike, c: PolynomialLike,
                 d: PolynomialLike, e: PolynomialLike):
        coerce, set_field = Polynomial.coerce, object.__setattr__
        set_field(self, "a", coerce(a))
        set_field(self, "b", coerce(b))
        set_field(self, "c", coerce(c))
        set_field(self, "d", coerce(d))
        set_field(self, "e", coerce(e))

    @classmethod
    def of(cls, a: PolynomialLike, b: PolynomialLike, c: PolynomialLike,
           d: PolynomialLike, e: PolynomialLike) -> "BracketVector":
        return cls(a, b, c, d, e)

    @classmethod
    def unit(cls) -> "BracketVector":
        """The tuple of the identity tangle."""
        return cls.of(1, 0, 0, 0, 0)

    @classmethod
    def basis(cls, element: TLElement) -> "BracketVector":
        entries = [0] * 5
        entries[ELEMENTS.index(element)] = 1
        return cls.of(*entries)

    def entries(self) -> tuple[Polynomial, Polynomial, Polynomial, Polynomial, Polynomial]:
        return self._fields

    def mirrored(self) -> "BracketVector":
        """Swap the coefficients paired by the top-bottom flip (b<->c, d<->e)."""
        return BracketVector(self.a, self.c, self.b, self.e, self.d)

    def scaled(self, factor: PolynomialLike) -> "BracketVector":
        factor = Polynomial.coerce(factor)
        return BracketVector(*(factor * p for p in self.entries()))

    def __add__(self, other: "BracketVector") -> "BracketVector":
        return BracketVector(*(p + q for p, q in zip(self.entries(), other.entries())))

    def to_json(self) -> dict:
        return {name: list(p.coefficients)
                for name, p in zip("abcde", self.entries())}

    @classmethod
    def from_json(cls, data: object) -> "BracketVector":
        """Read the :meth:`to_json` form; raise ValueError for anything else."""
        if not isinstance(data, dict):
            raise ValueError("bracket tuple JSON must be an object")
        try:
            entries = [data[name] for name in "abcde"]
        except KeyError as missing:
            raise ValueError(f"bracket tuple JSON is missing key {missing}") from None
        extra = sorted(set(data) - set("abcde"))
        if extra:
            raise ValueError(f"bracket tuple JSON has unknown key {extra[0]!r}")
        for name, coeffs in zip("abcde", entries):
            # bool is a subclass of int, so test the exact type.
            if not isinstance(coeffs, list) or any(type(c) is not int for c in coeffs):
                raise ValueError(
                    f"bracket tuple JSON key {name!r} must be a list of integers")
        return cls.of(*entries)

    def __str__(self) -> str:
        return "[" + ", ".join(str(p) for p in self.entries()) + "]"


class PQInvariants(Record):
    """The linear invariant p and the squared radicand q^2 of a tuple.

    The pair determines the two non-trivial eigenvalues (p +- q) / 2 of the
    states matrix; q itself is never materialised, keeping all arithmetic in
    Z[x].
    """

    __slots__ = ("p", "q_squared")

    def __init__(self, p: Polynomial, q_squared: Polynomial):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q_squared", q_squared)

    def pair_product(self) -> Polynomial:
        """The eigenvalue product (p^2 - q^2) / 4, an exact integer polynomial.

        Raises ValueError if p^2 - q^2 is not divisible by 4 coefficient-wise.
        Invariants derived from any tuple never raise, because p^2 - q^2 =
        4m with m = (bc - de)x^2 + a(b+c)x + a^2 + a(d+e) + de - bc; only a
        hand-built pair can.
        """
        return (self.p * self.p - self.q_squared).exact_div(4)


class PolyMatrix(Record):
    """A square matrix of integer polynomials."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[PolynomialLike]]):
        built = tuple(tuple(Polynomial.coerce(v) for v in row) for row in rows)
        size = len(built)
        if any(len(row) != size for row in built):
            raise ValueError("matrix rows must all have the same length")
        object.__setattr__(self, "rows", built)

    @classmethod
    def identity(cls, size: int = 5) -> "PolyMatrix":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(size))
                         for i in range(size)))

    @property
    def size(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> tuple[Polynomial, ...]:
        return self.rows[index]

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.size != other.size:
            raise ValueError("matrix sizes differ")
        n = self.size
        return PolyMatrix(tuple(
            tuple(sum((self.rows[i][k] * other.rows[k][j] for k in range(n)), ZERO)
                  for j in range(n))
            for i in range(n)))

    def power(self, n: int) -> "PolyMatrix":
        return power_by_squaring(self, n, PolyMatrix.identity(self.size),
                                 PolyMatrix.__matmul__)

    def apply(self, vector: BracketVector) -> BracketVector:
        entries = vector.entries()
        return BracketVector(*(sum((row[j] * entries[j] for j in range(5)), ZERO)
                               for row in self.rows))

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(str(p) for p in row) + "]" for row in self.rows)
        return f"PolyMatrix({body})"


class LambdaPolynomial(Record):
    """A polynomial in the eigenvalue variable with Z[x] coefficients."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[PolynomialLike] = ()):
        coeffs = [Polynomial.coerce(c) for c in coefficients]
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, power: int) -> Polynomial:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return ZERO

    def __add__(self, other: "LambdaPolynomial") -> "LambdaPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return LambdaPolynomial(out)

    def __neg__(self) -> "LambdaPolynomial":
        return LambdaPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "LambdaPolynomial") -> "LambdaPolynomial":
        return self + (-other)

    def __mul__(self, other: "LambdaPolynomial") -> "LambdaPolynomial":
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return LambdaPolynomial()
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca.is_zero:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return LambdaPolynomial(out)

    def __repr__(self) -> str:
        return f"LambdaPolynomial({[list(c.coefficients) for c in self.coefficients]!r})"

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coefficients[power]
            if c.is_zero:
                continue
            if power == 0:
                parts.append(f"({c})")
            elif power == 1:
                parts.append(f"({c})L")
            else:
                parts.append(f"({c})L^{power}")
        return " + ".join(parts)


def compose(v: BracketVector, w: BracketVector) -> BracketVector:
    """The tuple of the tangle obtained by gluing ``v`` on the left of ``w``.

    Bilinear extension of the monoid multiplication: each basis product
    contributes to its slot, with every detached loop turned into a factor
    of x.
    """
    totals = {element: ZERO for element in ELEMENTS}
    for ev, cv in zip(ELEMENTS, v.entries()):
        if cv.is_zero:
            continue
        for ew, cw in zip(ELEMENTS, w.entries()):
            if cw.is_zero:
                continue
            loops, element = multiply(ev, ew)
            totals[element] = totals[element] + X ** loops * cv * cw
    return BracketVector(*(totals[element] for element in ELEMENTS))


def power(v: BracketVector, n: int) -> BracketVector:
    """The tuple of the n-fold gluing of ``v`` with itself (unit at n = 0).

    Every tuple satisfies the reduced cubic of its states matrix,
    ``v^3 = s1 v^2 - s2 v + s3`` with s1 = a + p, s2 = ap + m and s3 = am
    (:func:`power_cubic`).  So ``v^n`` is ``alpha + beta v + gamma v^2`` with
    ``lam^n = alpha + beta lam + gamma lam^2`` modulo the cubic (Fiduccia,
    *An efficient formula for linear recurrences*, SIAM J. Comput. 14, 1985),
    and all three come from one series ``gamma_n``, the coefficients of
    ``y^2 / (1 - s1 y + s2 y^2 - s3 y^3)``::

        v^n = s3 gamma_(n-1) + (gamma_(n+1) - s1 gamma_n) v + gamma_n v^2
    """
    if n < 0:
        raise ValueError("power requires n >= 0")
    if n == 0:  # gamma_(-1) is not a term of the series
        return BracketVector.unit()
    s1, s2, s3 = power_cubic(v)
    before, gamma, after = series_term((ZERO, ZERO, ONE), (ONE, -s1, s2, -s3), n + 1,
                                       count=3)
    return (BracketVector.unit().scaled(s3 * before) + v.scaled(after - s1 * gamma)
            + compose(v, v).scaled(gamma))


def power_cubic(v: BracketVector) -> tuple[Polynomial, Polynomial, Polynomial]:
    """The coefficients (s1, s2, s3) of ``lam^3 - s1 lam^2 + s2 lam - s3``.

    The states matrix has characteristic polynomial
    -(lam - a)(lam^2 - p lam + m)^2 (:func:`charpoly_factored`); TL_3 splits
    into a 1x1 and a 2x2 block, so this cubic, (lam - a)(lam^2 - p lam + m),
    already annihilates every tuple: ``v^3 = s1 v^2 - s2 v + s3``.
    """
    pq = pq_invariants(v)
    m = pq.pair_product()
    return v.a + pq.p, v.a * pq.p + m, v.a * m


WORD_LETTERS = ("X1", "X2", "U1", "U2")

# Single-letter tangles: a crossing splits into the identity and a cup-cap,
# while the cup-cap letters are monoid basis elements outright.
_LETTER_TUPLES = {
    "X1": BracketVector.of(1, 1, 0, 0, 0),
    "X2": BracketVector.of(1, 0, 1, 0, 0),
    "U1": BracketVector.of(0, 1, 0, 0, 0),
    "U2": BracketVector.of(0, 0, 1, 0, 0),
}


def parse_word(text: str) -> tuple[str, ...]:
    """Parse the whitespace-separated tangle word form, e.g. ``"X1 X2 U1"``."""
    letters = tuple(text.split())
    for letter in letters:
        if letter not in WORD_LETTERS:
            valid = ", ".join(WORD_LETTERS)
            raise ValueError(f"unknown tangle letter {letter!r} (expected one of: {valid})")
    return letters


def letter_tuple(letter: str) -> BracketVector:
    """The bracket tuple of a single tangle letter."""
    try:
        return _LETTER_TUPLES[letter]
    except KeyError:
        raise ValueError(f"unknown tangle letter {letter!r}") from None


def word_tuple(letters: Sequence[str]) -> BracketVector:
    """The bracket tuple of a word, by composing the letter tuples."""
    return reduce(compose, (letter_tuple(l) for l in letters), BracketVector.unit())


def closure(v: BracketVector) -> Polynomial:
    """The bracket polynomial of the standard closure of a tangle.

    Each basis diagram closes to ``closure_loops(element)`` loops, so its
    coefficient is weighted by x to that power.
    """
    total = ZERO
    for element, p in zip(ELEMENTS, v.entries()):
        total = total + X ** closure_loops(element) * p
    return total


def states_matrix(v: BracketVector) -> PolyMatrix:
    """The 5x5 matrix of the right-gluing map ``w -> compose(w, v)``.

    Column j holds the tuple of ``basis_j`` glued with ``v``, so for every
    tuple ``w`` the matrix applied to ``w`` equals ``compose(w, v)``, and the
    n-th matrix power applied to the unit tuple is ``power(v, n)``.  The
    matrix is constructed from :func:`compose`, never transcribed from a
    closed formula.
    """
    columns = [compose(BracketVector.basis(element), v).entries()
               for element in ELEMENTS]
    return PolyMatrix(tuple(tuple(columns[j][i] for j in range(5))
                            for i in range(5)))


def pq_invariants(v: BracketVector) -> PQInvariants:
    """The invariants p = (b+c)x + 2a + d + e and the squared radicand q^2."""
    a, b, c, d, e = v.entries()
    p = (b + c) * X + 2 * a + d + e
    q_squared = ((b * b - 2 * b * c + c * c + 4 * d * e) * (X * X)
                 + (2 * b * d + 2 * c * d + 2 * b * e + 2 * c * e) * X
                 + (4 * b * c + d * d - 2 * d * e + e * e))
    return PQInvariants(p, q_squared)


def closure_gf_terms(v: BracketVector) -> tuple[YRatio, YRatio]:
    """The two terms of the generating function of ``closure(power(v, n))``::

        x(2 - p y) / (1 - p y + m y^2)   +   x(x^2 - 2) / (1 - a y)

    The first sums ``x lam^n`` over the eigenvalue pair with sum p and
    product m = (p^2 - q^2)/4; the second comes from the identity slot a.

    Never raises: p^2 - q^2 is divisible by 4 for every tuple (see
    :meth:`PQInvariants.pair_product`); only a hand-built PQInvariants can
    fail that check.
    """
    pq = pq_invariants(v)
    return (((2 * X, -(pq.p * X)), (ONE, -pq.p, pq.pair_product())),
            ((X * (X * X - 2),), (ONE, -v.a)))


def closed_form_bracket(v: BracketVector, n: int) -> Polynomial:
    """Closure bracket of the n-th power of ``v``, by recurrence.

    The n-th series coefficient of :func:`closure_gf_terms`, each term run
    through its denominator recurrence by :func:`series_term`.  Agrees with
    ``closure(power(v, n))`` for every n, without forming any radical.
    """
    if n < 0:
        raise ValueError("closed_form_bracket requires n >= 0")
    pair, geometric = (series_term(num, den, n)[0] for num, den in closure_gf_terms(v))
    return pair + geometric


def charpoly(matrix: PolyMatrix) -> LambdaPolynomial:
    """det(M - lambda I), computed by division-free cofactor expansion."""
    shifted = [
        [LambdaPolynomial((matrix[i][j], -1)) if i == j
         else LambdaPolynomial((matrix[i][j],))
         for j in range(matrix.size)]
        for i in range(matrix.size)
    ]
    return _determinant(shifted)


def charpoly_factored(v: BracketVector) -> LambdaPolynomial:
    """The factored form -(lam - a)(lam^2 - p lam + m)^2, expanded.

    This is what ``charpoly(states_matrix(v))`` must equal coefficient-wise;
    the verification suite compares the two routes.
    """
    pq = pq_invariants(v)
    m = pq.pair_product()
    linear = LambdaPolynomial((-v.a, 1))
    quadratic = LambdaPolynomial((m, -pq.p, 1))
    return -(linear * quadratic * quadratic)


def _determinant(entries: Sequence[Sequence[LambdaPolynomial]]) -> LambdaPolynomial:
    # Laplace expansion along the first column; exact and division-free.
    size = len(entries)
    if size == 1:
        return entries[0][0]
    total = LambdaPolynomial()
    for i in range(size):
        lead = entries[i][0]
        if lead.is_zero:
            continue
        minor = [row[1:] for j, row in enumerate(entries) if j != i]
        term = lead * _determinant(minor)
        total = total + term if i % 2 == 0 else total - term
    return total
