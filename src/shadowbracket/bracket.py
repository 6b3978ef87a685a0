"""The bracket 5-tuple algebra for 3-tangle shadows.

The shadow bracket of a 3-tangle is a formal combination
``a<1_3> + b<U1> + c<U2> + d<r> + e<s>`` with coefficients in Z[x], identified
here with the tuple ``[a, b, c, d, e]``.  Gluing tangles corresponds to a
bilinear product on tuples (:func:`compose`), extended from the monoid
multiplication table by converting each detached loop into a factor of x.
A tangle word over ``X1 X2 U1 U2 H M`` is the product of its letters' tuples
(:func:`word_tuple`).

Repeated gluing is linear: ``states_matrix(v)`` is the 5x5 matrix of the
right-gluing map ``w -> compose(w, v)``, so its n-th power applied to the
unit tuple is the tuple of the n-fold power of ``v``.  That matrix is
annihilated by a cubic built from ``a``, ``p`` and ``m``
(:func:`power_cubic`), so :func:`power` writes ``v^n`` as a combination of
1, ``v`` and ``v^2`` whose three coefficients come from one scalar series.
The closure of a tangle weights each slot by one factor of x per loop its
basis diagram closes to, and the closures of the powers have a rational
generating function built from the invariants ``p`` and ``m``
(:func:`gf_from_tuple`); :func:`closed_form_bracket` reads it without ever
forming the radical ``q``.

A rational series in y over Z[x], :class:`RationalTerm`, is one linear
recurrence with two readers, chosen by what the caller needs.
:meth:`RationalTerm.terms` walks every term, one short-by-long product per
feedback polynomial, for callers that print them all.
:meth:`RationalTerm.term` jumps to the recurrence's window at one term: it
runs the same recurrence on the terms packed into integers, one fixed-width
digit per coefficient (Kronecker substitution), and reads the digits back
only at block ends.  Both :func:`power` and :func:`closed_form_bracket` jump
to their n-th term with it.  :class:`RationalGF` is the sum of two such
terms, the generating function of a tangle's closure brackets.
"""

from __future__ import annotations

from functools import reduce
from itertools import count, islice
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from .poly import (ONE, X, ZERO, Polynomial, PolynomialLike, _product, _sum,
                   power_by_squaring)
from .record import Record
from .tl3 import ELEMENTS, WORD_LETTERS, BracketVector, closure_loops, multiply

# Recurrence steps :meth:`RationalTerm.term` runs between two readings of its
# packed terms.  A block's digit width must hold its largest term, so a longer
# block carries wider digits through its early steps, and a shorter one
# reads the digits back more often.  Of 8, 16, 32, 64 and 128 steps, 32 was
# fastest for closed E^1000 (8 and 16 took 23% and 8% longer) and within
# the noise of the best at the sizes of the tower benchmark (CPython 3.11,
# 2-vCPU x86 VM).
SERIES_BLOCK_STEPS = 32


class PQInvariants(Record):
    """The sum p and product m of the two non-trivial eigenvalues of a tuple.

    The states matrix's non-trivial eigenvalues are (p +- q) / 2, with the
    paper's squared radicand q^2 = p^2 - 4m; q itself is never materialised,
    keeping all arithmetic in Z[x].
    """

    __slots__ = ("p", "m")

    @property
    def q_squared(self) -> Polynomial:
        """The squared radicand q^2 = p^2 - 4m."""
        return self.p * self.p - 4 * self.m

    def pair_product(self) -> Polynomial:
        """The eigenvalue product m."""
        return self.m


class PolyMatrix(Record):
    """A 5x5 matrix of integer polynomials, one row and column per basis diagram.

    It is the states matrix (:func:`states_matrix`) or a product of such;
    anything but five rows of five entries is refused.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[PolynomialLike]]):
        built = tuple(tuple(Polynomial.coerce(v) for v in row) for row in rows)
        if len(built) != 5 or any(len(row) != 5 for row in built):
            raise ValueError("a PolyMatrix must have 5 rows of 5 entries")
        super().__init__(built)

    @classmethod
    def identity(cls) -> "PolyMatrix":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(5))
                         for i in range(5)))

    def __getitem__(self, index: int) -> tuple[Polynomial, ...]:
        return self.rows[index]

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(tuple(
            tuple(sum((row[k] * other.rows[k][j] for k in range(5)), ZERO)
                  for j in range(5))
            for row in self.rows))

    def power(self, n: int) -> "PolyMatrix":
        return power_by_squaring(self, n, PolyMatrix.identity(), PolyMatrix.__matmul__)

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
        super().__init__(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "LambdaPolynomial") -> "LambdaPolynomial":
        return LambdaPolynomial(_sum(self.coefficients, other.coefficients))

    def __neg__(self) -> "LambdaPolynomial":
        return LambdaPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "LambdaPolynomial") -> "LambdaPolynomial":
        return self + (-other)

    def __mul__(self, other: "LambdaPolynomial") -> "LambdaPolynomial":
        return LambdaPolynomial(_product(self.coefficients, other.coefficients))

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


class RationalTerm(Record):
    """A ratio of polynomials in y whose coefficients are polynomials in x.

    Numerator and denominator list their coefficients lowest power of y
    first, and the denominator starts with 1, so the series t_0, t_1, ...
    satisfies ``t_n = num_n - sum_k den_k t_(n-k)``.  The recurrence has two
    readers: :meth:`terms` walks every term, :meth:`term` jumps to one.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: tuple[Polynomial, ...],
                 denominator: tuple[Polynomial, ...]):
        if not denominator or denominator[0] != ONE:
            raise ValueError("denominator must have constant term 1")
        super().__init__(numerator, denominator)

    def terms(self, precision: int | None = None) -> Iterator[Polynomial]:
        """The series coefficients t_0, t_1, ..., walked one at a time.

        Each term costs one short-by-long product per feedback polynomial,
        and only the last ``len(denominator) - 1`` terms are kept.

        With ``precision``, every t_n is reduced modulo ``x**precision``.
        Reduction is a ring homomorphism, so reducing the inputs and each new
        term gives exactly the reduced series while every product stays short.
        """
        def cut(p: Polynomial) -> Polynomial:
            return p if precision is None else p.truncate(precision)

        numerator = [cut(c) for c in self.numerator]
        feedback = [cut(-c) for c in self.denominator[1:]]
        recent: list[Polynomial] = []  # newest first
        for n in count():
            term = cut(sum((c * t for c, t in zip(feedback, recent)),
                           numerator[n] if n < len(numerator) else ZERO))
            yield term
            recent = [term, *recent][:len(feedback)]

    def term(self, n: int) -> list[Polynomial]:
        """The recurrence's window at t_n: its last max(order, 1) terms, t_n last.

        Fewer when n is below the window (all of t_0, ..., t_n then).  They
        equal the terms of :meth:`terms`, which also gives every term up to
        the last one the numerator touches.  From there the recurrence runs
        on integers packed at x = 2**(8w), one digit per coefficient
        (Kronecker substitution, :func:`_pack`): a product by a feedback
        polynomial is a few shifts and small-integer multiplies of one packed
        integer.

        The digits are read back only every :data:`SERIES_BLOCK_STEPS` steps.
        Each block takes its digit width w from the exact l1 norms of the terms
        it starts from: the l1 norm of ``sum f_k t_(n-k)`` is at most
        ``sum |f_k| |t_(n-k)|``, so that recurrence run on the norms bounds
        every coefficient of the block.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        order = len(self.denominator) - 1
        terms = list(islice(self.terms(),
                            min(n + 1, max(order, len(self.numerator)))))
        feedback = [(-c).coefficients for c in self.denominator[1:]]
        longest_feedback = max(map(len, feedback), default=0)
        # Horner rows, highest power of x first: row i holds (k, f_k[i]) for every
        # nonzero coefficient of x**i in the feedback polynomials f_k.
        rows = [[(k, f[i]) for k, f in enumerate(feedback) if i < len(f) and f[i]]
                for i in reversed(range(longest_feedback))]
        feedback_norms = [sum(map(abs, f)) for f in feedback]
        done = len(terms)
        while done <= n:
            steps = min(SERIES_BLOCK_STEPS, n + 1 - done)
            start = terms[len(terms) - order:][::-1]  # newest first
            norms = [sum(map(abs, t.coefficients)) for t in start]
            top = max(norms, default=0)  # the start terms are packed at this width too
            for _ in range(steps):
                norms = [sum(map(mul, feedback_norms, norms)), *norms[:-1]]
                top = max(top, norms[0])
            width = _digit_width(top)
            shift = 8 * width
            recent = [_pack(t.coefficients, width) for t in start]
            # glibc's malloc maps a block larger than any it has freed so far
            # afresh, and unmaps it when freed, so integers that grow a little
            # every step would each fault in all their pages (about 400,000
            # minor page faults, a quarter of the time, at closed E^1000).
            # Freeing one buffer four times the block's largest integer first
            # raises that limit (up to glibc's 32 MiB cap), and the block's
            # integers reuse heap memory; ``bytes`` takes the zeroed buffer from
            # calloc, which leaves a fresh mapping untouched (about 3,400 faults
            # in all at closed E^1000).  Under another allocator the buffer only
            # costs its allocation.  A step lengthens a term by less than the
            # longest feedback.
            longest = max((len(t.coefficients) for t in start), default=0)
            bytes(4 * width * (longest + longest_feedback * steps + 1))
            for _ in range(steps):
                value = 0
                for row in rows:
                    value <<= shift
                    for k, c in row:
                        # A unit coefficient costs no multiply, the first term no add.
                        if c == -1:
                            value -= recent[k]
                            continue
                        term = recent[k] if c == 1 else c * recent[k]
                        value = value + term if value else term
                recent = [value, *recent[:-1]]
            # The window, oldest first; a block shorter than the order leaves
            # some of its start terms in it.
            terms = [Polynomial._unchecked(
                         _unpack(value, width, value.bit_length() // shift + 1))
                     for value in reversed(recent)]
            done += steps
        return terms[-max(order, 1):]


def _digit_width(bound: int) -> int:
    """Bytes per digit for coefficients of size at most ``bound``, sign bit included."""
    return (bound.bit_length() + 8) // 8


def _offset(width: int, digits: int) -> int:
    """``digits`` digits of 2**(8 * width - 1) each, packed at x = 2**(8 * width)."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * digits, "little")


def _pack(coeffs: Sequence[int], width: int) -> int:
    """The value at x = 2**(8 * width) of a polynomial with these coefficients.

    Each coefficient c is written in offset binary, as the unsigned digit
    c + 2**(8 * width - 1), and the packed offsets are taken off at once.
    """
    half = 1 << (8 * width - 1)
    return int.from_bytes(b"".join([(c + half).to_bytes(width, "little") for c in coeffs]),
                          "little") - _offset(width, len(coeffs))


def _unpack(packed: int, width: int, digits: int) -> list[int]:
    """The first ``digits`` coefficients of a value packed by :func:`_pack`.

    Exact when every coefficient has size below ``2**(8 * width - 1)``: with
    the offsets added back every digit is unsigned, and read minus its offset.
    """
    half = 1 << (8 * width - 1)
    data = (packed + _offset(width, digits)).to_bytes(width * digits, "little")
    return [int.from_bytes(data[start:start + width], "little") - half
            for start in range(0, len(data), width)]


class RationalGF(Record):
    """Generating function of the closure brackets of a tangle's powers."""

    __slots__ = ("pair_part", "geometric_part")

    def terms(self, precision: int | None = None) -> Iterator[Polynomial]:
        """The closure brackets of powers 0, 1, ..., each summed as it is read."""
        return map(add, self.pair_part.terms(precision),
                   self.geometric_part.terms(precision))

    def term(self, n: int) -> Polynomial:
        """The closure bracket of power n, by each part's jump to its n-th term."""
        return self.pair_part.term(n)[-1] + self.geometric_part.term(n)[-1]

    def expand(self, count: int) -> list[Polynomial]:
        """The first ``count + 1`` of :meth:`terms`."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        return list(islice(self.terms(), count + 1))

    def to_json(self) -> dict:
        def encode(term: RationalTerm) -> dict:
            return {"numerator": [list(p.coefficients) for p in term.numerator],
                    "denominator": [list(p.coefficients) for p in term.denominator]}
        return {"pair_part": encode(self.pair_part),
                "geometric_part": encode(self.geometric_part)}


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

    Below n = 3 the series costs more than the gluing it replaces, so
    ``v^1`` is ``v`` itself and ``v^2`` one :func:`compose`.
    """
    if n < 0:
        raise ValueError("power requires n >= 0")
    if n == 0:
        return BracketVector.unit()
    if n == 1:
        return v
    if n == 2:
        return compose(v, v)
    s1, s2, s3 = power_cubic(v)
    before, gamma, after = RationalTerm((ZERO, ZERO, ONE),
                                        (ONE, -s1, s2, -s3)).term(n + 1)
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
    return v.a + pq.p, v.a * pq.p + pq.m, v.a * pq.m


# Single-letter tangles: a crossing splits into the identity and a cup-cap,
# the cup-cap letters are monoid basis elements outright, and a hitch's four
# states are (x+2) identities and the cup-cap of the strands it threads.
_LETTER_TUPLES = {
    "X1": BracketVector.of(1, 1, 0, 0, 0),
    "X2": BracketVector.of(1, 0, 1, 0, 0),
    "U1": BracketVector.of(0, 1, 0, 0, 0),
    "U2": BracketVector.of(0, 0, 1, 0, 0),
    "H": BracketVector.of([2, 1], 0, 1, 0, 0),
    "M": BracketVector.of([2, 1], 1, 0, 0, 0),
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
    """The invariants p and m of ``v = [a, b, c, d, e]``::

        p = (b+c)x + 2a + d + e
        m = (bc - de)x^2 + a(b+c)x + a(a+d+e) + de - bc
    """
    a, b, c, d, e = v.entries()
    p = (b + c) * X + 2 * a + d + e
    cross = b * c - d * e
    m = cross * (X * X) + a * (b + c) * X + a * (a + d + e) - cross
    return PQInvariants(p, m)


def gf_from_tuple(v: BracketVector) -> RationalGF:
    """The generating function of ``closure(power(v, n))``::

        x(2 - p y) / (1 - p y + m y^2)   +   x(x^2 - 2) / (1 - a y)

    The first term sums ``x lam^n`` over the eigenvalue pair with sum p and
    product m (:func:`pq_invariants`); the second comes from the identity
    slot a.
    """
    pq = pq_invariants(v)
    return RationalGF(RationalTerm((2 * X, -(pq.p * X)), (ONE, -pq.p, pq.m)),
                      RationalTerm((X * (X * X - 2),), (ONE, -v.a)))


def closed_form_bracket(v: BracketVector, n: int) -> Polynomial:
    """Closure bracket of the n-th power of ``v``, by recurrence.

    The n-th series coefficient of :func:`gf_from_tuple`, each term run
    through its denominator recurrence by :meth:`RationalTerm.term`.  Agrees
    with ``closure(power(v, n))`` for every n, without forming any radical.
    """
    return gf_from_tuple(v).term(n)


def charpoly(matrix: PolyMatrix) -> LambdaPolynomial:
    """det(M - lambda I), computed by division-free cofactor expansion."""
    shifted = [[LambdaPolynomial((entry, -1) if i == j else (entry,))
                for j, entry in enumerate(row)]
               for i, row in enumerate(matrix.rows)]
    return _determinant(shifted)


def charpoly_factored(v: BracketVector) -> LambdaPolynomial:
    """The factored form -(lam - a)(lam^2 - p lam + m)^2, expanded.

    This is what ``charpoly(states_matrix(v))`` must equal coefficient-wise;
    the verification suite compares the two routes.
    """
    pq = pq_invariants(v)
    linear = LambdaPolynomial((-v.a, 1))
    quadratic = LambdaPolynomial((pq.m, -pq.p, 1))
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

