"""Rational generating functions and coefficient triangles for closure brackets.

The sequence of closure brackets of the powers of a tangle has a rational
generating function in y with coefficients in Z[x], the sum of two terms::

    x(2 - p y) / (1 - p y + m y^2)   +   x(x^2 - 2) / (1 - a y)

where p is the linear invariant of the tuple, m = (p^2 - q^2)/4 the
eigenvalue product, and a the identity coefficient.  Expanding either term is
a plain linear recurrence driven by its denominator, so the n-th series
coefficient reproduces :func:`shadowbracket.bracket.closed_form_bracket`
exactly.

The coefficient triangle s(n, k) collects, for each power n, the number of
Kauffman states of the closure with exactly k loops; row n is just the
coefficient list of the n-th series coefficient.  Column k needs only the
series modulo x^(k+1), so :func:`coefficient_column` runs the recurrences
with that truncation instead of building the triangle.  Rows export as CSV
lines or as OEIS-style b-files ("index value" per line).

The series is also a lazy source, :meth:`RationalGF.terms`, and
:func:`table_rows` and :func:`row_lines` render a triangle from it one row
at a time, so that a caller writing the rows as they come holds one row,
not the whole output.
"""

from __future__ import annotations

from itertools import islice
from operator import add
from typing import Iterable, Iterator, Sequence

from .bracket import closure_gf_terms, series_coefficients
from .generators import generator_tuple
from .poly import ONE, Polynomial, int_text, parse_int
from .record import Record
from .tl3 import BracketVector


class RationalTerm(Record):
    """A ratio of polynomials in y whose coefficients are polynomials in x."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: tuple[Polynomial, ...],
                 denominator: tuple[Polynomial, ...]):
        if not denominator or denominator[0] != ONE:
            raise ValueError("denominator must have constant term 1")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def terms(self, precision: int | None = None) -> Iterator[Polynomial]:
        """The series coefficients t_0, t_1, ..., by the denominator recurrence.

        With ``precision``, each is reduced modulo ``x**precision``.
        """
        return series_coefficients(self.numerator, self.denominator, precision)


class RationalGF(Record):
    """Generating function of the closure brackets of a tangle's powers."""

    __slots__ = ("pair_part", "geometric_part")

    def __init__(self, pair_part: RationalTerm, geometric_part: RationalTerm):
        object.__setattr__(self, "pair_part", pair_part)
        object.__setattr__(self, "geometric_part", geometric_part)

    def terms(self, precision: int | None = None) -> Iterator[Polynomial]:
        """The closure brackets of powers 0, 1, ..., each summed as it is read."""
        return map(add, self.pair_part.terms(precision),
                   self.geometric_part.terms(precision))

    def expand(self, count: int, precision: int | None = None) -> list[Polynomial]:
        """The first ``count + 1`` of :meth:`terms`."""
        return list(_leading(self.terms(precision), count))

    def to_json(self) -> dict:
        def encode(term: RationalTerm) -> dict:
            return {"numerator": [list(p.coefficients) for p in term.numerator],
                    "denominator": [list(p.coefficients) for p in term.denominator]}
        return {"pair_part": encode(self.pair_part),
                "geometric_part": encode(self.geometric_part)}


def _leading(terms: Iterator[Polynomial], count: int) -> Iterator[Polynomial]:
    """The first ``count + 1`` of ``terms``."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return islice(terms, count + 1)


def gf_from_tuple(v: BracketVector) -> RationalGF:
    """Build the closure generating function from a bracket tuple.

    Never raises: as in :func:`shadowbracket.bracket.closure_gf_terms`, the
    divisibility check passes for every tuple; only a hand-built
    PQInvariants can fail it.
    """
    pair, geometric = closure_gf_terms(v)
    return RationalGF(RationalTerm(*pair), RationalTerm(*geometric))


def expand(gf: RationalGF, count: int) -> list[Polynomial]:
    """Series coefficients 0..count of a closure generating function."""
    return gf.expand(count)


def coefficient_rows(v: BracketVector, rows: int) -> list[list[int]]:
    """Loop-count distributions for the closures of powers 0..rows of ``v``."""
    return [list(p.coefficients) for p in gf_from_tuple(v).expand(rows)]


def table_rows(name: str, rows: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..rows of a built-in generator's triangle, each computed as it is read."""
    gf = gf_from_tuple(generator_tuple(name))
    return (p.coefficients for p in _leading(gf.terms(), rows))


def coefficient_table(name: str, rows: int) -> list[list[int]]:
    """The coefficient triangle of a built-in generator, rows 0..rows."""
    return [list(row) for row in table_rows(name, rows)]


def coefficient_column(name: str, rows: int, k: int) -> list[int]:
    """Column k of the coefficient triangle of a built-in generator, rows 0..rows.

    Equal to ``column(coefficient_table(name, rows), k)``, from the series
    reduced modulo x^(k+1).
    """
    _check_column_index(k)
    series = gf_from_tuple(generator_tuple(name)).expand(rows, precision=k + 1)
    return [p.coefficient(k) for p in series]


def row_sums(table: Sequence[Sequence[int]]) -> list[int]:
    return [sum(row) for row in table]


def column(table: Sequence[Sequence[int]], k: int) -> list[int]:
    """Column k of a triangle, reading missing entries as 0."""
    _check_column_index(k)
    return [row[k] if k < len(row) else 0 for row in table]


def _check_column_index(k: int) -> None:
    if k < 0:
        raise ValueError(f"column index must be nonnegative, got {k}")


def row_lines(rows: Iterable[Sequence[int]], sep: str = " ") -> Iterator[str]:
    """Each row as one line of its values, written exactly and joined by ``sep``."""
    return (sep.join(map(int_text, row)) for row in rows)


def csv_lines(table: Sequence[Sequence[int]]) -> list[str]:
    return list(row_lines(table, ","))


def bfile_lines(values: Iterable[int], offset: int = 0) -> list[str]:
    """OEIS b-file form: one "index value" pair per line."""
    return list(row_lines(enumerate(values, offset)))


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse b-file text, skipping blank lines and # comments."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        try:
            index, value = map(parse_int, body.split())
        except ValueError:
            raise ValueError(f"bad b-file line {lineno}: {line!r}") from None
        entries.append((index, value))
    return entries


def compare_bfiles(ours: str, reference: str) -> str | None:
    """Compare two b-file texts; return None on match, else a message."""
    a, b = parse_bfile(ours), parse_bfile(reference)
    for i, (left, right) in enumerate(zip(a, b)):
        if left != right:
            ours_line, reference_line = (" ".join(map(int_text, entry))
                                         for entry in (left, right))
            return f"mismatch at line {i + 1}: {ours_line} != {reference_line}"
    if len(a) != len(b):
        return f"length mismatch: {len(a)} lines versus {len(b)}"
    return None


def triangle_values(table: Sequence[Sequence[int]]) -> list[int]:
    """Flatten a triangle row by row, k ascending, for b-file export."""
    return [value for row in table for value in row]


def render_gf(gf: RationalGF) -> str:
    """Readable text form, each term as numerator / denominator in y."""
    first = f"({_poly_in_y(gf.pair_part.numerator)}) / ({_poly_in_y(gf.pair_part.denominator)})"
    second = (f"({_poly_in_y(gf.geometric_part.numerator)})"
              f" / ({_poly_in_y(gf.geometric_part.denominator)})")
    return f"{first} + {second}"


def _poly_in_y(coefficients: Sequence[Polynomial]) -> str:
    parts = []
    for power, coeff in enumerate(coefficients):
        if coeff.is_zero:
            continue
        if power == 0:
            parts.append(str(coeff))
            continue
        y = "y" if power == 1 else f"y^{power}"
        if coeff == ONE:
            parts.append(y)
        else:
            parts.append(f"({coeff}){y}")
    return " + ".join(parts) if parts else "0"
