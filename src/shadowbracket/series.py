"""Coefficient triangles of closure brackets, rendered and exported.

The closure brackets of the powers of a tangle are the coefficients of one
rational generating function in y over Z[x],
:func:`shadowbracket.bracket.gf_from_tuple`, whose
:class:`~shadowbracket.bracket.RationalTerm` parts also run the recurrence
that reads it.  This module renders that series and the triangles it
produces.

The coefficient triangle s(n, k) collects, for each power n, the number of
Kauffman states of the closure with exactly k loops; row n is just the
coefficient list of the n-th series coefficient.  Column k needs only the
series modulo x^(k+1), so :func:`coefficient_column` runs the recurrences
with that truncation instead of building the triangle.  Rows render as
lines of values; ``row_lines(enumerate(values))`` is the OEIS-style b-file
("index value" per line, from index 0), which :func:`compare_bfiles` checks
value by value against a reference b-file, read one line at a time.

The series is a lazy source, :meth:`RationalGF.terms`, and
:func:`table_rows`, :func:`coefficient_column` and :func:`row_lines` render
from it one row at a time, so that a caller writing the rows as they come
holds one row, not the whole output.
"""

from __future__ import annotations

import re
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

from .bracket import RationalGF, gf_from_tuple
from .generators import generator_tuple
from .poly import _INT_RE, ONE, Polynomial, int_text, parse_int


def expand(gf: RationalGF, count: int) -> list[Polynomial]:
    """Series coefficients 0..count of a closure generating function."""
    return gf.expand(count)


def table_rows(name: str, rows: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..rows of a built-in generator's triangle, each computed as it is read."""
    return (p.coefficients for p in _series(name, rows))


def coefficient_table(name: str, rows: int) -> list[list[int]]:
    """The coefficient triangle of a built-in generator, rows 0..rows."""
    return [list(row) for row in table_rows(name, rows)]


def coefficient_column(name: str, rows: int, k: int) -> Iterator[int]:
    """Column k of the coefficient triangle of a built-in generator, rows 0..rows.

    The values of ``column(coefficient_table(name, rows), k)``, from the
    series reduced modulo x^(k+1), each computed as it is read.
    """
    _check_column_index(k)
    return (p.coefficient(k) for p in _series(name, rows, k + 1))


def _series(name: str, rows: int, precision: int | None = None) -> Iterator[Polynomial]:
    """Series coefficients 0..rows of a built-in generator, reduced modulo x^precision."""
    if rows < 0:
        raise ValueError(f"rows must be nonnegative, got {rows}")
    return islice(gf_from_tuple(generator_tuple(name)).terms(precision), rows + 1)


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


def _bfile_pairs(chunks: Iterable[str]) -> Iterator[tuple[int, int]]:
    """The (index, value) pairs of b-file text read in chunks, such as a file's lines."""
    for lineno, line in enumerate(chain.from_iterable(map(str.splitlines, chunks)), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        fields = body.split()
        if len(fields) != 2 or not all(re.fullmatch(_INT_RE, f) for f in fields):
            raise ValueError(f"bad b-file line {lineno}: {line!r}")
        yield parse_int(fields[0]), parse_int(fields[1])


def compare_bfiles(entries: Sequence[tuple[int, int]],
                   reference: str | Iterable[str]) -> str | None:
    """Compare (index, value) pairs with a b-file, given as text or as an open file.

    Returns None on a match, else a message.  The reference is read one line
    at a time and to its end, so a malformed line after a mismatch is still
    refused.
    """
    problem, count = None, 0
    for count, pair in enumerate(_bfile_pairs([reference] if isinstance(reference, str)
                                              else reference), start=1):
        if problem is None and count <= len(entries) and entries[count - 1] != pair:
            ours_line, reference_line = row_lines((entries[count - 1], pair))
            problem = f"mismatch at line {count}: {ours_line} != {reference_line}"
    if problem is None and count != len(entries):
        problem = f"length mismatch: {len(entries)} lines versus {count}"
    return problem


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
