"""The five-element monoid of crossingless 3-strand tangle diagrams.

The elements are the identity ``1_3``, the two cup-cap diagrams ``U1`` and
``U2``, and the two hook diagrams ``r`` and ``s`` obtained by gluing the
cup-caps in the two possible orders (``r = U2*U1`` and ``s = U1*U2``).
Gluing any two of the five side by side yields another of the five, possibly
together with one detached loop, so a product is a ``(loops, element)`` pair.

Each element is defined once, as a planar matching of the strip's six
boundary points (Kauffman, *State models and the Jones polynomial*, Topology
26, 1987); the product, closure and flip tables are derived from the
matchings at import.  The test suite checks the products against the full
loop-weighted associativity law and the Temperley-Lieb relations.

A tangle bracket is a :class:`BracketVector`, one integer polynomial per
element.  It lives here, beside the basis it is written in, so that reading,
printing or passing on a tuple needs none of the tuple algebra of
:mod:`shadowbracket.bracket`.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .poly import Polynomial, PolynomialLike
from .record import Record


class TLElement(Enum):
    """One of the five crossingless 3-strand diagrams."""

    ID3 = "1_3"
    U1 = "U1"
    U2 = "U2"
    R = "r"
    S = "s"


class ScaledTL(NamedTuple):
    """A monoid element together with a count of detached loops."""

    loops: int
    element: TLElement


ELEMENTS = (TLElement.ID3, TLElement.U1, TLElement.U2, TLElement.R, TLElement.S)

_E = TLElement

# Each element as a matching of the strip's six boundary points: 0-2 on the
# left side and 3-5 on the right, top to bottom.  Entry i is the point paired
# with point i.
MATCHINGS: dict[TLElement, tuple[int, ...]] = {
    _E.ID3: (3, 4, 5, 0, 1, 2),
    _E.U1: (1, 0, 5, 4, 3, 2),
    _E.U2: (3, 2, 1, 0, 5, 4),
    _E.R: (5, 2, 1, 4, 3, 0),
    _E.S: (1, 0, 3, 2, 5, 4),
}


def _check_matching(element: TLElement, matching: tuple[int, ...]) -> None:
    """Raise ValueError, naming ``element``, unless ``matching`` is a planar pairing.

    That is a fixed-point-free involution of the points 0-5 whose strands do
    not cross.  Around the strip the points run 0, 1, 2 down the left side
    and 5, 4, 3 up the right; the strands cross unless, read in that order,
    every point closes the latest still-open one or opens a new one, as
    brackets do.
    """
    name = f"tl3.MATCHINGS[{element.value!r}] = {matching}"
    if (sorted(matching) != list(range(6))
            or any(matching[q] != p or p == q for p, q in enumerate(matching))):
        raise ValueError(f"{name} does not pair off the points 0-5")
    open_points: list[int] = []
    for point in (0, 1, 2, 5, 4, 3):
        if open_points and open_points[-1] == matching[point]:
            open_points.pop()
        else:
            open_points.append(point)
    if open_points:
        raise ValueError(f"{name} has crossing strands")


def _index_matchings(matchings: dict[TLElement, tuple[int, ...]]
                     ) -> dict[tuple[int, ...], TLElement]:
    """The element of each matching, once every row is checked and distinct."""
    index: dict[tuple[int, ...], TLElement] = {}
    for element, matching in matchings.items():
        _check_matching(element, matching)
        if matching in index:
            raise ValueError(f"tl3.MATCHINGS[{element.value!r}] repeats the row of "
                             f"{index[matching].value!r}")
        index[matching] = element
    return index


_BY_MATCHING = _index_matchings(MATCHINGS)


def _matching_product(left: tuple[int, ...], right: tuple[int, ...]) -> ScaledTL:
    """The product of two matchings: ``left``'s point 3 + k is ``right``'s k.

    Each outer point's path alternates between the two diagrams through the
    glued middle points until it leaves on an outer side.  The middle points
    no path crosses lie on detached loops, each through an even number of
    them, so of three middle points they are none or two on one loop.
    """
    paired = []
    crossed = set()
    for start in range(6):
        on_left, point = start < 3, start
        while True:
            point = (left if on_left else right)[point]
            if on_left == (point < 3):
                break
            crossed.add(point % 3)
            on_left = not on_left
            point = point % 3 + (3 if on_left else 0)
        paired.append(point)
    return ScaledTL((3 - len(crossed)) // 2, _BY_MATCHING[tuple(paired)])


def _closure_loops(matching: tuple[int, ...]) -> int:
    """The cycles formed when left point k is joined to right point 3 + k."""
    loops, seen = 0, set()
    for start in range(6):
        if start not in seen:
            loops += 1
            point = start
            while point not in seen:
                seen.add(point)
                point = matching[point]
                seen.add(point)
                point = (point + 3) % 6
    return loops


# The top-bottom flip of the strip, k -> 2 - k on each side: it swaps the two
# cup-caps and the two hooks.
_FLIP = (2, 1, 0, 5, 4, 3)

# Row = left factor, column = right factor; entries are (loops, element).
_TABLE = {a: {b: _matching_product(MATCHINGS[a], MATCHINGS[b]) for b in ELEMENTS}
          for a in ELEMENTS}
_CLOSURE_LOOPS = {element: _closure_loops(m) for element, m in MATCHINGS.items()}
_MIRROR = {element: _BY_MATCHING[tuple(_FLIP[m[_FLIP[i]]] for i in range(6))]
           for element, m in MATCHINGS.items()}


def multiply(left: TLElement, right: TLElement) -> ScaledTL:
    """Glue ``left`` and ``right`` side by side, extracting detached loops."""
    return _TABLE[left][right]


def closure_loops(element: TLElement) -> int:
    """Number of loops in the standard closure of a crossingless diagram."""
    return _CLOSURE_LOOPS[element]


def mirror(element: TLElement) -> TLElement:
    """The image of an element under the top-bottom flip of the strip."""
    return _MIRROR[element]


# The letters of a tangle word: the crossings of strands 1-2 and 2-3, the
# two cup-cap insertions, and the two-crossing hitch H (a bight threaded
# through a closed turn of the lower two strands) with its top-bottom mirror M.
WORD_LETTERS = ("X1", "X2", "U1", "U2", "H", "M")


class BracketVector(Record):
    """Coefficients of a tangle bracket on the five-diagram basis."""

    __slots__ = ("a", "b", "c", "d", "e")

    def __init__(self, a: PolynomialLike, b: PolynomialLike, c: PolynomialLike,
                 d: PolynomialLike, e: PolynomialLike):
        coerce = Polynomial.coerce
        super().__init__(coerce(a), coerce(b), coerce(c), coerce(d), coerce(e))

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
