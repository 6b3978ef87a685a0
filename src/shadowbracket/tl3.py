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
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class TLElement(Enum):
    """One of the five crossingless 3-strand diagrams."""

    ID3 = "1_3"
    U1 = "U1"
    U2 = "U2"
    R = "r"
    S = "s"

    @property
    def symbol(self) -> str:
        """The textual name used by the CLI and JSON output."""
        return self.value

    @classmethod
    def from_symbol(cls, name: str) -> "TLElement":
        for element in cls:
            if element.value == name:
                return element
        valid = ", ".join(e.value for e in cls)
        raise ValueError(f"unknown monoid element {name!r} (expected one of: {valid})")


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

_BY_MATCHING = {matching: element for element, matching in MATCHINGS.items()}


def _glue(left: tuple[int, ...], right: tuple[int, ...]) -> ScaledTL:
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
_TABLE = {a: {b: _glue(MATCHINGS[a], MATCHINGS[b]) for b in ELEMENTS} for a in ELEMENTS}
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
