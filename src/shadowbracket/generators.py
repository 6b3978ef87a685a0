"""Built-in 3-tangle generators for the three flat Turk's-head families.

Closing the n-fold power of each generator gives the shadow of a three-lead
Turk's head (T), a chain sinnet (C) or a figure-eight chain (E).  Their
bracket tuples are::

    T:  [1, 1, 1, 0, 1]                      2 crossings
    C:  [x+2, x+2, 1, 0, 1]                  3 crossings
    E:  [x^2+4x+4, x+2, x+2, 0, 1]           4 crossings

The tuples are the normative data, typed out so that reading one imports no
``bracket``.  The shadow diagram of each generator is its word in :data:`WORDS`,
compiled and self-checked by :func:`shadowbracket.oracle.generator_diagram`.
"""

from __future__ import annotations

from .tl3 import BracketVector

NAMES = ("T", "C", "E")

WORDS = {"T": ("X1", "X2"), "C": ("X1", "H"), "E": ("M", "H")}

_TUPLES = {
    "T": BracketVector.of(1, 1, 1, 0, 1),
    "C": BracketVector.of([2, 1], [2, 1], 1, 0, 1),
    "E": BracketVector.of([4, 4, 1], [2, 1], [2, 1], 0, 1),
}


def generator_tuple(name: str) -> BracketVector:
    """The bracket tuple of a built-in generator."""
    try:
        return _TUPLES[name]
    except KeyError:
        valid = ", ".join(NAMES)
        raise ValueError(f"unknown generator {name!r} (expected one of: {valid})") from None
