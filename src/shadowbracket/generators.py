"""Built-in 3-tangle generators for the three flat Turk's-head families.

Closing the n-fold power of each generator gives the shadow of a three-lead
Turk's head (T), a chain sinnet (C) or a figure-eight chain (E).  Their
bracket tuples are::

    T:  [1, 1, 1, 0, 1]                      2 crossings
    C:  [x+2, x+2, 1, 0, 1]                  3 crossings
    E:  [x^2+4x+4, x+2, x+2, 0, 1]           4 crossings

The tuples are the normative data, and this module holds nothing else.  The
shadow diagram of each generator, whose state-sum bracket must reproduce its
tuple, is built by :func:`shadowbracket.oracle.generator_diagram`.
"""

from __future__ import annotations

from .tl3 import BracketVector

NAMES = ("T", "C", "E")

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
