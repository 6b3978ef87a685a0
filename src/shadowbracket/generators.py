"""Built-in 3-tangle generators for the three flat Turk's-head families.

Closing the n-fold power of each generator gives the shadow of a three-lead
Turk's head (T), a chain sinnet (C) or a figure-eight chain (E).  Their
bracket tuples are::

    T:  [1, 1, 1, 0, 1]                      2 crossings
    C:  [x+2, x+2, 1, 0, 1]                  3 crossings
    E:  [x^2+4x+4, x+2, x+2, 0, 1]           4 crossings

The tuples are the normative data; each generator also carries a concrete
shadow diagram whose state-sum bracket must reproduce its tuple, which is
checked the first time a diagram is requested.  T compiles directly from the
word ``X1 X2``.  C and E are assembled from a two-crossing hitch gadget (a
bight of new line pulled through a closed turn of the lower two strands)
whose bracket is ``(x+2)<1_3> + <U2>``: gluing a single crossing of the top
two strands in front yields C, and gluing the flipped gadget to the plain
one yields E.
"""

from __future__ import annotations

from functools import lru_cache

from .record import Record
from .tl3 import BracketVector

NAMES = ("T", "C", "E")

_T_WORD = ("X1", "X2")

# The normative tuples.  The diagrams are built from the oracle only when a
# generator's full spec is first asked for, so reading a tuple imports no
# diagram code.
_TUPLES = {
    "T": BracketVector.of(1, 1, 1, 0, 1),
    "C": BracketVector.of([2, 1], [2, 1], 1, 0, 1),
    "E": BracketVector.of([4, 4, 1], [2, 1], [2, 1], 0, 1),
}


def _turn_hitch() -> ShadowDiagram:
    """Two-crossing gadget with bracket (x+2)<1_3> + <U2>.

    The top strand passes straight through; a bight enters from the right and
    threads the closed turn formed by the two lower strands.  Two of its four
    states resolve to the identity, one to the identity with a detached loop,
    and one to the lower cup-cap.  Each crossing is listed in the rotational
    direction of :func:`compile_word`'s crossings, so glued and closed
    diagrams pass the listed-order planarity check.
    """
    from .diagram import Boundary, ShadowDiagram
    return ShadowDiagram(
        crossings=(
            ("turn", "bight1", "leg1", "bight0"),
            ("turn", "bight2", "leg2", "bight1"),
        ),
        boundary=Boundary(("pass", "leg1", "leg2"), ("pass", "bight0", "bight2")),
    )


class GeneratorSpec(Record):
    """A named generator: its bracket tuple, crossing count and diagram."""

    __slots__ = ("name", "bracket", "word", "diagram")

    def __init__(self, name: str, bracket: BracketVector, word: tuple[str, ...] | None,
                 diagram: ShadowDiagram):
        set_field = object.__setattr__
        set_field(self, "name", name)
        set_field(self, "bracket", bracket)
        set_field(self, "word", word)
        set_field(self, "diagram", diagram)

    @property
    def crossings(self) -> int:
        return self.diagram.crossing_count


@lru_cache(maxsize=None)
def generator(name: str) -> GeneratorSpec:
    """The full spec of a built-in generator, built on first use, unchecked."""
    bracket = generator_tuple(name)
    from .oracle import compile_word, glue, mirror_diagram
    if name == "T":
        return GeneratorSpec(name, bracket, _T_WORD, compile_word(_T_WORD))
    hitch = _turn_hitch()
    front = compile_word(("X1",)) if name == "C" else mirror_diagram(hitch)
    return GeneratorSpec(name, bracket, None, glue(front, hitch))


def generator_tuple(name: str) -> BracketVector:
    """The bracket tuple of a built-in generator."""
    try:
        return _TUPLES[name]
    except KeyError:
        valid = ", ".join(NAMES)
        raise ValueError(f"unknown generator {name!r} (expected one of: {valid})") from None


@lru_cache(maxsize=None)
def generator_diagram(name: str) -> ShadowDiagram:
    """The shadow diagram of a built-in generator, self-checked on first use.

    Raises RuntimeError if the stored diagram's state-sum bracket does not
    reproduce the generator's tuple.
    """
    from .oracle import enumerate_states
    spec = generator(name)
    found = enumerate_states(spec.diagram)
    if found != spec.bracket:
        raise RuntimeError(
            f"generator {name}: diagram self-check failed; state sum gave "
            f"{found}, expected {spec.bracket}")
    return spec.diagram
