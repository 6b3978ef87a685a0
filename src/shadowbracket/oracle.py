"""Brute-force Kauffman state sums over planar shadow diagrams.

The diagrams are those of :mod:`shadowbracket.diagram`, whose model this
module re-exports.  Enumerating all ``2**crossings`` smoothing bit vectors,
counting the closed components of each state and reading the monoid element
of its boundary pattern gives the bracket by plain summation, one
``x**loops`` per state.  This is the independent ground truth that the
tuple algebra in :mod:`shadowbracket.bracket` and the frontier contraction
in :mod:`shadowbracket.contraction` are tested against, so it imports
neither.  The builders that compile, glue, close and mirror diagrams live
here too; the shadow diagram of each built-in generator is the compiled
word of :data:`shadowbracket.generators.WORDS`, self-checked against its
tuple.

One smoothing routine serves :func:`smooth` and :func:`enumerate_states`:
the edges are numbered once, each crossing's two smoothings become a row of
a join table, and a smoothed state is read off as its loop count plus the
monoid element of its boundary pattern.  The diagram model's union-find
merges the joined edges there, and also serves the diagram builder, over
edge names.

State enumeration is a pure fold over the binary-counter order of the bit
vectors.  Because the per-state contributions are combined by addition only,
the fold may be partitioned over disjoint mask ranges and recombined without
changing the result; the implementation here visits states depth-first,
sharing the union-find of common prefixes, and reproduces the sequential
fold exactly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Sequence

# The diagram model lives in its own module and is re-exported here.
from .diagram import (MAX_FREE_LOOPS, Boundary, MalformedDiagramError,  # noqa: F401
                      ShadowDiagram, _SMOOTHINGS, _boundary_element, _find, _number_edges,
                      _Roots, _union)
from .generators import WORDS, generator_tuple
from .poly import Polynomial
from .tl3 import ELEMENTS, BracketVector, TLElement

DEFAULT_MAX_CROSSINGS = 20


class CrossingLimitError(ValueError):
    """The diagram has more crossings than the state sum accepts."""


def compile_word(letters: Sequence[str]) -> ShadowDiagram:
    """Compile a tangle word into a shadow diagram, gluing left to right.

    Crossing letters spend one crossing each; cup-cap letters join the two
    current strands (extracting a free loop when they are already the same
    arc) and open a fresh arc in their place.  The hitch ``H`` threads a
    bight through a closed turn of the lower two strands, its two crossings
    turning as the crossing letters' do, so the face trace accepts them as
    listed; its mirror ``M`` lists the same on the upper two strands reversed.
    """
    state = _Builder()
    strands = [state.fresh() for _ in range(3)]
    left = tuple(strands)
    for letter in letters:
        if letter in ("X1", "X2"):
            i = 0 if letter == "X1" else 1
            out_top, out_bot = state.fresh(), state.fresh()
            state.crossings.append((strands[i], out_top, out_bot, strands[i + 1]))
            strands[i], strands[i + 1] = out_top, out_bot
        elif letter in ("U1", "U2"):
            i = 0 if letter == "U1" else 1
            state.join(strands[i], strands[i + 1])
            bridge = state.fresh()
            strands[i] = strands[i + 1] = bridge
        elif letter in ("H", "M"):
            first, second = (1, 2) if letter == "H" else (1, 0)
            turn, b0, b1, b2 = (state.fresh() for _ in range(4))
            hitch = [(turn, b1, strands[first], b0), (turn, b2, strands[second], b1)]
            if letter == "M":
                hitch = [quad[::-1] for quad in hitch]
            state.crossings += hitch
            strands[first], strands[second] = b0, b2
        else:
            raise ValueError(f"unknown tangle letter {letter!r}")
    return state.finish(Boundary(left, tuple(strands)))


class _Builder:
    """Accumulates crossings and crossingless joins while assembling a diagram."""

    __slots__ = ("crossings", "merges", "free_loops", "_counter")

    def __init__(self):
        self.crossings: list[tuple[str, str, str, str]] = []
        self.merges = _Roots()
        self.free_loops = 0
        self._counter = 0

    def fresh(self) -> str:
        name = f"e{self._counter}"
        self._counter += 1
        return name

    def join(self, a: str, b: str) -> None:
        # Joining the two ends of one arc closes it into a crossingless circle.
        if not _union(self.merges, a, b):
            self.free_loops += 1

    def finish(self, boundary: Boundary | None, extra_loops: int = 0) -> ShadowDiagram:
        # Name each merged edge e0, e1, ... in first-seen order, crossings
        # first, for stable output.
        names: dict[str, str] = {}

        def name(edge: str) -> str:
            root = _find(self.merges, edge)
            if root not in names:
                names[root] = f"e{len(names)}"
            return names[root]

        crossings = tuple(tuple(map(name, quad)) for quad in self.crossings)
        if boundary is not None:
            boundary = Boundary(tuple(map(name, boundary.left)),
                                tuple(map(name, boundary.right)))
        return ShadowDiagram(crossings, boundary, self.free_loops + extra_loops)


def close_diagram(diagram: ShadowDiagram) -> ShadowDiagram:
    """Join each left endpoint to the matching right endpoint, closing the tangle."""
    if diagram.boundary is None:
        raise MalformedDiagramError("diagram is already closed")
    builder = _Builder()
    builder.crossings = list(diagram.crossings)
    for a, b in zip(diagram.boundary.left, diagram.boundary.right):
        builder.join(a, b)
    return builder.finish(None, extra_loops=diagram.free_loops)


def glue(first: ShadowDiagram, second: ShadowDiagram) -> ShadowDiagram:
    """The tangle product: glue the right boundary of ``first`` to the left of ``second``."""
    if first.boundary is None or second.boundary is None:
        raise MalformedDiagramError("tangle product requires two open tangles")
    # Namespace the two edge sets before joining the shared boundary.
    builder = _Builder()
    builder.crossings = [tuple(f"a.{e}" for e in quad) for quad in first.crossings]
    builder.crossings += [tuple(f"b.{e}" for e in quad) for quad in second.crossings]
    for a, b in zip(first.boundary.right, second.boundary.left):
        builder.join(f"a.{a}", f"b.{b}")
    boundary = Boundary(tuple(f"a.{e}" for e in first.boundary.left),
                        tuple(f"b.{e}" for e in second.boundary.right))
    return builder.finish(boundary, extra_loops=first.free_loops + second.free_loops)


def mirror_diagram(diagram: ShadowDiagram) -> ShadowDiagram:
    """Flip the diagram top to bottom; cyclic orders reverse, sides keep their role."""
    builder = _Builder()
    builder.crossings = [quad[::-1] for quad in diagram.crossings]
    boundary = diagram.boundary
    if boundary is not None:
        boundary = Boundary(boundary.left[::-1], boundary.right[::-1])
    return builder.finish(boundary, extra_loops=diagram.free_loops)


# Per smoothing, a getter of the four joined slots of a crossing, pair by pair.
_JOIN_SLOTS = tuple(itemgetter(*chain(*pairs)) for pairs in _SMOOTHINGS)


def _join_table(diagram: ShadowDiagram) -> tuple[int, tuple, tuple[int, ...]]:
    """The edge count, the join table and the boundary edge numbers.

    Per crossing and per bit, the join table holds the edge numbers
    ``(a, b, c, d)`` that the smoothing joins as ``a-b`` and ``c-d``.
    """
    index = _number_edges(diagram)
    numbers = map(index.__getitem__, chain(*diagram.crossings))
    quads = list(zip(numbers, numbers, numbers, numbers))
    joins = tuple(zip(*(map(slots, quads) for slots in _JOIN_SLOTS)))
    return len(index), joins, tuple(index[e] for e in diagram.boundary_edges())


def _read_state(parent: list[int], components: int, boundary: tuple[int, ...],
                free_loops: int) -> tuple[int, TLElement | None]:
    """The loop count and boundary element of a smoothed state.

    ``components`` counts the classes of ``parent``; those holding a boundary
    edge are arcs, the others loops.  A closed diagram has no element (None).
    """
    if not boundary:
        return components + free_loops, None
    roots = [_find(parent, b) for b in boundary]
    return components - len(set(roots)) + free_loops, _boundary_element(roots)


def smooth(diagram: ShadowDiagram,
           choices: Sequence[int]) -> tuple[int, TLElement | None]:
    """Resolve every crossing according to ``choices`` (one bit per crossing).

    Returns the number of closed loops (including free loops) and the monoid
    element of the boundary pattern (None for a closed diagram).
    """
    if len(choices) != diagram.crossing_count:
        raise ValueError(
            f"need {diagram.crossing_count} smoothing bits, got {len(choices)}")
    components, joins, boundary = _join_table(diagram)
    parent = list(range(components))
    for options, bit in zip(joins, choices):
        a, b, c, d = options[1 if bit else 0]
        components -= _union(parent, a, b) + _union(parent, c, d)
    return _read_state(parent, components, boundary, diagram.free_loops)


def enumerate_states(diagram: ShadowDiagram) -> BracketVector | Polynomial:
    """Sum ``x**loops`` over all Kauffman states of the diagram.

    For an open 3-tangle the result is a :class:`BracketVector`, each state
    accumulated into the slot of its boundary element; for a closed diagram
    it is the bracket polynomial itself.  States are visited in binary-counter
    order, crossing 0 being the least significant bit; every state contributes
    exactly what :func:`smooth` reports for its bit vector.

    Raises CrossingLimitError instead of attempting more than
    ``2**DEFAULT_MAX_CROSSINGS`` states.
    """
    count = diagram.crossing_count
    if count > DEFAULT_MAX_CROSSINGS:
        raise CrossingLimitError(
            f"{count} crossings exceed the state-sum limit of "
            f"{DEFAULT_MAX_CROSSINGS} ({2 ** count} states)")
    size, joins, boundary = _join_table(diagram)
    free_loops = diagram.free_loops
    loop_counts: dict[TLElement | None, list[int]] = {}

    # Depth-first over the smoothing choices, sharing the union-find of the
    # common prefix; crossing 0 varies fastest, matching binary-counter order.
    def walk(crossing: int, parent: list[int], components: int) -> None:
        if crossing < 0:
            loops, key = _read_state(parent, components, boundary, free_loops)
            tally = loop_counts.setdefault(key, [])
            if len(tally) <= loops:
                tally.extend([0] * (loops + 1 - len(tally)))
            tally[loops] += 1
            return
        for a, b, c, d in joins[crossing]:
            branch = parent.copy()
            walk(crossing - 1, branch,
                 components - _union(branch, a, b) - _union(branch, c, d))

    walk(count - 1, list(range(size)), size)

    if diagram.boundary is None:
        return Polynomial(loop_counts.get(None, [0]))
    return BracketVector(*(Polynomial(loop_counts.get(element, []))
                           for element in ELEMENTS))


@lru_cache(maxsize=None)
def generator_diagram(name: str) -> ShadowDiagram:
    """The compiled word of a built-in generator, self-checked on first use.

    Raises ValueError for an unknown name, and RuntimeError if the diagram's
    state-sum bracket does not reproduce the generator's tuple.
    """
    expected = generator_tuple(name)
    diagram = compile_word(WORDS[name])
    found = enumerate_states(diagram)
    if found != expected:
        raise RuntimeError(
            f"generator {name}: diagram self-check failed; state sum gave "
            f"{found}, expected {expected}")
    return diagram
