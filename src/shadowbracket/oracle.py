"""Brute-force Kauffman state sums over planar shadow diagrams.

The diagrams are those of :mod:`shadowbracket.diagram`, whose model this
module re-exports.  Enumerating all ``2**crossings`` smoothing bit vectors,
counting the closed components of each state and reading the monoid element
of its boundary pattern gives the bracket by plain summation, one
``x**loops`` per state.  This is the independent ground truth that the
tuple algebra in :mod:`shadowbracket.bracket` and the frontier contraction
in :mod:`shadowbracket.contraction` are tested against, so it imports
neither.  The two diagram builders live here too: :func:`compile_word`
turns a tangle word into an open diagram and :func:`close_diagram` closes
it, so the shadow of a generator's n-th power is the closed compiled word
``WORDS[name] * n`` of :data:`shadowbracket.generators.WORDS`.

One smoothing routine serves :func:`smooth` and :func:`enumerate_states`:
the edges are numbered once, each crossing's two smoothings become a row of
a join table, and a smoothed state is read off as its loop count plus the
monoid element of its boundary pattern.  The diagram model's union-find
merges the joined edges there, and also serves the diagram builders, over
edge numbers.

State enumeration is a pure fold over the binary-counter order of the bit
vectors.  Because the per-state contributions are combined by addition only,
the fold may be partitioned over disjoint mask ranges and recombined without
changing the result; the implementation here visits states depth-first,
sharing the union-find of common prefixes, and reproduces the sequential
fold exactly.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Sequence

# The diagram model lives in its own module and is re-exported here.
from .diagram import (Boundary, MalformedDiagramError, ShadowDiagram, _SMOOTHINGS,
                      _boundary_element, _find, _number_edges, _union)
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

    __slots__ = ("crossings", "merges", "free_loops")

    def __init__(self):
        self.crossings: list[tuple[int, int, int, int]] = []
        self.merges: list[int] = []  # the union-find of edges 0, 1, ...
        self.free_loops = 0

    def fresh(self) -> int:
        self.merges.append(len(self.merges))
        return self.merges[-1]

    def join(self, a: int, b: int) -> None:
        # Joining the two ends of one arc closes it into a crossingless circle.
        if not _union(self.merges, a, b):
            self.free_loops += 1

    def finish(self, boundary: Boundary | None) -> ShadowDiagram:
        # Name each merged edge e0, e1, ... in first-seen order, crossings
        # first, for stable output.
        names: dict[int, str] = {}

        def name(edge: int) -> str:
            root = _find(self.merges, edge)
            if root not in names:
                names[root] = f"e{len(names)}"
            return names[root]

        crossings = tuple(tuple(map(name, quad)) for quad in self.crossings)
        if boundary is not None:
            boundary = Boundary(tuple(map(name, boundary.left)),
                                tuple(map(name, boundary.right)))
        return ShadowDiagram(crossings, boundary, self.free_loops)


def close_diagram(diagram: ShadowDiagram) -> ShadowDiagram:
    """Join each left endpoint to the matching right endpoint, closing the tangle."""
    if diagram.boundary is None:
        raise MalformedDiagramError("diagram is already closed")
    index = _number_edges(diagram)
    builder = _Builder()
    builder.crossings = [tuple(map(index.get, quad)) for quad in diagram.crossings]
    builder.merges = list(range(len(index)))
    builder.free_loops = diagram.free_loops
    for a, b in zip(diagram.boundary.left, diagram.boundary.right):
        builder.join(index[a], index[b])
    return builder.finish(None)


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
