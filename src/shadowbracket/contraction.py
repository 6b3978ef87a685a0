"""Frontier contraction: a shadow diagram's bracket without listing its states.

The production route for PD-style diagrams.  It returns exactly what the
brute-force state sum :func:`shadowbracket.oracle.enumerate_states` returns,
but never lists the ``2**crossings`` states: the crossings are added one at a
time, and the partial state sum is kept as a map from the *frontier
matching* -- how the open arc ends are paired by the strands drawn so far --
to the loop counts of the states that induce it, as a coefficient list in x.

An arc end is an edge with exactly one of its occurrences among the crossings
added so far.  An edge that also meets the boundary stays open to the end: it
is a terminal of the tangle.  Adding a crossing pairs its four slots in each
of its two smoothings; joining two ends of one arc closes a loop.  When every
crossing is in, the frontier matching is the pairing of the boundary
terminals, which names the monoid diagram of each state.

Each crossing is picked greedily as the one with the most open edges, which
keeps the frontier narrow.  The work grows with the crossings times the
number of frontier matchings (a Catalan number of the frontier width) times
the degree.  This is local contraction tangle by tangle (Bar-Natan, *Fast
Khovanov homology computations*, arXiv:math/0606318), or dynamic programming
over a path decomposition of the diagram (Burton, arXiv:1712.05776).

The one guard is on the number of frontier matchings, the only cost that
grows exponentially: past ``MAX_MATCHINGS`` the contraction raises
ValueError.  A crossing at most doubles it, so memory stays within twice the
limit.  It lies above the 1,430 matchings at which the closed 8-strand torus
shadow and the 14 x 14 grid shadow peak (196 crossings, about 4 s) and below
the 4,862 of the 16 x 16 grid.  The crossing count itself is not limited.
"""

from __future__ import annotations

from collections import Counter

from .diagram import ShadowDiagram, _boundary_element, _number_edges, _SMOOTHINGS
from .poly import Polynomial
from .tl3 import ELEMENTS, BracketVector, TLElement

# Frontier matching -> loop counts: element k counts the states with k loops.
_States = dict[tuple[int, ...], list[int]]

MAX_MATCHINGS = 2000


def contract(diagram: ShadowDiagram) -> BracketVector | Polynomial:
    """The bracket of the diagram, equal to ``enumerate_states(diagram)``.

    For an open 3-tangle the result is a :class:`BracketVector`; for a closed
    diagram it is the bracket polynomial itself.
    """
    index = _number_edges(diagram)
    quads = [tuple(index[e] for e in quad) for quad in diagram.crossings]

    # Open edges are ids >= 0, listed in ascending order; a state's key gives
    # the far end of each.  The slots of the crossing being added are ~0..~3.
    frontier: tuple[int, ...] = ()
    states: _States = {(): [1]}
    # The pick: the crossing with the most slots on open edges, ties to the
    # lowest index.  Only a crossing on the frontier has an open slot; with
    # none there, the pick is the lowest-index crossing left.
    crossings_of: dict[int, list[int]] = {}
    for i, quad in enumerate(quads):
        for e in quad:
            crossings_of.setdefault(e, []).append(i)
    added = [False] * len(quads)
    for count in range(1, len(quads) + 1):
        slots = Counter(i for e in frontier for i in crossings_of[e] if not added[i])
        pick = max(slots, key=lambda i: (slots[i], -i)) if slots else added.index(False)
        added[pick] = True
        quad = quads[pick]
        # A once-listed edge closes if it was open and opens otherwise; an edge
        # listed twice runs from the crossing back to itself.
        once = [e for e in quad if quad.count(e) == 1]
        after = tuple(sorted(set(frontier).symmetric_difference(once)))
        states = _add_crossing(states, frontier, quad, after)
        frontier = after
        if len(states) > MAX_MATCHINGS:
            raise ValueError(f"{len(states)} frontier matchings exceed the frontier limit "
                             f"of {MAX_MATCHINGS} after {count} crossings")

    shift = diagram.free_loops
    if diagram.boundary is None:
        return Polynomial([0] * shift + states[()])
    terminals = [index[edge] for edge in diagram.boundary_edges()]
    slots: dict[TLElement, list[int]] = {}
    for key, counts in states.items():
        # Every open edge left is a terminal, and an arc's two terminals share
        # the lower edge number as root; an edge listed twice in the boundary
        # joins its two terminals without meeting a crossing.
        far = dict(zip(frontier, key))
        roots = [min(t, far.get(t, t)) for t in terminals]
        _add_shifted(slots, _boundary_element(roots), counts, shift)
    return BracketVector(*(Polynomial(slots.get(element, ())) for element in ELEMENTS))


def _add_crossing(states: _States, frontier: tuple[int, ...],
                  quad: tuple[int, int, int, int], after: tuple[int, ...]) -> _States:
    """Add one crossing, in both smoothings, to every frontier matching."""
    out: _States = {}
    for key, counts in states.items():
        ends = dict(zip(frontier, key))
        for slot, edge in enumerate(quad):
            # The slot takes over the far end of an open edge; an edge not yet
            # open becomes an arc from the slot to the edge's other occurrence.
            far = ends.pop(edge, edge)
            ends[~slot] = far
            ends[far] = ~slot
        for pairs in _SMOOTHINGS:
            joined = dict(ends)
            loops = 0
            for a, b in pairs:
                end_a = joined.pop(~a)
                end_b = joined.pop(~b)
                if end_a == ~b:
                    loops += 1
                else:
                    joined[end_a] = end_b
                    joined[end_b] = end_a
            _add_shifted(out, tuple(joined[e] for e in after), counts, loops)
    return out


def _add_shifted(table: dict, key, counts: list[int], shift: int) -> None:
    """Add ``x**shift`` times the polynomial ``counts`` into ``table[key]``."""
    total = table.get(key)
    if total is None:
        table[key] = [0] * shift + counts
        return
    if len(total) < shift + len(counts):
        total.extend([0] * (shift + len(counts) - len(total)))
    for power, count in enumerate(counts, shift):
        total[power] += count
