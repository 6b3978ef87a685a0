"""The shadow-diagram model: PD-style planar diagrams, read and validated.

A shadow diagram is a 4-valent planar graph: each crossing is a 4-tuple of
edge identifiers in cyclic order around the vertex, and an open 3-tangle
additionally lists six boundary endpoints, three per side, top to bottom.
Every edge identifier occurs exactly twice across the crossings and the
boundary; crossingless circles are carried separately as ``free_loops``.
A :class:`ShadowDiagram` checks all of this, planarity included, once, in
its constructor.

Smoothing a crossing ``(e1, e2, e3, e4)`` joins the adjacent pairs
``e1-e2, e3-e4`` (bit 0) or ``e2-e3, e4-e1`` (bit 1).  The two routes that
smooth diagrams share that convention, the edge numbering and the reading
of a boundary pattern from here: the frontier contraction of
:mod:`shadowbracket.contraction` and the brute-force state sum of
:mod:`shadowbracket.oracle`.  The one union-find of the package (``_find``
and ``_union``, with path halving) serves the planarity check here, and the
state sum and the diagram builders there.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import NamedTuple, Sequence

from .record import Record
from .tl3 import MATCHINGS, TLElement

# Each free loop multiplies the bracket by x, so one number in diagram JSON
# could ask for a polynomial of any size; a diagram is refused above this.
MAX_FREE_LOOPS = 1_000_000


class MalformedDiagramError(ValueError):
    """The diagram data violates the edge or boundary invariants."""


class Boundary(NamedTuple):
    """Boundary endpoints of an open 3-tangle, top to bottom on each side."""

    left: tuple[str, str, str]
    right: tuple[str, str, str]


class ShadowDiagram(Record):
    """A planar shadow diagram in PD-code style, validated on construction."""

    __slots__ = ("crossings", "boundary", "free_loops")

    def __init__(self, crossings: Sequence[Sequence[str]],
                 boundary: Boundary | None = None, free_loops: int = 0):
        set_field = object.__setattr__
        set_field(self, "crossings",
                  tuple(tuple(str(e) for e in quad) for quad in crossings))
        if boundary is not None:
            left, right = boundary
            boundary = Boundary(tuple(str(e) for e in left), tuple(str(e) for e in right))
        set_field(self, "boundary", boundary)
        set_field(self, "free_loops", free_loops)
        self.validate()

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def boundary_edges(self) -> tuple[str, ...]:
        if self.boundary is None:
            return ()
        return self.boundary.left + self.boundary.right

    def validate(self) -> None:
        """Check the structural invariants, raising MalformedDiagramError.

        The constructor calls this, so every existing diagram has passed it:
        ``free_loops`` is an exact int in ``0..MAX_FREE_LOOPS``, every
        crossing has 4 edges, an open tangle has 3 endpoints per side, every
        edge occurs exactly twice and the diagram is planar.
        """
        # bool is a subclass of int, so test the exact type.
        if type(self.free_loops) is not int:
            raise MalformedDiagramError(
                f"free_loops must be an integer, got {self.free_loops!r}")
        if self.free_loops < 0:
            raise MalformedDiagramError("free_loops must be nonnegative")
        if self.free_loops > MAX_FREE_LOOPS:
            raise MalformedDiagramError(
                f"free_loops must be at most {MAX_FREE_LOOPS}, got {self.free_loops}")
        for quad in self.crossings:
            if len(quad) != 4:
                raise MalformedDiagramError(f"crossing {quad!r} does not have 4 edges")
        if self.boundary is not None:
            if len(self.boundary.left) != 3 or len(self.boundary.right) != 3:
                raise MalformedDiagramError("boundary must list 3 endpoints per side")
        counts: dict[str, int] = {}
        for quad in self.crossings:
            for edge in quad:
                counts[edge] = counts.get(edge, 0) + 1
        for edge in self.boundary_edges():
            counts[edge] = counts.get(edge, 0) + 1
        bad = {edge: n for edge, n in counts.items() if n != 2}
        if bad:
            raise MalformedDiagramError(
                f"every edge must occur exactly twice; violations: {bad}")
        self._check_planar()

    def _check_planar(self) -> None:
        # Each crossing's edges leave it in the listed cyclic order, read in
        # either direction (smoothing is blind to it, so input may list each
        # crossing either way).  An open tangle adds a vertex for the outside
        # of its disk, carrying the boundary edges in disk order; free loops
        # drop out.  When the orders as listed already trace a planar map,
        # that is the drawing.  If not, a drawing exists exactly when the
        # graph is planar with every vertex made a wheel: a hub plus a rim
        # through its edge ends in order, which no drawing can reorder.  Each
        # edge becomes a midpoint between rims.
        rotations = list(self.crossings)
        if self.boundary is not None:
            rotations.append(self.boundary.left + self.boundary.right[::-1])
        if _listed_order_is_planar(rotations):
            return
        graph: dict[object, set] = defaultdict(set)
        for vertex, rotation in enumerate(rotations):
            for slot, edge in enumerate(rotation):
                node, after = (vertex, slot), (vertex, (slot + 1) % len(rotation))
                for a, b in ((vertex, node), (node, after), (node, edge)):
                    graph[a].add(b)
                    graph[b].add(a)
        drawn: set = set()
        for vertex, rotation in enumerate(rotations):
            if vertex not in drawn:
                rim = [(vertex, slot) for slot in range(len(rotation))]
                component = _planar_component(graph, rim)
                if component is None:
                    raise MalformedDiagramError(
                        "the crossings and boundary do not form a planar diagram")
                drawn |= component

    def to_json(self) -> dict:
        return {
            "crossings": [list(quad) for quad in self.crossings],
            "boundary": None if self.boundary is None else
                {"L": list(self.boundary.left), "R": list(self.boundary.right)},
            "free_loops": self.free_loops,
        }

    @classmethod
    def from_json(cls, data: object) -> "ShadowDiagram":
        """Read the :meth:`to_json` form; raise MalformedDiagramError for
        anything else, unknown keys and non-string edge identifiers included.
        ``boundary`` and ``free_loops`` may be left out."""
        try:
            data = _json_object(data, ("crossings", "boundary", "free_loops"), "the diagram")
            crossings = tuple(_edge_list(quad, f"crossing {i}") for i, quad
                              in enumerate(_json_list(data["crossings"], "crossings")))
            boundary = data.get("boundary")
            if boundary is not None:
                sides = _json_object(boundary, ("L", "R"), "boundary")
                boundary = Boundary(*(_edge_list(sides[side], f"boundary side {side!r}")
                                      for side in ("L", "R")))
            return cls(crossings, boundary, data.get("free_loops", 0))
        except (KeyError, TypeError) as exc:
            raise MalformedDiagramError(f"bad diagram JSON: {exc}") from None


def _json_object(value: object, keys: tuple[str, ...], name: str) -> dict:
    """``value`` if it is a JSON object with no key outside ``keys``."""
    if not isinstance(value, dict):
        raise MalformedDiagramError(
            f"bad diagram JSON: {name} must be an object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise MalformedDiagramError(f"bad diagram JSON: {name} has unknown key {unknown[0]!r}")
    return value


def _json_list(value: object, name: str) -> list:
    if not isinstance(value, list):
        raise MalformedDiagramError(
            f"bad diagram JSON: {name} must be a list, got {type(value).__name__}")
    return value


def _edge_list(value: object, name: str) -> tuple[str, ...]:
    """``value`` as a tuple if it is a JSON list of edge identifiers (strings)."""
    for edge in _json_list(value, name):
        if not isinstance(edge, str):
            raise MalformedDiagramError(f"bad diagram JSON: {name} has an edge identifier "
                                        f"of type {type(edge).__name__}, not a string")
    return tuple(value)


# The one union-find of the package, with path halving.  ``parent`` is a list
# over integers (edge or vertex numbers), or a _Roots dict over edge names.
def _find(parent, item):
    """The root of the class of ``item``."""
    while parent[item] != item:
        parent[item] = parent[parent[item]]
        item = parent[item]
    return item


def _union(parent, a, b) -> int:
    """Merge the classes of ``a`` and ``b``: 1 if they were apart, else 0."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return 0
    parent[rb] = ra
    return 1


class _Roots(dict):
    """Union-find parents over edge names: an unseen name is its own root."""

    def __missing__(self, key):
        return key


def _listed_order_is_planar(rotations: list[tuple[str, ...]]) -> bool:
    """Whether the faces traced with every vertex read in its listed order
    give V - E + F = 2 on each connected component."""
    ends: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for vertex, rotation in enumerate(rotations):
        for slot, edge in enumerate(rotation):
            ends[edge].append((vertex, slot))
    mate: dict[tuple[int, int], tuple[int, int]] = {}
    parent = list(range(len(rotations)))
    components = len(rotations)
    for first, second in ends.values():
        mate[first], mate[second] = second, first
        components -= _union(parent, first[0], second[0])
    faces, seen = 0, set()
    for dart in mate:
        if dart not in seen:
            faces += 1
            while dart not in seen:
                seen.add(dart)
                vertex, slot = mate[dart]
                dart = (vertex, (slot + 1) % len(rotations[vertex]))
    return len(rotations) - len(ends) + faces == 2 * components


def _planar_component(graph: dict[object, set], cycle: list) -> set | None:
    """The nodes of the component holding ``cycle`` if it is planar, else None.

    The component must be simple and 2-connected.  This is the test of
    Demoucron, Malgrange and Pertuiset: starting from ``cycle``, draw a path
    of some undrawn fragment across a face that holds all the fragment's
    drawn attachments, taking a fragment with the fewest such faces, until
    every edge is drawn or some fragment fits no face.
    """
    drawn = set(cycle)
    used = {frozenset(pair) for pair in zip(cycle, cycle[1:] + cycle[:1])}
    faces = [(cycle, drawn.copy()), (cycle[::-1], drawn.copy())]
    while True:
        best = None
        for attachments, path in _fragments(graph, drawn, used):
            homes = [face for face in faces if attachments <= face[1]]
            if best is None or len(homes) < len(best[0]):
                best = homes, path
                if len(homes) <= 1:
                    break
        if best is None:
            return drawn
        homes, path = best
        if not homes:
            return None
        faces = [face for face in faces if face is not homes[0]]
        boundary = homes[0][0]
        i = boundary.index(path[0])
        boundary = boundary[i:] + boundary[:i]
        j = boundary.index(path[-1])
        for side in (boundary[:j + 1] + path[-2:0:-1],
                     boundary[j:] + boundary[:1] + path[1:-1]):
            faces.append((side, set(side)))
        drawn.update(path)
        used.update(frozenset(pair) for pair in zip(path, path[1:]))


def _fragments(graph: dict[object, set], drawn: set, used: set):
    """Each undrawn fragment's drawn attachments and a path through it.

    A fragment is an undrawn edge between drawn nodes, or a component of
    undrawn nodes with its edges to drawn nodes; the path joins two distinct
    attachments.
    """
    edges: set = set()
    inner: set = set()
    for node in drawn:
        for first in graph[node]:
            if first in drawn:
                edge = frozenset((node, first))
                if edge not in used and edge not in edges:
                    edges.add(edge)
                    yield {node, first}, [node, first]
            elif first not in inner:
                parent, attachments, end = {first: None}, set(), None
                queue = [first]
                for step in queue:
                    for other in graph[step]:
                        if other in drawn:
                            attachments.add(other)
                            if end is None and other != node:
                                end = [other, step]
                        elif other not in parent:
                            parent[other] = step
                            queue.append(other)
                inner.update(parent)
                while parent[end[-1]] is not None:
                    end.append(parent[end[-1]])
                yield attachments, end + [node]


# The slot pairs each smoothing of a crossing (e1, e2, e3, e4) joins: bit 0
# joins e1-e2 and e3-e4, bit 1 joins e2-e3 and e4-e1.
_SMOOTHINGS = (((0, 1), (2, 3)), ((1, 2), (3, 0)))

# Each element's boundary pattern: position i names the first position of
# its pair.
_BOUNDARY_PATTERNS = {tuple(map(min, range(6), matching)): element
                      for element, matching in MATCHINGS.items()}


def _number_edges(diagram: ShadowDiagram) -> dict[str, int]:
    """Number the edges 0, 1, ... in order of first occurrence, crossings first."""
    edges = dict.fromkeys(chain(*diagram.crossings, diagram.boundary_edges()))
    return dict(zip(edges, range(len(edges))))


def _boundary_element(roots: list[int]) -> TLElement:
    """The element whose boundary positions share roots as ``roots`` do."""
    try:
        return _BOUNDARY_PATTERNS[tuple(roots.index(r) for r in roots)]
    except KeyError:
        raise MalformedDiagramError(
            "smoothed state induces a non-planar boundary pairing; "
            "the diagram encoding is inconsistent") from None
