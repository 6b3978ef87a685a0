"""The shadow-diagram model: PD-style planar diagrams, read and validated.

A shadow diagram is a 4-valent planar graph: each crossing is a 4-tuple of
edge identifiers in cyclic order around the vertex, and an open 3-tangle
additionally lists six boundary endpoints, three per side, top to bottom.
Every edge identifier occurs exactly twice across the crossings and the
boundary; crossingless circles are carried separately as ``free_loops``.
A :class:`ShadowDiagram` checks all of this, planarity included, once, in
its constructor; its JSON reader first applies the strict-JSON rule of
:mod:`shadowbracket.tl3` that the tuple reader also uses.  Planarity is
Euler's formula on the faces traced from each crossing's cyclic order: first
as listed, then, if that fails, read in the directions that Dehn's reading
of a single-loop smoothing proposes.

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
from itertools import chain, count
from typing import NamedTuple, Sequence

from .record import Record
from .tl3 import MATCHINGS, TLElement, _json_list, _json_object

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
        crossings = tuple(tuple(str(e) for e in quad) for quad in crossings)
        if boundary is not None:
            left, right = boundary
            boundary = Boundary(tuple(str(e) for e in left), tuple(str(e) for e in right))
        super().__init__(crossings, boundary, free_loops)
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
        # that is the drawing: every diagram the package builds passes here.
        # If not, Dehn's reading of a single-loop smoothing proposes a
        # direction for each crossing, and the same face trace decides.
        ring = None if self.boundary is None else self.boundary.left + self.boundary.right[::-1]
        rotations = list(self.crossings) + ([] if ring is None else [ring])
        if _listed_order_is_planar(rotations):
            return
        if not _listed_order_is_planar(_dehn_reading(self.crossings, ring)):
            raise MalformedDiagramError(
                "the crossings and boundary do not form a planar diagram")

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
            crossings = [_json_list(quad, f"crossing {i}", str) for i, quad
                         in enumerate(_json_list(data["crossings"], "crossings"))]
            boundary = data.get("boundary")
            if boundary is not None:
                sides = _json_object(boundary, ("L", "R"), "boundary")
                boundary = Boundary(*(_json_list(sides[side], f"boundary side {side!r}", str)
                                      for side in ("L", "R")))
        except KeyError as missing:
            raise MalformedDiagramError(f"bad diagram JSON: missing key {missing}") from None
        except ValueError as exc:
            raise MalformedDiagramError(f"bad diagram JSON: {exc}") from None
        return cls(crossings, boundary, data.get("free_loops", 0))


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


def _dehn_reading(crossings: Sequence[tuple[str, ...]],
                  ring: tuple[str, ...] | None) -> list[tuple]:
    """The crossings, and an open tangle's frame, each read in the direction
    a drawing gives it if the diagram has one.

    The frame puts a crossing on each boundary edge, in disk order, where it
    meets a new circle opposite an outer arc; the outer arcs join left k to
    right k, so they nest, and the framed diagram has a drawing exactly when
    the tangle has one (the frame stays: a drawing may flip part of it with
    what hangs there, which the tangle's disk vertex would refuse).
    Smoothing every crossing by bit 0, then switching each whose two joins
    lie on different loops, leaves one loop per component (Dehn).  In a
    drawing that loop is a Jordan curve, each crossing a band across one
    side of it, and bands on one side do not interlace, so the bands
    two-colour.  Counterclockwise around a band inside, its slots read (in1,
    out1, in2, out2); outside, the reverse.  If a drawing exists, every such
    colouring rebuilds one, so the face trace of the result decides.
    """
    quads = list(crossings)
    if ring is not None:
        # Tuple names cannot collide with the diagram's string edge names.
        quads += [(edge, ("ring", k), ("arc", min(k, 5 - k)), ("ring", (k - 1) % 6))
                  for k, edge in enumerate(ring)]
    # Darts are 4 * crossing + slot; an edge joins its two darts.
    ends: dict[object, list[int]] = defaultdict(list)
    for dart, edge in enumerate(chain(*quads)):
        ends[edge].append(dart)
    mate = [0] * (4 * len(quads))
    loops = list(range(len(mate)))
    for a, b in ends.values():
        mate[a], mate[b] = b, a
        _union(loops, a, b)
    for crossing in range(len(quads)):
        for a, b in _SMOOTHINGS[0]:
            _union(loops, 4 * crossing + a, 4 * crossing + b)
    # Switching to bit 1 where the joins lie on two loops merges them.
    bits = [_union(loops, 4 * crossing, 4 * crossing + 2) for crossing in range(len(quads))]
    turn = [{a: b for pair in pairs for a, b in (pair, pair[::-1])} for pairs in _SMOOTHINGS]
    passes: list[list[tuple[int, int, int]]] = [[] for _ in quads]
    walked = [False] * len(mate)
    position = count()
    for dart in range(len(mate)):
        while not walked[dart]:
            crossing, enter = divmod(dart, 4)
            out = turn[bits[crossing]][enter]
            walked[dart] = walked[4 * crossing + out] = True
            passes[crossing].append((next(position), enter, out))
            dart = mate[4 * crossing + out]
    # Two bands interlace when one pass of one lies between the other's.
    outside: list[int | None] = [None] * len(quads)
    for root in range(len(quads)):
        if outside[root] is None:
            outside[root], queue = 0, [root]
            for crossing in queue:
                (a, _, _), (b, _, _) = passes[crossing]
                for other, ((p, _, _), (q, _, _)) in enumerate(passes):
                    if outside[other] is None and (a < p < b) != (a < q < b):
                        outside[other] = 1 - outside[crossing]
                        queue.append(other)
    # As listed where the first pass turns up the slots inside, or down outside.
    return [quad if ((out - enter) % 4 == 1) != side else quad[::-1]
            for quad, side, ((_, enter, out), _) in zip(quads, outside, passes)]


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
