import json
import random
import time

import pytest

from conftest import rand_word, reflected
from shadowbracket import cli, contraction
from shadowbracket.bracket import BracketVector, closure, power
from shadowbracket.contraction import MAX_MATCHINGS, contract
from shadowbracket.generators import NAMES, WORDS, generator_tuple
from shadowbracket.oracle import (Boundary, MalformedDiagramError, ShadowDiagram,
                                  close_diagram, compile_word, enumerate_states)
from shadowbracket.poly import Polynomial


def shuffled(diagram: ShadowDiagram, rng: random.Random) -> ShadowDiagram:
    """The same diagram with its crossings listed in a random order."""
    order = list(diagram.crossings)
    rng.shuffle(order)
    return ShadowDiagram(tuple(order), diagram.boundary, diagram.free_loops)


def curve_components(diagram: ShadowDiagram) -> int:
    """The number of closed curves, going straight through each crossing."""
    # A union-find of its own, so the expected value shares no code with oracle.
    parent = {e: e for quad in diagram.crossings for e in quad}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for e1, e2, e3, e4 in diagram.crossings:
        parent[find(e1)] = find(e3)
        parent[find(e2)] = find(e4)
    return len({find(e) for e in parent}) + diagram.free_loops


def grid_shadow(k: int) -> ShadowDiagram:
    """The closed k x k grid shadow, k even, each side's ends capped in pairs."""
    def vertical(i, j):  # the edge entering crossing (i, j) from above
        return f"top{j // 2}" if i == 0 else f"bottom{j // 2}" if i == k else f"v{i},{j}"

    def horizontal(i, j):  # the edge entering crossing (i, j) from the left
        return f"left{i // 2}" if j == 0 else f"right{i // 2}" if j == k else f"h{i},{j}"

    return ShadowDiagram(tuple(
        (vertical(i, j), horizontal(i, j + 1), vertical(i + 1, j), horizontal(i, j))
        for i in range(k) for j in range(k)))


def torus_shadow(strands: int, n: int) -> ShadowDiagram:
    """The closed braid (s_1 s_2 ... s_(strands-1))^n, n >= 1: a torus-link shadow."""
    ends = [f"s{j}" for j in range(strands)]
    quads = []
    for _ in range(n):
        for i in range(strands - 1):
            top, bottom = f"c{len(quads)}t", f"c{len(quads)}b"
            quads.append((ends[i], top, bottom, ends[i + 1]))
            ends[i], ends[i + 1] = top, bottom
    close = dict(zip(ends, (f"s{j}" for j in range(strands))))
    return ShadowDiagram(tuple(tuple(close.get(e, e) for e in quad) for quad in quads))


def assert_special_values(diagram: ShadowDiagram, bracket: Polynomial) -> None:
    c = diagram.crossing_count
    assert bracket.evaluate(1) == 2 ** c
    if c:
        assert bracket.evaluate(-1) == 0
    assert bracket.evaluate(-2) == (-1) ** c * (-2) ** curve_components(diagram)


class TestAgreesWithStateSum:
    def test_random_words_open_closed_and_mirrored(self):
        rng = random.Random(301)
        for _ in range(150):
            tangle = compile_word(rand_word(rng, 10))
            for diagram in (tangle, close_diagram(tangle), reflected(tangle)):
                diagram = shuffled(diagram, rng)
                assert contract(diagram) == enumerate_states(diagram)

    def test_reading_direction_of_each_crossing_is_free(self):
        rng = random.Random(302)
        for _ in range(50):
            diagram = compile_word(rand_word(rng, 8))
            flipped = tuple(quad[::-1] if rng.random() < 0.5 else quad
                            for quad in diagram.crossings)
            assert contract(ShadowDiagram(flipped, diagram.boundary,
                                         diagram.free_loops)) == \
                enumerate_states(diagram)

    @pytest.mark.parametrize("name", NAMES)
    def test_generator_powers_and_closures(self, name):
        rng = random.Random(303)
        for n in range(4):
            diagram = compile_word(WORDS[name] * n)
            expected = power(generator_tuple(name), n)
            assert contract(shuffled(diagram, rng)) == \
                enumerate_states(diagram) == expected
            closed = close_diagram(diagram)
            assert contract(shuffled(closed, rng)) == \
                enumerate_states(closed) == closure(expected)

    @pytest.mark.parametrize("diagram", [grid_shadow(2), grid_shadow(4),
                                         torus_shadow(4, 3), torus_shadow(5, 3)],
                             ids=["grid2", "grid4", "torus4x3", "torus5x3"])
    def test_shadows_whose_frontier_grows(self, diagram):
        assert contract(shuffled(diagram, random.Random(306))) == \
            enumerate_states(diagram)


class TestSpecialCases:
    def test_empty_closed_diagram(self):
        assert contract(ShadowDiagram((), None)) == Polynomial([1])

    def test_free_loops_only(self):
        assert contract(ShadowDiagram((), None, free_loops=2)) == Polynomial([0, 0, 1])

    def test_identity_tangle(self):
        assert contract(compile_word(())) == BracketVector.unit()
        looped = compile_word(("U1", "U1"))
        assert contract(looped) == enumerate_states(looped)

    def test_edge_listed_twice_in_one_crossing(self):
        kink = ShadowDiagram((("a", "a", "b", "b"),), None)
        assert contract(kink) == enumerate_states(kink) == Polynomial([0, 1, 1])

    def test_component_apart_from_the_rest(self):
        tangle = compile_word(("X1", "X2", "U2"))
        for diagram in (tangle, close_diagram(tangle)):
            apart = ShadowDiagram(
                (("k", "k", "m", "m"),) + diagram.crossings + (("p", "q", "q", "p"),),
                diagram.boundary, free_loops=1)
            assert contract(apart) == enumerate_states(apart)

    def test_straight_boundary_edges_beside_crossings(self):
        tangle = ShadowDiagram((("a", "b", "c", "d"),),
                               Boundary(("s", "a", "d"), ("s", "b", "c")))
        assert contract(tangle) == enumerate_states(tangle) == \
            BracketVector.of(1, 0, 1, 0, 0)

    def test_malformed_diagram_raises(self):
        with pytest.raises(MalformedDiagramError):
            contract(ShadowDiagram((("a", "a", "a", "b"),),
                                   Boundary(("b", "c", "d"), ("c", "d", "e"))))


class TestBeyondTheStateSum:
    @pytest.mark.parametrize("name, n", [("T", 50), ("C", 30), ("E", 25)])
    def test_closed_powers(self, name, n):
        closed = close_diagram(compile_word(WORDS[name] * n))
        bracket = contract(shuffled(closed, random.Random(304)))
        assert bracket == closure(power(generator_tuple(name), n))
        assert_special_values(closed, bracket)

    def test_special_values_of_random_closed_words(self):
        rng = random.Random(305)
        for _ in range(100):
            closed = close_diagram(compile_word(rand_word(rng, 12)))
            assert_special_values(closed, contract(closed))

    def test_cli_bracket_of_closed_t50(self, capsys, tmp_path):
        path = tmp_path / "t50.json"
        path.write_text(json.dumps(close_diagram(compile_word(WORDS["T"] * 50)).to_json()))
        start = time.perf_counter()
        code = cli.main(["bracket", "--pd", str(path)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert out == f"{closure(power(generator_tuple('T'), 50))}\n"
        assert elapsed < 1.0

    @pytest.mark.parametrize("diagram", [grid_shadow(10), torus_shadow(5, 25)],
                             ids=["grid10", "torus5x25"])
    def test_special_values_of_wide_shadows(self, diagram):
        assert diagram.crossing_count == 100
        assert_special_values(diagram, contract(diagram))


class TestFrontierLimit:
    def test_cli_refuses_a_wide_grid(self, capsys, tmp_path):
        path = tmp_path / "grid20.json"
        path.write_text(json.dumps(grid_shadow(20).to_json()))
        start = time.perf_counter()
        code = cli.main(["bracket", "--pd", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert len(captured.err.splitlines()) == 1
        assert f"frontier limit of {MAX_MATCHINGS}" in captured.err
        assert elapsed < 2.0

    def test_refuses_only_above_the_limit(self, monkeypatch):
        diagram = grid_shadow(4)
        monkeypatch.setattr(contraction, "MAX_MATCHINGS", 4)
        with pytest.raises(ValueError, match="frontier limit of 4"):
            contract(diagram)
        monkeypatch.setattr(contraction, "MAX_MATCHINGS", 5)
        assert contract(diagram).evaluate(1) == 2 ** 16


def max_greedy_order(diagram: ShadowDiagram) -> list[tuple[int, ...]]:
    """The crossings in the order of the plain greedy pick, as numbered quads.

    Each step scans every crossing left for the most slots on open edges,
    ties to the lowest index; an edge listed once in the added crossing
    toggles between open and closed.
    """
    index = {}
    for edge in [e for quad in diagram.crossings for e in quad] + list(
            diagram.boundary_edges()):
        index.setdefault(edge, len(index))
    quads = [tuple(index[e] for e in quad) for quad in diagram.crossings]
    open_edges: set[int] = set()
    remaining, order = list(range(len(quads))), []
    while remaining:
        pick = max(remaining, key=lambda i: (sum(e in open_edges for e in quads[i]), -i))
        remaining.remove(pick)
        order.append(quads[pick])
        open_edges ^= {e for e in quads[pick] if quads[pick].count(e) == 1}
    return order


class TestCrossingOrder:
    def diagrams(self):
        rng = random.Random(23)
        for _ in range(50):
            diagram = shuffled(compile_word(rand_word(rng, 14)), rng)
            yield diagram
            yield close_diagram(diagram)
        for name in NAMES:
            for n in (1, 2, 5, 9):
                yield compile_word(WORDS[name] * n)
                yield close_diagram(compile_word(WORDS[name] * n))
        # Wide frontiers and many ties; the last two have a frontier that
        # empties part way through.
        yield grid_shadow(4)
        yield grid_shadow(6)
        yield torus_shadow(4, 3)
        yield torus_shadow(5, 3)
        tangle = compile_word(("X1", "X2", "U2"))
        for diagram in (tangle, close_diagram(tangle)):
            yield ShadowDiagram((("k", "k", "m", "m"),) + diagram.crossings
                                + (("p", "q", "q", "p"),), diagram.boundary, free_loops=1)

    def test_heap_pick_matches_the_plain_greedy_pick(self, monkeypatch):
        added = []
        add_crossing = contraction._add_crossing

        def recording(states, frontier, quad, after):
            added.append(quad)
            return add_crossing(states, frontier, quad, after)

        monkeypatch.setattr(contraction, "_add_crossing", recording)
        for diagram in self.diagrams():
            added.clear()
            contract(diagram)
            assert added == max_greedy_order(diagram), diagram
