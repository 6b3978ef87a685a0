import itertools
import json
import random
import time

import pytest

from conftest import P, mirrored_word, rand_word, reflected
from shadowbracket.bracket import BracketVector, closure, letter_tuple, power, word_tuple
from shadowbracket.contraction import contract
from shadowbracket.generators import NAMES, WORDS
from shadowbracket.oracle import (Boundary, CrossingLimitError, MalformedDiagramError,
                                  ShadowDiagram, close_diagram, compile_word,
                                  enumerate_states, smooth)
from shadowbracket.diagram import MAX_FREE_LOOPS, _boundary_element, _listed_order_is_planar
from shadowbracket.poly import Polynomial
from shadowbracket.tl3 import WORD_LETTERS, TLElement

BOUNDARY_LABELS = ("L1", "L2", "L3", "R1", "R2", "R3")


def roots(*pairs):
    """Union-find roots of the boundary points L1..R3 joined in the given pairs."""
    root = {}
    for first, second in pairs:
        root[first] = root[second] = BOUNDARY_LABELS.index(first)
    return [root[label] for label in BOUNDARY_LABELS]


class TestCompileWord:
    def test_empty_word_is_identity_tangle(self):
        diagram = compile_word(())
        assert diagram.crossing_count == 0
        assert enumerate_states(diagram) == BracketVector.unit()

    def test_single_crossing(self):
        diagram = compile_word(("X1",))
        assert diagram.crossing_count == 1
        assert enumerate_states(diagram) == BracketVector.of(1, 1, 0, 0, 0)

    def test_two_crossings(self):
        diagram = compile_word(("X1", "X2"))
        assert diagram.crossing_count == 2
        assert enumerate_states(diagram) == BracketVector.of(1, 1, 1, 0, 1)

    def test_cupcap_letters_have_no_crossings(self):
        diagram = compile_word(("U1", "U2", "U1"))
        assert diagram.crossing_count == 0
        assert enumerate_states(diagram) == word_tuple(("U1", "U2", "U1"))

    def test_double_cupcap_extracts_free_loop(self):
        diagram = compile_word(("U1", "U1"))
        assert diagram.free_loops == 1
        assert enumerate_states(diagram) == BracketVector.of(0, [0, 1], 0, 0, 0)

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            compile_word(("X3",))


class TestSmooth:
    def test_identity_smoothing_of_one_crossing(self):
        diagram = compile_word(("X1",))
        assert smooth(diagram, [0]) == (0, TLElement.ID3)

    def test_cupcap_smoothing_of_one_crossing(self):
        diagram = compile_word(("X1",))
        assert smooth(diagram, [1]) == (0, TLElement.U1)

    def test_alternating_state_of_four_crossings(self):
        diagram = compile_word(("X1", "X2", "X1", "X2"))
        assert smooth(diagram, [1, 0, 1, 0]) == (1, TLElement.U1)

    def test_wrong_choice_count(self):
        with pytest.raises(ValueError):
            smooth(compile_word(("X1",)), [0, 1])


class TestClassifyBoundary:
    """``diagram._boundary_element``, the boundary reader of both smoothing
    routes, pinned by hand-typed pairings rather than ``tl3.MATCHINGS``."""

    def test_the_five_planar_matchings(self):
        assert _boundary_element(
            roots(("L1", "R1"), ("L2", "R2"), ("L3", "R3"))) is TLElement.ID3
        assert _boundary_element(
            roots(("L1", "L2"), ("R1", "R2"), ("L3", "R3"))) is TLElement.U1
        assert _boundary_element(
            roots(("L2", "L3"), ("R2", "R3"), ("L1", "R1"))) is TLElement.U2
        assert _boundary_element(
            roots(("L2", "L3"), ("L1", "R3"), ("R1", "R2"))) is TLElement.R
        assert _boundary_element(
            roots(("L1", "L2"), ("L3", "R1"), ("R2", "R3"))) is TLElement.S

    def test_nonplanar_pairing_rejected(self):
        crossed = roots(("L1", "R2"), ("L2", "R1"), ("L3", "R3"))
        with pytest.raises(MalformedDiagramError):
            _boundary_element(crossed)


class TestEnumerateStates:
    def test_single_circle(self):
        circle = ShadowDiagram((), None, free_loops=1)
        assert enumerate_states(circle) == Polynomial([0, 1])

    def test_empty_diagram(self):
        assert enumerate_states(ShadowDiagram((), None)) == Polynomial([1])

    def test_closed_square_of_two_crossing_tangle(self):
        word = ("X1", "X2", "X1", "X2")
        closed = close_diagram(compile_word(word))
        assert enumerate_states(closed) == P("3x^3+8x^2+5x")

    def test_state_count_is_two_to_the_crossings(self):
        rng = random.Random(100)
        for _ in range(25):
            word = rand_word(rng, 6)
            result = enumerate_states(compile_word(word))
            crossings = sum(1 for letter in word if letter.startswith("X"))
            assert sum(p.evaluate(1) for p in result.entries()) == 2 ** crossings

    def test_matches_letter_tuple_algebra_on_random_words(self):
        rng = random.Random(101)
        for _ in range(200):
            word = rand_word(rng, 8)
            assert enumerate_states(compile_word(word)) == word_tuple(word)

    def test_matches_algebra_on_powers_of_two_crossing_tangle(self):
        t = word_tuple(("X1", "X2"))
        for n in range(6):
            diagram = compile_word(("X1", "X2") * n)
            assert enumerate_states(diagram) == power(t, n)

    def test_closure_consistency_on_words(self):
        rng = random.Random(102)
        for _ in range(25):
            word = rand_word(rng, 6)
            tangle = compile_word(word)
            assert enumerate_states(close_diagram(tangle)) == \
                closure(word_tuple(word))

    def test_equals_fold_of_single_state_smoothings(self):
        # The enumeration must agree state by state with the public smooth().
        rng = random.Random(104)
        for _ in range(10):
            word = rand_word(rng, 6)
            diagram = compile_word(word)
            tallies = {}
            for mask in range(1 << diagram.crossing_count):
                choices = [(mask >> i) & 1 for i in range(diagram.crossing_count)]
                loops, element = smooth(diagram, choices)
                tallies.setdefault(element, []).append(loops)
            expected = {}
            for element, loop_counts in tallies.items():
                coeffs = [0] * (max(loop_counts) + 1)
                for loops in loop_counts:
                    coeffs[loops] += 1
                expected[element] = Polynomial(coeffs)
            result = enumerate_states(diagram)
            for element, value in zip(
                    (TLElement.ID3, TLElement.U1, TLElement.U2,
                     TLElement.R, TLElement.S), result.entries()):
                assert value == expected.get(element, Polynomial())
            # The closure: no state has an element, and the fold of the loop
            # counts is the bracket polynomial.
            closed = close_diagram(diagram)
            coeffs = [0]
            for mask in range(1 << closed.crossing_count):
                choices = [(mask >> i) & 1 for i in range(closed.crossing_count)]
                loops, element = smooth(closed, choices)
                assert element is None
                coeffs.extend([0] * (loops + 1 - len(coeffs)))
                coeffs[loops] += 1
            assert enumerate_states(closed) == Polynomial(coeffs)

    def test_order_independence(self):
        rng = random.Random(103)
        diagram = compile_word(("X1", "X2", "X1", "X1", "X2"))
        expected = enumerate_states(diagram)
        for _ in range(5):
            order = list(diagram.crossings)
            rng.shuffle(order)
            shuffled = ShadowDiagram(tuple(order), diagram.boundary,
                                     diagram.free_loops)
            assert enumerate_states(shuffled) == expected

    def test_crossing_limit_refusal(self):
        diagram = compile_word(("X1",) * 25)
        with pytest.raises(CrossingLimitError):
            enumerate_states(diagram)

    def test_crossing_limit_is_twenty(self):
        # 2**21 states would take seconds; the cap refuses them at once.
        with pytest.raises(CrossingLimitError, match="limit of 20"):
            enumerate_states(compile_word(("X1",) * 21))


class TestValidation:
    def test_edge_must_occur_twice(self):
        with pytest.raises(MalformedDiagramError):
            ShadowDiagram((("a", "a", "a", "b"),),
                          Boundary(("b", "c", "d"), ("c", "d", "e")))

    def test_boundary_size(self):
        with pytest.raises(MalformedDiagramError):
            ShadowDiagram((), Boundary(("a", "b"), ("a", "b")))  # type: ignore[arg-type]

    @pytest.mark.parametrize("crossings, boundary, message", [
        ([[1, "1", 2, "2"]], None, "crossing 0 has edge 0 of type int, not str"),
        ([["a", "a", "b", b"b"]], None, "crossing 0 has edge 3 of type bytes, not str"),
        ([["a", "b", "c", "d"]], (("a", "b", "c"), ("d", "e", True)),
         "boundary side 'R' has edge 2 of type bool, not str"),
    ], ids=["int", "bytes", "bool-on-the-boundary"])
    def test_edge_names_must_be_str(self, crossings, boundary, message):
        # str() would make [1, "1", 2, "2"] a kink the caller never drew.
        with pytest.raises(MalformedDiagramError, match=message):
            ShadowDiagram(crossings, boundary)

    def test_negative_free_loops(self):
        with pytest.raises(MalformedDiagramError):
            ShadowDiagram((), None, free_loops=-1).validate()

    def test_closing_a_closed_diagram(self):
        with pytest.raises(MalformedDiagramError):
            close_diagram(ShadowDiagram((), None))


class TestJsonForm:
    def test_round_trip(self):
        diagram = compile_word(("X1", "X2", "U1"))
        data = json.loads(json.dumps(diagram.to_json()))
        assert ShadowDiagram.from_json(data) == diagram

    def test_closed_round_trip(self):
        closed = close_diagram(compile_word(("X1", "X2")))
        assert ShadowDiagram.from_json(closed.to_json()) == closed

    def test_bad_json(self):
        with pytest.raises(MalformedDiagramError,
                           match="^bad diagram JSON: missing key 'crossings'$"):
            ShadowDiagram.from_json({"boundary": None})
        with pytest.raises(MalformedDiagramError, match="^bad diagram JSON: missing key 'R'$"):
            ShadowDiagram.from_json({"crossings": [], "boundary": {"L": ["a", "b", "c"]}})

    @pytest.mark.parametrize("quad", [["a", "a", "b"], ["a", "a", "b", "b", "c"]])
    def test_crossing_without_four_edges(self, quad):
        with pytest.raises(MalformedDiagramError, match=r"^crossing \(.*\) does not have 4 edges$"):
            ShadowDiagram.from_json({"crossings": [quad]})

    def test_validates_on_load(self):
        with pytest.raises(MalformedDiagramError):
            ShadowDiagram.from_json(
                {"crossings": [["a", "a", "a", "a"], ["a", "b", "b", "b"]],
                 "boundary": None, "free_loops": 0})


class TestCombinators:
    def test_close_identity_gives_three_loops(self):
        assert enumerate_states(close_diagram(compile_word(()))) == P("x^3")

    def test_mirror_mirrors_the_bracket(self):
        word = ("X1", "X2", "X1")
        mirrored = word_tuple(word).mirrored()
        assert enumerate_states(reflected(compile_word(word))) == mirrored
        assert enumerate_states(compile_word(mirrored_word(word))) == mirrored

    def test_mirror_swaps_the_cupcap_letters(self):
        assert enumerate_states(reflected(compile_word(("X1",)))) == \
            word_tuple(("X2",))


class TestWords:
    def test_word_tuple_of_split_text(self):
        word = "X1 X2 U1 U2".split()
        assert word_tuple(word) == enumerate_states(compile_word(word))
        assert word_tuple("".split()) == BracketVector.unit()

    def test_word_tuple_rejects_unknown_letters(self):
        with pytest.raises(ValueError, match="unknown tangle letter 'Y2'"):
            word_tuple("X1 Y2".split())

    def test_letter_tuples(self):
        assert letter_tuple("X1") == BracketVector.of(1, 1, 0, 0, 0)
        assert letter_tuple("X2") == BracketVector.of(1, 0, 1, 0, 0)
        assert letter_tuple("U1") == BracketVector.of(0, 1, 0, 0, 0)
        assert letter_tuple("U2") == BracketVector.of(0, 0, 1, 0, 0)
        with pytest.raises(ValueError):
            letter_tuple("Z9")


class TestMixedAlphabet:
    def test_words_over_every_letter(self):
        # Words mixing the hitch letters with the rest: the contraction, the
        # state sum and the tuple algebra agree, open and closed, and so do
        # they on the mirrored word, which ties the compiled M to H.  H and
        # M list their crossings in the crossing letters' rotational
        # direction, so every closed word passes the face trace as listed.
        rng = random.Random(26)
        for _ in range(300):
            word = tuple(rng.choice(WORD_LETTERS) for _ in range(rng.randint(0, 6)))
            diagram, v = compile_word(word), word_tuple(word)
            assert contract(diagram) == enumerate_states(diagram) == v, word
            closed = close_diagram(diagram)
            assert contract(closed) == enumerate_states(closed) == closure(v), word
            assert _listed_order_is_planar(list(closed.crossings)), word
            mirror = compile_word(mirrored_word(word))
            assert contract(mirror) == enumerate_states(mirror) == v.mirrored(), word
            closed = close_diagram(mirror)
            assert contract(closed) == enumerate_states(closed) == closure(v), word


def _planar_by_reflections(crossings, boundary: Boundary | None) -> bool:
    """Reference planarity test: some choice of reading direction per crossing
    makes the face-traced rotation system satisfy V - E + F = 2 per component."""
    outer = [] if boundary is None else [boundary.left + boundary.right[::-1]]
    for flips in itertools.product((False, True), repeat=len(crossings)):
        rotations = [quad[::-1] if flip else quad
                     for quad, flip in zip(crossings, flips)] + outer
        ends = {}
        for vertex, rotation in enumerate(rotations):
            for slot, edge in enumerate(rotation):
                ends.setdefault(edge, []).append((vertex, slot))
        mate, root = {}, list(range(len(rotations)))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for first, second in ends.values():
            mate[first], mate[second] = second, first
            root[find(first[0])] = find(second[0])
        faces, seen = 0, set()
        for dart in mate:
            if dart not in seen:
                faces += 1
                while dart not in seen:
                    seen.add(dart)
                    vertex, slot = mate[dart]
                    dart = (vertex, (slot + 1) % len(rotations[vertex]))
        components = len({find(v) for v in range(len(rotations))})
        if len(rotations) - len(ends) + faces == 2 * components:
            return True
    return False


def _is_accepted(crossings, boundary: Boundary | None) -> bool:
    try:
        ShadowDiagram(crossings, boundary)
    except MalformedDiagramError:
        return False
    return True


class TestPlanarity:
    def test_constructed_diagrams_pass(self):
        rng = random.Random(91)
        diagrams = [compile_word(WORDS[name]) for name in NAMES]
        for _ in range(100):
            first, second = rand_word(rng), rand_word(rng)
            glued = compile_word(first + second)
            diagrams += [compile_word(first), glued, close_diagram(glued),
                         compile_word(mirrored_word(first + second)), reflected(glued),
                         compile_word(WORDS[rng.choice(NAMES)] + first)]
        for diagram in diagrams:
            diagram.validate()

    def test_generator_powers_and_closures_are_planar_as_listed(self):
        # The generators list every crossing in compile_word's direction, so
        # the O(c) face trace accepts their powers, closures and mirror
        # images without the fallback to Dehn's reading.
        def listed_order_planar(diagram: ShadowDiagram) -> bool:
            rotations = list(diagram.crossings)
            if diagram.boundary is not None:
                rotations.append(diagram.boundary.left + diagram.boundary.right[::-1])
            return _listed_order_is_planar(rotations)

        for name in NAMES:
            for n in range(1, 7):
                word = WORDS[name] * n
                power_diagram = compile_word(word)
                assert listed_order_planar(power_diagram), (name, n)
                assert listed_order_planar(close_diagram(power_diagram)), (name, n)
                assert listed_order_planar(reflected(power_diagram)), (name, n)
                assert listed_order_planar(compile_word(mirrored_word(word))), (name, n)
        mixed = compile_word(WORDS["C"] + ("X2", "U1") + WORDS["E"])
        assert listed_order_planar(close_diagram(mixed))

    def test_virtual_crossing_rejected(self):
        with pytest.raises(MalformedDiagramError):
            ShadowDiagram.from_json({"crossings": [["1", "2", "1", "2"]],
                                     "boundary": None})

    def test_agrees_with_reflection_search_on_random_diagrams(self):
        # Up to six crossings, open and closed: boundary-to-boundary edges,
        # kinks and several components all reach the frame and the loop merge.
        rng = random.Random(92)
        verdicts = set()
        for _ in range(1000):
            crossings = rng.randint(0, 6)
            closed = rng.random() < 0.5
            slots = 4 * crossings + (0 if closed else 6)
            order = list(range(slots))
            rng.shuffle(order)
            names = [""] * slots
            for k in range(0, slots, 2):
                names[order[k]] = names[order[k + 1]] = f"e{k}"
            quads = tuple(tuple(names[4 * i:4 * i + 4]) for i in range(crossings))
            rest = names[4 * crossings:]
            boundary = None if closed else Boundary(tuple(rest[:3]), tuple(rest[3:]))
            verdict = _planar_by_reflections(quads, boundary)
            assert _is_accepted(quads, boundary) == verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_reading_direction_of_each_crossing_is_free(self):
        rng = random.Random(93)
        for _ in range(50):
            diagram = compile_word(rand_word(rng))
            flipped = tuple(quad[::-1] if rng.random() < 0.5 else quad
                            for quad in diagram.crossings)
            ShadowDiagram(flipped, diagram.boundary).validate()

    @pytest.mark.parametrize("closed", [False, True])
    def test_long_diagram_with_random_directions_is_accepted_quickly(self, closed):
        diagram = compile_word(("X1", "X2") * 160)
        if closed:
            diagram = close_diagram(diagram)
        rng = random.Random(94)
        flipped = [quad[::-1] if rng.random() < 0.5 else quad for quad in diagram.crossings]
        start = time.perf_counter()
        ShadowDiagram(flipped, diagram.boundary)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("crossings", [40, 100, 200])
    def test_curve_breaking_gauss_parity_is_refused(self, crossings):
        # The Gauss word 1 2 1 2 with kinks k k inserted: the two occurrences
        # of 1 enclose an odd number of symbols, which no plane curve allows.
        rng = random.Random(crossings)
        word = [0, 1, 0, 1]
        for kink in range(2, crossings):
            at = rng.randint(0, len(word))
            word[at:at] = [kink, kink]
        # The curve runs along edge i from symbol i to symbol i + 1 and goes
        # straight through each crossing.
        visits: dict[int, list[int]] = {}
        for i, symbol in enumerate(word):
            visits.setdefault(symbol, []).append(i)
        quads = [(f"g{(i - 1) % len(word)}", f"g{j - 1}", f"g{i}", f"g{j}")
                 for i, j in visits.values()]
        with pytest.raises(MalformedDiagramError, match="do not form a planar diagram"):
            ShadowDiagram(quads)

    def test_edge_names_like_frame_names_are_accepted(self):
        diagram = compile_word(("X1", "X2", "U1", "X2", "X1", "U2", "X1"))
        edges = dict.fromkeys(itertools.chain(*diagram.crossings, diagram.boundary_edges()))
        names = {edge: str((("ring", "arc", 0)[n % 3], n // 3)) for n, edge in enumerate(edges)}
        crossings = [tuple(map(names.get, quad if i % 2 else quad[::-1]))
                     for i, quad in enumerate(diagram.crossings)]
        boundary = Boundary(*(tuple(map(names.get, side)) for side in diagram.boundary))
        rotations = crossings + [boundary.left + boundary.right[::-1]]
        assert "(0, 1)" in names.values() and not _listed_order_is_planar(rotations)
        assert ShadowDiagram(crossings, boundary).crossings == tuple(crossings)

    @pytest.mark.parametrize("free_loops", [True, "3", 2.7])
    def test_free_loops_must_be_an_integer(self, free_loops):
        data = close_diagram(compile_word(("X1",))).to_json()
        data["free_loops"] = free_loops
        with pytest.raises(MalformedDiagramError):
            ShadowDiagram.from_json(data)

    def test_free_loops_are_bounded(self):
        data = {"crossings": [], "boundary": None, "free_loops": MAX_FREE_LOOPS}
        assert ShadowDiagram.from_json(data).free_loops == MAX_FREE_LOOPS
        for free_loops in (MAX_FREE_LOOPS + 1, 10 ** 12):
            data["free_loops"] = free_loops
            with pytest.raises(MalformedDiagramError, match="free_loops"):
                ShadowDiagram.from_json(data)


class TestValidateOnce:
    def test_malformed_diagram_raises_on_every_call(self):
        crossings = (("a", "a", "a", "b"),)
        boundary = Boundary(("b", "c", "d"), ("c", "d", "e"))
        for _ in range(2):
            with pytest.raises(MalformedDiagramError):
                ShadowDiagram(crossings, boundary)
            with pytest.raises(MalformedDiagramError):
                smooth(ShadowDiagram(crossings, boundary), [0])

    def test_repeated_smoothing_of_mixed_direction_diagram(self):
        cubed = compile_word(WORDS["C"] * 3)
        start = time.perf_counter()
        for mask in range(200):
            smooth(cubed, [(mask >> i) & 1 for i in range(9)])
        assert time.perf_counter() - start < 0.1


def count_validations(monkeypatch) -> list:
    """The diagrams passed to ShadowDiagram.validate from now on."""
    calls = []
    validate = ShadowDiagram.validate

    def counting(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(ShadowDiagram, "validate", counting)
    return calls


class TestValidatedOnConstruction:
    @pytest.mark.parametrize("free_loops", [True, 2.5, -1, MAX_FREE_LOOPS + 1])
    def test_bad_free_loops_cannot_be_constructed(self, free_loops):
        with pytest.raises(MalformedDiagramError, match="free_loops"):
            ShadowDiagram((), None, free_loops=free_loops)

    def test_each_route_validates_its_result_once(self, monkeypatch):
        first = compile_word(("X1", "U2"))
        data = first.to_json()
        calls = count_validations(monkeypatch)
        routes = {
            "from_json": lambda: ShadowDiagram.from_json(data),
            "compile_word": lambda: compile_word(("X1", "X2", "U1")),
            "close_diagram": lambda: close_diagram(first),
        }
        counts = {}
        for name, route in routes.items():
            calls.clear()
            result = route()
            counts[name] = len(calls)
            assert all(call is result for call in calls), name
        assert counts == dict.fromkeys(routes, 1)

    def test_routes_on_an_existing_diagram_do_not_validate(self, monkeypatch):
        tangle = compile_word(("X1", "X2", "U1"))
        closed = close_diagram(tangle)
        calls = count_validations(monkeypatch)
        for diagram in (tangle, closed):
            contract(diagram)
            enumerate_states(diagram)
            smooth(diagram, [0, 1])
        assert calls == []
