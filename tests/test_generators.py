import pytest

from conftest import P
from shadowbracket.bracket import BracketVector, closure, power, word_tuple
from shadowbracket.generators import NAMES, WORDS, generator_tuple
from shadowbracket.oracle import (Boundary, ShadowDiagram, compile_word, enumerate_states,
                                  generator_diagram, glue, mirror_diagram)

# The two-crossing hitch typed out crossing by crossing, the reference for
# the letters H and M: the top strand passes straight through, and a bight
# entering from the right threads the closed turn of the two lower strands.
HITCH = ShadowDiagram(
    crossings=(("turn", "bight1", "leg1", "bight0"),
               ("turn", "bight2", "leg2", "bight1")),
    boundary=Boundary(("pass", "leg1", "leg2"), ("pass", "bight0", "bight2")),
)


class TestTuples:
    def test_two_crossing_generator(self):
        assert generator_tuple("T") == BracketVector.of(1, 1, 1, 0, 1)

    def test_three_crossing_generator(self):
        assert generator_tuple("C") == \
            BracketVector.of(P("x+2"), P("x+2"), 1, 0, 1)

    def test_four_crossing_generator(self):
        assert generator_tuple("E") == \
            BracketVector.of(P("x^2+4x+4"), P("x+2"), P("x+2"), 0, 1)

    def test_each_tuple_is_its_words_tuple(self):
        for name in NAMES:
            assert word_tuple(WORDS[name]) == generator_tuple(name)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            generator_tuple("Q")
        with pytest.raises(ValueError):
            generator_diagram("")


class TestDiagrams:
    def test_crossing_counts(self):
        for name, count in (("T", 2), ("C", 3), ("E", 4)):
            assert generator_diagram(name).crossing_count == count

    def test_every_diagram_is_the_compiled_word(self):
        assert generator_diagram("T") == compile_word(("X1", "X2"))
        assert generator_diagram("C") == compile_word(("X1", "H"))
        assert generator_diagram("E") == compile_word(("M", "H"))

    def test_hitch_letters_compile_to_the_typed_gadget(self):
        assert glue(compile_word(("X1",)), HITCH) == compile_word(("X1", "H"))
        assert glue(mirror_diagram(HITCH), HITCH) == compile_word(("M", "H"))

    def test_state_sums_reproduce_the_tuples(self):
        for name in NAMES:
            diagram = generator_diagram(name)
            assert enumerate_states(diagram) == generator_tuple(name)

    def test_self_check_passes(self):
        generator_diagram.cache_clear()
        try:
            for name in NAMES:
                assert generator_diagram(name) == compile_word(WORDS[name])
        finally:
            generator_diagram.cache_clear()

    def test_self_check_rejects_a_corrupted_diagram(self, monkeypatch):
        monkeypatch.setitem(WORDS, "C", ("X1", "X2", "X1"))
        generator_diagram.cache_clear()
        try:
            with pytest.raises(RuntimeError):
                generator_diagram("C")
        finally:
            generator_diagram.cache_clear()


class TestStateCounts:
    def test_every_crossing_splits_two_ways(self):
        for name in NAMES:
            crossings = generator_diagram(name).crossing_count
            assert closure(generator_tuple(name)).evaluate(1) == 2 ** crossings

    def test_powers_multiply_the_state_count(self):
        for name in NAMES:
            crossings = generator_diagram(name).crossing_count
            for n in range(7):
                states = closure(power(generator_tuple(name), n)).evaluate(1)
                assert states == 2 ** (crossings * n)


class TestClosurePolynomials:
    def test_no_constant_term_and_nonnegative_coefficients(self):
        # Every state of a nonempty closed diagram has at least one loop.
        for name in NAMES:
            v = generator_tuple(name)
            for n in range(9):
                poly = closure(power(v, n))
                assert poly.coefficient(0) == 0
                assert all(c >= 0 for c in poly.coefficients)

    def test_first_closures_are_twist_loops(self):
        # One power of a k-crossing generator closes to x(x+1)^k.
        for name, count in (("T", 2), ("C", 3), ("E", 4)):
            expected = (P("x+1") ** count) * P("x")
            assert closure(generator_tuple(name)) == expected
