import pytest

from conftest import P
from shadowbracket import oracle
from shadowbracket.bracket import BracketVector, closure, power
from shadowbracket.generators import NAMES, generator_tuple
from shadowbracket.oracle import compile_word, enumerate_states, generator_diagram


class TestTuples:
    def test_two_crossing_generator(self):
        assert generator_tuple("T") == BracketVector.of(1, 1, 1, 0, 1)

    def test_three_crossing_generator(self):
        assert generator_tuple("C") == \
            BracketVector.of(P("x+2"), P("x+2"), 1, 0, 1)

    def test_four_crossing_generator(self):
        assert generator_tuple("E") == \
            BracketVector.of(P("x^2+4x+4"), P("x+2"), P("x+2"), 0, 1)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            generator_tuple("Q")
        with pytest.raises(ValueError):
            generator_diagram("")


class TestDiagrams:
    def test_crossing_counts(self):
        for name, count in (("T", 2), ("C", 3), ("E", 4)):
            assert generator_diagram(name).crossing_count == count

    def test_t_diagram_is_the_compiled_word(self):
        assert generator_diagram("T") == compile_word(("X1", "X2"))

    def test_state_sums_reproduce_the_tuples(self):
        for name in NAMES:
            diagram = generator_diagram(name)
            assert enumerate_states(diagram) == generator_tuple(name)

    def test_self_check_passes(self):
        generator_diagram.cache_clear()
        try:
            for name in NAMES:
                assert generator_diagram(name) == oracle._unchecked_diagram(name)
        finally:
            generator_diagram.cache_clear()

    def test_self_check_rejects_a_corrupted_diagram(self, monkeypatch):
        broken = compile_word(("X1", "X2", "X1"))
        monkeypatch.setattr(oracle, "_unchecked_diagram", lambda name: broken)
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
