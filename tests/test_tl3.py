import itertools

import pytest

from shadowbracket import tl3
from shadowbracket.tl3 import (ELEMENTS, MATCHINGS, ScaledTL, TLElement,
                               closure_loops, mirror, multiply)

E = TLElement


class TestTable:
    def test_identity_row_and_column(self):
        for element in ELEMENTS:
            assert multiply(E.ID3, element) == ScaledTL(0, element)
            assert multiply(element, E.ID3) == ScaledTL(0, element)

    def test_cupcap_squares_detach_one_loop(self):
        assert multiply(E.U1, E.U1) == ScaledTL(1, E.U1)
        assert multiply(E.U2, E.U2) == ScaledTL(1, E.U2)

    def test_hooks_are_the_two_cupcap_products(self):
        assert multiply(E.U1, E.U2) == ScaledTL(0, E.S)
        assert multiply(E.U2, E.U1) == ScaledTL(0, E.R)

    def test_spot_entries(self):
        assert multiply(E.U1, E.S) == ScaledTL(1, E.S)
        assert multiply(E.U2, E.R) == ScaledTL(1, E.R)
        assert multiply(E.R, E.U1) == ScaledTL(1, E.R)
        assert multiply(E.R, E.S) == ScaledTL(1, E.U2)
        assert multiply(E.S, E.R) == ScaledTL(1, E.U1)
        assert multiply(E.S, E.U1) == ScaledTL(0, E.U1)
        assert multiply(E.R, E.R) == ScaledTL(0, E.R)
        assert multiply(E.S, E.S) == ScaledTL(0, E.S)

    def test_entries_no_other_test_pins(self):
        # With the tests above, every one of the 25 products is pinned.
        assert multiply(E.U1, E.R) == ScaledTL(0, E.U1)
        assert multiply(E.U2, E.S) == ScaledTL(0, E.U2)
        assert multiply(E.R, E.U2) == ScaledTL(0, E.U2)
        assert multiply(E.S, E.U2) == ScaledTL(1, E.S)

    def test_loops_are_zero_or_one(self):
        for a, b in itertools.product(ELEMENTS, repeat=2):
            assert multiply(a, b).loops in (0, 1)


def test_matchings_pair_the_six_points():
    for matching in MATCHINGS.values():
        assert all(matching[i] != i and matching[matching[i]] == i for i in range(6))


class TestMatchingCheck:
    """Each row of MATCHINGS is checked at import; a bad row names its element."""

    def test_the_five_rows_pass(self):
        assert tl3._index_matchings(MATCHINGS) == {m: e for e, m in MATCHINGS.items()}

    def test_a_swapped_row_is_named(self):
        with pytest.raises(ValueError, match=r"MATCHINGS\['r'\] = \(2, 5, 1, 4, 3, 0\) "
                                             "does not pair off"):
            tl3._check_matching(E.R, (2, 5, 1, 4, 3, 0))

    @pytest.mark.parametrize("matching", [(0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5),
                                          (1, 0, 3, 2, 5, 6), (3, 4, 5, 0, 1, 1)])
    def test_rows_that_are_not_pairings(self, matching):
        with pytest.raises(ValueError, match="does not pair off the points 0-5"):
            tl3._check_matching(E.S, matching)

    @pytest.mark.parametrize("matching", [(2, 3, 0, 1, 5, 4), (4, 2, 1, 5, 0, 3),
                                          (1, 0, 4, 5, 2, 3)])
    def test_crossing_matchings(self, matching):
        with pytest.raises(ValueError, match=r"MATCHINGS\['U1'\] .* has crossing strands"):
            tl3._check_matching(E.U1, matching)

    def test_a_repeated_row_is_named(self):
        with pytest.raises(ValueError, match=r"MATCHINGS\['s'\] repeats the row of 'U1'"):
            tl3._index_matchings({**MATCHINGS, E.S: MATCHINGS[E.U1]})


def test_loop_weighted_associativity_all_125_triples():
    for a, b, c in itertools.product(ELEMENTS, repeat=3):
        ab = multiply(a, b)
        ab_c = multiply(ab.element, c)
        left = ScaledTL(ab.loops + ab_c.loops, ab_c.element)
        bc = multiply(b, c)
        a_bc = multiply(a, bc.element)
        right = ScaledTL(bc.loops + a_bc.loops, a_bc.element)
        assert left == right, (a, b, c)


def test_mirror_is_an_automorphism():
    assert mirror(E.ID3) is E.ID3
    assert mirror(E.U1) is E.U2
    assert mirror(E.R) is E.S
    for a, b in itertools.product(ELEMENTS, repeat=2):
        loops, element = multiply(a, b)
        mirrored = multiply(mirror(a), mirror(b))
        assert mirrored == ScaledTL(loops, mirror(element))
    for element in ELEMENTS:
        assert mirror(mirror(element)) is element


class TestClosureLoops:
    def test_values(self):
        assert closure_loops(E.ID3) == 3
        assert closure_loops(E.U1) == 2
        assert closure_loops(E.U2) == 2
        assert closure_loops(E.R) == 1
        assert closure_loops(E.S) == 1

    def test_mirror_preserves_closure(self):
        for element in ELEMENTS:
            assert closure_loops(mirror(element)) == closure_loops(element)


class TestSymbols:
    def test_round_trip(self):
        for element in ELEMENTS:
            assert TLElement(element.value) is element

    def test_names(self):
        assert [e.value for e in ELEMENTS] == ["1_3", "U1", "U2", "r", "s"]

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            TLElement("U3")
