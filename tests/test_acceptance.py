"""Acceptance suite: one test per shipped criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any assertion failure marks the corresponding criterion red.
"""

import random
import time

from conftest import P, reference_matrix, rand_tuple, rand_word
from shadowbracket.bracket import (RationalGF, RationalTerm, charpoly, charpoly_factored,
                                   closed_form_bracket, closure, gf_from_tuple, power,
                                   pq_invariants, states_matrix, word_tuple)
from shadowbracket.generators import generator_tuple
from shadowbracket.oracle import (close_diagram, compile_word, enumerate_states,
                                  generator_diagram)
from shadowbracket.poly import ONE, Polynomial
from shadowbracket.reference import TABLE_ROWS
from shadowbracket.series import coefficient_table, column, compare_bfiles, expand, row_lines
from shadowbracket.tl3 import ELEMENTS, ScaledTL, TLElement, multiply


def _passed(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {label}")


def test_criterion_01_table_t_reproduction():
    start = time.perf_counter()
    table = coefficient_table("T", 10)
    elapsed = time.perf_counter() - start
    assert table == TABLE_ROWS["T"]
    assert table[10] == [0, 15125, 83620, 202841, 282980, 249815, 144488,
                         54690, 13080, 1815, 120, 2]
    assert elapsed < 1.0
    _passed(1, f"T triangle rows 0..10 reproduced in {elapsed:.3f}s")


def test_criterion_02_table_c_reproduction():
    start = time.perf_counter()
    table = coefficient_table("C", 6)
    elapsed = time.perf_counter() - start
    assert table == TABLE_ROWS["C"]
    assert table[6] == [0, 3969, 20106, 45481, 61630, 57078, 39298, 21239,
                        9198, 3151, 822, 153, 18, 1]
    assert elapsed < 1.0
    _passed(2, f"C triangle rows 0..6 reproduced in {elapsed:.3f}s")


def test_criterion_03_table_e_reproduction():
    start = time.perf_counter()
    table = coefficient_table("E", 5)
    elapsed = time.perf_counter() - start
    assert table == TABLE_ROWS["E"]
    assert table[4] == [0, 1377, 6640, 14112, 17504, 14128, 7808, 3008, 800,
                        142, 16, 1]
    assert elapsed < 1.0
    _passed(3, f"E triangle rows 0..5 reproduced in {elapsed:.3f}s")


def test_criterion_04_triple_agreement():
    start = time.perf_counter()
    for name in ("T", "C", "E"):
        v = generator_tuple(name)
        series = expand(gf_from_tuple(v), 10)
        for n in range(11):
            direct = closure(power(v, n))
            assert direct == closed_form_bracket(v, n)
            assert direct == series[n]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(4, f"closure = recurrence = series for n <= 10 in {elapsed:.3f}s")


def test_criterion_05_pq_invariants():
    expected = {
        "T": (P("2x+3"), P("4x+5")),
        "C": (P("x^2+5x+5"), P("x^4+2x^3+3x^2+10x+9")),
        "E": (P("4x^2+12x+9"), P("8x^2+24x+17")),
    }
    for name, (p, q_squared) in expected.items():
        pq = pq_invariants(generator_tuple(name))
        assert (pq.p, pq.q_squared) == (p, q_squared)
    _passed(5, "p and q^2 match the reference values for T, C, E")


def test_criterion_06_states_matrices():
    for name in ("T", "C", "E"):
        assert states_matrix(generator_tuple(name)) == reference_matrix(name)
    _passed(6, "constructed states matrices equal the reference matrices")


def test_criterion_07_charpoly_identity():
    for name in ("T", "C", "E"):
        v = generator_tuple(name)
        assert charpoly(states_matrix(v)) == charpoly_factored(v)
    rng = random.Random(20260810)
    for _ in range(20):
        v = rand_tuple(rng, max_degree=1, lo=-3, hi=3)
        assert charpoly(states_matrix(v)) == charpoly_factored(v)
    _passed(7, "charpoly factorisation holds for T, C, E and 20 random tuples")


def test_criterion_08_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(8)
    for _ in range(200):
        word = rand_word(rng, 8)
        assert enumerate_states(compile_word(word)) == word_tuple(word)
    t = generator_tuple("T")
    for n in range(6):
        diagram = compile_word(("X1", "X2") * n)
        assert enumerate_states(diagram) == power(t, n)
    squared = compile_word(("X1", "X2", "X1", "X2"))
    assert enumerate_states(close_diagram(squared)) == P("3x^3+8x^2+5x")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(8, f"state sums match the tuple algebra in {elapsed:.3f}s")


def test_criterion_09_monoid_soundness():
    import itertools
    for a, b, c in itertools.product(ELEMENTS, repeat=3):
        ab = multiply(a, b)
        ab_c = multiply(ab.element, c)
        bc = multiply(b, c)
        a_bc = multiply(a, bc.element)
        assert ScaledTL(ab.loops + ab_c.loops, ab_c.element) == \
            ScaledTL(bc.loops + a_bc.loops, a_bc.element)
    for element in ELEMENTS:
        assert multiply(TLElement.ID3, element) == ScaledTL(0, element)
        assert multiply(element, TLElement.ID3) == ScaledTL(0, element)
    assert multiply(TLElement.U1, TLElement.U1) == ScaledTL(1, TLElement.U1)
    assert multiply(TLElement.U2, TLElement.U2) == ScaledTL(1, TLElement.U2)
    _passed(9, "125 associativity triples, identity and idempotent checks")


def test_criterion_10_alternate_lucas_column():
    reference = [0, 1, 5, 16, 45, 121, 320, 841, 2205, 5776, 15125]
    ours = list(enumerate(column(coefficient_table("T", 10), 1)))
    theirs = "\n".join(row_lines(enumerate(reference)))
    assert compare_bfiles(ours, theirs) is None
    _passed(10, "T column k=1 matches alternate Lucas numbers minus 2 via b-file")


def test_criterion_11_state_count_invariant():
    for name, crossings in (("T", 2), ("C", 3), ("E", 4)):
        v = generator_tuple(name)
        assert generator_diagram(name).crossing_count == crossings
        for n in range(7):
            assert closure(power(v, n)).evaluate(1) == 2 ** (crossings * n)
    _passed(11, "closure brackets at x=1 count 2^(crossings*n) states")


def test_criterion_12_erratum_regressions():
    # Swapping the paired slots (b <-> c, d <-> e) on every input leaves all
    # table, recurrence and series values unchanged.
    for name in ("T", "C", "E"):
        v = generator_tuple(name)
        swapped = v.mirrored()
        reference = TABLE_ROWS[name]
        rows = gf_from_tuple(swapped).expand(len(reference) - 1)
        assert [list(p.coefficients) for p in rows] == reference
        for n in range(11):
            value = closure(power(v, n))
            assert closure(power(swapped, n)) == value
            assert closed_form_bracket(swapped, n) == value
    # The generating function without the factor x on its paired term fails
    # the reference triangle already at n = 0; the corrected form passes.
    v = generator_tuple("T")
    pq = pq_invariants(v)
    uncorrected = RationalGF(
        RationalTerm((Polynomial([2]), -pq.p), (ONE, -pq.p, pq.pair_product())),
        gf_from_tuple(v).geometric_part)
    assert list(uncorrected.expand(0)[0].coefficients) != TABLE_ROWS["T"][0]
    assert list(gf_from_tuple(v).expand(0)[0].coefficients) == TABLE_ROWS["T"][0]
    _passed(12, "slot-swap leaves all values unchanged; missing-x form fails row 0")
