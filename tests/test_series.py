import io
import random
from itertools import chain, islice

import pytest

from conftest import P, rand_tuple
from shadowbracket.bracket import (BracketVector, RationalGF, RationalTerm,
                                   closed_form_bracket, closure, gf_from_tuple, power,
                                   pq_invariants)
from shadowbracket.generators import WORDS, generator_tuple
from shadowbracket.oracle import compile_word
from shadowbracket.poly import ONE, Polynomial, X, parse_int
from shadowbracket.reference import TABLE_ROWS
from shadowbracket.series import (coefficient_column, coefficient_table, column,
                                  compare_bfiles, expand, render_gf, row_lines, table_rows)

T = generator_tuple("T")
C = generator_tuple("C")
E = generator_tuple("E")


class TestGfFromTuple:
    def test_two_crossing_generator_terms(self):
        gf = gf_from_tuple(T)
        assert gf.pair_part.numerator == (P("2x"), P("-2x^2-3x"))
        assert gf.pair_part.denominator == (ONE, P("-2x-3"), P("x^2+2x+1"))
        assert gf.geometric_part.numerator == (P("x^3-2x"),)
        assert gf.geometric_part.denominator == (ONE, P("-1"))

    def test_four_crossing_generator_denominator(self):
        gf = gf_from_tuple(E)
        assert gf.pair_part.denominator[2] == P("4x^4+24x^3+52x^2+48x+16")
        assert gf.geometric_part.denominator == (ONE, P("-x^2-4x-4"))

    def test_identity_tangle_series_is_constant(self):
        gf = gf_from_tuple(BracketVector.unit())
        assert gf.pair_part.numerator == (P("2x"), P("-2x"))
        assert gf.pair_part.denominator == (ONE, P("-2"), ONE)
        assert expand(gf, 4) == [P("x^3")] * 5

    def test_denominators_must_lead_with_one(self):
        with pytest.raises(ValueError):
            RationalTerm((ONE,), (P("2"),))


class TestExpand:
    def test_first_three_rows_of_two_crossing_family(self):
        assert expand(gf_from_tuple(T), 2) == \
            [P("x^3"), P("x^3+2x^2+x"), P("3x^3+8x^2+5x")]

    def test_first_two_rows_of_three_crossing_family(self):
        assert expand(gf_from_tuple(C), 1) == [P("x^3"), P("x^4+3x^3+3x^2+x")]

    def test_zero_terms(self):
        for v in (T, C, E):
            assert expand(gf_from_tuple(v), 0) == [P("x^3")]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            expand(gf_from_tuple(T), -1)

    def test_agrees_with_closure_and_recurrence(self):
        rng = random.Random(60)
        for v in (T, C, E, rand_tuple(rng), rand_tuple(rng)):
            series = expand(gf_from_tuple(v), 10)
            for n in range(11):
                assert series[n] == closed_form_bracket(v, n)
                assert series[n] == closure(power(v, n))


class TestCoefficientTable:
    def test_spot_rows(self):
        assert coefficient_table("T", 5)[5] == [0, 121, 340, 356, 170, 35, 2]
        assert coefficient_table("C", 4)[4] == \
            [0, 225, 796, 1186, 1008, 569, 232, 67, 12, 1]
        assert coefficient_table("E", 5)[5] == \
            [0, 10201, 59660, 156624, 244280, 252460, 182544, 94960, 35904,
             9800, 1880, 242, 20, 1]

    def test_full_reference_tables(self):
        for name, reference in TABLE_ROWS.items():
            assert coefficient_table(name, len(reference) - 1) == reference

    def test_row_sums_count_all_states(self):
        for name in ("T", "C", "E"):
            crossings = compile_word(WORDS[name]).crossing_count
            table = coefficient_table(name, 6)
            assert [sum(row) for row in table] == [2 ** (crossings * n) for n in range(7)]

    def test_no_states_without_loops(self):
        for name in ("T", "C", "E"):
            for row in coefficient_table(name, 6):
                assert row[0] == 0
                assert all(value >= 0 for value in row)

    def test_alternate_lucas_column(self):
        lucas = [2, 1]  # L_0, L_1, then L_n = L_(n-1) + L_(n-2)
        while len(lucas) < 21:
            lucas.append(lucas[-1] + lucas[-2])
        table = coefficient_table("T", 10)
        assert column(table, 1) == [value - 2 for value in lucas[::2]]


class TestTruncatedColumns:
    def test_truncated_expansion_is_the_expansion_reduced(self):
        rng = random.Random(62)
        for v in (T, C, E, rand_tuple(rng), rand_tuple(rng), rand_tuple(rng, 2)):
            gf = gf_from_tuple(v)
            full = gf.expand(25)
            for precision in (1, 2, 4, 9, 200):
                assert list(islice(gf.terms(precision), 26)) == \
                    [Polynomial(p.coefficients[:precision]) for p in full]

    def test_column_route_equals_the_table_column(self):
        for name in ("T", "C", "E"):
            for rows in (0, 1, 12):
                table = coefficient_table(name, rows)
                # k = 0, small k, and k beyond the degree of every row.
                for k in (0, 1, 2, 3, 7, 4 * rows + 4, 100):
                    assert list(coefficient_column(name, rows, k)) == column(table, k)

    def test_column_route_rejects_negative_arguments(self):
        with pytest.raises(ValueError, match="column index"):
            coefficient_column("T", 5, -1)
        with pytest.raises(ValueError):
            coefficient_column("T", -1, 2)

    def test_negative_rows_are_refused_by_name(self):
        with pytest.raises(ValueError, match=r"^rows must be nonnegative, got -1$"):
            table_rows("T", -1)
        with pytest.raises(ValueError, match=r"^rows must be nonnegative, got -1$"):
            coefficient_column("T", -1, 1)


class TestFormRegressions:
    def test_dropping_the_x_factor_breaks_row_zero(self):
        # A tempting mis-transcription of the generating function omits the
        # factor x on the paired-eigenvalue term.  Its series then disagrees
        # with the reference triangle already at n = 0.
        pq = pq_invariants(T)
        m = pq.pair_product()
        wrong_pair = RationalTerm((Polynomial([2]), -pq.p), (ONE, -pq.p, m))
        wrong = RationalGF(wrong_pair, gf_from_tuple(T).geometric_part)
        assert list(wrong.expand(0)[0].coefficients) != TABLE_ROWS["T"][0]
        assert list(gf_from_tuple(T).expand(0)[0].coefficients) == TABLE_ROWS["T"][0]

    def test_expanded_quadratic_coefficient_identity(self):
        # The expanded form (de - bc)x^2 + (-ac - ab)x + (-d - a)e - ad + bc - a^2
        # of the denominator's quadratic coefficient equals minus the
        # eigenvalue product; the sign flips because that convention negates
        # the whole denominator.
        rng = random.Random(61)
        for _ in range(100):
            v = rand_tuple(rng)
            a, b, c, d, e = v.entries()
            expanded = ((d * e - b * c) * (X * X) + (-(a * c) - a * b) * X
                        + (-d - a) * e - a * d + b * c - a * a)
            assert expanded == -pq_invariants(v).pair_product()


class TestExportForms:
    def test_csv_lines(self):
        assert list(row_lines([[0, 1, 2], [3, 4]], ",")) == ["0,1,2", "3,4"]

    def test_column_pads_short_rows(self):
        assert column([[1], [2, 5], [3]], 1) == [0, 5, 0]

    def test_triangle_values_flatten_row_major(self):
        # The values a whole-triangle b-file lists, k ascending within each row.
        assert list(chain.from_iterable(table_rows("T", 2))) == [0, 0, 0, 1, 0, 1, 2, 1, 0, 5, 8, 3]

    def test_bfile_lines_and_parse(self):
        entries = [(2, 7), (3, 8), (4, 9)]
        lines = list(row_lines(entries))
        assert lines == list(row_lines(enumerate([7, 8, 9], 2))) == ["2 7", "3 8", "4 9"]
        # Comments and blank lines are skipped wherever they stand.
        text = "# comment\n\n" + "\n".join(lines) + "\n"
        assert compare_bfiles(entries, text) is None
        assert compare_bfiles(entries, "2 7\n  \n# 3 0\n3 8\n\n4 9\n# end") is None
        assert compare_bfiles(entries, io.StringIO(text)) is None

    def test_parse_bfile_rejects_junk(self):
        with pytest.raises(ValueError):
            compare_bfiles([(1, 2)], "1 2 3")

    # int() alone would also read digit-group underscores and non-ASCII digits.
    @pytest.mark.parametrize("line", ["1 x", "1 2 3", "1", "x 1", "1 2.0", "1 0_1",
                                      "3 \u0663", "\u0661 1"])
    def test_parse_bfile_names_the_bad_line(self, line):
        with pytest.raises(ValueError) as refused:
            compare_bfiles([(0, 0), (3, 4)], f"# head\n0 0\n{line}\n3 4")
        assert str(refused.value) == f"bad b-file line 3: {line!r}"

    def test_one_integer_rule_for_json_and_b_files(self):
        # parse_int reads ASCII digits with an optional sign, and nothing
        # else that int() would read.  A b-file splits its fields at
        # whitespace, so each refused spelling without whitespace is tried
        # there as a value and as an index.
        refused = ["1_0", " 3", "3 ", "\u0663", "0x3"]
        for text in refused:
            with pytest.raises(ValueError):
                parse_int(text)
        assert [parse_int(text) for text in ("+3", "007", "-0")] == [3, 7, 0]
        for text in (t for t in refused if t == t.strip()):
            for line in (f"1 {text}", f"{text} 1"):
                with pytest.raises(ValueError) as bad:
                    compare_bfiles([(0, 0), (1, 1)], f"0 0\n{line}\n")
                assert str(bad.value) == f"bad b-file line 2: {line!r}"

    def test_compare_bfiles(self):
        ours = list(enumerate([0, 1, 5]))
        assert compare_bfiles(ours, "0 0\n1 1\n2 5") is None
        assert compare_bfiles(ours, "0 0\n1 1\n2 6") == "mismatch at line 3: 2 5 != 2 6"
        assert compare_bfiles(ours, "0 0\n1 1") == "length mismatch: 3 lines versus 2"
        assert compare_bfiles(ours[1:], "0 0\n1 1") == "mismatch at line 1: 1 1 != 0 0"

    def test_render_gf_is_stable(self):
        text = render_gf(gf_from_tuple(T))
        assert text == ("(2x + (-2x^2-3x)y) / (1 + (-2x-3)y + (x^2+2x+1)y^2)"
                        " + (x^3-2x) / (1 + (-1)y)")

    def test_render_gf_writes_a_unit_y_coefficient_bare(self):
        text = render_gf(gf_from_tuple(BracketVector.of(0, 0, 0, -1, 0)))
        assert text == "(2x + (x)y) / (1 + y) + (x^3-2x) / (1)"


def test_coefficient_rows_accepts_any_tuple():
    rows = [list(p.coefficients) for p in gf_from_tuple(T.mirrored()).expand(10)]
    assert rows == TABLE_ROWS["T"][:11]


def test_negative_column_is_rejected():
    with pytest.raises(ValueError):
        column([[1, 2], [3, 4]], -1)


class TestLongIntegerExport:
    def test_lines_past_the_digit_limit_round_trip(self):
        long = -(10 ** 6000) - 1
        digits = "-1" + "0" * 5999 + "1"
        assert list(row_lines([[1, long], [2]], ",")) == [f"1,{digits}", "2"]
        lines = list(row_lines(enumerate([5, long], 3)))
        assert lines == ["3 5", f"4 {digits}"]
        assert compare_bfiles([(3, 5), (4, long)], "\n".join(lines)) is None
        assert compare_bfiles([(3, 5), (4, long + 1)], "\n".join(lines)) == \
            f"mismatch at line 2: 4 -1{'0' * 6000} != 4 {digits}"
        assert compare_bfiles([(0, long)], "0 1") == f"mismatch at line 1: 0 {digits} != 0 1"
