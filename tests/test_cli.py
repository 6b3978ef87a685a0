import argparse
import importlib
import json
import random
import sys
from pathlib import Path

import pytest

from conftest import P, rand_tuple, rand_word
from shadowbracket import cli, contraction, oracle, series, verify
from shadowbracket.bracket import (BracketVector, charpoly, closure, gf_from_tuple, power,
                                   states_matrix, word_tuple)
from shadowbracket.commands import _json_pieces
from shadowbracket.generators import WORDS, generator_tuple
from shadowbracket.matrix import LambdaPolynomial
from shadowbracket.oracle import ShadowDiagram, close_diagram, compile_word, enumerate_states
from shadowbracket.poly import Polynomial, int_text
from shadowbracket.reference import TABLE_ROWS
from shadowbracket.series import (coefficient_column, coefficient_table, column, expand,
                                  render_gf, row_lines)
from shadowbracket.usage import build_parser


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBracketCommand:
    def test_closure_of_first_power(self, capsys):
        code, out, _ = run(capsys, "bracket", "--generator", "T", "--n", "1",
                           "--closure")
        assert code == 0
        assert out == "x^3+2x^2+x\n"

    def test_power_zero_tuple(self, capsys):
        code, out, _ = run(capsys, "bracket", "--generator", "T", "--n", "0")
        assert code == 0
        assert out == "[1, 0, 0, 0, 0]\n"

    def test_word_input(self, capsys):
        code, out, _ = run(capsys, "bracket", "--word", "X1 X2")
        assert code == 0
        assert out == "[1, 1, 1, 0, 1]\n"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "bracket", "--generator", "C", "--n", "2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert BracketVector.from_json(payload["tuple"]) == \
            power(generator_tuple("C"), 2)

    def test_closure_json(self, capsys):
        code, out, _ = run(capsys, "bracket", "--generator", "T", "--n", "2",
                           "--closure", "--format", "json")
        payload = json.loads(out)
        assert payload == {"bracket": [0, 5, 8, 3], "n": 2}

    def test_pd_file_input(self, capsys, tmp_path):
        path = tmp_path / "three_crossing.json"
        path.write_text(json.dumps(compile_word(WORDS["C"]).to_json()))
        code, out, _ = run(capsys, "bracket", "--pd", str(path))
        assert code == 0
        assert out == "[x+2, x+2, 1, 0, 1]\n"

    def test_closed_pd_file_gives_polynomial(self, capsys, tmp_path):
        closed = close_diagram(compile_word(("X1", "X2")))
        path = tmp_path / "closed.json"
        path.write_text(json.dumps(closed.to_json()))
        code, out, _ = run(capsys, "bracket", "--pd", str(path))
        assert code == 0
        assert out == "x^3+2x^2+x\n"
        code, _, err = run(capsys, "bracket", "--pd", str(path), "--closure")
        assert code == 2
        assert "closed" in err

    def test_tuple_file_input(self, capsys, tmp_path):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps(generator_tuple("T").to_json()))
        code, out, _ = run(capsys, "bracket", "--tuple", str(path), "--n", "2",
                           "--closure")
        assert code == 0
        assert out == "3x^3+8x^2+5x\n"
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bracket", "--tuple", str(path), "--word", "X1"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_unknown_word_letter(self, capsys):
        code, _, err = run(capsys, "bracket", "--word", "X1 Q7")
        assert code == 2
        assert "Q7" in err

    def test_missing_input_source_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bracket"])
        assert excinfo.value.code == 2

    def test_crossing_limit_refusal(self, capsys, tmp_path):
        # No crossing cap on --pd: 30 crossings, beyond the state sum's 20.
        word = ("X1", "X2") * 15
        path = tmp_path / "big.json"
        path.write_text(json.dumps(compile_word(word).to_json()))
        code, out, err = run(capsys, "bracket", "--pd", str(path))
        assert (code, err) == (0, "")
        assert run(capsys, "bracket", "--word", " ".join(word)) == (0, out, "")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "bracket", "--pd", "/nonexistent.json")
        assert code == 2
        assert err


class TestTableCommand:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--generator", "T", "--rows", "2",
                           "--format", "csv")
        assert code == 0
        assert out == "0,0,0,1\n0,1,2,1\n0,5,8,3\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--generator", "E", "--rows", "1",
                           "--format", "json")
        assert json.loads(out) == {"generator": "E",
                                   "rows": [[0, 0, 0, 1], [0, 1, 4, 6, 4, 1]]}

    def test_text(self, capsys):
        code, out, _ = run(capsys, "table", "--generator", "C", "--rows", "1")
        assert out == "0 0 0 1\n0 1 3 3 1\n"


class TestGfCommand:
    def test_text_with_terms(self, capsys):
        code, out, _ = run(capsys, "gf", "--generator", "T", "--terms", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("(2x + (-2x^2-3x)y) / (1 + (-2x-3)y + (x^2+2x+1)y^2)"
                            " + (x^3-2x) / (1 + (-1)y)")
        assert lines[1] == "y^0: x^3"
        assert lines[2] == "y^1: x^3+2x^2+x"

    def test_json_terms_match_closures(self, capsys):
        code, out, _ = run(capsys, "gf", "--generator", "C", "--terms", "3",
                           "--format", "json")
        payload = json.loads(out)
        v = generator_tuple("C")
        for n, coeffs in enumerate(payload["terms"]):
            assert P(str(closure(power(v, n)))).coefficients == tuple(coeffs)

    def test_closed_input_rejected(self, capsys, tmp_path):
        closed = close_diagram(compile_word(("X1",)))
        path = tmp_path / "closed.json"
        path.write_text(json.dumps(closed.to_json()))
        code, _, err = run(capsys, "gf", "--pd", str(path))
        assert code == 2


class TestCharpolyCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--generator", "T")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == \
            "factored: -(L - (1)) * (L^2 - (2x+3)L + (x^2+2x+1))^2"
        assert lines[1].startswith("expanded: (-1)L^5")

    def test_json_coefficients(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--word", "X1", "--format", "json")
        payload = json.loads(out)
        assert len(payload["coefficients"]) == 6
        assert payload["coefficients"][5] == [-1]

    def test_tuples_print_the_determinant(self, capsys, tmp_path):
        # The command prints the factored form expanded; it must read exactly
        # as the cofactor determinant of the states matrix would.
        rng = random.Random(62)
        path = tmp_path / "v.json"
        # The zero tuple's polynomial is -L^5, printed without its five zero terms.
        zero = BracketVector.of(0, 0, 0, 0, 0)
        for v in [zero] + [rand_tuple(rng, max_degree=2) for _ in range(10)]:
            chi = charpoly(states_matrix(v))
            path.write_text(json.dumps(v.to_json()))
            code, out, _ = run(capsys, "charpoly", "--tuple", str(path))
            assert code == 0
            assert out.splitlines()[1] == f"expanded: {chi}"
            code, out, _ = run(capsys, "charpoly", "--tuple", str(path), "--format", "json")
            payload = {"coefficients": [list(c.coefficients) for c in chi.coefficients]}
            assert (code, out) == (0, json.dumps(payload, sort_keys=True) + "\n")


class TestVerifyCommand:
    def test_tables_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--tables", "--generator", "C")
        assert code == 0
        assert "FAIL" not in out
        assert "tables C row 6" in out

    def test_oracle_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--oracle", "--generator", "T",
                           "--max-n", "3", "--words", "25")
        assert code == 0
        assert "oracle T^3" in out

    def test_oracle_says_which_powers_it_skips(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_MAX_CROSSINGS", 4)
        code, out, _ = run(capsys, "verify", "--oracle", "--generator", "T",
                           "--max-n", "5", "--words", "0")
        assert code == 0
        assert "PASS  oracle T^2\n" in out
        assert "PASS  oracle T^3..T^5 skipped: crossing limit\n" in out

    def test_charpoly_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--charpoly", "--generator", "E")
        assert code == 0

    def test_rows_beyond_reference_is_usage_error(self, capsys):
        # The tables suite checks every reference row; verify takes no --rows.
        for rows in ("40", "3"):
            code, out, err = run_usage_error(capsys, "verify", "--tables", "--generator", "E",
                                             "--rows", rows)
            assert _refused(code, out, err)
            assert err == f"shadowbracket: error: unrecognized arguments: --rows {rows}\n"

    def test_recurrence_checks_the_column_route(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "verify", "--recurrence", "--generator", "E")
        assert code == 0
        assert "PASS  truncated column route E" in out
        monkeypatch.setattr(verify, "coefficient_column",
                            lambda name, rows, k: [k] * (rows + 1))
        code, out, _ = run(capsys, "verify", "--recurrence")
        assert code == 1
        for name in ("T", "C", "E"):
            assert f"FAIL  truncated column route {name}" in out

    def test_mismatch_reports_location_and_fails(self, capsys, monkeypatch):
        broken = [list(row) for row in TABLE_ROWS["C"]]
        broken[2][1] = 10
        monkeypatch.setitem(TABLE_ROWS, "C", broken)
        code, out, _ = run(capsys, "verify", "--tables", "--generator", "C")
        assert code == 1
        assert "FAIL  tables C row 2" in out
        assert "checks failed" in out

    def test_random_charpoly_disagreement_is_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "charpoly_factored", lambda v: LambdaPolynomial())
        code, out, _ = run(capsys, "verify", "--charpoly", "--generator", "T")
        assert code == 1
        assert ("FAIL  charpoly factorisation on 20 random tuples: "
                "tuple [-2x-1, 2x, -3x-3, x+3, -x-3]\n") in out
        assert out.endswith("2 of 3 checks failed\n")

    def test_recurrence_disagreement_is_reported(self, capsys, monkeypatch):
        closed = verify.closed_form_bracket
        monkeypatch.setattr(verify, "closed_form_bracket", lambda v, n: closed(v, n) + 1)
        code, out, _ = run(capsys, "verify", "--recurrence", "--generator", "T")
        assert code == 1
        assert ("FAIL  recurrence/series agreement T (n <= 10): "
                "n = 0: closure x^3, recurrence x^3+1, series x^3\n") in out
        assert out.endswith("1 of 3 checks failed\n")


class TestExportCommand:
    def test_column_bfile(self, capsys):
        code, out, _ = run(capsys, "export", "--generator", "T", "--rows", "3",
                           "--column", "1")
        assert code == 0
        assert out == "0 0\n1 1\n2 5\n3 16\n"

    # A b-file's index is the value's position, counted from 0 across the rows.
    def test_triangle_bfile(self, capsys):
        code, out, _ = run(capsys, "export", "--generator", "T", "--rows", "1")
        assert (code, out) == (0, "0 0\n1 0\n2 0\n3 1\n4 0\n5 1\n6 2\n7 1\n")

    def test_compare_match(self, capsys, tmp_path):
        reference = tmp_path / "reference.txt"
        reference.write_text("# column 1\n0 0\n1 1\n2 5\n3 16\n")
        out_file = tmp_path / "column.txt"
        code, out, _ = run(capsys, "export", "--generator", "T", "--rows", "3",
                           "--column", "1", "--out", str(out_file),
                           "--compare", str(reference))
        assert code == 0
        assert "MATCH" in out
        assert out_file.read_text() == "0 0\n1 1\n2 5\n3 16\n"

    def test_compare_mismatch(self, capsys, tmp_path):
        reference = tmp_path / "reference.txt"
        reference.write_text("0 0\n1 1\n2 999\n3 16\n")
        code, out, _ = run(capsys, "export", "--generator", "T", "--rows", "3",
                           "--column", "1", "--compare", str(reference))
        assert code == 1
        assert "MISMATCH" in out

    # export writes b-files only; `table --format csv` is the CSV output.
    @pytest.mark.parametrize("fmt", ["csv", "bfile"])
    def test_format_is_a_usage_error(self, capsys, fmt):
        assert run_usage_error(capsys, "export", "--generator", "T", "--rows", "2",
                               "--format", fmt) == (
            2, "", f"shadowbracket: error: unrecognized arguments: --format {fmt}\n")

    def test_csv_with_compare_is_usage_error(self, capsys, tmp_path):
        reference = tmp_path / "reference.txt"
        reference.write_text("0 0\n")
        code, out, err = run_usage_error(capsys, "export", "--generator", "T", "--rows", "1",
                                         "--format", "csv", "--compare", str(reference))
        assert _refused(code, out, err)
        assert "--format csv" in err

    @pytest.mark.parametrize("k", ["0", "2"])
    def test_csv_with_column_is_usage_error(self, capsys, k):
        code, out, err = run_usage_error(capsys, "export", "--generator", "T", "--rows", "4",
                                         "--format", "csv", "--column", k)
        assert _refused(code, out, err)
        assert "--format csv" in err

    # export has no --offset either: a b-file's index always starts at 0, and
    # an old command line with both flags is refused naming both.
    def test_csv_with_offset_is_usage_error(self, capsys):
        code, out, err = run_usage_error(capsys, "export", "--generator", "T", "--rows", "4",
                                         "--format", "csv", "--offset", "3")
        assert _refused(code, out, err)
        assert "--format csv" in err and "--offset 3" in err

    # The triangle export --format csv printed is now table --format csv's, byte for byte.
    def test_csv_with_offset_zero_prints_the_triangle(self, capsys):
        code, out, err = run_usage_error(capsys, "export", "--generator", "T", "--rows", "2",
                                         "--format", "csv", "--offset", "0")
        assert _refused(code, out, err)
        assert run(capsys, "table", "--generator", "T", "--rows", "2", "--format", "csv") == (
            0, "0,0,0,1\n0,1,2,1\n0,5,8,3\n", "")

    def test_csv_without_column_prints_the_triangle(self, capsys):
        code, out, err = run_usage_error(capsys, "export", "--generator", "T", "--rows", "2",
                                         "--format", "csv")
        assert _refused(code, out, err)
        assert run(capsys, "table", "--generator", "T", "--rows", "2", "--format", "csv") == (
            0, "0,0,0,1\n0,1,2,1\n0,5,8,3\n", "")

    @pytest.mark.parametrize("reference, problem", [
        ("# column 1\n0 0\n1 1\n2 5\n3 16\n", None),
        ("0 0\n1 1\n\n2 5\n3 16", None),
        ("0 0\n1 1\n2 999\n3 16\n", "mismatch at line 3: 2 5 != 2 999"),
        ("0 0\n1 1\n2 5\n", "length mismatch: 4 lines versus 3"),
        ("0 0\n1 1\n2 5\n3 16\n4 45\n", "length mismatch: 4 lines versus 5"),
        ("2 0\n3 1\n4 5\n5 16\n", "mismatch at line 1: 0 0 != 2 0"),
    ])
    def test_compare_output_is_exact(self, capsys, tmp_path, reference, problem):
        path = tmp_path / "reference.txt"
        path.write_text(reference)
        out_file = tmp_path / "column.txt"
        argv = ("export", "--generator", "T", "--rows", "3", "--column", "1",
                "--compare", str(path))
        lines = "".join(f"{n} {v}\n" for n, v in enumerate([0, 1, 5, 16]))
        code, verdict = ((0, f"MATCH against {path}\n") if problem is None
                         else (1, f"MISMATCH against {path}: {problem}\n"))
        assert run(capsys, *argv) == (code, lines + verdict, "")
        assert run(capsys, *argv, "--out", str(out_file)) == (code, verdict, "")
        assert out_file.read_text() == lines

    def test_compare_parses_only_the_reference(self, capsys, tmp_path, monkeypatch):
        reference = tmp_path / "reference.txt"
        reference.write_text("0 0\n1 1\n2 5\n3 16\n")
        parsed = []
        pairs = series._bfile_pairs
        monkeypatch.setattr(series, "_bfile_pairs",
                            lambda lines: pairs(parsed.append(line) or line for line in lines))
        code, out, _ = run(capsys, "export", "--generator", "T", "--rows", "3",
                           "--column", "1", "--compare", str(reference))
        assert code == 0 and out.endswith(f"MATCH against {reference}\n")
        assert parsed == ["0 0\n", "1 1\n", "2 5\n", "3 16\n"]

    def test_compare_names_a_reference_line_that_is_not_an_integer(self, capsys,
                                                                    tmp_path):
        reference = tmp_path / "reference.txt"
        reference.write_text("0 0\n1 x\n")
        out_file = tmp_path / "column.txt"
        for extra in ((), ("--out", str(out_file))):
            code, out, err = run(capsys, "export", "--generator", "T", "--rows", "1",
                                 "--column", "1", "--compare", str(reference), *extra)
            assert (code, out, err) == (2, "", "error: bad b-file line 2: '1 x'\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("line", ["1 0_1", "1 \u0661"])
    def test_compare_refuses_a_reference_integer_that_is_not_ascii_digits(
            self, capsys, tmp_path, line):
        # Read by int(), either line would equal "1 1" and the column match.
        reference = tmp_path / "reference.txt"
        reference.write_text(f"0 0\n{line}\n2 5\n3 16\n", encoding="utf-8")
        code, out, err = run(capsys, "export", "--generator", "T", "--rows", "3",
                             "--column", "1", "--compare", str(reference))
        assert (code, out, err) == (2, "", f"error: bad b-file line 2: {line!r}\n")

    @pytest.mark.parametrize("name", ["T", "C", "E"])
    def test_column_output_matches_the_table_column(self, capsys, name):
        # k = 0, k beyond the degree of every row, and rows = 0.
        for rows, k in ((0, 0), (0, 3), (0, 9), (9, 0), (9, 4), (9, 60), (30, 5)):
            code, out, _ = run(capsys, "export", "--generator", name,
                               "--rows", str(rows), "--column", str(k))
            expected = row_lines(enumerate(column(coefficient_table(name, rows), k)))
            assert (code, out) == (0, "\n".join(expected) + "\n")


def test_output_is_deterministic(capsys):
    first = run(capsys, "gf", "--generator", "E", "--terms", "4",
                "--format", "json")
    second = run(capsys, "gf", "--generator", "E", "--terms", "4",
                 "--format", "json")
    assert first == second
    third = run(capsys, "table", "--generator", "T", "--rows", "8")
    fourth = run(capsys, "table", "--generator", "T", "--rows", "8")
    assert third == fourth


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "row.txt"
    code, out, _ = run(capsys, "bracket", "--generator", "T", "--closure",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "x^3+2x^2+x\n"


def _refused(code: int, out: str, err: str) -> bool:
    """Bad input: exit 2, nothing on stdout, one line on stderr."""
    return code == 2 and out == "" and len(err.splitlines()) == 1


class TestClosureRoute:
    def test_closure_matches_closure_of_power(self, capsys, tmp_path):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"a": [1, -2], "b": [0, 3], "c": [-1],
                                    "d": [2, 1], "e": []}))
        sources = [("--generator", name) for name in ("T", "C", "E")]
        sources.append(("--tuple", str(path)))
        for source in sources:
            v = (generator_tuple(source[1]) if source[0] == "--generator"
                 else BracketVector.from_json(json.loads(path.read_text())))
            for n in range(13):
                expected = closure(power(v, n))
                code, out, _ = run(capsys, "bracket", *source, "--n", str(n),
                                   "--closure")
                assert (code, out) == (0, f"{expected}\n")
                code, out, _ = run(capsys, "bracket", *source, "--n", str(n),
                                   "--closure", "--format", "json")
                assert code == 0
                assert out == json.dumps({"bracket": list(expected.coefficients),
                                          "n": n}, sort_keys=True) + "\n"


class TestBadInput:
    @pytest.mark.parametrize("payload", [
        [1, 2],
        "abc",
        {"a": "abc", "b": [1], "c": [1], "d": [0], "e": [1]},
        {"a": [1], "b": [1.5], "c": [1], "d": [0], "e": [1]},
        {"a": [1], "b": [1], "c": [True], "d": [0], "e": [1]},
        {"a": [1], "b": [1], "c": [1], "d": 7, "e": [1]},
    ])
    def test_bad_tuple_json(self, capsys, tmp_path, payload):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps(payload))
        assert _refused(*run(capsys, "bracket", "--tuple", str(path)))

    def test_extra_tuple_key_is_named(self, capsys, tmp_path):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"a": [1], "b": [1], "c": [1], "d": [0], "e": [1],
                                    "f": [2]}))
        code, out, err = run(capsys, "bracket", "--tuple", str(path))
        assert _refused(code, out, err)
        assert "'f'" in err

    def test_repeated_tuple_key_is_refused(self, capsys, tmp_path):
        path = tmp_path / "tuple.json"
        path.write_text('{"a":[1],"a":[5],"b":[],"c":[],"d":[],"e":[]}')
        code, out, err = run(capsys, "bracket", "--tuple", str(path))
        assert _refused(code, out, err)
        assert err == f"error: {path}: duplicate key 'a'\n"

    def test_negative_export_column(self, capsys):
        assert _refused(*run(capsys, "export", "--generator", "T", "--rows", "6",
                             "--column", "-1"))

    @pytest.mark.parametrize("argv", [
        ("table", "--generator", "T", "--rows", "-1"),
        ("table", "--generator", "C", "--rows", "-3", "--format", "csv"),
        ("table", "--generator", "E", "--rows", "-1", "--format", "json"),
        ("export", "--generator", "T", "--rows", "-1"),
        ("export", "--generator", "C", "--rows", "-2", "--column", "1"),
        ("export", "--generator", "E", "--rows", "-1", "--column", "0"),
        ("export", "--generator", "T", "--rows", "-1", "--compare", "absent.txt"),
    ])
    def test_negative_rows(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert _refused(code, out, err)
        assert "--rows" in err

    @pytest.mark.parametrize("argv, flag", [
        (("gf", "--generator", "T", "--terms", "-1"), "--terms"),
        (("gf", "--word", "X1 X2", "--terms", "-3", "--format", "json"), "--terms"),
        (("bracket", "--generator", "T", "--n", "-1"), "--n"),
        (("bracket", "--generator", "E", "--n", "-2", "--closure"), "--n"),
        (("bracket", "--word", "X1", "--n", "-1", "--format", "json"), "--n"),
        (("export", "--generator", "T", "--rows", "6", "--column", "-1"), "--column"),
    ])
    def test_negative_count_names_its_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert _refused(code, out, err)
        assert flag in err

    @pytest.mark.parametrize("payload", [
        {"crossings": [["1", "2", "1", "2"]], "boundary": None},
        {"crossings": [], "boundary": None, "free_loops": True},
        {"crossings": [], "boundary": None, "free_loops": "3"},
        {"crossings": [], "boundary": None, "free_loops": 2.7},
    ])
    def test_bad_pd_json(self, capsys, tmp_path, payload):
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(payload))
        assert _refused(*run(capsys, "bracket", "--pd", str(path)))

    @pytest.mark.parametrize("flag", ["--pd", "--tuple"])
    def test_deeply_nested_json(self, capsys, tmp_path, flag):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "bracket", flag, str(path))
        assert _refused(code, out, err)
        assert err.startswith(f"error: {path}: ")

    def test_huge_free_loops(self, capsys, tmp_path):
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(
            {"crossings": [], "boundary": None, "free_loops": 10 ** 12}))
        code, out, err = run(capsys, "bracket", "--pd", str(path))
        assert _refused(code, out, err)
        assert "free_loops" in err

    @pytest.mark.parametrize("argv", [
        ("bracket", "--word", "X1", "--max-crossings", "4"),
        ("verify", "--charpoly", "--max-crossings", "-1"),
    ])
    def test_max_crossings_flag_is_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(list(argv))
        captured = capsys.readouterr()
        assert _refused(excinfo.value.code, captured.out, captured.err)


# Values of the wrong type for a field of diagram JSON; a number may be right.
_WRONG_VALUES = (None, 7, "e0", True, 2.5, 3.0, [["e0", ["e1"]]])


def _mutated_pd(rng: random.Random) -> str:
    """The JSON text of a seeded compiled word, mostly broken in one place."""
    diagram = compile_word(rand_word(rng))
    if rng.random() < 0.5:
        diagram = close_diagram(diagram)
    data = diagram.to_json()
    crossings, boundary = data["crossings"], data["boundary"]
    sides = [] if boundary is None else list(boundary.values())
    slots = [(seq, i) for seq in crossings + sides for i in range(len(seq))]
    kind = rng.choice(("rename", "swap", "drop", "duplicate", "type", "delete",
                       "shorten", "nest"))
    if kind == "rename" and slots:
        seq, i = rng.choice(slots)
        seq[i] = rng.choice(("fresh", seq[i - 1]))
    elif kind == "swap" and slots:
        (first, i), (second, j) = rng.choice(slots), rng.choice(slots)
        first[i], second[j] = second[j], first[i]
    elif kind == "drop" and crossings:
        del crossings[rng.randrange(len(crossings))]
    elif kind == "duplicate" and crossings:
        crossings.append(list(rng.choice(crossings)))
    elif kind == "type":
        fields = [(data, "crossings"), (data, "boundary"), (data, "free_loops")]
        fields += [(crossings, i) for i in range(len(crossings))] + slots
        if boundary is not None:
            fields += [(boundary, "L"), (boundary, "R")]
        container, key = rng.choice(fields)
        container[key] = rng.choice(_WRONG_VALUES)
    elif kind == "delete":
        container = rng.choice([data] if boundary is None else [data, boundary])
        del container[rng.choice(list(container))]
    elif kind == "shorten" and sides:
        rng.choice(sides).pop()
    elif kind == "nest":
        depth = rng.choice((50, 100000))
        return "[" * depth + json.dumps(data) + "]" * depth
    return json.dumps(data)


def test_malformed_pd_input_is_refused_or_summed(capsys, tmp_path):
    # Every mutation either still describes a diagram, whose contraction must
    # equal its state sum, or is refused on one line.
    rng = random.Random(17)
    path = tmp_path / "diagram.json"
    codes = []
    for _ in range(200):
        text = _mutated_pd(rng)
        path.write_text(text)
        code, out, err = run(capsys, "bracket", "--pd", str(path))
        if code == 0:
            expected = enumerate_states(ShadowDiagram.from_json(json.loads(text)))
            assert (out, err) == (f"{expected}\n", ""), text
        else:
            assert _refused(code, out, err), text
            assert err.startswith("error: ") and "Traceback" not in err, text
        codes.append(code)
    assert set(codes) == {0, 2}


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("bracket", "--generator", "T", "--n"),
        ("frobnicate",),
        ("bracket", "--generator", "T", "--word", "X1"),
    ])
    def test_one_line(self, capsys, argv):
        code, out, err = run_usage_error(capsys, *argv)
        assert _refused(code, out, err)
        assert err.startswith("shadowbracket") and ": error: " in err

    def test_help_is_unchanged(self, capsys):
        code, out, err = run_usage_error(capsys, "bracket", "-h")
        assert code == 0
        assert out.startswith("usage: shadowbracket bracket")
        assert err == ""


class TestVerifyCounts:
    @pytest.mark.parametrize("flags", [
        ("--words", "-3"),
        ("--max-n", "-1"),
        ("--words", "-3", "--max-n", "-1"),
        ("--max-n", "-4", "--words", "5"),
        ("--words", "-1", "--seed", "3"),
    ])
    def test_negative_count_is_refused(self, capsys, flags):
        code, out, err = run(capsys, "verify", "--oracle", "--generator", "T", *flags)
        assert _refused(code, out, err)
        assert flags[0] in err


# Each subcommand's options, in the order of its --help.  A knob is added or
# removed only by editing this list as well.
OPTIONS = {
    "bracket": ["--generator", "--word", "--pd", "--tuple", "--n", "--closure", "--format",
                "--out"],
    "table": ["--generator", "--rows", "--format", "--out"],
    "gf": ["--generator", "--word", "--pd", "--tuple", "--terms", "--format", "--out"],
    "charpoly": ["--generator", "--word", "--pd", "--tuple", "--format", "--out"],
    "verify": ["--tables", "--oracle", "--charpoly", "--recurrence", "--generator",
               "--max-n", "--words", "--seed"],
    "export": ["--generator", "--rows", "--column", "--out", "--compare"],
}


def test_options_are_unchanged():
    parser = build_parser(cli._COMMANDS)
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))

    def options(command: argparse.ArgumentParser) -> list[str]:
        return [flag for action in command._actions for flag in action.option_strings
                if flag not in ("-h", "--help")]
    assert options(parser) == []
    assert {name: options(command) for name, command in commands.choices.items()} == OPTIONS


class TestContractionRoute:
    def test_pd_input_does_not_enumerate_states(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("state sum called")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(compile_word(WORDS["C"]).to_json()))
        monkeypatch.setattr(oracle, "enumerate_states", refuse)
        code, out, _ = run(capsys, "bracket", "--pd", str(path))
        assert (code, out) == (0, "[x+2, x+2, 1, 0, 1]\n")

    def test_verify_oracle_checks_the_contraction(self, capsys, monkeypatch):
        monkeypatch.setattr(contraction, "contract",
                            lambda diagram: BracketVector.of(0, 0, 0, 0, 1))
        code, out, _ = run(capsys, "verify", "--oracle", "--generator", "T",
                           "--words", "5", "--max-n", "1")
        assert code == 1
        assert "FAIL  oracle 5 random words: word" in out
        assert "FAIL  oracle T^1: contraction" in out

    def test_verify_oracle_reports_a_wrong_generator_diagram(self, capsys, monkeypatch):
        # The suite compiles the powers' words itself, so a wrong word gives
        # FAIL rows, not an exception.
        monkeypatch.setitem(WORDS, "C", ("X1", "X2", "X1"))
        code, out, _ = run(capsys, "verify", "--oracle", "--generator", "C",
                           "--words", "1", "--max-n", "2")
        assert code == 1
        assert "FAIL  oracle C^1: contraction" in out
        assert "FAIL  oracle C^2: contraction" in out


class TestLongIntegers:
    """Integers past ``sys.int_max_str_digits`` (4,300 digits), read and written exactly."""

    def test_export_column_past_the_digit_limit(self, capsys):
        # Row 5264 is the first whose column-1 value has more than 4,300 digits.
        code, out, err = run(capsys, "export", "--generator", "E", "--rows", "5264",
                             "--column", "1")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        index, digits = lines[-1].split()
        assert (len(lines), index, len(digits)) == (5265, "5264", 4301)
        from decimal import Decimal
        assert int(Decimal(digits)) == list(coefficient_column("E", 5264, 1))[-1]

    def write_tuple(self, tmp_path, a_text: str):
        path = tmp_path / "tuple.json"
        path.write_text('{"a": [' + a_text + '], "b": [], "c": [], "d": [], "e": []}')
        return path

    def test_tuple_power_past_the_digit_limit(self, capsys, tmp_path):
        path = self.write_tuple(tmp_path, str(10 ** 1000 + 7))
        code, out, err = run(capsys, "bracket", "--tuple", str(path), "--n", "5")
        assert (code, err) == (0, "")
        assert out == f"[{int_text((10 ** 1000 + 7) ** 5)}, 0, 0, 0, 0]\n"

    def test_json_output_past_the_digit_limit_is_exact(self, capsys, tmp_path):
        path = self.write_tuple(tmp_path, str(10 ** 1000 + 7))
        argv = ("bracket", "--tuple", str(path), "--n", "5")
        code, text, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        out = _json_outputs(capsys, tmp_path, *argv)
        payload = cli._load_json(out)
        assert payload["n"] == 5
        assert payload["tuple"]["a"] == [(10 ** 1000 + 7) ** 5]
        assert len(int_text(payload["tuple"]["a"][0])) == 5001
        assert str(BracketVector.from_json(payload["tuple"])) + "\n" == text

    def test_json_input_past_the_digit_limit_is_read_exactly(self, capsys, tmp_path):
        path = self.write_tuple(tmp_path, "-" + "9" * 5000)
        code, out, err = run(capsys, "bracket", "--tuple", str(path))
        assert (code, out, err) == (0, "[-" + "9" * 5000 + ", 0, 0, 0, 0]\n", "")

    def test_compare_reads_long_reference_values(self, capsys, tmp_path):
        reference = tmp_path / "reference.txt"
        reference.write_text("0 0\n1 " + "1" * 5000 + "\n")
        code, out, err = run(capsys, "export", "--generator", "T", "--rows", "1",
                             "--column", "1", "--compare", str(reference))
        assert (code, err) == (1, "")
        assert out.endswith("MISMATCH against " + str(reference)
                            + ": mismatch at line 2: 1 1 != 1 " + "1" * 5000 + "\n")


# --- seeded fuzz of tuple, word and flag inputs ------------------------------

def outcome(capsys, *argv):
    """Exit code, stdout and stderr of one run; usage errors exit through argparse."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_value_or_refused(result, expected, case) -> int:
    """Exit 0 printing ``expected()``, or exit 2 on one error line."""
    code, out, err = result
    if code == 0:
        assert (out, err) == (f"{expected()}\n", ""), case
    else:
        assert _refused(code, out, err), case
        assert "error: " in err and "Traceback" not in err, case
    return code


# JSON values of the wrong kind for a tuple slot or a coefficient; [] is right.
_TUPLE_JUNK = (None, True, False, 2.5, 3.0, float("nan"), float("inf"), "1", "x", {},
               [], [[1]], [True], [1.0], [None], {"a": [1]})


def _mutated_tuple(rng: random.Random) -> str:
    data = {key: [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] for key in "abcde"}
    kind = rng.choice(("slot", "coefficient", "drop", "extra", "top", "nest", "keep"))
    key = rng.choice("abcde")
    if kind == "slot":
        data[key] = rng.choice(_TUPLE_JUNK)
    elif kind == "coefficient":
        data[key].insert(rng.randint(0, len(data[key])), rng.choice(_TUPLE_JUNK))
    elif kind == "drop":
        del data[key]
    elif kind == "extra":
        data[rng.choice(("f", "A", "", "aa", "0"))] = [2]
    elif kind == "top":
        return json.dumps(rng.choice(_TUPLE_JUNK + ([data], "abcde")))
    elif kind == "nest":
        depth = rng.choice((50, 100000))
        return "[" * depth + json.dumps(data) + "]" * depth
    return json.dumps(data)


def _well_formed_tuple(text: str) -> BracketVector:
    """The tuple of JSON text checked here, apart from the library: an object
    with exactly the keys a-e, each a list of exact ints."""
    data = json.loads(text)
    assert isinstance(data, dict) and sorted(data) == list("abcde"), text
    assert all(isinstance(coeffs, list) and all(type(c) is int for c in coeffs)
               for coeffs in data.values()), text
    return BracketVector(*(Polynomial(data[key]) for key in "abcde"))


def test_fuzzed_tuple_input_is_refused_or_read(capsys, tmp_path):
    rng = random.Random(29)
    path = tmp_path / "tuple.json"
    codes = set()
    for _ in range(120):
        text = _mutated_tuple(rng)
        path.write_text(text)
        result = outcome(capsys, "bracket", "--tuple", str(path))
        codes.add(assert_value_or_refused(result, lambda: _well_formed_tuple(text), text))
    assert codes == {0, 2}


_WORD_NOISE = ("X3", "x1", "U", "X", "1", "XX1", "X1X2", "é", "-X1", "\x00", "\x1b[0m",
               "\x7f", "X1\x00", "U1,")
_SEPARATORS = (",", ", ", ";", "+", "\t", "\n", "  ", " ", " ", "\x1c", "")


def _mutated_word(rng: random.Random) -> str:
    letters = list(rand_word(rng, 6))
    kind = rng.choice(("noise", "separator", "empty", "keep"))
    if kind == "noise":
        letters.insert(rng.randint(0, len(letters)), rng.choice(_WORD_NOISE))
    elif kind == "separator":
        return rng.choice(_SEPARATORS).join(letters)
    elif kind == "empty":
        return rng.choice(("", " ", "\t\n"))
    return " ".join(letters)


def test_fuzzed_word_input_is_refused_or_composed(capsys):
    rng = random.Random(31)
    codes = set()
    for _ in range(150):
        word = _mutated_word(rng)
        result = outcome(capsys, "bracket", "--word", word)
        codes.add(assert_value_or_refused(
            result, lambda: word_tuple(word.split()), repr(word)))
    assert codes == {0, 2}


def test_a_word_and_the_library_refuse_a_letter_alike(capsys):
    with pytest.raises(ValueError) as refused:
        word_tuple(("X1", "Y2"))
    assert str(refused.value) == \
        "unknown tangle letter 'Y2' (expected one of: X1, X2, U1, U2, H, M)"
    assert run(capsys, "bracket", "--word", "X1 Y2") == (2, "", f"error: {refused.value}\n")


def _gf_text(k: int) -> str:
    gf = gf_from_tuple(word_tuple(("X1", "U2")))
    return "\n".join([render_gf(gf)] + [f"y^{n}: {p}" for n, p in enumerate(expand(gf, k))])


# Each count flag: a command that takes it last, and what the command prints.
_COUNT_FLAGS = {
    "--n": (("bracket", "--generator", "C", "--n"),
            lambda k: str(power(generator_tuple("C"), k))),
    "--rows": (("table", "--generator", "E", "--rows"),
               lambda k: "\n".join(" ".join(map(str, row))
                                   for row in coefficient_table("E", k))),
    "--terms": (("gf", "--word", "X1 U2", "--terms"), _gf_text),
    "--column": (("export", "--generator", "T", "--rows", "3", "--column"),
                 lambda k: "\n".join(row_lines(enumerate(coefficient_column("T", 3, k))))),
    "--max-n": (("verify", "--oracle", "--generator", "T", "--words", "2", "--max-n"),
                None),
    "--words": (("verify", "--oracle", "--generator", "C", "--max-n", "1", "--words"),
                None),
}

# Invalid or small values; int() reads "+2", " 3" and "٣" (Arabic-Indic 3).
_COUNT_VALUES = ("-1", "-12", "", " ", "x", "1.5", "0x2", "2e1", "+2", " 3", "٣",
                 "0", "1")


@pytest.mark.parametrize("flag", list(_COUNT_FLAGS))
def test_count_flags_are_refused_or_run(capsys, flag):
    command, expected = _COUNT_FLAGS[flag]
    for value in _COUNT_VALUES:
        code, out, err = result = outcome(capsys, *command, value)
        try:
            count = int(value)
        except ValueError:
            count = None
        if count is None or count < 0:
            assert _refused(code, out, err) and "Traceback" not in err, value
            assert flag in err, value
        elif expected is None:
            assert code == 0 and "FAIL" not in out, value
            assert out.endswith(" checks passed\n"), value
        else:
            assert_value_or_refused(result, lambda: expected(count), value)
            assert code == 0, value


# --- the exact parser against argparse ---------------------------------------

# Values for any flag: right and wrong ones, negative numbers, values that
# start with "-", and the ints int() reads besides plain digits.
_ANY_VALUES = ("0", "3", "12", "-1", "-3", "+2", " 3", "٣", "1.5", "x", "", "-", "--",
               "-X1", "T", "C", "E", "Q", "t", "text", "csv", "json", "X1 U2", "f.json",
               "bracket", "a=b")


def _value(rng: random.Random, spec: dict) -> str:
    if "choices" in spec:
        return rng.choice(spec["choices"])
    if spec.get("type") is int:
        return str(rng.randint(0, 20))
    return rng.choice(("X1 U2", "f.json", ""))


def _random_argv(rng: random.Random) -> list[str]:
    """A well-formed command line, then most often broken in a few places."""
    command = rng.choice(list(cli._COMMANDS))
    _, sources, options = cli._COMMANDS[command]
    chosen = [rng.choice(sources)] if sources else []
    chosen += [option for option in options if option[1].get("required") or rng.random() < 0.4]
    rng.shuffle(chosen)
    if chosen and rng.random() < 0.2:  # perhaps the source or a required flag
        del chosen[rng.randrange(len(chosen))]
    argv = [command]
    for flag, spec in chosen:
        argv += [flag] if spec.get("action") else [flag, _value(rng, spec)]
    every = sources + options
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        i = rng.randrange(len(argv) + 1)
        flag, spec = rng.choice(every)
        kind = rng.choice(("repeat", "equals", "abbreviate", "value", "help", "drop",
                           "foreign", "command"))
        if kind == "repeat":
            argv[i:i] = [flag] if spec.get("action") else [flag, _value(rng, spec)]
        elif kind == "equals":
            argv[i:i] = [f"{flag}={_value(rng, spec)}"]
        elif kind == "abbreviate":
            argv[i:i] = [flag[:rng.randint(3, max(3, len(flag) - 1))], _value(rng, spec)]
        elif kind == "value" and len(argv) > 1:
            argv[rng.randrange(1, len(argv))] = rng.choice(_ANY_VALUES)
        elif kind == "help":
            argv[i:i] = [rng.choice(("-h", "--help"))]
        elif kind == "drop" and argv:
            del argv[rng.randrange(len(argv))]
        elif kind == "foreign":
            other = cli._COMMANDS[rng.choice(list(cli._COMMANDS))]
            argv[i:i] = [rng.choice(other[1] + other[2])[0], rng.choice(_ANY_VALUES)]
        elif kind == "command":
            argv[i:i] = [rng.choice(("frobnicate", "brack", *cli._COMMANDS))]
    return argv


def _fast_path_corpus(monkeypatch) -> list[list[str]]:
    """The benchmark's requests, this file's flag cases, and 2,000 seeded ones."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    corpus = [list(request.argv) for name in workloads.WORKLOADS for seed in (1, 2)
              for inputs in [workloads.build(name, seed, "work")]
              for request in [inputs.warmup, *inputs.templates]]
    corpus += [[*command, value] for command, _ in _COUNT_FLAGS.values()
               for value in _COUNT_VALUES]
    corpus += [["verify", "--oracle", "--generator", "T", *flags] for flags in (
        ("--words", "-3"), ("--max-n", "-1"), ("--words", "-1", "--seed", "3"))]
    corpus += [["bracket", "--generator", "T", "--n"], ["frobnicate"], [],
               ["bracket", "--generator", "T", "--word", "X1"], ["bracket", "-h"],
               ["bracket", "--word", "X1", "--max-crossings", "4"]]
    rng = random.Random(43)
    return corpus + [_random_argv(rng) for _ in range(2000)]


def test_the_exact_parser_agrees_with_argparse(monkeypatch, capsys):
    parser = build_parser(cli._COMMANDS)
    accepted = declined = refused = 0
    for argv in _fast_path_corpus(monkeypatch):
        try:
            fast = cli._parse_exact(argv)
        except ValueError as exc:
            # A negative count: argparse reads the same count, which runs nothing.
            refused += 1
            flag, _, value = str(exc).partition(" must be nonnegative, got ")
            assert value and vars(parser.parse_args(argv))[flag[2:].replace("-", "_")] < 0
            continue
        if fast is None:
            declined += 1
            continue
        accepted += 1
        try:
            expected = vars(parser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"argparse refuses {argv!r}: {capsys.readouterr().err}")
        # The handler, and verify's out=None, are the exact reader's alone.
        handler = getattr(cli, f"_cmd_{argv[0]}")
        assert vars(fast) == {"out": None, **expected, "handler": handler}, argv
    assert accepted > 300 and declined > 300 and refused > 10, (accepted, declined, refused)


def _spelt_exactly(argv: list[str]) -> bool:
    """Whether every flag of ``argv`` is one of its command's, in full and once.

    A flag is a token starting with "-" that is not a negative number, so a
    value that is a lone "-" counts as one.
    """
    _, sources, options = cli._COMMANDS[argv[0]]
    flags = [token for token in argv[1:] if token.startswith("-") and not token[1:].isdecimal()]
    return len(set(flags)) == len(flags) and set(flags) <= dict(sources + options).keys()


def test_only_the_exact_parser_runs_a_command(monkeypatch, capsys):
    corpus = _fast_path_corpus(monkeypatch)

    def refuse(args):
        raise AssertionError("a handler ran")
    for name in cli._COMMANDS:
        monkeypatch.setattr(cli, f"_cmd_{name}", refuse)
    helped = refused = 0
    for argv in corpus:
        try:
            if cli._parse_exact(argv) is not None:
                assert _spelt_exactly(argv), argv
                continue
        except ValueError:  # a negative count
            continue
        # Declined: help, or a usage error on one line, and no handler runs.
        code, out, err = outcome(capsys, *argv)
        if code == 0:
            helped += 1
            assert out.startswith("usage: shadowbracket") and err == "", argv
        else:
            refused += 1
            assert _refused(code, out, err), (argv, code, out, err)
            assert err.startswith("shadowbracket") and ": error: " in err, argv
    assert helped > 20 and refused > 1000, (helped, refused)


@pytest.mark.parametrize("argv", [
    ("bracket", "--generator", "T", "--generator", "C"),
    ("bracket", "--generator", "T", "--n", "2", "--n", "1"),
    ("bracket", "--gen", "T"),
    ("bracket", "--generator", "T", "--n=2"),
    ("bracket", "--word", "-"),
    ("verify", "--tables", "--tables"),
])
def test_spellings_argparse_accepts_are_refused(capsys, argv):
    code, out, err = outcome(capsys, *argv)
    assert _refused(code, out, err)
    assert err.startswith("shadowbracket: error: give each flag once and in full"), err


# --- strict diagram JSON and files read before any output --------------------

class TestStrictDiagramJson:
    def refused(self, capsys, tmp_path, data) -> str:
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "bracket", "--pd", str(path))
        assert _refused(code, out, err), (code, out, err)
        return err

    def test_misspelt_key_is_named(self, capsys, tmp_path):
        err = self.refused(capsys, tmp_path, {
            "crossings": [["e0", "e1", "e2", "e3"]],
            "boundary": {"L": ["e0", "e3", "e4"], "R": ["e1", "e2", "e4"]},
            "free_loop": 2})
        assert "'free_loop'" in err

    def test_unknown_boundary_key_is_named(self, capsys, tmp_path):
        err = self.refused(capsys, tmp_path, {
            "crossings": [["e0", "e1", "e2", "e3"]],
            "boundary": {"L": ["e0", "e3", "e4"], "R": ["e1", "e2", "e4"], "T": []}})
        assert "'T'" in err and "boundary" in err

    def test_repeated_crossings_key_is_named(self, capsys, tmp_path):
        path = tmp_path / "diagram.json"
        path.write_text('{"crossings": [["e0", "e1", "e2", "e3"]], '
                        '"crossings": [["e1", "e2", "e3", "e0"]], '
                        '"boundary": {"L": ["e0", "e3", "e4"], "R": ["e1", "e2", "e4"]}}')
        code, out, err = run(capsys, "bracket", "--pd", str(path))
        assert _refused(code, out, err), (code, out, err)
        assert err == f"error: {path}: duplicate key 'crossings'\n"

    def test_number_edge_identifiers_are_not_merged_with_strings(self, capsys, tmp_path):
        err = self.refused(capsys, tmp_path, {"crossings": [["1", 1, "2", 2]],
                                              "boundary": None})
        assert "crossing 0" in err and "int" in err

    def test_strings_are_not_read_as_lists(self, capsys, tmp_path):
        err = self.refused(capsys, tmp_path, {"crossings": ["abcd"],
                                              "boundary": {"L": "adx", "R": "bcx"}})
        assert "crossing 0" in err and "list" in err
        err = self.refused(capsys, tmp_path, {"crossings": [["a", "b", "c", "d"]],
                                              "boundary": {"L": "adx", "R": "bcx"}})
        assert "'L'" in err and "list" in err
        err = self.refused(capsys, tmp_path, {"crossings": "abcd"})
        assert "crossings" in err and "list" in err

    def test_missing_key_is_named(self, capsys, tmp_path):
        err = self.refused(capsys, tmp_path, {"boundary": None})
        assert err == "error: bad diagram JSON: missing key 'crossings'\n"
        err = self.refused(capsys, tmp_path, {"crossings": [],
                                              "boundary": {"L": ["a", "b", "c"]}})
        assert err == "error: bad diagram JSON: missing key 'R'\n"

    @pytest.mark.parametrize("quad", [["a", "a", "b"], ["a", "a", "b", "b", "c"]])
    def test_crossing_without_four_edges(self, capsys, tmp_path, quad):
        err = self.refused(capsys, tmp_path, {"crossings": [quad]})
        assert err.endswith(" does not have 4 edges\n")

    def test_optional_keys_may_be_left_out(self, capsys, tmp_path):
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps({"crossings": [["a", "a", "b", "b"]]}))
        assert run(capsys, "bracket", "--pd", str(path)) == (0, "x^2+x\n", "")


_GOOD_TUPLE = {"a": [1], "b": [0, 1], "c": [], "d": [0], "e": [1]}
_GOOD_DIAGRAM = {"crossings": [["e0", "e1", "e2", "e3"]],
                 "boundary": {"L": ["e0", "e3", "e4"], "R": ["e1", "e2", "e4"]}}


# Malformed --tuple and --pd files, each with the words its one stderr line
# must hold: where the fault sits and the type found or wanted.
@pytest.mark.parametrize("flag, data, words", [
    ("--tuple", [_GOOD_TUPLE], ("the tuple", "object", "list")),
    ("--tuple", dict(_GOOD_TUPLE, f=[2]), ("the tuple", "unknown key 'f'")),
    ("--tuple", {k: v for k, v in _GOOD_TUPLE.items() if k != "c"}, ("missing key 'c'",)),
    ("--tuple", dict(_GOOD_TUPLE, d=7), ("key 'd'", "list", "int")),
    ("--tuple", dict(_GOOD_TUPLE, b=[0, "1"]), ("key 'b'", "item 1", "str", "int")),
    ("--tuple", dict(_GOOD_TUPLE, e=[1.0]), ("key 'e'", "item 0", "float", "int")),
    ("--tuple", dict(_GOOD_TUPLE, a=[True]), ("key 'a'", "item 0", "bool", "int")),
    ("--pd", "abcd", ("the diagram", "object", "str")),
    ("--pd", dict(_GOOD_DIAGRAM, loops=0), ("the diagram", "unknown key 'loops'")),
    ("--pd", {"boundary": None}, ("missing key 'crossings'",)),
    ("--pd", dict(_GOOD_DIAGRAM, crossings={"0": []}), ("crossings", "list", "dict")),
    ("--pd", dict(_GOOD_DIAGRAM, crossings=[["e0", "e1", 2.5, "e3"]]),
     ("crossing 0", "edge 2", "float", "str")),
    ("--pd", dict(_GOOD_DIAGRAM, crossings=[["e0", "e1", "e2", True]]),
     ("crossing 0", "edge 3", "bool", "str")),
    ("--pd", dict(_GOOD_DIAGRAM, boundary={"L": ["e0", "e3", "e4"], "R": ["e1", "e2", 4]}),
     ("boundary side 'R'", "edge 2", "int", "str")),
])
def test_malformed_input_file_names_the_fault(capsys, tmp_path, flag, data, words):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "bracket", flag, str(path))
    assert _refused(code, out, err), (code, out, err)
    assert all(word in err for word in words), err


def test_a_pd_file_and_the_constructor_refuse_an_edge_alike(capsys, tmp_path):
    # Edge names have one check, the diagram's own: a --pd file reaches it
    # through the constructor, with no reader's wording in front.
    data = dict(_GOOD_DIAGRAM, crossings=[["e0", "e1", 2.5, "e3"]])
    with pytest.raises(oracle.MalformedDiagramError) as refused:
        ShadowDiagram(data["crossings"], oracle.Boundary(data["boundary"]["L"],
                                                         data["boundary"]["R"]))
    assert str(refused.value) == "crossing 0 has edge 2 of type float, not str"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "bracket", "--pd", str(path)) == (2, "", f"error: {refused.value}\n")


class TestFilesReadBeforeOutput:
    def test_absent_compare_file_writes_nothing(self, capsys, tmp_path):
        out_file = tmp_path / "o.txt"
        for extra in ((), ("--out", str(out_file))):
            code, out, err = run(capsys, "export", "--generator", "T", "--rows", "2",
                                 "--column", "1", "--compare",
                                 str(tmp_path / "absent.txt"), *extra)
            assert _refused(code, out, err)
            assert "absent.txt" in err
            assert not out_file.exists()

    def test_out_naming_the_compare_file_is_refused(self, capsys, tmp_path):
        (tmp_path / "sub").mkdir()
        reference = tmp_path / "reference.txt"
        reference.write_text("0 0\n1 1\n2 999\n")
        for out_file in (reference, tmp_path / "sub" / ".." / "reference.txt"):
            code, out, err = run(capsys, "export", "--generator", "T", "--rows", "2",
                                 "--column", "1", "--compare", str(reference),
                                 "--out", str(out_file))
            assert _refused(code, out, err)
            assert reference.read_text() == "0 0\n1 1\n2 999\n"

    def test_malformed_compare_file_writes_nothing(self, capsys, tmp_path):
        reference = tmp_path / "reference.txt"
        reference.write_text("0 0\n1 one\n")
        out_file = tmp_path / "o.txt"
        code, out, err = run(capsys, "export", "--generator", "T", "--rows", "2",
                             "--column", "1", "--compare", str(reference),
                             "--out", str(out_file))
        assert _refused(code, out, err)
        assert not out_file.exists()

    def test_malformed_line_after_a_mismatch_writes_nothing(self, capsys, tmp_path):
        reference = tmp_path / "reference.txt"
        reference.write_text("0 9\n1 1\n2 five\n")
        out_file = tmp_path / "o.txt"
        for extra in ((), ("--out", str(out_file))):
            code, out, err = run(capsys, "export", "--generator", "T", "--rows", "2",
                                 "--column", "1", "--compare", str(reference), *extra)
            assert (code, out, err) == (2, "", "error: bad b-file line 3: '2 five'\n")
            assert not out_file.exists()

    @pytest.mark.parametrize("argv", [
        ("bracket", "--pd"),
        ("bracket", "--tuple"),
        ("export", "--generator", "T", "--rows", "2", "--column", "1", "--compare"),
    ])
    def test_non_utf8_file_is_named(self, capsys, tmp_path, argv):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b'{"a": [1]}\xff\n')
        out_file = tmp_path / "o.txt"
        code, out, err = run(capsys, *argv, str(path), "--out", str(out_file))
        assert _refused(code, out, err)
        assert err.startswith(f"error: {path}: ")
        assert not out_file.exists()


# --- row-by-row output -------------------------------------------------------

def _whole_table(name: str, rows: int, fmt: str) -> str:
    """The output of ``table`` as one text, rendered from the whole triangle."""
    table = coefficient_table(name, rows)
    if fmt == "json":
        return json.dumps({"generator": name, "rows": table}, sort_keys=True) + "\n"
    sep = "," if fmt == "csv" else " "
    return "\n".join(sep.join(map(int_text, row)) for row in table) + "\n"


def _whole_gf(name: str, terms: int | None, fmt: str) -> str:
    """The output of ``gf`` as one text, rendered from the whole expansion."""
    gf = gf_from_tuple(generator_tuple(name))
    series = [] if terms is None else expand(gf, terms)
    if fmt == "json":
        payload = gf.to_json()
        if terms is not None:
            payload["terms"] = [list(p.coefficients) for p in series]
        return json.dumps(payload, sort_keys=True) + "\n"
    return "\n".join([render_gf(gf)] + [f"y^{n}: {p}" for n, p in enumerate(series)]) + "\n"


class TestStreamedOutput:
    """Rows written one at a time equal the whole-text rendering, byte for byte."""

    def outputs(self, capsys, tmp_path, *argv) -> tuple[str, str]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        target = tmp_path / "out.txt"
        code, empty, err = run(capsys, *argv, "--out", str(target))
        assert (code, empty, err) == (0, "", "")
        return out, target.read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("name, rows", [("T", 0), ("C", 1), ("E", 6), ("T", 45),
                                            ("E", 30)])
    def test_table(self, capsys, tmp_path, name, rows, fmt):
        expected = _whole_table(name, rows, fmt)
        assert self.outputs(capsys, tmp_path, "table", "--generator", name, "--rows",
                            str(rows), "--format", fmt) == (expected, expected)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name, terms", [("T", None), ("C", 0), ("E", 5), ("C", 40)])
    def test_gf(self, capsys, tmp_path, name, terms, fmt):
        expected = _whole_gf(name, terms, fmt)
        count = () if terms is None else ("--terms", str(terms))
        assert self.outputs(capsys, tmp_path, "gf", "--generator", name, *count,
                            "--format", fmt) == (expected, expected)

    def test_json_renderer_is_json_dumps(self):
        heads = ({}, {"a": 1}, {"z": "T", "b": [1, 2], "a": {"z": 0, "y": [3, []]}},
                 {"s": [[], [-4], [5, 6]], "e": ()})
        for head in heads:
            for rows in ([], [(1, -2), (), (3,)], [[0, 10 ** 40]]):
                expected = json.dumps({**head, "rows": rows}, sort_keys=True)
                for source in (rows, iter(rows), (tuple(row) for row in rows)):
                    assert "".join(_json_pieces({**head, "rows": source})) == expected

    def test_json_renderer_reads_lazy_rows_as_it_writes_them(self):
        source = iter([(1, 2), (3,)])
        pieces = _json_pieces({"rows": source})
        assert [next(pieces) for _ in range(5)] == ["{", '"rows"', ": ", "[", "[1, 2]"]
        assert next(source) == (3,)


def _json_outputs(capsys, tmp_path, *argv):
    """The ``--format json`` output of a request, equal on stdout and with
    ``--out``, as the path of the ``--out`` file."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    target = tmp_path / "out.json"
    assert run(capsys, *argv, "--format", "json", "--out", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == out
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    return str(target)


class TestJsonPastTheDigitLimit:
    """A row with an int past ``sys.int_max_str_digits`` is written exactly."""

    LONG_ROWS = [(0, 1), (2, 10 ** 5000), (3,)]

    def test_table(self, capsys, tmp_path, monkeypatch):
        from shadowbracket import series
        monkeypatch.setattr(series, "table_rows", lambda name, rows: iter(self.LONG_ROWS))
        argv = ("table", "--generator", "T", "--rows", "2")
        code, text, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        payload = cli._load_json(_json_outputs(capsys, tmp_path, *argv))
        assert payload == {"generator": "T", "rows": [list(r) for r in self.LONG_ROWS]}
        assert "".join(line + "\n" for line in series.row_lines(payload["rows"])) == text

    def test_gf_terms(self, capsys, tmp_path, monkeypatch):
        from shadowbracket import bracket
        polys = [Polynomial(row) for row in self.LONG_ROWS]
        monkeypatch.setattr(bracket.RationalGF, "terms", lambda self: iter(polys))
        argv = ("gf", "--generator", "T", "--terms", "2")
        code, text, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        payload = cli._load_json(_json_outputs(capsys, tmp_path, *argv))
        assert payload["terms"] == [list(r) for r in self.LONG_ROWS]
        terms = [f"y^{n}: {Polynomial(row)}" for n, row in enumerate(payload["terms"])]
        assert text.splitlines()[1:] == terms


def test_closed_stdout_exits_141_quietly():
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "shadowbracket.cli", "table",
         "--generator", "T", "--rows", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # The triangle is about 1 MB, far more than a pipe buffers.
    assert proc.stdout.readline() == b"0 0 0 1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


class TestProcessExit:
    """``cli.run``, the process entry: ``main``, ``gc.freeze()``, then ``sys.exit``.

    The freeze leaves teardown's final collections nothing to scan.  Every
    other exit step must still run, so the entry must not be ``os._exit``.
    """

    SRC = Path(cli.__file__).resolve().parents[1]

    def python(self, *args: str) -> tuple[int, bytes, bytes]:
        import os
        import subprocess
        done = subprocess.run([sys.executable, "-W", "error", *args], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=str(self.SRC)), timeout=60)
        return done.returncode, done.stdout, done.stderr

    def test_atexit_hooks_run_after_the_freeze(self):
        assert self.python("-c", (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "sys.argv[1:] = ['bracket', '--word', 'X1 X2']\n"
            "runpy.run_module('shadowbracket.cli', run_name='__main__', alter_sys=True)\n"
        )) == (0, b"[1, 1, 1, 0, 1]\nfrozen True\n", b"")

    def test_a_profiler_still_prints_its_report(self):
        # cProfile runs the module as __main__ without runpy's alter_sys, so
        # sys.modules["__main__"] is cProfile's own module, not cli: table's
        # handler and the JSON renderer, in commands, must not look cli up there.
        for argv, first in ((("bracket", "--word", "X1 X2"), b"[1, 1, 1, 0, 1]\n"),
                            (("bracket", "--word", "X1", "--format", "json"),
                             b'{"n": 1, "tuple": {"a": [1], "b": [1], "c": [], "d": [], '
                             b'"e": []}}\n'),
                            (("table", "--generator", "T", "--rows", "3"), b"0 0 0 1\n")):
            code, out, err = self.python("-m", "cProfile", "-m", "shadowbracket.cli", *argv)
            assert (code, err) == (0, b""), argv
            assert out.startswith(first), argv
            assert b"function calls" in out

    def test_main_in_process_leaves_the_collector_alone(self, capsys):
        import gc
        frozen = gc.get_freeze_count()
        assert run(capsys, "bracket", "--word", "X1 X2")[0] == 0
        assert run(capsys, "bracket", "--word", "X1 X3")[0] == 2
        assert gc.get_freeze_count() == frozen

    def test_the_script_runs_what_python_m_runs(self, tmp_path):
        import re
        # A regex, since Python 3.10 has no tomllib.
        pyproject = (self.SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
        target = re.search(r'^shadowbracket = "shadowbracket\.cli:(\w+)"$', pyproject,
                           re.MULTILINE).group(1)
        source = Path(cli.__file__).read_text(encoding="utf-8")
        assert source.endswith(f'\nif __name__ == "__main__":\n    {target}()\n')
        reference = tmp_path / "reference.txt"
        reference.write_text("0 0\n1 1\n2 999\n3 16\n", encoding="utf-8")
        # The script that installers write calls the target and exits with its value.
        script = f"import sys; from shadowbracket.cli import {target}; sys.exit({target}())"
        ran = {}
        for name, route in (("module", ("-m", "shadowbracket.cli")),
                            ("script", ("-c", script))):
            out = tmp_path / f"{name}.txt"
            ran[name] = [self.python(*route, *argv) for argv in (
                ("table", "--generator", "T", "--rows", "200", "--out", str(out)),
                ("export", "--generator", "T", "--rows", "3", "--column", "1",
                 "--compare", str(reference)),
                ("bracket", "--word", "X1 X3"))] + [out.read_bytes()]
        assert ran["module"] == ran["script"]
        assert [code for code, _, _ in ran["module"][:3]] == [0, 1, 2]


def test_file_io_names_its_encoding(tmp_path):
    # Under -X warn_default_encoding, a file opened without an encoding warns,
    # and -W error makes the warning fail the command.  The suite itself opens
    # files without one, so only the CLI runs under the flag.
    import os
    import subprocess
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    pd, tangle = tmp_path / "d.json", tmp_path / "t.json"
    pd.write_text(json.dumps(compile_word(WORDS["C"]).to_json()), encoding="utf-8")
    tangle.write_text(json.dumps(generator_tuple("T").to_json()), encoding="utf-8")
    column = tmp_path / "column.txt"
    for argv in (("export", "--generator", "E", "--rows", "20", "--column", "1",
                  "--out", column),
                 ("export", "--generator", "E", "--rows", "20", "--column", "1",
                  "--compare", column),
                 ("table", "--generator", "T", "--rows", "5", "--format", "json",
                  "--out", tmp_path / "table.json"),
                 ("bracket", "--pd", pd),
                 ("bracket", "--tuple", tangle, "--n", "3"),
                 ("gf", "--tuple", tangle, "--terms", "4", "--out", tmp_path / "gf.txt"),
                 ("charpoly", "--tuple", tangle, "--format", "json",
                  "--out", tmp_path / "charpoly.json")):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error",
             "-m", "shadowbracket.cli", *map(str, argv)],
            capture_output=True, encoding="utf-8", env=env, timeout=60)
        assert (done.returncode, done.stderr) == (0, ""), argv
    assert column.read_text(encoding="utf-8").startswith("0 0\n1 1\n")


class _CountingSink:
    """A stdout that keeps only the number of characters written (all ASCII)."""

    def __init__(self):
        self.written = 0

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)

    def flush(self) -> None:
        pass


class TestOutputMemory:
    """The traced peak of a call against the bytes it writes.

    Written row by row, a triangle costs about one row and the recurrence's
    few terms, in every format; the whole-text rendering held the output
    three times over.
    """

    def peak_per_byte(self, *argv) -> float:
        import contextlib
        import tracemalloc
        with contextlib.redirect_stdout(_CountingSink()):
            assert cli.main(list(argv)) == 0  # warm: imports and caches
        sink = _CountingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert cli.main(list(argv)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / sink.written

    @pytest.mark.parametrize("argv", [
        ("table", "--generator", "T", "--rows", "120"),
        ("table", "--generator", "C", "--rows", "100", "--format", "csv"),
        ("gf", "--generator", "E", "--terms", "80"),
        ("table", "--generator", "T", "--rows", "120", "--format", "json"),
        ("export", "--generator", "T", "--rows", "120"),
        ("export", "--generator", "E", "--rows", "600", "--column", "1"),
    ])
    def test_text_formats_hold_a_row_at_a_time(self, argv):
        assert self.peak_per_byte(*argv) < 0.5
