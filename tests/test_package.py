"""The package surface: lazy public names, import footprint and record classes."""

import ast
import copy
import importlib
import json
import os
import pickle
import shlex
import subprocess
import sys

import pytest

import shadowbracket
from conftest import SRC, pd_file, probe
from shadowbracket import (BracketVector, PQInvariants, RationalTerm, ShadowDiagram,
                           charpoly_factored, close_diagram, compile_word, generator_tuple,
                           gf_from_tuple, pq_invariants, states_matrix)
from shadowbracket import bracket, cli, diagram, oracle, series, tl3

PUBLIC_NAMES = [
    "BracketVector", "Boundary", "CrossingLimitError", "DEFAULT_MAX_CROSSINGS",
    "ELEMENTS", "LambdaPolynomial", "MalformedDiagramError",
    "NAMES", "ONE", "PQInvariants", "PolyMatrix", "Polynomial", "RationalGF",
    "RationalTerm", "ScaledTL", "ShadowDiagram", "TLElement", "X", "ZERO",
    "charpoly", "charpoly_factored",
    "close_diagram", "closed_form_bracket", "closure", "closure_loops",
    "coefficient_table", "column", "compare_bfiles",
    "compile_word", "compose", "contract", "enumerate_states", "expand",
    "generator_tuple", "gf_from_tuple", "letter_tuple", "mirror", "multiply",
    "power", "pq_invariants", "render_gf", "smooth", "states_matrix", "word_tuple",
]


def python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=SRC.parent, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=60)


class TestLazyPackage:
    def test_public_names_are_unchanged(self):
        assert shadowbracket.__all__ == PUBLIC_NAMES

    def test_each_name_is_its_submodule_object(self):
        for name in PUBLIC_NAMES:
            module = importlib.import_module(
                f"shadowbracket.{shadowbracket._MODULE_OF[name]}")
            value = getattr(shadowbracket, name)
            assert value is getattr(module, name), name
            if callable(value) and hasattr(value, "__module__"):
                assert value.__module__ == module.__name__, name

    def test_importing_the_package_imports_no_submodule(self):
        done = python("-c", "import sys, shadowbracket; "
                            "print([m for m in sys.modules if m.startswith('shadowbracket')])")
        assert done.stdout.strip() == "['shadowbracket']"

    def test_submodules_and_star_import_still_resolve(self):
        done = python("-c", "import shadowbracket; print(shadowbracket.oracle.__name__); "
                            "from shadowbracket import *; print(callable(contract))")
        assert done.stdout.split() == ["shadowbracket.oracle", "True"]
        with pytest.raises(AttributeError, match="no_such_name"):
            shadowbracket.no_such_name  # noqa: B018


# Run by the request probe with an argv filled in: runs it as ``python -m
# shadowbracket.cli`` does, with cli as __main__, so a module that imported
# shadowbracket.cli (and so compiled and ran it again) would show in sys.modules.
_RUN_CLI = ("import runpy, sys\n"
            "sys.argv = ['', *{argv!r}]\n"
            "runpy.run_module('shadowbracket.cli', run_name='__main__', alter_sys=True)\n")


def loaded_modules(*argv: str, returncode: int = 0, script: str = "") -> set[str]:
    """The modules that ``python -S`` loads to run ``SCRIPT``, or ``-m
    shadowbracket.cli ARGV`` exiting ``returncode``, as the request probe reads them."""
    if argv:
        script = _RUN_CLI.format(argv=list(argv))
    found = probe(script=script)
    assert found.codes == ([returncode] if argv else []), (argv, found.codes)
    return found.modules


class TestImportFootprint:
    HEAVY = {"dataclasses", "inspect", "json", "shadowbracket.diagram",
             "shadowbracket.oracle", "shadowbracket.contraction", "shadowbracket.series",
             "shadowbracket.reference"}
    # argparse, and what its first message lookup imports.
    ARGPARSE = {"argparse", "gettext", "locale"}

    @pytest.fixture(scope="class")
    def baseline(self) -> set[str]:
        return loaded_modules()

    @pytest.mark.parametrize("argv", [("bracket", "--generator", "T", "--n", "3"),
                                      ("bracket", "--word", "X1 X2"),
                                      ("bracket", "--generator", "E", "--n", "5",
                                       "--closure")])
    def test_tuple_commands_load_no_diagram_or_series_code(self, baseline, argv):
        loaded = loaded_modules(*argv) - baseline
        assert "shadowbracket.bracket" in loaded
        assert not loaded & self.HEAVY

    @pytest.mark.parametrize("closed", [False, True])
    def test_pd_loads_no_tuple_algebra_or_state_sum(self, baseline, tmp_path, closed):
        shadow = compile_word(("X1", "X2", "U1"))
        path = tmp_path / "d.json"
        path.write_text(json.dumps((close_diagram(shadow) if closed else shadow).to_json()))
        loaded = loaded_modules("bracket", "--pd", str(path)) - baseline
        assert {"shadowbracket.diagram", "shadowbracket.contraction"} <= loaded
        assert not loaded & {"shadowbracket.bracket", "shadowbracket.oracle",
                             "shadowbracket.series"}

    @pytest.mark.parametrize("command", ["gf", "charpoly"])
    def test_a_refused_closed_diagram_loads_no_tuple_algebra(self, baseline, tmp_path,
                                                             command):
        # Both commands need an open tangle: a closed --pd file is refused
        # (exit 2) once contracted, before any bracket or series code loads.
        path = tmp_path / "d.json"
        path.write_text(json.dumps(close_diagram(compile_word(("X1", "X2"))).to_json()))
        loaded = loaded_modules(command, "--pd", str(path), returncode=2) - baseline
        assert "shadowbracket.contraction" in loaded
        assert not loaded & {"shadowbracket.bracket", "shadowbracket.series"}

    @pytest.mark.parametrize("case", ["absent", "not JSON", "a bad edge", "no crossings",
                                      "non-planar", "free_loops true"])
    def test_a_refused_pd_file_loads_only_the_code_that_refuses_it(self, baseline, tmp_path,
                                                                    case):
        # A file that is not JSON is refused before any diagram code loads, and
        # a diagram that is no planar shadow before the contraction loads.
        tangle = compile_word(("X1", "X2", "U1")).to_json()
        bad_edge = dict(tangle, crossings=[list(quad) for quad in tangle["crossings"]])
        bad_edge["crossings"][0][0] = bad_edge["crossings"][0][1]
        text = {"not JSON": '{"crossings": [',
                "a bad edge": json.dumps(bad_edge),
                "no crossings": json.dumps({"boundary": None, "free_loops": 0}),
                "non-planar": json.dumps({"crossings": [["1", "2", "1", "2"]],
                                          "boundary": None, "free_loops": 0}),
                "free_loops true": json.dumps(dict(tangle, free_loops=True))}.get(case)
        path = tmp_path / "d.json"
        if text is not None:
            path.write_text(text)
        loaded = loaded_modules("bracket", "--pd", str(path), returncode=2) - baseline
        assert "shadowbracket.contraction" not in loaded
        assert ("shadowbracket.diagram" in loaded) == (text is not None and case != "not JSON")

    def test_the_probe_sees_modules_that_import_module_loads(self, baseline):
        # -X importtime lists no module loaded by importlib.import_module, as
        # the package's lazy names load theirs; sys.modules holds it.
        loaded = loaded_modules(script="import shadowbracket; shadowbracket.contract")
        assert "shadowbracket.contraction" in loaded - baseline

    def test_first_powers_load_no_tuple_algebra(self, baseline, tmp_path):
        tangle = tmp_path / "t.json"
        tangle.write_text(json.dumps(BracketVector.of(1, 1, 0, 0, 0).to_json()))
        for argv in [("bracket", "--tuple", str(tangle)), ("bracket", "--generator", "T"),
                     ("bracket", "--generator", "T", "--n", "1", "--format", "json")]:
            loaded = loaded_modules(*argv) - baseline
            assert "shadowbracket.tl3" in loaded, argv
            assert "shadowbracket.bracket" not in loaded, argv

    def test_no_command_loads_dataclasses(self, baseline, tmp_path):
        tangle = tmp_path / "t.json"
        tangle.write_text(json.dumps(BracketVector.of(1, 1, 0, 0, 0).to_json()))
        diagram = tmp_path / "d.json"
        diagram.write_text(json.dumps(compile_word(("X1", "X2")).to_json()))
        for argv in [("bracket", "--tuple", str(tangle)), ("bracket", "--pd", str(diagram)),
                     ("table", "--generator", "C", "--rows", "2"),
                     ("gf", "--generator", "E", "--terms", "2", "--format", "json"),
                     ("charpoly", "--word", "X1 U2"),
                     ("export", "--generator", "T", "--rows", "3"),
                     ("verify", "--tables", "--generator", "T")]:
            loaded = loaded_modules(*argv) - baseline
            assert "shadowbracket" in loaded, argv
            assert not loaded & {"dataclasses", "inspect"}, argv
            # A well-formed request is read without argparse.
            assert not loaded & self.ARGPARSE, argv

    @pytest.mark.parametrize("argv, returncode", [(("bracket", "-h"), 0),
                                                  (("bracket", "--generator", "Q"), 2)])
    def test_help_and_usage_errors_load_argparse(self, baseline, argv, returncode):
        loaded = loaded_modules(*argv, returncode=returncode) - baseline
        assert {"argparse", "shadowbracket.usage"} <= loaded

    @pytest.mark.parametrize("argv", [("export", "--generator", "T", "--rows", "3",
                                       "--column", "-1"),
                                      ("table", "--generator", "T", "--rows", "-1")])
    def test_a_negative_count_is_refused_without_argparse(self, baseline, argv):
        loaded = loaded_modules(*argv, returncode=2) - baseline
        assert "shadowbracket" in loaded
        assert not loaded & self.ARGPARSE, argv

    @pytest.mark.parametrize("argv", [("verify", "--tables", "--generator", "T"),
                                      ("verify", "--charpoly", "--generator", "T"),
                                      ("verify", "--recurrence", "--generator", "T")])
    def test_verify_loads_diagram_code_for_the_oracle_only(self, baseline, argv):
        loaded = loaded_modules(*argv) - baseline
        assert "shadowbracket.verify" in loaded
        assert not loaded & {"shadowbracket.diagram", "shadowbracket.contraction",
                             "shadowbracket.oracle"}
        # Only its own suite loads the determinant module or the reference rows.
        assert ("shadowbracket.matrix" in loaded) == ("--charpoly" in argv)
        assert ("shadowbracket.reference" in loaded) == ("--tables" in argv)

    def test_the_oracle_loads_no_tuple_algebra(self, baseline):
        # The ground truth shares no code with the algebra it checks, and
        # building and summing a generator's diagram does not reach for it
        # either.
        loaded = loaded_modules(script="from shadowbracket.generators import WORDS; "
                                       "from shadowbracket.oracle import compile_word, "
                                       "enumerate_states; [enumerate_states(compile_word(w)) "
                                       "for w in WORDS.values()]")
        loaded -= baseline
        assert "shadowbracket.oracle" in loaded
        assert "shadowbracket.bracket" not in loaded

    def test_the_oracle_imports_only_what_it_uses(self, baseline):
        loaded = loaded_modules(script="import shadowbracket.oracle") - baseline
        assert {m for m in loaded if m.startswith("shadowbracket.")} == {
            "shadowbracket.diagram", "shadowbracket.oracle", "shadowbracket.poly",
            "shadowbracket.record", "shadowbracket.tl3"}

    def test_generators_hold_data_only(self, baseline):
        # Every public function of generators, called on every name, loads
        # nothing beyond the data modules under it.
        script = ("import shadowbracket.generators as g\n"
                  "for attr, f in vars(g).items():\n"
                  "    if (callable(f) and not isinstance(f, type) and attr[0] != '_'\n"
                  "            and f.__module__ == g.__name__):\n"
                  "        for name in g.NAMES:\n"
                  "            f(name)\n")
        loaded = loaded_modules(script=script) - baseline
        assert {m for m in loaded if m.startswith("shadowbracket.")} == {
            "shadowbracket.generators", "shadowbracket.record", "shadowbracket.poly",
            "shadowbracket.tl3"}

    # Each request kind: its argv, the package modules it loads besides the
    # package itself and cli (run as __main__), and a ceiling on the bytes of
    # package source it compiles, __init__.py and cli.py included.  The
    # determinant module (matrix) loads only for charpoly (and verify
    # --charpoly, below), Dehn's reading (dehn) only for a file listed
    # against the face trace, and the argparse builder (usage) for none of
    # them (only for -h and usage errors, below).  Each ceiling is the sum of
    # the loaded modules' file sizes as this test reads them, taken when the
    # split was made, rounded up to the next 1,000 bytes.
    DIET = {
        "bracket --pd": (("bracket", "--pd", "LISTED"), {"diagram", "contraction"}, 54_000),
        "bracket --pd, listed against the trace": (
            ("bracket", "--pd", "MIXED"), {"diagram", "contraction", "dehn"}, 58_000),
        "bracket --word": (("bracket", "--word", "X1 X2 U1 H", "--n", "3"), {"bracket"}, 57_000),
        "bracket --generator --closure": (
            ("bracket", "--generator", "E", "--n", "5", "--closure"), {"bracket"}, 57_000),
        "table": (("table", "--generator", "C", "--rows", "3"),
                  {"commands", "bracket", "series"}, 68_000),
        "gf": (("gf", "--generator", "T", "--terms", "3"),
               {"commands", "bracket", "series"}, 68_000),
        "charpoly": (("charpoly", "--word", "X1 U2"), {"commands", "bracket", "matrix"}, 67_000),
        "verify --tables": (("verify", "--tables", "--generator", "T"),
                            {"verify", "bracket", "series", "reference"}, 72_000),
    }
    COMMON = {"poly", "record", "tl3", "generators"}

    @pytest.fixture(scope="class")
    def loaded_by_kind(self, tmp_path_factory) -> dict[str, set[str]]:
        """The modules that each request kind of DIET loads under ``python -S``."""
        tmp = tmp_path_factory.mktemp("diet")
        files = {"LISTED": pd_file(tmp / "listed.json"),
                 "MIXED": pd_file(tmp / "mixed.json", listed_against_the_trace=True)}
        return {kind: loaded_modules(*(files.get(arg, arg) for arg in argv))
                for kind, (argv, _, _) in self.DIET.items()}

    @pytest.mark.parametrize("kind", DIET)
    def test_each_request_compiles_only_what_it_runs(self, loaded_by_kind, kind):
        _, expected, ceiling = self.DIET[kind]
        loaded = {name.partition(".")[2] for name in loaded_by_kind[kind]
                  if name.startswith("shadowbracket.")}
        assert loaded == self.COMMON | expected
        compiled = sum((SRC / "shadowbracket" / f"{name}.py").stat().st_size
                       for name in loaded | {"__init__", "cli"})
        assert compiled <= ceiling

    @pytest.mark.parametrize("kind", DIET)
    def test_well_formed_requests_load_no_typing_or_re(self, loaded_by_kind, kind):
        loaded = loaded_by_kind[kind]
        assert "typing" not in loaded
        if not kind.startswith("bracket --pd"):  # json, which reads the file, loads re
            assert "re" not in loaded


class TestTracedSurface:
    """What the benchmark's tracer finds by module and by name.

    It wraps each public function under the module that defines it, reaches
    ``from_json`` through ``oracle.ShadowDiagram`` and ``bracket.BracketVector``,
    and times ``verify`` through ``cli._cmd_verify``.
    """

    WRAPPED = {
        bracket: ("power", "closed_form_bracket", "charpoly", "compose", "closure",
                  "word_tuple", "states_matrix", "pq_invariants"),
        oracle: ("enumerate_states", "compile_word", "close_diagram", "smooth"),
        series: ("expand", "coefficient_table"),
        tl3: ("multiply",),
    }

    def test_wrapped_functions_stay_in_their_modules(self):
        for module, names in self.WRAPPED.items():
            for name in names:
                assert getattr(module, name).__module__ == module.__name__, name
        assert callable(cli._cmd_verify)

    def test_moved_classes_resolve_under_their_old_modules(self):
        assert oracle.ShadowDiagram is diagram.ShadowDiagram
        assert bracket.BracketVector is tl3.BracketVector
        for cls in (oracle.ShadowDiagram, bracket.BracketVector):
            assert isinstance(cls.__dict__["from_json"], classmethod)


# Each record with its fields and the repr of the frozen dataclass it replaced.
RECORDS = [
    (lambda: BracketVector.of(1, 0, [0, 1], 0, -2), "abcde",
     "BracketVector(a=Polynomial([1]), b=Polynomial([]), c=Polynomial([0, 1]), "
     "d=Polynomial([]), e=Polynomial([-2]))"),
    (lambda: pq_invariants(generator_tuple("T")), ("p", "m"),
     "PQInvariants(p=Polynomial([3, 2]), m=Polynomial([1, 2, 1]))"),
    (lambda: compile_word(("X1",)), ("crossings", "boundary", "free_loops"),
     "ShadowDiagram(crossings=(('e0', 'e1', 'e2', 'e3'),), boundary=Boundary("
     "left=('e0', 'e3', 'e4'), right=('e1', 'e2', 'e4')), free_loops=0)"),
    (lambda: close_diagram(compile_word(("U1",))), ("crossings", "boundary", "free_loops"),
     "ShadowDiagram(crossings=(), boundary=None, free_loops=2)"),
    (lambda: gf_from_tuple(generator_tuple("T")).pair_part, ("numerator", "denominator"),
     "RationalTerm(numerator=(Polynomial([0, 2]), Polynomial([0, -3, -2])), "
     "denominator=(Polynomial([1]), Polynomial([-3, -2]), Polynomial([1, 2, 1])))"),
    (lambda: gf_from_tuple(generator_tuple("T")), ("pair_part", "geometric_part"),
     "RationalGF(pair_part=RationalTerm(numerator=(Polynomial([0, 2]), "
     "Polynomial([0, -3, -2])), denominator=(Polynomial([1]), Polynomial([-3, -2]), "
     "Polynomial([1, 2, 1]))), geometric_part=RationalTerm(numerator=("
     "Polynomial([0, -2, 0, 1]),), denominator=(Polynomial([1]), Polynomial([-1]))))"),
    (lambda: states_matrix(generator_tuple("T")), ("rows",),
     "PolyMatrix([1, 0, 0, 0, 0]; [1, x+1, 0, 0, 1]; [1, 0, x+2, x+1, 0]; "
     "[0, 0, 1, x+1, 0]; [1, x+1, 0, 0, x+2])"),
    (lambda: charpoly_factored(generator_tuple("T")), ("coefficients",),
     "LambdaPolynomial([[1, 4, 6, 4, 1], [-7, -20, -20, -8, -1], [17, 32, 20, 4], "
     "[-17, -20, -6], [7, 4], [-1]])"),
]


class TestRecords:
    @pytest.mark.parametrize("build, names, text", RECORDS)
    def test_repr_eq_and_hash_are_field_wise(self, build, names, text):
        record, twin = build(), build()
        assert repr(record) == text
        assert record == twin and not record != twin
        fields = tuple(getattr(record, name) for name in names)
        assert hash(record) == hash(twin) == hash(fields)
        assert record != fields
        assert type(record)(*fields) == record
        with pytest.raises(TypeError):
            type(record)(*fields, None)

    @pytest.mark.parametrize("build, names, text", RECORDS)
    def test_fields_cannot_change(self, build, names, text):
        record = build()
        with pytest.raises(AttributeError):
            setattr(record, names[0], None)
        with pytest.raises(AttributeError):
            delattr(record, names[0])

    @pytest.mark.parametrize("build, names, text", RECORDS)
    def test_copies_and_pickles_are_equal(self, build, names, text):
        record = build()
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and repr(clone) == text

    def test_only_the_base_sets_fields(self):
        callers = []
        for path in sorted((SRC / "shadowbracket").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                        and isinstance(node.value, ast.Name) and node.value.id == "object"):
                    callers.append(path.name)
        assert set(callers) == {"record.py"}

    def test_classes_match_and_constructors_still_coerce_and_check(self):
        v = BracketVector(1, [0, 1], 0, 0, 0)
        assert v == BracketVector.of(1, [0, 1], 0, 0, 0)
        assert v != PQInvariants(v.a, v.b)
        with pytest.raises(ValueError, match="constant term 1"):
            RationalTerm((v.a,), (v.b,))
        # An int edge is refused, not read as its str().
        with pytest.raises(diagram.MalformedDiagramError,
                           match="crossing 0 has edge 0 of type int, not str"):
            ShadowDiagram([[0, 1, 1, 0]], free_loops=3)


def _readme_block(heading: str, language: str) -> tuple[str, ...]:
    """The lines of the first ``language`` code block under README's ``heading``."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return tuple(section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0].splitlines())


def _stated(line: str) -> str:
    """The value a README comment states: its text after any ``label: ``."""
    return line.partition("#")[2].strip().rpartition(": ")[2]


class TestReadmeExamples:
    """README's examples run, and give the values their comments state."""

    def test_library_example(self):
        lines = _readme_block("Library example", "python")
        namespace: dict = {}
        checked = 0
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, ast.Expr):
                value = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                             namespace)
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
                value = (namespace[node.targets[0].id] if isinstance(node, ast.Assign)
                         else None)
            line = lines[node.end_lineno - 1]
            if "#" in line:
                stated = _stated(line)
                text = str(value)
                assert stated == text or stated.startswith(text + " "), line
                checked += 1
        assert checked == 6

    def test_cli_lines_print_what_their_comments_say(self, capsys):
        # Every command that needs no file runs; a bracket line's comment is its output.
        ran = checked = 0
        for line in "\n".join(_readme_block("CLI", "sh")).replace("\\\n", " ").splitlines():
            argv = shlex.split(line.partition("#")[0])[1:]
            if {"--pd", "--tuple", "--out", "--compare"} & set(argv):
                continue
            assert cli.main(argv) == 0, line
            out = capsys.readouterr().out
            ran += 1
            if line.startswith("shadowbracket bracket ") and "#" in line:
                assert out == _stated(line) + "\n", line
                checked += 1
        assert (ran, checked) == (7, 2)
