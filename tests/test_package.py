"""The package surface: lazy public names, import footprint and record classes."""

import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import shadowbracket
from shadowbracket import (BracketVector, PQInvariants, RationalTerm, ShadowDiagram,
                           charpoly_factored, close_diagram, compile_word, generator_tuple,
                           gf_from_tuple, pq_invariants, states_matrix)
from shadowbracket import bracket, cli, diagram, oracle, series, tl3

SRC = Path(shadowbracket.__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "BracketVector", "Boundary", "CrossingLimitError", "DEFAULT_MAX_CROSSINGS",
    "ELEMENTS", "LambdaPolynomial", "MalformedDiagramError",
    "NAMES", "ONE", "PQInvariants", "PolyMatrix", "Polynomial", "RationalGF",
    "RationalTerm", "ScaledTL", "ShadowDiagram", "TLElement", "X", "ZERO",
    "charpoly", "charpoly_factored",
    "close_diagram", "closed_form_bracket", "closure", "closure_loops",
    "coefficient_table", "column", "compare_bfiles",
    "compile_word", "compose", "contract", "enumerate_states", "expand",
    "generator_diagram", "generator_tuple", "gf_from_tuple", "glue",
    "letter_tuple", "mirror", "mirror_diagram", "multiply", "parse_bfile",
    "parse_word", "power", "pq_invariants", "render_gf", "smooth",
    "states_matrix", "word_tuple",
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


def loaded_modules(*args: str) -> set[str]:
    """The modules that ``python -X importtime ARGS`` imports."""
    done = python("-X", "importtime", *args)
    assert done.returncode == 0, (args, done.stderr[-500:])
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


class TestImportFootprint:
    HEAVY = {"dataclasses", "inspect", "json", "shadowbracket.diagram",
             "shadowbracket.oracle", "shadowbracket.contraction", "shadowbracket.series",
             "shadowbracket.reference"}

    @pytest.fixture(scope="class")
    def baseline(self) -> set[str]:
        return loaded_modules("-c", "pass")

    @pytest.mark.parametrize("argv", [("bracket", "--generator", "T", "--n", "3"),
                                      ("bracket", "--word", "X1 X2"),
                                      ("bracket", "--generator", "E", "--n", "5",
                                       "--closure")])
    def test_tuple_commands_load_no_diagram_or_series_code(self, baseline, argv):
        loaded = loaded_modules("-m", "shadowbracket.cli", *argv) - baseline
        assert "shadowbracket.bracket" in loaded
        assert not loaded & self.HEAVY

    @pytest.mark.parametrize("closed", [False, True])
    def test_pd_loads_no_tuple_algebra_or_state_sum(self, baseline, tmp_path, closed):
        shadow = compile_word(("X1", "X2", "U1"))
        path = tmp_path / "d.json"
        path.write_text(json.dumps((close_diagram(shadow) if closed else shadow).to_json()))
        loaded = loaded_modules("-m", "shadowbracket.cli", "bracket", "--pd",
                                str(path)) - baseline
        assert {"shadowbracket.diagram", "shadowbracket.contraction"} <= loaded
        assert not loaded & {"shadowbracket.bracket", "shadowbracket.oracle",
                             "shadowbracket.series"}

    def test_first_powers_load_no_tuple_algebra(self, baseline, tmp_path):
        tangle = tmp_path / "t.json"
        tangle.write_text(json.dumps(BracketVector.of(1, 1, 0, 0, 0).to_json()))
        for argv in [("bracket", "--tuple", str(tangle)), ("bracket", "--generator", "T"),
                     ("bracket", "--generator", "T", "--n", "1", "--format", "json")]:
            loaded = loaded_modules("-m", "shadowbracket.cli", *argv) - baseline
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
                     ("verify", "--tables", "--generator", "T", "--rows", "1")]:
            loaded = loaded_modules("-m", "shadowbracket.cli", *argv) - baseline
            assert "shadowbracket" in loaded, argv
            assert not loaded & {"dataclasses", "inspect"}, argv

    @pytest.mark.parametrize("argv", [("verify", "--tables", "--generator", "T", "--rows", "1"),
                                      ("verify", "--charpoly", "--generator", "T"),
                                      ("verify", "--recurrence", "--generator", "T")])
    def test_verify_loads_diagram_code_for_the_oracle_only(self, baseline, argv):
        loaded = loaded_modules("-m", "shadowbracket.cli", *argv) - baseline
        assert "shadowbracket.verify" in loaded
        assert not loaded & {"shadowbracket.diagram", "shadowbracket.contraction",
                             "shadowbracket.oracle"}

    def test_the_oracle_loads_no_tuple_algebra(self, baseline):
        # The ground truth shares no code with the algebra it checks, and
        # building a generator's diagram does not reach for it either.
        loaded = loaded_modules("-c", "import shadowbracket, shadowbracket.oracle; "
                                      "[shadowbracket.generator_diagram(n) for n in 'TCE']")
        loaded -= baseline
        assert "shadowbracket.oracle" in loaded
        assert "shadowbracket.bracket" not in loaded

    def test_generators_hold_data_only(self, baseline):
        # Every public function of generators, called on every name, loads
        # nothing beyond the data modules under it.
        script = ("import shadowbracket.generators as g\n"
                  "for attr, f in vars(g).items():\n"
                  "    if (callable(f) and not isinstance(f, type) and attr[0] != '_'\n"
                  "            and f.__module__ == g.__name__):\n"
                  "        for name in g.NAMES:\n"
                  "            f(name)\n")
        loaded = loaded_modules("-c", script) - baseline
        assert {m for m in loaded if m.startswith("shadowbracket.")} == {
            "shadowbracket.generators", "shadowbracket.record", "shadowbracket.poly",
            "shadowbracket.tl3"}


class TestTracedSurface:
    """What the benchmark's tracer finds by module and by name.

    It wraps each public function under the module that defines it, reaches
    ``from_json`` through ``oracle.ShadowDiagram`` and ``bracket.BracketVector``,
    and times ``verify`` through ``cli._cmd_verify``.
    """

    WRAPPED = {
        bracket: ("power", "closed_form_bracket", "charpoly", "compose", "closure",
                  "word_tuple", "states_matrix", "pq_invariants"),
        oracle: ("enumerate_states", "compile_word", "glue", "close_diagram",
                 "mirror_diagram", "smooth"),
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
    (lambda: pq_invariants(generator_tuple("T")), ("p", "q_squared"),
     "PQInvariants(p=Polynomial([3, 2]), q_squared=Polynomial([5, 4]))"),
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

    def test_classes_match_and_constructors_still_coerce_and_check(self):
        v = BracketVector(1, [0, 1], 0, 0, 0)
        assert v == BracketVector.of(1, [0, 1], 0, 0, 0)
        assert v != PQInvariants(v.a, v.b)
        with pytest.raises(ValueError, match="constant term 1"):
            RationalTerm((v.a,), (v.b,))
        diagram = ShadowDiagram([[0, 1, 1, 0]], free_loops=3)
        assert diagram.crossings == (("0", "1", "1", "0"),)
