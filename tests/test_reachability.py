"""Every function in the package runs for some command, or names what reads it.

One ``python -S`` process runs a fixed corpus of requests through
``cli.main`` under cProfile (``conftest.probe``): every command with each
input source it takes, each format and flag, each ``verify`` suite, ``-h``
of every command and one request per refusal class, all at small sizes.
Every ``def`` in ``src/shadowbracket`` (methods and nested functions
included) must be entered by some request, or be named in ``ALLOWED`` with
the reader that keeps it.  An ``ALLOWED`` entry that a request enters, or
that names no function, fails too.

The probe cannot tell whether a module-level ``__getattr__`` (PEP 562) of a
module that is not a package runs for a reason: every ``from .module import
name`` asks the module for ``__path__``, and so enters it.  Such a function
counts as unreached until ``ALLOWED`` names its reader.

To keep a function no command runs, add ``"module.qualname": "reason"`` to
``ALLOWED``, the reason naming its reader (``bench/check.py``, a test that
holds two routes to one answer, a protocol of Python's); otherwise delete it.
"""

import ast
import json
from pathlib import Path

import pytest

from conftest import SRC, pd_file, probe
from shadowbracket.oracle import close_diagram, compile_word

PACKAGE = SRC / "shadowbracket"

# Each function no request enters, by module and qualname, and what reads it.
ALLOWED = {
    "cli.run": "the process entry of python -m and [project.scripts]; the probe calls main",
    "__init__.__getattr__": "the lazy public names (PEP 562) that bench/check.py imports",
    "__init__.__dir__": "protocol: dir() of the package lists its lazy names",
    "bracket.PQInvariants.q_squared": "the paper's q^2 = p^2 - 4m, which no route forms",
    "bracket.PQInvariants.pair_product": "bench/check.py prints it",
    "poly.Polynomial.evaluate": "bench/check.py counts states with it, at x = 1",
    "matrix.PolyMatrix.power": "bench/check.py and test_bracket hold power() to it",
    "matrix.PolyMatrix.apply": "bench/check.py and test_bracket hold compose() to it",
    "matrix.PolyMatrix.identity": "the unit of PolyMatrix.power",
    "matrix.PolyMatrix.__matmul__": "the product of PolyMatrix.power",
    "matrix.PolyMatrix.__getitem__": "protocol: a matrix's rows by index",
    "oracle.smooth": "one state of the state sum; bench/tracing.py wraps it, test_oracle "
                     "holds enumerate_states to it",
    "diagram.ShadowDiagram.to_json": "the writer that from_json's tests round-trip",
    "tl3.mirror": "the flip automorphism, which test_tl3 holds the products to",
    "tl3.BracketVector.mirrored": "the flip automorphism on tuples, which test_oracle holds "
                                  "mirrored words to",
    "poly.Polynomial.__rsub__": "protocol: int - Polynomial",
    "poly.Polynomial.__hash__": "protocol: hash() of a value",
    "poly.Polynomial.__repr__": "protocol: repr()",
    "matrix.PolyMatrix.__repr__": "protocol: repr()",
    "matrix.LambdaPolynomial.__repr__": "protocol: repr()",
    "record.Record.__hash__": "protocol: hash() of a value",
    "record.Record.__repr__": "protocol: repr()",
    "record.Record.__reduce__": "protocol: copy and pickle",
    "record.Record.__setattr__": "the immutability guard",
    "record.Record.__delattr__": "the immutability guard",
}


def functions() -> dict[str, tuple[str, int]]:
    """Every function in the package by ``module.qualname``, with the
    (co_filename, co_firstlineno) of its code: the line of its first
    decorator, or of its ``def``."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found[name] = (str(path), min(d.lineno for d in
                                              (*child.decorator_list, child)))
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return found


def corpus(tmp: Path) -> list[tuple[tuple[str, ...], int]]:
    """The requests, each with the exit code it must give; input files in ``tmp``."""
    def write(name: str, text: str) -> str:
        (tmp / name).write_text(text, encoding="utf-8")
        return str(tmp / name)

    def diagram(name: str, data: dict) -> str:
        return write(name, json.dumps(data))

    tangle = compile_word(("X1", "X2", "U1"))
    listed = pd_file(tmp / "listed.json")
    closed = diagram("closed.json", close_diagram(tangle).to_json())
    mixed = pd_file(tmp / "mixed.json", listed_against_the_trace=True)
    bad_edge = tangle.to_json()
    bad_edge["crossings"][0][0] = bad_edge["crossings"][0][1]
    pairs = [(0, 0), (1, 1), (2, 5), (3, 16)]  # T column 1: L(2n) - 2
    match = write("match.txt", "# T column 1\n" + "".join(f"{i} {v}\n" for i, v in pairs))
    mismatch = write("mismatch.txt", "".join(f"{i} {v + (i == 2)}\n" for i, v in pairs))
    tuple_file = diagram("tuple.json", {"a": [1, 1], "b": [0, 1], "c": [0], "d": [1],
                                        "e": [0, 0, 1]})
    latin1 = tmp / "latin1.json"
    latin1.write_bytes(b'{"a": "\xe9"}')
    word = "X1 X2 U1 U2 H M"
    requests = [
        # Each input source of each command that takes one.
        *(((command, "--generator", "T"), 0) for command in ("bracket", "gf", "charpoly")),
        *(((command, "--word", word), 0) for command in ("bracket", "gf", "charpoly")),
        *(((command, "--tuple", tuple_file), 0) for command in ("bracket", "gf", "charpoly")),
        *(((command, "--pd", listed), 0) for command in ("bracket", "gf", "charpoly")),
        (("bracket", "--pd", closed), 0),
        (("bracket", "--pd", mixed), 0),
        # Each power, closure and format.
        *((("bracket", "--word", "X1 U2", "--n", str(n)), 0) for n in range(4)),
        *((("bracket", "--generator", "E", "--n", str(n), "--closure"), 0) for n in range(4)),
        (("bracket", "--pd", listed, "--format", "json"), 0),
        (("bracket", "--pd", closed, "--format", "json"), 0),
        (("bracket", "--word", word, "--n", "2", "--format", "json", "--out",
          str(tmp / "out.json")), 0),
        (("gf", "--generator", "C", "--terms", "3"), 0),
        (("gf", "--word", "X2 H", "--terms", "2", "--format", "json"), 0),
        (("charpoly", "--generator", "E", "--format", "json"), 0),
        *((("table", "--generator", "T", "--rows", "3", "--format", f), 0)
          for f in ("text", "csv", "json")),
        (("table", "--generator", "C", "--rows", "2", "--out", str(tmp / "table.txt")), 0),
        (("export", "--generator", "E", "--rows", "3"), 0),
        (("export", "--generator", "T", "--rows", "3", "--column", "1"), 0),
        (("export", "--generator", "T", "--rows", "3", "--column", "1", "--compare", match), 0),
        (("export", "--generator", "T", "--rows", "3", "--column", "1", "--compare",
          mismatch), 1),
        (("export", "--generator", "T", "--rows", "2", "--out", str(tmp / "b.txt")), 0),
        # Each verify suite.
        (("verify", "--tables", "--generator", "C"), 0),
        (("verify", "--oracle", "--generator", "T", "--words", "3", "--max-n", "1"), 0),
        (("verify", "--charpoly", "--generator", "E"), 0),
        (("verify", "--recurrence", "--generator", "T"), 0),
        # Help.
        (("-h",), 0),
        *(((command, "-h"), 0)
          for command in ("bracket", "table", "gf", "charpoly", "verify", "export")),
        # One request per refusal class.
        (("nosuch",), 2),
        (("bracket", "--generator", "Q"), 2),
        (("table", "--generator", "T"), 2),
        (("bracket", "--generator", "T", "--word", "X1"), 2),
        (("bracket", "--generator", "T", "--generator", "T"), 2),
        (("bracket", "--gen", "T"), 2),
        (("bracket", "--n=2", "--generator", "T"), 2),
        (("table", "--generator", "T", "--rows", "-1"), 2),
        (("bracket", "--word", "X1 X3"), 2),
        (("bracket", "--pd", str(tmp / "absent.json")), 2),
        (("bracket", "--pd", write("syntax.json", "{\"crossings\": [")), 2),
        (("bracket", "--pd", write("twice.json", "{\"a\": 1, \"a\": 2}")), 2),
        (("bracket", "--pd", write("deep.json", "[" * 100_000)), 2),
        (("bracket", "--tuple", str(latin1)), 2),
        (("bracket", "--pd", diagram("edge.json", bad_edge)), 2),
        (("bracket", "--pd", diagram("nocrossings.json", {"boundary": None,
                                                          "free_loops": 0})), 2),
        (("bracket", "--pd", diagram("nonplanar.json", {"crossings": [["1", "2", "1", "2"]],
                                                        "boundary": None,
                                                        "free_loops": 0})), 2),
        (("bracket", "--pd", diagram("loops.json", dict(close_diagram(tangle).to_json(),
                                                        free_loops=True))), 2),
        (("bracket", "--pd", closed, "--closure"), 2),
        (("gf", "--pd", closed), 2),
        (("bracket", "--tuple", diagram("missing.json", {"a": [1], "b": [1], "c": [1],
                                                         "d": [0]})), 2),
        (("bracket", "--tuple", diagram("badtype.json", {"a": "abc", "b": [1], "c": [1],
                                                         "d": [0], "e": [1.5]})), 2),
        (("export", "--generator", "T", "--rows", "3", "--column", "1", "--compare",
          write("underscore.txt", "0 0\n1 1_0\n")), 2),
    ]
    return requests


@pytest.fixture(scope="module")
def found() -> dict[str, tuple[str, int]]:
    return functions()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    requests = corpus(tmp_path_factory.mktemp("corpus"))
    done = probe(*(argv for argv, _ in requests))
    assert done.codes == [code for _, code in requests]
    return done


def unseen(name: str) -> bool:
    """Whether being entered shows nothing of ``name``: a module-level
    ``__getattr__`` outside ``__init__``, which each import from its module
    enters."""
    module, _, qualname = name.partition(".")
    return qualname == "__getattr__" and module != "__init__"


def test_every_function_runs_or_names_its_reader(found, run):
    never = {name for name, key in found.items() if key not in run.entered or unseen(name)}
    assert sorted(never - ALLOWED.keys()) == []


def test_each_allowed_function_exists_and_no_request_enters_it(found, run):
    assert sorted(ALLOWED.keys() - found.keys()) == []
    assert sorted(name for name in ALLOWED
                  if found[name] in run.entered and not unseen(name)) == []


def test_the_probe_sees_what_runs_at_import(found, run):
    # Code that runs only as its module is imported: the product table is
    # built at import, _format while cli's option table is, and
    # __init_subclass__ once per record class.
    for name in ("tl3._matching_product", "cli._format", "record.Record.__init_subclass__"):
        assert found[name] in run.entered, name
        assert name not in ALLOWED, name
