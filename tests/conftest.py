import ast
import json
import os
import random
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import shadowbracket
from shadowbracket.bracket import BracketVector
from shadowbracket.diagram import Boundary, ShadowDiagram
from shadowbracket.oracle import close_diagram, compile_word
from shadowbracket.poly import Polynomial, parse_int


def P(text: str) -> Polynomial:
    """The polynomial written as ``str`` writes it, such as ``3x^3-x+5``.

    The coefficient list is filled in term by term, with no Polynomial
    arithmetic, so that an expected value does not share a fault with the
    product or sum under test.
    """
    compact = text.replace(" ", "")
    terms = re.findall(r"[+-]?[^+-]+", compact)
    if not compact or "".join(terms) != compact:
        raise ValueError(f"cannot read polynomial {text!r}")
    coefficients: list[int] = []
    for term in terms:
        match = re.fullmatch(r"([+-]?)([0-9]*)(x(?:\^([0-9]+))?)?", term)
        if not match or not (match[2] or match[3]):
            raise ValueError(f"cannot read polynomial term {term!r}")
        sign, digits, var, exponent = match.groups()
        power = int(exponent) if exponent else int(bool(var))
        coefficients += [0] * (power + 1 - len(coefficients))
        value = parse_int(digits) if digits else 1
        coefficients[power] += -value if sign == "-" else value
    return Polynomial(coefficients)


def rand_poly(rng: random.Random, max_degree: int = 6,
              lo: int = -9, hi: int = 9) -> Polynomial:
    degree = rng.randint(0, max_degree)
    return Polynomial([rng.randint(lo, hi) for _ in range(degree + 1)])


def rand_tuple(rng: random.Random, max_degree: int = 1,
               lo: int = -3, hi: int = 3) -> BracketVector:
    return BracketVector(*(rand_poly(rng, max_degree, lo, hi) for _ in range(5)))


def rand_word(rng: random.Random, max_length: int = 8) -> tuple[str, ...]:
    letters = ("X1", "X2", "U1", "U2")
    return tuple(rng.choice(letters) for _ in range(rng.randint(0, max_length)))


# Each letter's top-bottom mirror image.
MIRROR_LETTER = {"X1": "X2", "X2": "X1", "U1": "U2", "U2": "U1", "H": "M", "M": "H"}


def mirrored_word(word: tuple[str, ...]) -> tuple[str, ...]:
    """The word of the tangle flipped top to bottom."""
    return tuple(MIRROR_LETTER[letter] for letter in word)


def reflected(diagram: ShadowDiagram) -> ShadowDiagram:
    """The diagram flipped top to bottom: every cyclic order reversed, each
    boundary side read bottom to top, and the sides keeping their role."""
    boundary = diagram.boundary
    if boundary is not None:
        boundary = Boundary(boundary.left[::-1], boundary.right[::-1])
    return ShadowDiagram(tuple(quad[::-1] for quad in diagram.crossings), boundary,
                         diagram.free_loops)


def relabelled(diagram: ShadowDiagram) -> ShadowDiagram:
    """The diagram with its edges renamed e0, e1, ... in first-seen order,
    crossings first, as compile_word names them."""
    names: dict[str, str] = {}
    for edge in (*(e for quad in diagram.crossings for e in quad), *diagram.boundary_edges()):
        names.setdefault(edge, f"e{len(names)}")
    boundary = diagram.boundary
    if boundary is not None:
        boundary = Boundary(*(tuple(map(names.get, side)) for side in boundary))
    return ShadowDiagram(tuple(tuple(map(names.get, quad)) for quad in diagram.crossings),
                         boundary, diagram.free_loops)


# The reference states matrices of the three built-in generators, row by row.
REFERENCE_MATRICES = {
    "T": [
        ["1", "0", "0", "0", "0"],
        ["1", "x+1", "0", "0", "1"],
        ["1", "0", "x+2", "x+1", "0"],
        ["0", "0", "1", "x+1", "0"],
        ["1", "x+1", "0", "0", "x+2"],
    ],
    "C": [
        ["x+2", "0", "0", "0", "0"],
        ["x+2", "x^2+3x+2", "0", "0", "x+2"],
        ["1", "0", "2x+3", "x+1", "0"],
        ["0", "0", "x+2", "x^2+3x+2", "0"],
        ["1", "x+1", "0", "0", "2x+3"],
    ],
    "E": [
        ["x^2+4x+4", "0", "0", "0", "0"],
        ["x+2", "2x^2+6x+4", "0", "0", "x+2"],
        ["x+2", "0", "2x^2+6x+5", "2x+2", "0"],
        ["0", "0", "x+2", "2x^2+6x+4", "0"],
        ["1", "2x+2", "0", "0", "2x^2+6x+5"],
    ],
}


def reference_matrix(name: str):
    from shadowbracket.matrix import PolyMatrix
    return PolyMatrix([[P(entry) for entry in row] for row in REFERENCE_MATRICES[name]])


def pd_file(path: Path, *, listed_against_the_trace: bool = False) -> str:
    """A PD file of a small tangle; or of a closed one with every other crossing
    listed backwards, which only Dehn's reading finds planar."""
    data = compile_word(("X1", "X2", "U1")).to_json()
    if listed_against_the_trace:
        data = close_diagram(compile_word(("X1", "X2") * 4)).to_json()
        data["crossings"] = [quad[::-1] if i % 2 else quad
                             for i, quad in enumerate(data["crossings"])]
    path.write_text(json.dumps(data))
    return str(path)


SRC = Path(shadowbracket.__file__).resolve().parents[1]

# Run by ``python -S -c`` with a script (or "") and the repr of a list of
# argvs.  cProfile starts before the package is imported, so code that runs
# only at import is seen too.  The script runs, then each argv through
# cli.main, each exit (SystemExit too) recorded.  Stderr's last line gets the
# repr of the modules loaded, the (co_filename, co_firstlineno) of every code
# object entered, and the exit codes.  Nothing is imported to read the argvs
# or write the result, so the modules are the requests' own.
_PROBE = """\
import cProfile, sys
profile = cProfile.Profile()
profile.enable()
script, argvs = sys.argv[1], eval(sys.argv[2])
codes = []
try:
    exec(script, {'__name__': '__main__'})
except SystemExit as exit:
    codes.append(exit.code)
for argv in argvs:
    from shadowbracket.cli import main
    try:
        codes.append(main(argv))
    except SystemExit as exit:
        codes.append(exit.code)
profile.disable()
modules = sorted(sys.modules)
entered = sorted({(entry.code.co_filename, entry.code.co_firstlineno)
                  for entry in profile.getstats() if not isinstance(entry.code, str)})
sys.stderr.write('\\n' + repr((modules, entered, codes)) + '\\n')
"""

Probe = namedtuple("Probe", ("modules", "entered", "codes"))


def probe(*argvs, script: str = "") -> Probe:
    """What a ``python -S`` process loads and enters to run ``script``, then
    each argv of ``argvs`` through ``cli.main``: the names of the modules
    loaded, the package functions entered as (path, first line) pairs, and the
    exit codes, of the script if it raised SystemExit and of each argv."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, script, repr(list(map(list, argvs)))],
        capture_output=True, text=True, cwd=SRC.parent,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert done.returncode == 0, done.stderr[-500:]
    modules, entered, codes = ast.literal_eval(done.stderr.splitlines()[-1])
    package = str(SRC / "shadowbracket")
    return Probe(set(modules), {(path, line) for path, line in entered
                                if path.startswith(package)}, codes)
