import random
import re

from shadowbracket.bracket import BracketVector
from shadowbracket.diagram import Boundary, ShadowDiagram
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
    from shadowbracket.bracket import PolyMatrix
    return PolyMatrix([[P(entry) for entry in row] for row in REFERENCE_MATRICES[name]])
