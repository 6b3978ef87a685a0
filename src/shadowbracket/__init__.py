"""Exact Kauffman bracket polynomials of 3-tangle shadow diagrams.

A shadow diagram forgets over/under information, so its bracket is the plain
state sum ``sum(x**loops)`` over all smoothings.  For 3-tangles that sum is a
5-tuple over the crossingless diagram monoid; this package provides the exact
tuple algebra, the states-matrix and closed-form machinery for powers and
closures, rational generating functions for the resulting coefficient
triangles, a frontier contraction that brackets PD-style diagrams without
listing their states, and a brute-force state-sum oracle used to cross-check
everything.

See Kauffman, "State models and the Jones polynomial", Topology 26 (1987)
for the bracket itself.
"""

from .bracket import (BracketVector, LambdaPolynomial, PolyMatrix, PQInvariants,
                      charpoly, charpoly_factored, closed_form_bracket, closure,
                      compose, power, pq_invariants, states_matrix)
from .contraction import contract
from .generators import (GeneratorSpec, NAMES, generator, generator_diagram,
                         generator_tuple)
from .oracle import (Boundary, CrossingLimitError, DEFAULT_MAX_CROSSINGS,
                     MalformedDiagramError, ShadowDiagram, classify_boundary,
                     close_diagram, compile_word, enumerate_states, glue,
                     letter_tuple, mirror_diagram, parse_word, smooth, word_tuple)
from .poly import ONE, Polynomial, X, ZERO
from .series import (RationalGF, RationalTerm, bfile_lines, coefficient_rows,
                     coefficient_table, column, compare_bfiles, csv_lines, expand,
                     gf_from_tuple, parse_bfile, render_gf, row_sums, triangle_values)
from .tl3 import ELEMENTS, ScaledTL, TLElement, closure_loops, mirror, multiply

__version__ = "0.1.0"

__all__ = [
    "BracketVector", "Boundary", "CrossingLimitError", "DEFAULT_MAX_CROSSINGS",
    "ELEMENTS", "GeneratorSpec", "LambdaPolynomial", "MalformedDiagramError",
    "NAMES", "ONE", "PQInvariants", "PolyMatrix", "Polynomial", "RationalGF",
    "RationalTerm", "ScaledTL", "ShadowDiagram", "TLElement", "X", "ZERO",
    "bfile_lines", "charpoly", "charpoly_factored", "classify_boundary",
    "close_diagram", "closed_form_bracket", "closure", "closure_loops",
    "coefficient_rows", "coefficient_table", "column", "compare_bfiles",
    "compile_word", "compose", "contract", "csv_lines", "enumerate_states", "expand",
    "generator", "generator_diagram", "generator_tuple", "gf_from_tuple", "glue",
    "letter_tuple", "mirror", "mirror_diagram", "multiply", "parse_bfile",
    "parse_word", "power", "pq_invariants", "render_gf", "row_sums", "smooth",
    "states_matrix", "triangle_values", "word_tuple",
]
