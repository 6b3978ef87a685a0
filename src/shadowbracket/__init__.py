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

from importlib import import_module

# The public names, in ``__all__`` order, and the submodule of each.  Importing
# the package imports no submodule; the first use of a name imports its
# module (PEP 562), so a command pays only for the modules it runs.
_MODULE_OF = {
    "BracketVector": "tl3", "Boundary": "diagram", "CrossingLimitError": "oracle",
    "DEFAULT_MAX_CROSSINGS": "oracle", "ELEMENTS": "tl3",
    "LambdaPolynomial": "bracket", "MalformedDiagramError": "diagram",
    "NAMES": "generators", "ONE": "poly", "PQInvariants": "bracket",
    "PolyMatrix": "bracket", "Polynomial": "poly", "RationalGF": "bracket",
    "RationalTerm": "bracket", "ScaledTL": "tl3", "ShadowDiagram": "diagram",
    "TLElement": "tl3", "X": "poly", "ZERO": "poly",
    "charpoly": "bracket", "charpoly_factored": "bracket", "close_diagram": "oracle",
    "closed_form_bracket": "bracket", "closure": "bracket", "closure_loops": "tl3",
    "coefficient_table": "series", "column": "series", "compare_bfiles": "series",
    "compile_word": "oracle", "compose": "bracket", "contract": "contraction",
    "enumerate_states": "oracle", "expand": "series", "generator_diagram": "oracle",
    "generator_tuple": "generators", "gf_from_tuple": "bracket", "glue": "oracle",
    "letter_tuple": "bracket", "mirror": "tl3", "mirror_diagram": "oracle",
    "multiply": "tl3", "parse_bfile": "series", "parse_word": "bracket",
    "power": "bracket", "pq_invariants": "bracket", "render_gf": "series",
    "smooth": "oracle", "states_matrix": "bracket", "word_tuple": "bracket",
}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # A submodule not imported yet, e.g. ``shadowbracket.oracle``.
        try:
            return import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
