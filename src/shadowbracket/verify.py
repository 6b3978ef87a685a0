"""The self-check suites behind ``shadowbracket verify``.

Each suite yields ``(label, ok, detail)`` rows:

- tables: the coefficient triangles against the frozen reference rows;
- oracle: random words and generator powers, where the frontier
  contraction, the brute-force state sum and the tuple algebra must agree;
- charpoly: the determinant route against the factored characteristic
  polynomial;
- recurrence: closure of the power, the closed-form recurrence and the
  series expansion, plus the truncated column route.

Every run ends with the T column identity: column k = 1 of the T triangle
against the alternate Lucas numbers minus 2, computed from L_0 = 2 and L_1 = 1.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Collection, Iterator

from .bracket import (charpoly, charpoly_factored, closed_form_bracket, closure,
                      gf_from_tuple, power, states_matrix, word_tuple)
from .generators import WORDS, generator_tuple
from .poly import Polynomial
from .reference import TABLE_ROWS
from .series import (coefficient_column, coefficient_table, column, compare_bfiles, expand,
                     row_lines)
from .tl3 import BracketVector

# The oracle suite imports the diagram code (contraction, oracle) as it runs,
# so the other suites do not load it.
if TYPE_CHECKING:
    from .diagram import ShadowDiagram


def run_suites(suites: Collection[str], names: Collection[str], args) -> Iterator[tuple]:
    """The (label, ok, detail) rows of the selected suites."""
    if "tables" in suites:
        for name in names:
            yield from _verify_tables(name)
    if "oracle" in suites:
        yield from _verify_words(args.words, args.seed)
        for name in names:
            yield from _verify_generator_oracle(name, args.max_n)
    if "charpoly" in suites:
        for name in names:
            yield from _verify_charpoly(name)
        yield from _verify_charpoly_random(20, args.seed)
    if "recurrence" in suites:
        for name in names:
            yield from _verify_recurrence(name)
            yield from _verify_column_route(name)
    yield from _verify_column_identity()


def _verify_tables(name: str) -> Iterator[tuple]:
    reference = TABLE_ROWS[name]
    computed = coefficient_table(name, len(reference) - 1)
    for n in range(len(reference)):
        ok = computed[n] == reference[n]
        detail = "" if ok else f"computed {computed[n]}, reference {reference[n]}"
        yield (f"tables {name} row {n}", ok, detail)


def _verify_words(count: int, seed: int) -> Iterator[tuple]:
    from .oracle import compile_word
    rng = random.Random(seed)
    bad = ""
    # Not the hitch letters H and M, two crossings each: eight letters of all
    # six reach 16 crossings and double the suite's time.  The tests mix them.
    for _ in range(count):
        letters = tuple(rng.choice(("X1", "X2", "U1", "U2"))
                        for _ in range(rng.randint(0, 8)))
        bad = _disagreement(compile_word(letters), word_tuple(letters))
        if bad:
            bad = f"word {' '.join(letters) or '(empty)'}: {bad}"
            break
    yield (f"oracle {count} random words", not bad, bad)


def _verify_generator_oracle(name: str, max_n: int) -> Iterator[tuple]:
    from .oracle import DEFAULT_MAX_CROSSINGS, close_diagram, compile_word
    # Each power's word is compiled here, so a wrong word shows as FAIL rows.
    crossings = compile_word(WORDS[name]).crossing_count
    for n in range(1, max_n + 1):
        if crossings * n > DEFAULT_MAX_CROSSINGS:
            yield (f"oracle {name}^{n}..{name}^{max_n} skipped: crossing limit",
                   True, "")
            return
        diagram = compile_word(WORDS[name] * n)
        expected = power(generator_tuple(name), n)
        detail = _disagreement(diagram, expected)
        if not detail and n <= 2:
            detail = _disagreement(close_diagram(diagram), closure(expected))
            detail = detail and f"closure {detail}"
        yield (f"oracle {name}^{n}", not detail, detail)


def _disagreement(diagram: ShadowDiagram, expected: BracketVector | Polynomial) -> str:
    """Empty if the contraction, the state sum and ``expected`` all agree."""
    from .contraction import contract
    from .oracle import enumerate_states
    contracted = contract(diagram)
    summed = enumerate_states(diagram)
    if contracted == summed == expected:
        return ""
    return f"contraction {contracted}, state sum {summed}, expected {expected}"


def _verify_charpoly(name: str) -> Iterator[tuple]:
    v = generator_tuple(name)
    ok = charpoly(states_matrix(v)) == charpoly_factored(v)
    yield (f"charpoly factorisation {name}", ok,
           "" if ok else "determinant route disagrees with factored form")


def _verify_charpoly_random(count: int, seed: int) -> Iterator[tuple]:
    rng = random.Random(seed)
    bad = None
    for _ in range(count):
        v = _random_tuple(rng)
        if charpoly(states_matrix(v)) != charpoly_factored(v):
            bad = f"tuple {v}"
            break
    yield (f"charpoly factorisation on {count} random tuples", bad is None, bad or "")


def _verify_recurrence(name: str) -> Iterator[tuple]:
    v = generator_tuple(name)
    series = expand(gf_from_tuple(v), 10)
    bad = None
    for n in range(11):
        direct = closure(power(v, n))
        recurrent = closed_form_bracket(v, n)
        if not (direct == recurrent == series[n]):
            bad = (f"n = {n}: closure {direct}, recurrence {recurrent}, "
                   f"series {series[n]}")
            break
    yield (f"recurrence/series agreement {name} (n <= 10)", bad is None, bad or "")


def _verify_column_route(name: str) -> Iterator[tuple]:
    table = coefficient_table(name, 10)
    bad = next((k for k in range(4)
                if list(coefficient_column(name, 10, k)) != column(table, k)), None)
    yield (f"truncated column route {name} (k <= 3, n <= 10)", bad is None,
           "" if bad is None else f"column {bad} differs from the coefficient table")


def _verify_column_identity() -> Iterator[tuple]:
    # Column k = 1 of T is L_2n - 2 (OEIS A004146), L_n the Lucas numbers.
    lucas = [2, 1]
    while len(lucas) < 21:
        lucas.append(lucas[-1] + lucas[-2])
    ours = list(enumerate(column(coefficient_table("T", 10), 1)))
    reference = "\n".join(row_lines(enumerate(value - 2 for value in lucas[::2])))
    problem = compare_bfiles(ours, reference)
    yield ("T column k=1 equals alternate Lucas numbers minus 2",
           problem is None, problem or "")


def _random_tuple(rng: random.Random) -> BracketVector:
    def entry() -> Polynomial:
        return Polynomial([rng.randint(-3, 3), rng.randint(-3, 3)])
    return BracketVector(*(entry() for _ in range(5)))

