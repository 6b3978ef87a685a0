"""Command-line front end.

Subcommands::

    bracket    tuple or closure bracket of a tangle power
    table      coefficient triangle of a built-in generator
    gf         rational generating function (and optional expansion)
    charpoly   characteristic polynomial of the states matrix
    verify     self-check suites (tables, oracle, charpoly, recurrence)
    export     triangle or column data as b-file/CSV, with offline compare

Exactly one input source per invocation: --generator, --word, --pd or
--tuple.
Exit codes: 0 success, 1 verification or comparison failure, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Iterable, Iterator, Sequence

from .bracket import (BracketVector, charpoly, charpoly_factored, closed_form_bracket,
                      closure, pq_invariants, power, states_matrix)
from .contraction import contract
from .generators import NAMES, generator, generator_tuple
from .oracle import (DEFAULT_MAX_CROSSINGS, ShadowDiagram, close_diagram, compile_word,
                     enumerate_states, glue, parse_word, word_tuple, WORD_LETTERS)
from .poly import Polynomial
from .reference import ALTERNATE_LUCAS_MINUS_2, TABLE_ROWS
from .series import (bfile_lines, coefficient_column, coefficient_table, column,
                     compare_bfiles, csv_lines, expand, gf_from_tuple, render_gf,
                     triangle_values)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error on one stderr line."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shadowbracket",
        description="Exact bracket polynomials of 3-tangle shadow diagrams.")
    commands = parser.add_subparsers(required=True, metavar="command")

    bracket_cmd = commands.add_parser(
        "bracket", help="tuple or closure bracket of a tangle power")
    _add_input_flags(bracket_cmd)
    bracket_cmd.add_argument("--n", type=int, default=1,
                             help="tangle power (default 1)")
    bracket_cmd.add_argument("--closure", action="store_true",
                             help="print the closure bracket instead of the tuple")
    _add_output_flags(bracket_cmd, ("text", "json"))
    bracket_cmd.set_defaults(handler=_cmd_bracket)

    table_cmd = commands.add_parser(
        "table", help="coefficient triangle of a built-in generator")
    table_cmd.add_argument("--generator", required=True, choices=NAMES)
    table_cmd.add_argument("--rows", type=int, required=True,
                           help="last row index n to produce")
    _add_output_flags(table_cmd, ("text", "csv", "json"))
    table_cmd.set_defaults(handler=_cmd_table)

    gf_cmd = commands.add_parser(
        "gf", help="rational generating function of the closure brackets")
    _add_input_flags(gf_cmd)
    gf_cmd.add_argument("--terms", type=int, default=None,
                        help="also print series coefficients 0..TERMS")
    _add_output_flags(gf_cmd, ("text", "json"))
    gf_cmd.set_defaults(handler=_cmd_gf)

    charpoly_cmd = commands.add_parser(
        "charpoly", help="characteristic polynomial of the states matrix")
    _add_input_flags(charpoly_cmd)
    _add_output_flags(charpoly_cmd, ("text", "json"))
    charpoly_cmd.set_defaults(handler=_cmd_charpoly)

    verify_cmd = commands.add_parser(
        "verify", help="run the self-check suites")
    verify_cmd.add_argument("--tables", action="store_true")
    verify_cmd.add_argument("--oracle", action="store_true")
    verify_cmd.add_argument("--charpoly", action="store_true")
    verify_cmd.add_argument("--recurrence", action="store_true")
    verify_cmd.add_argument("--generator", choices=NAMES, default=None,
                            help="restrict to one generator (default: all)")
    verify_cmd.add_argument("--rows", type=int, default=None,
                            help="table rows to check (default: all reference rows)")
    verify_cmd.add_argument("--max-n", type=int, default=3,
                            help="largest tangle power for the oracle suite")
    verify_cmd.add_argument("--words", type=int, default=200,
                            help="random words for the oracle suite")
    verify_cmd.add_argument("--seed", type=int, default=7)
    verify_cmd.set_defaults(handler=_cmd_verify)

    export_cmd = commands.add_parser(
        "export", help="triangle or column data as b-file or CSV")
    export_cmd.add_argument("--generator", required=True, choices=NAMES)
    export_cmd.add_argument("--rows", type=int, required=True)
    export_cmd.add_argument("--column", type=int, default=None,
                            help="export one column k (default: whole triangle)")
    export_cmd.add_argument("--offset", type=int, default=0,
                            help="first index for b-file lines")
    export_cmd.add_argument("--format", choices=("bfile", "csv"), default="bfile")
    export_cmd.add_argument("--out", default=None, help="write to a file instead of stdout")
    export_cmd.add_argument("--compare", default=None, metavar="FILE",
                            help="compare b-file output against a reference file")
    export_cmd.set_defaults(handler=_cmd_export)

    return parser


def _add_input_flags(cmd: argparse.ArgumentParser) -> None:
    source = cmd.add_mutually_exclusive_group(required=True)
    source.add_argument("--generator", choices=NAMES,
                        help="a built-in generator")
    source.add_argument("--word", metavar="LETTERS",
                        help=f"tangle word over {' '.join(WORD_LETTERS)}")
    source.add_argument("--pd", metavar="FILE",
                        help="shadow diagram JSON file")
    source.add_argument("--tuple", metavar="FILE", dest="tuple_file",
                        help="bracket tuple JSON file")


def _add_output_flags(cmd: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    cmd.add_argument("--format", choices=formats, default="text")
    cmd.add_argument("--out", default=None, help="write to a file instead of stdout")


def _resolve_input(args) -> BracketVector | Polynomial:
    """The bracket of the input tangle: a tuple, or a polynomial if closed."""
    if args.generator:
        return generator_tuple(args.generator)
    if args.word is not None:
        return word_tuple(parse_word(args.word))
    if args.tuple_file is not None:
        return BracketVector.from_json(_load_json(args.tuple_file))
    return contract(ShadowDiagram.from_json(_load_json(args.pd)))


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _require_tangle(value: BracketVector | Polynomial) -> BracketVector:
    if isinstance(value, Polynomial):
        raise ValueError("input diagram is closed; an open 3-tangle is required")
    return value


def _require_nonnegative(flag: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{flag} must be nonnegative, got {value}")


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_bracket(args) -> int:
    _require_nonnegative("--n", args.n)
    value = _resolve_input(args)
    if isinstance(value, Polynomial):
        if args.n != 1 or args.closure:
            raise ValueError("--n and --closure do not apply to a closed diagram")
        result: Polynomial | BracketVector = value
    else:
        result = closed_form_bracket(value, args.n) if args.closure \
            else power(value, args.n)
    if args.format == "json":
        if isinstance(result, Polynomial):
            payload = {"n": args.n, "bracket": list(result.coefficients)}
        else:
            payload = {"n": args.n, "tuple": result.to_json()}
        _emit(args, json.dumps(payload, sort_keys=True))
    else:
        _emit(args, str(result))
    return 0


def _cmd_table(args) -> int:
    _require_nonnegative("--rows", args.rows)
    table = coefficient_table(args.generator, args.rows)
    if args.format == "json":
        _emit(args, json.dumps({"generator": args.generator, "rows": table},
                               sort_keys=True))
    elif args.format == "csv":
        _emit(args, "\n".join(csv_lines(table)))
    else:
        _emit(args, "\n".join(" ".join(str(v) for v in row) for row in table))
    return 0


def _cmd_gf(args) -> int:
    if args.terms is not None:
        _require_nonnegative("--terms", args.terms)
    v = _require_tangle(_resolve_input(args))
    gf = gf_from_tuple(v)
    if args.format == "json":
        payload = gf.to_json()
        if args.terms is not None:
            payload["terms"] = [list(p.coefficients) for p in expand(gf, args.terms)]
        _emit(args, json.dumps(payload, sort_keys=True))
    else:
        lines = [render_gf(gf)]
        if args.terms is not None:
            lines += [f"y^{n}: {p}" for n, p in enumerate(expand(gf, args.terms))]
        _emit(args, "\n".join(lines))
    return 0


def _cmd_charpoly(args) -> int:
    v = _require_tangle(_resolve_input(args))
    chi = charpoly(states_matrix(v))
    if args.format == "json":
        payload = {"coefficients": [list(c.coefficients) for c in chi.coefficients]}
        _emit(args, json.dumps(payload, sort_keys=True))
    else:
        pq = pq_invariants(v)
        factored = (f"-(L - ({v.a})) * (L^2 - ({pq.p})L + ({pq.pair_product()}))^2")
        _emit(args, f"factored: {factored}\nexpanded: {chi}")
    return 0


def _cmd_export(args) -> int:
    _require_nonnegative("--rows", args.rows)
    if args.column is not None:
        _require_nonnegative("--column", args.column)
    if args.format == "csv":
        if args.compare:
            raise ValueError("--compare works with the bfile format only")
        if args.column is not None:
            raise ValueError("--column works with the bfile format only")
        text = "\n".join(csv_lines(coefficient_table(args.generator, args.rows)))
    else:
        if args.column is None:
            values = triangle_values(coefficient_table(args.generator, args.rows))
        else:
            values = coefficient_column(args.generator, args.rows, args.column)
        text = "\n".join(bfile_lines(values, args.offset))
    _emit(args, text)
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            reference = handle.read()
        problem = compare_bfiles(text, reference)
        if problem:
            print(f"MISMATCH against {args.compare}: {problem}")
            return 1
        print(f"MATCH against {args.compare}")
    return 0


# --- verification suites ----------------------------------------------------

def _cmd_verify(args) -> int:
    for flag, value in (("--words", args.words), ("--max-n", args.max_n),
                        ("--rows", args.rows)):
        if value is not None:
            _require_nonnegative(flag, value)
    suites = {
        "tables": args.tables,
        "oracle": args.oracle,
        "charpoly": args.charpoly,
        "recurrence": args.recurrence,
    }
    if not any(suites.values()):
        suites = dict.fromkeys(suites, True)
    names = (args.generator,) if args.generator else NAMES
    failures = 0
    total = 0
    for label, ok, detail in _run_suites(suites, names, args):
        total += 1
        if ok:
            print(f"PASS  {label}")
        else:
            failures += 1
            print(f"FAIL  {label}: {detail}")
    if failures:
        print(f"{failures} of {total} checks failed")
        return 1
    print(f"all {total} checks passed")
    return 0


def _run_suites(suites: dict, names: Iterable[str], args) -> Iterator[tuple]:
    """The (label, ok, detail) rows of the selected suites."""
    if suites["tables"]:
        for name in names:
            yield from _verify_tables(name, args.rows)
    if suites["oracle"]:
        yield from _verify_words(args.words, args.seed)
        for name in names:
            yield from _verify_generator_oracle(name, args.max_n)
    if suites["charpoly"]:
        for name in names:
            yield from _verify_charpoly(name)
        yield from _verify_charpoly_random(20, args.seed)
    if suites["recurrence"]:
        for name in names:
            yield from _verify_recurrence(name)
            yield from _verify_column_route(name)
    yield from _verify_column_identity()


def _verify_tables(name: str, rows: int | None) -> Iterator[tuple]:
    reference = TABLE_ROWS[name]
    last = len(reference) - 1 if rows is None else rows
    if last >= len(reference):
        raise ValueError(
            f"no reference rows beyond n = {len(reference) - 1} for generator {name}")
    computed = coefficient_table(name, last)
    for n in range(last + 1):
        ok = computed[n] == reference[n]
        detail = "" if ok else f"computed {computed[n]}, reference {reference[n]}"
        yield (f"tables {name} row {n}", ok, detail)


def _verify_words(count: int, seed: int) -> Iterator[tuple]:
    rng = random.Random(seed)
    bad = ""
    for _ in range(count):
        letters = tuple(rng.choice(WORD_LETTERS)
                        for _ in range(rng.randint(0, 8)))
        bad = _disagreement(compile_word(letters), word_tuple(letters))
        if bad:
            bad = f"word {' '.join(letters) or '(empty)'}: {bad}"
            break
    yield (f"oracle {count} random words", not bad, bad)


def _verify_generator_oracle(name: str, max_n: int) -> Iterator[tuple]:
    spec = generator(name)
    diagram = spec.diagram
    for n in range(1, max_n + 1):
        if spec.crossings * n > DEFAULT_MAX_CROSSINGS:
            yield (f"oracle {name}^{n}..{name}^{max_n} skipped: crossing limit",
                   True, "")
            return
        if n > 1:
            diagram = glue(diagram, spec.diagram)
        expected = power(spec.bracket, n)
        detail = _disagreement(diagram, expected)
        if not detail and n <= 2:
            detail = _disagreement(close_diagram(diagram), closure(expected))
            detail = detail and f"closure {detail}"
        yield (f"oracle {name}^{n}", not detail, detail)


def _disagreement(diagram: ShadowDiagram, expected: BracketVector | Polynomial) -> str:
    """Empty if the contraction, the state sum and ``expected`` all agree."""
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
                if coefficient_column(name, 10, k) != column(table, k)), None)
    yield (f"truncated column route {name} (k <= 3, n <= 10)", bad is None,
           "" if bad is None else f"column {bad} differs from the coefficient table")


def _verify_column_identity() -> Iterator[tuple]:
    table = coefficient_table("T", 10)
    ours = "\n".join(bfile_lines(column(table, 1)))
    reference = "\n".join(bfile_lines(ALTERNATE_LUCAS_MINUS_2))
    problem = compare_bfiles(ours, reference)
    yield ("T column k=1 equals alternate Lucas numbers minus 2",
           problem is None, problem or "")


def _random_tuple(rng: random.Random) -> BracketVector:
    def entry() -> Polynomial:
        return Polynomial([rng.randint(-3, 3), rng.randint(-3, 3)])
    return BracketVector(*(entry() for _ in range(5)))


if __name__ == "__main__":
    sys.exit(main())
