"""Command-line front end.

Subcommands::

    bracket    tuple or closure bracket of a tangle power
    table      coefficient triangle of a built-in generator
    gf         rational generating function (and optional expansion)
    charpoly   characteristic polynomial of the states matrix
    verify     self-check suites (tables, oracle, charpoly, recurrence)
    export     triangle or column data as a b-file, with offline compare

Exactly one input source per invocation: --generator, --word, --pd or
--tuple.
Exit codes: 0 success, 1 verification or comparison failure, 2 usage or
parse error, 141 a closed stdout (the status of a writer killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence, TextIO

# Only what every command needs is imported here; each handler imports the
# rest, so a command loads no module it does not run.
from .generators import NAMES, generator_tuple
from .poly import Polynomial, int_text, parse_int
from .tl3 import WORD_LETTERS, BracketVector


# The count flags, in the order they are checked; each must be nonnegative.
_COUNT_FLAGS = ("--n", "--terms", "--words", "--max-n", "--rows", "--column")

# The verify suites, each selected by its own flag; none selected runs them all.
_SUITES = ("tables", "oracle", "charpoly", "recurrence")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in _COUNT_FLAGS:
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None and value < 0:
                raise ValueError(f"{flag} must be nonnegative, got {value}")
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone: stop, and keep the interpreter's last flush silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
    for suite in _SUITES:
        verify_cmd.add_argument(f"--{suite}", action="store_true")
    verify_cmd.add_argument("--generator", choices=NAMES, default=None,
                            help="restrict to one generator (default: all)")
    verify_cmd.add_argument("--max-n", type=int, default=3,
                            help="largest tangle power for the oracle suite")
    verify_cmd.add_argument("--words", type=int, default=200,
                            help="random words for the oracle suite")
    verify_cmd.add_argument("--seed", type=int, default=7)
    verify_cmd.set_defaults(handler=_cmd_verify, out=None)

    export_cmd = commands.add_parser(
        "export", help="triangle or column data as a b-file")
    export_cmd.add_argument("--generator", required=True, choices=NAMES)
    export_cmd.add_argument("--rows", type=int, required=True)
    export_cmd.add_argument("--column", type=int, default=None,
                            help="export one column k (default: whole triangle)")
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
    cmd.add_argument("--format", choices=formats, default=formats[0])
    cmd.add_argument("--out", default=None, help="write to a file instead of stdout")


def _resolve_input(args) -> BracketVector | Polynomial:
    """The bracket of the input tangle: a tuple, or a polynomial if closed."""
    if args.generator:
        return generator_tuple(args.generator)
    if args.word is not None:
        from .bracket import parse_word, word_tuple
        return word_tuple(parse_word(args.word))
    if args.tuple_file is not None:
        return BracketVector.from_json(_load_json(args.tuple_file))
    from .contraction import contract
    from .diagram import ShadowDiagram
    return contract(ShadowDiagram.from_json(_load_json(args.pd)))


@contextmanager
def _text_file(path: str) -> Iterator[TextIO]:
    """A UTF-8 text file open for reading; a decoding error names the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_json(path: str) -> dict:
    import json

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        # A repeated key would otherwise keep its last value silently.
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    with _text_file(path) as handle:
        text = handle.read()
    try:
        return json.loads(text, parse_int=parse_int, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _require_tangle(value: BracketVector | Polynomial) -> BracketVector:
    if isinstance(value, Polynomial):
        raise ValueError("input diagram is closed; an open 3-tangle is required")
    return value


def _emit(args, lines: Iterable[str], end: str = "\n") -> None:
    """Write each line and ``end`` to ``--out`` or stdout as the line arrives."""
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        for line in lines:
            out.write(line)
            out.write(end)


def _emit_json(args, payload: dict) -> None:
    """Write ``json.dumps(payload, sort_keys=True)`` and a newline, piece by piece."""
    _emit(args, chain(_json_pieces(payload), ["\n"]), end="")


def _json_pieces(value) -> Iterator[str]:
    """``json.dumps(value, sort_keys=True)`` in pieces, every int exact.

    ``value`` is built of dicts, strings, ints and iterables.  A flat list or
    tuple of ints is one piece; any other iterable is read as it is written.
    """
    if isinstance(value, int):
        yield int_text(value)
    elif isinstance(value, (list, tuple)) and all(isinstance(x, int) for x in value):
        yield "[" + ", ".join(map(int_text, value)) + "]"
    elif isinstance(value, str):
        import json
        yield json.dumps(value)
    elif isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            if i:
                yield ", "
            yield from _json_pieces(key)
            yield ": "
            yield from _json_pieces(value[key])
        yield "}"
    else:
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from _json_pieces(item)
        yield "]"


def _cmd_bracket(args) -> int:
    result = _resolve_input(args)
    if isinstance(result, Polynomial):
        if args.n != 1 or args.closure:
            raise ValueError("--n and --closure do not apply to a closed diagram")
    elif args.closure:
        from .bracket import closed_form_bracket
        result = closed_form_bracket(result, args.n)
    elif args.n != 1:  # the first power is the input tangle itself
        from .bracket import power
        result = power(result, args.n)
    if args.format == "json":
        if isinstance(result, Polynomial):
            payload = {"n": args.n, "bracket": list(result.coefficients)}
        else:
            payload = {"n": args.n, "tuple": result.to_json()}
        _emit_json(args, payload)
    else:
        _emit(args, [str(result)])
    return 0


def _cmd_table(args) -> int:
    from .series import row_lines, table_rows
    rows = table_rows(args.generator, args.rows)
    if args.format == "json":
        _emit_json(args, {"generator": args.generator, "rows": rows})
    else:
        _emit(args, row_lines(rows, "," if args.format == "csv" else " "))
    return 0


def _cmd_gf(args) -> int:
    v = _require_tangle(_resolve_input(args))  # a refused input loads no series code
    from .bracket import gf_from_tuple
    from .series import render_gf
    gf = gf_from_tuple(v)
    terms = islice(gf.terms(), 0 if args.terms is None else args.terms + 1)
    if args.format == "text":
        _emit(args, chain([render_gf(gf)],
                          (f"y^{n}: {p}" for n, p in enumerate(terms))))
    else:
        payload = gf.to_json()
        if args.terms is not None:
            payload["terms"] = (p.coefficients for p in terms)
        _emit_json(args, payload)
    return 0


def _cmd_charpoly(args) -> int:
    v = _require_tangle(_resolve_input(args))
    from .bracket import charpoly_factored, pq_invariants
    # Equal to the cofactor determinant of states_matrix(v), which verify
    # --charpoly and the tests compare it against.
    chi = charpoly_factored(v)
    if args.format == "json":
        _emit_json(args, {"coefficients": [list(c.coefficients) for c in chi.coefficients]})
    else:
        pq = pq_invariants(v)
        factored = (f"-(L - ({v.a})) * (L^2 - ({pq.p})L + ({pq.m}))^2")
        _emit(args, [f"factored: {factored}", f"expanded: {chi}"])
    return 0


def _cmd_export(args) -> int:
    from .series import coefficient_column, compare_bfiles, row_lines, table_rows
    if (args.compare and args.out and os.path.exists(args.out)
            and os.path.samefile(args.out, args.compare)):
        # Writing --out would replace the reference before it is compared.
        raise ValueError(f"--out {args.out} is the --compare reference; "
                         "write to another file")
    if args.column is None:
        values = chain.from_iterable(table_rows(args.generator, args.rows))
    else:
        values = coefficient_column(args.generator, args.rows, args.column)
    entries = enumerate(values)
    if args.compare:
        # Compare before emitting: a missing, undecodable or malformed
        # reference leaves no output behind.
        entries = list(entries)
        with _text_file(args.compare) as reference:
            problem = compare_bfiles(entries, reference)
    _emit(args, row_lines(entries))
    if args.compare:
        if problem:
            print(f"MISMATCH against {args.compare}: {problem}")
            return 1
        print(f"MATCH against {args.compare}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suites
    suites = [suite for suite in _SUITES if getattr(args, suite)] or _SUITES
    names = (args.generator,) if args.generator else NAMES
    failures = []

    def report():
        total = 0
        for total, (label, ok, detail) in enumerate(run_suites(suites, names, args), 1):
            if not ok:
                failures.append(label)
            yield f"PASS  {label}" if ok else f"FAIL  {label}: {detail}"
        yield (f"{len(failures)} of {total} checks failed" if failures
               else f"all {total} checks passed")
    _emit(args, report())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
