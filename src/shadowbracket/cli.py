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
Exit codes: 0 success, 1 verification or comparison failure, 2 usage or parse
error, 141 a closed stdout (the status of a writer killed by SIGPIPE).  The
process entry ``run`` freezes the heap after ``main``, which tests call in process.

Every option is stated once, in ``_COMMANDS``.  Only ``_parse_exact`` runs a
command, reading each flag given once and in full, without ``argparse``.
The argparse parser built from the same table prints ``-h`` and words the
usage errors it finds; an abbreviated, ``=``-joined or repeated flag that it
would accept is refused on one line too.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager, nullcontext
from itertools import chain, islice
from types import SimpleNamespace
from typing import Iterable, Iterator, NoReturn, Sequence, TextIO

# Only what every command needs is imported here; each handler imports the
# rest, so a command loads no module it does not run.
from .generators import NAMES, generator_tuple
from .poly import Polynomial, int_text, parse_int
from .tl3 import WORD_LETTERS, BracketVector


# The count flags, in the order they are checked; each must be nonnegative.
_COUNT_FLAGS = ("--n", "--terms", "--words", "--max-n", "--rows", "--column")

# The verify suites, each selected by its own flag; none selected runs them all.
_SUITES = ("tables", "oracle", "charpoly", "recurrence")

# Each option is a flag and its ``add_argument`` keywords, of which the exact
# parser reads ``type`` (int or, left out, str), ``choices``, ``action``
# (always "store_true", with ``default=False``), ``default`` and ``required``.
_INPUT = (  # the required one-of input group
    ("--generator", dict(choices=NAMES, help="a built-in generator")),
    ("--word", dict(metavar="LETTERS", help=f"tangle word over {' '.join(WORD_LETTERS)}")),
    ("--pd", dict(metavar="FILE", help="shadow diagram JSON file")),
    ("--tuple", dict(metavar="FILE", help="bracket tuple JSON file")),
)
_OUT = ("--out", dict(default=None, help="write to a file instead of stdout"))


def _format(*formats: str) -> tuple[str, dict]:
    return ("--format", dict(choices=formats, default=formats[0]))


# Each command, in the order of the top-level --help: its help, its input
# group (or none), and its other options in the order of its own --help.
_COMMANDS = {
    "bracket": ("tuple or closure bracket of a tangle power", _INPUT, (
        ("--n", dict(type=int, default=1, help="tangle power (default 1)")),
        ("--closure", dict(action="store_true", default=False,
                           help="print the closure bracket instead of the tuple")),
        _format("text", "json"), _OUT)),
    "table": ("coefficient triangle of a built-in generator", (), (
        ("--generator", dict(required=True, choices=NAMES)),
        ("--rows", dict(type=int, required=True, help="last row index n to produce")),
        _format("text", "csv", "json"), _OUT)),
    "gf": ("rational generating function of the closure brackets", _INPUT, (
        ("--terms", dict(type=int, default=None,
                         help="also print series coefficients 0..TERMS")),
        _format("text", "json"), _OUT)),
    "charpoly": ("characteristic polynomial of the states matrix", _INPUT, (
        _format("text", "json"), _OUT)),
    "verify": ("run the self-check suites", (), (
        *((f"--{suite}", dict(action="store_true", default=False)) for suite in _SUITES),
        ("--generator", dict(choices=NAMES, default=None,
                             help="restrict to one generator (default: all)")),
        ("--max-n", dict(type=int, default=3,
                         help="largest tangle power for the oracle suite")),
        ("--words", dict(type=int, default=200, help="random words for the oracle suite")),
        ("--seed", dict(type=int, default=7)))),
    "export": ("triangle or column data as a b-file", (), (
        ("--generator", dict(required=True, choices=NAMES)),
        ("--rows", dict(type=int, required=True)),
        ("--column", dict(type=int, default=None,
                          help="export one column k (default: whole triangle)")),
        _OUT,
        ("--compare", dict(default=None, metavar="FILE",
                           help="compare b-file output against a reference file")))),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_exact(argv)
        if args is None:
            # argparse prints -h or a usage error; what else it accepts is refused.
            parser = _build_parser()
            parser.parse_args(argv)
            parser.error("give each flag once and in full, with its value as the next argument")
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


def _parse_exact(argv: list[str]) -> SimpleNamespace | None:
    """The options and handler of a plain ``argv``; None for any other.

    Plain is a command, then exact flags of it, each once, a value flag
    followed by one value (starting with ``-`` only as a negative int), ints
    and choices read as argparse reads them, and every required flag and one
    input source given.  A negative count raises ValueError.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, sources, options = _COMMANDS[argv[0]]
    specs = dict(chain(sources, options))
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = specs.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action"):
            given[flag] = True
            continue
        value = next(tokens, "-")
        # argparse reads "-" and digits as a number; only str options have choices.
        if (value.startswith("-") and not (spec.get("type") is int and value[1:].isdecimal())
                or value not in spec.get("choices", (value,))):
            return None
        try:
            given[flag] = spec.get("type", str)(value)
        except ValueError:
            return None
    if (any(spec.get("required") and flag not in given for flag, spec in options)
            or sources and len(given.keys() & dict(sources)) != 1):
        return None
    for flag in _COUNT_FLAGS:
        if given.get(flag, 0) < 0:
            raise ValueError(f"{flag} must be nonnegative, got {given[flag]}")
    names = {flag[2:].replace("-", "_"): given.get(flag, spec.get("default"))
             for flag, spec in specs.items()}
    # Every command writes through _emit, which reads --out; verify has none.
    return SimpleNamespace(**{"out": None, **names}, handler=globals()[f"_cmd_{argv[0]}"])


def _build_parser():
    """The argparse parser of ``_COMMANDS``: it prints -h and words usage errors."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """An argument parser that reports a usage error on one stderr line."""

        def error(self, message: str):
            self.exit(2, f"{self.prog}: error: {message}\n")

    parser = Parser(prog="shadowbracket",
                    description="Exact bracket polynomials of 3-tangle shadow diagrams.")
    commands = parser.add_subparsers(required=True, metavar="command")
    for name, (help_text, sources, options) in _COMMANDS.items():
        command = commands.add_parser(name, help=help_text)
        if sources:
            group = command.add_mutually_exclusive_group(required=True)
            for flag, spec in sources:
                group.add_argument(flag, **spec)
        for flag, spec in options:
            command.add_argument(flag, **spec)
    return parser


def _resolve_input(args) -> BracketVector | Polynomial:
    """The bracket of the input tangle: a tuple, or a polynomial if closed."""
    if args.generator:
        return generator_tuple(args.generator)
    if args.word is not None:
        from .bracket import word_tuple
        return word_tuple(args.word.split())
    if args.tuple is not None:
        return BracketVector.from_json(_load_json(args.tuple))
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


def run() -> NoReturn:
    code = main()
    # A frozen heap leaves teardown's final collections nothing to scan: ~5 of the ~35 ms
    # CPU of a bare Python 3.11 (2-vCPU VM).  Unlike os._exit, atexit and profilers still run.
    import gc
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
