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
The argparse parser built from the same table (:mod:`shadowbracket.usage`)
prints ``-h`` and words the usage errors it finds; an abbreviated,
``=``-joined or repeated flag that it would accept is refused on one line too.

A request compiles only the code its command runs.  ``bracket`` and
``verify`` run here; ``table``, ``gf``, ``charpoly`` and ``export``, and the
JSON renderer, run in :mod:`shadowbracket.commands`.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager, nullcontext
from itertools import chain
from types import SimpleNamespace

# Only what every command needs is imported here; each handler imports the
# rest, so a command loads no module it does not run.
from .generators import NAMES, generator_tuple
from .poly import Polynomial, parse_int
from .tl3 import WORD_LETTERS, BracketVector

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Sequence
    from typing import NoReturn, TextIO


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
            from .usage import build_parser
            parser = build_parser(_COMMANDS)
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


def _resolve_input(args) -> BracketVector | Polynomial:
    """The bracket of the input tangle: a tuple, or a polynomial if closed."""
    if args.generator:
        return generator_tuple(args.generator)
    if args.word is not None:
        from .bracket import word_tuple
        return word_tuple(args.word.split())
    if args.tuple is not None:
        return BracketVector.from_json(_load_json(args.tuple))
    # Each step loads only once the one before it has accepted the input.
    data = _load_json(args.pd)
    from .diagram import ShadowDiagram
    shadow = ShadowDiagram.from_json(data)
    from .contraction import contract
    return contract(shadow)


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


def _emit(args, lines: Iterable[str], end: str = "\n") -> None:
    """Write each line and ``end`` to ``--out`` or stdout as the line arrives."""
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        for line in lines:
            out.write(line)
            out.write(end)


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
        from .commands import _json_text
        if isinstance(result, Polynomial):
            payload = {"n": args.n, "bracket": list(result.coefficients)}
        else:
            payload = {"n": args.n, "tuple": result.to_json()}
        _emit(args, _json_text(payload), end="")
    else:
        _emit(args, [str(result)])
    return 0


def _names() -> SimpleNamespace:
    """This module's names, for :mod:`shadowbracket.commands` to use.

    It cannot import them: under ``python -m`` this module is ``__main__``
    and would run again, and under a profiler it is in no module at all.
    """
    return SimpleNamespace(**globals())


# Handlers run in commands, which loads only when one of them runs.
def _cmd_table(args) -> int:
    from .commands import _cmd_table
    return _cmd_table(args, _names())


def _cmd_gf(args) -> int:
    from .commands import _cmd_gf
    return _cmd_gf(args, _names())


def _cmd_charpoly(args) -> int:
    from .commands import _cmd_charpoly
    return _cmd_charpoly(args, _names())


def _cmd_export(args) -> int:
    from .commands import _cmd_export
    return _cmd_export(args, _names())


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
