"""Per-layer tracing of in-process CLI calls, done from outside the package.

:func:`instrument` wraps the public functions of ``bracket``, ``series``,
``oracle`` and ``generators``, the ``Polynomial`` arithmetic methods and
``tl3.multiply``.  Every module binding that refers to a wrapped function is
replaced, so a caller that imported the name (``shadowbracket.cli.power``)
sees the wrapper as well as the defining module (``bracket.power``).
Nothing under ``src/`` is edited, and everything is restored on exit.

A :class:`Tracer` keeps spans (name, start, end, parent, request id) in
memory.  ``Polynomial`` and ``tl3`` calls are too many to keep one span
each, so they are aggregated per name only; their time still counts
against the self time of the span that called them.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import defaultdict

# Span-name prefixes aggregated per name without keeping individual spans.
_AGGREGATE_ONLY = ("poly.", "tl3.")

# Degree at or below which a multiply operand counts as small.
SMALL_DEGREE = 8


class Tracer:
    """Span recorder with online self-time accounting.

    A span's self time is its duration minus the time covered by its child
    spans.  Calls nest strictly on one thread, so children never overlap and
    their durations add.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.request = None
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][4] if self._stack else None
        frame = [name, self.clock(), 0.0, parent, self._next_id]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close ``frame`` (the innermost open span); returns its self time."""
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, children, parent, span_id = frame
        duration = end - start
        own = duration - children
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += own
        if not name.startswith(_AGGREGATE_ONLY):
            self.spans.append((span_id, parent, name, start, end, self.request))
        return own

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of per-name aggregates."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, request in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                      "start": start, "end": end,
                                      "request": request}) + "\n")
            out.write(json.dumps({"calls": self.calls, "total_s": self.total_s,
                                  "self_s": self.self_s,
                                  "counters": self.counters}) + "\n")


def _wrap(tracer: Tracer, fn, name: str, probe=None):
    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            own = tracer.exit(frame)
        if probe is not None:
            probe(tracer.counters, args, result, own)
        return result
    traced.__wrapped__ = fn
    return traced


def _count_only(tracer: Tracer, fn, name: str):
    calls = tracer.calls

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    counted.__wrapped__ = fn
    return counted


def _mul_probe(counters, args, result, own) -> None:
    left, right = args
    la = len(left.coefficients)
    lb = 1 if isinstance(right, int) else len(right.coefficients)
    small = (la <= SMALL_DEGREE + 1) + (lb <= SMALL_DEGREE + 1)
    group = ("poly.mul.balanced", "poly.mul.skewed", "poly.mul.small")[small]
    counters[group + ".calls"] += 1
    counters[group + ".self_s"] += own
    counters["poly.mul.coeff_pairs"] += la * lb
    coeffs = result.coefficients
    if coeffs:
        bits = max(max(coeffs), -min(coeffs)).bit_length()
        if bits > counters["poly.mul.max_coeff_bits"]:
            counters["poly.mul.max_coeff_bits"] = bits


def _states_probe(counters, args, result, own) -> None:
    diagram = args[0]
    states = 2 ** diagram.crossing_count
    kind = "closed" if diagram.boundary is None else "open"
    counters["oracle.states"] += states
    counters[f"oracle.states.{kind}"] += states
    counters[f"oracle.enumerate_states.{kind}_s"] += own


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the package's layer functions for the duration of the block."""
    from shadowbracket import bracket, cli, generators, oracle, poly, series, tl3

    package = [m for n, m in sys.modules.items()
               if n == "shadowbracket" or n.startswith("shadowbracket.")]
    undo: list[tuple[object, str, object]] = []

    def rebind(original, replacement) -> None:
        for module in package:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def set_attr(owner, attr: str, replacement) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    probes = {"oracle.enumerate_states": _states_probe}
    for module in (bracket, series, oracle, generators):
        short = module.__name__.rsplit(".", 1)[1]
        for attr, fn in list(vars(module).items()):
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{short}.{attr}"
                rebind(fn, _wrap(tracer, fn, name, probes.get(name)))
    rebind(tl3.multiply, _count_only(tracer, tl3.multiply, "tl3.multiply"))
    for cls, attr, name in ((oracle.ShadowDiagram, "from_json", "oracle.from_json"),
                            (bracket.BracketVector, "from_json", "bracket.from_json")):
        fn = cls.__dict__[attr].__func__
        set_attr(cls, attr, classmethod(_wrap(tracer, fn, name)))
    # The verify handler runs the package's self-check suites.
    set_attr(cli, "_cmd_verify", _wrap(tracer, cli._cmd_verify, "generators.self_check"))
    Polynomial = poly.Polynomial
    for attr, name, probe in (("__mul__", "poly.mul", _mul_probe),
                              ("__rmul__", "poly.mul", _mul_probe),
                              ("__add__", "poly.add", None),
                              ("__radd__", "poly.add", None),
                              ("__init__", "poly.init", None),
                              ("__str__", "poly.str", None)):
        set_attr(Polynomial, attr, _wrap(tracer, Polynomial.__dict__[attr], name, probe))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
