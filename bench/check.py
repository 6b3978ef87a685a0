"""Expected outcomes of benchmark requests, and the verdict on each response.

Expected values come from the package's library routes, cross-checked
against each other and against invariants before use: a ``--closure``
result against both ``closed_form_bracket`` and the generating-function
series, tuples against their closure and against 2^(crossings n) states at
x = 1, triangles against ``reference.TABLE_ROWS`` on shared rows, PD
diagrams against the tuple algebra, and the T column k = 1 against the
Lucas numbers computed here.  The expected text is rendered by this
module's own renderers from the documented output formats and compared
with the response byte for byte (through its SHA-256 digest).

Import this module only after the package's ``src`` directory is on
``sys.path``.
"""

from __future__ import annotations

import hashlib
import json

from shadowbracket import (BracketVector, ShadowDiagram, charpoly_factored,
                           closed_form_bracket, closure, compose,
                           enumerate_states, generator_tuple, gf_from_tuple,
                           letter_tuple, power, pq_invariants, states_matrix,
                           word_tuple)
from shadowbracket.reference import TABLE_ROWS

import workloads

CROSSINGS = workloads.CROSSINGS

# Bracket tuples of the hitch letters: (x+2)<1_3> + <U2> and its mirror.
_HITCH = {"H": BracketVector.of([2, 1], 0, 1, 0, 0),
          "M": BracketVector.of([2, 1], 1, 0, 0, 0)}

OK, KNOWN_DEFECT, WRONG = "ok", "known-defect", "wrong"


class CrossCheckError(AssertionError):
    """Two library routes disagree: the expected value itself is unreliable."""


def _agree(label: str, *values) -> None:
    if any(v != values[0] for v in values[1:]):
        raise CrossCheckError(f"{label}: routes disagree")


class Checker:
    """Judges responses; expected outcomes are computed once per distinct request."""

    def __init__(self, requests=()):
        self._expected: dict[tuple, tuple] = {}
        self._series: dict[str, list] = {}
        # The longest series each generator needs, so each is expanded once.
        self._need: dict[str, int] = {}
        for request in requests:
            if request.spec[0] in ("closure", "tuple", "table", "gf", "export"):
                name, n = request.spec[1], request.spec[2]
                self._need[name] = max(self._need.get(name, 0), n)

    def judge(self, request: workloads.Request, response: workloads.Response) -> tuple[str, str]:
        """(verdict, detail) for one response: OK, KNOWN_DEFECT or WRONG."""
        kind = request.spec[0]
        if kind == "verify":
            return self._judge_verify(response)
        if kind in ("malformed", "defect"):
            if _refused(response):
                return OK, ""
            if kind == "defect" and self._defect_signature(request.spec, response):
                return KNOWN_DEFECT, workloads.DEFECTS[request.spec[1]]
            return WRONG, (f"not refused: exit {response.exit_code}, "
                           f"stderr {response.stderr[-200:]!r}")
        key = (request.argv, request.spec)
        if key not in self._expected:
            exit_code, text = self._expect(request.spec)
            data = (text + "\n").encode()
            self._expected[key] = (exit_code, hashlib.sha256(data).hexdigest(), len(data))
        exit_code, digest, size = self._expected[key]
        if response.exit_code != exit_code:
            return WRONG, (f"exit {response.exit_code}, expected {exit_code}: "
                           f"{response.stderr[-300:]!r}")
        if response.stdout_sha256 != digest:
            return WRONG, f"stdout differs ({response.stdout_bytes} bytes, expected {size})"
        return OK, ""

    # --- expected values ---------------------------------------------------

    def series(self, name: str, n: int) -> list:
        """Closure brackets 0..n of generator ``name``, from its series."""
        cached = self._series.get(name, [])
        if len(cached) <= n:
            cached = gf_from_tuple(generator_tuple(name)).expand(
                max(n, self._need.get(name, 0)))
            self._series[name] = cached
        return cached[:n + 1]

    def closure_bracket(self, name: str, n: int):
        value = self.series(name, n)[n]
        _agree(f"closure {name}^{n}", value,
               closed_form_bracket(generator_tuple(name), n))
        _require_state_count(value.evaluate(1), CROSSINGS[name] * n, f"{name}^{n}")
        return value

    def table(self, name: str, rows: int) -> list[list[int]]:
        table = [list(p.coefficients) for p in self.series(name, rows)]
        reference = TABLE_ROWS[name]
        shared = min(len(reference), rows + 1)
        _agree(f"table {name} reference rows", table[:shared], reference[:shared])
        for n, row in enumerate(table):
            _require_state_count(sum(row), CROSSINGS[name] * n, f"table {name} row {n}")
        return table

    def _expect(self, spec: tuple) -> tuple[int, str]:
        kind = spec[0]
        if kind == "closure":
            _, name, n = spec
            return 0, poly_text(self.closure_bracket(name, n).coefficients)
        if kind == "tuple":
            _, name, n = spec
            value = power(generator_tuple(name), n)
            _agree(f"tuple {name}^{n} closure", closure(value),
                   self.closure_bracket(name, n))
            _require_state_count(sum(p.evaluate(1) for p in value.entries()),
                                 CROSSINGS[name] * n, f"tuple {name}^{n}")
            return 0, tuple_text(value)
        if kind == "table":
            _, name, rows, fmt = spec
            return 0, table_text(self.table(name, rows), name, fmt)
        if kind == "gf":
            _, name, terms = spec
            self.table(name, terms)
            return 0, gf_text(gf_from_tuple(generator_tuple(name)), self.series(name, terms))
        if kind == "export":
            _, name, rows, k = spec
            values = [row[k] if k < len(row) else 0 for row in self.table(name, rows)]
            return 0, bfile_text(values)
        if kind == "word":
            _, letters, n, closed, fmt = spec
            v = word_tuple(letters)
            _agree(f"word {letters}", v, enumerate_states(ShadowDiagram.from_json(
                workloads.compile_word(letters, False))))
            result = power(v, n)
            _agree(f"word {letters}^{n}", result, states_matrix(v).power(n).apply(
                BracketVector.unit()))
            return 0, bracket_text(closure(result) if closed else result, n, fmt)
        if kind == "tuple_file":
            _, entries, n, closed = spec
            v = BracketVector.of(*(list(e) for e in entries))
            result = power(v, n)
            _agree(f"tuple file ^{n}", result,
                   states_matrix(v).power(n).apply(BracketVector.unit()))
            return 0, bracket_text(closure(result) if closed else result, n, "text")
        if kind == "pd":
            _, letters, closed = spec
            v = word_value(letters)
            for name, unit in workloads.GENERATOR_WORDS.items():
                n = len(letters) // len(unit)
                if letters == unit * n:
                    _agree(f"pd {name}^{n}", v, power(generator_tuple(name), n))
            result = closure(v) if closed else v
            total = result.evaluate(1) if closed else sum(p.evaluate(1) for p in v.entries())
            _require_state_count(total, crossing_count(letters), f"pd {letters}")
            return 0, bracket_text(result, 1, "text")
        if kind == "charpoly":
            _, name = spec
            v = generator_tuple(name)
            pq = pq_invariants(v)
            chi = charpoly_factored(v)
            return 0, (f"factored: -(L - ({poly_text(v.a.coefficients)})) * "
                       f"(L^2 - ({poly_text(pq.p.coefficients)})L + "
                       f"({poly_text(pq.pair_product().coefficients)}))^2\n"
                       f"expanded: {lambda_text(chi.coefficients)}")
        if kind == "compare":
            _, rows, bad, theirs, path = spec
            values = [workloads.lucas(2 * n) - 2 for n in range(rows + 1)]
            text = bfile_text(values)
            if bad is None:
                return 0, f"{text}\nMATCH against {path}"
            return 1, (f"{text}\nMISMATCH against {path}: mismatch at line {bad + 1}: "
                       f"{bad} {values[bad]} != {bad} {theirs}")
        raise ValueError(f"unknown request kind {kind!r}")

    def _judge_verify(self, response: workloads.Response) -> tuple[str, str]:
        lines = (response.stdout or "").splitlines()
        passes = sum(line.startswith("PASS  ") for line in lines)
        ok = (response.exit_code == 0 and passes == len(lines) - 1 and passes > 0
              and lines[-1] == f"all {passes} checks passed")
        return (OK, "") if ok else (WRONG, f"verify exit {response.exit_code}: "
                                           f"{(response.stdout or '')[-300:]!r}")

    def _defect_signature(self, spec: tuple, response: workloads.Response) -> bool:
        """Whether a probe failed in exactly the documented way."""
        name = spec[1]
        if name == "tuple-bad-json":
            return response.exit_code == 1 and "Traceback" in response.stderr
        if response.exit_code != 0:
            return False
        if name == "column-negative":
            rows = spec[2]
            expected = bfile_text([row[-1] for row in self.table("T", rows)])
        elif name == "non-planar-pd":
            expected = "2x"
        elif name == "free-loops-bool":
            letters = spec[2]
            extra = 1 - workloads.compile_word(letters, True)["free_loops"]
            value = closure(word_value(letters)).coefficients
            expected = poly_text((0,) * extra + value if extra >= 0 else value[-extra:])
        else:
            raise ValueError(f"unknown defect {name!r}")
        return response.stdout == expected + "\n"


def word_value(letters) -> BracketVector:
    """The tuple of a word over ``workloads.LETTERS`` by the tuple algebra."""
    if not any(letter in _HITCH for letter in letters):
        return word_tuple(letters)
    value = BracketVector.unit()
    for letter in letters:
        value = compose(value, _HITCH.get(letter) or letter_tuple(letter))
    return value


def crossing_count(letters) -> int:
    return sum(2 if letter in _HITCH else letter.startswith("X") for letter in letters)


def _require_state_count(total: int, crossings: int, label: str) -> None:
    if total != 2 ** crossings:
        raise CrossCheckError(f"{label}: {total} states at x = 1, expected 2^{crossings}")


def _refused(response: workloads.Response) -> bool:
    """The correct answer to malformed input: exit 2 and one stderr line."""
    lines = response.stderr.splitlines()
    return (response.exit_code == 2 and response.stdout_bytes == 0 and len(lines) == 1
            and lines[0].strip() != "" and "Traceback" not in response.stderr)


# --- renderers of the documented output formats ------------------------------

def poly_text(coefficients) -> str:
    """Descending powers, zero terms omitted, unit coefficients shown only on x^0."""
    parts = []
    for k in range(len(coefficients) - 1, -1, -1):
        c = coefficients[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        var = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        body = str(abs(c)) if k == 0 or abs(c) != 1 else ""
        parts.append(sign + body + var)
    return "".join(parts) or "0"


def tuple_text(v: BracketVector) -> str:
    return "[" + ", ".join(poly_text(p.coefficients) for p in v.entries()) + "]"


def bracket_text(value, n: int, fmt: str) -> str:
    if fmt == "text":
        return poly_text(value.coefficients) if hasattr(value, "coefficients") \
            else tuple_text(value)
    if hasattr(value, "coefficients"):
        payload = {"n": n, "bracket": list(value.coefficients)}
    else:
        payload = {"n": n, "tuple": {k: list(p.coefficients)
                                     for k, p in zip("abcde", value.entries())}}
    return json.dumps(payload, sort_keys=True)


def table_text(table, name: str, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"generator": name, "rows": table}, sort_keys=True)
    sep = "," if fmt == "csv" else " "
    return "\n".join(sep.join(map(str, row)) for row in table)


def bfile_text(values) -> str:
    return "\n".join(f"{i} {v}" for i, v in enumerate(values))


def lambda_text(coefficients) -> str:
    parts = []
    for k in range(len(coefficients) - 1, -1, -1):
        c = coefficients[k]
        if c.is_zero:
            continue
        power_text = "" if k == 0 else ("L" if k == 1 else f"L^{k}")
        parts.append(f"({poly_text(c.coefficients)}){power_text}")
    return " + ".join(parts) or "0"


def _in_y(terms) -> str:
    parts = []
    for k, c in enumerate(terms):
        if c.is_zero:
            continue
        y = "" if k == 0 else ("y" if k == 1 else f"y^{k}")
        text = poly_text(c.coefficients)
        parts.append(text if k == 0 else (y if text == "1" else f"({text}){y}"))
    return " + ".join(parts) or "0"


def gf_text(gf, series) -> str:
    pair, geometric = gf.pair_part, gf.geometric_part
    head = (f"({_in_y(pair.numerator)}) / ({_in_y(pair.denominator)}) + "
            f"({_in_y(geometric.numerator)}) / ({_in_y(geometric.denominator)})")
    return "\n".join([head] + [f"y^{n}: {poly_text(p.coefficients)}"
                               for n, p in enumerate(series)])
