"""Seeded inputs and request mixes for the three benchmark workloads.

Everything a run sends to the program is made here from the workload seed:
tangle words compiled to PD diagrams by this module's own compiler,
bracket-tuple files, b-file references and malformed inputs.  Nothing here
imports the package under test, so one seed gives byte-identical inputs on
every commit.

Each workload is a fixed *round* of request templates.  The seed picks the
parameters of every template once per run (tangle words, powers within a
narrow band, b-file rows) and the order of the requests inside each round,
never the mix itself, so every seed asks for the same kinds and amounts of
work.  A run measures whole rounds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

# Why each workload is in the benchmark is stated in BENCHMARK.json.
WORKLOADS = ("tower", "statesum", "interactive")

# Highest percentile that leaves at least ten samples beyond it at the
# request counts these workloads reach in a run; fixed per workload so that
# runs stay comparable.
TAIL_PERCENTILE = {"tower": 75, "statesum": 75, "interactive": 95}

# The traced in-process replay covers this many whole rounds, so per-layer
# counts repeat exactly for a given seed.
TRACE_ROUNDS = {"tower": 1, "statesum": 1, "interactive": 10}

CROSSINGS = {"T": 2, "C": 3, "E": 4}

# Crossing letters of strands 1-2 and 2-3, the two cup-caps, and the hitch
# gadget H and its top-bottom mirror M from which generators C and E are
# built (C = X1 H, E = M H).
LETTERS = ("X1", "X2", "U1", "U2", "H", "M")
GENERATOR_WORDS = {"T": ("X1", "X2"), "C": ("X1", "H"), "E": ("M", "H")}

# Four known input-handling defects of the CLI.  Each probe asks for the
# correct outcome (exit 2, one stderr line); until the defect is fixed the
# program answers with the behaviour named here instead, which the checker
# recognises, and the probe counts as failed.
DEFECTS = {
    "tuple-bad-json": "exits 1 with a traceback",
    "column-negative": "exits 0 and prints the last column",
    "non-planar-pd": "exits 0 and prints 2x",
    "free-loops-bool": "accepts free_loops: true as 1",
}


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its correct outcome depends on.

    ``argv`` follows ``python -m shadowbracket.cli``; file arguments are
    paths relative to the checkout root.  ``spec`` is plain data naming the
    expected outcome; requests with equal ``argv`` have equal outcomes.
    """

    argv: tuple[str, ...]
    spec: tuple


@dataclass
class Response:
    """What one invocation returned; stdout above 64 KiB is kept as a digest only."""

    exit_code: int
    stdout_sha256: str
    stdout_bytes: int
    stdout: str | None
    stderr: str

    @classmethod
    def of(cls, exit_code: int, stdout: bytes, stderr: bytes) -> "Response":
        text = stdout.decode("utf-8", "replace") if len(stdout) <= 1 << 16 else None
        return cls(exit_code, hashlib.sha256(stdout).hexdigest(), len(stdout), text,
                   stderr.decode("utf-8", "replace"))


@dataclass
class Inputs:
    """A workload's request templates and the files they read."""

    warmup: Request
    templates: list[Request]
    files: dict[str, bytes]
    order_seed: int

    def rounds(self):
        """Endless sequence of rounds, each a seeded shuffle of the templates."""
        rng = random.Random(self.order_seed)
        while True:
            batch = list(self.templates)
            rng.shuffle(batch)
            yield from batch

    def first_rounds(self, count: int) -> list[Request]:
        stream = self.rounds()
        return [next(stream) for _ in range(count * len(self.templates))]

    def digest(self) -> str:
        """SHA-256 over the templates, warm-up and file contents."""
        h = hashlib.sha256()
        for request in [self.warmup] + self.templates:
            h.update(repr(request).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        h.update(str(self.order_seed).encode())
        return h.hexdigest()

    def write(self, root: Path) -> None:
        for name, data in self.files.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


def build(workload: str, seed: int, workdir: str) -> Inputs:
    """The inputs of ``workload`` for ``seed``; file names live under ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    make = {"tower": _tower, "statesum": _statesum, "interactive": _interactive}[workload]
    files: dict[str, bytes] = {}
    warmup, templates = make(rng, _Files(files, workdir))
    return Inputs(warmup, templates, files, rng.getrandbits(64))


class _Files:
    """Collects generated input files under the work directory."""

    def __init__(self, files: dict[str, bytes], workdir: str):
        self.files = files
        self.workdir = workdir

    def add(self, stem: str, data: bytes) -> str:
        name = f"{self.workdir}/{stem}"
        self.files[name] = data
        return name

    def json(self, stem: str, value) -> str:
        return self.add(stem, json.dumps(value, sort_keys=True).encode())


# --- tower ---------------------------------------------------------------

# (command, generator, low, high) per template: the seed draws the power or
# row count from [low, high], a band narrow enough (about 1%) that every
# seed costs the same work and memory to within the run-to-run noise.
_TOWER = (
    ("closure", "T", 306, 310), ("closure", "C", 204, 207), ("closure", "E", 186, 189),
    ("tuple", "T", 246, 249), ("tuple", "C", 153, 155), ("tuple", "E", 133, 135),
    ("table", "T", 450, 454), ("table", "C", 306, 310), ("table", "E", 238, 241),
    ("gf", "T", 410, 414), ("gf", "C", 306, 310), ("gf", "E", 238, 241),
    ("export", "T", 450, 454), ("export", "C", 306, 310), ("export", "E", 238, 241),
)
_TABLE_FORMAT = {"T": "text", "C": "csv", "E": "json"}


def _tower(rng: random.Random, files: _Files):
    templates = []
    for command, name, low, high in _TOWER:
        n = rng.randint(low, high)
        if command == "closure":
            argv = ("bracket", "--generator", name, "--n", str(n), "--closure")
            spec = ("closure", name, n)
        elif command == "tuple":
            argv = ("bracket", "--generator", name, "--n", str(n))
            spec = ("tuple", name, n)
        elif command == "table":
            fmt = _TABLE_FORMAT[name]
            argv = ("table", "--generator", name, "--rows", str(n), "--format", fmt)
            spec = ("table", name, n, fmt)
        elif command == "gf":
            argv = ("gf", "--generator", name, "--terms", str(n))
            spec = ("gf", name, n)
        else:
            k = rng.randint(1, 5)
            argv = ("export", "--generator", name, "--rows", str(n), "--column", str(k))
            spec = ("export", name, n, k)
        templates.append(Request(argv, spec))
    warmup = Request(("bracket", "--generator", "E", "--n", "10", "--closure"),
                     ("closure", "E", 10))
    return warmup, templates


# --- statesum ------------------------------------------------------------

# (closed, crossings, source) per template; source is a generator name for
# a generator power, or None for a seeded random word.  An open state costs
# about 2.5 times a closed one.  In cost order the round is five cheap
# requests, four closed-18 ones, then five dearer ones, so the median falls
# in the middle of the closed-18 level and the tail percentile inside the
# open-17 level: neither sits on a gap between two levels, which a
# slightly different run could tip either way.
_STATESUM = (
    (True, 17, None), (True, 17, None),
    (False, 16, "E"), (False, 16, None), (False, 16, None),
    (True, 18, "C"), (True, 18, None), (True, 18, None), (True, 18, None),
    (False, 17, None), (False, 17, None), (False, 17, None), (False, 18, "T"),
    (True, 20, "T"),
)


def _statesum(rng: random.Random, files: _Files):
    templates = []
    for i, (closed, crossings, source) in enumerate(_STATESUM):
        if source is None:
            letters = random_word(rng, crossings, cupcaps=rng.randint(0, 3))
        else:
            letters = GENERATOR_WORDS[source] * (crossings // CROSSINGS[source])
        diagram = compile_word(letters, closed)
        kind = "closed" if closed else "open"
        path = files.json(f"statesum-{i:02d}-{kind}{crossings}.json", diagram)
        templates.append(Request(("bracket", "--pd", path),
                                 ("pd", letters, closed)))
    warm_letters = GENERATOR_WORDS["T"] * 2
    warm = files.json("statesum-warmup.json", compile_word(warm_letters, False))
    warmup = Request(("bracket", "--pd", warm), ("pd", warm_letters, False))
    return warmup, templates


def random_word(rng: random.Random, crossings: int, cupcaps: int) -> tuple[str, ...]:
    """A word with exactly ``crossings`` crossing letters and ``cupcaps`` cup-caps."""
    letters = [rng.choice(("X1", "X2")) for _ in range(crossings)]
    for _ in range(cupcaps):
        letters.insert(rng.randint(0, len(letters)), rng.choice(("U1", "U2")))
    return tuple(letters)


# --- interactive ---------------------------------------------------------

def _interactive(rng: random.Random, files: _Files):
    templates: list[Request] = []
    add = templates.append

    def word(max_len: int = 8) -> tuple[str, ...]:
        return tuple(rng.choice(LETTERS[:4]) for _ in range(rng.randint(1, max_len)))

    # 28 well-formed requests.
    for i in range(6):
        letters = word()
        n = 1 if i < 3 else rng.randint(2, 3)
        closure = i % 2 == 1
        fmt = "json" if i in (2, 5) else "text"
        argv = ("bracket", "--word", " ".join(letters), "--n", str(n), "--format", fmt)
        add(Request(argv + (("--closure",) if closure else ()),
                    ("word", letters, n, closure, fmt)))
    for i in range(3):
        entries = {name: [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
                   for name in "abcde"}
        path = files.json(f"interactive-tuple-{i}.json", entries)
        n = rng.randint(1, 3)
        closure = i == 1
        add(Request(("bracket", "--tuple", path, "--n", str(n))
                    + (("--closure",) if closure else ()),
                    ("tuple_file", tuple(tuple(entries[k]) for k in "abcde"), n, closure)))
    for i, closed in enumerate((False, False, True, True)):
        letters = random_word(rng, rng.randint(4, 8), cupcaps=rng.randint(0, 2))
        path = files.json(f"interactive-pd-{i}.json", compile_word(letters, closed))
        add(Request(("bracket", "--pd", path), ("pd", letters, closed)))
    for name in ("T", "C", "E"):
        add(Request(("charpoly", "--generator", name), ("charpoly", name)))
    for name in ("T", "C", "E"):
        add(Request(("gf", "--generator", name, "--terms", "10"), ("gf", name, 10)))
    for name, fmt in zip(("T", "C", "E"), ("text", "csv", "json")):
        add(Request(("table", "--generator", name, "--rows", "10", "--format", fmt),
                    ("table", name, 10, fmt)))
    for match in (True, False):
        rows = rng.randint(6, 14)
        values = [lucas(2 * n) - 2 for n in range(rows + 1)]
        bad = theirs = None
        if not match:
            bad = rng.randint(1, rows)
            values[bad] += rng.choice((-1, 1))
            theirs = values[bad]
        text = "".join(f"{i} {v}\n" for i, v in enumerate(values))
        path = files.add(f"interactive-bfile-{int(match)}.txt",
                         ("# T column k=1\n" + text).encode())
        add(Request(("export", "--generator", "T", "--rows", str(rows),
                     "--column", "1", "--compare", path),
                    ("compare", rows, bad, theirs, path)))
    name = rng.choice(("T", "C", "E"))
    for suite in ("--tables", "--charpoly", "--recurrence"):
        add(Request(("verify", suite, "--generator", name), ("verify",)))
    add(Request(("verify", "--oracle", "--generator", "T", "--words", "20",
                 "--max-n", "2", "--seed", str(rng.randint(0, 999))), ("verify",)))

    # 8 malformed requests the program already refuses correctly.
    good = compile_word(random_word(rng, 4, 0), False)
    closed = files.json("interactive-closed.json", compile_word(random_word(rng, 4, 0), True))
    bad_edge = dict(good, crossings=[list(q) for q in good["crossings"]])
    bad_edge["crossings"][0][0] = bad_edge["crossings"][0][1]
    malformed = [
        ("bracket", "--word", " ".join(word(4)) + " X3"),
        ("bracket", "--pd", files.add("interactive-syntax.json",
                                      json.dumps(good)[:-7].encode())),
        ("bracket", "--pd", files.json("interactive-edge.json", bad_edge)),
        ("bracket", "--pd", files.json("interactive-nocrossings.json",
                                       {"boundary": None, "free_loops": 0})),
        ("bracket", "--pd", f"{files.workdir}/interactive-absent.json"),
        ("gf", "--pd", closed),
        ("bracket", "--pd", closed, "--closure"),
        ("bracket", "--tuple", files.json("interactive-tuple-missing.json",
                                          {"a": [1], "b": [1], "c": [1], "d": [0]})),
    ]
    for argv in malformed:
        add(Request(argv, ("malformed",)))

    # 4 probes for the known defects.
    bad_tuple = {"a": "abc", "b": [1], "c": [1], "d": [0], "e": [1.5]}
    add(Request(("bracket", "--tuple", files.json("interactive-tuple-bad.json", bad_tuple)),
                ("defect", "tuple-bad-json")))
    rows = rng.randint(6, 12)
    add(Request(("export", "--generator", "T", "--rows", str(rows), "--column", "-1"),
                ("defect", "column-negative", rows)))
    nonplanar = {"crossings": [["1", "2", "1", "2"]], "boundary": None, "free_loops": 0}
    add(Request(("bracket", "--pd", files.json("interactive-nonplanar.json", nonplanar)),
                ("defect", "non-planar-pd")))
    loops_letters = random_word(rng, 3, 0)
    loops_pd = dict(compile_word(loops_letters, True), free_loops=True)
    add(Request(("bracket", "--pd", files.json("interactive-boolloops.json", loops_pd)),
                ("defect", "free-loops-bool", loops_letters)))

    warmup = Request(("bracket", "--word", "X1 X2"), ("word", ("X1", "X2"), 1, False, "text"))
    return warmup, templates


def lucas(n: int) -> int:
    """The Lucas number L_n (L_0 = 2, L_1 = 1)."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# --- word -> PD compiler -------------------------------------------------

def compile_word(letters, closed: bool) -> dict:
    """The shadow-diagram JSON of a tangle word, optionally closed.

    Glues the letters left to right onto three strands.  A crossing letter
    ``Xi`` adds the crossing ``(in_i, out_top, out_bot, in_i+1)``; a cup-cap
    ``Ui`` joins strands i and i+1 and opens a fresh arc in their place; the
    hitch ``H`` threads a bight through a closed turn of the lower two
    strands, and ``M`` is its top-bottom mirror.  Closing joins each left
    endpoint to the right endpoint at the same height.  Joining the two ends
    of one arc makes a crossingless circle, counted in ``free_loops``.
    """
    parent: dict[str, str] = {}
    counter = [0]
    free = [0]
    crossings: list[tuple[str, ...]] = []

    def fresh() -> str:
        counter[0] += 1
        name = f"a{counter[0]}"
        parent[name] = name
        return name

    def find(edge: str) -> str:
        while parent[edge] != edge:
            parent[edge] = parent[parent[edge]]
            edge = parent[edge]
        return edge

    def join(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            free[0] += 1
        else:
            parent[rb] = ra

    strands = [fresh() for _ in range(3)]
    left = list(strands)
    for letter in letters:
        if letter in ("X1", "X2"):
            i = int(letter[1]) - 1
            top, bottom = fresh(), fresh()
            crossings.append((strands[i], top, bottom, strands[i + 1]))
            strands[i], strands[i + 1] = top, bottom
        elif letter in ("U1", "U2"):
            i = int(letter[1]) - 1
            join(strands[i], strands[i + 1])
            strands[i] = strands[i + 1] = fresh()
        elif letter == "H":
            b0, b1, b2, turn = fresh(), fresh(), fresh(), fresh()
            crossings.append((b0, strands[1], b1, turn))
            crossings.append((b1, strands[2], b2, turn))
            strands[1], strands[2] = b0, b2
        elif letter == "M":
            b0, b1, b2, turn = fresh(), fresh(), fresh(), fresh()
            crossings.append((turn, b1, strands[1], b0))
            crossings.append((turn, b2, strands[0], b1))
            strands[0], strands[1] = b2, b0
        else:
            raise ValueError(f"unknown letter {letter!r}")
    if closed:
        for a, b in zip(left, strands):
            join(a, b)

    names: dict[str, str] = {}

    def label(edge: str) -> str:
        root = find(edge)
        if root not in names:
            names[root] = f"e{len(names)}"
        return names[root]

    quads = [[label(e) for e in quad] for quad in crossings]
    boundary = None if closed else {"L": [label(e) for e in left],
                                    "R": [label(e) for e in strands]}
    return {"crossings": quads, "boundary": boundary, "free_loops": free[0]}
