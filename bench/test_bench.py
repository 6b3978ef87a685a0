"""Tests of the benchmark itself: seeded inputs, the checker and the tracer.

Run from the checkout root with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402

import shadowbracket.cli as cli  # noqa: E402
from shadowbracket import (ShadowDiagram, closure, enumerate_states,  # noqa: E402
                           generator_tuple, power, word_tuple)


@pytest.fixture
def in_root(monkeypatch, tmp_path):
    """Work from a scratch root so generated input files resolve."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def replay(inputs, root):
    inputs.write(root)
    return [(r, run.call_main(cli, r.argv)) for r in [inputs.warmup] + inputs.templates]


# --- seeded inputs -----------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.build(workload, 7, "w")
    second = workloads.build(workload, 7, "w")
    assert first.files == second.files
    assert first.templates == second.templates
    assert first.digest() == second.digest()
    assert first.first_rounds(2) == second.first_rounds(2)
    assert workloads.build(workload, 8, "w").digest() != first.digest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_round_has_the_same_mix(workload):
    inputs = workloads.build(workload, 3, "w")
    size = len(inputs.templates)
    stream = inputs.first_rounds(3)
    for k in range(3):
        batch = stream[k * size:(k + 1) * size]
        assert sorted(map(repr, batch)) == sorted(map(repr, inputs.templates))


def test_seeds_change_parameters_not_the_mix():
    kinds = {seed: sorted(r.spec[0] for r in workloads.build("interactive", seed, "w").templates)
             for seed in (1, 2)}
    assert kinds[1] == kinds[2]


@pytest.mark.parametrize("letters", [("X1", "X2"), ("X1", "U2", "X2", "U1", "X1"),
                                     ("U1", "U1", "X2"), ("X2", "X2", "U2", "U2")])
@pytest.mark.parametrize("closed", [False, True])
def test_word_compiler_matches_the_tuple_algebra(letters, closed):
    diagram = ShadowDiagram.from_json(workloads.compile_word(letters, closed))
    expected = word_tuple(letters)
    assert enumerate_states(diagram) == (closure(expected) if closed else expected)


@pytest.mark.parametrize("name", ["T", "C", "E"])
def test_generator_words_compile_to_the_generators(name):
    word = workloads.GENERATOR_WORDS[name] * 2
    diagram = ShadowDiagram.from_json(workloads.compile_word(word, False))
    assert diagram.crossing_count == 2 * workloads.CROSSINGS[name]
    assert enumerate_states(diagram) == power(generator_tuple(name), 2)


# --- the checker -------------------------------------------------------------

def test_checker_accepts_the_program_and_flags_the_open_defects(in_root):
    inputs = workloads.build("interactive", 5, "w")
    judged = replay(inputs, in_root)
    checker = check.Checker([r for r, _ in judged])
    verdicts = {r.argv: checker.judge(r, response) for r, response in judged}
    defects = {v[1] for v in verdicts.values() if v[0] == check.KNOWN_DEFECT}
    wrong = [(argv, v) for argv, v in verdicts.items() if v[0] == check.WRONG]
    assert not wrong
    # Each probe either reproduces its documented defect or is answered correctly.
    probes = [r for r, _ in judged if r.spec[0] == "defect"]
    assert len(probes) == len(workloads.DEFECTS)
    assert defects <= set(workloads.DEFECTS.values())


def corrupt(response, **changes):
    stdout = (response.stdout or "").encode()
    fields = dict(exit_code=response.exit_code, stdout=stdout,
                  stderr=response.stderr.encode())
    fields.update(changes)
    return workloads.Response.of(fields["exit_code"], fields["stdout"], fields["stderr"])


def test_checker_rejects_corrupted_output(in_root):
    inputs = workloads.build("interactive", 5, "w")
    judged = replay(inputs, in_root)
    checker = check.Checker([r for r, _ in judged])
    tried = 0
    for request, response in judged:
        if request.spec[0] in ("malformed", "defect", "verify"):
            continue
        assert checker.judge(request, response)[0] == check.OK
        text = response.stdout
        flipped = text[:-2] + ("1" if text[-2] != "1" else "2") + text[-1]
        assert checker.judge(request, corrupt(response, stdout=flipped.encode()))[0] == check.WRONG
        assert checker.judge(request, corrupt(response, exit_code=3))[0] == check.WRONG
        tried += 1
    assert tried >= 20


def test_checker_rejects_bad_refusals_and_verify_failures(in_root):
    inputs = workloads.build("interactive", 5, "w")
    judged = replay(inputs, in_root)
    checker = check.Checker()
    for request, response in judged:
        kind = request.spec[0]
        if kind == "malformed":
            assert checker.judge(request, response)[0] == check.OK
            two_lines = corrupt(response, stderr=b"error: a\nerror: b\n")
            assert checker.judge(request, two_lines)[0] == check.WRONG
            crash = corrupt(response, exit_code=1, stderr=b"Traceback (most recent call last)\n")
            assert checker.judge(request, crash)[0] == check.WRONG
        elif kind == "verify":
            assert checker.judge(request, response)[0] == check.OK
            failing = response.stdout.replace("PASS  ", "FAIL  ", 1)
            assert checker.judge(request, corrupt(response, stdout=failing.encode()))[0] \
                == check.WRONG


def test_statesum_and_tower_expectations_cross_check(in_root):
    checker = check.Checker()
    letters = workloads.GENERATOR_WORDS["T"] * 3
    request = workloads.Request(("bracket", "--pd", "w/t3.json"), ("pd", letters, True))
    (in_root / "w").mkdir()
    (in_root / "w" / "t3.json").write_text(json.dumps(workloads.compile_word(letters, True)))
    assert checker.judge(request, run.call_main(cli, request.argv)) == (check.OK, "")
    tower = workloads.Request(("bracket", "--generator", "C", "--n", "12", "--closure"),
                              ("closure", "C", 12))
    response = run.call_main(cli, tower.argv)
    assert checker.judge(tower, response) == (check.OK, "")
    assert check.poly_text(closure(power(generator_tuple("C"), 12)).coefficients) + "\n" \
        == response.stdout


# --- tracing -----------------------------------------------------------------

class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tracer.enter("root")
    a = tracer.enter("a")
    c = tracer.enter("poly.c")
    assert tracer.exit(c) == 1
    assert tracer.exit(a) == 2
    b = tracer.enter("b")
    assert tracer.exit(b) == 4
    assert tracer.exit(root) == 3
    assert dict(tracer.self_s) == {"root": 3, "a": 2, "b": 4, "poly.c": 1}
    assert dict(tracer.total_s) == {"root": 10, "a": 3, "b": 4, "poly.c": 1}
    # Aggregate-only names keep no span; the others keep their parent links.
    spans = {name: (span_id, parent) for span_id, parent, name, *_ in tracer.spans}
    assert set(spans) == {"root", "a", "b"}
    assert spans["a"][1] == spans["b"][1] == spans["root"][0]


def test_instrument_wraps_caller_bindings_and_restores_them():
    import shadowbracket.bracket as bracket
    from shadowbracket.poly import Polynomial
    originals = (cli.power, bracket.power, Polynomial.__mul__, Polynomial.__rmul__)
    tracer = Tracer()
    with instrument(tracer):
        assert cli.power is bracket.power is not originals[1]
        run.call_main(cli, ("bracket", "--generator", "T", "--n", "3", "--closure"))
        2 * Polynomial([1, 1])
    assert (cli.power, bracket.power, Polynomial.__mul__, Polynomial.__rmul__) == originals
    assert tracer.calls["bracket.power"] == 1
    assert tracer.calls["bracket.compose"] == 3
    assert tracer.counters["poly.mul.balanced.calls"] == 0
    assert tracer.counters["poly.mul.small.calls"] == tracer.calls["poly.mul"]


def test_percentile_interpolates():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile([1, 2, 3, 4, 5], 75) == 4
    assert run.percentile([7], 95) == 7
