"""End-to-end benchmark of the ``shadowbracket`` CLI, with a traced layer run.

Run one workload from the root of a checkout::

    python3 bench/run.py --workload tower --seed 1 --seconds 30 --trace 0

``--trace 0`` drives ``python -m shadowbracket.cli`` (with ``PYTHONPATH=src``)
as a subprocess from one closed-loop client: the next request is sent only
after the previous one has exited (children are started by ``spawn.py``).
It measures whole rounds of the workload's request mix until at least
``--seconds`` have passed and reports the end-to-end metrics.  ``--trace 1``
replays whole rounds of the same requests in this process through
``shadowbracket.cli.main``, each request plain and then with the package's
layer functions wrapped (see ``tracing.py``), and reports the per-layer
metrics.  Every response is checked after the timed region (see
``check.py``).

``--workload all`` runs every workload both ways and prints every metric.
``--compare OLD NEW`` compares two directories of result records.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes its full record (and, when traced, its spans) to ``--results``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKDIR = "bench/.work"
SETUPS = 9
STARTUP_SAMPLES = 7


@dataclass
class Sample:
    request: workloads.Request
    seconds: float
    cpu_s: float
    rss_mb: float
    response: workloads.Response


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(BENCH / "results"),
                        help="directory for result records and spans")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two directories of result records")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*map(Path, args.compare))
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not (ROOT / "src" / "shadowbracket" / "cli.py").is_file():
        print(f"error: no shadowbracket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    if args.workload != "all":
        record = run(args.workload, args.seed, args.seconds, args.trace, results)
        print(json.dumps(summary(record)))
        return 0
    # Each part runs in a fresh process, exactly as a single-workload run.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, __file__, "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--results", str(results)]
            output = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                                    text=True).stdout
            print(output, end="")
            part = json.loads(output.splitlines()[-1])
            combined["correct"] &= part["correct"]
            combined["attempted"] += part["attempted"]
            combined["failed"] += part["failed"]
            for name, metric in part["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def summary(record: dict) -> dict:
    return {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}


# --- one run -------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: int, results: Path) -> dict:
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    setups = []
    with Launcher() as launcher:
        for _ in range(SETUPS):
            start = time.perf_counter()
            inputs = workloads.build(workload, seed, WORKDIR)
            inputs.write(ROOT)
            *_, warm = launcher.invoke(inputs.warmup.argv)
            setups.append(time.perf_counter() - start)
        if trace:
            startup = [launcher.invoke(("--help",))[0] for _ in range(STARTUP_SAMPLES)]
        else:
            metrics, timed, record["per_request"] = timed_run(
                launcher, workload, inputs, seconds)
            metrics["setup_s"] = (statistics.median(setups), "s")
    record["input_sha256"] = inputs.digest()
    judged = [(inputs.warmup, warm)]
    if trace:
        metrics, timed, tracer = traced_run(workload, inputs)
        metrics["cli.startup_s"] = (statistics.median(startup), "s")
    judged += timed
    stamp = f"{workload}-seed{seed}-trace{trace}-{time.time_ns()}"
    verdicts = judge(judged)
    attempted = len(timed)
    failed = sum(v != "ok" for v, _ in verdicts[1:])
    wrong = [(" ".join(r.argv), d) for (r, _), (v, d) in zip(judged, verdicts)
             if v == "wrong"]
    defects = sorted({d for v, d in verdicts if v == "known-defect"})
    if not trace:
        metrics["ok_frac"] = (1 - failed / attempted, "frac")
        metrics["failed_frac"] = (failed / attempted, "frac")
    else:
        tracer.write(results / f"spans-{stamp}.jsonl")
    record.update(correct=not wrong, attempted=attempted, failed=failed,
                  wrong=wrong[:20], known_defects=defects,
                  all_metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    names = listed_metrics(trace)
    record["metrics"] = {k: record["all_metrics"][k] for k in names}
    (results / f"{stamp}.json").write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    return record


def listed_metrics(trace: int) -> list[str]:
    """Names of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def judge(judged) -> list[tuple[str, str]]:
    from check import Checker, WRONG
    checker = Checker([request for request, _ in judged])
    verdicts = []
    for request, response in judged:
        try:
            verdicts.append(checker.judge(request, response))
        except Exception as exc:
            # A library route that fails or disagrees with another (see
            # check.CrossCheckError) leaves no trustworthy expected value.
            verdicts.append((WRONG, f"no expected outcome: {exc!r}"))
    return verdicts


def timed_run(launcher: Launcher, workload: str, inputs: workloads.Inputs,
              seconds: float):
    """Whole rounds until at least ``seconds`` have passed.

    Ending on a round boundary gives every run the same request mix, so a
    median or tail that falls between two request kinds does not move with
    the share of a partial last round.
    """
    samples: list[Sample] = []
    stream = inputs.rounds()
    size = len(inputs.templates)
    start = time.perf_counter()
    while len(samples) % size or time.perf_counter() - start < seconds:
        request = next(stream)
        samples.append(Sample(request, *launcher.invoke(request.argv)))
    wall = time.perf_counter() - start
    latencies = [s.seconds for s in samples]
    p = workloads.TAIL_PERCENTILE[workload]
    beyond = sum(t > percentile(latencies, p) for t in latencies)
    by_argv: dict[str, list[float]] = {}
    for s in samples:
        by_argv.setdefault(" ".join(s.request.argv), []).append(s.seconds)
    metrics = {
        "req_p50_s": (percentile(latencies, 50), "s"),
        "req_tail_s": (percentile(latencies, p), "s"),
        "throughput_rps": (len(samples) / wall, "1/s"),
        "cpu_p50_s": (percentile([s.cpu_s for s in samples], 50), "s"),
        "peak_rss_mb": (max(s.rss_mb for s in samples), "MB"),
        "requests": (len(samples), "count"),
        "tail_percentile": (p, "%"),
        "tail_samples_beyond": (beyond, "count"),
    }
    per_request = {argv: [len(t), statistics.median(t)] for argv, t in by_argv.items()}
    return metrics, [(s.request, s.response) for s in samples], per_request


def traced_run(workload: str, inputs: workloads.Inputs):
    from tracing import Tracer, instrument
    import shadowbracket.cli as cli

    os.chdir(ROOT)
    requests = inputs.first_rounds(workloads.TRACE_ROUNDS[workload])
    # A first plain pass warms the allocator and caches for the measured ones.
    for request in requests:
        call_main(cli, request.argv)
    # Each request runs plain and then traced, back to back, so that the
    # overhead compares the two under the same machine conditions.
    tracer = Tracer()
    judged = []
    plain_s = traced_s = 0.0
    for index, request in enumerate(requests):
        start = time.perf_counter()
        judged.append((request, call_main(cli, request.argv)))
        plain_s += time.perf_counter() - start
        tracer.request = index
        with instrument(tracer):
            start = time.perf_counter()
            with tracer.span("cli.main"):
                response = call_main(cli, request.argv)
            traced_s += time.perf_counter() - start
        tracer.counters["cli.output_bytes"] += response.stdout_bytes
        judged.append((request, response))
    calls, total, own, counters = tracer.calls, tracer.total_s, tracer.self_s, tracer.counters

    def per_state(kind: str) -> float:
        states = counters[f"oracle.states.{kind}"]
        return counters[f"oracle.enumerate_states.{kind}_s"] / states * 1e9 if states else 0.0

    metrics = {
        "cli.main.s": (total["cli.main"], "s"),
        "cli.main.self_s": (own["cli.main"], "s"),
        "cli.output_bytes": (counters["cli.output_bytes"], "bytes"),
        "poly.mul.calls": (calls["poly.mul"], "count"),
        "poly.mul.self_s": (own["poly.mul"], "s"),
        "poly.mul.coeff_pairs": (counters["poly.mul.coeff_pairs"], "count"),
        "poly.mul.max_coeff_bits": (counters["poly.mul.max_coeff_bits"], "bits"),
    }
    for group in ("small", "skewed", "balanced"):
        metrics[f"poly.mul.{group}.calls"] = (counters[f"poly.mul.{group}.calls"], "count")
        metrics[f"poly.mul.{group}.self_s"] = (counters[f"poly.mul.{group}.self_s"], "s")
    metrics.update({
        "poly.add.calls": (calls["poly.add"], "count"),
        "poly.add.self_s": (own["poly.add"], "s"),
        "poly.init.calls": (calls["poly.init"], "count"),
        "poly.init.self_s": (own["poly.init"], "s"),
        "poly.str.self_s": (own["poly.str"], "s"),
        "tl3.multiply.calls": (calls["tl3.multiply"], "count"),
        "bracket.compose.calls": (calls["bracket.compose"], "count"),
        "bracket.compose.self_s": (own["bracket.compose"], "s"),
        "bracket.power.s": (total["bracket.power"], "s"),
        "bracket.closure.s": (total["bracket.closure"], "s"),
        "bracket.closed_form_bracket.s": (total["bracket.closed_form_bracket"], "s"),
        "bracket.charpoly.s": (total["bracket.charpoly"], "s"),
        "series.expand.s": (total["series.expand"], "s"),
        "series.coefficient_table.s": (total["series.coefficient_table"], "s"),
        "oracle.enumerate_states.calls": (calls["oracle.enumerate_states"], "count"),
        "oracle.enumerate_states.s": (total["oracle.enumerate_states"], "s"),
        "oracle.states": (counters["oracle.states"], "count"),
        "oracle.ns_per_state.open": (per_state("open"), "ns"),
        "oracle.ns_per_state.closed": (per_state("closed"), "ns"),
        "oracle.from_json.s": (total["oracle.from_json"], "s"),
        "oracle.compile_word.s": (total["oracle.compile_word"], "s"),
        "generators.self_check.s": (total["generators.self_check"], "s"),
        "trace.requests": (len(requests), "count"),
        "trace.untraced_s": (plain_s, "s"),
        "trace.overhead_frac": (traced_s / plain_s - 1, "frac"),
    })
    return metrics, judged, tracer


# --- running the program -------------------------------------------------

class Launcher:
    """Runs CLI requests as children of the lean ``spawn.py`` helper process."""

    def __init__(self):
        work = ROOT / WORKDIR
        work.mkdir(parents=True, exist_ok=True)
        self.stdout, self.stderr = work / "stdout", work / "stderr"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.helper = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "spawn.py"), str(self.stdout),
             str(self.stderr)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def invoke(self, argv):
        """Run ``python -m shadowbracket.cli ARGV`` once.

        Returns (wall seconds, child user+sys seconds, child peak RSS in MB,
        response); the child's usage comes from ``wait4``.
        """
        command = [sys.executable, "-m", "shadowbracket.cli", *argv]
        self.helper.stdin.write("\0".join(command) + "\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        if not line:
            raise RuntimeError("the spawn.py helper exited unexpectedly")
        code, elapsed, cpu, rss_kib = line.split()
        response = workloads.Response.of(int(code), self.stdout.read_bytes(),
                                         self.stderr.read_bytes())
        return float(elapsed), float(cpu), int(rss_kib) / 1024, response

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.wait()
        self.helper.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is not None:
            self.helper.kill()
        self.close()


def call_main(cli, argv):
    """Run ``cli.main`` in this process, capturing what it prints and returns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            traceback.print_exc()
            code = 1
    return workloads.Response.of(code, out.getvalue().encode(), err.getvalue().encode())


# --- statistics, environment, reporting ----------------------------------

def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def environment() -> dict:
    """Python version, CPU model, core count, load average and commit."""
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), "")
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"python": sys.version.split()[0], "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg(),
            "commit": git_commit(), "src_sha256": digest.hexdigest(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(record: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} requests, {record['failed']} failed, "
          f"correct {record['correct']}; python {env['python']}, {env['nproc']} cpus, "
          f"load {env['loadavg'][0]:.2f}, commit {env['commit']}")
    for name, metric in record["all_metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for defect in record["known_defects"]:
        print(f"  known defect: {defect}")
    for argv, detail in record["wrong"]:
        print(f"  WRONG: {argv}: {detail}")


def compare(old_dir: Path, new_dir: Path) -> int:
    """Median and quartiles of both sides per workload and end-to-end metric.

    A metric is "worse" when the new median is worse than the old by more
    than its bound, and "unresolved" when either side's quartile spread
    exceeds the bound, unless every new run beats every old run.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [load_records(old_dir), load_records(new_dir)]
    worse = 0
    print(f"{'workload':12s} {'metric':16s} {'old median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'delta':>8s}  label")
    for workload in workloads.WORKLOADS:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in side
                       if r["workload"] == workload and name in r["metrics"]]
                      for side in sides]
            if not all(values):
                continue
            (old_med, old_q1, old_q3), (new_med, new_q1, new_q3) = map(quartiles, values)
            lower = metric["better"] == "lower"
            delta = (new_med - old_med) / old_med
            worse_by = delta if lower else -delta
            spread = max((old_q3 - old_q1) / old_med, (new_q3 - new_q1) / new_med)
            old, new = values
            every_run_better = max(new) < min(old) if lower else min(new) > max(old)
            if spread > bound and not every_run_better:
                label = "unresolved"
            elif worse_by > bound:
                label = "worse"
                worse += 1
            else:
                label = "within bound"
            print(f"{workload:12s} {name:16s} "
                  f"{old_med:12.6g} [{old_q1:9.4g}, {old_q3:9.4g}] "
                  f"{new_med:12.6g} [{new_q1:9.4g}, {new_q3:9.4g}] "
                  f"{delta:+8.1%}  {label} (bound {bound:.0%})")
    return 1 if worse else 0


def load_records(directory: Path) -> list[dict]:
    records = []
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            records.append(record)
    return records


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


if __name__ == "__main__":
    sys.exit(main())
