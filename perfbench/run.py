"""Benchmark of the ``snakeq`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload annulus --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

One run sets up the workload's inputs (several times, to time set-up), then
repeats rounds until the next one would end after ``--seconds``.  Every timing
is the median over the run, in seconds scaled to a reference speed (see
:class:`Clock`).  A round is four passes over the
workload's cases, one per CLI mode, each calling ``snakeq.cli.main`` in
process with stdout captured: ``expand --quantum --machine``, ``expand
--machine``, ``expand --quantum --audit --machine`` and ``verify``.  Calls run
one at a time in one thread (a closed loop with one client), because the CLI
is a batch tool whose caller waits for each reply.

Every output is checked (see checks.py).  With ``--trace 1`` rounds alternate
between untraced and traced, and the run reports per-layer metrics instead of
end-to-end ones.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import corpus
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS of wall
# time are spent (at most SETUP_MAX times); a cheap set-up thus gets more
# samples for its median.
SETUP_REPEATS = 7
SETUP_SECONDS = 1.0
SETUP_MAX = 40
REF_NOMINAL_S = 0.010  # reference loop time that defines one scaled second
MODES = ("expand_q", "expand_c", "audit", "verify")
MODE_FLAGS = {
    "expand_q": ["--quantum", "--machine"],
    "expand_c": ["--machine"],
    "audit": ["--quantum", "--audit", "--machine"],
}


@dataclass
class Case:
    spec: corpus.CaseSpec
    d_scale: int
    surface_path: Path
    arc_path: Path
    seed_path: Path

    @property
    def case_id(self) -> str:
        return self.spec.case_id

    def argv(self, mode: str) -> list[str]:
        files = [
            "--surface", str(self.surface_path),
            "--arc", str(self.arc_path),
            "--seed", str(self.seed_path),
        ]
        if mode == "verify":
            plan = ",".join(str(k) for k in self.spec.plan)
            return ["verify", *files, "--flips", plan, "--slot", str(self.spec.plan[-1])]
        return ["expand", *files, *MODE_FLAGS[mode]]


@dataclass
class Setup:
    modules: dict
    cases: list[Case]


@dataclass
class Tally:
    """Checked calls, failures with their case ids, and per-call timings."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    call_s: dict = field(default_factory=dict)  # (case id, mode) -> [seconds]

    def record(self, case_id: str, mode: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{case_id} {mode}: {p}" for p in problems)


def _purge_snakeq() -> None:
    for name in [m for m in sys.modules if m == "snakeq" or m.startswith("snakeq.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, workdir: Path) -> Setup:
    """Import snakeq, generate and validate the inputs, and write them as JSON."""
    _purge_snakeq()
    snakeq = importlib.import_module("snakeq")
    modules = {
        name: importlib.import_module(name)
        for name in (
            "snakeq", "snakeq.cli", "snakeq.expansion", "snakeq.qalgebra",
            "snakeq.seeds", "snakeq.snakegraph", "snakeq.surface", "snakeq.valuation",
        )
    }
    if Path(snakeq.__file__).resolve().parent != SRC / "snakeq":
        raise RuntimeError(f"imported snakeq from {snakeq.__file__}, not from {SRC}")

    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    surfaces: dict[str, tuple] = {}
    cases = []
    for spec in corpus.workload_cases(workload):
        if spec.surface_id not in surfaces:
            t = snakeq.Triangulation.from_dict(spec.surface)
            b = snakeq.signed_adjacency(t)
            path = workdir / f"{spec.surface_id}.surface.json"
            path.write_text(json.dumps(spec.surface))
            surfaces[spec.surface_id] = (t, b, snakeq.principal_lambda(b).rows, path)
        t, b, principal_rows, surface_path = surfaces[spec.surface_id]
        snakeq.trace_arc(t, snakeq.Arc.from_dict(spec.arc))
        d_scale, rows = corpus.quantize(rng, b, principal_rows)
        n = len(b)
        btilde = [list(row) for row in b] + [
            [1 if j == i else 0 for j in range(n)] for i in range(n)
        ]
        quantized = snakeq.Seed(btilde, snakeq.LambdaForm(rows))
        arc_path = workdir / f"{spec.case_id}.arc.json"
        seed_path = workdir / f"{spec.case_id}.seed.json"
        arc_path.write_text(json.dumps(spec.arc))
        seed_path.write_text(json.dumps(quantized.to_dict()))
        cases.append(Case(spec, d_scale, surface_path, arc_path, seed_path))
    rng.shuffle(cases)
    return Setup(modules, cases)


_REF_ROWS = [[(i * j) % 5 - 2 for j in range(64)] for i in range(64)]


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop.

    It mixes the two kinds of work the workloads spend their time in: dict,
    tuple and frozenset traffic (matchings, Laurent terms) and integer dot
    products in generator expressions (seed compatibility).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        counts: dict = {}
        acc = 0
        for i in range(10000):
            key = (i & 63, i % 7)
            counts[key] = counts.get(key, 0) + 1
            acc ^= hash(frozenset((i & 15, i & 31)))
        rows = _REF_ROWS
        for j in range(0, 64, 2):
            for i in range(0, 64, 4):
                acc += sum(rows[k][j] * rows[k][i] for k in range(64))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Converts wall seconds to seconds at reference speed.

    A shared host changes speed by up to 60% in phases lasting from one to
    tens of seconds (a fixed loop took 21 to 34 ms within three minutes on a
    2-vCPU virtual machine), and single 10 ms loops jitter by about 15%.  The
    reference loop therefore runs after every timed call, and each call's wall
    time is multiplied by REF_NOMINAL_S over the median of the WINDOW loop
    times before it and the WINDOW after it.
    """

    WINDOW = 3

    def __init__(self) -> None:
        self.refs = [reference_s()]
        self.raw_s = 0.0
        self._pending: list[tuple[float, int]] = []

    def lap(self, seconds: float) -> None:
        """Record one timed call's wall time and run the reference loop after it."""
        self.raw_s += seconds
        self.refs.append(reference_s())
        self._pending.append((seconds, len(self.refs) - 1))

    def settle(self) -> list[float]:
        """Scaled seconds of every call recorded since the last settle."""
        for _ in range(self.WINDOW - 1):
            self.refs.append(reference_s())
        scaled = []
        for seconds, after in self._pending:
            window = self.refs[max(0, after - self.WINDOW) : after + self.WINDOW]
            scaled.append(seconds * REF_NOMINAL_S / statistics.median(window))
        self._pending.clear()
        return scaled


def call_cli(main, argv: list[str]) -> tuple[int | None, str, float, str]:
    """One in-process CLI call: exit code, stdout, seconds, and any crash."""
    out, err = io.StringIO(), io.StringIO()
    crash = ""
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed case, and the run goes on
        code = None
        crash = traceback.format_exc(limit=3)
    elapsed = perf_counter() - start
    if err.getvalue():
        crash += err.getvalue()
    return code, out.getvalue(), elapsed, crash


def run_round(setup: Setup, main, tally: Tally, expected: dict, clock: Clock, tracer=None) -> dict[str, float]:
    """Four passes, one per mode; returns the scaled pass times and checks every output."""
    pass_s = {}
    outputs: dict[tuple[str, str], tuple] = {}
    for mode in MODES:
        cases = [c for c in setup.cases if mode != "verify" or c.spec.verify]
        gc.collect()
        results = []
        for case in cases:
            if tracer is not None:
                tracer.case = f"{case.case_id}/{mode}"
            code, out, seconds, crash = call_cli(main, case.argv(mode))
            clock.lap(seconds)
            results.append((case, code, out, crash))
        scaled = clock.settle()
        for (case, code, out, crash), seconds in zip(results, scaled):
            outputs[case.case_id, mode] = (code, out, seconds, crash)
        pass_s[mode] = sum(scaled)
    for case in setup.cases:
        check_case(case, outputs, tally, expected.get(case.case_id), timed=tracer is None)
    return pass_s


def check_case(case: Case, outputs: dict, tally: Tally, expected: dict | None, timed: bool) -> None:
    """Check one case's outputs of a round; untraced call times go to the rows."""
    spec = case.spec
    if expected is None:
        tally.record(case.case_id, "setup", ["no recorded expectations for this case"])
        return
    n_terms = expected["terms"]
    parsed = {}
    for mode in MODES:
        if (case.case_id, mode) not in outputs:
            continue
        code, out, seconds, crash = outputs[case.case_id, mode]
        if timed:
            tally.call_s.setdefault((case.case_id, mode), []).append(seconds)
        problems = [f"crashed or wrote to stderr: {crash.strip()}"] if crash else []
        if mode == "verify":
            problems += checks.check_verify(out, code, spec.plan[-1], parsed.get("expand_q"))
        else:
            if code != 0:
                problems.append(f"exited {code}")
            check = {
                "expand_q": checks.check_quantum,
                "expand_c": checks.check_commutative,
                "audit": checks.check_audit,
            }[mode]
            parsed[mode], found = check(out, spec.matchings, n_terms)
            problems += found
            if mode == "expand_c":
                problems += checks.cross_problems(parsed.get("expand_q"), parsed["expand_c"])
        want = expected["sha256"][mode].get(str(case.d_scale))
        if want is not None and checks.digest(out) != want:
            problems.append(f"output differs from the seed commit (d={case.d_scale})")
        tally.record(case.case_id, mode, problems)


def twist_edges(setup: Setup) -> dict[str, int]:
    """Twist moves of every case's snake graph, counted outside the timed passes."""
    snakeq = setup.modules["snakeq"]
    out = {}
    for case in setup.cases:
        t = snakeq.Triangulation.from_dict(case.spec.surface)
        graph = snakeq.SnakeGraph(t, snakeq.Arc.from_dict(case.spec.arc))
        out[case.case_id] = len(graph.twist_graph()[1])
    return out


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return "no percentile has ten samples beyond it"
    rank = n - 11
    return f"p{100 * (rank + 1) // n}={sorted(values)[rank]:.6f}"


def print_rows(setup: Setup, tally: Tally, edges: dict, steps: dict, expected: dict) -> None:
    for case in sorted(setup.cases, key=lambda c: c.case_id):
        spec = case.spec
        times = " ".join(
            f"{mode}_ms={1000 * statistics.median(tally.call_s[case.case_id, mode]):.1f}"
            for mode in MODES
            if (case.case_id, mode) in tally.call_s
        )
        div = steps.get(f"{case.case_id}/verify", "-")
        terms = expected.get(case.case_id, {}).get("terms", "?")
        print(
            f"row {case.case_id} d={spec.d} m={2 * spec.n} q_scale={case.d_scale} "
            f"matchings={spec.matchings} terms={terms} twist_edges={edges[case.case_id]} "
            f"flips={len(spec.plan) if spec.verify else 0} division_steps={div} {times}"
        )


def check_counts(setup: Setup, edges: dict, expected: dict, tally: Tally) -> None:
    for case in setup.cases:
        want = expected.get(case.case_id, {}).get("twist_edges")
        problems = [] if want == edges[case.case_id] else [
            f"{edges[case.case_id]} twist edges, recorded {want}"
        ]
        tally.record(case.case_id, "twist_graph", problems)


def measure(args) -> tuple[dict, Tally]:
    expected = json.loads(EXPECTED.read_text())
    workdir = OUT / f"inputs-{args.workload}-{os.getpid()}"
    tally = Tally()
    clock = Clock()
    try:
        setup_raw: list[float] = []
        while len(setup_raw) < (1 if args.trace else SETUP_MAX):
            gc.collect()
            start = perf_counter()
            setup = set_up(args.workload, args.seed, workdir)
            setup_raw.append(perf_counter() - start)
            clock.lap(setup_raw[-1])
            if len(setup_raw) >= SETUP_REPEATS and sum(setup_raw) >= SETUP_SECONDS:
                break
        setup_s = clock.settle()
        main = setup.modules["snakeq.cli"].main

        if args.trace:
            return measure_traced(args, setup, main, tally, expected, clock), tally

        passes: dict[str, list[float]] = {m: [] for m in MODES}
        round_s = []
        start = perf_counter()
        clock.raw_s = 0.0
        while True:
            r0 = perf_counter()
            for mode, seconds in run_round(setup, main, tally, expected, clock).items():
                passes[mode].append(seconds)
            round_s.append(perf_counter() - r0)
            if perf_counter() - start + statistics.median(round_s) > args.seconds:
                break
        raw_round_s = clock.raw_s / len(round_s)
        edges = twist_edges(setup)
        check_counts(setup, edges, expected, tally)
        print_rows(setup, tally, edges, {}, expected)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        metrics = {"setup_s": setup_s}
        for mode in MODES:
            metrics[f"{mode}_s"] = passes[mode]  # one pass over the cases
        for name, values in metrics.items():
            print(
                f"metric {name} = {statistics.median(values):.6f} s "
                f"(median of n={len(values)}; {tail_percentile(values)})"
            )
        print(f"metric peak_rss_mb = {rss_mb:.3f} MB (one per process)")
        print(f"metric fail_frac = {tally.failed / max(tally.attempted, 1):.6f} ratio "
              f"({tally.failed} of {tally.attempted} checked calls)")
        print(
            f"wall: setup {statistics.median(setup_raw):.6f} s, round {raw_round_s:.6f} s; "
            f"reference loop median {1000 * statistics.median(clock.refs):.3f} ms "
            f"(scaled seconds assume {1000 * REF_NOMINAL_S:.0f} ms)"
        )
        result = {name: {"value": statistics.median(v), "unit": "s"} for name, v in metrics.items()}
        result["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        return result, tally
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_traced(args, setup: Setup, main, tally: Tally, expected: dict, clock: Clock) -> dict:
    """Alternate untraced and traced rounds; report per-layer metrics.

    Span seconds are scaled by the reference loop's median over their round.
    """
    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", main)
    plain_s, traced_s, rounds, per_round, steps_seen = [], [], [], [], []
    edges = twist_edges(setup)
    terms = {case_id: e["terms"] for case_id, e in expected.items()}
    start = perf_counter()
    while True:
        r0 = perf_counter()
        plain_s.append(sum(run_round(setup, main, tally, expected, clock).values()))
        first_ref = len(clock.refs)
        tracer.install(setup.modules)
        try:
            traced_s.append(sum(run_round(setup, traced_main, tally, expected, clock, tracer).values()))
        finally:
            tracer.remove()
        spans, counts = tracer.take()
        rounds.append(spans)
        factor = REF_NOMINAL_S / statistics.median(clock.refs[first_ref:])
        metrics = tracing.layer_metrics(spans, counts, terms, edges)
        per_round.append({k: v * factor if k.endswith("_s") else v for k, v in metrics.items()})
        steps_seen.append(tracing.division_steps(spans))
        if perf_counter() - start + (perf_counter() - r0) > args.seconds:
            break

    count_keys = [k for k in per_round[0] if not k.endswith("_s")]
    for r, metrics in enumerate(per_round[1:], start=2):
        changed = [k for k in count_keys if metrics[k] != per_round[0][k]]
        if changed or steps_seen[r - 1] != steps_seen[0]:
            tally.record("all", f"traced round {r}", [f"counts changed: {changed or 'division steps'}"])
    check_counts(setup, edges, expected, tally)
    print_rows(setup, tally, edges, steps_seen[0], expected)
    print_shares(tracing.case_self_times(rounds[0]))

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracing.write_spans(spans_path, rounds)
    print(f"spans of {len(rounds)} traced rounds written to {spans_path.relative_to(ROOT)}")

    layer = tracing.median_metrics(per_round)
    layer["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    result = {}
    for name, value in layer.items():
        unit = metric_unit(name)
        print(f"layer {name} = {value:.6f} {unit}" if unit == "s" else f"layer {name} = {value} {unit}")
        result[name] = {"value": value, "unit": unit}
    return result


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_twist_edge"):
        return "calls/edge"
    if name.endswith("_per_matching"):
        return "terms/matching"
    if name == "qalgebra.divide_steps":
        return "steps/division"
    return "count"


def print_shares(by_case: dict[str, dict[str, float]]) -> None:
    """Largest self-time shares per case and mode in the first traced round."""
    for key in sorted(by_case):
        layers = by_case[key]
        total = sum(layers.values())
        top = sorted(layers.items(), key=lambda item: -item[1])[:3]
        shares = ", ".join(f"{name} {100 * s / total:.0f}%" for name, s in top)
        print(f"share {key} total={total:.3f}s: {shares}")


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS belongs to one workload."""
    status = 0
    for workload in corpus.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print(f"== {workload} (exit {proc.returncode})")
        for line in lines[:-1]:
            if line.startswith(("metric ", "layer ", "FAIL ")):
                print(f"  {line}")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        status |= not result["correct"]
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS,
                        help="one workload; omit to run every workload in turn")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced rounds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "snakeq" / "cli.py").is_file():
        print(f"error: no snakeq sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    metrics, tally = measure(args)
    for problem in tally.problems:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
