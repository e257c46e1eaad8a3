"""Time the four ROADMAP baseline cases once, through the traced path.

    python3 perfbench/reconcile.py

The cases are ladder d=14, annulus bridge w=9, the 200-crossing chord of the
200-fan (all ``expand --quantum``) and the ladder d=12 oracle (``verify``
along 0..11), each with the principal seed.  For each the script prints the
untraced and the traced CLI call time, in wall seconds and in the scaled
seconds of ``run.Clock``, then the traced call's inclusive wall time in
``expansion.quantum_expand`` or ``expansion.oracle_mutate_variables``, which
are the stages the ROADMAP table reports.
"""

from __future__ import annotations

import json
import shutil
import sys
from collections import defaultdict

import checks
import corpus
import run
import tracing

CASES = (
    # (label, spec, mode, span reported, terms, ROADMAP seconds)
    ("ladder d=14", corpus.ladder_case(14), "expand_q", "expansion.quantum_expand", 987, 4.1),
    ("annulus bridge w=9", corpus.bridge_case(9), "expand_q", "expansion.quantum_expand", 37, 2.6),
    ("zigzag fan chord, 200 tiles", corpus.fan_chord_case(200, 200, verify=False), "expand_q",
     "expansion.quantum_expand", 201, 6.0),
    ("ladder d=12 oracle (12 flips)", corpus.ladder_case(12), "verify",
     "expansion.oracle_mutate_variables", 377, 2.2),
)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import snakeq
    import snakeq.cli  # noqa: F401  (the CLI module is not imported by the package)

    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("snakeq")}
    cli_main = modules["snakeq.cli"].main

    workdir = run.OUT / "reconcile"
    workdir.mkdir(parents=True, exist_ok=True)
    status = 0
    try:
        for label, spec, mode, span_name, n_terms, roadmap_s in CASES:
            t = snakeq.Triangulation.from_dict(spec.surface)
            seed = snakeq.principal_seed(snakeq.signed_adjacency(t))
            paths = [workdir / f"{part}.json" for part in ("surface", "arc", "seed")]
            for path, data in zip(paths, (spec.surface, spec.arc, seed.to_dict())):
                path.write_text(json.dumps(data))
            case = run.Case(spec, 1, *paths)

            def call(main, argv):
                code, out, seconds, crash = run.call_cli(main, argv)
                if code != 0 or crash:
                    problems.append(f"{argv[0]} exited {code}: {crash.strip()}")
                return out, seconds

            problems: list[str] = []
            quantum_out, _ = call(cli_main, case.argv("expand_q"))
            quantum, found = checks.check_quantum(quantum_out, spec.matchings, n_terms)
            problems += found
            clock = run.Clock()
            out, plain_s = call(cli_main, case.argv(mode))
            clock.lap(plain_s)
            if mode == "verify":
                problems += checks.check_verify(out, 0, spec.plan[-1], quantum)

            tracer = tracing.Tracer()
            tracer.install(modules)
            try:
                _, traced_s = call(tracer.wrap("cli.main", cli_main), case.argv(mode))
            finally:
                tracer.remove()
            clock.lap(traced_s)
            plain_scaled, traced_scaled = clock.settle()
            spans, _ = tracer.take()
            inclusive = defaultdict(float)
            for name, start, end, parent, _, _ in spans:
                if parent >= 0 and spans[parent][0] == "cli.main":
                    inclusive[name] += end - start
            self_times = tracing.case_self_times(spans)[""]
            top = sorted(self_times.items(), key=lambda item: -item[1])[:2]
            print(
                f"{label}: ROADMAP {roadmap_s:.1f} s | untraced call {plain_s:.2f} s "
                f"({plain_scaled:.2f} scaled) | traced call {traced_s:.2f} s ({traced_scaled:.2f} "
                f"scaled), {span_name} {inclusive[span_name]:.2f} s | "
                "top self time " + ", ".join(f"{n} {s:.2f} s" for n, s in top)
                + (f" | FAIL {problems}" if problems else "")
            )
            status |= bool(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
