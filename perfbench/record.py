"""Record expected.json: output digests and counts of every benchmark case.

Run from the root of a checkout of the commit whose output is the reference:

    python3 perfbench/record.py

Quantum output depends on the seed only through the scale d (the kernel
perturbation of the skew form does not change the expansion), so each case
and mode gets one sha256 per d in {1, 2}, made here with the unperturbed form
d * Lambda_principal.  The term count comes from the quantum output and the
twist-edge count from ``SnakeGraph.twist_graph``.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import corpus
import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import snakeq
    from snakeq.cli import main as cli_main

    workdir = run.OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    expected = {}
    try:
        specs = {s.case_id: s for w in corpus.WORKLOADS for s in corpus.workload_cases(w)}
        for case_id, spec in sorted(specs.items()):
            t = snakeq.Triangulation.from_dict(spec.surface)
            b = snakeq.signed_adjacency(t)
            principal = snakeq.principal_seed(b)
            graph = snakeq.SnakeGraph(t, snakeq.Arc.from_dict(spec.arc))
            entry = {"terms": None, "twist_edges": len(graph.twist_graph()[1]),
                     "sha256": {mode: {} for mode in run.MODES}}
            surface_path = workdir / "surface.json"
            surface_path.write_text(json.dumps(spec.surface))
            (workdir / "arc.json").write_text(json.dumps(spec.arc))
            for d_scale in (1, 2):
                lam = [[d_scale * v for v in row] for row in principal.lam.rows]
                seed = snakeq.Seed(principal.btilde, snakeq.LambdaForm(lam))
                (workdir / "seed.json").write_text(json.dumps(seed.to_dict()))
                case = run.Case(spec, d_scale, surface_path, workdir / "arc.json",
                                workdir / "seed.json")
                for mode in run.MODES:
                    if mode == "verify" and not spec.verify:
                        continue
                    code, out, _, crash = run.call_cli(cli_main, case.argv(mode))
                    if code != 0 or crash:
                        raise SystemExit(f"{case_id} {mode} d={d_scale} failed: {crash}")
                    entry["sha256"][mode][str(d_scale)] = checks.digest(out)
                    if mode == "expand_q":
                        entry["terms"] = len(out.splitlines())
            expected[case_id] = entry
            print(f"recorded {case_id}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
