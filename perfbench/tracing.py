"""Spans around the public functions of each ``snakeq`` module, from outside.

Each wrapper replaces a name at the site where the library looks it up (a
module global such as ``snakeq.expansion.qmul``, or a class attribute such as
``SnakeGraph.height_vector``) and records one span per call: name, start, end,
parent span and case id.  Spans stay in memory until the run ends.  Two very
hot methods are only counted (``METHOD_COUNTS``).  :meth:`Tracer.remove`
restores every patched name.
"""

from __future__ import annotations

import gzip
import statistics
import weakref
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name).  A function imported into several modules
# is patched in each module that calls it.
FUNCTION_SPANS = (
    ("snakeq.snakegraph", "trace_arc", "surface.trace_arc"),
    ("snakeq.expansion", "flip", "surface.flip"),
    ("snakeq.cli", "flip", "surface.flip"),
    ("snakeq.expansion", "compute_valuation", "valuation.compute_valuation"),
    ("snakeq.cli", "compute_valuation", "valuation.compute_valuation"),
    ("snakeq.valuation", "omega", "valuation.omega"),
    ("snakeq.cli", "omega", "valuation.omega"),
    ("snakeq.seeds", "check_compatible", "seeds.check_compatible"),
    ("snakeq.expansion", "mutate_seed", "seeds.mutate_seed"),
    ("snakeq.expansion", "qmul", "qalgebra.qmul"),
    ("snakeq.qalgebra", "qmul", "qalgebra.qmul"),
    ("snakeq.expansion", "exact_right_divide", "qalgebra.exact_right_divide"),
    ("snakeq.cli", "quantum_expand", "expansion.quantum_expand"),
    ("snakeq.expansion", "quantum_expand", "expansion.quantum_expand"),
    ("snakeq.cli", "commutative_expand", "expansion.commutative_expand"),
    ("snakeq.expansion", "oracle_mutate_variables", "expansion.oracle_mutate_variables"),
)

# (module, class, method, span name).
METHOD_SPANS = (
    ("snakeq.snakegraph", "SnakeGraph", "__init__", "snakegraph.build"),
    ("snakeq.snakegraph", "SnakeGraph", "matchings", "snakegraph.matchings"),
    ("snakeq.snakegraph", "SnakeGraph", "height_vector", "snakegraph.height_vector"),
    ("snakeq.snakegraph", "SnakeGraph", "minimal_matching", "snakegraph.minimal_matching"),
    ("snakeq.qalgebra", "QuantumLaurent", "__add__", "qalgebra.add"),
    ("snakeq.qalgebra", "QuantumLaurent", "__sub__", "qalgebra.add"),
)

# (module, class, method, counter): called too often for a span each.
METHOD_COUNTS = (
    ("snakeq.snakegraph", "SnakeGraph", "twist", "snakegraph.twist.calls"),
    ("snakeq.qalgebra", "QuantumLaurent", "__init__", "qalgebra.construct.calls"),
)

# Span names whose call counts are reported as per-layer metrics.
COUNTED = (
    "surface.trace_arc",
    "surface.flip",
    "snakegraph.height_vector",
    "snakegraph.minimal_matching",
    "valuation.omega",
    "seeds.check_compatible",
    "seeds.mutate_seed",
    "qalgebra.add",
    "qalgebra.qmul",
    "qalgebra.exact_right_divide",
)

# Span names whose self time is reported as a per-layer metric.
TIMED = (
    "surface.trace_arc",
    "surface.flip",
    "snakegraph.build",
    "snakegraph.matchings",
    "snakegraph.height_vector",
    "snakegraph.minimal_matching",
    "valuation.compute_valuation",
    "valuation.omega",
    "seeds.check_compatible",
    "seeds.mutate_seed",
    "qalgebra.add",
    "qalgebra.qmul",
    "qalgebra.exact_right_divide",
    "expansion.quantum_expand",
    "expansion.commutative_expand",
    "expansion.oracle_mutate_variables",
    "cli.main",
)

# Span names whose inclusive time is also reported: the division's own self
# time is small because its remainder updates are ``qalgebra.add`` children.
INCLUSIVE = (
    "valuation.compute_valuation",
    "qalgebra.exact_right_divide",
    "expansion.quantum_expand",
    "expansion.oracle_mutate_variables",
)


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index, case, enumerated].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.case = ""
        self._patched: list[tuple[object, str, object]] = []
        self._enumerated: weakref.WeakSet = weakref.WeakSet()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.case, 0])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[idx]
                span[1] = start
                span[2] = end

        return traced

    def _wrap_matchings(self, fn):
        """Span for ``SnakeGraph.matchings`` that also counts first enumerations."""
        traced = self.wrap("snakegraph.matchings", fn)
        spans, seen = self.spans, self._enumerated

        def matchings(graph):
            idx = len(spans)
            result = traced(graph)
            if graph not in seen:
                seen.add(graph)
                spans[idx][5] = len(result)
            return result

        return matchings

    def _count(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, modules: dict) -> None:
        """Patch every lookup site; names missing from ``modules`` are skipped."""
        for module_name, attr, name in FUNCTION_SPANS:
            module = modules.get(module_name)
            if module is not None and hasattr(module, attr):
                self._patch(module, attr, self.wrap(name, getattr(module, attr)))
        for module_name, cls_name, attr, name in METHOD_SPANS + METHOD_COUNTS:
            cls = getattr(modules.get(module_name), cls_name, None)
            if cls is None or attr not in vars(cls):
                continue
            original = vars(cls)[attr]
            if name.endswith(".calls"):
                wrapped = self._count(name, original)
            elif attr == "matchings":
                wrapped = self._wrap_matchings(original)
            else:
                wrapped = self.wrap(name, original)
            self._patch(cls, attr, wrapped)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def _ancestor(spans: list[list], idx: int, name: str) -> int:
    """Index of the nearest enclosing span called ``name``, or -1."""
    idx = spans[idx][3]
    while idx >= 0 and spans[idx][0] != name:
        idx = spans[idx][3]
    return idx


def layer_metrics(
    spans: list[list], counts: Counter, terms: dict, twist_edges: dict
) -> dict[str, float]:
    """Per-layer counts and self times of one traced round.

    ``terms`` and ``twist_edges`` map a case id to its term and twist-edge
    counts; they are the bases of the two per-unit ratios.
    """
    calls: Counter[str] = Counter()
    self_s: defaultdict[str, float] = defaultdict(float)
    total_s: defaultdict[str, float] = defaultdict(float)
    for i, ((name, start, end, parent, case, enumerated), own) in enumerate(zip(spans, _self_times(spans))):
        self_s[name] += own
        if _ancestor(spans, i, name) < 0:
            total_s[name] += end - start
        if name == "qalgebra.add" and parent >= 0 and spans[parent][0] == name:
            continue  # __sub__ delegates to __add__: one call, not two
        calls[name] += 1

    expand_terms = 0
    valued_edges = 0
    matchings = 0
    expand_matchings = 0
    for i, (name, start, end, parent, case, enumerated) in enumerate(spans):
        case_id = case.split("/")[0]
        if name == "expansion.quantum_expand":
            expand_terms += terms[case_id]
        elif name == "valuation.compute_valuation":
            valued_edges += twist_edges[case_id]
        elif name == "snakegraph.matchings" and enumerated:
            matchings += enumerated
            if _ancestor(spans, i, "expansion.quantum_expand") >= 0:
                expand_matchings += enumerated
    divisions = calls["qalgebra.exact_right_divide"]
    divide_steps = sum(division_steps(spans).values())

    out: dict[str, float] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = calls[name]
    for name in TIMED:
        out[f"{name}.self_s"] = self_s[name]
    for name in INCLUSIVE:
        out[f"{name}.total_s"] = total_s[name]
    out["snakegraph.matchings.count"] = matchings
    out["snakegraph.twist.calls"] = counts["snakegraph.twist.calls"]
    out["snakegraph.twist_edges"] = valued_edges
    out["valuation.omega_per_twist_edge"] = calls["valuation.omega"] / valued_edges if valued_edges else 0.0
    out["qalgebra.construct.calls"] = counts["qalgebra.construct.calls"]
    out["qalgebra.divide_steps"] = divide_steps / divisions if divisions else 0.0
    out["expansion.terms"] = expand_terms
    out["expansion.terms_per_matching"] = expand_terms / expand_matchings if expand_matchings else 0.0
    return out


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    cover = [0.0] * len(spans)
    for name, start, end, parent, case, enumerated in spans:
        if parent >= 0:
            cover[parent] += end - start
    return [(end - start) - c for (_, start, end, *_), c in zip(spans, cover)]


def case_self_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Self time per span name, grouped by the span's case id."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (name, start, end, parent, case, enumerated), own in zip(spans, _self_times(spans)):
        out[case][name] += own
    return out


def division_steps(spans: list[list]) -> dict[str, int]:
    """Exact-division elimination steps per case id.

    A step is one ``qmul`` child of ``exact_right_divide``; the last child of
    each division is the final check of the quotient, not a step.
    """
    steps: Counter[str] = Counter()
    for name, start, end, parent, case, enumerated in spans:
        if name == "qalgebra.exact_right_divide":
            steps[case] -= 1
        elif name == "qalgebra.qmul" and parent >= 0 and spans[parent][0] == "qalgebra.exact_right_divide":
            steps[case] += 1
    return dict(steps)


def write_spans(path, rounds: list[list[list]]) -> None:
    """One CSV line per span: round, index, name, start, end, parent, case."""
    with gzip.open(path, "wt", encoding="utf-8") as out:
        out.write("round,index,name,start,end,parent,case,enumerated\n")
        for r, spans in enumerate(rounds):
            for i, (name, start, end, parent, case, enumerated) in enumerate(spans):
                out.write(f"{r},{i},{name},{start:.9f},{end:.9f},{parent},{case},{enumerated}\n")


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    """Median seconds over the traced rounds; counts, equal in every round, as is."""
    return {
        k: statistics.median(r[k] for r in per_round) if k.endswith("_s") else v
        for k, v in per_round[0].items()
    }
