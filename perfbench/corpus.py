"""Generated inputs for the benchmark: surfaces, arcs, flip plans, seeds.

Surfaces and arcs are fixed per workload; only the quantization of each case
(the scale d and a kernel perturbation of the principal skew form) and the
case order depend on the workload seed.  Every builder returns plain JSON
data in the format the ``snakeq`` CLI reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Closed forms for the matching count, so the output check does not rerun the
# enumerator it is checking.
STRAIGHT = "straight"  # ladder arcs and annulus bridges: F(d + 2)
ZIGZAG = "zigzag"      # fan chords: d + 1


def fibonacci(i: int) -> int:
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


def expected_matchings(shape: str, d: int) -> int:
    return fibonacci(d + 2) if shape == STRAIGHT else d + 1


def annulus_surface() -> dict:
    """Annulus with one marked point per boundary circle (arcs 0 and 1)."""
    return {"n_internal": 2, "n_boundary": 2, "triangles": [[0, 1, 2], [0, 1, 3]]}


def ladder_surface(d: int) -> dict:
    """Zigzag-triangulated polygon whose arc ladder_arc(d) is a straight snake."""
    triangles = [[0, d, d + 1]]
    for j in range(1, d):
        if j % 2 == 1:
            triangles.append([j - 1, j, d + 1 + j])
        else:
            triangles.append([j, j - 1, d + 1 + j])
    if d % 2 == 1:
        triangles.append([d - 1, 2 * d + 1, 2 * d + 2])
    else:
        triangles.append([2 * d + 1, d - 1, 2 * d + 2])
    return {"n_internal": d, "n_boundary": d + 3, "triangles": triangles}


def fan_surface(k: int) -> dict:
    """(k+3)-gon triangulated by the fan at vertex 0."""
    n = k + 3
    triangles = []
    for v in range(1, n - 1):
        outgoing = v - 1 if v + 1 <= n - 2 else k + n - 1
        incoming = v - 2 if v >= 2 else k
        triangles.append([outgoing, k + v, incoming])
    return {"n_internal": k, "n_boundary": n, "triangles": triangles}


def annulus_bridge(w: int) -> tuple[dict, list[int]]:
    """Bridge between the two boundary points winding |w| times, with its plan.

    Positive w crosses arc 0 first and has 2w-3 crossings; negative w crosses
    arc 1 first and has -2w-1 crossings.
    """
    if w >= 2:
        d = 2 * w - 3
        crossings = [i % 2 for i in range(d)]
        plan = [i % 2 for i in range(w - 1)]
    elif w <= -1:
        d = -2 * w - 1
        crossings = [(i + 1) % 2 for i in range(d)]
        plan = [(i + 1) % 2 for i in range(-w)]
    else:
        raise ValueError("w must be >= 2 or <= -1")
    return {"crossings": crossings, "start_triangle": 0, "end_triangle": 1}, plan


def straight_chord(first: int, length: int) -> tuple[dict, list[int]]:
    """Arc crossing internal arcs first..first+length-1 in order, with its plan.

    On a ladder surface (first = 0, length = d) this is the ladder arc; on a
    fan it is the chord between vertices first+1 and first+length+2.
    """
    crossings = list(range(first, first + length))
    arc = {
        "crossings": crossings,
        "start_triangle": first,
        "end_triangle": first + length,
    }
    return arc, list(crossings)


@dataclass(frozen=True)
class CaseSpec:
    """One arc of a workload; ``verify`` says whether the oracle pass runs it."""

    case_id: str
    surface_id: str
    surface: dict
    arc: dict
    plan: tuple[int, ...]
    shape: str
    verify: bool

    @property
    def d(self) -> int:
        return len(self.arc["crossings"])

    @property
    def n(self) -> int:
        return self.surface["n_internal"]

    @property
    def matchings(self) -> int:
        return expected_matchings(self.shape, self.d)


def bridge_case(w: int, verify: bool = True) -> CaseSpec:
    arc, plan = annulus_bridge(w)
    return CaseSpec(
        f"annulus.w{w:+d}", "annulus", annulus_surface(), arc, tuple(plan),
        STRAIGHT, verify,
    )


def ladder_case(d: int, verify: bool = True) -> CaseSpec:
    arc, plan = straight_chord(0, d)
    return CaseSpec(
        f"ladder.d{d}", f"ladder{d}", ladder_surface(d), arc, tuple(plan),
        STRAIGHT, verify,
    )


def fan_chord_case(k: int, length: int, verify: bool) -> CaseSpec:
    arc, plan = straight_chord(0, length)
    return CaseSpec(
        f"fan{k}.chord{length}", f"fan{k}", fan_surface(k), arc, tuple(plan),
        ZIGZAG, verify,
    )


def workload_cases(name: str) -> list[CaseSpec]:
    """The fixed case list of a workload, in canonical order.

    Sizes keep every call short enough for many samples per run; NOTES.md
    gives the reasons per workload.
    """
    if name == "annulus":
        return [bridge_case(w) for w in (6, 7, -5, -6)]
    if name == "polygon":
        # The oracle of a fan chord mutates a width-2k seed once per crossing,
        # so only the short chord is verified.
        return [
            ladder_case(10),
            fan_chord_case(60, 3, verify=True),
            fan_chord_case(60, 30, verify=False),
            fan_chord_case(60, 60, verify=False),
        ]
    if name == "oracle":
        return [ladder_case(d) for d in (8, 9, 10)] + [
            bridge_case(w) for w in (5, 6, -4, -5)
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("annulus", "polygon", "oracle")


def quantize(rng: random.Random, b_matrix: list[list[int]], principal_rows) -> tuple[int, list[list[int]]]:
    """Draw a compatible skew form: d times the principal one, plus a kernel term.

    The perturbation is sum c * (w_a w_b^T - w_b w_a^T) with w_a = (e_a, B e_a).
    Since B is skew, transpose(B over I) * w_a = 0, so the pair stays
    compatible with the same scalar d.
    """
    n = len(b_matrix)
    m = 2 * n
    d = rng.choice((1, 2))
    rows = [[d * v for v in row] for row in principal_rows]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        wa = [1 if i == a else 0 for i in range(n)] + [b_matrix[i][a] for i in range(n)]
        wb = [1 if i == b else 0 for i in range(n)] + [b_matrix[i][b] for i in range(n)]
        for u in range(m):
            if wa[u] == 0 and wb[u] == 0:
                continue
            row = rows[u]
            for v in range(m):
                row[v] += c * (wa[u] * wb[v] - wb[u] * wa[v])
    return d, rows
