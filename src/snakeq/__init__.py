"""Laurent expansions of arcs on triangulated surfaces.

The package computes cluster variables attached to arcs on unpunctured
surfaces, both commutative and quantum, as sums over the perfect matchings of
snake graphs, taken by a transfer over the tiles rather than one matching at
a time.  Quantum powers of q are assigned by a valuation built from local
twist moves, and an independent seed-mutation oracle cross-checks the results
in exact arithmetic.
"""

from .expansion import (
    ExpansionError,
    MatchingRecord,
    OracleRun,
    VerifyReport,
    commutative_expand,
    matching_records,
    oracle_mutate_variables,
    quantum_expand,
    verify_against_oracle,
)
from .qalgebra import (
    ExactDivisionError,
    LambdaForm,
    QuantumLaurent,
    coeff_to_string,
    exact_right_divide,
    qmul,
)
from .seeds import (
    Seed,
    SeedError,
    check_compatible,
    mutate_B,
    mutate_Lambda,
    mutate_seed,
    principal_lambda,
    principal_seed,
)
from .snakegraph import SnakeGraph, TauClass, Tile
from .surface import (
    Arc,
    ArcTrace,
    SurfaceError,
    Triangle,
    Triangulation,
    flip,
    signed_adjacency,
    trace_arc,
)
from .valuation import ValuationError, compute_valuation, omega

__all__ = [
    "Arc",
    "ArcTrace",
    "ExactDivisionError",
    "ExpansionError",
    "LambdaForm",
    "MatchingRecord",
    "OracleRun",
    "QuantumLaurent",
    "Seed",
    "SeedError",
    "SnakeGraph",
    "SurfaceError",
    "TauClass",
    "Tile",
    "Triangle",
    "Triangulation",
    "ValuationError",
    "VerifyReport",
    "check_compatible",
    "coeff_to_string",
    "commutative_expand",
    "compute_valuation",
    "exact_right_divide",
    "flip",
    "matching_records",
    "mutate_B",
    "mutate_Lambda",
    "mutate_seed",
    "omega",
    "oracle_mutate_variables",
    "principal_lambda",
    "principal_seed",
    "qmul",
    "quantum_expand",
    "signed_adjacency",
    "trace_arc",
    "verify_against_oracle",
]

__version__ = "0.1.0"
