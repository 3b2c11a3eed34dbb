"""Finite-horizon, time-varying LQR solvers with a partition-parallel backend.

The package provides three interchangeable solvers for the same problem
class: a serial Riccati sweep (:mod:`parlqr.serial`), a dense KKT
factorization used as a correctness oracle (:mod:`parlqr.kkt`) and a
horizon-partitioned solver (:mod:`parlqr.parallel`) that runs
endpoint-constrained sub-problems concurrently and couples them through
one banded solve for the link points.  The endpoint-constrained
machinery itself, with solutions affine in both boundary states, lives in
:mod:`parlqr.endpoint`.
"""

from .errors import (
    CholeskyFailure,
    FactorizationFailure,
    Infeasible,
    LinkSingular,
    SingularKkt,
    SolverError,
)
from .problem import (
    DEFAULT_TOLERANCES,
    AffinePolicy,
    LqrProblem,
    LqrSolution,
    StageCost,
    StageDynamics,
    TerminalCost,
    ToleranceSet,
    data_magnitude,
    evaluate_objective,
    kkt_residual,
    rollout,
    validate,
)
from .endpoint import solve_endpoint, solve_endpoint_affine
from .generate import generate
from .kkt import solve_dense
from .parallel import make_partition, smooth, solve_parallel
from .serial import solve as solve_serial

__version__ = "0.1.0"

__all__ = [
    "AffinePolicy",
    "CholeskyFailure",
    "DEFAULT_TOLERANCES",
    "FactorizationFailure",
    "Infeasible",
    "LinkSingular",
    "LqrProblem",
    "LqrSolution",
    "SingularKkt",
    "SolverError",
    "StageCost",
    "StageDynamics",
    "TerminalCost",
    "ToleranceSet",
    "data_magnitude",
    "evaluate_objective",
    "generate",
    "kkt_residual",
    "make_partition",
    "rollout",
    "smooth",
    "solve_dense",
    "solve_endpoint",
    "solve_endpoint_affine",
    "solve_parallel",
    "solve_serial",
    "validate",
]
