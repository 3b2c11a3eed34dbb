"""Exception types shared by the solvers.

Every type survives pickling with its attributes and message intact, so an
error raised in a worker process reaches the caller unchanged.  Types with
their own constructor rebuild from it in ``__reduce__``: the default would
pass the formatted message as the first constructor argument.
"""


class SolverError(Exception):
    """Base class for numerical failures raised by the solvers."""


class CholeskyFailure(SolverError):
    """A control-space Hessian was not positive-definite at some stage."""

    def __init__(self, stage, message=None):
        self.stage = stage
        super().__init__(message or f"Cholesky failed at stage {stage}")

    def __reduce__(self):
        return type(self), (self.stage, str(self))


class FactorizationFailure(SolverError):
    """A system whose solution must be unique is singular.

    Raised when the boundary/dynamics constraints of an endpoint-constrained
    problem are linearly dependent; ``block`` locates the failure where the
    raiser has one (None otherwise).
    """

    def __init__(self, block, message=None):
        self.block = block
        super().__init__(message or f"singular system at block {block}")

    def __reduce__(self):
        return type(self), (self.block, str(self))


class WorkerConfigError(SolverError):
    """The worker count named by the environment is not an integer."""


class WorkerFailure(SolverError):
    """A worker process ended before returning its segments (killed, or out
    of memory)."""


class LinkSingular(SolverError):
    """The link-point system could not be factorized."""


class SingularKkt(SolverError):
    """The dense KKT matrix is singular (infeasible or non-convex problem)."""


class Infeasible(SolverError):
    """No trajectory satisfies the endpoint constraints.

    ``residual`` is the infinity norm of the violated feasibility rows;
    ``segment`` identifies the offending sub-problem when raised by the
    partitioned solver.
    """

    def __init__(self, residual, segment=None, message=None):
        self.residual = float(residual)
        self.segment = segment
        if message is None:
            where = "" if segment is None else f" in segment {segment}"
            message = f"endpoint constraints unsatisfiable{where} (residual {residual:.3e})"
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.residual, self.segment, str(self))
