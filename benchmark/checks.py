"""Correctness checks for the benchmark, independent of the solver code.

Nothing here imports ``parlqr``.  The problem data are copied once into
stacked ``(T, ...)`` arrays, and every check is recomputed from those
copies with vectorised numpy: the first-order optimality residuals, the
objective, and a rollout of a solution's feedback policies.  The problems
are strictly convex, so a small stationarity-plus-primal residual certifies
that a candidate is the optimum.

Every check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

# Residuals and differences between solutions are judged relative to
# ``1 + data magnitude`` (largest absolute entry of the problem data), the
# scaling of the package's own ``kkt_tol`` and oracle tests.
TOL = 1e-8
# Objectives are sums of T quadratic terms; they are compared relative to
# ``1 + |objective|``.
OBJECTIVE_TOL = 1e-8
# The end state of an endpoint-constrained solve is a sum of affine-map
# products, met to rounding; compared relative to ``1 + |x_term|``.
ENDPOINT_TOL = 1e-10

COST_FIELDS = ("Qxx", "Qux", "Quu", "qx1", "qu1")
DYNAMICS_FIELDS = ("Fx", "Fu", "f1")
STAGE_FIELDS = COST_FIELDS + DYNAMICS_FIELDS
# trajectories of a solution compared by check_agree
PRIMAL_FIELDS = ("states", "controls")
ALL_FIELDS = PRIMAL_FIELDS + ("lambdas",)


@dataclasses.dataclass(frozen=True, eq=False)
class Stacked:
    """Problem data as stacked arrays, copied out of the problem object."""

    Qxx: np.ndarray
    Qux: np.ndarray
    Quu: np.ndarray
    qx1: np.ndarray
    qu1: np.ndarray
    Fx: np.ndarray
    Fu: np.ndarray
    f1: np.ndarray
    QxxT: np.ndarray
    qxT: np.ndarray
    x_init: np.ndarray

    @property
    def T(self):
        return self.Qxx.shape[0]

    @functools.cached_property
    def scale(self):
        """``1 + data magnitude``: the reference size for residuals."""
        return 1.0 + max(float(np.abs(getattr(self, f.name)).max())
                         for f in dataclasses.fields(self))

    def head(self, T):
        """The leading ``T`` stages, keeping terminal cost and start state."""
        return dataclasses.replace(
            self, **{f: getattr(self, f)[:T] for f in STAGE_FIELDS})


def same_problem(a, b):
    """Two problem objects hold identical data, compared array by array."""
    if len(a.stages) != len(b.stages) or not np.array_equal(a.x_init, b.x_init):
        return False
    pairs = [(a.terminal, b.terminal, ("Qxx", "qx1"))]
    pairs += [(x, y, names)
              for (ca, da), (cb, db) in zip(a.stages, b.stages)
              for x, y, names in ((ca, cb, COST_FIELDS), (da, db, DYNAMICS_FIELDS))]
    return all(np.array_equal(getattr(x, f), getattr(y, f))
               for x, y, names in pairs for f in names)


def stack_problem(problem):
    """Copy a problem's stage, terminal and start data into :class:`Stacked`."""
    costs = [c for c, _ in problem.stages]
    dyns = [d for _, d in problem.stages]

    def pile(items, name):
        return np.array([np.asarray(getattr(it, name), dtype=float) for it in items])

    return Stacked(
        Qxx=pile(costs, "Qxx"), Qux=pile(costs, "Qux"), Quu=pile(costs, "Quu"),
        qx1=pile(costs, "qx1"), qu1=pile(costs, "qu1"),
        Fx=pile(dyns, "Fx"), Fu=pile(dyns, "Fu"), f1=pile(dyns, "f1"),
        QxxT=np.array(problem.terminal.Qxx, dtype=float),
        qxT=np.array(problem.terminal.qx1, dtype=float),
        x_init=np.array(problem.x_init, dtype=float))


def _mv(A, v):
    """Stage-wise matrix-vector products ``A[t] @ v[t]``."""
    return np.einsum("tij,tj->ti", A, v)


def _mtv(A, v):
    """Stage-wise transposed products ``A[t].T @ v[t]``."""
    return np.einsum("tji,tj->ti", A, v)


def residuals(d, states, controls, lambdas, mu=None, x_term=None):
    """Infinity norms ``(stationarity, primal)`` of the residual blocks.

    Multiplier convention: ``Qxx x + Qux'u + qx1 + lam_t - Fx'lam_{t+1} = 0``,
    ``Qux x + Quu u + qu1 - Fu'lam_{t+1} = 0`` and
    ``QxxT x_T + qxT + lam_T (+ mu) = 0``; primal rows are the dynamics,
    ``x_0 = x_init`` and, given ``x_term``, ``x_T = x_term``.
    """
    x, u, lam = (np.asarray(a, dtype=float) for a in (states, controls, lambdas))
    xt, xn = x[:-1], x[1:]
    stationarity = [
        _mv(d.Qxx, xt) + _mtv(d.Qux, u) + d.qx1 + lam[:-1] - _mtv(d.Fx, lam[1:]),
        _mv(d.Qux, xt) + _mv(d.Quu, u) + d.qu1 - _mtv(d.Fu, lam[1:]),
        d.QxxT @ x[-1] + d.qxT + lam[-1] + (0.0 if mu is None else mu),
    ]
    primal = [xn - _mv(d.Fx, xt) - _mv(d.Fu, u) - d.f1, x[0] - d.x_init]
    if x_term is not None:
        primal.append(x[-1] - x_term)
    return (max(float(np.abs(p).max()) for p in stationarity),
            max(float(np.abs(p).max()) for p in primal))


def objective(d, states, controls):
    """Exact cost of a trajectory, summed over stacked stages."""
    x, u = np.asarray(states, dtype=float), np.asarray(controls, dtype=float)
    xt = x[:-1]
    stage = (0.5 * np.einsum("ti,tij,tj->", xt, d.Qxx, xt)
             + 0.5 * np.einsum("ti,tij,tj->", u, d.Quu, u)
             + np.einsum("ti,tij,tj->", u, d.Qux, xt)
             + np.einsum("ti,ti->", d.qx1, xt) + np.einsum("ti,ti->", d.qu1, u))
    xT = x[-1]
    return float(stage + 0.5 * xT @ d.QxxT @ xT + d.qxT @ xT)


def rollout(d, policies, x0, x_term=None):
    """Simulate ``u_t = Kx x_t + Kz x_term + k1`` through the stacked dynamics."""
    Kx = np.array([p.Kx for p in policies], dtype=float)
    off = np.array([p.k1 for p in policies], dtype=float)
    if x_term is not None:
        Kz = np.array([p.Kz for p in policies], dtype=float)
        off = off + np.einsum("tij,j->ti", Kz, x_term)
    T, m, n = Kx.shape
    x = np.empty((T + 1, n))
    u = np.empty((T, m))
    x[0] = x0
    for t in range(T):
        u[t] = Kx[t] @ x[t] + off[t]
        x[t + 1] = d.Fx[t] @ x[t] + d.Fu[t] @ u[t] + d.f1[t]
    return x, u


def _gap(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return np.inf
    return float(np.abs(a - b).max())


def check_optimal(d, sol, label, multipliers=True):
    """Residual of ``sol`` certifies optimality; its objective is its cost.

    With ``multipliers=False`` the stationarity rows, the only ones that
    involve the multipliers, are left out.
    """
    if np.asarray(sol.states).shape != (d.T + 1, d.x_init.shape[0]):
        return [f"{label}: states have shape {np.shape(sol.states)}"]
    out = check_stationarity(d, sol, label) if multipliers else []
    primal = residuals(d, sol.states, sol.controls, sol.lambdas,
                       mu=sol.mu, x_term=sol.x_term)[1]
    limit = TOL * d.scale
    if not primal <= limit:
        out.append(f"{label}: primal residual {primal:.3e} exceeds {limit:.3e}")
    cost = objective(d, sol.states, sol.controls)
    if not abs(cost - sol.objective) <= OBJECTIVE_TOL * (1.0 + abs(cost)):
        out.append(f"{label}: reported objective {sol.objective!r} != {cost!r}")
    return out


def check_stationarity(d, sol, label):
    """The stationarity rows, the ones that hold the multipliers, are met."""
    stationarity = residuals(d, sol.states, sol.controls, sol.lambdas,
                             mu=sol.mu, x_term=sol.x_term)[0]
    limit = TOL * d.scale
    if not stationarity <= limit:
        return [f"{label}: stationarity residual {stationarity:.3e} "
                f"exceeds {limit:.3e}"]
    return []


def check_agree(d, ref, sol, label, fields=PRIMAL_FIELDS):
    """The named trajectories of two solutions agree."""
    out = []
    for name in fields:
        a = np.asarray(getattr(sol, name))
        b = np.asarray(getattr(ref, name))[:a.shape[0]]
        gap = _gap(a, b)
        if not gap <= TOL * d.scale:
            out.append(f"{label}: {name} differ from the reference by {gap:.3e}")
    return out


def check_rollout(d, sol, label, x_term=None):
    """Rolling the solution's policies out reproduces its trajectory."""
    if len(sol.policies) != d.T:
        return [f"{label}: {len(sol.policies)} policies for {d.T} stages"]
    x, u = rollout(d, sol.policies, sol.states[0], x_term)
    gap = max(_gap(x, sol.states), _gap(u, sol.controls))
    if not gap <= TOL * d.scale:
        return [f"{label}: policy rollout departs from the trajectory by {gap:.3e}"]
    return []


def check_endpoints(sol, x_init, x_term, label):
    """The trajectory starts exactly at ``x_init`` and ends at ``x_term``.

    The start state is propagated through an identity map and must match
    bit for bit; the end state is a sum of affine map products, so it is
    held to rounding only.
    """
    out = []
    if not np.array_equal(sol.states[0], x_init):
        out.append(f"{label}: x_0 misses x_init by {_gap(sol.states[0], x_init):.3e}")
    gap = _gap(sol.states[-1], x_term)
    if not gap <= ENDPOINT_TOL * (1.0 + float(np.abs(x_term).max())):
        out.append(f"{label}: x_T misses x_term by {gap:.3e}")
    return out
