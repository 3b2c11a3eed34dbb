"""Deterministic random problem generation for tests and benchmarks."""

from __future__ import annotations

import numpy as np

from .problem import LqrProblem, StageStack, TerminalCost, _symmetrized

__all__ = ["generate"]

MAX_SPECTRAL_RADIUS = 1.05


def generate(n, m, T, seed):
    """Random strictly convex problem, reproducible from the seed.

    ``Quu = B B' + I`` for a standard-normal ``B``; the state-cost cross
    term is halved until the control-eliminated state cost is positive
    semi-definite or the term is zero; ``Fx`` is rescaled to spectral
    radius at most 1.05 so rollouts stay bounded over long horizons.  The
    draws go straight into the stage stacks, stored as :class:`StageCost`
    would store them.
    """
    if min(n, m, T) < 1:
        raise ValueError("n, m and T must all be at least 1")
    rng = np.random.default_rng(seed)
    Qxx, Qux, Quu, qx1, qu1, Fx, Fu, f1, asymmetry = (np.empty((T,) + shape) for shape in (
        (n, n), (m, n), (m, m), (n,), (m,), (n, n), (n, m), (n,), ()))
    for t in range(T):
        B = rng.standard_normal((m, m))
        Quu_t = B @ B.T + np.eye(m)
        C = rng.standard_normal((n, n))
        Qxx_t = C @ C.T
        Qux[t] = 0.3 * rng.standard_normal((m, n))
        # at Qux = 0 the eliminated cost is C C', which rounding can leave
        # a hair below PSD: halving further would never end
        while Qux[t].any() and np.linalg.eigvalsh(
                Qxx_t - Qux[t].T @ np.linalg.solve(Quu_t, Qux[t])).min() < 0.0:
            Qux[t] *= 0.5
        (Qxx[t], dx), (Quu[t], du) = _symmetrized(Qxx_t, "Qxx"), _symmetrized(Quu_t, "Quu")
        asymmetry[t] = max(dx, du)
        qx1[t] = rng.standard_normal(n)
        qu1[t] = rng.standard_normal(m)
        Fx[t] = rng.standard_normal((n, n))
        rho = float(np.abs(np.linalg.eigvals(Fx[t])).max())
        if rho > MAX_SPECTRAL_RADIUS:
            Fx[t] *= MAX_SPECTRAL_RADIUS / rho
        Fu[t] = rng.standard_normal((n, m))
        f1[t] = rng.standard_normal(n)
    D = rng.standard_normal((n, n))
    terminal = TerminalCost(D @ D.T, rng.standard_normal(n))
    return LqrProblem(StageStack(Qxx, Qux, Quu, qx1, qu1, Fx, Fu, f1, asymmetry),
                      terminal, rng.standard_normal(n))
