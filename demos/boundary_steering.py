"""Steer a system between two fixed states with the endpoint solver.

The endpoint-constrained solver returns the whole solution as affine maps
of the boundary pair, so one backward sweep serves every start/goal
combination.  Unreachable goals are rejected with the exact constraint
residual.
"""

import numpy as np

import parlqr
from parlqr import endpoint

rng = np.random.default_rng(0)
problem = parlqr.generate(n=4, m=2, T=12, seed=7)

affine = endpoint.solve_endpoint_affine(problem)
print(f"feasibility rows at t=0: {affine.feasibility.rows} "
      "(zero: any endpoint pair is reachable)")

# one symbolic solve, three different steering tasks
for k in range(3):
    x_init = rng.standard_normal(problem.n)
    x_term = rng.standard_normal(problem.n)
    sol = affine.evaluate(x_init, x_term)
    print(f"task {k}: |x_T - goal| = {np.abs(sol.states[-1] - x_term).max():.2e}, "
          f"objective = {sol.objective:.3f}, "
          f"KKT residual = {sol.kkt_residual_inf:.2e}")

# boundary multipliers are the value-function gradients
v0 = affine.values[0]
x_init = rng.standard_normal(problem.n)
x_term = rng.standard_normal(problem.n)
sol = affine.evaluate(x_init, x_term)
print("lambda_0 vs -grad_x value:",
      np.abs(sol.lambdas[0] + v0.Vxx @ x_init + v0.Vzx.T @ x_term + v0.vx1).max())
print("mu      vs -grad_z value:",
      np.abs(sol.mu + v0.Vzx @ x_init + v0.Vzz @ x_term + v0.vz1).max())

# a system with no control authority can only coast
coasting = parlqr.LqrProblem(
    [(c, parlqr.StageDynamics(d.Fx, np.zeros_like(d.Fu), d.f1))
     for c, d in problem.stages],
    problem.terminal, problem.x_init)
x = coasting.x_init.copy()
for _, d in coasting.stages:
    x = d.Fx @ x + d.f1
try:
    parlqr.solve_endpoint(coasting, coasting.x_init, x + 1.0)
except parlqr.Infeasible as exc:
    print(f"unreachable goal rejected: residual {exc.residual:.3f}")
