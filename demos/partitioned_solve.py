"""Split the horizon, solve the pieces concurrently, match at the links.

The partitioned solver reproduces the serial trajectory exactly while each
segment runs independently; the unknown segment boundaries come from one
banded solve of the link system built from the segments' boundary
multipliers.  The smoothing pass then re-derives softer policies that keep
the same optimal trajectory.
"""

import time

import numpy as np

import parlqr

problem = parlqr.generate(n=40, m=10, T=2048, seed=1)

tic = time.perf_counter()
reference = parlqr.solve_serial(problem)
serial_secs = time.perf_counter() - tic

print(f"{'J':>3} {'workers':>8} {'seconds':>9} {'vs serial':>10} {'max dev':>10}")
print(f"{1:3d} {'-':>8} {serial_secs:9.3f} {1.0:10.2f} {'-':>10}")
for J, workers in [(4, 1), (8, 1), (8, 2)]:
    tic = time.perf_counter()
    solution = parlqr.solve_parallel(problem, J=J, workers=workers)
    secs = time.perf_counter() - tic
    dev = np.abs(solution.states - reference.states).max()
    print(f"{J:3d} {workers:8d} {secs:9.3f} {secs / serial_secs:10.2f} {dev:10.2e}")

solution = parlqr.solve_parallel(problem, J=8, workers=2)
details = solution.details
print("\nlink multiplier mismatch :", f"{details.link_mismatch:.2e}")
print("link system residual     :", f"{details.link_residual:.2e}")
print("link system rcond        :", f"{details.link_rcond:.2e}")
print("link points vs serial    :",
      max(np.abs(details.link_points[k] - reference.states[tau]).max()
          for k, tau in enumerate(details.partition.split_times[1:-1])))

smoothed = parlqr.smooth(problem, solution, workers=2)
print("smoothed trajectory drift:", f"{smoothed.details.smooth_deviation:.2e}")
gain_gap = max(np.abs(a.Kx - b.Kx).max()
               for a, b in zip(smoothed.policies, solution.policies))
print("smoothed vs split gains  :", f"{gain_gap:.2e} (policies differ, paths agree)")
