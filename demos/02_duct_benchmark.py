"""Pressure-free duct flow against the classical series solution.

A constant axial body force with no-slip walls and do-nothing open ends
produces a unidirectional profile: the axial velocity solves a 2D
Poisson problem on the cross-section and the pressure vanishes
identically.  The computed centerline speed is compared with the Fourier
series value, and the backward-flow bookkeeping shows the inlet
registering as 'inflow' by sign convention.
"""

import numpy as np

from thermoduct import build_channel_mesh, build_spaces
from thermoduct.fields import constant_scalar
from thermoduct.fixed_point import (
    CoupledProblem,
    backward_flow_measure,
    inner_momentum_solve,
)
from thermoduct.material import constant_density, make_material

F, NU = 2.0, 1.0

# center value of the solution of -lap w = 1 on the unit square, w = 0 on
# the boundary (Fourier series, truncated far past convergence)
series = sum(
    16.0 / (np.pi**4 * m * n * (m * m + n * n)) * np.sin(m * np.pi / 2) * np.sin(n * np.pi / 2)
    for m in range(1, 200, 2)
    for n in range(1, 200, 2)
)
print(f"series centerline value: {series:.10f}")

mesh = build_channel_mesh(2.0, 1.0, 1.0, 4, 8, 8)
space = build_spaces(mesh)
model = make_material(nu=NU, cV=1.0, lam=1.0, alpha1=0.0,
                      law=constant_density(1.0))
problem = CoupledProblem(space, model, (F, 0.0, 0.0), constant_scalar(0.0))

u, P, increments = inner_momentum_solve(problem, np.zeros(space.n_scalar), tol=1e-12)
print(f"momentum iteration: {len(increments)} steps "
      f"(convection vanishes for unidirectional flow)")

sx, sy, sz = space.q2_shape
center = (sx // 2) + sx * ((sy // 2) + sy * (sz // 2))
target = series * F / NU
print(f"centerline speed {u[center]:.8f} vs {target:.8f} "
      f"(rel err {abs(u[center] / target - 1):.2e})")
print(f"max |pressure| {np.abs(P).max():.2e} (exact solution has P = 0)")

flow = backward_flow_measure(space, u)
print("backward-flow report (u.n < 0 counts as inflow):")
for face, (fmin, frac) in flow.per_face.items():
    role = "inlet" if face == "x0" else "outlet"
    print(f"  {face} ({role}): min u.n = {fmin:+.4f}, inflow fraction {frac:.2f}")
