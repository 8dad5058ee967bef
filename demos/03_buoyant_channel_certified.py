"""Coupled buoyancy-driven solve with certificates.

A vertical channel with a crosswise wall-temperature span and a downward
body force: the outer loop alternates the contraction-based momentum
solve with the linearized heat solve.  Afterwards the smallness margin
beta, the contraction ball radius and the uniqueness coefficients R1/R2
are evaluated from empirically estimated constants, and the run is
re-checked with the load scaled up until the certificate breaks.
"""

from thermoduct import build_channel_mesh, build_spaces
from thermoduct.certificates import (
    body_force_norm,
    estimate_constants,
    smallness_check,
    uniqueness_certificate,
)
from thermoduct.fields import span_scalar
from thermoduct.fixed_point import CoupledProblem, outer_loop, write_trace_csv
from thermoduct.io_vtk import write_state_vtk
from thermoduct.material import clamped_boussinesq, make_material

mesh = build_channel_mesh(1.0, 1.0, 4.0, 4, 4, 16)
space = build_spaces(mesh)
model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.1,
                      law=clamped_boussinesq(1.0, alpha_v=0.1))
theta_D = span_scalar(1, 1.0, 0.5, 1.0)        # wall temperature 1 + 0.5 y
problem = CoupledProblem(space, model, (0.0, 0.0, -9.7), theta_D)

state, records = outer_loop(problem, outer_tol=1e-10)
print(f"converged in {len(records)} outer iterations")
for rec in records:
    print(f"  it {rec.iteration}: inner {rec.inner_iters}, "
          f"beta_hat {rec.beta_hat:.3f}, |d theta| {rec.d_theta_norm:.2e}, "
          f"residuals ({rec.r_momentum:.1e}, {rec.r_heat:.1e})")

write_trace_csv(records, "trace.csv")
write_state_vtk(space, state, "solution.vtk")
print("wrote trace.csv and solution.vtk")

print("\nestimating form-bound and embedding constants (200 samples)...")
est = estimate_constants(problem, samples=200, seed=0)
print(f"  C_b={est.C_b:.4g}  C_d={est.C_d:.4g}  C_e={est.C_e:.4g}  "
      f"C_eps={est.C_eps:.4g}  C_1={est.C_1:.4g}   (empirical lower bounds)")

g_norm = body_force_norm(problem, s=2.0)
for scale in (1.0, 4.0, 10.0):
    small = smallness_check(est, model, scale * g_norm)
    beta = "ABSENT" if small.beta is None else f"{small.beta:.3f}"
    print(f"  load x{scale:>4}: ||g|| = {scale * g_norm:.2f}, beta = {beta}, "
          f"smallness_ok = {small.ok}")

report = uniqueness_certificate(problem, est, state)
print(f"\nuniqueness certificate: R1 = {report.R1:.3f}, R2 = {report.R2:.3f}, "
      f"ok = {report.uniqueness_ok}")
print(f"contraction ball radius: {report.ball_radius:.3f}; converged "
      f"|u| load norm: {report.inputs['u1_norm']:.3f}")
