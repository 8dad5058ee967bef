"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints one PASS/FAIL line (run with ``pytest -s`` to see
the lines as they happen).  The shared acceptance configuration is the
(4,4,16) channel of size 1 x 1 x 4 with the clamped linear density law,
a crosswise wall-temperature span and a downward body force calibrated
so the smallness margin sits near 0.25.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from thermoduct import build_channel_mesh, build_spaces, forms
from thermoduct import verification as verif
from thermoduct.certificates import (
    body_force_norm,
    estimate_constants,
    smallness_check,
    uniqueness_certificate,
)
from thermoduct.fields import constant_scalar, span_scalar
from thermoduct.fixed_point import CoupledProblem, inner_momentum_solve, outer_loop
from thermoduct.material import clamped_boussinesq, constant_density, make_material
from thermoduct.spectrum import admissible_sr, compute_spectrum, find_roots, mellin_symbol
import oracles
from conftest import divergence_free_samples, heat_problem

Z0_REPORTED = 1.352317
S0_REPORTED = 3.087930
DUCT_CENTER_SPEED = 0.0736713512666702   # series solution of -lap w = 1, unit square
ACCEPT_G0 = 9.7                          # calibrated so beta ~ 0.25 on the acceptance mesh


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def acceptance_setup():
    mesh = build_channel_mesh(1.0, 1.0, 4.0, 4, 4, 16)
    space = build_spaces(mesh)
    model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.1,
                          law=clamped_boussinesq(1.0, alpha_v=0.1))
    theta_D = span_scalar(1, 1.0, 0.5, 1.0)
    problem = CoupledProblem(space, model, (0.0, 0.0, -ACCEPT_G0), theta_D)
    return mesh, space, model, problem


@pytest.fixture(scope="module")
def acceptance_run(acceptance_setup):
    _, _, _, problem = acceptance_setup
    t0 = time.perf_counter()
    state, records = outer_loop(problem, outer_tol=1e-10, max_outer=30)
    return state, records, time.perf_counter() - t0


def test_criterion_01_spectrum_anchor():
    t0 = time.perf_counter()
    res = compute_spectrum()
    elapsed = time.perf_counter() - t0
    z0 = max(z.real for z in res.stokes_roots)
    ok = (
        abs(z0 - Z0_REPORTED) <= 1e-5
        and abs(res.s0 - S0_REPORTED) <= 1e-5
        and abs(mellin_symbol(1.0)) <= 1e-12
        and abs(mellin_symbol(2.0)) <= 1e-12
        and elapsed < 1.0
    )
    _report(1, ok, f"z0={z0:.6f}, s0={res.s0:.6f}, f(1)={abs(mellin_symbol(1.0)):.1e}, "
                   f"f(2)={abs(mellin_symbol(2.0)):.1e}, {elapsed:.2f}s")


def test_criterion_02_root_completeness():
    t0 = time.perf_counter()
    roots = find_roots(0.1, 1.9, 5.0)
    elapsed = time.perf_counter() - t0
    ok = len(roots) == 2 and elapsed < 10.0
    _report(2, ok, f"{len(roots)} roots in Re in (0.1,1.9), |Im| <= 5 "
                   f"(expected 2), {elapsed:.2f}s")


def test_criterion_03_mms_stokes_orders():
    t0 = time.perf_counter()
    table = verif.mms_stokes_study(
        verif.trig_case, (1.0, 1.0, 4.0), (2, 2, 8), n_levels=3, nu=1.0
    )
    elapsed = time.perf_counter() - t0
    h1 = table.observed_order("u_H1")
    l2 = table.observed_order("u_L2")
    ok = h1 >= 1.8 and l2 >= 2.5 and elapsed < 600.0
    _report(3, ok, f"observed orders H1={h1:.2f} (>=1.8), L2={l2:.2f} (>=2.5), "
                   f"{elapsed:.0f}s (<600s)")


def test_criterion_04_duct_benchmark():
    F = 2.0
    mesh = build_channel_mesh(2.0, 1.0, 1.0, 4, 8, 8)
    space = build_spaces(mesh)
    model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.0,
                          law=constant_density(1.0))
    problem = CoupledProblem(space, model, (F, 0.0, 0.0), constant_scalar(0.0))
    u, P, _ = inner_momentum_solve(problem, np.zeros(space.n_scalar), tol=1e-12)
    sx, sy, sz = space.q2_shape
    center = (sx // 2) + sx * ((sy // 2) + sy * (sz // 2))
    rel = abs(u[center] / (DUCT_CENTER_SPEED * F / model.nu) - 1.0)
    p_max = np.abs(P).max()
    ok = rel < 0.02 and p_max < 1e-6 * F
    _report(4, ok, f"centerline speed rel err {rel:.2e} (<2%), "
                   f"max|P|={p_max:.2e} (<{1e-6 * F:.0e})")


def test_criterion_05_fixed_point_contraction(acceptance_run):
    state, records, elapsed = acceptance_run
    ratios = [r for rec in records for r in rec.inner_ratios]
    ok = (
        len(records) <= 30
        and records[-1].d_theta_norm <= 1e-10
        and all(r < 1.0 for r in ratios)
        and elapsed < 300.0
    )
    _report(5, ok, f"{len(records)} outer iterations (<=30), "
                   f"final update {records[-1].d_theta_norm:.2e} (<=1e-10), "
                   f"max inner ratio {max(ratios):.3f} (<1), {elapsed:.0f}s (<300s)")


def test_criterion_06_zero_data_exactness(acceptance_setup):
    _, space, model, _ = acceptance_setup
    problem = CoupledProblem(space, model, (0.0, 0.0, 0.0), constant_scalar(2.0))
    state, records = outer_loop(problem, outer_tol=1e-10)
    u_norm = float(np.linalg.norm(state.u))
    th_err = float(np.abs(state.theta - 2.0).max())
    ok = len(records) == 1 and u_norm == 0.0 and th_err < 1e-10
    _report(6, ok, f"one outer iteration, ||u||={u_norm:.1e} (=0), "
                   f"max|theta - theta_D|={th_err:.1e} (<1e-10)")


def test_criterion_07_outflow_identity(acceptance_setup):
    _, space, model, _ = acceptance_setup
    rng = np.random.default_rng(20)
    worst = 0.0
    fields = divergence_free_samples(space, rng, 20)
    v_pool = [rng.normal(size=space.n_velocity) for _ in range(3)]
    for u0 in fields:
        B = oracles.assemble_b(space, model, u0)
        for v in v_pool:
            lhs = v @ (B @ v)
            rhs = oracles.outflow_boundary_term(space, model, u0, v)
            worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-10
    _report(7, ok, f"20 solenoidal fields: max |b(u,v,v) - boundary flux| "
                   f"= {worst:.2e} (<1e-10)")


def test_criterion_08_dissipation_sign_and_effect(acceptance_setup, acceptance_run):
    mesh, space, model, _ = acceptance_setup
    state, _, _ = acceptance_run
    diss = forms.dissipation_value(space, model, state.u)
    total = float(np.einsum("q,cq->", space.wq, diss))
    vol = float(np.prod(mesh.dims))

    model0 = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.0,
                           law=clamped_boussinesq(1.0, alpha_v=0.1))
    prob0 = CoupledProblem(space, model0, (0.0, 0.0, -ACCEPT_G0),
                           span_scalar(1, 1.0, 0.5, 1.0))
    state0, _ = outer_loop(prob0, outer_tol=1e-10)
    mean0 = float(np.einsum("q,cq->", space.wq, forms.eval_scalar(space, state0.theta))) / vol
    mean1 = float(np.einsum("q,cq->", space.wq, forms.eval_scalar(space, state.theta))) / vol
    ok = np.all(diss >= 0.0) and total >= 0.0 and mean1 >= mean0 - 1e-13
    _report(8, ok, f"total dissipation {total:.3e} (>=0), mean temperature "
                   f"{mean0:.6f} -> {mean1:.6f} with alpha1 on (must not decrease)")


def test_criterion_09_certificates(acceptance_setup, acceptance_run):
    _, space, model, problem = acceptance_setup
    state, _, _ = acceptance_run
    estimates = estimate_constants(heat_problem(space, model), samples=200, seed=0)
    g_norm = body_force_norm(problem, 2.0)
    small = smallness_check(estimates, model, g_norm)
    report = uniqueness_certificate(problem, estimates, state)
    small10 = smallness_check(estimates, model, 10.0 * g_norm)
    ok = (
        small.ok and small.beta is not None and 0.0 < small.beta < 1.0
        and report.R1 < 1.0 and report.R2 < 1.0 and report.uniqueness_ok
        and (not small10.ok) and small10.beta is None
    )
    _report(9, ok, f"beta={small.beta:.3f} in (0,1), R1={report.R1:.3f} (<1), "
                   f"R2={report.R2:.3f} (<1), 10x load -> ABSENT={small10.beta is None}")


def test_criterion_10_admissibility():
    r2 = admissible_sr(2.0)
    mu = compute_spectrum().mu_M
    from thermoduct.spectrum import weighted_admissibility

    verdicts = weighted_admissibility([0.0], 2.0, mu)
    ok = (
        (r2.lo, r2.hi, r2.hi_closed) == (1.2, 3.0, True)
        and verdicts == [True]
        and max(0.0, 2.0 - mu) < 1.0 < 2.0
    )
    _report(10, ok, f"r-range for s=2 is [{r2.lo}, {r2.hi}] (closed), "
                    f"zero-weight p=2 admissible with mu_M={mu:.6f}")


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[geometry]\nLx = 1.0\nLy = 1.0\nLz = 2.0\nnx = 2\nny = 2\nnz = 4\n"
        "[material]\nnu = 1.0\nrho0 = 1.0\nc_v = 1.0\nlambda = 1.0\nalpha1 = 0.1\n"
        "[body_force]\nfield = constant\ngz = -0.4\n"
        "[temperature_bc]\nfield = span_y\ntheta0 = 1.0\ndelta = 0.5\n"
        "[mms]\ncase = poly_quadratic\nlevels = 1\n",
        encoding="utf-8",
    )
    mismatches = []
    for sub, artifacts in (
        ("solve", ("trace.csv", "solve_report.json")),
        ("spectrum", ("spectrum.json",)),
        ("certify", ("certificate.json", "trace.csv")),
        ("mms", ("mms_report.json", "mms_stokes.csv")),
    ):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sub}_{tag}"
            proc = subprocess.run(
                [sys.executable, "-m", "thermoduct.cli", sub, "--config", str(cfg),
                 "--out", str(out), "--seed", "42"],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, f"{sub}: {proc.stderr}"
            outs.append(out)
        for name in artifacts:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                mismatches.append(f"{sub}/{name}")
    ok = not mismatches
    _report(11, ok, "byte-identical CSV/JSON artifacts across repeated runs"
                    + ("" if ok else f"; mismatches: {mismatches}"))
