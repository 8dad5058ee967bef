import dataclasses

import numpy as np
import pytest

from thermoduct import verification as v
from thermoduct.fields import Field
from thermoduct.fixed_point import DivergenceError
from thermoduct.material import clamped_boussinesq, make_material

DIMS = (1.0, 1.0, 4.0)


def test_cases_pass_validation():
    v.validate_case(v.trig_case(DIMS, nu=1.0), DIMS)
    v.validate_case(v.poly_case(DIMS), DIMS)
    v.validate_case(v.coupled_case(DIMS), DIMS)


def test_validator_catches_wrong_derivative():
    case = v.trig_case(DIMS, nu=1.0)
    broken = v.ManufacturedCase(
        name="broken",
        u=case.u,
        p=Field(case.p.value, grad=lambda x: 1.01 * case.p.grad(x)),
        theta=case.theta,
        nu=case.nu,
    )
    with pytest.raises(AssertionError):
        v.validate_case(broken, DIMS)


def test_validator_catches_boundary_violation():
    good = v.trig_case(DIMS, nu=1.0)
    bad = v.ManufacturedCase(
        name="wrong_nu", u=good.u, p=good.p, theta=good.theta, nu=2.0
    )
    # pressure was built for nu=1, so the do-nothing residual is nonzero
    with pytest.raises(AssertionError):
        v.validate_case(bad, DIMS)


def test_incompatible_case_flagged():
    case = v.incompatible_heat_case(DIMS)
    assert not case.compatible_heat_flux
    with pytest.raises(AssertionError):
        # the compatibility check itself must fire if we claim compatibility
        v.validate_case(
            v.ManufacturedCase(case.name, case.u, case.p, case.theta, case.nu,
                               compatible_heat_flux=True),
            DIMS,
        )


def test_forcing_consistent_with_complex_step():
    # independent re-derivation of the induced forcing at random points
    case = v.trig_case(DIMS, nu=1.3)
    f = v.stokes_forcing(case, nu=1.3)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(200, 3)) * np.asarray(DIMS)
    lap = np.zeros((200, 3))
    for d in range(3):
        xc = x.astype(complex)
        xc[:, d] += 1e-30j
        lap += np.imag(case.u.grad(xc)[:, :, d]) / 1e-30
    gp = np.zeros((200, 3))
    for d in range(3):
        xc = x.astype(complex)
        xc[:, d] += 1e-30j
        gp[:, d] = np.imag(case.p.value(xc)) / 1e-30
    ref = -1.3 * lap + gp
    assert np.max(np.abs(f(x) - ref)) < 1e-10


def test_stokes_polynomial_case_machine_precision():
    table = v.mms_stokes_study(v.poly_case, (1, 1, 2), (2, 2, 4), n_levels=1)
    assert table.errors["u_L2"][0] < 1e-10
    assert table.errors["u_H1"][0] < 1e-10
    assert table.errors["p_L2"][0] < 1e-10


def test_stokes_trig_convergence_two_levels():
    table = v.mms_stokes_study(v.trig_case, DIMS, (2, 2, 8), n_levels=2)
    assert table.observed_order("u_H1") > 1.5
    assert table.observed_order("u_L2") > 2.3
    assert table.monotone


def test_heat_polynomial_case_machine_precision():
    table = v.mms_heat_study(v.poly_case, (1, 1, 2), (2, 2, 4), n_levels=1)
    assert table.errors["theta_L2"][0] < 1e-11


def test_heat_trig_convergence():
    table = v.mms_heat_study(v.trig_case, DIMS, (2, 2, 8), n_levels=3)
    assert table.observed_order("theta_H1") > 1.8
    assert table.observed_order("theta_L2") > 2.5
    assert table.monotone


def test_heat_study_validates_its_case():
    def mislabeled(dims, nu):
        case = v.trig_case(dims, nu)
        th = case.theta
        wrong = Field(th.value, th.grad, lambda x: 1.001 * th.laplacian(x))
        return dataclasses.replace(case, theta=wrong)

    with pytest.raises(AssertionError, match="temperature laplacian mismatch"):
        v.mms_heat_study(mislabeled, DIMS, (2, 2, 8), n_levels=1)


def test_heat_incompatible_case_stalls():
    # negative control: wrong natural boundary data must destroy the rate
    table = v.mms_heat_study(v.incompatible_heat_case, DIMS, (2, 2, 8), n_levels=3)
    assert table.observed_order("theta_H1") < 0.5
    assert table.observed_order("theta_L2") < 0.5


def test_coupled_mms_converges_to_manufactured_pair():
    model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.1,
                          law=clamped_boussinesq(1.0, alpha_v=0.1))
    case = v.coupled_case(DIMS, nu=1.0)
    rep = v.coupled_mms(case, DIMS, (2, 2, 8), model, (0, 0, -0.5))
    # errors consistent with the single-physics rates at this resolution
    lin = v.mms_stokes_study(
        lambda d, nu: v.trig_case(d, nu, amplitude=0.05), DIMS, (2, 2, 8), n_levels=1
    )
    assert rep["u_H1"] < 3.0 * lin.errors["u_H1"][0]
    assert rep["theta_H1"] < 0.1
    assert len(rep["records"]) <= 15


def test_coupled_mms_amplitude_probe_is_recorded():
    # pushing the amplitude well past the small-data regime either diverges
    # (with its records) or converges damped; both outcomes carry diagnostics
    model = make_material(nu=0.05, cV=1.0, lam=0.05, alpha1=0.1,
                          law=clamped_boussinesq(1.0, alpha_v=0.1))
    case = v.coupled_case(DIMS, nu=0.05)
    try:
        rep = v.coupled_mms(case, DIMS, (2, 2, 8), model, (0, 0, -5.0), max_outer=12)
        assert len(rep["records"]) <= 12
        assert np.isfinite(rep["u_H1"])
    except DivergenceError as err:
        assert err.records or err.increments


def test_error_table_csv(tmp_path):
    table = v.mms_heat_study(v.trig_case, DIMS, (2, 2, 8), n_levels=2)
    path = tmp_path / "table.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("level,nx,ny,nz,h,")
    assert len(lines) == 3


def test_coupled_zero_case_exact():
    # u* = 0, theta* constant: all forcings vanish and the pipeline returns
    # the exact pair in one outer iteration
    from thermoduct.fields import constant_scalar, constant_vector

    zero = v.ManufacturedCase(
        name="zero",
        u=constant_vector((0.0, 0.0, 0.0)),
        p=constant_scalar(0.0),
        theta=constant_scalar(1.5),
        nu=1.0,
    )
    model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.1,
                          law=clamped_boussinesq(1.0, alpha_v=0.1))
    rep = v.coupled_mms(zero, (1, 1, 2), (2, 2, 4), model, (0, 0, 0))
    assert len(rep["records"]) == 1
    assert rep["u_L2"] < 1e-12
    assert rep["theta_L2"] < 1e-10


def test_coupled_mms_weak_residuals_small():
    from thermoduct.fixed_point import weak_residual

    model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.1,
                          law=clamped_boussinesq(1.0, alpha_v=0.1))
    case = v.coupled_case(DIMS, nu=1.0)
    rep = v.coupled_mms(case, DIMS, (2, 2, 8), model, (0, 0, -0.5))
    r_mom, r_heat = weak_residual(rep["problem"], rep["state"])
    # converged run: residuals at the linear-solver noise scale
    assert r_mom < 1e-11
    assert r_heat < 1e-11
