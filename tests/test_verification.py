import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from thermoduct import build_channel_mesh, build_spaces, forms
from thermoduct import verification as v
from oracles import Field
from thermoduct.fields import constant_scalar, span_scalar
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
        lap += np.imag(case.u.grad(xc.T)[:, :, d]) / 1e-30
    gp = np.zeros((200, 3))
    for d in range(3):
        xc = x.astype(complex)
        xc[:, d] += 1e-30j
        gp[:, d] = np.imag(case.p.value(xc.T)) / 1e-30
    ref = -1.3 * lap + gp
    assert np.max(np.abs(f(x.T) - ref)) < 1e-10


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
    from conftest import constant_vector
    from thermoduct.fields import constant_scalar

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


# -- tabulation on the quadrature lines, in cell blocks -------------------------


def closed_forms(dims):
    """Every shipped closed-form callable on a channel of ``dims``: the
    ``fields`` constructors and each case's fields with their derivatives,
    and the four forcings of each case."""
    model = make_material(nu=1.3, cV=0.9, lam=1.1, alpha1=0.4,
                          law=clamped_boussinesq(1.0, alpha_v=0.1))
    flds = {"constant_scalar": constant_scalar(0.7),
            "span_scalar": span_scalar(1, 1.0, 0.5, dims[1])}
    cases = (v.trig_case(dims, nu=1.3), v.poly_case(dims), v.incompatible_heat_case(dims),
             v.coupled_case(dims))
    out = {}
    for case in cases:
        flds.update({f"{case.name}.{part}": getattr(case, part) for part in ("u", "p", "theta")})
        out.update({
            f"{case.name}.stokes_forcing": v.stokes_forcing(case, 1.3),
            f"{case.name}.heat_forcing_linear": v.heat_forcing_linear(case, 1.1),
            f"{case.name}.coupled_momentum_forcing":
                v.coupled_momentum_forcing(case, model, (0.1, 0.0, -0.5)),
            f"{case.name}.coupled_heat_forcing": v.coupled_heat_forcing(case, model),
        })
    for name, fld in flds.items():
        for kind in ("value", "grad", "laplacian"):
            if getattr(fld, kind) is not None:
                out[f"{name}.{kind}"] = getattr(fld, kind)
    return out


@pytest.fixture(scope="module", params=[((1.0, 0.7, 2.3), (3, 2, 5)), (DIMS, (4, 4, 16))],
                ids=["aniso", "channel"])
def dims_space(request):
    dims, divisions = request.param
    return dims, build_spaces(build_channel_mesh(*dims, *divisions))


def test_tabulation_on_lines_matches_pointwise_bitwise(dims_space):
    dims, space = dims_space
    points = oracles.quad_points(space).reshape(-1, 3)
    forms_ = closed_forms(dims)
    # the 2 fields constructors and the u, p and theta of the 4 cases, each
    # with value, grad and laplacian (42), and the 4 forcings of each case
    assert len(forms_) == 58
    for name, fn in forms_.items():
        pointwise = fn(points.T)
        pointwise = pointwise.reshape(space.n_cells, space.nq, *pointwise.shape[1:])
        assert np.array_equal(forms.quad_values(space, fn), pointwise), name
        for cells in forms.cell_blocks(space):
            assert np.array_equal(forms.quad_values(space, fn, cells), pointwise[cells]), name


@pytest.mark.parametrize("axis", [1, 2])
def test_span_scalar_is_the_affine_profile(dims_space, axis):
    # theta0 + delta * x_axis / length, from the two-term separable field:
    # bit for bit at length 1, where delta * (x / L) is delta * x / L, and
    # to 1 ulp otherwise; its gradient delta * (1 / L) and Laplacian 0
    dims, space = dims_space
    theta0, delta, length = 1.0, 0.3, dims[axis]
    fld = span_scalar(axis, theta0, delta, length)
    for x in (oracles.quad_points(space).reshape(-1, 3).T, space.q2_nodes.T):
        want = theta0 + delta * x[axis] / length
        got = fld(x)
        if length == 1.0:
            assert np.array_equal(got, want)
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
        slope = np.zeros((x.shape[1], 3))
        slope[:, axis] = delta * (1.0 / length)
        assert np.array_equal(fld.grad(x), slope)
        assert abs(slope[0, axis] - delta / length) <= np.spacing(delta / length)
        assert np.array_equal(fld.laplacian(x), np.zeros(x.shape[1]))


def test_blocked_loads_and_norms_match_one_block(monkeypatch):
    # 8x8x10 cells: blocks of 4, 4 and 2 z layers of 64 cells
    space = build_spaces(build_channel_mesh(1.0, 1.0, 1.25, 8, 8, 10), quad_order=4)
    assert [c.stop - c.start for c in forms.cell_blocks(space)] == [256, 256, 128]
    case = v.trig_case(space.mesh.dims, nu=1.0)
    model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.3,
                          law=clamped_boussinesq(1.0, alpha_v=0.1))
    rng = np.random.default_rng(5)
    u, th = rng.normal(size=space.n_velocity), rng.normal(size=space.n_scalar)
    p = rng.normal(size=space.n_pressure)
    # tabulated (cells, nq, ...) data
    g = forms.quad_values(space, v.stokes_forcing(case, 1.0))
    h = rng.normal(size=(space.n_cells, space.nq))

    def outputs():
        return [
            forms.field_load_vector(space, v.stokes_forcing(case, 1.0)),
            forms.field_load_scalar(space, v.heat_forcing_linear(case, 1.0)),
            forms.field_load_vector(space, (0.0, 0.2, -1.0)),
            forms.field_load_scalar(space, h),
            forms.convection_load(space, model, u, u),
            forms.assemble_e_load(space, model, u),
            forms.assemble_d_load(space, model, th, u, th),
            forms.assemble_buoyancy(space, model, th, (0.0, 0.0, -1.0)),
            np.array([forms.discrete_norms(space, u, "W2s", s=1.8),
                      forms.discrete_norms(space, th, "Ls", s=3)]),
            np.array([forms.lp_norm_of_values(space, lambda cells: g[cells], 1.8),
                      forms.lp_norm_of_values(space, lambda cells: h[cells], 3.0),
                      forms.lp_norm_of_values(space, lambda cells: (0.0, 0.2, -1.0), 2.0)]),
            np.array(v._error_norms(space, u, case.u)),
            np.array(v._error_norms(space, th, case.theta)),
            v._squared_error(space, forms.eval_pressure, p, case.p),
        ]

    blocked = outputs()
    monkeypatch.setattr(forms, "_BLOCK_CELLS", space.n_cells)
    assert len(list(forms.cell_blocks(space))) == 1
    for got, want in zip(blocked, outputs()):
        assert np.array_equal(got, want)


def test_mms_data_kernels_allocate_under_16_mib():
    # the finest mms_stokes level: the transients of the forcing load, the
    # error norms, the four Picard loads and an s != 2 norm are bounded by
    # the cell block, not by the 256,000 quadrature points
    dims = (1.0, 1.0, 4.0)
    space = build_spaces(build_channel_mesh(*dims, 8, 8, 32))
    case = v.trig_case(dims, nu=1.0)
    forcing = v.stokes_forcing(case, 1.0)
    model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.3,
                          law=clamped_boussinesq(1.0, alpha_v=0.1))
    rng = np.random.default_rng(2)
    u, th = rng.normal(size=space.n_velocity), rng.normal(size=space.n_scalar)
    for run in (lambda: forms.field_load_vector(space, forcing),
                lambda: v._error_norms(space, u, case.u),
                lambda: forms.convection_load(space, model, u, u),
                lambda: forms.assemble_e_load(space, model, u),
                lambda: forms.assemble_d_load(space, model, th, u, th),
                lambda: forms.assemble_buoyancy(space, model, th, (0.0, 0.0, -1.0)),
                lambda: forms.discrete_norms(space, u, "W2s", s=1.8)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
