import functools
import os
import subprocess
import sys

import numpy as np
import pytest

import thermoduct
from thermoduct import build_channel_mesh, build_spaces, forms
from thermoduct.fields import constant_scalar
from thermoduct.linsolve import SaddleFactorization
from thermoduct.material import clamped_boussinesq, constant_density, make_material

import oracles
from conftest import divergence_free_samples, linear_field_dofs


# -- viscous operator -----------------------------------------------------------


def test_a_vanishes_on_constants(cube_space, unit_model):
    A = forms.assemble_a(cube_space, unit_model)
    u = np.zeros(cube_space.n_velocity)
    u[:cube_space.n_scalar] = 3.7
    assert abs(u @ (A @ u)) < 1e-12


def test_a_linear_shear_energy(cube_space, unit_model):
    # u = (y, 0, 0) on the unit cube: integral of |grad u|^2 is 1
    u = linear_field_dofs(cube_space, 0, 1)
    A = forms.assemble_a(cube_space, unit_model)
    assert u @ (A @ u) == pytest.approx(1.0, rel=1e-12)


def test_a_symmetry(cube_space, unit_model):
    A = forms.assemble_a(cube_space, unit_model)
    rng = np.random.default_rng(3)
    u = rng.normal(size=cube_space.n_velocity)
    v = rng.normal(size=cube_space.n_velocity)
    assert abs(u @ (A @ v) - v @ (A @ u)) < 1e-12


def test_a_scales_with_viscosity(cube_space):
    m1 = make_material(nu=1.0, cV=1, lam=1, alpha1=0, law=constant_density(1))
    m2 = make_material(nu=2.5, cV=1, lam=1, alpha1=0, law=constant_density(1))
    A1 = oracles.assemble_a(cube_space, m1)
    A2 = oracles.assemble_a(cube_space, m2)
    assert abs((A2 - 2.5 * A1)).max() < 1e-14


# -- saddle system ---------------------------------------------------------------


def test_divergence_rows_vanish_on_constants(cube_space):
    D = forms.divergence_matrix(cube_space)
    u = np.zeros(cube_space.n_velocity)
    u[:cube_space.n_scalar] = 1.0
    u[cube_space.n_scalar:2 * cube_space.n_scalar] = -2.0
    assert np.abs(D @ u).max() < 1e-14


def test_divergence_against_linear_field(cube_space):
    # u = (x, 0, 0), q = 1 on the unit cube: (q, div u) = 1
    D = forms.divergence_matrix(cube_space)
    u = linear_field_dofs(cube_space, 0, 0)
    q = np.ones(cube_space.n_pressure)
    assert q @ (D @ u) == pytest.approx(1.0, rel=1e-13)


def test_saddle_zero_load_zero_solution(cube_space, unit_model):
    K = forms.assemble_saddle(
        forms.assemble_a(cube_space, unit_model), forms.divergence_matrix(cube_space)
    )
    fac = SaddleFactorization(K, cube_space, unit_model.nu)
    u, P = fac.solve(np.zeros(cube_space.n_velocity))
    assert np.all(u == 0.0) and np.all(P == 0.0)


def test_saddle_no_open_end_boundary_rows(cube_space, unit_model):
    # natural condition: K applies just the assembled volume terms
    A = oracles.assemble_a(cube_space, unit_model)
    D = oracles.divergence_matrix(cube_space)
    K = forms.assemble_saddle(
        forms.assemble_a(cube_space, unit_model), forms.divergence_matrix(cube_space)
    )
    x = np.random.default_rng(1).normal(size=K.shape[1])
    ref = oracles.assemble_saddle(A, D) @ x
    assert np.abs(K @ x - ref).max() <= 1e-14 * np.abs(ref).max()


# -- convection ------------------------------------------------------------------


def test_b_zero_transport(cube_space, unit_model):
    u0 = np.zeros(cube_space.n_velocity)
    B = oracles.assemble_b(cube_space, unit_model, u0)
    assert abs(B).max() == 0.0


def test_b_unit_transport_example(cube_space, unit_model):
    # u0 = (1,0,0), v = (x,0,0), w = (1,0,0): integral is 1
    u0 = np.zeros(cube_space.n_velocity)
    u0[:cube_space.n_scalar] = 1.0
    v = linear_field_dofs(cube_space, 0, 0)
    B = oracles.assemble_b(cube_space, unit_model, u0)
    assert u0 @ (B @ v) == pytest.approx(1.0, rel=1e-12)


def test_b_linear_in_transport(cube_space, unit_model):
    rng = np.random.default_rng(5)
    u0 = rng.normal(size=cube_space.n_velocity)
    w0 = rng.normal(size=cube_space.n_velocity)
    B = oracles.assemble_b
    lhs = B(cube_space, unit_model, 2.0 * u0 + w0)
    rhs = 2.0 * B(cube_space, unit_model, u0) + B(cube_space, unit_model, w0)
    assert abs(lhs - rhs).max() < 1e-12


def test_convection_load_matches_operator(cube_space, unit_model):
    rng = np.random.default_rng(7)
    u0 = rng.normal(size=cube_space.n_velocity)
    v = rng.normal(size=cube_space.n_velocity)
    B = oracles.assemble_b(cube_space, unit_model, u0)
    load = forms.convection_load(cube_space, unit_model, u0, v)
    # B rows are test functions, so B @ v is the same functional
    assert np.abs(B @ v - load).max() < 1e-12


def test_outflow_identity(small_space, unit_model):
    rng = np.random.default_rng(11)
    v_fields = [rng.normal(size=small_space.n_velocity) for _ in range(4)]
    for u0 in divergence_free_samples(small_space, rng, 8):
        B = oracles.assemble_b(small_space, unit_model, u0)
        for v in v_fields:
            lhs = v @ (B @ v)
            rhs = oracles.outflow_boundary_term(small_space, unit_model, u0, v)
            assert abs(lhs - rhs) < 1e-10


# -- heat operator and loads ------------------------------------------------------


def test_kappa_constant_zero(cube_space, unit_model):
    K = forms.assemble_kappa(cube_space, unit_model)
    th = np.full(cube_space.n_scalar, 2.0)
    assert abs(th @ (K @ th)) < 1e-12


def test_kappa_linear_energy(cube_space):
    model = make_material(nu=1, cV=1, lam=2.0, alpha1=0, law=constant_density(1))
    K = forms.assemble_kappa(cube_space, model)
    th = cube_space.q2_nodes[:, 0].copy()
    assert th @ (K @ th) == pytest.approx(2.0, rel=1e-12)


def test_kappa_symmetry(cube_space, unit_model):
    K = forms.assemble_kappa(cube_space, unit_model)
    rng = np.random.default_rng(13)
    a = rng.normal(size=cube_space.n_scalar)
    b = rng.normal(size=cube_space.n_scalar)
    assert abs(a @ (K @ b) - b @ (K @ a)) < 1e-12


def test_d_load_zero_velocity(cube_space, unit_model):
    th = cube_space.q2_nodes[:, 0].copy()
    load = forms.assemble_d_load(
        cube_space, unit_model, th, np.zeros(cube_space.n_velocity), th
    )
    assert np.all(load == 0.0)


def test_d_load_constant_temperature(cube_space, unit_model):
    u = np.zeros(cube_space.n_velocity)
    u[:cube_space.n_scalar] = 1.0
    th = np.full(cube_space.n_scalar, 4.0)
    load = forms.assemble_d_load(cube_space, unit_model, th, u, th)
    assert np.abs(load).max() < 1e-14


def test_d_load_mass_matrix_oracle(cube_space, unit_model):
    # rho=1, c_V=1, u=(1,0,0), theta=x: entries are integrals of each basis
    # function, which equal the mass-matrix row sums
    u = np.zeros(cube_space.n_velocity)
    u[:cube_space.n_scalar] = 1.0
    th = cube_space.q2_nodes[:, 0].copy()
    load = forms.assemble_d_load(cube_space, unit_model, np.zeros_like(th), u, th)
    rowsums = np.asarray(oracles.assemble_mass(cube_space).sum(axis=1)).ravel()
    assert np.abs(load - rowsums).max() < 1e-13


def test_e_load_rigid_translation(cube_space, unit_model):
    u = np.zeros(cube_space.n_velocity)
    u[:cube_space.n_scalar] = 0.4
    u[cube_space.n_scalar:2 * cube_space.n_scalar] = -1.1
    load = forms.assemble_e_load(cube_space, unit_model, u)
    assert np.abs(load).max() < 1e-13


def test_e_load_shear_total(cube_space, unit_model):
    # u = (y,0,0), alpha1*nu = 1: e(u):e(u) = 1/2, total load = 1/2
    u = linear_field_dofs(cube_space, 0, 1)
    load = forms.assemble_e_load(cube_space, unit_model, u)
    assert load.sum() == pytest.approx(0.5, rel=1e-12)


def test_e_density_nonnegative(cube_space, unit_model):
    rng = np.random.default_rng(17)
    u = rng.normal(size=cube_space.n_velocity)
    vals = forms.dissipation_value(cube_space, unit_model, u)
    assert np.all(vals >= 0.0)


def test_e_bilinearity(cube_space, unit_model):
    # e(u):e(u) is the quadratic form of a symmetric bilinear form: it is
    # homogeneous of degree two and obeys the parallelogram law
    rng = np.random.default_rng(19)
    u = rng.normal(size=cube_space.n_velocity)
    v = rng.normal(size=cube_space.n_velocity)
    e = functools.partial(forms.assemble_e_load, cube_space, unit_model)
    base = e(u)
    assert np.abs(e(2.0 * u) - 4 * base).max() < 1e-12
    assert np.abs(e(u + v) + e(u - v) - 2 * base - 2 * e(v)).max() < 1e-12


def test_buoyancy_zero_gravity(cube_space, unit_model):
    load = forms.assemble_buoyancy(
        cube_space, unit_model, np.zeros(cube_space.n_scalar), (0, 0, 0)
    )
    assert np.all(load == 0.0)


def test_buoyancy_total_weight(cube_space, unit_model):
    load = forms.assemble_buoyancy(
        cube_space, unit_model, np.zeros(cube_space.n_scalar), (0, 0, -1.0)
    )
    z_total = load[2 * cube_space.n_scalar:].sum()
    assert z_total == pytest.approx(-1.0, rel=1e-12)   # -|Omega|


def test_buoyancy_clamped_scaling(cube_space):
    model = make_material(
        nu=1, cV=1, lam=1, alpha1=0,
        law=clamped_boussinesq(2.0, alpha_v=0.5, rho_min=0.6),
    )
    hot = np.full(cube_space.n_scalar, 1e6)
    load = forms.assemble_buoyancy(cube_space, model, hot, (0, 0, -1.0))
    z_total = load[2 * cube_space.n_scalar:].sum()
    assert z_total == pytest.approx(-0.6, rel=1e-12)


# -- norms -----------------------------------------------------------------------


def test_norms_of_zero_field(cube_space):
    z = np.zeros(cube_space.n_scalar)
    assert forms.discrete_norms(cube_space, z, "H1") == 0.0
    assert forms.discrete_norms(cube_space, z, "Ls", s=2.0) == 0.0
    assert forms.discrete_norms(cube_space, z, "W2s", s=2.0) == 0.0


def test_l2_norm_of_coordinate(cube_space):
    th = cube_space.q2_nodes[:, 0].copy()
    assert forms.discrete_norms(cube_space, th, "Ls", s=2.0) == pytest.approx(
        1.0 / np.sqrt(3.0), rel=1e-12
    )


def test_linear_field_has_no_second_derivatives(cube_space):
    th = cube_space.q2_nodes[:, 0].copy()
    hess = forms.eval_scalar_hess(cube_space, th)
    assert np.abs(hess).max() < 1e-12


def test_norms_reject_inadmissible_exponents(cube_space):
    th = cube_space.q2_nodes[:, 0].copy()
    with pytest.raises(ValueError):
        forms.discrete_norms(cube_space, th, "Ls", s=1.2)
    with pytest.raises(ValueError):
        forms.discrete_norms(cube_space, th, "W2s", s=3.2)
    with pytest.raises(ValueError):
        forms.discrete_norms(cube_space, th, "Ls")


# -- density-argument continuity of the heat convection load ----------------------


def _smooth_scalar(space, rng):
    x = space.q2_nodes
    Lx, Ly, Lz = space.mesh.dims
    out = np.zeros(space.n_scalar)
    for _ in range(3):
        k, m, n = rng.integers(1, 3, size=3)
        out += rng.normal() * (
            np.cos(k * np.pi * x[:, 0] / Lx)
            * np.cos(m * np.pi * x[:, 1] / Ly)
            * np.cos(n * np.pi * x[:, 2] / Lz)
        )
    return out


def _d_continuity_constant(space, model, seed, n_triples=12):
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_triples):
        t1 = _smooth_scalar(space, rng)
        t2 = t1 + 0.5 * _smooth_scalar(space, rng)
        u = np.concatenate([_smooth_scalar(space, rng) for _ in range(3)])
        th = _smooth_scalar(space, rng)
        dv = (forms.heat_convection_value(space, model, t1, u, th)
              - forms.heat_convection_value(space, model, t2, u, th))
        diff = forms.lp_norm_of_values(space, lambda cells: dv[cells], 2.0)
        gap = np.abs(forms.eval_scalar(space, t1 - t2)).max()
        denom = (
            model.C_rho
            * gap
            * forms.discrete_norms(space, u, "H1")
            * forms.discrete_norms(space, th, "H1")
        )
        if denom > 0:
            best = max(best, diff / denom)
    return best


def test_d_density_continuity_stable_under_refinement(boussinesq_model):
    # Lipschitz-in-density bound of the heat convection load: the measured
    # constant is finite and stable across one refinement
    coarse = build_spaces(build_channel_mesh(1, 1, 2, 2, 2, 4))
    fine = build_spaces(build_channel_mesh(1, 1, 2, 4, 4, 8))
    c1 = _d_continuity_constant(coarse, boussinesq_model, seed=23)
    c2 = _d_continuity_constant(fine, boussinesq_model, seed=23)
    assert np.isfinite(c1) and np.isfinite(c2) and c1 > 0
    assert abs(c2 - c1) / c1 < 0.25


# -- determinism -------------------------------------------------------------------


def test_assembly_bit_identical(cube_space, unit_model):
    rng = np.random.default_rng(29)
    u0 = rng.normal(size=cube_space.n_velocity)
    A1 = oracles.assemble_b(cube_space, unit_model, u0)
    A2 = oracles.assemble_b(cube_space, unit_model, u0)
    assert np.array_equal(A1.data, A2.data)
    th = rng.normal(size=cube_space.n_scalar)
    l1 = forms.assemble_d_load(cube_space, unit_model, th, u0, th)
    l2 = forms.assemble_d_load(cube_space, unit_model, th, u0, th)
    assert np.array_equal(l1, l2)


_KERNEL_DIGESTS = """
import hashlib
import numpy as np
from thermoduct import build_channel_mesh, build_spaces, forms
from thermoduct.certificates import estimate_constants
from thermoduct.material import clamped_boussinesq, make_material
from conftest import heat_problem

space = build_spaces(build_channel_mesh(1.0, 1.0, 4.0, 4, 4, 16))
model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.1,
                      law=clamped_boussinesq(1.0, alpha_v=0.1))
rng = np.random.default_rng(37)
th = rng.normal(size=space.n_scalar)
u = rng.normal(size=space.n_velocity)
p = rng.normal(size=space.n_pressure)
outputs = {
    "eval_scalar": forms.eval_scalar(space, th),
    "eval_scalar_grad": forms.eval_scalar_grad(space, th),
    "eval_scalar_hess": forms.eval_scalar_hess(space, th),
    "eval_velocity": forms.eval_velocity(space, u),
    "eval_velocity_grad": forms.eval_velocity_grad(space, u),
    "eval_pressure": forms.eval_pressure(space, p),
    "surface_velocity_normal": forms.surface_velocity_normal(space, u, "x1")[0],
    "assemble_d_load": forms.assemble_d_load(space, model, th, u, th),
    "convection_load": forms.convection_load(space, model, u, u),
    "discrete_norms": forms.discrete_norms(space, u, "W2s", s=2.0),
    "discrete_norms_H1": forms.discrete_norms(space, u, "H1"),
    "kappa": forms.assemble_kappa(space, model) @ th,
    "K": forms.assemble_saddle(forms.assemble_a(space, model), forms.divergence_matrix(space))
         @ np.concatenate([u, p]),
}
est = estimate_constants(heat_problem(build_spaces(build_channel_mesh(1.0, 1.0, 4.0, 2, 2, 8)),
                                      model), samples=100, seed=0)
outputs["estimate_constants"] = np.array([est.C_b, est.C_d, est.C_e, est.C_eps, est.C_1])
for name, value in outputs.items():
    print(name, hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest())
"""


def test_kernels_do_not_depend_on_blas_thread_count():
    # every quadrature evaluation, both load scatters, the norms, the
    # Kronecker applies of kappa and K and the certificate sampler give the
    # same bits with one and with two BLAS threads; the W2s and H1 norms
    # are Kronecker applies too
    src = os.path.dirname(os.path.dirname(os.path.abspath(thermoduct.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))   # for conftest's heat_problem
    path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", _KERNEL_DIGESTS],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(dict(line.split() for line in proc.stdout.splitlines()))
    assert len(digests[0]) == 14
    assert digests[0] == digests[1]


def test_interpolation_exact_for_quadratics(cube_space):
    fld = constant_scalar(2.0)
    dofs = forms.interpolate_scalar(cube_space, fld)
    vals = forms.eval_scalar(cube_space, dofs)
    assert np.abs(vals - 2.0).max() < 1e-14


def test_quad_order_controls_tables():
    space = build_spaces(build_channel_mesh(1, 1, 1, 1, 1, 1), quad_order=3)
    assert space.nq == 27
    with pytest.raises(ValueError):
        build_spaces(build_channel_mesh(1, 1, 1, 1, 1, 1), quad_order=2)


def test_d_load_linear_in_velocity_and_transport(cube_space, boussinesq_model):
    # the heat convection load is declared linear in the velocity and the
    # transported temperature; the density slot is deliberately nonlinear
    rng = np.random.default_rng(31)
    tf = rng.normal(size=cube_space.n_scalar)
    u = rng.normal(size=cube_space.n_velocity)
    th = rng.normal(size=cube_space.n_scalar)
    d = forms.assemble_d_load
    base = d(cube_space, boussinesq_model, tf, u, th)
    assert np.abs(d(cube_space, boussinesq_model, tf, 3.0 * u, th) - 3 * base).max() < 1e-12
    assert np.abs(d(cube_space, boussinesq_model, tf, u, 3.0 * th) - 3 * base).max() < 1e-12


def test_taylor_hood_inf_sup_stable():
    # discrete inf-sup constant of the velocity/pressure pair, as the
    # smallest eigenvalue of the pressure Schur complement against the
    # pressure mass matrix; it must be positive and not degrade under
    # refinement
    import scipy.linalg
    import scipy.sparse as sp

    from thermoduct.material import constant_density, make_material

    model = make_material(nu=1.0, cV=1, lam=1, alpha1=0, law=constant_density(1))

    def inf_sup(divs):
        space = build_spaces(build_channel_mesh(1, 1, 1, *divs), quad_order=3)
        A = oracles.assemble_a(space, model)
        M = oracles.assemble_mass(space)
        X = (A + sp.block_diag([M] * 3, format="csr")).toarray()
        D = oracles.divergence_matrix(space).toarray()
        free = space.free_u
        Xff = X[np.ix_(free, free)]
        Df = D[:, free]
        S = Df @ np.linalg.solve(Xff, Df.T)
        Mp = oracles.pressure_mass(space).toarray()   # trilinear basis
        eig = scipy.linalg.eigvalsh(S, Mp)
        return np.sqrt(max(eig.min(), 0.0))

    beta_coarse = inf_sup((2, 2, 2))
    beta_fine = inf_sup((3, 3, 3))
    assert beta_coarse > 0.05
    assert beta_fine > 0.05
    assert beta_fine > 0.5 * beta_coarse
