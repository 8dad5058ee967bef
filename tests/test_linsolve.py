import functools

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from thermoduct import build_channel_mesh, build_spaces, forms, linsolve
from thermoduct.forms import _kron3
from thermoduct.linsolve import (
    LinearSolveError,
    SaddleFactorization,
    SingularMatrixError,
    WallSolver,
    _TensorInverse,
    solve_spd,
)
from thermoduct.material import constant_density, make_material


def _eliminated(K, fixed, rhs):
    """Dense oracle of an assembled K: identity rows and columns, zero load
    on the fixed dofs."""
    K = K.toarray()
    K[fixed, :] = 0.0
    K[:, fixed] = 0.0
    K[fixed, fixed] = 1.0
    rhs = np.array(rhs, dtype=float)
    rhs[fixed] = 0.0
    return K, rhs


def _saddle(space, model):
    return forms.assemble_saddle(forms.assemble_a(space, model), forms.divergence_matrix(space))


def _factor(K, space, nu=1.0):
    return SaddleFactorization(K, space, nu)


def _jacobi(A):
    """The diagonal (Jacobi) preconditioner of A."""
    d = A.diagonal()
    return lambda r: r / d


def test_cg_identity():
    A = sp.identity(5, format="csr")
    r = np.arange(1.0, 6.0)
    assert np.allclose(solve_spd(A.__matmul__, r, precond=_jacobi(A)), r, atol=1e-14)


def test_cg_tridiagonal_hand_solution():
    # tridiag(-1, 2, -1), rhs (1,1,1): elimination gives (1.5, 2, 1.5)
    A = sp.diags([[-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0]], offsets=[-1, 0, 1], format="csr")
    x = solve_spd(A.__matmul__, np.ones(3), precond=_jacobi(A))
    assert np.allclose(x, [1.5, 2.0, 1.5], atol=1e-12)


def test_cg_zero_rhs():
    A = sp.identity(4, format="csr")
    assert np.all(solve_spd(A.__matmul__, np.zeros(4), precond=_jacobi(A)) == 0.0)


def test_cg_rejects_indefinite_matrix():
    # positive diagonal but indefinite: curvature check must trip
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(LinearSolveError) as err:
        solve_spd(A.__matmul__, np.array([1.0, -1.0]), precond=_jacobi(A))
    assert err.value.residual_history


def test_cg_rejects_negative_diagonal():
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(SingularMatrixError):
        solve_spd(A.__matmul__, np.ones(2), precond=_jacobi(A))


def test_cg_reports_history_on_exhaustion():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(30, 30))
    A = sp.csr_matrix(M @ M.T + 30 * np.eye(30))
    with pytest.raises(LinearSolveError) as err:
        solve_spd(A.__matmul__, rng.normal(size=30), precond=_jacobi(A), max_iter=2)
    assert len(err.value.residual_history) == 3


def test_cg_iteration_budget_on_heat_operator():
    # Jacobi-preconditioned CG stays within the default 10*sqrt(n) budget
    space = build_spaces(build_channel_mesh(1, 1, 2, 3, 3, 6))
    model = make_material(nu=1, cV=1, lam=1, alpha1=0, law=constant_density(1))
    K = oracles.assemble_kappa(space, model)
    free = space.free_theta
    Kff = K[free][:, free].tocsr()
    rhs = np.random.default_rng(1).normal(size=Kff.shape[0])
    x = solve_spd(Kff.__matmul__, rhs, precond=_jacobi(Kff))
    assert np.linalg.norm(Kff @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


@pytest.fixture(scope="module")
def lam_model():
    return make_material(nu=1.0, cV=1.0, lam=2.5, alpha1=1.0, law=constant_density(1.0))


def test_wall_solver_matches_dense_oracle(cube_space, lam_model):
    K = forms.assemble_kappa(cube_space, lam_model)
    fixed = oracles.dirichlet_mask_theta(cube_space)
    load = np.random.default_rng(2).normal(size=cube_space.n_scalar)
    x = WallSolver(K, cube_space, 2.5).solve(load)
    assert np.all(x[fixed] == 0.0)
    x_ref = np.linalg.solve(*_eliminated(oracles.assemble_kappa(cube_space, lam_model),
                                         fixed, load))
    assert np.linalg.norm(x - x_ref) <= 1e-13 * np.linalg.norm(x_ref)


def test_wall_solver_rejects_a_kappa_of_another_lam(cube_space, lam_model):
    # built for lam = 1, handed a kappa assembled with lam = 2.5
    solver = WallSolver(forms.assemble_kappa(cube_space, lam_model), cube_space, 1.0)
    load = np.random.default_rng(3).normal(size=cube_space.n_scalar)
    with pytest.raises(SingularMatrixError, match=r"operator kappa \(relative residual"):
        solver.solve(load)


def test_wall_solver_zero_load_gives_exact_zeros(cube_space, lam_model):
    x = WallSolver(forms.assemble_kappa(cube_space, lam_model), cube_space, 2.5).solve(
        np.zeros(cube_space.n_scalar))
    assert x.shape == (cube_space.n_scalar,) and np.all(x == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_wall_solver_rejects_non_finite_load_before_solving(cube_space, unit_model, bad):
    K = forms.assemble_kappa(cube_space, unit_model)
    load = np.ones(cube_space.n_scalar)
    load[cube_space.free_theta[3]] = bad
    with pytest.raises(LinearSolveError, match="non-finite") as err:
        WallSolver(K, cube_space, unit_model.lam).solve(load)
    assert not isinstance(err.value, SingularMatrixError)
    assert err.value.residual_history == []


def test_saddle_zero_rhs(cube_space, unit_model):
    K = _saddle(cube_space, unit_model)
    u, P, norm = _factor(K, cube_space).solve(np.zeros(cube_space.n_velocity))
    assert np.all(u == 0.0) and np.all(P == 0.0) and norm == 0.0
    assert P.size == cube_space.n_pressure


@pytest.fixture(scope="module")
def uneven_space():
    """Odd, unequal divisions of non-cubic cells."""
    return build_spaces(build_channel_mesh(1.0, 0.7, 2.3, 3, 2, 5))


@pytest.mark.parametrize("space_name", ["cube_space", "uneven_space"])
def test_saddle_matches_dense_oracle_on_manufactured_load(space_name, unit_model, request):
    # load induced by a manufactured solenoidal field; the oracle is a dense
    # solve of [[A, D^T], [D, 0]], whose pressure part is the negated pressure
    from thermoduct import verification as v

    space = request.getfixturevalue(space_name)
    case = v.trig_case(space.mesh.dims, nu=unit_model.nu)
    load = forms.field_load_vector(space, v.stokes_forcing(case, unit_model.nu))
    fixed = oracles.dirichlet_mask_u(space)
    A = oracles.assemble_a(space, unit_model)
    D = oracles.divergence_matrix(space)
    K_ref, rhs = _eliminated(
        sp.bmat([[A, D.T], [D, None]]), fixed,
        np.concatenate([load, np.zeros(space.n_pressure)]),
    )
    x_ref = np.linalg.solve(K_ref, rhs)
    n = space.n_velocity
    u, P, _ = _factor(_saddle(space, unit_model), space).solve(load)
    assert np.linalg.norm(u - x_ref[:n]) <= 1e-8 * np.linalg.norm(x_ref[:n])
    assert np.linalg.norm(P + x_ref[n:]) <= 1e-8 * np.linalg.norm(x_ref[n:])


@pytest.mark.parametrize("space_name", ["cube_space", "uneven_space"])
def test_pressure_mass_inverse_matches_the_assembled_mass(space_name, unit_model, request):
    # oracle: the 3-D Q1 mass assembled as a sparse Kronecker product
    space = request.getfixturevalue(space_name)
    Mx, My, Mz = (ax.Mp for ax in space.axis_matrices)
    Mp = sp.kron(sp.kron(Mz, My), Mx, format="csr")
    lu = _factor(_saddle(space, unit_model), space).lu
    x = np.random.default_rng(11).normal(size=space.n_pressure)
    assert np.linalg.norm(lu.solve(Mp @ x) - x) <= 1e-13 * np.linalg.norm(x)
    assert lu.nnz == sum(M.shape[0] ** 2 for M in (Mx, My, Mz))


def test_batched_schur_apply_matches_the_per_direction_loop(uneven_space, unit_model):
    # reference: one Kronecker product per direction d, summed in order
    fac = _factor(_saddle(uneven_space, unit_model), uneven_space)
    Cx, Cy, Cz = fac.C
    rng = np.random.default_rng(12)
    p = rng.normal(size=uneven_space.n_pressure)
    U = rng.normal(size=(3, *fac.inverse.inv_lam.shape))
    P = p.reshape(fac.p_shape)
    gradient = np.stack([_kron3(Cz[d].T, Cy[d].T, Cx[d].T, P) for d in range(3)])
    divergence = sum(_kron3(Cz[d], Cy[d], Cx[d], U[d]) for d in range(3))
    assert np.array_equal(fac._gradient(p), gradient)
    assert np.array_equal(fac._divergence(U), divergence)


@pytest.mark.parametrize("divisions", [(2, 2, 8), (4, 4, 16)])
def test_saddle_solve_gives_the_h1_norm_of_its_velocity(divisions):
    # the eigenbasis sum of (1 + λx + λy + λz) ξ² against the 1-D factor
    # norm of the velocity it returns, at a viscosity other than 1
    space = build_spaces(build_channel_mesh(1.0, 1.0, 4.0, *divisions))
    model = make_material(nu=0.37, cV=1.0, lam=1.0, alpha1=1.0, law=constant_density(1.0))
    fac = _factor(_saddle(space, model), space, nu=0.37)
    rng = np.random.default_rng(13)
    for pressure_load in (None, rng.normal(size=space.n_pressure)):
        u, _, norm = fac.solve(rng.normal(size=space.n_velocity), pressure_load)
        want = forms.discrete_norms(space, u, "H1")
        assert abs(norm - want) <= 1e-13 * want
    assert fac.solve(np.zeros(space.n_velocity))[2] == 0.0


def test_saddle_factorization_reuse(cube_space, unit_model):
    K = oracles.assemble_saddle(oracles.assemble_a(cube_space, unit_model),
                                oracles.divergence_matrix(cube_space))
    fixed = oracles.dirichlet_mask_u(cube_space)
    fac = _factor(_saddle(cube_space, unit_model), cube_space)
    rng = np.random.default_rng(4)
    for pressure_load in (None, rng.normal(size=cube_space.n_pressure)):
        load = rng.normal(size=cube_space.n_velocity)
        u, P, _ = fac.solve(load, pressure_load)
        assert np.all(u[fixed] == 0.0)
        g = np.zeros(P.size) if pressure_load is None else pressure_load
        Kc, rhs = _eliminated(K, fixed, np.concatenate([load, g]))
        x = np.concatenate([u, P])
        assert np.linalg.norm(Kc @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_non_finite_load_is_not_reported_as_singular(cube_space, unit_model):
    K = _saddle(cube_space, unit_model)
    fac = _factor(K, cube_space)
    load, pressure_load = np.zeros(cube_space.n_velocity), np.zeros(cube_space.n_pressure)
    for rhs in (load, pressure_load):
        rhs[7] = np.nan
        with pytest.raises(LinearSolveError) as err:
            fac.solve(load, pressure_load)
        assert not isinstance(err.value, SingularMatrixError)
        assert "non-finite right-hand side" in str(err.value)
        rhs[7] = 0.0


def test_saddle_solve_rejects_a_foreign_operator(cube_space, unit_model):
    # built for nu = 1, handed an operator assembled with nu = 2
    model = make_material(nu=2.0, cV=1.0, lam=1.0, alpha1=1.0, law=constant_density(1.0))
    fac = _factor(_saddle(cube_space, model), cube_space, nu=1.0)
    load = np.random.default_rng(9).normal(size=cube_space.n_velocity)
    with pytest.raises(SingularMatrixError, match="relative residual"):
        fac.solve(load)


def test_schur_cg_reports_history_on_exhaustion(cube_space, unit_model, monkeypatch):
    monkeypatch.setattr(linsolve, "solve_spd", functools.partial(solve_spd, max_iter=2))
    fac = _factor(_saddle(cube_space, unit_model), cube_space)
    load = np.random.default_rng(10).normal(size=cube_space.n_velocity)
    with pytest.raises(LinearSolveError) as err:
        fac.solve(load)
    assert not isinstance(err.value, SingularMatrixError)
    assert len(err.value.residual_history) == 3


@pytest.mark.parametrize("divisions", [(2, 2, 8), (4, 4, 16)])
def test_tensor_inverse_inverts_the_free_stiffness(divisions):
    space = build_spaces(build_channel_mesh(1.0, 1.0, 4.0, *divisions))
    free = space.free_theta
    S_ff = oracles.scalar_stiffness(space)[free][:, free].toarray()
    inverse = _TensorInverse(space.axis_matrices, space.free_lines, 2.5)
    product = inverse.apply(2.5 * S_ff)   # row by row; S_ff is symmetric
    assert np.abs(product - np.eye(free.size)).max() <= 1e-13


def test_solves_are_bit_identical(cube_space, unit_model):
    K = _saddle(cube_space, unit_model)
    load = np.random.default_rng(5).normal(size=cube_space.n_velocity)
    u1, P1, n1 = _factor(K, cube_space).solve(load)
    u2, P2, n2 = _factor(K, cube_space).solve(load)
    assert np.array_equal(u1, u2) and np.array_equal(P1, P2) and n1 == n2

    A = sp.diags([2.0] * 50, format="csr") + sp.diags([0.5] * 49, 1) + sp.diags([0.5] * 49, -1)
    b = np.random.default_rng(6).normal(size=50)
    A = A.tocsr()
    assert np.array_equal(solve_spd(A.__matmul__, b, _jacobi(A)), solve_spd(A.__matmul__, b, _jacobi(A)))


def test_cg_budget_on_viscous_operator(cube_space, unit_model):
    A = oracles.assemble_a(cube_space, unit_model)
    free = cube_space.free_u
    Aff = A[free][:, free].tocsr()
    rhs = np.random.default_rng(8).normal(size=Aff.shape[0])
    x = solve_spd(Aff.__matmul__, rhs, precond=_jacobi(Aff))   # default budget is 10 sqrt(n)
    assert np.linalg.norm(Aff @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
