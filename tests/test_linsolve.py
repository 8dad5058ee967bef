import numpy as np
import pytest
import scipy.sparse as sp

from thermoduct import build_channel_mesh, build_spaces, forms
from thermoduct.linsolve import (
    LinearSolveError,
    SaddleFactorization,
    SingularMatrixError,
    WallCG,
    solve_spd,
)
from thermoduct.material import constant_density, make_material


def _eliminated(K, fixed, rhs):
    """Dense oracle: identity rows and columns, zero load on the fixed dofs."""
    K = K.toarray()
    K[fixed, :] = 0.0
    K[:, fixed] = 0.0
    K[fixed, fixed] = 1.0
    rhs = np.array(rhs, dtype=float)
    rhs[fixed] = 0.0
    return K, rhs


def _saddle(space, model):
    return forms.assemble_saddle(forms.assemble_a(space, model), forms.divergence_matrix(space))


def test_cg_identity():
    A = sp.identity(5, format="csr")
    r = np.arange(1.0, 6.0)
    assert np.allclose(solve_spd(A, r), r, atol=1e-14)


def test_cg_tridiagonal_hand_solution():
    # tridiag(-1, 2, -1), rhs (1,1,1): elimination gives (1.5, 2, 1.5)
    A = sp.diags([[-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0]], offsets=[-1, 0, 1], format="csr")
    x = solve_spd(A, np.ones(3))
    assert np.allclose(x, [1.5, 2.0, 1.5], atol=1e-12)


def test_cg_zero_rhs():
    A = sp.identity(4, format="csr")
    assert np.all(solve_spd(A, np.zeros(4)) == 0.0)


def test_cg_rejects_indefinite_matrix():
    # positive diagonal but indefinite: curvature check must trip
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(LinearSolveError) as err:
        solve_spd(A, np.array([1.0, -1.0]))
    assert err.value.residual_history


def test_cg_rejects_negative_diagonal():
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(SingularMatrixError):
        solve_spd(A, np.ones(2))


def test_cg_reports_history_on_exhaustion():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(30, 30))
    A = sp.csr_matrix(M @ M.T + 30 * np.eye(30))
    with pytest.raises(LinearSolveError) as err:
        solve_spd(A, rng.normal(size=30), tol=1e-13, max_iter=2)
    assert len(err.value.residual_history) == 3


def test_cg_iteration_budget_on_heat_operator():
    # Jacobi-preconditioned CG stays within the default 10*sqrt(n) budget
    space = build_spaces(build_channel_mesh(1, 1, 2, 3, 3, 6))
    model = make_material(nu=1, rho0=1, cV=1, lam=1, alpha1=0, law=constant_density(1))
    K = forms.assemble_kappa(space, model)
    free = space.free_theta
    Kff = K[free][:, free].tocsr()
    rhs = np.random.default_rng(1).normal(size=Kff.shape[0])
    x = solve_spd(Kff, rhs, tol=1e-12)
    assert np.linalg.norm(Kff @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_wall_cg_matches_dense_oracle(cube_space, unit_model):
    K = forms.assemble_kappa(cube_space, unit_model)
    fixed = cube_space.dirichlet_mask_theta
    load = np.random.default_rng(2).normal(size=cube_space.n_scalar)
    x = WallCG(K, fixed, 1e-13).solve(load)
    assert np.all(x[fixed] == 0.0)
    x_ref = np.linalg.solve(*_eliminated(K, fixed, load))
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_saddle_zero_rhs(cube_space, unit_model):
    K = _saddle(cube_space, unit_model)
    u, P = SaddleFactorization(K, cube_space.dirichlet_mask_u).solve(
        np.zeros(cube_space.n_velocity)
    )
    assert np.all(u == 0.0) and np.all(P == 0.0)
    assert P.size == cube_space.n_pressure


def test_saddle_matches_dense_oracle_on_manufactured_load(cube_space, unit_model):
    # load induced by a manufactured solenoidal field; the oracle is a dense
    # solve of [[A, D^T], [D, 0]], whose pressure part is the negated pressure
    from thermoduct import verification as v

    case = v.trig_case((1.0, 1.0, 1.0), nu=unit_model.nu)
    load = forms.field_load_vector(cube_space, v.stokes_forcing(case, unit_model.nu))
    fixed = cube_space.dirichlet_mask_u
    A = forms.assemble_a(cube_space, unit_model)
    D = forms.divergence_matrix(cube_space)
    K_ref, rhs = _eliminated(
        sp.bmat([[A, D.T], [D, None]]), fixed,
        np.concatenate([load, np.zeros(cube_space.n_pressure)]),
    )
    x_ref = np.linalg.solve(K_ref, rhs)
    n = cube_space.n_velocity
    K = forms.assemble_saddle(A, D)
    u, P = SaddleFactorization(K, fixed).solve(load)
    assert np.linalg.norm(u - x_ref[:n]) <= 1e-8 * np.linalg.norm(x_ref[:n])
    assert np.linalg.norm(P + x_ref[n:]) <= 1e-8 * np.linalg.norm(x_ref[n:])


def test_pressure_nullspace_detected_without_open_ends(cube_space, unit_model):
    # constraining every boundary velocity dof removes the do-nothing ends,
    # leaving the constant-pressure nullspace: the solve must fail loudly
    space = cube_space
    K = _saddle(space, unit_model)
    nodes = space.q2_nodes
    Lx = space.mesh.dims[0]
    on_any = (
        (nodes[:, 0] == 0) | (nodes[:, 0] == Lx)
        | (nodes[:, 1] == 0) | (nodes[:, 1] == space.mesh.dims[1])
        | (nodes[:, 2] == 0) | (nodes[:, 2] == space.mesh.dims[2])
    )
    all_dirichlet = np.concatenate(
        [m * space.n_scalar + np.nonzero(on_any)[0] for m in range(3)]
    )
    # the load fills the mass rows too: with a velocity-only load the
    # all-wall system is consistent and hides the nullspace
    with pytest.raises(SingularMatrixError) as err:
        SaddleFactorization(K, all_dirichlet).solve(np.ones(K.shape[0]))
    assert "pivot" in str(err.value)

    # with the open ends present no fix is needed
    x, rest = SaddleFactorization(K, space.dirichlet_mask_u).solve(np.ones(K.shape[0]))
    assert np.isfinite(x).all() and rest.size == 0


def test_saddle_factorization_reuse(cube_space, unit_model):
    K = _saddle(cube_space, unit_model)
    fixed = cube_space.dirichlet_mask_u
    fac = SaddleFactorization(K, fixed)
    rng = np.random.default_rng(4)
    for _ in range(3):
        load = rng.normal(size=cube_space.n_velocity)
        u, P = fac.solve(load)
        assert np.all(u[fixed] == 0.0)
        Kc, rhs = _eliminated(K, fixed, np.concatenate([load, np.zeros(P.size)]))
        x = np.concatenate([u, P])
        assert np.linalg.norm(Kc @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_non_finite_load_is_not_reported_as_singular(cube_space, unit_model):
    K = _saddle(cube_space, unit_model)
    fac = SaddleFactorization(K, cube_space.dirichlet_mask_u)
    rhs = np.zeros(K.shape[0])
    rhs[7] = np.nan
    with pytest.raises(LinearSolveError) as err:
        fac.solve(rhs)
    assert not isinstance(err.value, SingularMatrixError)
    assert "non-finite right-hand side" in str(err.value)


def test_solves_are_bit_identical(cube_space, unit_model):
    K = _saddle(cube_space, unit_model)
    load = np.random.default_rng(5).normal(size=cube_space.n_velocity)
    u1, P1 = SaddleFactorization(K, cube_space.dirichlet_mask_u).solve(load)
    u2, P2 = SaddleFactorization(K, cube_space.dirichlet_mask_u).solve(load)
    assert np.array_equal(u1, u2) and np.array_equal(P1, P2)

    A = sp.diags([2.0] * 50, format="csr") + sp.diags([0.5] * 49, 1) + sp.diags([0.5] * 49, -1)
    b = np.random.default_rng(6).normal(size=50)
    assert np.array_equal(solve_spd(A.tocsr(), b), solve_spd(A.tocsr(), b))


def test_assembled_matrices_are_canonical_csr(cube_space, unit_model):
    # sorted, duplicate-free column indices per row; finite entries
    for M in (
        forms.assemble_a(cube_space, unit_model),
        forms.assemble_kappa(cube_space, unit_model),
        _saddle(cube_space, unit_model),
    ):
        M = M.tocsr()
        M.check_format(full_check=True)
        assert np.all(np.isfinite(M.data))
        for row in range(min(40, M.shape[0])):
            cols = M.indices[M.indptr[row]:M.indptr[row + 1]]
            assert np.all(np.diff(cols) > 0)


def test_cg_budget_on_viscous_operator(cube_space, unit_model):
    A = forms.assemble_a(cube_space, unit_model)
    free = np.ones(cube_space.n_velocity, dtype=bool)
    free[cube_space.dirichlet_mask_u] = False
    Aff = A[free][:, free].tocsr()
    rhs = np.random.default_rng(8).normal(size=Aff.shape[0])
    x = solve_spd(Aff, rhs, tol=1e-12)   # default budget is 10 sqrt(n)
    assert np.linalg.norm(Aff @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
