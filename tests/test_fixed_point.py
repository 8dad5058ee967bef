import csv
import re

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from thermoduct import build_channel_mesh, build_spaces, fixed_point, forms, linsolve
from thermoduct.fields import constant_scalar, span_scalar
from thermoduct.fixed_point import (
    CoupledProblem,
    DivergenceError,
    State,
    backward_flow_measure,
    contraction_ratios,
    heat_solve,
    inner_momentum_solve,
    outer_loop,
    weak_residual,
    write_trace_csv,
)
from thermoduct.material import clamped_boussinesq, constant_density, make_material

import oracles
from oracles import Field, zeros
from conftest import constant_vector, linear_field_dofs

DUCT_CENTER_SPEED = 0.0736713512666702   # series solution of -lap w = 1 on the unit square


def duct_problem(F, divisions=(2, 4, 4), alpha1=0.0, g=None):
    mesh = build_channel_mesh(2.0, 1.0, 1.0, *divisions)
    space = build_spaces(mesh)
    model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=alpha1,
                          law=constant_density(1.0))
    g = (F, 0.0, 0.0) if g is None else g
    return space, model, CoupledProblem(space, model, g, constant_scalar(0.0))


# -- inner momentum iteration -----------------------------------------------------


def test_inner_zero_data_one_iteration(small_space, boussinesq_model):
    prob = CoupledProblem(small_space, boussinesq_model, (0, 0, 0), constant_scalar(1.0))
    u, P, increments = inner_momentum_solve(prob, prob.theta_D, tol=1e-12)
    assert len(increments) == 1
    assert np.all(u == 0.0)
    assert np.all(P == 0.0)
    assert increments[-1] <= 1e-12


def test_inner_reproduces_duct_profile():
    space, model, prob = duct_problem(F=2.0)
    u, P, _ = inner_momentum_solve(prob, np.zeros(space.n_scalar), tol=1e-12)
    sx, sy, sz = space.q2_shape
    center = (sx // 2) + sx * ((sy // 2) + sy * (sz // 2))
    assert u[center] == pytest.approx(DUCT_CENTER_SPEED * 2.0, rel=1e-2)
    # unidirectional flow: transverse components vanish, profile x-independent
    assert np.abs(u[space.n_scalar:]).max() < 1e-10
    assert np.abs(P).max() < 1e-10


def test_inner_contraction_ratio_scales_with_load():
    betas = {}
    norms = {}
    for F in (4.0, 2.0, 1.0, 0.5):
        space, model, prob = duct_problem(F, g=(F, 0.3 * F, 0.0))
        u, _, increments = inner_momentum_solve(
            prob, np.zeros(space.n_scalar), tol=1e-13, max_iter=60
        )
        betas[F] = max(contraction_ratios(increments))
        norms[F] = forms.discrete_norms(space, u, "H1")
    # contraction factor decreases with the load and scales like ||u||
    assert betas[4.0] > betas[2.0] > betas[1.0] > betas[0.5]
    for big, small in ((4.0, 2.0), (2.0, 1.0), (1.0, 0.5)):
        assert 1.6 < betas[big] / betas[small] < 2.5
        assert 1.8 < norms[big] / norms[small] < 2.2


def test_inner_divergence_reported_with_trace():
    space, model, prob = duct_problem(F=1e4, g=(1e4, 3e3, 0.0))
    with pytest.raises(DivergenceError) as err:
        inner_momentum_solve(prob, np.zeros(space.n_scalar), tol=1e-12, max_iter=40)
    assert len(err.value.increments) >= 4
    assert all(r >= 1.0 for r in contraction_ratios(err.value.increments)[-3:])
    assert err.value.records == []


# -- linearized heat solve ----------------------------------------------------------


def test_heat_solve_constant_boundary_data(small_space, boussinesq_model):
    prob = CoupledProblem(small_space, boussinesq_model, (0, 0, 0), constant_scalar(2.0))
    vt = heat_solve(prob, np.zeros(small_space.n_velocity), prob.theta_D)
    assert np.abs(vt).max() < 1e-10


def test_heat_solve_matches_direct_solve_linear_lifting(small_space, unit_model):
    # theta_D = x: the corrected temperature solves the homogeneous heat
    # problem with trace x, independently computed by direct elimination
    lift = Field(lambda x: x[0])
    prob = CoupledProblem(small_space, unit_model, (0, 0, 0), lift)
    vt = heat_solve(prob, np.zeros(small_space.n_velocity), prob.theta_D)
    theta = prob.theta_D + vt

    kappa = oracles.assemble_kappa(small_space, unit_model)
    free = small_space.free_theta
    fixed = oracles.dirichlet_mask_theta(small_space)
    ref = np.zeros(small_space.n_scalar)
    ref[fixed] = small_space.q2_nodes[fixed, 0]
    rhs = -(kappa[:, fixed] @ ref[fixed])
    ref[free] = spsolve(kappa[free][:, free].tocsc(), rhs[free])
    assert np.abs(theta - ref).max() < 1e-10


def test_heat_solve_matches_direct_solve_with_dissipation(small_space, unit_model):
    # u = (y,0,0): alpha1 nu e(u):e(u) = 1/2 everywhere; compare against a
    # direct Poisson solve with that constant source plus the convection load
    u = linear_field_dofs(small_space, 0, 1)
    prob = CoupledProblem(small_space, unit_model, (0, 0, 0), constant_scalar(1.0))
    vt = heat_solve(prob, u, prob.theta_D)

    space = small_space
    free = space.free_theta
    source = forms.field_load_scalar(space, constant_scalar(0.5))
    conv = forms.assemble_d_load(space, unit_model, prob.theta_D, u, prob.theta_D)
    rhs = source - conv - prob.lifting_load
    ref = np.zeros(space.n_scalar)
    ref[free] = spsolve(oracles.assemble_kappa(space, unit_model)[free][:, free].tocsc(), rhs[free])
    assert np.abs(vt - ref).max() < 1e-10


# -- outer loop ---------------------------------------------------------------------


def test_outer_zero_data_exact(small_space, boussinesq_model):
    prob = CoupledProblem(small_space, boussinesq_model, (0, 0, 0), constant_scalar(3.0))
    state, records = outer_loop(prob)
    assert len(records) == 1
    assert np.linalg.norm(state.u) == 0.0
    assert np.abs(state.theta - 3.0).max() < 1e-10


def test_outer_dirichlet_rows_exactly_zero(small_space, boussinesq_model):
    prob = CoupledProblem(
        small_space, boussinesq_model, (0, 0, -0.3), span_scalar(1, 1.0, 0.5, 1.0)
    )
    state, _ = outer_loop(prob)
    assert np.all(state.u[oracles.dirichlet_mask_u(small_space)] == 0.0)
    wall = oracles.dirichlet_mask_theta(small_space)
    assert np.all(state.theta[wall] == prob.theta_D[wall])


def test_dissipation_heats_the_channel():
    # switching alpha1 on from zero must not decrease the mean temperature
    mesh = build_channel_mesh(1, 1, 2, 2, 2, 4)
    space = build_spaces(mesh)
    means = {}
    for alpha1 in (0.0, 0.05):
        model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=alpha1,
                              law=clamped_boussinesq(1.0, alpha_v=0.1))
        prob = CoupledProblem(space, model, (0, 0, -1.0), span_scalar(1, 1.0, 0.5, 1.0))
        state, _ = outer_loop(prob)
        vals = forms.eval_scalar(space, state.theta)
        means[alpha1] = np.einsum("q,cq->", space.wq, vals) / 2.0   # |Omega| = 2
    assert means[0.05] >= means[0.0] - 1e-13
    # and the dissipation source itself is pointwise nonnegative
    model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.05,
                          law=clamped_boussinesq(1.0, alpha_v=0.1))
    prob = CoupledProblem(space, model, (0, 0, -1.0), span_scalar(1, 1.0, 0.5, 1.0))
    state, _ = outer_loop(prob)
    diss = forms.dissipation_value(space, model, state.u)
    assert np.all(diss >= 0.0)
    assert np.einsum("q,cq->", space.wq, diss) >= 0.0


def test_translation_consistency_constant_density(small_space):
    # with a shift-invariant density law, shifting theta_D by a constant
    # shifts theta by exactly that constant and leaves the flow unchanged
    model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.1,
                          law=constant_density(1.0))
    g = (0, 0, -0.5)
    base = CoupledProblem(small_space, model, g, span_scalar(1, 1.0, 0.5, 1.0))
    shifted = CoupledProblem(small_space, model, g, span_scalar(1, 6.0, 0.5, 1.0))
    s1, _ = outer_loop(base)
    s2, _ = outer_loop(shifted)
    assert np.abs(s1.u - s2.u).max() < 1e-9
    assert np.abs((s2.theta - s1.theta) - 5.0).max() < 1e-9


def test_outer_converged_residuals(small_space, boussinesq_model):
    prob = CoupledProblem(
        small_space, boussinesq_model, (0, 0, -0.4), span_scalar(1, 1.0, 0.5, 1.0)
    )
    state, _ = outer_loop(prob, outer_tol=1e-10)
    r_mom, r_heat = weak_residual(prob, state)
    assert r_mom <= 1e-9
    assert r_heat <= 1e-9


def test_problem_data_evaluated_once(small_space, boussinesq_model):
    # f_extra is frozen for the whole iteration: it is tabulated once (for
    # its load, one cell block on this mesh), not per step
    calls = {"f": 0}

    def counted(key, vector):
        def value(x):
            calls[key] += 1
            return np.broadcast_to(vector, zeros(x, 3).shape).copy()

        return Field(value)

    prob = CoupledProblem(
        small_space, boussinesq_model, (0.0, 0.0, -0.4),
        span_scalar(1, 1.0, 0.5, 1.0), f_extra=counted("f", (0.01, 0.0, 0.0)),
    )
    state, records = outer_loop(prob, outer_tol=1e-10)
    weak_residual(prob, state)
    assert len(records) > 1
    assert calls == {"f": 1}


def test_body_force_must_be_a_constant_3_vector(small_space, boussinesq_model):
    theta_D = constant_scalar(0.0)
    for g, got in ((lambda x: zeros(x, 3), "function"),
                   (np.ones((small_space.n_cells, small_space.nq, 3)),
                    rf"shape \({small_space.n_cells}, {small_space.nq}, 3\)"),
                   ((0.0, -1.0), r"shape \(2,\)")):
        with pytest.raises(ValueError, match=f"^g must be a constant 3-vector, got {got}$"):
            CoupledProblem(small_space, boussinesq_model, g, theta_D)
    prob = CoupledProblem(small_space, boussinesq_model, [0, 0, -1], theta_D)
    assert prob.g.shape == (3,) and prob.g.dtype == float


@pytest.mark.parametrize("datum", ["g", "theta_D", "f_extra", "h_extra"])
def test_nonfinite_problem_data_named(datum, small_space, boussinesq_model):
    data = {"g": (0.0, 0.0, -0.4), "theta_D": span_scalar(1, 1.0, 0.5, 1.0)}
    data[datum] = {
        "g": (0.0, 0.0, np.inf),
        "theta_D": Field(lambda x: np.where(x[1] > 0.5, np.nan, 1.0)),
        "f_extra": constant_vector((0.0, -np.inf, 0.0)),
        "h_extra": Field(lambda x: np.full_like(zeros(x), np.nan)),
    }[datum]
    with pytest.raises(ValueError, match=f"^{datum} is not finite"):
        CoupledProblem(small_space, boussinesq_model, **data)


def test_data_tabulated_on_another_mesh_rejected(small_space, boussinesq_model):
    # values tabulated on 4x4x16 are sliced per cell block of the 2x2x4
    # space only if their (n_cells, nq) is checked first
    other = build_spaces(build_channel_mesh(1.0, 1.0, 4.0, 4, 4, 16))
    h = np.ones((other.n_cells, other.nq))
    f = np.ones((other.n_cells, other.nq, 3))
    match = (rf"shape \({other.n_cells}, {other.nq}(, 3)?\) do not match the space's "
             rf"\(n_cells, nq\) = \({small_space.n_cells}, {small_space.nq}\)")
    for build in (lambda: forms.field_load_scalar(small_space, h),
                  lambda: forms.field_load_vector(small_space, f)):
        with pytest.raises(ValueError, match=match):
            build()


def test_closed_form_data_need_whole_z_layers():
    # a callable is tabulated on the z lines of whole layers of 16 cells:
    # a slice that cuts a layer would get another block's cells, or none
    space = build_spaces(build_channel_mesh(1.0, 1.0, 4.0, 4, 4, 16))
    fld = span_scalar(1, 1.0, 0.5, 1.0)
    assert np.array_equal(forms.quad_values(space, fld, slice(16, 48)),
                          forms.quad_values(space, fld)[16:48])
    for cells in (slice(0, 5), slice(8, 24), slice(0, 32, 2)):
        with pytest.raises(ValueError, match=rf"cells {re.escape(str(cells))} are not "
                                             r"whole z layers of 16 cells"):
            forms.quad_values(space, fld, cells)


def test_problem_and_saddle_allocate_under_2_mb(boussinesq_model):
    # the operators keep only their 1-D factors: an assembled CSR K of
    # 4x4x16 would hold 9.6 MB
    import tracemalloc

    space = build_spaces(build_channel_mesh(1.0, 1.0, 4.0, 4, 4, 16))
    tracemalloc.start()
    try:
        CoupledProblem(space, boussinesq_model, (0, 0, -1), constant_scalar(1.0)).saddle
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_coupled_problem_tabulates_forcings_per_block():
    # the forcings become loads block by block, never tabulated on the
    # whole 8x8x32 quadrature grid (a 57.6 MiB peak)
    import tracemalloc

    from thermoduct.verification import coupled_case, coupled_heat_forcing, coupled_momentum_forcing

    dims, g = (1.0, 1.0, 4.0), (0.0, 0.0, -1.0)
    space = build_spaces(build_channel_mesh(*dims, 8, 8, 32))
    model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.0, law=constant_density(1.0))
    case = coupled_case(dims)
    tracemalloc.start()
    try:
        CoupledProblem(space, model, g, case.theta, f_extra=coupled_momentum_forcing(case, model, g),
                       h_extra=coupled_heat_forcing(case, model))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_weak_residual_of_rest_state_is_load_norm(small_space, boussinesq_model):
    prob = CoupledProblem(small_space, boussinesq_model, (0, 0, -1.0), constant_scalar(0.0))
    rest = State(
        u=np.zeros(small_space.n_velocity),
        P=np.zeros(small_space.n_pressure),
        theta=prob.theta_D,
    )
    r_mom, r_heat = weak_residual(prob, rest)
    load = prob.momentum_load(prob.theta_D)
    assert r_mom == pytest.approx(np.linalg.norm(load[small_space.free_u]), rel=1e-12)
    assert r_heat < 1e-12


def test_weak_residual_matches_separately_assembled_operators(small_space, boussinesq_model):
    # weak_residual reads A u - D^T P and -D u from the saddle operator K;
    # the oracle applies A and D assembled on their own.  The converged
    # state is moved off its solution, so that the residual is not rounding
    # and its mass part is far above the 1e-12 tolerance.
    space, model = small_space, boussinesq_model
    prob = CoupledProblem(space, model, (0, 0, -0.3), span_scalar(1, 1.0, 0.5, 1.0),
                          f_extra=(0.1, 0.0, 0.2))
    state, _ = outer_loop(prob)
    rng = np.random.default_rng(41)
    u, P = state.u.copy(), state.P + rng.normal(size=space.n_pressure)
    u[space.free_u] += rng.normal(size=space.free_u.size)
    r_mom, _ = weak_residual(prob, State(u, P, state.theta))

    A, D = oracles.assemble_a(space, model), oracles.divergence_matrix(space)
    mom = (A @ u - D.T @ P + forms.convection_load(space, model, u, u)
           - forms.assemble_buoyancy(space, model, state.theta, prob.g) - prob.f_extra_load)
    mass = np.linalg.norm(D @ u)
    oracle = np.hypot(np.linalg.norm(mom[space.free_u]), mass)
    assert mass > 1e-2 * oracle
    assert r_mom == pytest.approx(oracle, rel=1e-12)
    assert not hasattr(prob, "A") and not hasattr(prob, "D")


def test_weak_residual_is_the_next_correction_rhs(monkeypatch, boussinesq_model):
    # the momentum residual at a state is, bit for bit, the norm of the
    # right-hand side that the next inner step hands the saddle solver
    space = build_spaces(build_channel_mesh(1.0, 1.0, 2.0, 2, 2, 8))
    prob = CoupledProblem(space, boussinesq_model, (0, 0, -0.3), span_scalar(1, 1.0, 0.5, 1.0),
                          f_extra=(0.1, 0.0, 0.2))
    state, _ = outer_loop(prob)
    r_mom, _ = weak_residual(prob, state)

    rhs = []
    solve = prob.saddle.solve
    monkeypatch.setattr(prob.saddle, "solve", lambda *args: rhs.append(args) or solve(*args))
    inner_momentum_solve(prob, state.theta, u_init=state.u, P_init=state.P)
    mom, mass = rhs[0]
    assert r_mom == float(np.sqrt(np.sum(mom[space.free_u] ** 2) + np.sum(mass ** 2)))


def test_saddle_only_problem_builds_no_heat_solver(monkeypatch, small_space, boussinesq_model):
    built = []
    init = linsolve.WallSolver.__init__
    monkeypatch.setattr(linsolve.WallSolver, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    prob = CoupledProblem(small_space, boussinesq_model, (0, 0, -1.0), constant_scalar(0.0),
                          f_extra=(0.1, 0.0, 0.2))
    prob.saddle.solve(prob.f_extra_load)
    assert built == []
    assert prob.heat is prob.heat and built == [1]


def test_outer_exhaustion_carries_trace(small_space, boussinesq_model):
    prob = CoupledProblem(
        small_space, boussinesq_model, (0, 0, -0.4), span_scalar(1, 1.0, 0.5, 1.0)
    )
    with pytest.raises(DivergenceError) as err:
        outer_loop(prob, outer_tol=1e-16, max_outer=2)
    assert [r.iteration for r in err.value.records] == [1, 2]
    assert err.value.increments == []


def test_outer_keeps_records_on_inner_divergence(monkeypatch, small_space, boussinesq_model):
    # an inner failure in step 3 re-raises with steps 1 and 2 and its own increments
    prob = CoupledProblem(
        small_space, boussinesq_model, (0, 0, -0.4), span_scalar(1, 1.0, 0.5, 1.0)
    )
    solve = fixed_point.inner_momentum_solve
    calls = []

    def fail_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise DivergenceError("expanding", increments=[1.0, 2.0, 4.0, 8.0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(fixed_point, "inner_momentum_solve", fail_third)
    with pytest.raises(DivergenceError) as err:
        outer_loop(prob, outer_tol=1e-16, max_outer=5)
    assert [r.iteration for r in err.value.records] == [1, 2]
    assert err.value.increments == [1.0, 2.0, 4.0, 8.0]


def test_record_quantities_read_from_increments(small_space, boussinesq_model):
    prob = CoupledProblem(
        small_space, boussinesq_model, (0, 0, -0.4), span_scalar(1, 1.0, 0.5, 1.0)
    )
    _, records = outer_loop(prob, inner_tol=1e-12)
    for rec in records:
        # every increment but the last is above the tolerance, so all the
        # successive quotients are contraction ratios
        assert rec.increments[-1] <= 1e-12
        assert all(inc > 1e-12 for inc in rec.increments[:-1])
        assert rec.inner_iters == len(rec.increments)
        assert rec.inner_ratios == [b / a for a, b in zip(rec.increments, rec.increments[1:])]
        assert rec.beta_hat == max(rec.inner_ratios, default=0.0)
    assert contraction_ratios([2.0]) == []
    assert contraction_ratios([4.0, 2.0, 1.0]) == [0.5, 0.5]


# -- backward flow ------------------------------------------------------------------


def test_backward_flow_of_rest_state(small_space):
    flow = backward_flow_measure(small_space, np.zeros(small_space.n_velocity))
    assert flow.min_flux == 0.0
    assert flow.inflow_fraction == 0.0


def test_backward_flow_sign_bookkeeping_duct():
    # positive duct flow: the inlet face x=0 has u.n = -w < 0 everywhere
    # (registered as 'backward' by sign convention), the outlet none
    space, model, prob = duct_problem(F=2.0, divisions=(2, 4, 4))
    u, _, _ = inner_momentum_solve(prob, np.zeros(space.n_scalar), tol=1e-12)
    flow = backward_flow_measure(space, u)
    inlet_min, inlet_frac = flow.per_face["x0"]
    outlet_min, outlet_frac = flow.per_face["x1"]
    w_max = u[: space.n_scalar].max()
    assert inlet_frac == pytest.approx(1.0, abs=1e-12)
    assert outlet_frac <= 1e-12
    # the minimum is over surface quadrature points, which need not contain
    # the profile peak node
    assert inlet_min == pytest.approx(-w_max, rel=1e-2)
    assert inlet_min < 0
    assert flow.min_flux == inlet_min


def test_backward_flow_detects_recirculation(small_space):
    # transverse-varying axial velocity changes sign across the outlet
    u = np.zeros(small_space.n_velocity)
    u[: small_space.n_scalar] = small_space.q2_nodes[:, 1] - 0.5
    flow = backward_flow_measure(small_space, u)
    _, outlet_frac = flow.per_face["x1"]
    assert 0.2 < outlet_frac < 0.8
    assert flow.min_flux < 0


# -- trace ---------------------------------------------------------------------------


def test_trace_csv_format(tmp_path, small_space, boussinesq_model):
    prob = CoupledProblem(
        small_space, boussinesq_model, (0, 0, -0.4), span_scalar(1, 1.0, 0.5, 1.0)
    )
    _, records = outer_loop(prob)
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0].keys()) == [
        "iter", "inner_iters", "beta_hat", "d_theta_norm",
        "r_momentum", "r_heat", "min_flux", "inflow_fraction",
    ]
    assert len(rows) == len(records)
    assert float(rows[-1]["d_theta_norm"]) <= 1e-10
    for rec in records:
        assert rec.d_theta_norm >= 0
        assert all(r >= 0 for r in rec.inner_ratios)


def test_trace_iteration_index_monotone(small_space, boussinesq_model):
    prob = CoupledProblem(
        small_space, boussinesq_model, (0, 0, -0.4), span_scalar(1, 1.0, 0.5, 1.0)
    )
    _, records = outer_loop(prob)
    its = [r.iteration for r in records]
    assert its == list(range(1, len(its) + 1))
    assert all(r.wall_time >= 0 for r in records)
