"""Constructive fixed-point scheme for the coupled flow/temperature system.

The momentum equation is solved for a frozen temperature by successive
substitution (the convective term is re-evaluated at the previous
velocity iterate, the viscous saddle factorization is reused), which is a
Banach contraction for small data.  The linearized heat equation is then
solved with frozen convection and dissipation loads, and the outer loop
composes the two maps until the homogeneous temperature part stops
moving.  Stopping norms for both loops are discrete H1 norms of the
increments.
"""

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import forms
from .linsolve import SaddleFactorization, WallCG

__all__ = [
    "State",
    "InnerTrace",
    "OuterRecord",
    "IterationTrace",
    "CoupledProblem",
    "inner_momentum_solve",
    "heat_solve",
    "outer_loop",
    "weak_residual",
    "backward_flow_measure",
    "BackwardFlowReport",
    "DivergenceError",
    "write_trace_csv",
]


class DivergenceError(RuntimeError):
    """Iteration failure; carries the trace collected so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass
class State:
    """One iterate of the coupled system.

    ``vartheta`` is the wall-homogeneous temperature part; the full
    temperature is ``theta = theta_D + vartheta``.  Wall rows of ``u`` and
    ``vartheta`` are exactly zero.  Converged states cache the pointwise
    momentum source field so that the load (graph) norm is available.
    """

    u: np.ndarray
    P: np.ndarray
    vartheta: np.ndarray
    theta_D: np.ndarray
    momentum_source: np.ndarray = None   # (ncells, nq, 3) or None

    @property
    def theta(self):
        return self.theta_D + self.vartheta


@dataclass
class InnerTrace:
    increments: list
    ratios: list
    converged: bool


@dataclass
class BackwardFlowReport:
    min_flux: float
    inflow_fraction: float
    per_face: dict


@dataclass
class OuterRecord:
    iteration: int
    inner_iters: int
    beta_hat: float
    d_theta_norm: float
    r_momentum: float
    r_heat: float
    flow: BackwardFlowReport
    wall_time: float
    inner_ratios: list


@dataclass
class IterationTrace:
    records: list = field(default_factory=list)


class CoupledProblem:
    """Assembled problem: operators, boundary data and extra forcings.

    The data are frozen for the whole iteration, so each is evaluated once.
    ``g`` (a constant 3-vector or a field) and the optional momentum forcing
    ``f_extra`` are stored as quadrature values (``forms.quad_values``);
    ``theta_D``, a field lifting of the wall temperature, is interpolated
    onto the temperature space; the optional heat forcing ``h_extra`` is
    kept as its load vector.  The heat CG solve runs to a relative
    tolerance of 1e-13.
    """

    def __init__(self, space, model, g, theta_D, f_extra=None, h_extra=None):
        self.space = space
        self.model = model
        self.g = forms.quad_values(space, g)

        self.A = forms.assemble_a(space, model)
        self.D = forms.divergence_matrix(space)
        self.kappa = forms.assemble_kappa(space, model)
        self.heat = WallCG(self.kappa, space.dirichlet_mask_theta, 1e-13)

        self.theta_D = forms.interpolate_scalar(space, theta_D)
        self.lifting_load = self.kappa @ self.theta_D

        if f_extra is None:
            self.f_extra = None
            self.f_extra_load = np.zeros(space.n_velocity)
        else:
            self.f_extra = forms.quad_values(space, f_extra)
            self.f_extra_load = forms.field_load_vector(space, self.f_extra)
        self.h_extra_load = (
            forms.field_load_scalar(space, h_extra)
            if h_extra is not None
            else np.zeros(space.n_scalar)
        )

    @functools.cached_property
    def saddle(self):
        """The wall-eliminated saddle factorization, built on first use."""
        K = forms.assemble_saddle(self.A, self.D)
        space = self.space
        return SaddleFactorization(K, space.dirichlet_mask_u, space.saddle_order)

    def buoyancy_load(self, theta_full):
        return forms.assemble_buoyancy(self.space, self.model, theta_full, self.g)


def inner_momentum_solve(problem, theta_full, u_init=None, tol=1e-12, max_iter=50):
    """Contraction iteration for momentum at frozen temperature.

    Returns (u, P, InnerTrace).  The empirical contraction ratio
    ``increment_k / increment_{k-1}`` is recorded for every step whose
    predecessor is above the tolerance; three consecutive ratios >= 1
    raise DivergenceError (violated smallness).
    """
    space, model = problem.space, problem.model
    load = problem.buoyancy_load(theta_full) + problem.f_extra_load
    u = np.zeros(space.n_velocity) if u_init is None else np.array(u_init, dtype=float)
    increments, ratios = [], []
    bad_streak = 0
    for _ in range(max_iter):
        conv = forms.convection_load(space, model, u, u)
        w, P = problem.saddle.solve(load - conv)
        inc = forms.discrete_norms(space, w - u, "H1")
        if increments and increments[-1] > tol:
            ratio = inc / increments[-1]
            ratios.append(ratio)
            bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
            if bad_streak >= 3:
                raise DivergenceError(
                    "momentum iteration expanding for 3 consecutive steps "
                    f"(last ratio {ratio:.3f}); smallness condition violated?",
                    trace=InnerTrace(increments + [inc], ratios, False),
                )
        increments.append(inc)
        u = w
        if inc <= tol:
            return u, P, InnerTrace(increments, ratios, True)
    raise DivergenceError(
        f"momentum iteration did not contract below {tol:g} in {max_iter} steps",
        trace=InnerTrace(increments, ratios, False),
    )


def heat_solve(problem, u, vartheta_frozen):
    """Linearized heat solve with frozen convection and dissipation.

    Solves kappa(vartheta, phi) = e(u,u,phi) - d(theta, u, theta, phi)
    - kappa(theta_D, phi) with theta = theta_D + vartheta_frozen; returns
    the wall-homogeneous temperature part.
    """
    space, model = problem.space, problem.model
    theta_full = problem.theta_D + vartheta_frozen
    rhs = (
        forms.assemble_e_load(space, model, u, u)
        - forms.assemble_d_load(space, model, theta_full, u, theta_full)
        - problem.lifting_load
        + problem.h_extra_load
    )
    return problem.heat.solve(rhs)


def outer_loop(problem, outer_tol=1e-10, max_outer=30, inner_tol=1e-12,
               max_inner=50):
    """Picard composition of the momentum and heat maps from vartheta = 0.

    Each step takes the heat map's output as the next temperature, without
    relaxation.  Stops when the H1 norm of the temperature update drops
    below ``outer_tol``; raises DivergenceError (with the trace) on
    exhaustion or propagated inner divergence.
    """
    space = problem.space
    vartheta = np.zeros(space.n_scalar)
    u = np.zeros(space.n_velocity)
    trace = IterationTrace()
    for n in range(1, max_outer + 1):
        t0 = time.perf_counter()
        theta_full = problem.theta_D + vartheta
        u, P, inner = inner_momentum_solve(
            problem, theta_full, u_init=u, tol=inner_tol, max_iter=max_inner
        )
        vartheta_new = heat_solve(problem, u, vartheta)
        d_theta = forms.discrete_norms(space, vartheta_new - vartheta, "H1")
        vartheta = vartheta_new

        state = State(u=u, P=P, vartheta=vartheta, theta_D=problem.theta_D)
        r_mom, r_heat = weak_residual(problem, state)
        trace.records.append(
            OuterRecord(
                iteration=n,
                inner_iters=len(inner.increments),
                beta_hat=max(inner.ratios) if inner.ratios else 0.0,
                d_theta_norm=d_theta,
                r_momentum=r_mom,
                r_heat=r_heat,
                flow=backward_flow_measure(space, u),
                wall_time=time.perf_counter() - t0,
                inner_ratios=list(inner.ratios),
            )
        )
        if d_theta <= outer_tol:
            _attach_sources(problem, state)
            return state, trace
    raise DivergenceError(
        f"outer loop did not converge in {max_outer} iterations "
        f"(last update {trace.records[-1].d_theta_norm:.3e})",
        trace=trace,
    )


def _attach_sources(problem, state):
    """Cache the pointwise momentum source so the load (graph) norm is available."""
    space, model = problem.space, problem.model
    mom = forms.buoyancy_value(space, model, state.theta, problem.g) - forms.convection_value(
        space, model, state.u, state.u
    )
    if problem.f_extra is not None:
        mom = mom + problem.f_extra
    state.momentum_source = mom


def weak_residual(problem, state):
    """Norms of the discrete momentum+mass and heat residuals on free rows."""
    space, model = problem.space, problem.model
    u, P, theta = state.u, state.P, state.theta
    mom = (
        problem.A @ u
        - problem.D.T @ P
        + forms.convection_load(space, model, u, u)
        - problem.buoyancy_load(theta)
        - problem.f_extra_load
    )
    r_mom = float(np.sqrt(np.sum(mom[space.free_u] ** 2) + np.sum((problem.D @ u) ** 2)))

    heat = (
        problem.kappa @ theta
        + forms.assemble_d_load(space, model, theta, u, theta)
        - forms.assemble_e_load(space, model, u, u)
        - problem.h_extra_load
    )
    r_heat = float(np.linalg.norm(heat[space.free_theta]))
    return r_mom, r_heat


def backward_flow_measure(space, u):
    """Minimum of u.n over the open ends and the inflow area fraction.

    Inflow (u.n < 0) through the do-nothing boundary is admissible
    'backward flow'; reported per face and aggregated.
    """
    u = np.asarray(u, dtype=float)
    per_face = {}
    total_area = 0.0
    total_inflow = 0.0
    global_min = np.inf
    for name in ("x0", "x1"):
        un, wts = forms.surface_velocity_normal(space, u, name)
        area = float(wts.sum() * un.shape[0])
        inflow = float(np.einsum("q,cq->", wts, (un < 0).astype(float)))
        face_min = float(un.min()) if un.size else 0.0
        per_face[name] = (face_min, inflow / area)
        total_area += area
        total_inflow += inflow
        global_min = min(global_min, face_min)
    return BackwardFlowReport(
        min_flux=float(global_min),
        inflow_fraction=total_inflow / total_area,
        per_face=per_face,
    )


def write_trace_csv(trace, path):
    """Iteration trace as CSV; columns are fixed, floats use 17 digits."""
    cols = (
        "iter,inner_iters,beta_hat,d_theta_norm,r_momentum,r_heat,"
        "min_flux,inflow_fraction"
    )
    lines = [cols]
    for r in trace.records:
        lines.append(
            f"{r.iteration},{r.inner_iters},"
            f"{r.beta_hat:.17g},{r.d_theta_norm:.17g},{r.r_momentum:.17g},"
            f"{r.r_heat:.17g},{r.flow.min_flux:.17g},{r.flow.inflow_fraction:.17g}"
        )
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
