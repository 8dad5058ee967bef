"""Constructive fixed-point scheme for the coupled flow/temperature system.

The momentum equation is solved for a frozen temperature by successive
substitution (the convective term is re-evaluated at the previous
velocity iterate, the viscous saddle solver is reused), which is a Banach
contraction for small data.  Each step solves for the correction to the
current iterate, whose right-hand side is the iterate's residual, so the
saddle solver's relative tolerance scales with the increment; the outer
loop carries the velocity and the pressure from step to step.  The
linearized heat equation is then solved with frozen convection and
dissipation loads, and the outer loop composes the two maps until the
homogeneous temperature part stops moving.  Each discrete equation is a
method of ``CoupledProblem``, which both steps solve and ``weak_residual``
norms.  Stopping norms for both loops are discrete H1 norms of the
increments: the inner loop takes each velocity increment's from the
saddle solve, which reads it in its eigenbasis as one weighted sum of
squares, and the outer loop norms each temperature update with
``forms.discrete_norms``.  Each outer step keeps its inner increments in
one plain ``OuterRecord``, from which its contraction ratios are read.
"""

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import forms
from .linsolve import LinearSolveError, SaddleFactorization, WallSolver

__all__ = [
    "State",
    "OuterRecord",
    "CoupledProblem",
    "contraction_ratios",
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
    """Iteration failure.  ``records``: the outer steps completed before it;
    ``increments``: those of a failed momentum solve.  Both are lists."""

    def __init__(self, message, records=(), increments=()):
        super().__init__(message)
        self.records = list(records)
        self.increments = list(increments)


@dataclass
class State:
    """One iterate of the coupled system.

    ``theta`` is the full temperature, the lifting ``theta_D`` plus a
    wall-homogeneous part.  Wall rows of ``u`` are exactly zero.
    """

    u: np.ndarray
    P: np.ndarray
    theta: np.ndarray


@dataclass
class BackwardFlowReport:
    min_flux: float
    inflow_fraction: float
    per_face: dict


def contraction_ratios(increments):
    """Empirical contraction ratios ``increment_k / increment_{k-1}``."""
    return [b / a for a, b in zip(increments, increments[1:])]


@dataclass
class OuterRecord:
    iteration: int
    increments: list          # H1 norms of the momentum solve's updates
    d_theta_norm: float
    r_momentum: float
    r_heat: float
    flow: BackwardFlowReport
    wall_time: float

    @property
    def inner_iters(self):
        return len(self.increments)

    @property
    def inner_ratios(self):
        return contraction_ratios(self.increments)

    @property
    def beta_hat(self):       # the largest inner contraction ratio
        return max(self.inner_ratios, default=0.0)


class CoupledProblem:
    """Assembled problem: its two solvers, data and Picard equations.

    Each operator is built once, as a Kronecker apply of its 1-D factors
    (``forms``), and kept in one place: ``kappa`` with its solver ``heat``
    (``WallSolver``, the exact tensor inverse at ``model.lam``) here, and
    ``K = [[A, -Dᵀ], [-D, 0]]``, the only copy of ``A`` and ``D``, in
    ``saddle``.  Both solvers are built on first use, and only here.
    ``momentum_load``, ``momentum_rhs`` and ``heat_load`` state each
    equation once, for the steps that solve it and the residual that norms it.

    The data are frozen for the whole iteration, so none is evaluated per
    step.  ``g``, the body force, is a constant 3-vector, stored as a (3,)
    array; anything else raises ValueError naming g.  ``theta_D``, a field
    lifting of the wall temperature, is interpolated onto the temperature
    space; the optional forcings ``f_extra`` (momentum) and ``h_extra``
    (heat) are kept as their load vectors, which the ``forms`` loads
    tabulate block by block, and ``f_extra`` also as given, which
    ``certificates.state_norms`` tabulates block by block into a state's
    momentum source.  Data whose values or loads are not finite raise
    ValueError naming the datum.
    """

    def __init__(self, space, model, g, theta_D, f_extra=None, h_extra=None):
        self.space = space
        self.model = model
        self.g = _body_force(g)

        self.kappa = forms.assemble_kappa(space, model)
        self.theta_D = _finite("theta_D", forms.interpolate_scalar(space, theta_D))
        self.lifting_load = self.kappa @ self.theta_D

        self.f_extra = f_extra
        self.f_extra_load = _forcing_load(
            "f_extra", forms.field_load_vector, space, f_extra, space.n_velocity)
        self.h_extra_load = _forcing_load(
            "h_extra", forms.field_load_scalar, space, h_extra, space.n_scalar)

    @functools.cached_property
    def saddle(self):
        """The saddle solver, built on first use; its ``K`` is the one copy of A and D."""
        K = forms.assemble_saddle(
            forms.assemble_a(self.space, self.model), forms.divergence_matrix(self.space))
        return SaddleFactorization(K, self.space, self.model.nu)

    @functools.cached_property
    def heat(self):
        """The heat solver on ``kappa``, built on first use."""
        return WallSolver(self.kappa, self.space, self.model.lam)

    def momentum_load(self, theta):
        """rho(theta) g + f_extra, the momentum load at the temperature ``theta``."""
        return forms.assemble_buoyancy(self.space, self.model, theta, self.g) + self.f_extra_load

    def momentum_rhs(self, load, u, P):
        """The correction step's right-hand side ``[load - b(u,u) - (A u - Dᵀ P); D u]``."""
        conv = forms.convection_load(self.space, self.model, u, u)
        KuP = self.saddle.K @ np.concatenate([u, P])   # [A u - Dᵀ P; -D u]
        return load - conv - KuP[:u.size], -KuP[u.size:]

    def heat_load(self, u, theta):
        """The heat solve's right-hand side e(u,u) - d(theta,u,theta) - kappa theta_D + h."""
        return (
            forms.assemble_e_load(self.space, self.model, u)
            - forms.assemble_d_load(self.space, self.model, theta, u, theta)
            - self.lifting_load
            + self.h_extra_load
        )


def _finite(name, values, what="values"):
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise ValueError(f"{name} is not finite at {bad} of {values.size} {what}")
    return values


def _body_force(g):
    """``g`` as a finite (3,) array; ValueError naming g for anything else."""
    try:
        vec = np.asarray(g, dtype=float)
    except (TypeError, ValueError):
        vec = None
    if vec is None or vec.shape != (3,):
        got = type(g).__name__ if vec is None else f"shape {vec.shape}"
        raise ValueError(f"g must be a constant 3-vector, got {got}")
    return _finite("g", vec)


def _forcing_load(name, load, space, fld, n):
    """``load(space, fld)``, or n zeros without a forcing.  Data that are not
    finite make a load that is not, which raises ValueError naming the
    datum; the scatter's floating-point warnings on them give way to it."""
    if fld is None:
        return np.zeros(n)
    with np.errstate(invalid="ignore", over="ignore"):
        values = load(space, fld)
    return _finite(name, values, "load entries")


def inner_momentum_solve(problem, theta, u_init=None, P_init=None, tol=1e-12,
                         max_iter=50):
    """Contraction iteration for momentum at the frozen temperature ``theta``.

    Each step solves ``K [du; dP] = [load - conv(u); 0] - K [u; P]`` for the
    update of the iterate (from ``u_init``, ``P_init``, zero when omitted).
    Returns (u, P, increments), the H1 norms of the successive updates du
    as the saddle solve gives them.
    Every increment but the last is above ``tol``, so their
    ``contraction_ratios`` are the empirical contraction ratios; three
    consecutive ratios >= 1 raise DivergenceError (violated smallness).
    """
    space = problem.space
    load = problem.momentum_load(theta)
    u = np.zeros(space.n_velocity) if u_init is None else np.array(u_init, dtype=float)
    P = np.zeros(space.n_pressure) if P_init is None else np.array(P_init, dtype=float)
    increments = []
    for _ in range(max_iter):
        du, dP, norm = problem.saddle.solve(*problem.momentum_rhs(load, u, P))
        increments.append(norm)
        u, P = u + du, P + dP
        if increments[-1] <= tol:
            return u, P, increments
        last = contraction_ratios(increments[-4:])
        if len(last) == 3 and all(r >= 1.0 for r in last):
            raise DivergenceError(
                "momentum iteration expanding for 3 consecutive steps "
                f"(last ratio {last[-1]:.3f}); smallness condition violated?",
                increments=increments,
            )
    raise DivergenceError(
        f"momentum iteration did not contract below {tol:g} in {max_iter} steps",
        increments=increments,
    )


def heat_solve(problem, u, theta):
    """Linearized heat solve at frozen ``u`` and full temperature ``theta``: the
    wall-homogeneous part vartheta of kappa vartheta = ``problem.heat_load(u, theta)``."""
    return problem.heat.solve(problem.heat_load(u, theta))


def outer_loop(problem, outer_tol=1e-10, max_outer=30, inner_tol=1e-12,
               max_inner=50):
    """Picard composition of the momentum and heat maps from vartheta = 0.

    Each step takes the heat map's output as the next temperature, without
    relaxation.  Stops when the H1 norm of the temperature update drops
    below ``outer_tol`` and returns (state, records), one OuterRecord per
    step.  Exhaustion, or a momentum solve that fails, raises
    DivergenceError (on exhaustion its message gives the updates' last
    contraction ratio, see ``_exhaustion_message``); a linear solve that
    fails raises LinearSolveError.
    Either carries the records completed so far as ``records``.
    """
    space = problem.space
    vartheta = np.zeros(space.n_scalar)
    theta = problem.theta_D + vartheta
    u, P = np.zeros(space.n_velocity), np.zeros(space.n_pressure)
    records = []
    for n in range(1, max_outer + 1):
        t0 = time.perf_counter()
        try:
            u, P, increments = inner_momentum_solve(
                problem, theta, u_init=u, P_init=P, tol=inner_tol, max_iter=max_inner
            )
            vartheta_new = heat_solve(problem, u, theta)
        except (DivergenceError, LinearSolveError) as exc:
            exc.records = records
            raise
        d_theta = forms.discrete_norms(space, vartheta_new - vartheta, "H1")
        vartheta = vartheta_new
        theta = problem.theta_D + vartheta

        state = State(u, P, theta)
        r_mom, r_heat = weak_residual(problem, state)
        records.append(
            OuterRecord(
                iteration=n,
                increments=increments,
                d_theta_norm=d_theta,
                r_momentum=r_mom,
                r_heat=r_heat,
                flow=backward_flow_measure(space, u),
                wall_time=time.perf_counter() - t0,
            )
        )
        if d_theta <= outer_tol:
            return state, records
    raise DivergenceError(_exhaustion_message(records, outer_tol), records=records)


def _exhaustion_message(records, outer_tol):
    """Why the outer loop stopped unconverged: its last update, the last
    contraction ratio of the updates and, below 1 (and for a positive
    ``outer_tol``), how many more steps would bring the update under
    ``outer_tol`` at that rate."""
    updates = [r.d_theta_norm for r in records]
    message = (f"outer loop did not converge in {len(records)} iterations "
               f"(last update {updates[-1]:.3e}")
    if len(updates) < 2:
        return message + ")"
    ratio = contraction_ratios(updates)[-1]
    message += f", last contraction ratio {ratio:.3f}"
    if ratio < 1.0 and outer_tol > 0:
        steps = math.ceil(math.log(outer_tol / updates[-1]) / math.log(ratio))
        message += f"; {steps} more steps to reach outer_tol = {outer_tol:g} at that rate"
    return message + ")"


def weak_residual(problem, state):
    """Norms of the discrete momentum+mass and heat residuals on free rows:
    of the ``momentum_rhs`` that the next inner step solves, and of
    kappa (theta - theta_D) - ``heat_load``."""
    space, u, theta = problem.space, state.u, state.theta
    mom, mass = problem.momentum_rhs(problem.momentum_load(theta), u, state.P)
    r_mom = float(np.sqrt(np.sum(mom[space.free_u] ** 2) + np.sum(mass ** 2)))
    heat = problem.kappa @ (theta - problem.theta_D) - problem.heat_load(u, theta)
    r_heat = float(np.linalg.norm(heat[space.free_theta]))
    return r_mom, r_heat


def backward_flow_measure(space, u):
    """Minimum of u.n over the open ends and the inflow area fraction.

    Inflow (u.n < 0) through the do-nothing boundary is admissible
    'backward flow'; reported per face and aggregated.
    """
    faces = {}   # name -> (min u.n, inflow area, area)
    for name in ("x0", "x1"):
        un, wts = forms.surface_velocity_normal(space, u, name)
        inflow = np.einsum("q,cq->", wts, (un < 0).astype(float))
        faces[name] = (float(un.min()), float(inflow), float(wts.sum() * un.shape[0]))
    mins, inflows, areas = zip(*faces.values())
    return BackwardFlowReport(
        min_flux=min(mins),
        inflow_fraction=sum(inflows) / sum(areas),
        per_face={name: (m, i / a) for name, (m, i, a) in faces.items()},
    )


def write_trace_csv(records, path):
    """Outer records as CSV; columns are fixed, floats use 17 digits."""
    cols = (
        "iter,inner_iters,beta_hat,d_theta_norm,r_momentum,r_heat,"
        "min_flux,inflow_fraction"
    )
    lines = [cols]
    for r in records:
        lines.append(
            f"{r.iteration},{r.inner_iters},"
            f"{r.beta_hat:.17g},{r.d_theta_norm:.17g},{r.r_momentum:.17g},"
            f"{r.r_heat:.17g},{r.flow.min_flux:.17g},{r.flow.inflow_fraction:.17g}"
        )
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
