"""Manufactured-solution oracles and convergence studies.

Each manufactured case is a list of separable terms (``fields.Separable``),
its velocity the curl of a stream potential or a product of quadratic
bubbles; values, gradients and Laplacians are exact partials from the one
evaluator (``Separable.partials``) and 1-D factor table that the
certificate sampler also uses, and the induced forcings are built from them.  Those
derivatives are cross-checked by complex-step differentiation (first
derivatives of the values, then of the gradients), which is exact to
machine precision, so a slip in the table is caught before a case is
trusted as an oracle.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import forms
from .fields import CURL, Separable, constant_scalar
from .fixed_point import CoupledProblem, outer_loop
from .material import constant_density, make_material
from .mesh import build_channel_mesh
from .spaces import build_spaces

__all__ = [
    "CASES",
    "ManufacturedCase",
    "trig_case",
    "poly_case",
    "incompatible_heat_case",
    "coupled_case",
    "validate_case",
    "ErrorTable",
    "mms_stokes_study",
    "mms_heat_study",
    "coupled_mms",
]


@dataclass
class ManufacturedCase:
    name: str
    u: Separable
    p: Separable
    theta: Separable
    nu: float
    compatible_heat_flux: bool = True


# -- case construction -------------------------------------------------------


def trig_case(dims, nu=1.0, amplitude=1.0):
    """Smooth solenoidal field from a stream potential, with pressure.

    psi = a sin(pi x / Lx) sin^2(pi y / Ly) sin^2(pi z / Lz); the velocity
    curl(psi e_z) = (d_y psi, -d_x psi, 0) vanishes on the walls, and the
    pressure nu d_x d_y psi leaves no natural-boundary residual on the
    open ends.
    """
    Lx, Ly, Lz = (float(d) for d in dims)
    a = float(amplitude)
    psi = [(a, ("sin", np.pi / Lx), ("sin2", np.pi / Ly), ("sin2", np.pi / Lz))]
    return ManufacturedCase(
        name="trig_smooth",
        u=Separable(psi, CURL[2]),
        p=Separable(psi, (((1, 1, 0), float(nu)),)),
        theta=_compatible_theta(dims, 0.5 * a),
        nu=nu,
    )


def _compatible_theta(dims, amplitude):
    """1 + a cos(pi x / Lx) cos(pi y / Ly) cos(pi z / Lz): zero normal
    derivative on the open (x) ends."""
    Lx, Ly, Lz = (float(d) for d in dims)
    one = ("one", 0.0)
    return Separable([(1.0, one, one, one),
                      (float(amplitude), ("cos", np.pi / Lx), ("cos", np.pi / Ly),
                       ("cos", np.pi / Lz))])


def incompatible_heat_case(dims, nu=1.0):
    """Negative control: nonzero normal heat flux on the open ends."""
    Lx, Ly, Lz = (float(d) for d in dims)
    theta = Separable([(1.0, ("sin", 0.5 * np.pi / Lx), ("cos", np.pi / Ly), ("cos", np.pi / Lz))])
    return replace(trig_case(dims, nu=nu), name="trig_incompatible", theta=theta,
                   compatible_heat_flux=False)


def poly_case(dims, nu=1.0):
    """Per-axis-quadratic velocity, zero pressure; reproduced exactly."""
    _, Ly, Lz = (float(d) for d in dims)
    one = ("one", 0.0)
    return ManufacturedCase(
        name="poly_quadratic",
        u=Separable([(1.0, one, ("bubble", Ly), ("bubble", Lz))], (((0, 0, 0), 1.0), None, None)),
        p=constant_scalar(0.0),
        theta=Separable([(1.0, one, ("bubble", Ly), one)]),
        nu=nu,
    )


def coupled_case(dims, nu=1.0):
    """Small-amplitude (0.05) smooth case for the full nonlinear pipeline."""
    return replace(trig_case(dims, nu=nu, amplitude=0.05), name="coupled_smooth",
                   theta=_compatible_theta(dims, 0.1))


# each case's factory ``(dims, nu)`` by its name, the ``[mms] case`` choices
CASES = {
    "trig_smooth": trig_case,
    "poly_quadratic": poly_case,
    "trig_incompatible": incompatible_heat_case,
    "coupled_smooth": coupled_case,
}


# -- induced forcings ---------------------------------------------------------


def stokes_forcing(case, nu):
    """f = -nu lap(u) + grad P for the linear mixed Stokes solve."""

    def val(x):
        return -nu * case.u.laplacian(x) + case.p.grad(x)

    return val


def heat_forcing_linear(case, lam):
    """h = -lambda lap(theta) for the linear mixed Poisson solve."""

    def val(x):
        return -lam * case.theta.laplacian(x)

    return val


def coupled_momentum_forcing(case, model, g):
    """Momentum correction so the manufactured pair solves the full system.

    ``g`` is the constant body force, a 3-vector.
    """
    g = np.asarray(g, dtype=float).reshape(3)

    def val(x):
        u = case.u.value(x)
        G = case.u.grad(x)
        adv = model.rho0 * np.einsum("...d,...md->...m", u, G)
        rho = model.rho_law(case.theta.value(x))
        return adv - model.nu * case.u.laplacian(x) + case.p.grad(x) - rho[..., None] * g

    return val


def coupled_heat_forcing(case, model):
    """Heat correction: convection minus conduction minus dissipation."""

    def val(x):
        u = case.u.value(x)
        G = case.u.grad(x)
        rho = model.rho_law(case.theta.value(x))
        conv = model.cV * rho * np.einsum("...d,...d->...", u, case.theta.grad(x))
        E = 0.5 * (G + np.swapaxes(G, -1, -2))
        diss = model.alpha1 * model.nu * np.einsum("...md,...md->...", E, E)
        return conv - model.lam * case.theta.laplacian(x) - diss

    return val


# -- case validation -----------------------------------------------------------


def _complex_step(fn, x):
    """Derivative of fn along each axis by complex-step; exact to roundoff."""
    h = 1e-30
    outs = []
    for d in range(3):
        xc = x.astype(complex).copy()
        xc[:, d] += 1j * h
        outs.append(np.imag(fn(xc.T)) / h)
    return np.stack(outs, axis=-1)


def validate_case(case, dims):
    """Cross-check a case's derivatives and boundary compatibility.

    At 1000 seeded random points, gradients are checked against
    complex-step derivatives of the values and Laplacians against the trace
    of the complex-step Jacobian of the gradients, both to 1e-10, and
    the divergence of u must vanish identically.  Boundary checks sample
    the walls (u = 0) and the open ends (do-nothing residual, and the
    normal heat flux when the case declares it compatible).
    """
    rng = np.random.default_rng(1234)
    x = rng.uniform(0.0, 1.0, size=(1000, 3)) * np.asarray(dims)[None, :]

    u, p, theta = case.u, case.p, case.theta
    xt = x.T
    checks = (
        ("velocity gradient", _complex_step(u.value, x), u.grad(xt)),
        ("velocity laplacian",
         np.einsum("nmdd->nm", _complex_step(u.grad, x)), u.laplacian(xt)),
        ("pressure gradient", _complex_step(p.value, x), p.grad(xt)),
        ("temperature gradient", _complex_step(theta.value, x), theta.grad(xt)),
        ("temperature laplacian",
         np.einsum("ndd->n", _complex_step(theta.grad, x)), theta.laplacian(xt)),
    )
    for name, cs, coded in checks:
        err = np.max(np.abs(cs - coded))
        if err > 1e-10:
            raise AssertionError(f"{name} mismatch {err:.3e}")

    div = np.einsum("nmm->n", u.grad(xt))
    if np.max(np.abs(div)) > 1e-12:
        raise AssertionError("manufactured velocity is not divergence-free")

    _check_boundary(case, dims)
    return True


def _check_boundary(case, dims):
    """Wall and open-end conditions on a 40 x 40 grid of each face."""
    Lx, Ly, Lz = dims
    t = np.linspace(0.0, 1.0, 40)
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    t1, t2 = T1.ravel(), T2.ravel()

    walls = [
        np.stack([t1 * Lx, np.zeros_like(t1), t2 * Lz], axis=1),
        np.stack([t1 * Lx, np.full_like(t1, Ly), t2 * Lz], axis=1),
        np.stack([t1 * Lx, t2 * Ly, np.zeros_like(t1)], axis=1),
        np.stack([t1 * Lx, t2 * Ly, np.full_like(t1, Lz)], axis=1),
    ]
    for w in walls:
        if np.max(np.abs(case.u.value(w.T))) > 1e-12:
            raise AssertionError("manufactured velocity does not vanish on the walls")

    for xval, sign in ((0.0, -1.0), (Lx, 1.0)):
        ends = np.stack([np.full_like(t1, xval), t1 * Ly, t2 * Lz], axis=1)
        G = case.u.grad(ends.T)
        P = case.p.value(ends.T)
        resid = case.nu * sign * G[:, :, 0]
        resid[:, 0] -= sign * P          # (-P n + nu dn u) . e_m with n = sign e_x
        if np.max(np.abs(resid)) > 1e-12:
            raise AssertionError("do-nothing residual on the open ends is nonzero")
        flux = sign * case.theta.grad(ends.T)[:, 0]
        if case.compatible_heat_flux and np.max(np.abs(flux)) > 1e-12:
            raise AssertionError("normal heat flux on the open ends is nonzero")


# -- studies --------------------------------------------------------------------


@dataclass
class ErrorTable:
    levels: list           # divisions per level
    h: list
    errors: dict           # name -> list of errors
    orders: dict           # name -> list of successive log2 ratios
    monotone: bool

    def to_csv(self, path):
        names = sorted(self.errors)
        header = "level,nx,ny,nz,h," + ",".join(
            [n for name in names for n in (f"{name}", f"order_{name}")]
        )
        lines = [header]
        for i, divs in enumerate(self.levels):
            cells = [str(i), str(divs[0]), str(divs[1]), str(divs[2]), f"{self.h[i]:.17g}"]
            for name in names:
                cells.append(f"{self.errors[name][i]:.17g}")
                cells.append(f"{self.orders[name][i - 1]:.17g}" if i > 0 else "")
            lines.append(",".join(cells))
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    def observed_order(self, name):
        """Order at the finest mesh pair."""
        return self.orders[name][-1]


def _squared_error(space, evaluate, dofs, exact):
    """(cells, nq) squared error of ``evaluate(space, dofs, cells)`` against
    the closed-form ``exact``, summed over components, one cell block at a time."""

    def block(cells):
        diff = evaluate(space, dofs, cells) - forms.quad_values(space, exact, cells)
        return np.sum(diff ** 2, axis=tuple(range(2, diff.ndim)))

    return forms.fill_blocks(space, (space.nq,), block)


def _error_norms(space, dofs, exact):
    """L2 and H1 errors of a velocity or scalar dof vector against a closed-form field."""
    if dofs.size == space.n_velocity:
        value, grad = forms.eval_velocity, forms.eval_velocity_grad
    else:
        value, grad = forms.eval_scalar, forms.eval_scalar_grad
    d2 = _squared_error(space, value, dofs, exact.value)
    g2 = _squared_error(space, grad, dofs, exact.grad)
    l2 = float(np.sqrt(np.einsum("q,cq->", space.wq, d2)))
    h1 = float(np.sqrt(np.einsum("q,cq->", space.wq, d2 + g2)))
    return l2, h1


def _study(dims, base_divisions, n_levels, level_errors):
    """Refinement study: ``level_errors(space) -> {name: error}`` on each level.

    Level k halves the mesh size of level k - 1; the observed orders are the
    log2 ratios of successive errors.
    """
    levels, hs, errors = [], [], {}
    for k in range(n_levels):
        divs = tuple(int(d) * 2**k for d in base_divisions)
        space = build_spaces(build_channel_mesh(*dims, *divs))
        levels.append(divs)
        hs.append(float(np.max(space.h)))
        for name, err in level_errors(space).items():
            errors.setdefault(name, []).append(err)
    orders = {
        name: [math.log2(a / b) if b > 0 else float("inf") for a, b in zip(errs, errs[1:])]
        for name, errs in errors.items()
    }
    monotone = not any(b > a for errs in errors.values() for a, b in zip(errs, errs[1:]))
    return ErrorTable(levels=levels, h=hs, errors=errors, orders=orders, monotone=monotone)


def mms_stokes_study(case_factory, dims, base_divisions, n_levels=3, nu=1.0):
    """Convergence of the mixed Stokes solve against a manufactured case.

    Each level solves the forcing's load once with the ``saddle`` of a
    ``CoupledProblem`` forced by it (no heat solver is built).
    ``case_factory(dims, nu)`` builds the case; per level the H1/L2
    velocity errors and the L2 pressure error are recorded with observed
    orders from successive log2 ratios.
    """
    case = case_factory(dims, nu)
    validate_case(case, dims)
    model = _unit_model(nu)
    forcing = stokes_forcing(case, nu)

    def level_errors(space):
        # a temporary: one level's solver is freed before the next is built
        problem = CoupledProblem(space, model, (0.0, 0.0, 0.0), constant_scalar(0.0),
                                 f_extra=forcing)
        u, P = problem.saddle.solve(problem.f_extra_load)
        u_l2, u_h1 = _error_norms(space, u, case.u)
        dp2 = _squared_error(space, forms.eval_pressure, P, case.p)
        p_l2 = float(np.sqrt(np.einsum("q,cq->", space.wq, dp2)))
        return {"u_L2": u_l2, "u_H1": u_h1, "p_L2": p_l2}

    return _study(dims, base_divisions, n_levels, level_errors)


def mms_heat_study(case_factory, dims, base_divisions, n_levels=3, lam=1.0):
    """Convergence of the heat solve against a manufactured case: on each
    level, ``heat`` of a ``CoupledProblem`` lifted by the exact temperature
    and forced by the case's heat source (no Stokes operator is built)."""
    case = case_factory(dims, 1.0)
    validate_case(case, dims)
    model = _unit_model(1.0, lam=lam)
    forcing = heat_forcing_linear(case, lam)

    def level_errors(space):
        problem = CoupledProblem(space, model, (0.0, 0.0, 0.0), case.theta, h_extra=forcing)
        theta = problem.theta_D + problem.heat.solve(problem.h_extra_load - problem.lifting_load)
        l2, h1 = _error_norms(space, theta, case.theta)
        return {"theta_L2": l2, "theta_H1": h1}

    return _study(dims, base_divisions, n_levels, level_errors)


def coupled_mms(case, dims, divisions, model, g, **solver):
    """Full nonlinear pipeline against a manufactured pair.

    ``g`` is the constant body force, a 3-vector, and ``solver`` the
    keywords of ``outer_loop``, passed through as given.  The momentum and
    heat forcings carry the nonlinear correction terms; convergence failures
    propagate as DivergenceError with the records completed so far.
    """
    validate_case(case, dims)
    mesh = build_channel_mesh(*dims, *divisions)
    space = build_spaces(mesh)
    problem = CoupledProblem(
        space,
        model,
        g,
        theta_D=case.theta,
        f_extra=coupled_momentum_forcing(case, model, g),
        h_extra=coupled_heat_forcing(case, model),
    )
    state, records = outer_loop(problem, **solver)
    ul2, uh1 = _error_norms(space, state.u, case.u)
    tl2, th1 = _error_norms(space, state.theta, case.theta)
    return {
        "u_L2": ul2,
        "u_H1": uh1,
        "theta_L2": tl2,
        "theta_H1": th1,
        "state": state,
        "records": records,
        "problem": problem,
    }


def _unit_model(nu, lam=1.0):
    return make_material(nu=nu, cV=1.0, lam=lam, alpha1=0.0,
                         law=constant_density(1.0))
