"""Machine-checkable certificates for the smallness and uniqueness conditions.

The continuous theory asserts the existence of form-bound constants
(C_b, C_d, C_e), a compact-embedding constant C_eps and a sup-norm
embedding constant C_1 without giving values.  Here they are estimated as
running maxima of the defining ratios over random smooth discrete fields,
with declared discrete surrogate norms:

- velocity/temperature second-order norms: broken W^{2,s} quadrature
  norms (load/graph norms are used instead when a field comes out of a
  solve and its pointwise source is known),
- load norms of the trilinear forms: L^p quadrature norms of their
  pointwise densities,
- the body-force norm: L^s quadrature norm.

The estimates are honest empirical lower bounds of the true suprema and
are labelled as such in reports.  Given a seed they are deterministic and
monotone in the sample count.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import forms
from .linsolve import solve_spd
from .material import density
from .runtime import worker_count
from .spectrum import regularity_exponent_bound

__all__ = [
    "ConstantEstimates",
    "estimate_constants",
    "SmallnessResult",
    "smallness_check",
    "CertificateReport",
    "uniqueness_certificate",
    "admissible_sr",
    "ExponentRange",
]


@dataclass
class ConstantEstimates:
    C_b: float
    C_d: float
    C_e: float
    C_eps: float
    C_1: float
    samples: int
    seed: int
    s: float
    r: float
    mesh_divisions: tuple
    method: str = "empirical ratio maximization over random smooth fields"

    def as_dict(self):
        return asdict(self)


# -- random smooth sample fields ------------------------------------------------
#
# Samples are closed-form trigonometric fields carried with their exact
# derivatives, so the ratio of any two quadrature norms is independent of
# the mesh up to quadrature error: the estimates are stable under
# refinement by construction.


class _Trig1d:
    """One factor of a tensor-product field with derivatives up to order 3."""

    def __init__(self, kind, freq):
        self.kind = kind
        self.k = float(freq)

    def d(self, order, t):
        k = self.k
        if self.kind == "one":
            return np.ones_like(t) if order == 0 else np.zeros_like(t)
        if self.kind == "sin":
            cycle = (np.sin, np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u))
            return k**order * cycle[order % 4](k * t)
        if self.kind == "cos":
            cycle = (np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u), np.sin)
            return k**order * cycle[order % 4](k * t)
        if self.kind == "sin2":
            # sin^2(kt) = (1 - cos(2kt)) / 2
            if order == 0:
                return np.sin(k * t) ** 2
            two = 2.0 * k
            cycle = (None, np.sin, np.cos, lambda u: -np.sin(u))
            return 0.5 * two**order * cycle[order](two * t) if order < 4 else None
        raise ValueError(self.kind)


class _TensorScalar:
    """Sum of tensor products f(x) g(y) h(z) with exact derivatives."""

    def __init__(self, terms):
        self.terms = terms        # list of (amp, fx, fy, fz)

    def partial(self, orders, pts):
        ox, oy, oz = orders
        out = np.zeros(pts.shape[0])
        for amp, fx, fy, fz in self.terms:
            out += amp * fx.d(ox, pts[:, 0]) * fy.d(oy, pts[:, 1]) * fz.d(oz, pts[:, 2])
        return out

    def value(self, pts):
        return self.partial((0, 0, 0), pts)

    __call__ = value

    def grad(self, pts):
        basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        return np.stack([self.partial(o, pts) for o in basis], axis=1)

    def hess_sq(self, pts):
        total = np.zeros(pts.shape[0])
        for i in range(3):
            for j in range(3):
                o = [0, 0, 0]
                o[i] += 1
                o[j] += 1
                total += self.partial(tuple(o), pts) ** 2
        return total


class _CurlVelocity:
    """curl(psi e_axis): solenoidal, vanishing on the wall closure."""

    _LAYOUT = {
        0: ((None, 0.0), ((0, 0, 1), 1.0), ((0, 1, 0), -1.0)),
        1: (((0, 0, 1), -1.0), (None, 0.0), ((1, 0, 0), 1.0)),
        2: (((0, 1, 0), 1.0), ((1, 0, 0), -1.0), (None, 0.0)),
    }

    def __init__(self, psi, axis, amp):
        self.psi = psi
        self.comps = self._LAYOUT[axis]
        self.amp = amp

    def _comp_partial(self, m, extra, pts):
        base, sign = self.comps[m]
        if base is None:
            return np.zeros(pts.shape[0])
        orders = tuple(b + e for b, e in zip(base, extra))
        return self.amp * sign * self.psi.partial(orders, pts)

    def value(self, pts):
        return np.stack([self._comp_partial(m, (0, 0, 0), pts) for m in range(3)], axis=1)

    def grad(self, pts):
        basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        return np.stack(
            [
                np.stack([self._comp_partial(m, e, pts) for e in basis], axis=1)
                for m in range(3)
            ],
            axis=1,
        )

    def hess_sq(self, pts):
        total = np.zeros(pts.shape[0])
        for m in range(3):
            if self.comps[m][0] is None:
                continue
            for i in range(3):
                for j in range(3):
                    e = [0, 0, 0]
                    e[i] += 1
                    e[j] += 1
                    total += self._comp_partial(m, tuple(e), pts) ** 2
        return total


def _draw_velocity(space, rng):
    Lx, Ly, Lz = space.mesh.dims
    axis = int(rng.integers(0, 3))
    m = int(rng.integers(1, 3))
    n = int(rng.integers(1, 3))
    k = int(rng.integers(1, 3))
    kind = ("one", "sin", "cos")[int(rng.integers(0, 3))]
    amp = float(rng.normal(0.0, 1.0)) + 0.25 * float(rng.standard_normal())
    psi = _TensorScalar(
        [
            (
                1.0,
                _Trig1d(kind, k * np.pi / Lx),
                _Trig1d("sin2", m * np.pi / Ly),
                _Trig1d("sin2", n * np.pi / Lz),
            )
        ]
    )
    return _CurlVelocity(psi, axis, amp)


def _draw_scalar(space, rng, zero_trace):
    Lx, Ly, Lz = space.mesh.dims
    terms = []
    n_terms = int(rng.integers(1, 4))
    for _ in range(n_terms):
        k = int(rng.integers(0, 3))
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        amp = float(rng.normal(0.0, 1.0))
        yz_kind = "sin" if zero_trace else "cos"
        terms.append(
            (
                amp,
                _Trig1d("cos" if k else "one", max(k, 1) * np.pi / Lx),
                _Trig1d(yz_kind, m * np.pi / Ly),
                _Trig1d(yz_kind, n * np.pi / Lz),
            )
        )
    return _TensorScalar(terms)


def _w2s_norm(space, fld, s, vector):
    pts = space.quad_points.reshape(-1, 3)
    if vector:
        v2 = np.sum(fld.value(pts) ** 2, axis=1)
        g2 = np.sum(fld.grad(pts) ** 2, axis=(1, 2))
    else:
        v2 = fld.value(pts) ** 2
        g2 = np.sum(fld.grad(pts) ** 2, axis=1)
    dens = (v2 + g2 + fld.hess_sq(pts)) ** (s / 2.0)
    dens = dens.reshape(space.n_cells, space.nq)
    return float(np.einsum("q,cq->", space.wq, dens) ** (1.0 / s))


def _sample_ratios(space, model, kappa_ff, draw, s, r):
    """Per-sample ratios (C_b, C_e, C_d, C_eps, C_1); pure given the draw."""
    u, v, theta, f = draw
    out = np.zeros(5)
    pts = space.quad_points.reshape(-1, 3)
    nu_u = _w2s_norm(space, u, s, vector=True)
    nu_v = _w2s_norm(space, v, s, vector=True)
    uval, ugrad = u.value(pts), u.grad(pts)
    vgrad = v.grad(pts)
    if nu_u > 0 and nu_v > 0:
        adv = np.einsum("nd,nmd->nm", uval, vgrad)
        out[0] = forms.lp_norm_of_values(
            space, adv.reshape(space.n_cells, space.nq, 3), s
        ) / (nu_u * nu_v)
        # C_e keeps the alpha1*nu prefactor divided out, so the ratio stays
        # meaningful when dissipation is switched off
        eu = 0.5 * (ugrad + np.swapaxes(ugrad, -1, -2))
        ev = 0.5 * (vgrad + np.swapaxes(vgrad, -1, -2))
        ee = np.einsum("nmd,nmd->n", eu, ev)
        out[1] = forms.lp_norm_of_values(
            space, ee.reshape(space.n_cells, space.nq), r
        ) / (nu_u * nu_v)
    n_th = _w2s_norm(space, theta, r, vector=False)
    if nu_u > 0 and n_th > 0:
        dens = density(model, theta.value(pts)) * np.einsum(
            "nd,nd->n", uval, theta.grad(pts)
        )
        out[2] = forms.lp_norm_of_values(
            space, dens.reshape(space.n_cells, space.nq), r
        ) / (model.rho_sharp * nu_u * n_th)
    # embedding constants from a heat solve with a known right-hand side
    rhs = forms.field_load_scalar(space, f)
    sol = np.zeros(space.n_scalar)
    sol[space.free_theta] = solve_spd(kappa_ff, rhs[space.free_theta], tol=1e-12)
    fvals = np.abs(f.value(pts)).reshape(space.n_cells, space.nq)
    f_norm = float(np.einsum("q,cq->", space.wq, fvals**r) ** (1.0 / r))
    if f_norm > 0:
        out[3] = forms.discrete_norms(space, sol, "W2s", s=r) / f_norm
        out[4] = float(np.max(np.abs(sol))) / f_norm
    return out


def estimate_constants(space, model, samples=200, seed=0, s=2.0, r=2.0):
    """Empirical form-bound and embedding constants on the discrete space.

    Each constant is the running maximum of its defining ratio over
    ``samples`` random fields, so estimates never decrease with more
    samples and are deterministic for a given seed.  Sample fields are
    drawn sequentially from the seeded generator; ratio evaluation may run
    on a thread pool (capped by THERMODUCT_THREADS) since the max
    reduction is order-independent.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples for a stable estimate")
    rng = np.random.default_rng(seed)
    kappa = forms.assemble_kappa(space, model)
    kappa_ff = kappa[space.free_theta][:, space.free_theta].tocsr()

    draws = []
    for i in range(samples):
        draws.append(
            (
                _draw_velocity(space, rng),
                _draw_velocity(space, rng),
                _draw_scalar(space, rng, zero_trace=bool(i % 2)),
                _draw_scalar(space, rng, zero_trace=False),
            )
        )

    workers = worker_count(default=1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            ratios = list(
                pool.map(lambda d: _sample_ratios(space, model, kappa_ff, d, s, r), draws)
            )
    else:
        ratios = [_sample_ratios(space, model, kappa_ff, d, s, r) for d in draws]
    best = np.max(np.stack(ratios), axis=0)

    return ConstantEstimates(
        C_b=float(best[0]),
        C_d=float(best[2]),
        C_e=float(best[1]),
        C_eps=float(best[3]),
        C_1=float(best[4]),
        samples=samples,
        seed=seed,
        s=s,
        r=r,
        mesh_divisions=tuple(space.mesh.divisions),
    )


# -- smallness --------------------------------------------------------------------


@dataclass
class SmallnessResult:
    beta: float            # None encodes ABSENT
    ok: bool
    g_norm: float
    first_threshold: float     # largest admissible ||g|| from beta < 1
    second_threshold: float    # strict upper bound from the chained inequality
    headroom: float            # second_threshold - ||g||

    def as_dict(self):
        d = asdict(self)
        d["beta"] = self.beta if self.beta is not None else "ABSENT"
        return d


def smallness_check(estimates, model, g_norm):
    """Smallest beta in (0,1) with ||g|| <= beta/(4 C_b rho# rho0) < second bound.

    Returns beta = ABSENT (None) when no admissible beta exists.  The
    second threshold is 1 / (2 C_eps C_d c_V rho#^2).
    """
    g_norm = float(g_norm)
    denom1 = 4.0 * estimates.C_b * model.rho_sharp * model.rho0
    first_threshold = 1.0 / denom1
    second_threshold = 1.0 / (
        2.0 * estimates.C_eps * estimates.C_d * model.cV * model.rho_sharp**2
    )
    beta = denom1 * g_norm
    if beta <= 0.0:
        beta = np.finfo(float).tiny
    ok = beta < 1.0 and g_norm < second_threshold
    return SmallnessResult(
        beta=beta if ok else None,
        ok=ok,
        g_norm=g_norm,
        first_threshold=first_threshold,
        second_threshold=second_threshold,
        headroom=second_threshold - g_norm,
    )


# -- uniqueness -------------------------------------------------------------------


@dataclass
class CertificateReport:
    beta: float
    ball_radius: float
    R1: float
    R2: float
    smallness_ok: bool
    uniqueness_ok: bool
    inputs: dict
    grouping: str = (
        "R1 = A (1 + C_1 C_rho ||g||), "
        "R2 = B (1 + C_1 C_rho ||g||) + rho0 C_b (||u1|| + ||u2||); "
        "A = c_V C_1 C_eps C_d C_rho ||u1|| ||theta2|| + c_V C_eps rho# C_d ||u2||, "
        "B = c_V C_eps rho# C_d ||theta1|| + alpha1 nu C_e (||u1|| + ||u2||)"
    )

    def as_dict(self):
        d = asdict(self)
        d["beta"] = self.beta if self.beta is not None else "ABSENT"
        d["ball_radius"] = (
            self.ball_radius if self.ball_radius is not None else "ABSENT"
        )
        return d


def state_norms(space, state, s, r):
    """Declared surrogate norms of one solution state.

    Velocity: load (graph) norm when the converged source field is cached,
    otherwise broken W^{2,s}.  Temperature: broken W^{2,r} of the full field.
    """
    if state.momentum_source is not None:
        u_norm = forms.lp_norm_of_values(space, state.momentum_source, s)
    else:
        u_norm = forms.discrete_norms(space, state.u, "W2s", s=s)
    th_norm = forms.discrete_norms(space, state.theta, "W2s", s=r)
    return u_norm, th_norm


def uniqueness_certificate(problem, estimates, state1, state2=None, r=None, s=None):
    """Uniqueness coefficients R1, R2 for a pair of states (or one state twice).

    Computed symbol-for-symbol from the a priori difference estimates; the
    verdict is uniqueness_ok iff both are below one.  Requires r > 3/2
    (sup-norm embedding of the temperature difference).
    """
    s = estimates.s if s is None else s
    r = estimates.r if r is None else r
    if r <= 1.5:
        raise ValueError("uniqueness certificate requires r > 3/2")
    if state2 is None:
        state2 = state1
    space, model = problem.space, problem.model

    u1, th1 = state_norms(space, state1, s, r)
    u2, th2 = state_norms(space, state2, s, r)
    g_norm = body_force_norm(problem, s)

    cV, rs, a1nu = model.cV, model.rho_sharp, model.alpha1 * model.nu
    A = (
        cV * estimates.C_1 * estimates.C_eps * estimates.C_d * model.C_rho * u1 * th2
        + cV * estimates.C_eps * rs * estimates.C_d * u2
    )
    B = cV * estimates.C_eps * rs * estimates.C_d * th1 + a1nu * estimates.C_e * (u1 + u2)
    G = estimates.C_1 * model.C_rho * g_norm
    R1 = A * (1.0 + G)
    R2 = B * (1.0 + G) + model.rho0 * estimates.C_b * (u1 + u2)

    small = smallness_check(estimates, model, g_norm)
    ball = (
        small.beta / (2.0 * estimates.C_b * model.rho0)
        if small.beta is not None
        else None
    )
    return CertificateReport(
        beta=small.beta,
        ball_radius=ball,
        R1=float(R1),
        R2=float(R2),
        smallness_ok=small.ok,
        uniqueness_ok=bool(R1 < 1.0 and R2 < 1.0),
        inputs={
            "g_norm": g_norm,
            "u1_norm": u1,
            "u2_norm": u2,
            "theta1_norm": th1,
            "theta2_norm": th2,
            "s": s,
            "r": r,
            "constants": estimates.as_dict(),
            "smallness": small.as_dict(),
        },
    )


def body_force_norm(problem, s):
    """L^s quadrature norm of the body force over the channel."""
    space = problem.space
    pts = space.quad_points.reshape(-1, 3)
    if callable(problem.g):
        vals = np.asarray(problem.g(pts))
    else:
        vals = np.broadcast_to(np.asarray(problem.g, dtype=float), (pts.shape[0], 3))
    return forms.lp_norm_of_values(space, vals.reshape(space.n_cells, space.nq, 3), s)


# -- exponent ranges ---------------------------------------------------------------


@dataclass
class ExponentRange:
    lo: float
    hi: float
    hi_closed: bool

    def __contains__(self, r):
        if r < self.lo:
            return False
        return r <= self.hi if self.hi_closed else r < self.hi


def admissible_sr(s):
    """Admissible heat exponent interval r for a given momentum exponent s.

    [6/5, 3s / (2(3-s))] for s in [4/3, 3), and [6/5, inf) for s in
    [3, s0); rejects s outside [4/3, s0).
    """
    s0 = regularity_exponent_bound()
    if not (4.0 / 3.0 <= s < s0):
        raise ValueError(f"s={s} outside the admissible range [4/3, {s0:.6f})")
    if s < 3.0:
        return ExponentRange(lo=6.0 / 5.0, hi=3.0 * s / (2.0 * (3.0 - s)), hi_closed=True)
    return ExponentRange(lo=6.0 / 5.0, hi=math.inf, hi_closed=False)
