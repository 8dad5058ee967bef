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
from .linsolve import WallCG
from .material import density
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
#
# Every sample is a sum of products amp f(x) g(y) h(z), or the curl of one,
# and the quadrature points form a tensor grid: each 1-D factor and its
# derivatives of orders 0-3 are tabulated once per sample on one row of
# cells along its axis, and a partial derivative is the broadcast product
# ((amp fx) fy) fz, which lands directly in quad_points order.  Coordinates
# and operation order are those of a pointwise evaluation at quad_points,
# so every value equals it bitwise.

_SIN = (np.sin, np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u))
_COS = (np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u), np.sin)
_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# second-derivative orders in (i, j) order; (i, j) and (j, i) coincide
_HESS = tuple(tuple(a + b for a, b in zip(ei, ej)) for ei in _UNIT for ej in _UNIT)
# curl(psi e_axis), per axis: (derivative orders of psi, sign) per
# component, None for the zero component
_CURL = {
    0: (None, ((0, 0, 1), 1.0), ((0, 1, 0), -1.0)),
    1: (((0, 0, 1), -1.0), None, ((1, 0, 0), 1.0)),
    2: (((0, 1, 0), 1.0), ((1, 0, 0), -1.0), None),
}


def _factor_table(kind, k, t):
    """d^o/dt^o, o = 0..3, of one 1-D factor at frequency k on the line t;
    None for a derivative that vanishes identically."""
    if kind == "one":
        return [np.ones_like(t), None, None, None]
    if kind == "sin2":
        # sin^2(kt) = (1 - cos(2kt)) / 2
        two = 2.0 * k
        return [np.sin(k * t) ** 2] + [0.5 * two**o * _SIN[o - 1](two * t) for o in (1, 2, 3)]
    cycle = {"sin": _SIN, "cos": _COS}[kind]
    return [k**o * cycle[o](k * t) for o in range(4)]


def _quad_lines(space):
    """x, y and z quadrature coordinates on one row of cells per axis, shaped
    (cells_z, cells_y, cells_x, q, q, q) to broadcast into quad_points order.
    Whole q^3 cell blocks keep each broadcast product contiguous per cell."""
    nx, ny, nz = space.mesh.divisions
    q = space.quad_order
    pts = space.quad_points.reshape(nz, ny, nx, q, q, q, 3)
    return pts[:1, :1, :, ..., 0], pts[:1, :, :1, ..., 1], pts[:, :1, :1, ..., 2]


class _TensorField:
    """Sum of products amp f(x) g(y) h(z) with exact derivatives at the
    quadrature points; with ``curl_axis``, the vector curl(amp psi e_axis)
    of that sum psi, solenoidal and vanishing on the wall closure.

    ``terms`` holds (amp, fx, fy, fz), each factor a (kind, frequency) pair
    with kind "one", "sin", "cos" or "sin2".  Values are flat in quad_points
    order: (points,) for a scalar, (points, 3) for a vector.
    """

    def __init__(self, lines, terms, curl_axis=None, amp=1.0):
        self.tables = [
            (a,) + tuple(_factor_table(kind, float(k), t) for (kind, k), t in zip(fs, lines))
            for a, *fs in terms
        ]
        self.n = math.prod(np.broadcast_shapes(*(t.shape for t in lines)))
        self.vector = curl_axis is not None
        if self.vector:
            self.comps = [None if c is None else (c[0], amp * c[1]) for c in _CURL[curl_axis]]
        else:
            self.comps = [((0, 0, 0), 1.0)]

    def partial(self, orders):
        """d^orders of the term sum; terms with a vanishing factor are skipped."""
        ox, oy, oz = orders
        out = None
        for amp, fx, fy, fz in self.tables:
            if fx[ox] is None or fy[oy] is None or fz[oz] is None:
                continue
            term = amp * fx[ox] * fy[oy] * fz[oz]
            out = term if out is None else out + term
        return np.zeros(self.n) if out is None else out.ravel()

    def _comp(self, comp, extra):
        base, scale = comp
        return scale * self.partial(tuple(b + e for b, e in zip(base, extra)))

    def _stack(self, directions):
        """(points, components, directions) array of component partials."""
        out = np.zeros((self.n, len(self.comps), len(directions)))
        for m, comp in enumerate(self.comps):
            if comp is not None:
                for i, e in enumerate(directions):
                    out[:, m, i] = self._comp(comp, e)
        return out if self.vector else out[:, 0]

    def value(self):
        return self._stack([(0, 0, 0)])[..., 0]

    def grad(self):
        return self._stack(_UNIT)

    def sq_sum(self, directions):
        """Pointwise sum over components and ``directions`` of squared
        partials, accumulated one square at a time in that order."""
        total = 0.0
        for comp in self.comps:
            if comp is not None:
                squares = {}
                for e in directions:
                    if e not in squares:
                        squares[e] = self._comp(comp, e) ** 2
                    total = total + squares[e]
        return total


def _draw_velocity(space, rng):
    """(terms, curl_axis, amp) of a random curl velocity."""
    Lx, Ly, Lz = space.mesh.dims
    axis = int(rng.integers(0, 3))
    m = int(rng.integers(1, 3))
    n = int(rng.integers(1, 3))
    k = int(rng.integers(1, 3))
    kind = ("one", "sin", "cos")[int(rng.integers(0, 3))]
    amp = float(rng.normal(0.0, 1.0)) + 0.25 * float(rng.standard_normal())
    psi = [(1.0, (kind, k * np.pi / Lx), ("sin2", m * np.pi / Ly), ("sin2", n * np.pi / Lz))]
    return psi, axis, amp


def _draw_scalar(space, rng, zero_trace):
    """(terms,) of a random scalar."""
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
                ("cos" if k else "one", max(k, 1) * np.pi / Lx),
                (yz_kind, m * np.pi / Ly),
                (yz_kind, n * np.pi / Lz),
            )
        )
    return (terms,)


def _w2s_norm(space, fld, grad, s):
    """Broken W^{2,s} norm of a sample field, given its gradient."""
    g2 = np.sum(grad**2, axis=tuple(range(1, grad.ndim)))
    dens = (fld.sq_sum([(0, 0, 0)]) + g2 + fld.sq_sum(_HESS)) ** (s / 2.0)
    dens = dens.reshape(space.n_cells, space.nq)
    return float(np.einsum("q,cq->", space.wq, dens) ** (1.0 / s))


def _sample_ratios(space, model, heat, lines, draw, s, r):
    """Per-sample ratios (C_b, C_e, C_d, C_eps, C_1); pure given the draw."""
    # tables are built per sample, so memory does not grow with the sample count
    u, v, theta, f = (_TensorField(lines, *spec) for spec in draw)
    out = np.zeros(5)
    uval, ugrad = u.value(), u.grad()
    vgrad = v.grad()
    nu_u = _w2s_norm(space, u, ugrad, s)
    nu_v = _w2s_norm(space, v, vgrad, s)
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
    th_grad = theta.grad()
    n_th = _w2s_norm(space, theta, th_grad, r)
    if nu_u > 0 and n_th > 0:
        dens = density(model, theta.value()) * np.einsum("nd,nd->n", uval, th_grad)
        out[2] = forms.lp_norm_of_values(
            space, dens.reshape(space.n_cells, space.nq), r
        ) / (model.rho_sharp * nu_u * n_th)
    # embedding constants from a heat solve with a known right-hand side;
    # f is already tabulated at the quadrature points the load is built on
    fval = f.value().reshape(space.n_cells, space.nq)
    sol = heat.solve(forms.field_load_scalar(space, fval))
    f_norm = forms.lp_norm_of_values(space, fval, r)
    if f_norm > 0:
        out[3] = forms.discrete_norms(space, sol, "W2s", s=r) / f_norm
        out[4] = float(np.max(np.abs(sol))) / f_norm
    return out


def estimate_constants(space, model, samples=200, seed=0, s=2.0, r=2.0):
    """Empirical form-bound and embedding constants on the discrete space.

    Each constant is the running maximum of its defining ratio over
    ``samples`` random fields, so estimates never decrease with more
    samples and are deterministic for a given seed.  Sample fields are
    drawn one at a time from the seeded generator and folded into the
    maxima in draw order.  Each sample's 1-D factors are tabulated on the
    quadrature coordinate lines of ``space`` and every partial derivative
    is broadcast from those tables straight into quad_points order.  The
    lines and the wall-eliminated heat solver are built once here and
    reused by every sample.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples for a stable estimate")
    rng = np.random.default_rng(seed)
    heat = WallCG(forms.assemble_kappa(space, model), space.dirichlet_mask_theta, 1e-12)
    lines = _quad_lines(space)

    best = np.zeros(5)  # every ratio is >= 0
    for i in range(samples):
        draw = (
            _draw_velocity(space, rng),
            _draw_velocity(space, rng),
            _draw_scalar(space, rng, zero_trace=bool(i % 2)),
            _draw_scalar(space, rng, zero_trace=False),
        )
        best = np.maximum(best, _sample_ratios(space, model, heat, lines, draw, s, r))

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
    gq = np.broadcast_to(forms.quad_values(space, problem.g), (space.n_cells, space.nq, 3))
    return forms.lp_norm_of_values(space, gq, s)


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
