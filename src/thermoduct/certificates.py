"""Machine-checkable certificates for the smallness and uniqueness conditions.

The continuous theory asserts the existence of form-bound constants
(C_b, C_d, C_e), a compact-embedding constant C_eps and a sup-norm
embedding constant C_1 without giving values.  Here they are estimated as
running maxima of the defining ratios over random smooth discrete fields,
with declared discrete surrogate norms:

- sample fields: broken W^{2,s} (velocity) and W^{2,r} (temperature)
  quadrature norms; a solution state in R1/R2: broken W^{2,r} for its
  temperature, and for its velocity the graph norm, the L^s quadrature
  norm of its pointwise momentum source,
- load norms of the trilinear forms: L^p quadrature norms of their
  pointwise densities,
- the body-force norm: L^s quadrature norm.

The estimates are honest empirical lower bounds of the true suprema and
are labelled as such in reports.  Given a seed they are deterministic and
monotone in the sample count.

Each sample is a ``fields.Separable``, the closed-form field that the
manufactured solutions of ``verification`` are built from too, with the
same table of exact 1-D factor derivatives (``fields.factor_table``).
The sampler evaluates every sample with ``Separable.partials``, the one
evaluator the manufactured solutions use too, into one workspace of
stacked rows that ``estimate_constants`` allocates once, on the cell-block
quadrature coordinates that every closed-form datum is tabulated on
(``DiscreteSpace.quad_coords``); the integrands are numpy contractions of
those rows.  Each piece of work is done once: the workspace keeps every
1-D factor table of the run (a hundred or so distinct ones serve all the
samples), and a curl sample's zero component is neither evaluated nor
contracted, which drops only exact zeros and so keeps the bits of the
full contractions.

At exponent 2 (s = 2 for the velocities, r = 2 for the temperature, the
default) a sample's W^{2,2} norm needs no pointwise second partials: the
quadrature is a tensor rule, so the norm is a sum of products of 1-D Gram
matrices of the sample's factors along the lines
(``DiscreteSpace.quad_line_weights``), and the sample is evaluated only
at its value and gradient, which the ratios' numerators read.  It agrees
with the pointwise sum to rounding, not bit for bit.  The other exponents
keep the pointwise density.
"""

import functools
import numbers
from dataclasses import dataclass, asdict

import numpy as np

from . import forms
from .fields import _UNIT, CURL, Separable, cached_table
from .spectrum import admissible_sr, default_bounds

__all__ = [
    "ConstantEstimates",
    "estimate_constants",
    "SmallnessResult",
    "smallness_check",
    "CertificateReport",
    "uniqueness_certificate",
    "check_exponents",
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
# Every sample is a ``fields.Separable``: a sum of products amp f(x) g(y)
# h(z), or the curl of one.  The quadrature points form a tensor grid, so
# a partial derivative is the broadcast product ((amp fx) fy) fz of 1-D
# factor tables on the coordinates of each axis, which lands directly in
# quadrature-point order with the bits of a pointwise evaluation.

# second-derivative orders in (i, j) order; (i, j) and (j, i) coincide
_HESS = tuple(tuple(a + b for a, b in zip(ei, ej)) for ei in _UNIT for ej in _UNIT)
_SECOND = tuple(dict.fromkeys(_HESS))  # the six distinct ones
# derivative orders a sample is evaluated at: the value (index 0), the
# gradient (1-3) and the distinct second partials (4-9)
_DIRECTIONS = ((0, 0, 0),) + _UNIT + _SECOND
# how often each of them appears among the ordered derivatives of the
# W^{2,s} density: a mixed second partial twice
_COUNTS = np.array((1, 1, 1, 1) + tuple(_HESS.count(h) for h in _SECOND))


def _grams(fld, axis, space, tables):
    """(4, terms, terms): for each derivative order 0-3, the Gram of the
    terms' factors of ``axis`` along its quadrature line on ``space``, the
    weighted sums of their pairwise products.  ``tables`` holds the factor
    tables on the lines (``fields.cached_table``)."""
    w = space.quad_line_weights[axis]
    rows = np.zeros((4, len(fld.terms), w.size))
    for i, term in enumerate(fld.terms):
        for o in range(4):
            tab = cached_table(tables, space.quad_lines, *term[1 + axis], axis, o)
            if tab is not None:
                rows[o, i] = tab
    return (rows * w) @ np.swapaxes(rows, 1, 2)


def _w22_norm(fld, space, tables=None):
    """Broken W^{2,2} quadrature norm of ``fld`` on ``space``, from 1-D Grams.

    The rule is a tensor rule on a tensor grid (``quad_lines``, weights
    ``quad_line_weights``), so the quadrature sum of the product of two
    terms is the product of three 1-D sums, and the squared norm of a
    partial is ampᵀ (G_x ∘ G_y ∘ G_z) amp.  ``tables`` is a dict of the
    factor tables on the lines that several calls share; a fresh one when
    omitted.
    """
    tables = {} if tables is None else tables
    amp = np.array([term[0] for term in fld.terms])
    grams = [_grams(fld, axis, space, tables) for axis in range(3)]
    total = 0.0
    for base, scale in filter(None, fld.comps):
        orders = np.add(base, _DIRECTIONS)   # per partial, per axis
        gram = grams[0][orders[:, 0]] * grams[1][orders[:, 1]] * grams[2][orders[:, 2]]
        total += scale * scale * (_COUNTS @ (gram @ amp @ amp))
    return float(np.sqrt(total))


class _Workspace:
    """Every full-size array of one sample at norm exponents ``s`` and
    ``r``, overwritten by each sample in turn, and the 1-D factor tables
    of the whole run.  Samples are evaluated on the space's
    ``quad_coords``, whose q^3 blocks make every broadcast product of
    ``Separable.partials`` run contiguously per cell.

    Partials are stacked rows (component, direction, point), directions as
    in ``_DIRECTIONS``.  ``u`` and ``v`` hold the values and gradients of
    the two velocities, ``v`` later those of the temperature and the heat
    source.  At s = 2 nothing reads the second velocity's value rows, so
    it is evaluated at its gradient only.  ``second`` holds the second
    partials of the nonzero components of a field normed pointwise
    (exponent other than 2) and ``out`` the integrands: 27 rows at
    s = r = 2, 33 at s = 2 only and 39 otherwise.  The rows of a curl
    sample's zero component are not written, and nothing reads them.

    ``tables`` holds every factor table on ``quad_coords`` and
    ``line_tables`` every one on ``quad_lines`` (the Gram norms at exponent
    2), keyed (kind, k, axis, order): the draws take their wave numbers
    from a short list, so a run computes each table once, about a hundred
    in all.
    """

    def __init__(self, space, s, r):
        n = space.n_cells * space.nq
        self.space = space
        self.grid = np.broadcast_shapes(*(t.shape for t in space.quad_coords))
        self.u = np.empty((3, 4, n))
        self.v = np.empty((3, 4, n))
        self.second = np.empty((2 if s != 2 else int(r != 2), 6, n))
        self.out = np.empty((3, n))
        self.tables, self.line_tables = {}, {}

    def evaluate(self, fld, rows, directions):
        """The partials of ``fld`` along ``directions`` into ``rows``."""
        fld.partials(self.space.quad_coords, directions, tables=self.tables,
                     out=rows.reshape(rows.shape[:2] + self.grid, copy=False))

    def w2s_norm(self, rows, second, s):
        """Broken W^{2,s} norm of a sample from its value and gradient
        ``rows`` and its second partials ``second``, which it squares in
        place: the ``_COUNTS``-weighted sum of their squares, raised to s/2,
        summed over the points."""
        space, (dens, tmp) = self.space, self.out[:2]
        np.einsum("min,min->n", rows, rows, out=dens)
        dens += np.einsum("i,min->n", _COUNTS[4:], np.square(second, out=second), out=tmp)
        dens **= s / 2.0
        return float(np.einsum("q,cq->", space.wq, dens.reshape(-1, space.nq)) ** (1.0 / s))


def _draw_velocity(space, rng):
    """A random curl velocity curl(amp psi e_axis)."""
    Lx, Ly, Lz = space.mesh.dims
    axis = int(rng.integers(0, 3))
    m = int(rng.integers(1, 3))
    n = int(rng.integers(1, 3))
    k = int(rng.integers(1, 3))
    kind = ("one", "sin", "cos")[int(rng.integers(0, 3))]
    amp = float(rng.normal(0.0, 1.0)) + 0.25 * float(rng.standard_normal())
    psi = [(1.0, (kind, k * np.pi / Lx), ("sin2", m * np.pi / Ly), ("sin2", n * np.pi / Lz))]
    return Separable(psi, [None if c is None else (c[0], amp * c[1]) for c in CURL[axis]])


def _draw_scalar(space, rng, zero_trace):
    """A random scalar sum of products."""
    Lx, Ly, Lz = space.mesh.dims
    yz_kind = "sin" if zero_trace else "cos"
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(0, 3))
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        amp = float(rng.normal(0.0, 1.0))
        terms.append((amp, ("cos" if k else "one", max(k, 1) * np.pi / Lx),
                      (yz_kind, m * np.pi / Ly), (yz_kind, n * np.pi / Lz)))
    return Separable(terms)


def _evaluate(ws, fld, rows, p, directions=_DIRECTIONS[:4]):
    """Evaluate a sample's nonzero components along ``directions`` (its
    value and gradient) into ``rows``, one row block per nonzero component,
    and return its broken W^{2,p} norm: from 1-D Grams at p = 2, where the
    ratios read only its value and gradient, otherwise from the second
    partials of its nonzero components."""
    nonzero = Separable(fld.terms, [c for c in fld.comps if c])
    ws.evaluate(nonzero, rows, directions)
    if p == 2:
        return _w22_norm(fld, ws.space, ws.line_tables)
    second = ws.second[:len(nonzero.comps)]
    ws.evaluate(nonzero, second, _SECOND)
    return ws.w2s_norm(rows, second, p)


# the nonzero components of a curl sample drawn along each axis, as basic
# slices (views, no copy): {1, 2}, {0, 2} and {0, 1}
_NONZERO = (slice(1, 3), slice(0, 3, 2), slice(0, 2))


def _sample_ratios(space, model, heat, ws, draw, s, r):
    """Per-sample ratios (C_b, C_e, C_d, C_eps, C_1); pure given the draw.

    Each curl velocity has one zero component, at its draw axis, so the
    contractions run over the nonzero components only.  Every product they
    drop is an exact zero and einsum keeps the order of the rest, so the
    sums have the bits of the full contractions.
    """
    u, v, theta, f = draw
    au, av = u.comps.index(None), v.comps.index(None)
    su, sv = _NONZERO[au], _NONZERO[av]

    def lp_norm(values, p):     # values at every quadrature point, in point order
        values = values.reshape(space.n_cells, space.nq, *values.shape[1:])
        return forms.lp_norm_of_values(space, lambda cells: values[cells], p)

    out = np.zeros(5)
    nu_u = _evaluate(ws, u, ws.u[su], s)
    # at s = 2 nothing reads the value rows of v
    nu_v = _evaluate(ws, v, ws.v[sv, 1:], s, _UNIT) if s == 2 else _evaluate(ws, v, ws.v[sv], s)
    uval = ws.u[:, 0]
    if nu_u > 0 and nu_v > 0:
        gu, gv = ws.u[:, 1:], ws.v[:, 1:]
        # (u . grad) v: component m of v along direction d of u
        adv = ws.out
        np.einsum("dn,mdn->mn", uval[su], gv[sv, su], out=adv[sv])
        adv[av] = 0.0   # lp_norm reads all three components
        out[0] = lp_norm(adv.T, s) / (nu_u * nu_v)
        # C_e keeps the alpha1*nu prefactor divided out, so the ratio stays
        # meaningful when dissipation is switched off;
        # e(u):e(v) = (grad u:grad v + grad u:grad v^T) / 2
        dens, tmp = ws.out[:2]
        # the components nonzero in both: all of su, or the third axis alone
        both = su if au == av else slice(3 - au - av, 4 - au - av)
        np.einsum("mdn,mdn->n", gu[both], gv[both], out=dens)
        dens += np.einsum("mdn,dmn->n", gu[su, sv], gv[sv, su], out=tmp)
        dens *= 0.5
        out[1] = lp_norm(dens, r) / (nu_u * nu_v)
    n_th = _evaluate(ws, theta, ws.v[:1], r)
    if nu_u > 0 and n_th > 0:
        dens = np.einsum("dn,dn->n", uval[su], ws.v[0, 1:][su], out=ws.out[0])
        dens *= model.rho_law(ws.v[0, 0])
        out[2] = lp_norm(dens, r) / (model.rho_sharp * nu_u * n_th)
    # embedding constants from a heat solve with a known right-hand side;
    # f is already tabulated at the quadrature points the load is built on
    ws.evaluate(f, ws.v[:1, :1], _DIRECTIONS[:1])
    fval = ws.v[0, 0]
    sol = heat.solve(forms.field_load_scalar(space, fval.reshape(space.n_cells, space.nq)))
    f_norm = lp_norm(fval, r)
    if f_norm > 0:
        out[3] = forms.discrete_norms(space, sol, "W2s", s=r) / f_norm
        out[4] = float(np.max(np.abs(sol))) / f_norm
    return out


def estimate_constants(problem, samples=200, seed=0, s=2.0, r=2.0):
    """Empirical form-bound and embedding constants on ``problem.space``.

    Each constant is the running maximum of its defining ratio over
    ``samples`` random fields, so estimates never decrease with more
    samples and are deterministic for a given seed.  Sample fields are
    drawn one at a time from the seeded generator and folded into the
    maxima in draw order.

    One ``_Workspace``, built here, holds every full-size array of a
    sample (27 rows of quadrature values at s = r = 2, 39 at most) and is
    overwritten by the next, so the sampler allocates no field-sized array
    per sample beyond one scratch row per evaluation of a sum of terms and
    those the ``forms`` norms and the heat solve make.  It also keeps the
    run's factor tables, so each is computed once per run, not per sample.
    Each distinct partial derivative of a sample is computed once and
    shared by the W^{2,s} norm and the C_b, C_e and C_d integrands.  Every
    sample reuses the problem's own heat solver ``heat``.  Exponents that
    ``check_exponents`` rejects, and a ``samples`` that is not an integer
    of at least 100, raise ValueError before any sample is drawn or the
    workspace is allocated.
    """
    check_exponents(s, r)
    if not isinstance(samples, numbers.Integral):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 100:
        raise ValueError("need at least 100 samples for a stable estimate")
    space, model, heat = problem.space, problem.model, problem.heat
    rng = np.random.default_rng(seed)
    ws = _Workspace(space, s, r)

    best = np.zeros(5)  # every ratio is >= 0
    for i in range(samples):
        draw = (
            _draw_velocity(space, rng),
            _draw_velocity(space, rng),
            _draw_scalar(space, rng, zero_trace=bool(i % 2)),
            _draw_scalar(space, rng, zero_trace=False),
        )
        best = np.maximum(best, _sample_ratios(space, model, heat, ws, draw, s, r))

    return ConstantEstimates(
        C_b=float(best[0]),
        C_d=float(best[2]),
        C_e=float(best[1]),
        C_eps=float(best[3]),
        C_1=float(best[4]),
        samples=int(samples),
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


def state_norms(problem, state, s, r):
    """Declared surrogate norms (velocity, temperature) of a state solving ``problem``.

    Velocity: the load (graph) norm, the L^s quadrature norm of the state's
    momentum source rho(theta) g - rho0 (u . grad) u (+ f_extra), evaluated
    per cell block.  Temperature: broken W^{2,r} of the full field.
    """
    space, model = problem.space, problem.model

    def source(cells):
        mom = forms.buoyancy_value(space, model, state.theta, problem.g, cells)
        mom -= forms.convection_value(space, model, state.u, state.u, cells)
        if problem.f_extra is not None:
            mom += forms.quad_values(space, problem.f_extra, cells)
        return mom

    u_norm = forms.lp_norm_of_values(space, source, s)
    th_norm = forms.discrete_norms(space, state.theta, "W2s", s=r)
    return u_norm, th_norm


def check_exponents(s, r):
    """ValueError unless s in [4/3, s0), r in ``admissible_sr(s)``, r > 3/2
    (sup-norm embedding) and r < s0 (range of the W^{2,r} norm)."""
    allowed = admissible_sr(s)
    _, s0 = default_bounds()
    if not (r in allowed and 1.5 < r < s0):
        raise ValueError(f"r={r} outside the range s={s} admits: r > 3/2, "
                         f"r <= {allowed.hi} and r < s0 = {s0:.6f}")


def uniqueness_certificate(problem, estimates, state):
    """Uniqueness coefficients R1, R2 of ``state``, a state solving ``problem``.

    Computed symbol-for-symbol from the a priori difference estimates for
    two solutions, both taken to be ``state``: its norms, from
    ``state_norms`` at the exponents of ``estimates``, stand for both.  The
    verdict is uniqueness_ok iff R1 and R2 are below one.  The exponents
    must pass ``check_exponents``.
    """
    s, r = estimates.s, estimates.r
    check_exponents(s, r)
    model = problem.model

    u1, th1 = state_norms(problem, state, s, r)
    u2, th2 = u1, th1
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
    g = functools.partial(forms.quad_values, problem.space, problem.g)
    return forms.lp_norm_of_values(problem.space, g, s)
