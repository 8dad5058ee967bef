import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from thermoduct import build_channel_mesh, build_spaces, certificates, fields, forms
from thermoduct.certificates import (
    ConstantEstimates,
    body_force_norm,
    check_exponents,
    estimate_constants,
    smallness_check,
    state_norms,
    uniqueness_certificate,
)
from thermoduct.certificates import (
    _DIRECTIONS,
    _HESS,
    _SECOND,
    _Workspace,
    _draw_scalar,
    _draw_velocity,
    _sample_ratios,
    _w22_norm,
)
from thermoduct.config import build_problem_parts, parse_config
from thermoduct.fields import CURL, Separable, constant_scalar, span_scalar
from thermoduct.fixed_point import CoupledProblem, State, outer_loop
from thermoduct.material import clamped_boussinesq, make_material
from thermoduct.spectrum import admissible_sr
from conftest import heat_problem
import oracles
from oracles import Field

GOLDEN = Path(__file__).resolve().parent / "golden"


def small_problem(space, g=(0, 0, -0.3)):
    model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.1,
                          law=clamped_boussinesq(1.0, alpha_v=0.1))
    return model, CoupledProblem(space, model, g, span_scalar(1, 1.0, 0.5, 1.0))


def fake_estimates(**kw):
    base = dict(C_b=0.5, C_d=0.25, C_e=0.4, C_eps=2.0, C_1=0.8,
                samples=100, seed=0, s=2.0, r=2.0, mesh_divisions=(1, 1, 1))
    base.update(kw)
    return ConstantEstimates(**base)


# -- constant estimation ------------------------------------------------------------


def test_estimate_requires_enough_samples(small_space, boussinesq_model):
    with pytest.raises(ValueError):
        estimate_constants(heat_problem(small_space, boussinesq_model), samples=50)


@pytest.mark.parametrize("samples", [150.0, "150", 99])
def test_estimate_rejects_samples_before_allocating(small_space, boussinesq_model,
                                                    monkeypatch, samples):
    def no_workspace(*args):
        raise AssertionError("the workspace was allocated")

    monkeypatch.setattr(certificates, "_Workspace", no_workspace)
    with pytest.raises(ValueError, match="samples"):
        estimate_constants(heat_problem(small_space, boussinesq_model), samples=samples)


def test_estimate_takes_numpy_integer_samples(small_space, boussinesq_model):
    problem = heat_problem(small_space, boussinesq_model)
    est = estimate_constants(problem, samples=np.int64(150), seed=3)
    assert est == estimate_constants(problem, samples=150, seed=3)
    assert type(est.samples) is int     # the report is written as JSON


def test_estimate_rejects_exponents_before_sampling(small_space, boussinesq_model):
    # no sup-norm embedding exists at r <= 3/2, so a C_1 sampled there means nothing
    with pytest.raises(ValueError, match="r=1.4 outside the range"):
        estimate_constants(heat_problem(small_space, boussinesq_model), samples=100,
                           s=2.0, r=1.4)


def test_estimates_deterministic_and_positive(small_space, boussinesq_model):
    a = estimate_constants(heat_problem(small_space, boussinesq_model), samples=100, seed=7)
    b = estimate_constants(heat_problem(small_space, boussinesq_model), samples=100, seed=7)
    for name in ("C_b", "C_d", "C_e", "C_eps", "C_1"):
        va, vb = getattr(a, name), getattr(b, name)
        assert va == vb
        assert va > 0


def test_estimates_monotone_in_samples(small_space, boussinesq_model):
    a = estimate_constants(heat_problem(small_space, boussinesq_model), samples=100, seed=3)
    b = estimate_constants(heat_problem(small_space, boussinesq_model), samples=150, seed=3)
    for name in ("C_b", "C_d", "C_e", "C_eps", "C_1"):
        assert getattr(b, name) >= getattr(a, name)


def test_estimates_stable_under_refinement(boussinesq_model):
    coarse = build_spaces(build_channel_mesh(1, 1, 2, 2, 2, 4))
    fine = build_spaces(build_channel_mesh(1, 1, 2, 4, 4, 8))
    a = estimate_constants(heat_problem(coarse, boussinesq_model), samples=100, seed=11)
    b = estimate_constants(heat_problem(fine, boussinesq_model), samples=100, seed=11)
    for name in ("C_b", "C_d", "C_e", "C_eps", "C_1"):
        va, vb = getattr(a, name), getattr(b, name)
        assert abs(vb - va) / va < 0.2


def test_estimates_pinned(small_space, boussinesq_model):
    # any change to the draws, the sample derivatives or their rounding
    # moves at least one of these
    est = estimate_constants(heat_problem(small_space, boussinesq_model), samples=100, seed=0)
    assert (est.C_b, est.C_d, est.C_e, est.C_eps, est.C_1) == (
        0.003172649553602057,
        0.0031063119982081113,
        0.006890343537899241,
        0.8628792550678137,
        0.05888608006742597,
    )


def test_estimates_pinned_anisotropic(aniso_space, boussinesq_model):
    # a second exact pin on unequal cell sizes and another seed
    est = estimate_constants(heat_problem(aniso_space, boussinesq_model), samples=100, seed=3)
    assert (est.C_b, est.C_d, est.C_e, est.C_eps, est.C_1) == (
        0.0008740047209357467,
        0.0019885317338073963,
        0.006570939402636448,
        0.8814364362124086,
        0.038322249466718764,
    )


def test_estimates_pinned_pointwise_exponents(small_space, boussinesq_model):
    # away from s = r = 2 every norm is summed pointwise over the quadrature
    # points: an exact pin of that path
    est = estimate_constants(heat_problem(small_space, boussinesq_model), samples=100, seed=0,
                             s=1.8, r=1.6)
    assert (est.C_b, est.C_d, est.C_e, est.C_eps, est.C_1) == (
        0.0028767984279978527,
        0.0025714178159063107,
        0.006716181951542092,
        0.912147384785995,
        0.061313879466168064,
    )


@pytest.mark.parametrize("s, r", [(2.0, 2.0), (1.8, 1.6)])
def test_factor_tables_computed_once_per_run(small_space, boussinesq_model, monkeypatch, s, r):
    # the draws take their wave numbers from a short list, so one run needs
    # few distinct tables (kind, k and order on one coordinate array), and
    # it computes each of them once
    problem = heat_problem(small_space, boussinesq_model)
    calls, factor_table = [], fields.factor_table

    def counted(kind, k, t, o):
        calls.append((id(t), kind, k, o))
        return factor_table(kind, k, t, o)

    monkeypatch.setattr(fields, "factor_table", counted)
    estimate_constants(problem, samples=100, seed=0, s=s, r=r)
    assert calls
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("s, r", [(2.0, 2.0), (1.8, 1.6)])
def test_sample_ratios_match_full_contractions(aniso_space, boussinesq_model, s, r):
    # the sampler contracts only the nonzero components of its curl samples;
    # every product it drops is an exact zero, so its ratios have the bits
    # of the contractions over all components, for every pair of draw axes
    space = aniso_space
    problem = heat_problem(space, boussinesq_model)
    ws = _Workspace(space, s, r)
    rng = np.random.default_rng(31)
    pairs = set()
    for i in range(40):
        draw = (_draw_velocity(space, rng), _draw_velocity(space, rng),
                _draw_scalar(space, rng, bool(i % 2)), _draw_scalar(space, rng, False))
        pairs.add((draw[0].comps.index(None), draw[1].comps.index(None)))
        got = _sample_ratios(space, boussinesq_model, problem.heat, ws, draw, s, r)
        want = oracles.sample_ratios(space, boussinesq_model, problem.heat, draw, s, r)
        assert np.array_equal(got, want), i
    assert len(pairs) == 9


# -- tensor-product sample fields ------------------------------------------------------


@pytest.fixture(scope="module")
def aniso_space():
    return build_spaces(build_channel_mesh(1.0, 0.7, 2.3, 3, 2, 5))


def closed_factor(kind, k, t, o):
    """d^o/dt^o of one sample factor, written out."""
    if kind == "one":
        return np.ones_like(t) if o == 0 else np.zeros_like(t)
    if kind == "bubble":
        return (t * (k - t), k - 2 * t, np.full_like(t, -2.0), np.zeros_like(t))[o]
    if kind == "sin":
        return (np.sin(k * t), k * np.cos(k * t), k**2 * -np.sin(k * t), k**3 * -np.cos(k * t))[o]
    if kind == "cos":
        return (np.cos(k * t), k * -np.sin(k * t), k**2 * -np.cos(k * t), k**3 * np.sin(k * t))[o]
    two = 2.0 * k  # sin^2(kt) = (1 - cos(2kt)) / 2
    return (
        np.sin(k * t) ** 2,
        0.5 * two * np.sin(two * t),
        0.5 * two**2 * np.cos(two * t),
        0.5 * two**3 * -np.sin(two * t),
    )[o]


def closed_partial(terms, orders, pts):
    return sum(
        amp
        * closed_factor(*fx, pts[:, 0], orders[0])
        * closed_factor(*fy, pts[:, 1], orders[1])
        * closed_factor(*fz, pts[:, 2], orders[2])
        for amp, fx, fy, fz in terms
    )


ORDERS = [(ox, oy, oz) for ox in range(4) for oy in range(4) for oz in range(4)]


def sampled(ws, fld, directions):
    """``fld.partials`` on the sampler's coordinates, (component, direction, point)."""
    return fld.partials(ws.space.quad_coords, directions).reshape(
        len(fld.comps), len(directions), -1)


def nonzero(fld):
    """The nonzero components of ``fld``, whose second partials the sampler norms."""
    return Separable(fld.terms, [c for c in fld.comps if c])


def test_tensor_scalar_matches_closed_form(aniso_space):
    pts = oracles.quad_points(aniso_space).reshape(-1, 3)
    # every factor kind on every axis
    terms = [
        (0.7, ("one", 1.0), ("sin", 2 * np.pi / 0.7), ("cos", np.pi / 2.3)),
        (-1.3, ("sin", np.pi), ("cos", np.pi / 0.7), ("sin2", 2 * np.pi / 2.3)),
        (0.4, ("cos", 2 * np.pi), ("sin2", np.pi / 0.7), ("one", 1.0)),
        (2.1, ("sin2", np.pi), ("one", 1.0), ("sin", np.pi / 2.3)),
        (0.9, ("bubble", 1.0), ("bubble", 0.7), ("bubble", 2.3)),
    ]
    ws = _Workspace(aniso_space, 1.8, 1.8)
    fld = Separable(terms)
    for orders, out in zip(ORDERS, sampled(ws, fld, ORDERS)[0]):
        assert np.array_equal(out, closed_partial(terms, orders, pts)), orders
    rows = ws.u[:1]
    ws.evaluate(fld, rows, _DIRECTIONS[:4])
    second = sampled(ws, fld, _SECOND)
    assert np.array_equal(rows[0, 0], closed_partial(terms, (0, 0, 0), pts))
    grad = np.stack([closed_partial(terms, o, pts) for o in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
    assert np.array_equal(rows[0, 1:], grad)
    hess = np.stack([closed_partial(terms, o, pts) for o in _SECOND])
    assert np.array_equal(second[0], hess)


# curl(amp psi e_axis): per axis, {component: (sign, axis of the derivative of psi)}
CURL_ORACLE = {0: {1: (1.0, 2), 2: (-1.0, 1)}, 1: {0: (-1.0, 2), 2: (1.0, 0)},
               2: {0: (1.0, 1), 1: (-1.0, 0)}}


def curl(psi, axis, amp):
    """curl(amp psi e_axis) as the sampler draws it: amp scales each component."""
    return Separable(psi, [None if c is None else (c[0], amp * c[1]) for c in CURL[axis]])


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("kind", ["one", "sin", "cos"])
def test_curl_velocity_matches_closed_form(aniso_space, axis, kind):
    pts = oracles.quad_points(aniso_space).reshape(-1, 3)
    amp = -0.8
    psi = [(1.0, (kind, 2 * np.pi), ("sin2", np.pi / 0.7), ("sin2", 2 * np.pi / 2.3))]
    ws = _Workspace(aniso_space, 1.8, 1.8)
    fld = curl(psi, axis, amp)
    ws.evaluate(fld, ws.u, _DIRECTIONS[:4])
    second = sampled(ws, nonzero(fld), _SECOND)

    def comp(m, extra):
        if m not in CURL_ORACLE[axis]:
            return np.zeros(len(pts))
        sign, d = CURL_ORACLE[axis][m]
        orders = [e + (i == d) for i, e in enumerate(extra)]
        return amp * sign * closed_partial(psi, orders, pts)

    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert np.array_equal(ws.u[:, 0], np.stack([comp(m, (0, 0, 0)) for m in range(3)]))
    grad = np.stack([np.stack([comp(m, e) for e in unit]) for m in range(3)])
    assert np.array_equal(ws.u[:, 1:], grad)
    # the pointwise gradient of the unscaled curl, [point, component, direction]
    pointwise = Separable(psi, CURL[axis]).grad(pts.T)
    assert np.array_equal(amp * pointwise, np.moveaxis(grad, -1, 0))
    assert np.allclose(np.einsum("mmn->n", grad), 0.0, atol=1e-9)  # solenoidal
    # the second partials of the two nonzero components, in component order
    hess = np.stack([np.stack([comp(m, o) for o in _SECOND]) for m in sorted(CURL_ORACLE[axis])])
    assert np.array_equal(second, hess)


def curl_y_sample(space, amp=0.6):
    """curl(amp psi e_y) = amp (-dz psi, 0, dx psi), and its closed-form partials."""
    pts = oracles.quad_points(space).reshape(-1, 3)
    psi = [(1.0, ("cos", 2 * np.pi), ("sin2", np.pi / 0.7), ("sin2", 2 * np.pi / 2.3))]
    sign = {0: -1.0, 2: 1.0}
    base = {0: (0, 0, 1), 2: (1, 0, 0)}

    def comp(m, extra):
        if m not in base:
            return np.zeros(len(pts))
        orders = [b + e for b, e in zip(base[m], extra)]
        return amp * sign[m] * closed_partial(psi, orders, pts)

    return curl(psi, 1, amp), comp


@pytest.mark.parametrize("s", [2.0, 1.5, 3.0])
def test_w2s_density_matches_array_formula(aniso_space, s):
    # the sampler's pointwise norm is the quadrature sum of the array
    # expression (|v|^2 + np.sum(grad**2) + |hess|^2) ** (s/2)
    space = aniso_space
    ws = _Workspace(space, 1.8, 1.8)
    fld, comp = curl_y_sample(space)
    ws.evaluate(fld, ws.u, _DIRECTIONS[:4])
    second = sampled(ws, nonzero(fld), _SECOND)
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    value = np.stack([comp(m, (0, 0, 0)) for m in range(3)], axis=1)
    grad = np.stack([np.stack([comp(m, e) for e in unit], axis=1) for m in range(3)], axis=1)
    hess_sq = sum(comp(m, orders) ** 2 for m in range(3) for orders in _HESS)
    dens = (np.sum(value**2, axis=1) + np.sum(grad**2, axis=(1, 2)) + hess_sq) ** (s / 2.0)
    expected = np.einsum("q,cq->", space.wq, dens.reshape(space.n_cells, space.nq)) ** (1.0 / s)
    assert ws.w2s_norm(ws.u, second, s) == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("which", ["aniso", "channel"])
def test_sampler_rows_are_quad_values(which, aniso_space, small_space):
    # the sampler and forms.quad_values tabulate on the one coordinate
    # layout of the space, so a draw's value rows are its quadrature values
    space = {"aniso": aniso_space, "channel": small_space}[which]
    ws = _Workspace(space, 2.0, 2.0)
    rng = np.random.default_rng(29)
    for i in range(20):
        velocity, scalar = _draw_velocity(space, rng), _draw_scalar(space, rng, bool(i % 2))
        ws.evaluate(velocity, ws.u, _DIRECTIONS[:4])
        ws.evaluate(scalar, ws.v[:1], _DIRECTIONS[:4])
        assert np.array_equal(forms.quad_values(space, velocity).reshape(-1, 3).T, ws.u[:, 0])
        assert np.array_equal(forms.quad_values(space, scalar).ravel(), ws.v[0, 0])


@pytest.mark.parametrize("which", ["aniso", "channel"])
def test_gram_w22_norm_matches_pointwise_norm(which, aniso_space, small_space):
    # at s = 2 the sampler norms each field from 1-D Grams; the pointwise
    # density summed over the quadrature points is the reference
    space = {"aniso": aniso_space, "channel": small_space}[which]
    ws = _Workspace(space, 1.8, 1.8)
    rng = np.random.default_rng(19)
    worst = 0.0
    for i in range(100):
        for fld in (_draw_velocity(space, rng), _draw_scalar(space, rng, bool(i % 2))):
            rows = sampled(ws, fld, _DIRECTIONS[:4])
            second = sampled(ws, nonzero(fld), _SECOND)
            ref = ws.w2s_norm(rows, second, 2.0)
            worst = max(worst, abs(_w22_norm(fld, space) - ref) / ref)
    assert worst <= 1e-14


def test_integrands_match_array_formulas(aniso_space, boussinesq_model, monkeypatch):
    # the C_b and C_e integrands the sampler passes to lp_norm_of_values are
    # the array expressions (u . grad) v and e(u) : e(v), e = (g + g^T) / 2
    space = aniso_space
    seen = []

    def record(space, values, p):
        seen.append(np.array(values(slice(None))))
        return 1.0

    monkeypatch.setattr(forms, "lp_norm_of_values", record)
    problem = heat_problem(space, boussinesq_model)
    ws = _Workspace(space, 2.0, 2.0)
    rng = np.random.default_rng(23)
    for i in range(12):
        draw = (_draw_velocity(space, rng), _draw_velocity(space, rng),
                _draw_scalar(space, rng, bool(i % 2)), _draw_scalar(space, rng, False))
        seen.clear()
        _sample_ratios(space, boussinesq_model, problem.heat, ws, draw, 2.0, 2.0)
        adv, strain = seen[0].reshape(-1, 3), seen[1].ravel()
        # the sample velocities again, as (point, component, direction) arrays
        rows_u, rows_v = (sampled(ws, spec, _DIRECTIONS[:4]) for spec in draw[:2])
        u = rows_u[:, 0].T
        gu, gv = (np.moveaxis(rows[:, 1:], -1, 0) for rows in (rows_u, rows_v))
        sym_u, sym_v = (0.5 * (g + np.swapaxes(g, 1, 2)) for g in (gu, gv))
        for got, want in ((adv, np.einsum("nd,nmd->nm", u, gv)),
                          (strain, np.einsum("nmd,nmd->n", sym_u, sym_v))):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("p", [1.0, 0.75, 1.5])
def test_in_place_power_is_power(p):
    # the sampler raises its W^{2,s} density in place
    x = np.abs(np.random.default_rng(41).normal(size=32000))
    y = x.copy()
    y **= p
    assert np.array_equal(y, x**p)


def test_estimate_constants_allocates_under_10_mib(boussinesq_model):
    # one workspace of 27 rows at s = r = 2 on the benchmark channel
    space = build_spaces(build_channel_mesh(1.0, 1.0, 4.0, 4, 4, 16))
    problem = heat_problem(space, boussinesq_model)
    tracemalloc.start()
    try:
        estimate_constants(problem, samples=100, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_body_force_norm_allocates_under_2_5_mib(boussinesq_model):
    # |g|^s of a constant g is filled per cell block: at 8x8x32 the one
    # whole-mesh row is 1.95 MiB, and a block's transients the rest
    space = build_spaces(build_channel_mesh(1.0, 1.0, 4.0, 8, 8, 32))
    problem = CoupledProblem(space, boussinesq_model, (0.0, 0.0, -9.7), constant_scalar(0.0))
    tracemalloc.start()
    try:
        body_force_norm(problem, 1.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


# -- smallness -----------------------------------------------------------------------


def test_smallness_zero_load(boussinesq_model):
    est = fake_estimates()
    res = smallness_check(est, boussinesq_model, 0.0)
    assert res.ok
    assert 0.0 < res.beta < 1e-300
    assert res.headroom == res.second_threshold


def test_smallness_boundary_case_absent(boussinesq_model):
    est = fake_estimates()
    g_boundary = 1.0 / (4 * est.C_b * boussinesq_model.rho_sharp * boussinesq_model.rho0)
    res = smallness_check(est, boussinesq_model, g_boundary)
    assert res.beta is None
    assert not res.ok


def test_smallness_half_threshold_direct_substitution(boussinesq_model):
    est = fake_estimates()
    m = boussinesq_model
    g_half = 0.5 / (4 * est.C_b * m.rho_sharp * m.rho0)
    res = smallness_check(est, m, g_half)
    assert res.beta == pytest.approx(0.5, rel=1e-12)
    # direct substitution of both displayed inequalities
    second = 1.0 / (2 * est.C_eps * est.C_d * m.cV * m.rho_sharp**2)
    expect_ok = (g_half <= res.beta / (4 * est.C_b * m.rho_sharp * m.rho0)) and (
        g_half < second
    )
    assert res.ok == expect_ok
    assert res.second_threshold == pytest.approx(second, rel=1e-12)


def test_smallness_formula_pinned_by_hand():
    m = make_material(nu=1.0, cV=3.0, lam=1.0, alpha1=0.0,
                      law=clamped_boussinesq(2.0, alpha_v=0.1))
    est = fake_estimates(C_b=0.5, C_d=0.25, C_eps=2.0)
    res = smallness_check(est, m, 0.05)
    # beta = 4 * 0.5 * 2 * 2 * 0.05 = 0.4
    assert res.beta == pytest.approx(0.4, rel=1e-13)
    # second threshold = 1 / (2 * 2 * 0.25 * 3 * 4) = 1/12
    assert res.second_threshold == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert res.ok


# -- uniqueness ----------------------------------------------------------------------


def zero_state(space, theta=None):
    return State(
        u=np.zeros(space.n_velocity),
        P=np.zeros(space.n_pressure),
        theta=np.zeros(space.n_scalar) if theta is None else theta,
    )


def test_uniqueness_zero_states(small_space):
    model, prob = small_problem(small_space, g=(0, 0, 0))
    rep = uniqueness_certificate(prob, fake_estimates(), zero_state(small_space))
    assert rep.R1 == 0.0
    assert rep.R2 == 0.0
    assert rep.uniqueness_ok


def test_uniqueness_requires_supnorm_exponent(small_space):
    model, prob = small_problem(small_space)
    with pytest.raises(ValueError):
        uniqueness_certificate(prob, fake_estimates(r=1.4), zero_state(small_space))


def test_uniqueness_rejects_r_outside_admissible_range(small_space):
    # admissible_sr(2.0) is [1.2, 3.0]; r = 3.05 lies above it although r < s0
    model, prob = small_problem(small_space)
    with pytest.raises(ValueError, match="outside the range"):
        uniqueness_certificate(prob, fake_estimates(s=2.0, r=3.05), zero_state(small_space))


def test_check_exponents_contract():
    check_exponents(2.0, 2.0)
    check_exponents(3.0, 3.0)
    for s, r in ((1.0, 2.0), (3.2, 2.0), (2.0, 1.0), (2.0, 1.4), (2.0, 3.05), (3.0, 3.1)):
        with pytest.raises(ValueError):
            check_exponents(s, r)


def test_uniqueness_formula_pinned_by_hand(small_space):
    # states with hand-computable surrogate norms: u = 0, theta constant
    model, prob = small_problem(small_space, g=(0, 0, -2.0))
    c = 3.0
    st = zero_state(small_space, theta=np.full(small_space.n_scalar, c))
    est = fake_estimates()
    rep = uniqueness_certificate(prob, est, st)
    # ||theta||_{W2r} for a constant field over |Omega| = 2 is c * 2^(1/2)
    th = c * math.sqrt(2.0)
    g_norm = body_force_norm(prob, 2.0)          # 2 * sqrt(2)
    assert g_norm == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    # the velocity's graph norm: with u = 0 the momentum source is the
    # constant rho(c) g, |rho(c) g| = 2 rho(c), inside the clamp [0.5, 1]
    rho = float(model.rho_law(c))
    assert rho == pytest.approx(0.7, rel=1e-15)
    assert rep.inputs["u1_norm"] == rep.inputs["u2_norm"] == pytest.approx(
        rho * 2.0 * math.sqrt(2.0), rel=1e-12)
    assert rep.inputs["theta1_norm"] == rep.inputs["theta2_norm"] == pytest.approx(th, rel=1e-12)
    # every term of R1 and R2 from those norms; the quadrature norms sit a
    # few ulps from the hand values, so R1's absolute bound takes them as reported
    u, th = rep.inputs["u1_norm"], rep.inputs["theta1_norm"]
    A = (model.cV * est.C_1 * est.C_eps * est.C_d * model.C_rho * u * th
         + model.cV * est.C_eps * model.rho_sharp * est.C_d * u)
    B = (model.cV * est.C_eps * model.rho_sharp * est.C_d * th
         + model.alpha1 * model.nu * est.C_e * (u + u))
    G = est.C_1 * model.C_rho * g_norm
    assert rep.R1 == pytest.approx(A * (1 + G), abs=1e-15)
    assert rep.R2 == pytest.approx(B * (1 + G) + model.rho0 * est.C_b * (u + u), rel=1e-12)
    assert rep.grouping.startswith("R1 = A (1 + C_1 C_rho ||g||)")


def test_uniqueness_monotone_under_load_scaling(small_space):
    model, _ = small_problem(small_space)
    est = estimate_constants(heat_problem(small_space, model), samples=100, seed=5)
    reports = []
    for scale in (0.15, 0.3, 0.6):
        prob = CoupledProblem(
            small_space, model, (0, 0, -scale), span_scalar(1, 1.0, 0.5, 1.0)
        )
        state, _ = outer_loop(prob)
        reports.append(uniqueness_certificate(prob, est, state))
    assert reports[0].R1 <= reports[1].R1 <= reports[2].R1
    assert reports[0].R2 <= reports[1].R2 <= reports[2].R2


def test_state_norms_velocity_is_graph_norm_of_whole_mesh_source(small_space, monkeypatch):
    # oracle: the momentum source rho(theta) g - rho0 (u . grad) u + f_extra
    # built on the whole mesh at once; state_norms builds it per cell block
    model = make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.1,
                          law=clamped_boussinesq(1.0, alpha_v=0.1))
    f_extra = Field(lambda x: np.stack(np.broadcast_arrays(
        0.2 * np.sin(np.pi * x[1]), 0.1 * x[2], -0.05 + 0.0 * x[0]), axis=-1))
    prob = CoupledProblem(small_space, model, (0, 0, -0.3), span_scalar(1, 1.0, 0.5, 1.0),
                          f_extra=f_extra)
    state, _ = outer_loop(prob)
    mom = (forms.buoyancy_value(small_space, model, state.theta, prob.g)
           - forms.convection_value(small_space, model, state.u, state.u)
           + forms.quad_values(small_space, f_extra))
    monkeypatch.setattr(forms, "_BLOCK_CELLS", 4)
    assert len(list(forms.cell_blocks(small_space))) == 4
    for s in (2.0, 1.8):
        dens = np.sqrt(np.sum(mom**2, axis=-1)) ** s
        want = float(np.einsum("q,cq->", small_space.wq, dens) ** (1.0 / s))
        u_norm, th_norm = state_norms(prob, state, s, 2.0)
        assert u_norm == want
        assert th_norm == forms.discrete_norms(small_space, state.theta, "W2s", s=2.0)


def test_outer_loop_and_state_norms_allocate_under_2_mib(monkeypatch):
    # the converged state keeps no quadrature array: the certificate's
    # momentum source is built one cell block at a time
    config = parse_config((GOLDEN / "channel.cfg").read_text())
    problem = CoupledProblem(*build_problem_parts(config))
    monkeypatch.setattr(forms, "_BLOCK_CELLS", 16)
    tracemalloc.start()
    try:
        state, _ = outer_loop(problem)
        state_norms(problem, state, 2.0, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


# -- exponent ranges ------------------------------------------------------------------


def test_admissible_sr_reference_points():
    r2 = admissible_sr(2.0)
    assert (r2.lo, r2.hi, r2.hi_closed) == (1.2, 3.0, True)
    r3 = admissible_sr(3.0)
    assert r3.lo == 1.2 and math.isinf(r3.hi) and not r3.hi_closed
    r43 = admissible_sr(4.0 / 3.0)
    assert r43.hi == pytest.approx(1.2, rel=1e-14)
    assert 1.2 in r43


def test_admissible_sr_rejects_out_of_range():
    with pytest.raises(ValueError):
        admissible_sr(1.0)
    with pytest.raises(ValueError):
        admissible_sr(3.2)


def test_exponent_range_membership():
    r = admissible_sr(2.0)
    assert 1.2 in r and 3.0 in r and 2.5 in r
    assert 3.0001 not in r and 1.1 not in r


def test_ball_radius_pinned_by_hand(small_space):
    model, prob = small_problem(small_space, g=(0, 0, -0.1))
    est = fake_estimates()
    rep = uniqueness_certificate(prob, est, zero_state(small_space))
    g_norm = body_force_norm(prob, 2.0)
    beta = 4.0 * est.C_b * model.rho_sharp * model.rho0 * g_norm
    assert rep.beta == pytest.approx(beta, rel=1e-13)
    assert rep.ball_radius == pytest.approx(beta / (2.0 * est.C_b * model.rho0), rel=1e-13)
