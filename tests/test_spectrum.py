import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoduct.spectrum import (
    SpectrumResult,
    compute_spectrum,
    default_bounds,
    find_roots,
    mellin_symbol,
    mellin_symbol_deriv,
    regularity_bounds,
    scalar_exponents,
    weighted_admissibility,
)

Z0 = 1.352317            # reported real root
S0 = 3.087930            # induced regularity exponent bound


def test_symbol_values_at_integers():
    assert mellin_symbol(1.0) == 0.0
    assert abs(mellin_symbol(2.0)) < 1e-12
    assert mellin_symbol(0.0) == pytest.approx(-4.0)


def test_symbol_derivative_consistency():
    for z in (0.37, 1.21, 1.93, 0.3 + 0.2j, 1.1 - 0.7j):
        h = 1e-7
        fd = (mellin_symbol(z + h) - mellin_symbol(z - h)) / (2 * h)
        assert fd == pytest.approx(mellin_symbol_deriv(z), rel=1e-6)


@settings(max_examples=100, deadline=None)
@given(re=st.floats(-3, 3), im=st.floats(-3, 3))
def test_conjugate_symmetry(re, im):
    z = complex(re, im)
    assert mellin_symbol(np.conj(z)) == pytest.approx(
        np.conj(mellin_symbol(z)), rel=1e-12, abs=1e-12
    )


def test_find_roots_reference_strip():
    roots = find_roots(0.1, 1.9, 5.0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(1.0, abs=1e-12)
    assert roots[1].imag == 0.0
    assert roots[1].real == pytest.approx(Z0, abs=1e-5)
    for z in roots:
        assert abs(mellin_symbol(z)) < 1e-12


def test_find_roots_complex_pairs_by_box_subdivision():
    # no real root in [2.5, 6.5], so every root comes from the box search
    roots = find_roots(2.5, 6.5, 3.0)
    expected = (3.8225 - 0.9140j, 3.8225 + 0.9140j, 5.8609 - 1.2095j, 5.8609 + 1.2095j)
    assert len(roots) == 4
    for z, ref in zip(roots, expected):
        assert z == pytest.approx(ref, abs=1e-4)
        assert abs(mellin_symbol(z)) < 1e-12
    assert roots[0] == roots[1].conjugate() and roots[2] == roots[3].conjugate()


def test_find_roots_returns_exact_conjugate_pairs():
    # the symbol has real coefficients, so each non-real root is accepted
    # with its exact conjugate, not polished again from its own seed
    roots = find_roots(0.02, 20.0, 40.0)
    upper = [z for z in roots if z.imag > 0]
    lower = sorted((z for z in roots if z.imag < 0), key=lambda z: (z.real, -z.imag))
    assert upper and [z.conjugate() for z in upper] == lower


def test_find_roots_on_a_wide_strip():
    # far from the origin the symbol's terms are large (|z|^2 is 325 at the
    # root near 17.93 + 1.93i), and rounding alone keeps |f(z)| above 1e-12;
    # roots are polished to a residual relative to the size of those terms
    result = compute_spectrum(re_min=0.02, re_max=20.0, im_max=40.0)
    roots = result.stokes_roots
    assert len(roots) == 21
    assert any(abs(z - (17.9312 + 1.9305j)) < 1e-3 for z in roots)
    assert all(any(abs(w - np.conj(z)) < 1e-8 for w in roots) for z in roots)
    for z in roots:
        w = z * np.pi / 2
        terms = abs(z) ** 2 + 4 * abs(np.cos(w)) ** 2 + abs(np.sin(w)) ** 2
        assert abs(mellin_symbol(z)) < 1e-12 * terms
    assert (result.mu_M, result.s0) == pytest.approx(default_bounds(), rel=1e-12)


def test_spectrum_answers_do_not_depend_on_the_strip():
    # each root's last polish starts from the root itself rounded, not from a
    # strip's seed; the root is 1.35231734088033755384..., this float 1.7e-16 from it
    strips = [(0.02, 1.95, 5.0), (0.02, 20.0, 40.0), (0.02, 3.0, 5.0), (0.5, 1.95, 5.0)]
    answers = {(r.mu_M, r.s0) for r in (compute_spectrum(*strip) for strip in strips)}
    assert answers == {(1.3523173408803377, 3.087931986195868)}
    # the roots two strips share have the same bits
    wide = find_roots(0.02, 20.0, 40.0)
    assert all(z in wide for z in find_roots(2.5, 6.5, 3.0))


def test_find_roots_around_two():
    roots = find_roots(1.5, 2.5, 1.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(2.0, abs=1e-10)


def test_find_roots_empty_strip():
    assert find_roots(0.1, 0.9, 5.0) == []


def test_find_roots_validates_arguments():
    with pytest.raises(ValueError):
        find_roots(1.0, 0.5, 1.0)


def test_newton_polish_contracts_quadratically():
    target = find_roots(1.2, 1.5, 1.0)[0]
    z = 1.45
    errs = []
    for _ in range(4):
        z = z - mellin_symbol(z) / mellin_symbol_deriv(z)
        errs.append(abs(z - target))
    # quadratic contraction until roundoff
    assert errs[1] < 10 * errs[0] ** 2 + 1e-14
    assert errs[2] < 10 * errs[1] ** 2 + 1e-14


def test_scalar_exponents_family():
    assert list(scalar_exponents(0)) == [1.0]
    assert list(scalar_exponents(2)) == [1.0, 3.0, 5.0]
    zs = scalar_exponents(3)
    assert np.all(np.abs(np.cos(zs * np.pi / 2)) < 1e-15)
    with pytest.raises(ValueError):
        scalar_exponents(-1)


def test_compute_spectrum_reference_values():
    res = compute_spectrum()
    assert res.mu_M == pytest.approx(Z0, abs=1e-5)
    assert res.s0 == pytest.approx(S0, abs=1e-5)
    assert all(r < 1e-12 for r in res.residuals)
    assert res.metadata["s0_formula"] == "2 / (2 - mu_M)"


def test_regularity_bounds_formula():
    fake = SpectrumResult(
        stokes_roots=[1.0 + 0j, 1.5 + 0j],
        scalar_roots=np.array([1.0, 3.0]),
        mu_M=0.0, s0=0.0, residuals=[0.0, 0.0], strip=(0, 2, 1),
    )
    mu, s0 = regularity_bounds(fake)
    assert mu == 1.5
    assert s0 == pytest.approx(2.0 / (2.0 - 1.5))
    # limiting check of the same expression: mu -> 1 gives s0 -> 2
    assert 2.0 / (2.0 - 1.0) == 2.0


def test_regularity_bounds_rejects_polluted_strip():
    fake = SpectrumResult(
        stokes_roots=[1.0 + 0j, 1.2 + 0j, 1.5 + 0j],
        scalar_roots=np.array([1.0]),
        mu_M=0.0, s0=0.0, residuals=[0] * 3, strip=(0, 2, 1),
    )
    mu, s0 = regularity_bounds(fake)   # 1.2 is itself the strip edge: fine
    assert mu == pytest.approx(1.2)
    # an eigenvalue strictly inside (0, 1) is structurally impossible for
    # this symbol; regularity_bounds must reject it if presented with one
    bad = SpectrumResult(
        stokes_roots=[0.5 + 0j, 1.0 + 0j, 1.5 + 0j],
        scalar_roots=np.array([1.0]),
        mu_M=0.0, s0=0.0, residuals=[0] * 3, strip=(0, 2, 1),
    )
    with pytest.raises(ValueError):
        regularity_bounds(bad)


@pytest.mark.parametrize("re_max", [1.3, 0.5])
def test_strip_short_of_mu_M_is_rejected(re_max):
    # below the Stokes root 1.3523 only the scalar root 3 lies above 1,
    # and the strip cannot rule out a root between re_max and 3
    with pytest.raises(ValueError, match="beyond the searched strip"):
        compute_spectrum(re_max=re_max)


@pytest.mark.parametrize("re_max", [1.95, 2.5])
def test_strip_above_one_is_rejected(re_max):
    # a strip from 1.4 misses the Stokes root 1.3523; reaching past 2 it
    # would take the root z = 2 as mu_M and divide by 2 - mu_M = 0
    with pytest.raises(ValueError, match="above z = 1"):
        compute_spectrum(re_min=1.4, re_max=re_max)


@pytest.mark.parametrize("re_min", [0.99, 1.0])
def test_strip_starting_at_or_below_one_is_accepted(re_min):
    assert compute_spectrum(re_min=re_min).mu_M == pytest.approx(1.352317, abs=1e-6)


def test_weighted_admissibility_reference_cases():
    mu = compute_spectrum().mu_M
    assert weighted_admissibility([0.0], 2.0, mu) == [True]
    assert weighted_admissibility([0.0], 4.0, mu) == [False]
    # any integrability in the admissible momentum range passes at zero weight
    for s in (1.4, 2.0, 2.8, 3.05):
        assert weighted_admissibility([0.0], s, mu) == [True]
    assert weighted_admissibility([0.0, 1.0, -0.2], 2.0, mu) == [True, False, True]


def test_weighted_admissibility_rejects_bad_arguments():
    with pytest.raises(ValueError):
        weighted_admissibility([0.0], 1.0, 1.35)
    with pytest.raises(ValueError):
        weighted_admissibility([-1.5], 2.0, 1.35)   # delta <= -2/p


def test_contour_nudging_handles_root_on_boundary():
    # a box edge sitting directly on a zero must be nudged internally,
    # not silently miscounted
    roots = find_roots(1.0 - 1e-14, 1.9, 2.0)
    assert len(roots) == 2
    assert any(abs(z - 1.0) < 1e-9 for z in roots)
