import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoduct.material import (
    DensityLaw,
    clamped_boussinesq,
    constant_density,
    make_material,
)


def model_with(law):
    return make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.0, law=law)


def test_density_at_reference_point():
    m = model_with(clamped_boussinesq(2.5, alpha_v=0.3, theta_ref=1.0))
    assert m.rho_law(1.0) == pytest.approx(2.5)


def test_density_clamps_to_floor():
    m = model_with(clamped_boussinesq(2.0, alpha_v=0.5, theta_ref=0.0))
    assert m.rho_law(1e9) == pytest.approx(1.0)   # floor rho0/2
    assert m.rho_law(1e9) > 0


def test_density_direct_evaluation():
    m = model_with(DensityLaw(1.0, 0.1, 0.0, 0.5))
    assert m.rho_law(2.0) == pytest.approx(0.8)


def test_increasing_law_rejected():
    with pytest.raises(ValueError, match="alpha_v"):
        DensityLaw(1.0, alpha_v=-0.1, theta_ref=0.0, rho_min=0.5)


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(-1e6, 1e6), alpha_v=st.floats(0.0, 10.0))
def test_density_bounds_property(theta, alpha_v):
    m = model_with(clamped_boussinesq(1.7, alpha_v=alpha_v))
    rho = m.rho_law(theta)
    assert 0.0 < rho <= m.rho_sharp


@settings(max_examples=200, deadline=None)
@given(t1=st.floats(-1e4, 1e4), t2=st.floats(-1e4, 1e4))
def test_density_lipschitz_property(t1, t2):
    m = model_with(clamped_boussinesq(1.0, alpha_v=0.25))
    lhs = abs(m.rho_law(t1) - m.rho_law(t2))
    assert lhs <= m.C_rho * abs(t1 - t2) * (1 + 1e-12) + 1e-15


def test_vectorized_evaluation():
    m = model_with(clamped_boussinesq(1.0, alpha_v=0.1))
    theta = np.linspace(-50, 50, 101)
    rho = m.rho_law(theta)
    assert rho.shape == theta.shape
    assert np.all(np.diff(rho) <= 1e-15)


def test_invalid_constants_rejected():
    with pytest.raises(ValueError):
        make_material(nu=-1.0, cV=1.0, lam=1.0, alpha1=0.0,
                      law=constant_density(1.0))
    with pytest.raises(ValueError):
        make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=-0.5,
                      law=constant_density(1.0))
    with pytest.raises(ValueError, match="rho0"):
        constant_density(0.0)
    with pytest.raises(ValueError, match="rho_min"):
        clamped_boussinesq(1.0, alpha_v=0.1, rho_min=0.0)


@pytest.mark.parametrize("rho_min", [2.0, np.nan])
def test_floor_above_reference_density_rejected(rho_min):
    # rho_min > rho0 would clamp every theta to one value while C_rho stays
    # rho0 alpha_v
    with pytest.raises(ValueError, match="rho_min"):
        clamped_boussinesq(1.0, 0.1, rho_min=rho_min)
    assert clamped_boussinesq(1.0, 0.1, rho_min=1.0)(5.0) == 1.0


def test_constants_follow_a_replaced_law():
    # rho_sharp and C_rho are read from the law, so replacing it moves both
    m = model_with(clamped_boussinesq(1.0, alpha_v=0.1))
    assert (m.rho_sharp, m.C_rho) == (1.0, 0.1)
    m2 = dataclasses.replace(m, rho_law=clamped_boussinesq(2.0, 0.5))
    assert (m2.rho0, m2.rho_sharp, m2.C_rho) == (2.0, 2.0, 1.0)


def test_constant_density_is_the_formula_at_zero_slope():
    m = dataclasses.replace(model_with(clamped_boussinesq(1.0, alpha_v=0.1)),
                            rho_law=constant_density(1.7))
    theta = np.array([-1e300, -5.0, -0.0, 0.0, 3.25, 1e300])
    rho = m.rho_law(theta)
    assert rho.shape == theta.shape and np.all(rho == 1.7)
    assert m.rho_sharp == 1.7 and m.C_rho == 0.0


@pytest.mark.parametrize("name", ["nu", "cV", "lam", "alpha1"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_material_constant_named(name, value):
    constants = {"nu": 1.0, "cV": 1.0, "lam": 1.0, "alpha1": 0.1, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        make_material(**constants, law=constant_density(1.0))


@pytest.mark.parametrize("name", ["rho0", "alpha_v", "theta_ref", "rho_min"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_density_parameter_named(name, value):
    params = {"rho0": 1.0, "alpha_v": 0.1, "theta_ref": 0.0, "rho_min": 0.5, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        DensityLaw(**params)
