import numpy as np
import pytest

from thermoduct import build_channel_mesh, build_spaces
from oracles import Field, zeros
from thermoduct.fields import constant_scalar
from thermoduct.fixed_point import CoupledProblem
from thermoduct.material import (
    clamped_boussinesq,
    constant_density,
    make_material,
)


@pytest.fixture(scope="session")
def unit_space():
    """Single-cell unit cube."""
    return build_spaces(build_channel_mesh(1, 1, 1, 1, 1, 1))


@pytest.fixture(scope="session")
def cube_space():
    """Unit cube split 2x2x2."""
    return build_spaces(build_channel_mesh(1, 1, 1, 2, 2, 2))


@pytest.fixture(scope="session")
def small_space():
    """Small channel used by most solver tests."""
    return build_spaces(build_channel_mesh(1, 1, 2, 2, 2, 4))


@pytest.fixture(scope="session")
def unit_model():
    return make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=1.0,
                         law=constant_density(1.0))


@pytest.fixture(scope="session")
def boussinesq_model():
    return make_material(nu=1.0, cV=1.0, lam=1.0, alpha1=0.1,
                         law=clamped_boussinesq(1.0, alpha_v=0.1))


def heat_problem(space, model):
    """A ``CoupledProblem`` used only for its heat solver: no body force and
    a zero wall temperature, so no Stokes operator is ever assembled."""
    return CoupledProblem(space, model, (0.0, 0.0, 0.0), constant_scalar(0.0))


def constant_vector(v):
    """A constant vector ``Field``, with zero gradient and Laplacian."""
    v = np.asarray(v, dtype=float).reshape(3)
    return Field(
        value=lambda x: zeros(x, 3) + v,
        grad=lambda x: zeros(x, 3, 3),
        laplacian=lambda x: zeros(x, 3),
    )


def linear_field_dofs(space, component, axis):
    """Velocity dof vector with one component equal to a coordinate."""
    u = np.zeros(space.n_velocity)
    u[component * space.n_scalar:(component + 1) * space.n_scalar] = (
        space.q2_nodes[:, axis]
    )
    return u


def divergence_free_samples(space, rng, count):
    """Exactly representable solenoidal fields with u.n = 0 on the walls.

    Combinations of (f(y,z), 0, 0) with biquadratic f and the two
    rotational generators (x(L-2y), -y(L-y), 0), (x(L-2z), 0, -z(L-z)).
    """
    Lx, Ly, Lz = space.mesh.dims
    nodes = space.q2_nodes
    x, y, z = nodes[:, 0], nodes[:, 1], nodes[:, 2]
    out = []
    for _ in range(count):
        c = rng.normal(size=(3, 3))
        f = sum(c[i, j] * y**i * z**j for i in range(3) for j in range(3))
        a2, a3 = rng.normal(size=2)
        u = np.zeros(space.n_velocity)
        n = space.n_scalar
        u[:n] = f + a2 * x * (Ly - 2 * y) + a3 * x * (Lz - 2 * z)
        u[n:2 * n] = -a2 * y * (Ly - y)
        u[2 * n:] = -a3 * z * (Lz - z)
        out.append(u)
    return out
