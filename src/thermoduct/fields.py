"""Closed-form fields for boundary data and forces.

A field is any callable of points ``(n, 3)``; ``forms.quad_values``
tabulates it once at the quadrature points, and a constant passes through
as a float array.  ``Field`` adds the optional gradient and Laplacian
closures that the manufactured-solution oracles need; no solver path
reads them.  Value callables must accept complex coordinate arrays so
that manufactured-solution derivatives can be cross-checked by
complex-step differentiation.
"""

import numpy as np

__all__ = [
    "Field",
    "constant_scalar",
    "constant_vector",
    "span_scalar",
    "theta_field_registry",
    "body_force_registry",
]


class Field:
    """Scalar or vector field; a vector grad(x) has index order [point, component, direction]."""

    def __init__(self, value, grad=None, laplacian=None):
        self.value = value
        self.grad = grad
        self.laplacian = laplacian

    def __call__(self, x):
        return self.value(np.asarray(x))


def constant_scalar(c):
    c = float(c)
    return Field(
        value=lambda x: np.full(x.shape[0], c, dtype=x.dtype),
        grad=lambda x: np.zeros((x.shape[0], 3), dtype=x.dtype),
        laplacian=lambda x: np.zeros(x.shape[0], dtype=x.dtype),
    )


def constant_vector(v):
    v = np.asarray(v, dtype=float).reshape(3)
    return Field(
        value=lambda x: np.broadcast_to(v.astype(x.dtype), (x.shape[0], 3)).copy(),
        grad=lambda x: np.zeros((x.shape[0], 3, 3), dtype=x.dtype),
        laplacian=lambda x: np.zeros((x.shape[0], 3), dtype=x.dtype),
    )


def span_scalar(axis, theta0, delta, length):
    """Affine profile theta0 + delta * x_axis / length across one axis.

    Harmonic, with zero normal derivative on the open (x-normal) ends for
    axis in {1, 2}, so it doubles as boundary data whose lifting carries a
    plain volumetric load.
    """
    axis = int(axis)
    theta0, delta, length = float(theta0), float(delta), float(length)

    def value(x):
        return theta0 + delta * x[:, axis] / length

    def grad(x):
        g = np.zeros((x.shape[0], 3), dtype=x.dtype)
        g[:, axis] = delta / length
        return g

    return Field(
        value=value,
        grad=grad,
        laplacian=lambda x: np.zeros(x.shape[0], dtype=x.dtype),
    )


def theta_field_registry(dims):
    """Named boundary-temperature fields available to run configurations."""
    Lx, Ly, Lz = dims
    return {
        "constant": lambda p: constant_scalar(p.get("theta0", 0.0)),
        "span_y": lambda p: span_scalar(1, p.get("theta0", 0.0), p.get("delta", 1.0), Ly),
        "span_z": lambda p: span_scalar(2, p.get("theta0", 0.0), p.get("delta", 1.0), Lz),
    }


def body_force_registry():
    """Named body forces available to run configurations, as constant 3-vectors."""
    return {
        "zero": lambda p: (0.0, 0.0, 0.0),
        "constant": lambda p: (p.get("gx", 0.0), p.get("gy", 0.0), p.get("gz", 0.0)),
    }
