"""Closed-form fields for boundary data, forces and manufactured solutions.

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
