"""Closed-form fields for boundary data, forces and manufactured solutions.

A field is a callable of ``x``, three broadcastable coordinate arrays
(``X, Y, Z = x``), that stacks vector components on the last axis.
``forms.quad_values`` calls it once per cell block on the per-axis
quadrature coordinates (``DiscreteSpace.quad_lines``, z cut to the block);
a point array ``(n, 3)`` is passed as ``points.T``.  Elementwise
operations give every point the bits of a pointwise evaluation.  A
constant passes through ``quad_values`` as a float array.  ``Field`` adds
the optional gradient and Laplacian closures that the manufactured-solution
oracles need; no solver path reads them.  Value callables must accept
complex coordinates so that manufactured-solution derivatives can be
cross-checked by complex-step differentiation.
"""

import numpy as np

__all__ = [
    "Field",
    "constant_scalar",
    "span_scalar",
    "zeros",
]


class Field:
    """Scalar or vector field; a vector grad(x) has index order [..., component, direction]."""

    def __init__(self, value, grad=None, laplacian=None):
        self.value = value
        self.grad = grad
        self.laplacian = laplacian

    def __call__(self, x):
        return self.value(x)


def zeros(x, *components):
    """Zeros on the broadcast shape of the coordinates ``x``, with trailing
    ``components`` axes, in the coordinates' dtype."""
    grid = np.broadcast_shapes(*(np.shape(c) for c in x))
    return np.zeros(grid + components, dtype=np.result_type(*x))


def constant_scalar(c):
    c = float(c)
    return Field(
        value=lambda x: np.full_like(zeros(x), c),
        grad=lambda x: zeros(x, 3),
        laplacian=zeros,
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
        return theta0 + delta * x[axis] / length

    def grad(x):
        g = zeros(x, 3)
        g[..., axis] = delta / length
        return g

    return Field(value=value, grad=grad, laplacian=zeros)
