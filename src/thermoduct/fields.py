"""Closed-form fields for boundary data, forces and manufactured solutions.

A field is a callable of ``x``, three broadcastable coordinate arrays
(``X, Y, Z = x``), that stacks vector components on the last axis.
``forms.quad_values`` calls it once per cell block on the space's
quadrature coordinates (``DiscreteSpace.quad_coords``, z cut to the
block); a point array ``(n, 3)`` is passed as ``points.T``.  Elementwise
operations give every point the bits of a pointwise evaluation.  A
constant passes through ``quad_values`` as a float array.

``Separable`` is the one closed-form field: a sum of products of 1-D
factors (``factor_table``: 1, sin, cos, sin², a quadratic bubble and a
ramp) and, per component, one partial derivative of that sum, such as the
curl of a stream potential (``CURL``).  The wall temperatures of
``constant_scalar`` and ``span_scalar``, the manufactured cases of
``verification`` and the random samples of ``certificates`` are all built
from it and all evaluated by its one method ``partials``, which writes
stacked rows (component, direction, *grid); calling it, ``value``,
``grad`` and ``laplacian`` are views over them.  Its values accept complex
coordinates, so that ``verification`` cross-checks every derivative by
complex-step differentiation.
"""

import numpy as np

__all__ = [
    "CURL",
    "Separable",
    "cached_table",
    "constant_scalar",
    "factor_table",
    "span_scalar",
]

_SIN = (np.sin, np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u))
_COS = (np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u), np.sin)
_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_LAPLACIAN = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
_ONE = ("one", 0.0)

# curl(psi e_axis), per axis: (derivative orders of psi, sign) per
# component, None for the zero component
CURL = {
    0: (None, ((0, 0, 1), 1.0), ((0, 1, 0), -1.0)),
    1: (((0, 0, 1), -1.0), None, ((1, 0, 0), 1.0)),
    2: (((0, 1, 0), 1.0), ((1, 0, 0), -1.0), None),
}


def factor_table(kind, k, t, o):
    """d^o/dt^o of one 1-D factor on the coordinates t; None when it
    vanishes identically.

    Kinds: "one" (1), "sin" and "cos" (of k t), "sin2" (sin²(k t)),
    "bubble" (t (k - t), zero at t = 0 and t = k) and "ramp" (t / k).
    """
    if kind == "one":
        return np.ones_like(t) if o == 0 else None
    if kind == "ramp":
        if o == 0:
            return t / k
        return np.full_like(t, 1.0 / k) if o == 1 else None
    if kind == "bubble":
        if o == 0:
            return t * (k - t)
        if o == 1:
            return k - 2 * t
        return np.full_like(t, -2.0) if o == 2 else None
    if kind == "sin2":
        if o == 0:
            return np.sin(k * t) ** 2
        two = 2.0 * k  # sin^2(kt) = (1 - cos(2kt)) / 2
        return 0.5 * two**o * _SIN[o - 1](two * t)
    cycle = {"sin": _SIN, "cos": _COS}[kind]
    return k**o * cycle[o](k * t)


def cached_table(tables, x, kind, k, axis, o):
    """``factor_table`` of one factor on the coordinates ``x[axis]``, kept
    in the dict ``tables`` under (kind, k, axis, o): one table per key and
    dict, for callers that tabulate many fields on the same ``x``."""
    key = (kind, k, axis, o)
    if key not in tables:
        tables[key] = factor_table(kind, k, x[axis], o)
    return tables[key]


class Separable:
    """Sum of products amp f(x) g(y) h(z) of ``factor_table`` factors, and
    per component one partial derivative of that sum, scaled.

    ``terms`` holds (amp, fx, fy, fz), each factor a (kind, k) pair.
    ``comps`` holds, per component, the derivative orders of the sum and a
    scale, or None for an identically zero component; one component is a
    scalar field.  ``partials`` is the one evaluator; ``value`` (also the
    call), ``grad`` and ``laplacian`` are views over its rows with the
    component axis last (none for a scalar); a vector's ``grad`` has index
    order [..., component, direction].
    """

    def __init__(self, terms, comps=(((0, 0, 0), 1.0),)):
        self.terms, self.comps = terms, comps

    def __call__(self, x):
        return self.value(x)

    def value(self, x):
        return self._last(self.partials(x, ((0, 0, 0),))[:, 0], 1)

    def grad(self, x):
        return self._last(self.partials(x, _UNIT), 2)

    def laplacian(self, x):
        xx, yy, zz = np.moveaxis(self.partials(x, _LAPLACIAN), 1, 0)
        return self._last((xx + yy) + zz, 1)

    def _last(self, rows, lead):
        """``rows`` with their ``lead`` axes moved behind the grid; a scalar
        drops its component axis."""
        if len(self.comps) == 1:
            rows, lead = rows[0], lead - 1
        return np.moveaxis(rows, tuple(range(lead)), tuple(range(-lead, 0)))

    def partials(self, x, directions, out=None, tables=None):
        """Rows (component, direction, *grid) on the broadcast grid of ``x``:
        per component, the partial of the term sum at its orders plus each
        direction, times its scale; a zero row for a None component.

        Each distinct partial of the term sum is computed once, each term
        with one grid-sized multiply, and scaled into every row that needs
        it; the second and later terms of a sum go through one grid-sized
        scratch row, so a sum makes no temporary per term.  Each 1-D factor
        table is computed once per (kind, k, axis, order) key, into
        ``tables`` (``cached_table``): a caller-owned dict of the tables on
        this ``x``, which several calls on the same coordinates share; a
        fresh one per call when omitted.
        """
        if out is None:
            grid = np.broadcast_shapes(*(np.shape(t) for t in x))
            out = np.empty((len(self.comps), len(directions)) + grid, dtype=np.result_type(*x))
        tables = {} if tables is None else tables
        users = {}
        for comp, rows in zip(self.comps, out):
            if comp is None:
                rows.fill(0.0)
                continue
            for d, row in zip(directions, rows):
                orders = tuple(b + e for b, e in zip(comp[0], d))
                users.setdefault(orders, []).append((comp[1], row))

        scratch = None
        for orders, ((scale, row), *shared) in users.items():
            first = True
            for amp, *factors in self.terms:
                fx, fy, fz = (cached_table(tables, x, *f, a, o)
                              for a, (f, o) in enumerate(zip(factors, orders)))
                if fx is None or fy is None or fz is None:
                    continue
                if first:
                    np.multiply(amp * fx * fy, fz, out=row)
                else:
                    if scratch is None:
                        scratch = np.empty_like(row)
                    row += np.multiply(amp * fx * fy, fz, out=scratch)
                first = False
            if first:
                row.fill(0.0)
            for sc, dest in shared:
                np.multiply(sc, row, out=dest)
            if scale != 1.0:
                row *= scale
        return out


def constant_scalar(c):
    return Separable([(float(c), _ONE, _ONE, _ONE)])


def span_scalar(axis, theta0, delta, length):
    """Affine profile theta0 + delta * x_axis / length across one axis.

    Harmonic, with zero normal derivative on the open (x-normal) ends for
    axis in {1, 2}, so it doubles as boundary data whose lifting carries a
    plain volumetric load.
    """
    factors = [_ONE] * 3
    factors[int(axis)] = ("ramp", float(length))
    return Separable([(float(theta0), _ONE, _ONE, _ONE), (float(delta), *factors)])
