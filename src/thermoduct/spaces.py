"""Taylor-Hood discrete spaces on the box channel.

Velocity and temperature use triquadratic (27-node) hexahedral Lagrange
elements, pressure uses trilinear (8-node) elements; the pair is the
standard inf-sup stable hexahedral Taylor-Hood element.  Velocity dofs are
component-blocked: dof(m, node) = m * n_scalar + node.

All cells of the structured mesh are congruent axis-aligned boxes, so one
set of reference basis tables serves every cell and element matrices are
cell-independent.  The element is a tensor product along x, y and z, and
so is everything here: each id is a ``mesh.lattice`` sum of per-axis
indices, and each table (basis values and derivatives, weights, the
open-end basis) is the broadcast product of 1-D tables tabulated once at
the 1-D Gauss nodes.  The quadrature points are the broadcast of their
per-axis coordinates, which is never formed: each axis's coordinates are
built once, in cell blocks (``quad_coords``), and every closed-form datum
is tabulated on them, cut to a cell block's z layers
(``forms.quad_values``).  This module is the one that knows their layout.
The 1-D operator matrices (``axis_matrices``) are built once, on first use.
"""

import functools
from typing import NamedTuple

import numpy as np

from .mesh import grid_points, lattice

__all__ = ["AxisMatrices", "DiscreteSpace", "build_spaces", "gauss_01"]


def gauss_01(n):
    """n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _q2_1d(t):
    return np.stack([2 * t * t - 3 * t + 1, 4 * t - 4 * t * t, 2 * t * t - t])


def _dq2_1d(t):
    return np.stack([4 * t - 3, 4 - 8 * t, 4 * t - 1])


def _d2q2_1d(t):
    one = np.ones_like(t)
    return np.stack([4 * one, -8 * one, 4 * one])


def _q1_1d(t):
    return np.stack([1 - t, t])


def _on_axis(table, a, d):
    """The (k, q) ``table`` of axis ``a`` of ``d``, shaped to broadcast over
    (k_d, ..., k_1, q_1, ..., q_d): k counted with the first axis fastest,
    q with the last axis fastest."""
    shape = [1] * (2 * d)
    shape[d - 1 - a], shape[d + a] = table.shape
    return table.reshape(shape)


def _tensor(*tables):
    """Product of the 1-D ``tables``, multiplied left to right, as one
    (k_1 k_2 ..., q_1 q_2 ...) table in the order of ``_on_axis``."""
    d = len(tables)
    prod = functools.reduce(np.multiply, (_on_axis(t, a, d) for a, t in enumerate(tables)))
    return prod.reshape(np.prod(prod.shape[:d]), -1)


class AxisMatrices(NamedTuple):
    """The 1-D matrices of one axis, on its grid nodes in order (dense)."""

    K: np.ndarray    # Q2 stiffness (phi_i', phi_j')
    M: np.ndarray    # Q2 mass (phi_i, phi_j)
    Mp: np.ndarray   # Q1 mass (psi_p, psi_q)
    B: np.ndarray    # Q1 x Q2 values (psi_p, phi_j)
    dB: np.ndarray   # Q1 x Q2 derivatives (psi_p, phi_j')


class DiscreteSpace:
    """Discrete Taylor-Hood + temperature space on a ChannelMesh.

    ``quad_order`` is the space's volume rule: the tensor Gauss rule of
    that many points per axis (at least 3, which integrates the quadratic
    mass terms exactly).  It belongs to the space, not to a run: every run
    uses the default 5 points per axis, exact to degree 9 in each
    variable, and no configuration sets it.  Spaces on other rules are
    built directly, as the tests build 3- and 4-point ones.

    Attributes of interest:

    - ``n_scalar``: triquadratic scalar dof count (temperature and one
      velocity component share this layout),
    - ``n_velocity = 3 * n_scalar``, ``n_pressure`` (trilinear),
    - ``conn_q2``/``conn_q1``: cell-to-dof connectivity, local nodes x
      fastest; ``conn_u``: the (cells, 27, 3) velocity dof ids of each
      cell, component-blocked, whose ``[..., :1]`` is ``conn_q2`` as a
      gather index; ``vertex_to_q2``: the Q2 node of each mesh vertex,
    - ``free_theta``/``free_u``: the dofs off the closure of the lateral
      walls (junction edges included), ascending; the wall dofs are their
      complements; ``free_lines``: the free Q2 grid indices of each axis,
      whose lattice is ``free_theta``,
    - reference basis tables ``N2``, ``dN2``, ``d2N2``, ``N1`` at the
      ``nq`` volume quadrature points of a cell, point index z fastest,
      with weights ``wq``,
    - ``quad_coords``: the x, y and z quadrature coordinates in cell
      blocks: each axis's Gauss coordinates copied over the q³ block of
      its row of cells, shaped to broadcast to the quadrature grid
      (cells_z, cells_y, cells_x, q_x, q_y, q_z), which flattened is
      (n_cells, nq) in cell order; every closed-form datum is tabulated on
      them (``forms.quad_values``, the certificate sampler),
    - ``quad_lines``: the 1-D x, y and z quadrature coordinates, cell by
      cell along each axis; ``quad_line_weights``: the 1-D weights along
      each line, whose tensor product is ``wq`` up to rounding,
    - per open end (``faces["x0"]``, ``faces["x1"]``): facet connectivity
      ``conn`` and its velocity dof ids ``conn_u``, surface quadrature
      tables and the outward normal,
    - ``axis_matrices``: the (x, y, z) ``AxisMatrices``; ``norm_factors``:
      the (x, y, z) 1-D factors of the exponent-2 Sobolev norms.
    """

    def __init__(self, mesh, quad_order=5):
        if quad_order < 3:
            raise ValueError(
                f"quad_order must be >= 3 for exact quadratic mass terms, got {quad_order}"
            )
        self.mesh = mesh
        self.quad_order = int(quad_order)
        self.h = mesh.spacing

        self.q2_shape = tuple(2 * n + 1 for n in mesh.divisions)
        self.q1_shape = tuple(n + 1 for n in mesh.divisions)
        self.n_scalar = int(np.prod(self.q2_shape))
        self.n_pressure = int(np.prod(self.q1_shape))
        self.n_velocity = 3 * self.n_scalar
        self.n_cells = mesh.n_cells

        self._build_numbering()
        self._build_masks()
        self._build_tables()

    # -- construction -----------------------------------------------------

    def _build_numbering(self):
        """Connectivity and Q2 nodes; every id is a lattice sum per axis."""
        cells = self.mesh.divisions
        s2 = np.cumprod((1,) + self.q2_shape[:2])
        s1 = np.cumprod((1,) + self.q1_shape[:2])
        q2 = [(2 * np.arange(n)[:, None] + np.arange(3)) * s for n, s in zip(cells, s2)]

        def components(conn):
            return conn[:, :, None] + self.n_scalar * np.arange(3)

        self.conn_q2 = lattice(*q2)
        self.conn_u = components(self.conn_q2)
        self.conn_q1 = lattice(
            *[(np.arange(n)[:, None] + np.arange(2)) * s for n, s in zip(cells, s1)]
        )
        # a vertex sits at the even Q2 grid index along each axis
        self.vertex_to_q2 = lattice(
            *[2 * np.arange(n + 1)[:, None] * s for n, s in zip(cells, s2)]
        ).ravel()
        # an open end is the lattice of its facets with one grid plane in x
        self.faces = {}
        for name, i, normal in (("x0", 0, -1.0), ("x1", self.q2_shape[0] - 1, 1.0)):
            conn = lattice(np.array([[i]]), *q2[1:])
            self.faces[name] = {"conn": conn, "conn_u": components(conn),
                                "normal": np.array([normal, 0, 0])}
        self.q2_nodes = grid_points(self.h / 2.0, self.q2_shape)

    def _build_masks(self):
        """The free nodes are a lattice: every x node (the open ends) and
        the interior y and z nodes; the wall is their complement."""
        sx, sy, sz = self.q2_shape
        self.free_lines = (np.arange(sx), np.arange(1, sy - 1), np.arange(1, sz - 1))
        strides = np.cumprod((1,) + self.q2_shape[:2])
        self.free_theta = lattice(
            *[(f * s)[None] for f, s in zip(self.free_lines, strides)]).ravel()
        self.free_u = np.concatenate([m * self.n_scalar + self.free_theta for m in range(3)])

    def _build_tables(self):
        """Volume and open-end tables, each a product of 1-D tables at the
        Gauss nodes."""
        g, w = gauss_01(self.quad_order)
        h = self.h
        self.nq = g.size**3
        self.wq = _tensor(w[None], w[None], w[None]).ravel() * float(np.prod(h))

        q2 = (_q2_1d(g), _dq2_1d(g), _d2q2_1d(g))

        def partial(orders):
            return _tensor(*(q2[o] for o in orders))

        unit = np.eye(3, dtype=int)
        self.N2 = partial((0, 0, 0))
        self.dN2 = np.stack([partial(unit[i]) / h[i] for i in range(3)], axis=-1)
        # the scalar power h**2 is not always the rounded product h*h
        self.d2N2 = np.stack([
            np.stack([partial(unit[i] + unit[j]) / (h[i] ** 2 if i == j else h[i] * h[j])
                      for j in range(3)], axis=-1)
            for i in range(3)
        ], axis=-2)
        self.N1 = _tensor(*[_q1_1d(g)] * 3)

        # per axis, the (cells, q) Gauss coordinates of each cell along it
        cells = [np.arange(n)[:, None] * h[a] + g * h[a] for a, n in enumerate(self.mesh.divisions)]
        self.quad_lines = tuple(c.ravel() for c in cells)
        self.quad_line_weights = tuple(np.tile(w * h[a], len(c)) for a, c in enumerate(cells))
        block = (g.size,) * 3
        self.quad_coords = tuple(
            np.ascontiguousarray(np.broadcast_to(t, t.shape[:3] + block))
            for t in (_on_axis(c, a, 3) for a, c in enumerate(cells))
        )

        # the tangent axes of an x face are (y, z)
        face_weights = _tensor(w[None], w[None]).ravel() * (h[1] * h[2])
        face_basis = _tensor(q2[0], q2[0])
        for face in self.faces.values():
            face.update(weights=face_weights, basis=face_basis)

    @functools.cached_property
    def axis_matrices(self):
        """The (x, y, z) ``AxisMatrices`` whose Kronecker products are the
        operators, built on first use.

        Every cell is a box and the quadrature a tensor Gauss rule, so each
        3-D integral is the product of 1-D integrals on the three axes.
        With the grid numbered x fastest, ``kron(a_z, kron(a_y, a_x))`` of
        the factors gives:

        - the scalar stiffness of ``forms.assemble_a`` and
          ``forms.assemble_kappa``: the sum over axes d of K on axis d and M
          on the other two;
        - component d of ``forms.divergence_matrix``: dB on axis d and B on
          the other two;
        - the Q1 pressure mass: Mp on every axis.
        """
        g, w = gauss_01(self.quad_order)
        q2, dq2, q1 = _q2_1d(g), _dq2_1d(g), _q1_1d(g)

        def gram(rows, left, cols, right, scale):
            """Sum over cells of the 1-D element matrices scale * (left, right)."""
            mat = np.zeros((rows[-1, -1] + 1, cols[-1, -1] + 1))
            np.add.at(mat, (rows[:, :, None], cols[:, None, :]), scale * (left * w) @ right.T)
            return mat

        out = []
        for n, h in zip(self.mesh.divisions, self.h):
            c2 = 2 * np.arange(n)[:, None] + np.arange(3)   # Q2 nodes of each cell
            c1 = np.arange(n)[:, None] + np.arange(2)       # Q1 nodes of each cell
            out.append(AxisMatrices(
                K=gram(c2, dq2, c2, dq2, 1.0 / h), M=gram(c2, q2, c2, q2, h),
                Mp=gram(c1, q1, c1, q1, h), B=gram(c1, q1, c2, q2, h),
                dB=gram(c1, q1, c2, dq2, 1.0),
            ))
        return tuple(out)

    @functools.cached_property
    def norm_factors(self):
        """Per axis (x, y, z), the stack ``R`` (3, 3 n, 2 n + 1) of the Q2
        basis (``R[0]``) and its first and second derivatives at a 3-point
        Gauss rule per cell, each row scaled by the square root of its
        weight; built on first use.

        ``(R_z[o_z] ⊗ R_y[o_y] ⊗ R_x[o_x]) X`` holds the partial of orders
        ``o`` of the grid field ``X`` at the points of that rule, times √w,
        so its sum of squares is the squared L2 norm of the partial.  The
        rule is exact for these products of degree ≤ 4, so that is the same
        quantity as the quadrature norm at any ``quad_order``.
        """
        g, w = gauss_01(3)
        tables = np.stack([_q2_1d(g).T, _dq2_1d(g).T, _d2q2_1d(g).T])   # (order, point, node)
        out = []
        for n, h in zip(self.mesh.divisions, self.h):
            rows = 3 * np.arange(n)[:, None] + np.arange(3)      # the points of each cell
            cols = 2 * np.arange(n)[:, None] + np.arange(3)      # its Q2 nodes
            R = np.zeros((3, 3 * n, 2 * n + 1))
            scale = np.sqrt(w * h)[:, None] / h ** np.arange(3)[:, None, None]
            R[:, rows[:, :, None], cols[:, None, :]] = (scale * tables)[:, None]
            out.append(R)
        return tuple(out)

    # -- queries -----------------------------------------------------------

    def split_velocity(self, u):
        """View a velocity dof vector as (n_scalar, 3) nodal values."""
        return np.asarray(u).reshape(3, self.n_scalar).T


def build_spaces(mesh, quad_order=5):
    """Construct the Taylor-Hood velocity/pressure pair and temperature space
    on the ``quad_order``-point rule per axis (see ``DiscreteSpace``)."""
    return DiscreteSpace(mesh, quad_order=quad_order)
