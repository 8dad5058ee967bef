"""Taylor-Hood discrete spaces on the box channel.

Velocity and temperature use triquadratic (27-node) hexahedral Lagrange
elements, pressure uses trilinear (8-node) elements; the pair is the
standard inf-sup stable hexahedral Taylor-Hood element.  Velocity dofs are
component-blocked: dof(m, node) = m * n_scalar + node.

All cells of the structured mesh are congruent axis-aligned boxes, so one
set of reference basis tables serves every cell and element matrices are
cell-independent.
"""

import functools

import numpy as np

__all__ = ["DiscreteSpace", "build_spaces", "gauss_01"]


def gauss_01(n):
    """n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _q2_1d(t):
    t = np.asarray(t)
    return np.stack([2 * t * t - 3 * t + 1, 4 * t - 4 * t * t, 2 * t * t - t])


def _dq2_1d(t):
    t = np.asarray(t)
    return np.stack([4 * t - 3, 4 - 8 * t, 4 * t - 1])


def _d2q2_1d(t):
    t = np.asarray(t)
    one = np.ones_like(t)
    return np.stack([4 * one, -8 * one, 4 * one])


def _q1_1d(t):
    t = np.asarray(t)
    return np.stack([1 - t, t])


class DiscreteSpace:
    """Discrete Taylor-Hood + temperature space on a ChannelMesh.

    Attributes of interest:

    - ``n_scalar``: triquadratic scalar dof count (temperature and one
      velocity component share this layout),
    - ``n_velocity = 3 * n_scalar``, ``n_pressure`` (trilinear),
    - ``conn_q2``/``conn_q1``: cell-to-dof connectivity,
    - ``dirichlet_mask_theta``/``dirichlet_mask_u``: dofs on the closure
      of the lateral walls (junction edges included),
    - reference basis tables at the volume quadrature points and, per
      open end (``faces["x0"]``, ``faces["x1"]``), surface quadrature
      tables with outward normals.
    """

    def __init__(self, mesh, quad_order=5):
        if quad_order < 3:
            raise ValueError(
                f"quad_order must be >= 3 for exact quadratic mass terms, got {quad_order}"
            )
        self.mesh = mesh
        self.quad_order = int(quad_order)
        nx, ny, nz = mesh.divisions
        self.h = mesh.spacing

        self.q2_shape = (2 * nx + 1, 2 * ny + 1, 2 * nz + 1)
        self.q1_shape = (nx + 1, ny + 1, nz + 1)
        self.n_scalar = int(np.prod(self.q2_shape))
        self.n_pressure = int(np.prod(self.q1_shape))
        self.n_velocity = 3 * self.n_scalar
        self.n_cells = mesh.n_cells

        self._build_connectivity(nx, ny)
        self._build_nodes()
        self._build_masks()
        self._build_volume_tables()
        self._build_surface_tables()

    # -- construction -----------------------------------------------------

    def _build_connectivity(self, nx, ny):
        sx, sy, _ = self.q2_shape

        cells = np.arange(self.n_cells)
        ci = cells % nx
        cj = (cells // nx) % ny
        ck = cells // (nx * ny)
        self.cell_ijk = np.stack([ci, cj, ck], axis=1)

        loc = np.arange(27)
        la, lb, lc = loc % 3, (loc // 3) % 3, loc // 9
        gx = 2 * ci[:, None] + la[None, :]
        gy = 2 * cj[:, None] + lb[None, :]
        gz = 2 * ck[:, None] + lc[None, :]
        self.conn_q2 = gx + sx * (gy + sy * gz)

        px, py, _ = self.q1_shape
        loc1 = np.arange(8)
        ma, mb, mc = loc1 % 2, (loc1 // 2) % 2, loc1 // 4
        self.conn_q1 = (
            (ci[:, None] + ma[None, :])
            + px * ((cj[:, None] + mb[None, :]) + py * (ck[:, None] + mc[None, :]))
        )

    def _build_nodes(self):
        half = self.h / 2.0
        axes = [np.arange(n) * half[d] for d, n in enumerate(self.q2_shape)]
        X, Y, Z = np.meshgrid(*axes, indexing="ij")
        self.q2_nodes = np.stack(
            [X.ravel(order="F"), Y.ravel(order="F"), Z.ravel(order="F")], axis=1
        )
        # q2 grid index of each mesh vertex (even strides along each axis)
        sx, sy, _ = self.q2_shape
        px, py, pz = self.q1_shape
        vi, vj, vk = np.meshgrid(
            np.arange(px), np.arange(py), np.arange(pz), indexing="ij"
        )
        self.vertex_to_q2 = (
            2 * vi.ravel(order="F")
            + sx * (2 * vj.ravel(order="F") + sy * 2 * vk.ravel(order="F"))
        )

    def _build_masks(self):
        sx, sy, sz = self.q2_shape
        gi, gj, gk = np.meshgrid(
            np.arange(sx), np.arange(sy), np.arange(sz), indexing="ij"
        )
        on_wall = (gj == 0) | (gj == sy - 1) | (gk == 0) | (gk == sz - 1)
        self.dirichlet_mask_theta = np.nonzero(on_wall.ravel(order="F"))[0]
        self.dirichlet_mask_u = np.concatenate(
            [m * self.n_scalar + self.dirichlet_mask_theta for m in range(3)]
        )
        free = np.ones(self.n_scalar, dtype=bool)
        free[self.dirichlet_mask_theta] = False
        self.free_theta = np.nonzero(free)[0]

    def _build_volume_tables(self):
        g, w = gauss_01(self.quad_order)
        QX, QY, QZ = np.meshgrid(g, g, g, indexing="ij")
        tx, ty, tz = QX.ravel(), QY.ravel(), QZ.ravel()
        self.nq = tx.size
        wq = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
        self.wq = wq * float(np.prod(self.h))

        bx, by, bz = _q2_1d(tx), _q2_1d(ty), _q2_1d(tz)
        dbx, dby, dbz = _dq2_1d(tx), _dq2_1d(ty), _dq2_1d(tz)
        d2bx, d2by, d2bz = _d2q2_1d(tx), _d2q2_1d(ty), _d2q2_1d(tz)
        hx, hy, hz = self.h

        N2 = np.empty((27, self.nq))
        dN2 = np.empty((27, self.nq, 3))
        d2N2 = np.empty((27, self.nq, 3, 3))
        for n in range(27):
            a, b, c = n % 3, (n // 3) % 3, n // 9
            N2[n] = bx[a] * by[b] * bz[c]
            dN2[n, :, 0] = dbx[a] * by[b] * bz[c] / hx
            dN2[n, :, 1] = bx[a] * dby[b] * bz[c] / hy
            dN2[n, :, 2] = bx[a] * by[b] * dbz[c] / hz
            d2N2[n, :, 0, 0] = d2bx[a] * by[b] * bz[c] / hx**2
            d2N2[n, :, 1, 1] = bx[a] * d2by[b] * bz[c] / hy**2
            d2N2[n, :, 2, 2] = bx[a] * by[b] * d2bz[c] / hz**2
            d2N2[n, :, 0, 1] = d2N2[n, :, 1, 0] = dbx[a] * dby[b] * bz[c] / (hx * hy)
            d2N2[n, :, 0, 2] = d2N2[n, :, 2, 0] = dbx[a] * by[b] * dbz[c] / (hx * hz)
            d2N2[n, :, 1, 2] = d2N2[n, :, 2, 1] = bx[a] * dby[b] * dbz[c] / (hy * hz)
        self.N2, self.dN2, self.d2N2 = N2, dN2, d2N2

        b1x, b1y, b1z = _q1_1d(tx), _q1_1d(ty), _q1_1d(tz)
        N1 = np.empty((8, self.nq))
        for n in range(8):
            a, b, c = n % 2, (n // 2) % 2, n // 4
            N1[n] = b1x[a] * b1y[b] * b1z[c]
        self.N1 = N1

        origins = self.cell_ijk * self.h[None, :]
        ref = np.stack([tx, ty, tz], axis=1)
        self.quad_points = (
            origins[:, None, :] + ref[None, :, :] * self.h[None, None, :]
        )

    def _build_surface_tables(self):
        """Per open end: facet connectivity, quadrature, outward normal."""
        _, ny, nz = self.mesh.divisions
        sx, sy, _ = self.q2_shape
        _, hy, hz = self.h
        g, w = gauss_01(self.quad_order)
        TA, TB = np.meshgrid(g, g, indexing="ij")
        ta, tb = TA.ravel(), TB.ravel()
        w2 = (w[:, None] * w[None, :]).ravel()
        ba, bb = _q2_1d(ta), _q2_1d(tb)
        NS = np.empty((9, ta.size))
        for n in range(9):
            a, b = n % 3, n // 3
            NS[n] = ba[a] * bb[b]

        # the tangent axes of an x face are (y, z)
        loc = np.arange(9)
        self.faces = {}
        for name, i, normal in (("x0", 0, -1.0), ("x1", sx - 1, 1.0)):
            conn = [
                i + sx * ((2 * j + loc % 3) + sy * (2 * k + loc // 3))
                for k in range(nz)
                for j in range(ny)
            ]
            self.faces[name] = {
                "conn": np.asarray(conn, dtype=np.int64),
                "weights": w2 * (hy * hz),
                "normal": np.array([normal, 0, 0]),
                "basis": NS,
            }

    # -- queries -----------------------------------------------------------

    @functools.cached_property
    def saddle_order(self):
        """Nested-dissection order of the ``n_velocity + n_pressure`` saddle dofs.

        Each dof sits at a Q2 grid point: a velocity dof at its node, a
        pressure dof at its vertex.  A box of cells is split at the cell
        face (an even grid plane) nearest the middle of its longest side;
        the two halves come first and the plane last, so the plane is a
        separator.  A box one cell wide is a leaf.  Within a leaf or a plane
        velocity comes before pressure: the zero diagonal of a pressure row
        gets a pivot only once a coupled velocity dof is eliminated.
        """
        nodes = np.concatenate([np.tile(np.arange(self.n_scalar), 3), self.vertex_to_q2])
        grid = np.stack(np.unravel_index(nodes, self.q2_shape, order="F"), axis=1)

        def dissect(dofs, lo, hi):
            # dofs stay ascending, and velocity dofs number below pressure dofs
            widths = hi - lo
            axis = int(np.argmax(widths))
            if widths[axis] <= 1:
                return [dofs]
            mid = lo[axis] + widths[axis] // 2
            g = grid[dofs, axis]
            left_hi, right_lo = hi.copy(), lo.copy()
            left_hi[axis] = right_lo[axis] = mid
            return (
                dissect(dofs[g < 2 * mid], lo, left_hi)
                + dissect(dofs[g > 2 * mid], right_lo, hi)
                + [dofs[g == 2 * mid]]
            )

        cells = np.asarray(self.mesh.divisions)
        return np.concatenate(dissect(np.arange(nodes.size), np.zeros(3, int), cells))

    def split_velocity(self, u):
        """View a velocity dof vector as (n_scalar, 3) nodal values."""
        return np.asarray(u).reshape(3, self.n_scalar).T


def build_spaces(mesh, quad_order=5):
    """Construct the Taylor-Hood velocity/pressure pair and temperature space."""
    return DiscreteSpace(mesh, quad_order=quad_order)
