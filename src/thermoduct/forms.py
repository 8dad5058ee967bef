"""Assembly of the discrete operators, load vectors and norms.

Operators: the viscous block a(u,v) = nu (grad u, grad v), the heat
stiffness kappa(t,p) = lambda (grad t, grad p) and the Taylor-Hood saddle
block system [[A, -D^T], [-D, 0]] with D the discrete divergence
(q, div u).  The do-nothing outflow condition is natural for this weak
form, so no boundary terms are added on the open ends.  Every cell is a
box and the quadrature a tensor rule, so each operator is a sum of
Kronecker products of the 1-D matrices of ``axis_matrices``, and it is
applied as one: ``assemble_a``, ``assemble_kappa``, ``divergence_matrix``
and ``assemble_saddle`` return small objects with ``shape`` and ``@``
(the divergence also ``apply_transpose``), and no matrix is assembled.
``linsolve`` builds its solvers from the same factors; the operators give
the residuals.  The convection b(u0, v, w) enters only as a load.

Loads: convective, dissipative and buoyancy terms are assembled as
explicit load vectors with every argument frozen, mirroring the
linearized solve structure of the fixed-point scheme.  Problem data (a
callable of points, a constant, or values already tabulated) become
quadrature values in one place, ``quad_values``.  Norm exponents are
checked by ``spectrum.admissible_sr``.

All cells are congruent, so one set of reference tables serves every
cell.  Every field is evaluated at the quadrature points by one kernel,
``_contract``: gather the cell-local dofs, then multiply them cell by cell
with a reference table.  Every load is scattered by one kernel,
``_scatter_load``: multiply the weighted quadrature values cell by cell
with the transposed value table, then sum into the global vector with
``np.bincount``.  Each product has a fixed per-cell size, so no BLAS call
of these kernels grows with the mesh and their results do not depend on
the BLAS thread count; ``bincount`` adds the contributions in a fixed
order, so repeated assemblies are bit-identical.  The operator applies
are products of 1-D matrices whose size does grow with the mesh: that
their bits do not depend on the thread count is tested, not structural.
"""

from typing import NamedTuple

import numpy as np

from .spaces import _dq2_1d, _q1_1d, _q2_1d, gauss_01
from .spectrum import admissible_sr

__all__ = [
    "assemble_a",
    "assemble_kappa",
    "assemble_saddle",
    "AxisMatrices",
    "axis_matrices",
    "convection_load",
    "assemble_d_load",
    "assemble_e_load",
    "assemble_buoyancy",
    "field_load_scalar",
    "field_load_vector",
    "discrete_norms",
    "interpolate_scalar",
    "quad_values",
    "eval_scalar",
    "eval_scalar_grad",
    "eval_scalar_hess",
    "eval_velocity",
    "eval_velocity_grad",
    "eval_pressure",
    "outflow_boundary_term",
    "surface_velocity_normal",
]


# -- helpers ----------------------------------------------------------------


def _local_index(conn, n, m):
    """Global dof ids (cells, nloc, m) of m component blocks of n dofs each."""
    return conn[:, :, None] + n * np.arange(m)


def _contract(dofs, conn, table, m=1):
    """Values of an m-component dof vector at quadrature points, (cells, nq, ..., m).

    ``table`` is a reference table (nloc, nq, ...) such as N2, dN2 or d2N2.
    The product runs cell by cell, (nq * k, nloc) @ (nloc, m), so every BLAS
    call has the same small size on any mesh and any thread count.
    """
    dofs = np.asarray(dofs)
    local = dofs[_local_index(conn, dofs.size // m, m)]
    out = table.reshape(table.shape[0], -1).T @ local
    return out.reshape(conn.shape[0], *table.shape[1:], m)


def _scatter_load(space, values):
    """values (ncells, nq), or (ncells, nq, 3) for a vector load -> load vector."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        values = values[:, :, None]
    m = values.shape[-1]
    local = (space.N2 * space.wq) @ values            # (cells, 27, m)
    return np.bincount(
        _local_index(space.conn_q2, space.n_scalar, m).ravel(),
        weights=local.ravel(),
        minlength=m * space.n_scalar,
    )


def eval_scalar(space, dofs):
    """Values of a scalar dof vector at the quadrature points, (ncells, nq)."""
    return _contract(dofs, space.conn_q2, space.N2)[..., 0]


def eval_scalar_grad(space, dofs):
    return _contract(dofs, space.conn_q2, space.dN2)[..., 0]


def eval_scalar_hess(space, dofs):
    return _contract(dofs, space.conn_q2, space.d2N2)[..., 0]


def eval_velocity(space, u):
    """Velocity values at quadrature points, (ncells, nq, 3)."""
    return _contract(u, space.conn_q2, space.N2, 3)


def eval_velocity_grad(space, u):
    """Velocity gradients at quadrature points, (ncells, nq, 3, 3) as [m, d]."""
    return np.swapaxes(_contract(u, space.conn_q2, space.dN2, 3), -1, -2)


def eval_pressure(space, p):
    """Values of a trilinear pressure dof vector at the quadrature points, (ncells, nq)."""
    return _contract(p, space.conn_q1, space.N1)[..., 0]


def quad_values(space, fld):
    """Problem data at the quadrature points.

    A callable of points (n, 3) is evaluated once at every quadrature point
    and returned as (ncells, nq, ...).  A constant, or values already
    tabulated this way, is returned as a float array that broadcasts
    against them.
    """
    if callable(fld):
        vals = np.asarray(fld(space.quad_points.reshape(-1, 3)), dtype=float)
        return vals.reshape(space.n_cells, space.nq, *vals.shape[1:])
    return np.asarray(fld, dtype=float)


def interpolate_scalar(space, fld):
    return np.asarray(fld(space.q2_nodes), dtype=float)


# -- operators ----------------------------------------------------------------


class AxisMatrices(NamedTuple):
    """The 1-D matrices of one axis, on its grid nodes in order (dense)."""

    K: np.ndarray    # Q2 stiffness (phi_i', phi_j')
    M: np.ndarray    # Q2 mass (phi_i, phi_j)
    Mp: np.ndarray   # Q1 mass (psi_p, psi_q)
    B: np.ndarray    # Q1 x Q2 values (psi_p, phi_j)
    dB: np.ndarray   # Q1 x Q2 derivatives (psi_p, phi_j')


def axis_matrices(space):
    """The (x, y, z) ``AxisMatrices`` whose Kronecker products are the operators.

    Every cell is a box and the quadrature a tensor Gauss rule, so each
    3-D integral is the product of 1-D integrals on the three axes.  With
    the grid numbered x fastest, ``kron(a_z, kron(a_y, a_x))`` of the
    factors below gives:

    - the scalar stiffness of ``assemble_a`` and ``assemble_kappa``: the
      sum over axes d of K on axis d and M on the other two;
    - component d of ``divergence_matrix``: dB on axis d and B on the other
      two;
    - the Q1 pressure mass: Mp on every axis.
    """
    g, w = gauss_01(space.quad_order)
    q2, dq2, q1 = _q2_1d(g), _dq2_1d(g), _q1_1d(g)

    def gram(rows, left, cols, right, scale):
        """Sum over cells of the 1-D element matrices scale * (left, right)."""
        mat = np.zeros((rows[-1, -1] + 1, cols[-1, -1] + 1))
        np.add.at(mat, (rows[:, :, None], cols[:, None, :]), scale * (left * w) @ right.T)
        return mat

    out = []
    for n, h in zip(space.mesh.divisions, space.h):
        c2 = 2 * np.arange(n)[:, None] + np.arange(3)   # Q2 nodes of each cell
        c1 = np.arange(n)[:, None] + np.arange(2)       # Q1 nodes of each cell
        out.append(AxisMatrices(
            K=gram(c2, dq2, c2, dq2, 1.0 / h), M=gram(c2, q2, c2, q2, h),
            Mp=gram(c1, q1, c1, q1, h), B=gram(c1, q1, c2, q2, h), dB=gram(c1, q1, c2, dq2, 1.0),
        ))
    return tuple(out)


def _kron3(z, y, x, X):
    """``(z ⊗ y ⊗ x) X`` for X shaped (..., n_z, n_y, n_x): each 1-D matrix
    acts on its own axis, the leading axes are a batch.

    Stacks of matrices, shaped (b, m, n), apply one Kronecker product per
    slice of a leading batch axis of length b (broadcast from X if absent).
    """
    X = y[..., None, :, :] @ (X @ np.swapaxes(x, -1, -2)[..., None, :, :])
    lead = X.shape[:-3]
    return (z @ X.reshape(*lead, X.shape[-3], -1)).reshape(*lead, z.shape[-2], *X.shape[-2:])


def _terms(axes, on, off):
    """The (x, y, z) factors of each term d of ``Σ_d z_d ⊗ y_d ⊗ x_d``:
    the 1-D matrix ``on`` on axis d and ``off`` on the other two."""
    return [[getattr(ax, on if a == d else off) for a, ax in enumerate(axes)]
            for d in range(3)]


class _Stiffness:
    """``scale · diag(S, …, S)`` on m component blocks, with the scalar
    stiffness ``S = Kz⊗My⊗Mx + Mz⊗Ky⊗Mx + Mz⊗My⊗Kx``.

    The terms are applied one at a time: a stack of all three would be a
    temporary three times the size of the result."""

    def __init__(self, axes, scale, m):
        self.terms = _terms(axes, "K", "M")
        self.scale = scale
        self.blocks = (m, *(len(ax.M) for ax in axes[::-1]))   # (m, z, y, x)
        self.shape = (int(np.prod(self.blocks)),) * 2

    def __matmul__(self, v):
        X = np.reshape(v, self.blocks)
        return self.scale * sum(_kron3(z, y, x, X) for x, y, z in self.terms).ravel()


class _Divergence:
    """``D = [D_x, D_y, D_z]``: ``D_d`` is dB on axis d and B on the other two."""

    def __init__(self, axes):
        self.terms = _terms(axes, "dB", "B")
        self.u_blocks = (3, *(ax.B.shape[1] for ax in axes[::-1]))
        self.p_grid = tuple(ax.B.shape[0] for ax in axes[::-1])
        self.shape = (int(np.prod(self.p_grid)), int(np.prod(self.u_blocks)))

    def __matmul__(self, u):
        U = np.reshape(u, self.u_blocks)
        return sum(_kron3(z, y, x, U[d]) for d, (x, y, z) in enumerate(self.terms)).ravel()

    def apply_transpose(self, p):
        """``Dᵀ p``: the component blocks ``D_dᵀ p``."""
        P = np.reshape(p, self.p_grid)
        return np.concatenate([_kron3(z.T, y.T, x.T, P).ravel() for x, y, z in self.terms])


class _Saddle:
    """``K = [[A, -Dᵀ], [-D, 0]]``, applied block by block."""

    def __init__(self, A, D):
        self.A, self.D = A, D
        self.shape = (A.shape[0] + D.shape[0],) * 2

    def __matmul__(self, x):
        n = self.A.shape[0]
        u, p = x[:n], x[n:]
        return np.concatenate([self.A @ u - self.D.apply_transpose(p), -(self.D @ u)])


def assemble_a(space, model):
    """Viscous operator, nu * (grad u : grad v); SPD after wall elimination."""
    return _Stiffness(axis_matrices(space), model.nu, 3)


def assemble_kappa(space, model):
    """Heat stiffness, lambda * (grad t . grad p)."""
    return _Stiffness(axis_matrices(space), model.lam, 1)


def divergence_matrix(space):
    """D[q, u] = (q, div u) on pressure x velocity."""
    return _Divergence(axis_matrices(space))


def assemble_saddle(A, D):
    """Unconstrained Taylor-Hood block system [[A, -D^T], [-D, 0]].

    ``A`` is the viscous block (``assemble_a``) and ``D`` the divergence
    (``divergence_matrix``).  This is the weak form's own sign,
    a(u, v) - (P, div v) and -(q, div u), so the pressure part of a
    solution is the pressure and the operator is symmetric.  No boundary
    terms are added on the open ends: the do-nothing condition is the
    natural condition of this form and fixes the pressure level, so the
    pressure is not pinned.
    """
    return _Saddle(A, D)


# -- load vectors --------------------------------------------------------------


def convection_value(space, model, u0, u1):
    """rho0 (u0 . grad) u1 at quadrature points."""
    uq = eval_velocity(space, u0)
    gq = eval_velocity_grad(space, u1)
    return model.rho0 * np.einsum("cqd,cqmd->cqm", uq, gq)


def convection_load(space, model, u0, u1):
    """Load form of b with both slots frozen: entries rho0 ((u0.grad)u1, v_i)."""
    return _scatter_load(space, convection_value(space, model, u0, u1))


def _strain(space, u):
    """Symmetric gradient e(u) at quadrature points, (cells, nq, 3, 3)."""
    g = eval_velocity_grad(space, u)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def dissipation_value(space, model, u, v):
    """alpha1 * nu * e(u) : e(v) at quadrature points; e(u) once if ``v is u``."""
    eu = _strain(space, u)
    ev = eu if v is u else _strain(space, v)
    return model.alpha1 * model.nu * np.einsum("cqmd,cqmd->cq", eu, ev)


def assemble_e_load(space, model, u, v):
    """Dissipation load: entries alpha1 nu (e(u):e(v), phi_i)."""
    return _scatter_load(space, dissipation_value(space, model, u, v))


def heat_convection_value(space, model, theta_freeze, u, theta_transport):
    """c_V rho(theta_freeze) u . grad(theta_transport) at quadrature points."""
    rho = model.rho_law(eval_scalar(space, theta_freeze))
    uq = eval_velocity(space, u)
    gth = eval_scalar_grad(space, theta_transport)
    return model.cV * rho * np.einsum("cqd,cqd->cq", uq, gth)


def assemble_d_load(space, model, theta_freeze, u, theta_transport):
    """Heat convection load with all three slots frozen."""
    return _scatter_load(
        space, heat_convection_value(space, model, theta_freeze, u, theta_transport)
    )


def buoyancy_value(space, model, theta, g):
    """rho(theta) g at quadrature points; g is any data ``quad_values`` takes."""
    rho = model.rho_law(eval_scalar(space, theta))
    return rho[:, :, None] * quad_values(space, g)


def assemble_buoyancy(space, model, theta, g):
    """Buoyancy load: entries (rho(theta) g, v_i)."""
    return _scatter_load(space, buoyancy_value(space, model, theta, g))


def field_load_scalar(space, fld):
    """(h, phi_i) for scalar data h (see ``quad_values``)."""
    h = np.broadcast_to(quad_values(space, fld), (space.n_cells, space.nq))
    return _scatter_load(space, h)


def field_load_vector(space, fld):
    """(f, v_i) for vector data f (see ``quad_values``)."""
    f = np.broadcast_to(quad_values(space, fld), (space.n_cells, space.nq, 3))
    return _scatter_load(space, f)


# -- norms ---------------------------------------------------------------------


def _sobolev_density(space, fld, order):
    """Sum of the squared derivatives of orders 0..order over all components,
    per quadrature point."""
    fld = np.asarray(fld, dtype=float)
    if fld.size == space.n_scalar:
        m = 1
    elif fld.size == space.n_velocity:
        m = 3
    else:
        raise ValueError("field length matches neither scalar nor velocity layout")
    dens = 0.0
    for table in (space.N2, space.dN2, space.d2N2)[: order + 1]:
        vals = _contract(fld, space.conn_q2, table, m).reshape(space.n_cells, space.nq, -1)
        dens = dens + np.einsum("cqk,cqk->cq", vals, vals)
    return dens


def discrete_norms(space, fld, which, s=None):
    """Quadrature norms of a dof vector.

    which = 'Ls' (requires s), 'H1', or 'W2s' (broken second derivatives of
    the piecewise-quadratic basis; requires s).  ``admissible_sr``
    restricts s to [4/3, s0).
    """
    if which == "H1":
        dens = _sobolev_density(space, fld, 1)
        return float(np.sqrt(np.einsum("q,cq->", space.wq, dens)))
    if s is None:
        raise ValueError(f"norm '{which}' requires the exponent s")
    admissible_sr(s)
    order = {"Ls": 0, "W2s": 2}.get(which)
    if order is None:
        raise ValueError(f"unknown norm kind '{which}'")
    dens = _sobolev_density(space, fld, order) ** (s / 2.0)
    return float(np.einsum("q,cq->", space.wq, dens) ** (1.0 / s))


def lp_norm_of_values(space, values, p):
    """L^p quadrature norm of pointwise values (ncells, nq) or (ncells, nq, 3)."""
    values = np.asarray(values)
    if values.ndim == 3:
        # the same left-to-right sum as np.sum(axis=-1), without numpy's
        # per-point reduction over the length-3 axis
        sq = values**2
        mag = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
    else:
        mag = np.abs(values)
    return float(np.einsum("q,cq->", space.wq, mag**p) ** (1.0 / p))


# -- boundary terms --------------------------------------------------------------


def surface_velocity_normal(space, u, face_name):
    """(u . n, surface weights per facet) on one boundary face."""
    face = space.faces[face_name]
    un = _contract(u, face["conn"], face["basis"], 3) @ face["normal"]
    return un, face["weights"]


def outflow_boundary_term(space, model, u0, v):
    """(rho0 / 2) * integral over the open ends of (u0 . n) |v|^2.

    For analytically divergence-free u0 with u0 . n = 0 on the walls this
    equals b(u0, v, v) up to quadrature error.
    """
    total = 0.0
    for name in ("x0", "x1"):
        face = space.faces[name]
        un, wts = surface_velocity_normal(space, u0, name)
        vv = _contract(v, face["conn"], face["basis"], 3)
        total += np.einsum("q,cq->", wts, un * np.sum(vv**2, axis=-1))
    return 0.5 * model.rho0 * float(total)
