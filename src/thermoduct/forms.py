"""Assembly of the discrete operators, load vectors and norms.

Operators: the viscous block a(u,v) = nu (grad u, grad v), the heat
stiffness kappa(t,p) = lambda (grad t, grad p), the frozen-transport
convection operator b(u0, ., .) and the Taylor-Hood saddle block system
[[A, -D^T], [-D, 0]] with D the discrete divergence (q, div u).  The
do-nothing outflow condition is natural for this weak form, so no
boundary terms are added on the open ends.

Loads: convective, dissipative and buoyancy terms are assembled as
explicit load vectors with every argument frozen, mirroring the
linearized solve structure of the fixed-point scheme.  Problem data (a
callable of points, a constant, or values already tabulated) become
quadrature values in one place, ``quad_values``.

All cells are congruent, so one set of reference tables serves every
cell.  Every field is evaluated at the quadrature points by one kernel,
``_contract``: gather the cell-local dofs, then multiply them cell by cell
with a reference table.  Every load is scattered by one kernel,
``_scatter_load``: multiply the weighted quadrature values cell by cell
with the transposed value table, then sum into the global vector with
``np.bincount``.  Each product has a fixed per-cell size, so no BLAS call
grows with the mesh and the results do not depend on the BLAS thread
count; ``bincount`` adds the contributions in a fixed order, so repeated
assemblies are bit-identical.
"""

import numpy as np
import scipy.sparse as sp

from .material import density
from .spectrum import regularity_exponent_bound

__all__ = [
    "assemble_a",
    "assemble_kappa",
    "assemble_mass",
    "assemble_saddle",
    "assemble_b",
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


def _scatter_matrix(space, conn_rows, conn_cols, local, shape):
    """COO scatter of identical (or per-cell) local blocks."""
    ncell = conn_rows.shape[0]
    nr, nc = local.shape[-2], local.shape[-1]
    rows = np.repeat(conn_rows, nc, axis=1).ravel()
    cols = np.tile(conn_cols, (1, nr)).ravel()
    if local.ndim == 2:
        data = np.tile(local.ravel(), ncell)
    else:
        data = local.reshape(ncell, -1).ravel()
    return sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()


def _scalar_stiffness(space):
    local = np.einsum("q,iqd,jqd->ij", space.wq, space.dN2, space.dN2)
    return _scatter_matrix(
        space, space.conn_q2, space.conn_q2, local, (space.n_scalar, space.n_scalar)
    )


def _velocity_block(space, scalar_matrix):
    return sp.block_diag([scalar_matrix] * 3, format="csr")


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


def assemble_a(space, model):
    """Viscous operator, nu * (grad u : grad v); SPD after wall elimination."""
    return model.nu * _velocity_block(space, _scalar_stiffness(space))


def assemble_kappa(space, model):
    """Heat stiffness, lambda * (grad t . grad p)."""
    return (model.lam * _scalar_stiffness(space)).tocsr()


def assemble_mass(space):
    """Scalar mass matrix on the quadratic space (oracle and test helper)."""
    local = np.einsum("q,iq,jq->ij", space.wq, space.N2, space.N2)
    return _scatter_matrix(
        space, space.conn_q2, space.conn_q2, local, (space.n_scalar, space.n_scalar)
    )


def divergence_matrix(space):
    """D[q, u] = (q, div u) on pressure x velocity."""
    local = np.einsum("q,pq,jqd->pdj", space.wq, space.N1, space.dN2)  # (8, 3, 27)
    blocks = []
    for d in range(3):
        blocks.append(
            _scatter_matrix(
                space,
                space.conn_q1,
                space.conn_q2,
                local[:, d, :],
                (space.n_pressure, space.n_scalar),
            )
        )
    return sp.hstack(blocks, format="csr")


def assemble_saddle(A, D):
    """Unconstrained Taylor-Hood block system [[A, -D^T], [-D, 0]].

    ``A`` is the viscous block (``assemble_a``) and ``D`` the divergence
    (``divergence_matrix``).  This is the weak form's own sign,
    a(u, v) - (P, div v) and -(q, div u), so the pressure part of a
    solution is the pressure and the matrix is symmetric.  No boundary
    terms are added on the open ends: the do-nothing condition is the
    natural condition of this form and fixes the pressure level, so the
    pressure is not pinned.
    """
    return sp.bmat([[A, -D.T], [-D, None]], format="csr")


def assemble_b(space, model, u0):
    """Convection operator frozen at transport field u0.

    w^T B(u0) v approximates rho0 * ((u0 . grad) v, w); linear in u0 and
    block-diagonal over velocity components.
    """
    uq = eval_velocity(space, np.asarray(u0, dtype=float))
    conv = np.einsum("cqd,jqd->cqj", uq, space.dN2)
    local = model.rho0 * ((space.N2 * space.wq) @ conv)   # (cells, 27, 27)
    n2 = space.n_scalar
    Bscal = _scatter_matrix(space, space.conn_q2, space.conn_q2, local, (n2, n2))
    return _velocity_block(space, Bscal)


# -- load vectors --------------------------------------------------------------


def convection_value(space, model, u0, u1):
    """rho0 (u0 . grad) u1 at quadrature points."""
    uq = eval_velocity(space, u0)
    gq = eval_velocity_grad(space, u1)
    return model.rho0 * np.einsum("cqd,cqmd->cqm", uq, gq)


def convection_load(space, model, u0, u1):
    """Load form of b with both slots frozen: entries rho0 ((u0.grad)u1, v_i)."""
    return _scatter_load(space, convection_value(space, model, u0, u1))


def dissipation_value(space, model, u, v):
    """alpha1 * nu * e(u) : e(v) at quadrature points."""
    gu = eval_velocity_grad(space, u)
    gv = eval_velocity_grad(space, v)
    eu = 0.5 * (gu + np.swapaxes(gu, -1, -2))
    ev = 0.5 * (gv + np.swapaxes(gv, -1, -2))
    return model.alpha1 * model.nu * np.einsum("cqmd,cqmd->cq", eu, ev)


def assemble_e_load(space, model, u, v):
    """Dissipation load: entries alpha1 nu (e(u):e(v), phi_i)."""
    return _scatter_load(space, dissipation_value(space, model, u, v))


def heat_convection_value(space, model, theta_freeze, u, theta_transport):
    """c_V rho(theta_freeze) u . grad(theta_transport) at quadrature points."""
    rho = density(model, eval_scalar(space, theta_freeze))
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
    rho = density(model, eval_scalar(space, theta))
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


def _check_exponent(s):
    s0 = regularity_exponent_bound()
    if not (4.0 / 3.0 <= s < s0):
        raise ValueError(f"exponent s={s} outside the admissible range [4/3, {s0:.6f})")


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
    the piecewise-quadratic basis; requires s).  Exponents are restricted
    to the admissible range [4/3, s0).
    """
    if which == "H1":
        dens = _sobolev_density(space, fld, 1)
        return float(np.sqrt(np.einsum("q,cq->", space.wq, dens)))
    if s is None:
        raise ValueError(f"norm '{which}' requires the exponent s")
    _check_exponent(s)
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
