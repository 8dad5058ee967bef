"""Assembled CSR matrices of the discrete operators: the test oracles.

The runtime applies every operator as a sum of Kronecker products of 1-D
matrices (``DiscreteSpace.axis_matrices``) and assembles no matrix.  Here
each one is built the classical way instead: one local matrix per cell,
from the reference tables of ``DiscreteSpace``, scattered in COO form and
converted to canonical CSR, with the block matrices put together by
scipy's ``block_diag``, ``hstack`` and ``bmat``.  The cell scatter sums in
another order than the Kronecker products, so the two agree to rounding,
not bit for bit.  Tests that read matrix entries (slices, ``toarray``,
``nnz``) use these.

The runtime never forms the list of quadrature points either: closed-form
data are tabulated on the cell-block coordinates
``DiscreteSpace.quad_coords``.  ``quad_points`` is their broadcast, the
point list a pointwise evaluation is checked at.

Nor does it describe a field by hand: every closed-form datum is a
``fields.Separable`` with exact derivatives.  ``Field`` wraps hand-written
callables instead, for the data that tests need and no ``Separable``
gives (wrong derivatives, non-finite values, counted calls), and
``zeros`` is the array such a callable fills.

Nor does it list the wall dofs: the solvers and residuals read the free
dofs ``free_theta``/``free_u``.  ``dirichlet_mask_theta`` and
``dirichlet_mask_u`` are their complements, the dofs on the closure of
the lateral walls.  Nor does it evaluate the open-end flux of b(u0, v, v):
``outflow_boundary_term`` is the boundary side of that identity.

Nor does it derive the junction edges, where a wall facet meets an
open-end facet, or measure the boundary: the box is axis-aligned, so the
junction is a right angle by construction.  ``reference_junction`` finds
those edges by a walk over every facet side, and ``junction_angle`` and
``facet_areas`` measure them from the vertex coordinates, so the tests
check that construction.

Nor does it repeat work that it can share.  ``factor_norm`` applies one
whole ``_kron3`` per partial derivative, where ``forms._factor_norm``
shares the x and y stages between partials.  ``sample_ratios`` evaluates
every component of a curl sample, its zero component as zero rows, in
fresh arrays with fresh factor tables, and sums each integrand over all
products, where the certificate sampler skips the products of the zero
components.  Both give the same bits by construction, and the tests check
that they do.
"""

import math

import numpy as np
import scipy.sparse as sp

from thermoduct import forms
from thermoduct.certificates import _COUNTS, _DIRECTIONS, _SECOND, _w22_norm
from thermoduct.fields import Separable
from thermoduct.mesh import FacetTag


def quad_points(space):
    """The (n_cells, nq, 3) quadrature points, the broadcast of ``quad_coords``."""
    return np.stack(np.broadcast_arrays(*space.quad_coords), axis=-1).reshape(
        space.n_cells, space.nq, 3)


class Field:
    """Scalar or vector field from callables of ``x`` (the ``fields``
    convention); a vector grad(x) has index order [..., component, direction]."""

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


def dirichlet_mask_theta(space):
    """The scalar dofs on the closure of the lateral walls (junction edges
    included), ascending: the complement of ``free_theta``."""
    on_wall = np.ones(space.n_scalar, dtype=bool)
    on_wall[space.free_theta] = False
    return np.flatnonzero(on_wall)


def dirichlet_mask_u(space):
    """The velocity dofs of every component on the lateral walls, ascending."""
    return np.concatenate([m * space.n_scalar + dirichlet_mask_theta(space) for m in range(3)])


def outflow_boundary_term(space, model, u0, v):
    """(rho0 / 2) * integral over the open ends of (u0 . n) |v|^2.

    For analytically divergence-free u0 with u0 . n = 0 on the walls this
    equals b(u0, v, v) up to quadrature error.
    """
    total = 0.0
    for name in ("x0", "x1"):
        face = space.faces[name]
        un, wts = forms.surface_velocity_normal(space, u0, name)
        vv = np.einsum("iq,cim->cqm", face["basis"], np.asarray(v)[face["conn_u"]])
        total += np.einsum("q,cq->", wts, un * np.sum(vv**2, axis=-1))
    return 0.5 * model.rho0 * float(total)


def quadrature_norm(space, fld, order):
    """The exponent-2 Sobolev norm of order ``order`` (0, 1 or 2) of a
    scalar or velocity dof vector, summed over the quadrature points: the
    squared partials of each component from the ``forms`` evaluations."""
    evals = (forms.eval_scalar, forms.eval_scalar_grad, forms.eval_scalar_hess)[:order + 1]
    dens = sum(np.sum(ev(space, comp).reshape(space.n_cells, space.nq, -1) ** 2, axis=-1)
               for comp in np.reshape(fld, (-1, space.n_scalar)) for ev in evals)
    return float(np.sqrt(np.einsum("q,cq->", space.wq, dens)))


def scatter_matrix(conn_rows, conn_cols, local, shape):
    """COO scatter of identical (or per-cell) local blocks, to canonical CSR."""
    ncell = conn_rows.shape[0]
    nr, nc = local.shape[-2], local.shape[-1]
    rows = np.repeat(conn_rows, nc, axis=1).ravel()
    cols = np.tile(conn_cols, (1, nr)).ravel()
    if local.ndim == 2:
        data = np.tile(local.ravel(), ncell)
    else:
        data = local.reshape(ncell, -1).ravel()
    return sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()


def scalar_stiffness(space):
    """(grad phi_i, grad phi_j) on the quadratic space."""
    local = np.einsum("q,iqd,jqd->ij", space.wq, space.dN2, space.dN2)
    return scatter_matrix(space.conn_q2, space.conn_q2, local, (space.n_scalar,) * 2)


def assemble_mass(space):
    """Scalar mass matrix (phi_i, phi_j) on the quadratic space."""
    local = np.einsum("q,iq,jq->ij", space.wq, space.N2, space.N2)
    return scatter_matrix(space.conn_q2, space.conn_q2, local, (space.n_scalar,) * 2)


def pressure_mass(space):
    """Q1 pressure mass matrix (psi_p, psi_q)."""
    local = np.einsum("q,iq,jq->ij", space.wq, space.N1, space.N1)
    return scatter_matrix(space.conn_q1, space.conn_q1, local, (space.n_pressure,) * 2)


def assemble_a(space, model):
    """Viscous block nu * diag(S, S, S)."""
    return model.nu * sp.block_diag([scalar_stiffness(space)] * 3, format="csr")


def assemble_kappa(space, model):
    """Heat stiffness lambda * S."""
    return model.lam * scalar_stiffness(space)


def divergence_matrix(space):
    """D[q, u] = (q, div u) on pressure x velocity."""
    local = np.einsum("q,pq,jqd->pdj", space.wq, space.N1, space.dN2)  # (8, 3, 27)
    shape = (space.n_pressure, space.n_scalar)
    return sp.hstack([scatter_matrix(space.conn_q1, space.conn_q2, local[:, d, :], shape)
                      for d in range(3)], format="csr")


def assemble_saddle(A, D):
    """[[A, -D^T], [-D, 0]] of the assembled ``A`` and ``D``."""
    return sp.bmat([[A, -D.T], [-D, None]], format="csr")


def assemble_b(space, model, u0):
    """Convection operator frozen at transport field u0.

    w^T B(u0) v approximates rho0 * ((u0 . grad) v, w); linear in u0 and
    block-diagonal over velocity components.
    """
    uq = forms.eval_velocity(space, np.asarray(u0, dtype=float))
    conv = np.einsum("cqd,jqd->cqj", uq, space.dN2)
    local = model.rho0 * ((space.N2 * space.wq) @ conv)   # (cells, 27, 27)
    n2 = space.n_scalar
    B = scatter_matrix(space.conn_q2, space.conn_q2, local, (n2, n2))
    return sp.block_diag([B] * 3, format="csr")


def reference_junction(facets, tags):
    """Edges owned by one GAMMA_D and one GAMMA_N facet, (D, N) owners."""
    owners = {}
    for f, quad in enumerate(facets):
        for a in range(4):
            v0, v1 = int(quad[a]), int(quad[(a + 1) % 4])
            owners.setdefault((min(v0, v1), max(v0, v1)), []).append(f)
    edges, pairs = [], []
    for key in sorted(owners):
        f = owners[key]
        if len(f) == 2 and tags[f[0]] != tags[f[1]]:
            edges.append(key)
            pairs.append(tuple(f) if tags[f[0]] == FacetTag.GAMMA_D else tuple(f[::-1]))
    return np.array(edges).reshape(-1, 2), np.array(pairs).reshape(-1, 2)


def junction_angle(mesh, edge, owners):
    """Dihedral angle between the facets ``owners`` at the vertex pair
    ``edge``: the angle between the arms from the edge's midpoint to each
    facet's centroid, normal to the edge."""
    p0, p1 = mesh.vertices[edge[0]], mesh.vertices[edge[1]]
    mid = 0.5 * (p0 + p1)
    t = p1 - p0
    t = t / np.linalg.norm(t)
    arms = []
    for facet in owners:
        centroid = mesh.vertices[mesh.facets[facet]].mean(axis=0)
        w = centroid - mid
        w = w - (w @ t) * t
        arms.append(w / np.linalg.norm(w))
    return float(np.arccos(np.clip(arms[0] @ arms[1], -1.0, 1.0)))


def facet_areas(mesh):
    """Area of each boundary facet, from vertex coordinates (shoelace)."""
    quads = mesh.vertices[mesh.facets]             # (nf, 4, 3)
    d1 = quads[:, 2] - quads[:, 0]
    d2 = quads[:, 3] - quads[:, 1]
    return 0.5 * np.linalg.norm(np.cross(d1, d2), axis=1)


def factor_norm(space, fld, order):
    """The exponent-2 Sobolev norm of ``order`` of a scalar or velocity dof
    vector: count · ‖(R_z ⊗ R_y ⊗ R_x) X‖² summed over the partials, one
    ``_kron3`` per partial (``DiscreteSpace.norm_factors``)."""
    X = np.reshape(fld, (-1, *space.q2_shape[::-1]))
    total = 0.0
    for a in np.ndindex(*(order + 1,) * 3):
        if sum(a) <= order:
            x, y, z = (R[o] for R, o in zip(space.norm_factors, a))
            vals = forms._kron3(z, y, x, X).ravel()
            count = math.factorial(sum(a)) / math.prod(map(math.factorial, a))
            total += count * np.einsum("i,i->", vals, vals)
    return float(np.sqrt(total))


def sample_ratios(space, model, heat, draw, s, r):
    """The certificate ratios (C_b, C_e, C_d, C_eps, C_1) of one draw
    (u, v, theta, f), every contraction over all components: each field is
    evaluated at all of them into fresh (component, direction, point) rows,
    a curl's zero component as zero rows."""
    u, v, theta, f = draw

    def rows(fld, directions):
        return fld.partials(space.quad_coords, directions).reshape(
            len(fld.comps), len(directions), -1)

    def norm(fld, vals, p):     # broken W^{2,p}, of value and gradient rows ``vals``
        if p == 2:
            return _w22_norm(fld, space)
        second = rows(Separable(fld.terms, [c for c in fld.comps if c]), _SECOND)
        dens = np.einsum("min,min->n", vals, vals) + np.einsum("i,min->n", _COUNTS[4:], second**2)
        return float(np.einsum("q,cq->", space.wq, (dens ** (p / 2.0)).reshape(-1, space.nq))
                     ** (1.0 / p))

    def lp_norm(values, p):
        values = values.reshape(space.n_cells, space.nq, *values.shape[1:])
        return forms.lp_norm_of_values(space, lambda cells: values[cells], p)

    out = np.zeros(5)
    ru, rv, rth = (rows(fld, _DIRECTIONS[:4]) for fld in (u, v, theta))
    nu_u, nu_v, n_th = norm(u, ru, s), norm(v, rv, s), norm(theta, rth, r)
    uval, gu, gv = ru[:, 0], ru[:, 1:], rv[:, 1:]
    if nu_u > 0 and nu_v > 0:
        out[0] = lp_norm(np.einsum("dn,mdn->mn", uval, gv).T, s) / (nu_u * nu_v)
        strain = 0.5 * (np.einsum("mdn,mdn->n", gu, gv) + np.einsum("mdn,dmn->n", gu, gv))
        out[1] = lp_norm(strain, r) / (nu_u * nu_v)
    if nu_u > 0 and n_th > 0:
        heat_density = np.einsum("dn,dn->n", uval, rth[0, 1:]) * model.rho_law(rth[0, 0])
        out[2] = lp_norm(heat_density, r) / (model.rho_sharp * nu_u * n_th)
    fval = rows(f, _DIRECTIONS[:1])[0, 0]
    sol = heat.solve(forms.field_load_scalar(space, fval.reshape(space.n_cells, space.nq)))
    f_norm = lp_norm(fval, r)
    if f_norm > 0:
        out[3] = forms.discrete_norms(space, sol, "W2s", s=r) / f_norm
        out[4] = float(np.max(np.abs(sol))) / f_norm
    return out
