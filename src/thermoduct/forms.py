"""Assembly of the discrete operators, load vectors and norms.

Operators: the viscous block a(u,v) = nu (grad u, grad v), the heat
stiffness kappa(t,p) = lambda (grad t, grad p) and the Taylor-Hood saddle
block system [[A, -D^T], [-D, 0]] with D the discrete divergence
(q, div u).  The do-nothing outflow condition is natural for this weak
form, so no boundary terms are added on the open ends.  Every cell is a
box and the quadrature a tensor rule, so each operator is a sum of
Kronecker products of the 1-D matrices of ``DiscreteSpace.axis_matrices``,
and it is applied as one: ``assemble_a``, ``assemble_kappa``,
``divergence_matrix`` and ``assemble_saddle`` return small objects with
``shape`` and ``@`` (the divergence also ``apply_transpose``), and no
matrix is assembled.  ``linsolve`` builds its solvers from the same
factors; the operators give the residuals.  The convection b(u0, v, w)
enters only as a load.

Loads: convective, dissipative and buoyancy terms are assembled as
explicit load vectors with every argument frozen, mirroring the
linearized solve structure of the fixed-point scheme.  The body force
is a constant 3-vector and multiplies rho(theta) as it is.  The other
problem data (a ``fields`` callable, a constant, or values already
tabulated) become quadrature values in one place, ``quad_values``: a
callable is tabulated on the per-axis quadrature coordinates that the
space lays out in cell blocks (``DiscreteSpace.quad_coords``), cut to a
block's z layers and broadcast, not evaluated at a list of points.

Norms: the H1 norm, and the Ls and W2s norms at exponent s = 2, are sums
of squares of Kronecker applies of 1-D factors
(``DiscreteSpace.norm_factors``), one apply per partial derivative; the
other exponents raise a pointwise density to s/2 and sum it over the
quadrature points.  Norm exponents are checked by
``spectrum.admissible_sr``.

All cells are congruent, so one set of reference tables serves every
cell.  Every field is evaluated at the quadrature points by one kernel,
``_contract``: gather the cell-local dofs, then multiply them cell by cell
with a reference table.  Every load is scattered by one kernel,
``_scatter_load``: multiply the weighted quadrature values cell by cell
with the transposed value table, then sum into the global vector with
``np.bincount``.  Every quadrature kernel (loads, their data, norms at
s != 2) runs in one loop, ``fill_blocks``, over ``cell_blocks`` of about
``_BLOCK_CELLS`` cells, so its transients are bounded by the block; the
loads and ``lp_norm_of_values`` take their data per block, ``values(cells)``.
Every step is cell-local, so the result does not depend on the blocking.
Each product has a fixed per-cell size, so no BLAS call of these kernels
grows with the mesh and their results do not depend on the BLAS thread
count; ``bincount`` adds the contributions in a fixed order, so repeated
assemblies are bit-identical.  The operator applies and the exponent-2
norms are products of 1-D matrices whose size does grow with the mesh:
that their bits do not depend on the thread count is tested, not
structural.
"""

import itertools
import math

import numpy as np

from .spectrum import admissible_sr

__all__ = [
    "assemble_a",
    "assemble_kappa",
    "assemble_saddle",
    "cell_blocks",
    "fill_blocks",
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
    "surface_velocity_normal",
]


# -- helpers ----------------------------------------------------------------


# cells per block of ``cell_blocks``: a (256, 125, 3, 3) gradient block at
# quad_order 5 is 2.3 MB
_BLOCK_CELLS = 256


def cell_blocks(space):
    """Yield the mesh's cells as slices of the cell numbering (x fastest, z
    slowest), in blocks of whole z layers of about ``_BLOCK_CELLS`` cells
    each (at least one layer)."""
    nx, ny, _ = space.mesh.divisions
    step = max(1, _BLOCK_CELLS // (nx * ny)) * nx * ny
    for start in range(0, space.n_cells, step):
        yield slice(start, min(start + step, space.n_cells))


def fill_blocks(space, shape, block):
    """The (n_cells, *shape) array whose rows ``cells`` are ``block(cells)``."""
    out = np.empty((space.n_cells, *shape))
    for cells in cell_blocks(space):
        out[cells] = block(cells)
    return out


def _contract(dofs, index, table):
    """Values of a dof vector at quadrature points, (cells, nq, ..., m).

    ``index`` (cells, nloc, m) holds the global dof ids of m components per
    cell (``DiscreteSpace.conn_u`` or a slice of it), and ``table`` is a
    reference table (nloc, nq, ...) such as N2, dN2 or d2N2.  The product
    runs cell by cell, (nq * k, nloc) @ (nloc, m), so every BLAS call has
    the same small size on any mesh and any thread count.
    """
    local = np.asarray(dofs)[index]
    out = table.reshape(table.shape[0], -1).T @ local
    return out.reshape(index.shape[0], *table.shape[1:], index.shape[-1])


def _scatter_load(space, values, m):
    """Load vector of quadrature data in m components.

    ``values(cells)`` gives the data of one ``cell_blocks`` block, (cells,
    nq) for m = 1 or (cells, nq, m), or a constant that broadcasts to it.
    The (cells, 27, m) local vectors are filled block by block, then summed
    with one ``bincount``.
    """
    weighted = space.N2 * space.wq

    def local(cells):
        vals = values(cells)[..., None] if m == 1 else values(cells)
        return weighted @ np.broadcast_to(vals, (cells.stop - cells.start, space.nq, m))

    return np.bincount(
        space.conn_u[..., :m].ravel(),
        weights=fill_blocks(space, (space.N2.shape[0], m), local).ravel(),
        minlength=m * space.n_scalar,
    )


def eval_scalar(space, dofs, cells=slice(None)):
    """Values of a scalar dof vector at the quadrature points of ``cells``, (cells, nq)."""
    return _contract(dofs, space.conn_u[cells, :, :1], space.N2)[..., 0]


def eval_scalar_grad(space, dofs, cells=slice(None)):
    return _contract(dofs, space.conn_u[cells, :, :1], space.dN2)[..., 0]


def eval_scalar_hess(space, dofs):
    return _contract(dofs, space.conn_u[..., :1], space.d2N2)[..., 0]


def eval_velocity(space, u, cells=slice(None)):
    """Velocity values at the quadrature points of ``cells``, (cells, nq, 3)."""
    return _contract(u, space.conn_u[cells], space.N2)


def eval_velocity_grad(space, u, cells=slice(None)):
    """Velocity gradients at quadrature points, (cells, nq, 3, 3) as [m, d]."""
    return np.swapaxes(_contract(u, space.conn_u[cells], space.dN2), -1, -2)


def eval_pressure(space, p, cells=slice(None)):
    """Values of a trilinear pressure dof vector at the quadrature points, (cells, nq)."""
    return _contract(p, space.conn_q1[cells, :, None], space.N1)[..., 0]


def quad_values(space, data, cells=slice(None)):
    """Problem data at the quadrature points of ``cells``, whole z layers.

    A callable (the ``fields`` convention) is evaluated once on the
    quadrature coordinates of those layers (``DiscreteSpace.quad_coords``),
    broadcast to their grid and returned as (cells, nq, ...); a ``cells``
    slice that is not whole z layers raises ValueError.  Values already
    tabulated, (n_cells, nq, ...), as the certificate sampler's heat load
    passes its samples, are sliced to ``cells``; other arrays of two or more
    axes raise ValueError.  A constant is returned as it is, a float array.
    """
    if callable(data):
        x, y, z = space.quad_coords
        layer = space.n_cells // len(z)
        first, stop, step = cells.indices(space.n_cells)
        if step != 1 or first % layer or stop % layer:
            raise ValueError(f"cells {cells} are not whole z layers of {layer} cells")
        coords = (x, y, z[first // layer:stop // layer])
        grid = np.broadcast_shapes(*(c.shape for c in coords))
        vals = np.asarray(data(coords), dtype=float)
        comps = vals.shape[len(grid):]
        return np.broadcast_to(vals, grid + comps).reshape(-1, space.nq, *comps)
    vals = np.asarray(data, dtype=float)
    if vals.ndim > 1 and vals.shape[:2] != (space.n_cells, space.nq):
        raise ValueError(f"tabulated data of shape {vals.shape} do not match the space's "
                         f"(n_cells, nq) = {(space.n_cells, space.nq)}")
    return vals[cells] if vals.ndim > 1 else vals


def interpolate_scalar(space, fld):
    return np.asarray(fld(space.q2_nodes.T), dtype=float)


# -- operators ----------------------------------------------------------------


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
    return _Stiffness(space.axis_matrices, model.nu, 3)


def assemble_kappa(space, model):
    """Heat stiffness, lambda * (grad t . grad p)."""
    return _Stiffness(space.axis_matrices, model.lam, 1)


def divergence_matrix(space):
    """D[q, u] = (q, div u) on pressure x velocity."""
    return _Divergence(space.axis_matrices)


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


def convection_value(space, model, u0, u1, cells=slice(None)):
    """rho0 (u0 . grad) u1 at the quadrature points of ``cells``."""
    uq = eval_velocity(space, u0, cells)
    gq = eval_velocity_grad(space, u1, cells)
    return model.rho0 * np.einsum("cqd,cqmd->cqm", uq, gq)


def convection_load(space, model, u0, u1):
    """Load form of b with both slots frozen: entries rho0 ((u0.grad)u1, v_i)."""
    return _scatter_load(space, lambda cells: convection_value(space, model, u0, u1, cells), 3)


def _strain(space, u, cells):
    """Symmetric gradient e(u), (cells, nq, 3, 3), in place: one block array, not three."""
    g = eval_velocity_grad(space, u, cells)
    for m, d in itertools.combinations_with_replacement(range(3), 2):
        g[..., m, d] = g[..., d, m] = 0.5 * (g[..., m, d] + g[..., d, m])
    return g


def dissipation_value(space, model, u, cells=slice(None)):
    """alpha1 * nu * e(u) : e(u) at quadrature points."""
    eu = _strain(space, u, cells)
    return model.alpha1 * model.nu * np.einsum("cqmd,cqmd->cq", eu, eu)


def assemble_e_load(space, model, u):
    """Dissipation load: entries alpha1 nu (e(u):e(u), phi_i)."""
    return _scatter_load(space, lambda cells: dissipation_value(space, model, u, cells), 1)


def heat_convection_value(space, model, theta_freeze, u, theta_transport, cells=slice(None)):
    """c_V rho(theta_freeze) u . grad(theta_transport) at quadrature points."""
    rho = model.rho_law(eval_scalar(space, theta_freeze, cells))
    uq = eval_velocity(space, u, cells)
    gth = eval_scalar_grad(space, theta_transport, cells)
    return model.cV * rho * np.einsum("cqd,cqd->cq", uq, gth)


def assemble_d_load(space, model, theta_freeze, u, theta_transport):
    """Heat convection load with all three slots frozen."""
    return _scatter_load(space, lambda cells: heat_convection_value(
        space, model, theta_freeze, u, theta_transport, cells), 1)


def buoyancy_value(space, model, theta, g, cells=slice(None)):
    """rho(theta) g at the quadrature points of ``cells``, (cells, nq, 3), for
    a constant body force g, a 3-vector."""
    rho = model.rho_law(eval_scalar(space, theta, cells))
    return rho[:, :, None] * g


def assemble_buoyancy(space, model, theta, g):
    """Buoyancy load: entries (rho(theta) g, v_i) for a constant 3-vector g."""
    return _scatter_load(space, lambda cells: buoyancy_value(space, model, theta, g, cells), 3)


def field_load_scalar(space, fld):
    """(h, phi_i) for scalar data h (see ``quad_values``)."""
    return _scatter_load(space, lambda cells: quad_values(space, fld, cells), 1)


def field_load_vector(space, fld):
    """(f, v_i) for vector data f (see ``quad_values``)."""
    return _scatter_load(space, lambda cells: quad_values(space, fld, cells), 3)


# -- norms ---------------------------------------------------------------------


def _components(space, fld):
    """The component count of a scalar or velocity dof vector."""
    if fld.size == space.n_scalar:
        return 1
    if fld.size == space.n_velocity:
        return 3
    raise ValueError("field length matches neither scalar nor velocity layout")


def _sobolev_density(space, fld, order):
    """Sum of the squared derivatives of orders 0..order over all components,
    per quadrature point."""
    fld = np.asarray(fld, dtype=float)
    m = _components(space, fld)

    def density(cells):
        index, dens = space.conn_u[cells, :, :m], 0.0
        for table in (space.N2, space.dN2, space.d2N2)[: order + 1]:
            vals = _contract(fld, index, table).reshape(len(index), space.nq, -1)
            dens = dens + np.einsum("cqk,cqk->cq", vals, vals)
        return dens

    return fill_blocks(space, (space.nq,), density)


def _partials(order):
    """(orders, count) of each distinct partial derivative of order at most
    ``order``: count is how often it appears among the ordered derivatives,
    so a mixed second partial counts twice, as in ``|D²u|²``."""
    return [(a, math.factorial(sum(a)) / math.prod(map(math.factorial, a)))
            for a in itertools.product(range(order + 1), repeat=3) if sum(a) <= order]


def _factor_norm(space, fld, order):
    """The exponent-2 Sobolev norm of ``order`` from the 1-D factors of
    ``DiscreteSpace.norm_factors``: the squared norm is the sum over
    partials of count · ‖(R_z ⊗ R_y ⊗ R_x) X‖², a sum of squares, so no
    term cancels another."""
    fld = np.asarray(fld, dtype=float)
    X = fld.reshape(_components(space, fld), *space.q2_shape[::-1])
    total = 0.0
    for orders, count in _partials(order):
        x, y, z = (R[o] for R, o in zip(space.norm_factors, orders))
        vals = _kron3(z, y, x, X).ravel()
        total += count * np.einsum("i,i->", vals, vals)
    return float(np.sqrt(total))


def discrete_norms(space, fld, which, s=None):
    """Quadrature norms of a dof vector.

    which = 'Ls' (requires s), 'H1', or 'W2s' (broken second derivatives of
    the piecewise-quadratic basis; requires s).  ``admissible_sr``
    restricts s to [4/3, s0).  H1, and Ls and W2s at s = 2, are sums of
    squares of Kronecker applies of 1-D factors (``_factor_norm``); the
    other exponents take the quadrature kernel.
    """
    if which == "H1":
        return _factor_norm(space, fld, 1)
    if s is None:
        raise ValueError(f"norm '{which}' requires the exponent s")
    admissible_sr(s)
    order = {"Ls": 0, "W2s": 2}.get(which)
    if order is None:
        raise ValueError(f"unknown norm kind '{which}'")
    if s == 2:
        return _factor_norm(space, fld, order)
    dens = _sobolev_density(space, fld, order) ** (s / 2.0)
    return float(np.einsum("q,cq->", space.wq, dens) ** (1.0 / s))


def lp_norm_of_values(space, values, p):
    """L^p quadrature norm of pointwise data ``values(cells)``, given per
    ``cell_blocks`` block as to ``_scatter_load``: (cells, nq), (cells, nq, 3)
    or a constant that broadcasts.  |v|^p is filled per block, summed once."""

    def power(cells):
        v = np.asarray(values(cells), dtype=float)
        if v.ndim in (0, 2):
            return np.abs(v) ** p
        mag = v[..., 0] ** 2  # |v|^2 left to right, as np.sum(axis=-1) sums it
        mag += v[..., 1] ** 2
        mag += v[..., 2] ** 2
        return np.sqrt(mag) ** p

    mag = fill_blocks(space, (space.nq,), power)
    return float(np.einsum("q,cq->", space.wq, mag) ** (1.0 / p))


# -- boundary terms --------------------------------------------------------------


def surface_velocity_normal(space, u, face_name):
    """(u . n, surface weights per facet) on one boundary face."""
    face = space.faces[face_name]
    un = _contract(u, face["conn_u"], face["basis"]) @ face["normal"]
    return un, face["weights"]
