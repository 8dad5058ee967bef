"""The box grid's ids and reference tables against per-node formulas.

The mesh and the spaces build every id as a lattice sum per axis
(``mesh.lattice``) and every reference table as a product of 1-D tables.
The formulas here are the oracle: they number one node, and evaluate one
basis function, at a time, and each array must equal them bit for bit.
The 1-D operator factors (``DiscreteSpace.axis_matrices``), and each
runtime operator's ``@`` built from them, are checked against the 3-D
operators assembled by the cell scatter (``oracles``), which sum in another
order, to a relative 1e-14; so are the exponent-2 norms built from
``DiscreteSpace.norm_factors``, against the quadrature sums.
"""

import numpy as np
import pytest

import scipy.sparse as sp

import oracles
from thermoduct import build_channel_mesh, build_spaces, forms
from thermoduct.material import constant_density, make_material
from thermoduct.mesh import FACE_NAMES, FacetTag
from thermoduct.spaces import _d2q2_1d, _dq2_1d, _q1_1d, _q2_1d, gauss_01

MESHES = {
    "1x1x1": ((1.0, 1.0, 1.0), (1, 1, 1)),
    "3x2x5": ((1.3, 0.7, 2.9), (3, 2, 5)),
    "4x4x16": ((1.0, 1.0, 4.0), (4, 4, 16)),
}


@pytest.fixture(scope="module", params=list(MESHES))
def mesh(request):
    dims, divisions = MESHES[request.param]
    return build_channel_mesh(*dims, *divisions)


@pytest.fixture(scope="module", params=[3, 4, 5])
def space(mesh, request):
    return build_spaces(mesh, quad_order=request.param)


def cell_ijk(divisions):
    nx, ny, _ = divisions
    c = np.arange(np.prod(divisions))
    return c % nx, (c // nx) % ny, c // (nx * ny)


def reference_mesh_ids(divisions):
    """Cells in VTK order, and the quads, faces and tags of the six faces."""
    nx, ny, nz = divisions
    px, py = nx + 1, ny + 1

    def vid(i, j, k):
        return i + px * (j + py * k)

    ci, cj, ck = cell_ijk(divisions)
    cells = np.stack([
        vid(ci, cj, ck), vid(ci + 1, cj, ck), vid(ci + 1, cj + 1, ck), vid(ci, cj + 1, ck),
        vid(ci, cj, ck + 1), vid(ci + 1, cj, ck + 1), vid(ci + 1, cj + 1, ck + 1),
        vid(ci, cj + 1, ck + 1),
    ], axis=1)
    quads, faces = [], []
    for face, i in (("x0", 0), ("x1", nx)):
        for k in range(nz):
            for j in range(ny):
                quads.append([vid(i, j, k), vid(i, j + 1, k), vid(i, j + 1, k + 1), vid(i, j, k + 1)])
                faces.append(FACE_NAMES.index(face))
    for face, j in (("y0", 0), ("y1", ny)):
        for k in range(nz):
            for i in range(nx):
                quads.append([vid(i, j, k), vid(i + 1, j, k), vid(i + 1, j, k + 1), vid(i, j, k + 1)])
                faces.append(FACE_NAMES.index(face))
    for face, k in (("z0", 0), ("z1", nz)):
        for j in range(ny):
            for i in range(nx):
                quads.append([vid(i, j, k), vid(i + 1, j, k), vid(i + 1, j + 1, k), vid(i, j + 1, k)])
                faces.append(FACE_NAMES.index(face))
    tags = [FacetTag.GAMMA_N if f < 2 else FacetTag.GAMMA_D for f in faces]
    return cells, np.array(quads), np.array(faces), np.array(tags)


def test_mesh_ids_match_vertex_formulas(mesh):
    cells, facets, faces, tags = reference_mesh_ids(mesh.divisions)
    assert np.array_equal(mesh.cells, cells)
    assert np.array_equal(mesh.facets, facets)
    assert np.array_equal(mesh.facet_faces, faces)
    assert np.array_equal(mesh.facet_tags, tags)


def test_space_ids_match_node_formulas(space):
    sx, sy, _ = space.q2_shape
    px, py, pz = space.q1_shape
    ci, cj, ck = cell_ijk(space.mesh.divisions)
    loc = np.arange(27)
    la, lb, lc = loc % 3, (loc // 3) % 3, loc // 9
    conn_q2 = (2 * ci[:, None] + la) + sx * ((2 * cj[:, None] + lb) + sy * (2 * ck[:, None] + lc))
    assert np.array_equal(space.conn_q2, conn_q2)
    loc = np.arange(8)
    ma, mb, mc = loc % 2, (loc // 2) % 2, loc // 4
    conn_q1 = (ci[:, None] + ma) + px * ((cj[:, None] + mb) + py * (ck[:, None] + mc))
    assert np.array_equal(space.conn_q1, conn_q1)
    v = np.arange(px * py * pz)
    vi, vj, vk = v % px, (v // px) % py, v // (px * py)
    assert np.array_equal(space.vertex_to_q2, 2 * vi + sx * (2 * vj + sy * 2 * vk))
    n = np.arange(space.n_scalar)
    j, k = (n // sx) % sy, n // (sx * sy)
    interior = (j > 0) & (j < sy - 1) & (k > 0) & (k < 2 * space.mesh.divisions[2])
    assert np.array_equal(space.free_theta, np.flatnonzero(interior))
    assert np.array_equal(oracles.dirichlet_mask_theta(space), np.flatnonzero(~interior))
    _, ny, nz = space.mesh.divisions
    loc = np.arange(9)
    for name, i in (("x0", 0), ("x1", sx - 1)):
        conn = [i + sx * ((2 * j + loc % 3) + sy * (2 * k + loc // 3))
                for k in range(nz) for j in range(ny)]
        assert np.array_equal(space.faces[name]["conn"], np.array(conn))


def test_tables_match_per_function_products(space):
    g, w = gauss_01(space.quad_order)
    QX, QY, QZ = np.meshgrid(g, g, g, indexing="ij")
    tx, ty, tz = QX.ravel(), QY.ravel(), QZ.ravel()
    hx, hy, hz = space.h
    bx, by, bz = _q2_1d(tx), _q2_1d(ty), _q2_1d(tz)
    dbx, dby, dbz = _dq2_1d(tx), _dq2_1d(ty), _dq2_1d(tz)
    d2bx, d2by, d2bz = _d2q2_1d(tx), _d2q2_1d(ty), _d2q2_1d(tz)
    N2 = np.empty((27, tx.size))
    dN2 = np.empty((27, tx.size, 3))
    d2N2 = np.empty((27, tx.size, 3, 3))
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
    assert np.array_equal(space.N2, N2)
    assert np.array_equal(space.dN2, dN2)
    assert np.array_equal(space.d2N2, d2N2)
    b1x, b1y, b1z = _q1_1d(tx), _q1_1d(ty), _q1_1d(tz)
    N1 = np.array([b1x[n % 2] * b1y[(n // 2) % 2] * b1z[n // 4] for n in range(8)])
    assert np.array_equal(space.N1, N1)
    wq = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel() * float(np.prod(space.h))
    assert np.array_equal(space.wq, wq)

    TA, TB = np.meshgrid(g, g, indexing="ij")
    ba, bb = _q2_1d(TA.ravel()), _q2_1d(TB.ravel())
    basis = np.array([ba[n % 3] * bb[n // 3] for n in range(9)])
    weights = (w[:, None] * w[None, :]).ravel() * (hy * hz)
    for face in space.faces.values():
        assert np.array_equal(face["basis"], basis)
        assert np.array_equal(face["weights"], weights)


def test_quad_points_and_lines_match_cell_origins(space):
    g, _ = gauss_01(space.quad_order)
    QX, QY, QZ = np.meshgrid(g, g, g, indexing="ij")
    ref = np.stack([QX.ravel(), QY.ravel(), QZ.ravel()], axis=1)
    origins = np.stack(cell_ijk(space.mesh.divisions), axis=1) * space.h
    points = origins[:, None, :] + ref[None, :, :] * space.h
    assert np.array_equal(oracles.quad_points(space), points)
    nx, ny, nz = space.mesh.divisions
    q = space.quad_order
    grid = points.reshape(nz, ny, nx, q, q, q, 3)
    shapes = [(1, 1, nx, q, q, q), (1, ny, 1, q, q, q), (nz, 1, 1, q, q, q)]
    for axis, coords in enumerate(space.quad_coords):
        assert coords.shape == shapes[axis] and coords.flags.c_contiguous
        assert np.array_equal(np.broadcast_to(coords, grid.shape[:-1]), grid[..., axis])
    # the 1-D lines: each axis's coordinates cell by cell along it
    lines = (grid[0, 0, :, :, 0, 0, 0], grid[0, :, 0, 0, :, 0, 1], grid[:, 0, 0, 0, 0, :, 2])
    for line, ref in zip(space.quad_lines, lines):
        assert np.array_equal(line, ref.ravel())


def test_axis_matrices_are_kronecker_factors(space):
    def kron(z, y, x):
        return sp.kron(sp.kron(z, y), x, format="csr")

    def rel(a, b):
        return abs(a - b).max() / abs(b).max()

    X, Y, Z = space.axis_matrices
    S = kron(Z.M, Y.M, X.K) + kron(Z.M, Y.K, X.M) + kron(Z.K, Y.M, X.M)
    assert rel(S, oracles.scalar_stiffness(space)) <= 1e-14
    D = oracles.divergence_matrix(space)
    n = space.n_scalar
    for d, D_d in enumerate((kron(Z.B, Y.B, X.dB), kron(Z.B, Y.dB, X.B), kron(Z.dB, Y.B, X.B))):
        assert rel(D_d, D[:, d * n:(d + 1) * n]) <= 1e-14
    assert rel(kron(Z.Mp, Y.Mp, X.Mp), oracles.pressure_mass(space)) <= 1e-14

    # each runtime operator's @ against its assembled oracle
    model = make_material(nu=0.37, cV=1.0, lam=1.7, alpha1=1.0, law=constant_density(1.0))
    A = oracles.assemble_a(space, model)
    op_D = forms.divergence_matrix(space)
    pairs = [
        (forms.assemble_a(space, model).__matmul__, A),
        (forms.assemble_kappa(space, model).__matmul__, oracles.assemble_kappa(space, model)),
        (op_D.__matmul__, D),
        (op_D.apply_transpose, D.T),
        (forms.assemble_saddle(forms.assemble_a(space, model), op_D).__matmul__,
         oracles.assemble_saddle(A, D)),
    ]
    rng = np.random.default_rng(3)
    for apply, M in pairs:
        v = rng.normal(size=M.shape[1])
        assert rel(apply(v), M @ v) <= 1e-14


def test_factor_norms_match_quadrature_norms(space):
    # H1, and Ls and W2s at s = 2, are sums of squares of Kronecker applies
    # of the 1-D factors; the quadrature sums are the oracle.  The smooth
    # field is near a constant, where the derivative terms are small
    # against the value and a quadratic form would lose digits
    Lx, Ly, Lz = space.mesh.dims
    x, y, z = space.q2_nodes.T
    smooth = 1.0 + 0.5 * y + 1e-3 * np.sin(np.pi * x / Lx) * np.sin(np.pi * y / Ly) * np.sin(
        np.pi * z / Lz)
    rng = np.random.default_rng(13)
    fields = [rng.normal(size=space.n_scalar), rng.normal(size=space.n_velocity), smooth,
              np.concatenate([smooth, -2.0 * smooth, 0.5 * smooth])]
    for fld in fields:
        for which, order, s in (("H1", 1, None), ("Ls", 0, 2.0), ("W2s", 2, 2.0)):
            ref = oracles.quadrature_norm(space, fld, order)
            assert abs(forms.discrete_norms(space, fld, which, s) - ref) <= 1e-14 * ref
