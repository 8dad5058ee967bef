"""Structured hexahedral box-channel mesh with tagged boundary.

The channel occupies the box [0, Lx] x [0, Ly] x [0, Lz].  The two faces
normal to the x axis are the open ends (tag ``GAMMA_N``, natural/do-nothing
boundary); the four lateral walls are no-slip/fixed-temperature walls
(tag ``GAMMA_D``).  The junction edges, where the boundary condition
changes type, meet at a dihedral angle of pi/2 and are collected in
``edges_M``.  The grid is numbered per axis: every id of it, here and in
``spaces``, is a ``lattice`` sum of per-axis indices times strides.
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "FacetTag",
    "ChannelMesh",
    "build_channel_mesh",
    "junction_angle",
    "facet_areas",
    "lattice",
    "grid_points",
]

FACE_NAMES = ("x0", "x1", "y0", "y1", "z0", "z1")
# lattice order (x fastest) of the corners of a hexahedron in VTK order,
# and of a face quad in cyclic order
_HEX = [0, 1, 3, 2, 4, 5, 7, 6]
_QUAD = [0, 1, 3, 2]


class FacetTag(IntEnum):
    GAMMA_D = 1
    GAMMA_N = 2


@dataclass
class ChannelMesh:
    """Axis-aligned hexahedral mesh of the box channel.

    Vertices are ordered x fastest, then y, then z.  ``facets`` holds the
    boundary quads (4 vertex ids each), one tag per facet.  ``edges_M`` is
    the set of mesh edges shared by exactly one GAMMA_D facet and one
    GAMMA_N facet; ``edge_facets`` stores that (D-facet, N-facet) pair per
    junction edge.  Instances are immutable after construction.
    """

    dims: tuple
    divisions: tuple
    vertices: np.ndarray        # (nv, 3)
    cells: np.ndarray           # (nc, 8) hex connectivity, VTK ordering
    facets: np.ndarray          # (nf, 4)
    facet_tags: np.ndarray      # (nf,)
    facet_faces: np.ndarray     # (nf,) index into FACE_NAMES
    edges_M: np.ndarray         # (ne, 2) sorted vertex pairs
    edge_facets: np.ndarray     # (ne, 2) facet index of (GAMMA_D, GAMMA_N) side

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    @property
    def spacing(self):
        L = np.asarray(self.dims, dtype=float)
        return L / np.asarray(self.divisions, dtype=float)


def lattice(*axes):
    """Ids of a tensor-product lattice, one row per cell.

    Each axis is a (cells, k) array: the index of each of a cell's k local
    points along that axis, already multiplied by the axis stride.  Returns
    the (cells, k_x k_y ...) array of their sums, cells and local points
    both counted with the first axis fastest.
    """
    d = len(axes)
    ids = 0
    for a, ax in enumerate(axes):
        shape = [1] * (2 * d)
        shape[d - 1 - a], shape[2 * d - 1 - a] = ax.shape
        ids = ids + ax.reshape(shape)
    return ids.reshape(-1, np.prod(ids.shape[d:], dtype=int))


def grid_points(spacing, shape):
    """Coordinates i * spacing of the points of a grid of ``shape``, x fastest."""
    # arange * h keeps coarse points bit-identical under division doubling
    X, Y, Z = np.meshgrid(*[np.arange(n) * h for n, h in zip(shape, spacing)], indexing="ij")
    return np.stack([X.ravel(order="F"), Y.ravel(order="F"), Z.ravel(order="F")], axis=1)


def build_channel_mesh(Lx, Ly, Lz, nx, ny, nz):
    """Build the box-channel mesh with divisions (nx, ny, nz).

    Raises ValueError for non-positive lengths or counts.  Vertex ids run
    x fastest, then y, then z; cell (i, j, k) has id i + nx*(j + ny*k), and
    the facets of each face are numbered the same way over its two tangent
    axes.
    """
    dims = (float(Lx), float(Ly), float(Lz))
    divisions = (int(nx), int(ny), int(nz))
    if any(L <= 0 for L in dims):
        raise ValueError(f"channel dimensions must be positive, got {dims}")
    if any(n < 1 for n in divisions) or (nx, ny, nz) != divisions:
        raise ValueError(f"divisions must be integers >= 1, got {(nx, ny, nz)}")
    shape = tuple(n + 1 for n in divisions)
    vertices = grid_points(np.array(dims) / np.array(divisions), shape)

    # each axis: the vertex index of both ends of every cell, times its stride
    strides = np.cumprod((1,) + shape[:2])
    ends = [(np.arange(n)[:, None] + np.arange(2)) * s for n, s in zip(divisions, strides)]
    cells = lattice(*ends)[:, _HEX]

    # per face: the quads of the cells on it, with a single vertex plane
    # along its normal axis, in the order x0, x1, y0, y1, z0, z1
    facets = []
    for axis, (n, s) in enumerate(zip(divisions, strides)):
        for plane in (0, n):
            on_face = ends[:axis] + [np.array([[plane * s]])] + ends[axis + 1:]
            facets.append(lattice(*on_face)[:, _QUAD])
    counts = [len(f) for f in facets]
    facets = np.concatenate(facets)
    facet_faces = np.repeat(np.arange(len(FACE_NAMES)), counts)
    # the two faces normal to x are the open ends
    facet_tags = np.where(facet_faces < 2, FacetTag.GAMMA_N, FacetTag.GAMMA_D)

    edges_M, edge_facets = _junction_edges(facets, facet_tags)
    return ChannelMesh(
        dims=dims,
        divisions=divisions,
        vertices=vertices,
        cells=cells,
        facets=facets,
        facet_tags=facet_tags,
        facet_faces=facet_faces,
        edges_M=edges_M,
        edge_facets=edge_facets,
    )


def _junction_edges(facets, facet_tags):
    """Edges shared by exactly one GAMMA_D facet and one GAMMA_N facet, in
    ascending order of their sorted vertex pairs."""
    n = facets.max() + 1
    sides = np.sort(np.stack([facets, np.roll(facets, -1, axis=1)], axis=-1), axis=-1)
    key = (sides[..., 0] * n + sides[..., 1]).ravel()
    # the facet sides grouped by edge, each edge's owners in facet order
    order = np.argsort(key, kind="stable")
    keys, counts = np.unique(key, return_counts=True)
    start = (np.cumsum(counts) - counts)[counts == 2]
    owners = np.stack([order[start], order[start + 1]], axis=1) // 4
    tags = facet_tags[owners]
    junction = tags[:, 0] != tags[:, 1]
    owners, d_first = owners[junction], tags[junction, :1] == FacetTag.GAMMA_D
    edges = np.stack(np.divmod(keys[counts == 2][junction], n), axis=1)
    return edges, np.where(d_first, owners, owners[:, ::-1])


def facet_areas(mesh):
    """Area of each boundary facet, from vertex coordinates (shoelace)."""
    quads = mesh.vertices[mesh.facets]             # (nf, 4, 3)
    d1 = quads[:, 2] - quads[:, 0]
    d2 = quads[:, 3] - quads[:, 1]
    return 0.5 * np.linalg.norm(np.cross(d1, d2), axis=1)


def junction_angle(mesh, edge):
    """Dihedral angle between the two facets adjacent to a junction edge.

    ``edge`` is either an index into ``mesh.edges_M`` or a vertex-id pair.
    Rejects edges that are not on the boundary-condition junction.
    """
    if isinstance(edge, (int, np.integer)):
        idx = int(edge)
        if not 0 <= idx < len(mesh.edges_M):
            raise ValueError(f"junction edge index {idx} out of range")
    else:
        v0, v1 = int(edge[0]), int(edge[1])
        key = (min(v0, v1), max(v0, v1))
        hit = np.nonzero(
            (mesh.edges_M[:, 0] == key[0]) & (mesh.edges_M[:, 1] == key[1])
        )[0]
        if len(hit) == 0:
            raise ValueError(f"edge {key} is not on the Dirichlet/Neumann junction")
        idx = int(hit[0])

    v0, v1 = mesh.edges_M[idx]
    p0, p1 = mesh.vertices[v0], mesh.vertices[v1]
    mid = 0.5 * (p0 + p1)
    t = p1 - p0
    t = t / np.linalg.norm(t)
    arms = []
    for facet in mesh.edge_facets[idx]:
        centroid = mesh.vertices[mesh.facets[facet]].mean(axis=0)
        w = centroid - mid
        w = w - (w @ t) * t
        arms.append(w / np.linalg.norm(w))
    return float(np.arccos(np.clip(arms[0] @ arms[1], -1.0, 1.0)))
