"""Structured hexahedral box-channel mesh with tagged boundary.

The channel occupies the box [0, Lx] x [0, Ly] x [0, Lz].  The two faces
normal to the x axis are the open ends (tag ``GAMMA_N``, natural/do-nothing
boundary); the four lateral walls are no-slip/fixed-temperature walls
(tag ``GAMMA_D``).  The junction edges, where the boundary condition
changes type, meet at the right angle that ``spectrum`` analyses.  The
grid is numbered per axis: every id of it, here and in ``spaces``, is a
``lattice`` sum of per-axis indices times strides.
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "FacetTag",
    "ChannelMesh",
    "build_channel_mesh",
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
    boundary quads (4 vertex ids each), one tag and one face per facet.
    Instances are immutable after construction.
    """

    dims: tuple
    divisions: tuple
    vertices: np.ndarray        # (nv, 3)
    cells: np.ndarray           # (nc, 8) hex connectivity, VTK ordering
    facets: np.ndarray          # (nf, 4)
    facet_tags: np.ndarray      # (nf,)
    facet_faces: np.ndarray     # (nf,) index into FACE_NAMES

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
    return ChannelMesh(
        dims=dims,
        divisions=divisions,
        vertices=vertices,
        cells=cells,
        facets=facets,
        facet_tags=facet_tags,
        facet_faces=facet_faces,
    )
