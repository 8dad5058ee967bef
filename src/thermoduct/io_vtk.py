"""Legacy VTK ASCII writers (unstructured grid).

The volume mesh is written with hexahedral cells; a companion file holds
the boundary facets as quads with the Dirichlet/Neumann tag as cell data.
Solution states export vertex-sampled point data (velocity vector,
pressure and temperature scalars).  Floats are written with 17
significant digits so repeated runs are byte-identical.
"""

import numpy as np

__all__ = ["write_mesh_vtk", "write_boundary_vtk", "write_state_vtk"]

_HEADER = "# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n"


def _fmt(x):
    return f"{x:.17g}"


def _write_grid(f, title, mesh, cells, cell_type):
    """Header, the mesh vertices and ``cells`` of one VTK cell type."""
    f.write(_HEADER.format(title=title))
    f.write(f"POINTS {mesh.n_vertices} double\n")
    for p in mesh.vertices:
        f.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
    n, k = np.shape(cells)
    f.write(f"CELLS {n} {(k + 1) * n}\n")
    for cell in cells:
        f.write(f"{k} " + " ".join(str(v) for v in cell) + "\n")
    f.write(f"CELL_TYPES {n}\n")
    f.write("\n".join([str(cell_type)] * n) + "\n")


def write_mesh_vtk(mesh, path, title="channel mesh"):
    """Volume mesh with hexahedral cells (VTK cell type 12)."""
    with open(path, "w", encoding="utf-8") as f:
        _write_grid(f, title, mesh, mesh.cells, 12)


def write_boundary_vtk(mesh, path, title="channel boundary facets"):
    """Boundary facets as quads (type 9) with tags as integer cell data."""
    with open(path, "w", encoding="utf-8") as f:
        _write_grid(f, title, mesh, mesh.facets, 9)
        nf = len(mesh.facets)
        f.write(f"CELL_DATA {nf}\n")
        f.write("SCALARS facet_tag int 1\nLOOKUP_TABLE default\n")
        f.write("\n".join(str(int(t)) for t in mesh.facet_tags) + "\n")
        f.write("SCALARS face_id int 1\nLOOKUP_TABLE default\n")
        f.write("\n".join(str(int(t)) for t in mesh.facet_faces) + "\n")


def write_state_vtk(space, state, path, title="solution"):
    """Vertex-sampled solution: velocity vector, pressure, temperature."""
    mesh = space.mesh
    vmap = space.vertex_to_q2
    u = space.split_velocity(state.u)[vmap]         # (nv, 3)
    theta = state.theta[vmap]
    P = np.asarray(state.P)
    with open(path, "w", encoding="utf-8") as f:
        _write_grid(f, title, mesh, mesh.cells, 12)
        f.write(f"POINT_DATA {mesh.n_vertices}\n")
        f.write("VECTORS velocity double\n")
        for row in u:
            f.write(f"{_fmt(row[0])} {_fmt(row[1])} {_fmt(row[2])}\n")
        f.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        f.write("\n".join(_fmt(v) for v in P) + "\n")
        f.write("SCALARS temperature double 1\nLOOKUP_TABLE default\n")
        f.write("\n".join(_fmt(v) for v in theta) + "\n")
