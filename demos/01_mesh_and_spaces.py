"""Build a box channel, inspect its boundary structure, export VTK.

The channel is open at the two x-normal faces (natural/do-nothing
boundary) and walled on the four lateral faces.  The junction edges,
where the boundary condition changes type, always meet at a right angle;
that angle is what the corner-spectrum capability (demo 04) analyzes.
"""

from thermoduct import build_channel_mesh, build_spaces
from thermoduct.io_vtk import write_boundary_vtk, write_mesh_vtk
from thermoduct.mesh import FACE_NAMES, FacetTag

mesh = build_channel_mesh(Lx=2.0, Ly=1.0, Lz=1.0, nx=8, ny=4, nz=4)
print(f"channel {mesh.dims}, divisions {mesh.divisions}")
print(f"  vertices: {mesh.n_vertices}, cells: {mesh.n_cells}")

for tag in FacetTag:
    faces = sorted({FACE_NAMES[f] for f in mesh.facet_faces[mesh.facet_tags == tag]})
    print(f"  {tag.name}: {(mesh.facet_tags == tag).sum()} facets on faces {', '.join(faces)}")

space = build_spaces(mesh)
print(f"  velocity dofs {space.n_velocity}, pressure dofs {space.n_pressure}, "
      f"temperature dofs {space.n_scalar}")
print(f"  wall-constrained velocity dofs: {space.n_velocity - len(space.free_u)}")

write_mesh_vtk(mesh, "channel.vtk")
write_boundary_vtk(mesh, "channel_boundary.vtk")
print("wrote channel.vtk and channel_boundary.vtk (legacy VTK ASCII)")
