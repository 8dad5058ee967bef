import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thermoduct import build_channel_mesh
from thermoduct.mesh import FacetTag

# several shapes, with equal and unequal divisions and lengths
JUNCTION_MESHES = [(1, 1, 1, 1, 1, 1), (1, 1, 1, 2, 3, 4), (2, 1, 1, 2, 2, 2),
                   (1.3, 0.7, 2.9, 3, 2, 5)]


def test_unit_cube_counts():
    m = build_channel_mesh(1, 1, 1, 1, 1, 1)
    assert m.n_vertices == 8
    assert m.n_cells == 1
    assert (m.facet_tags == FacetTag.GAMMA_N).sum() == 2
    assert (m.facet_tags == FacetTag.GAMMA_D).sum() == 4
    assert len(oracles.reference_junction(m.facets, m.facet_tags)[0]) == 8


def test_two_cell_counts():
    m = build_channel_mesh(1, 1, 1, 2, 1, 1)
    assert m.n_vertices == 12
    assert m.n_cells == 2
    assert (m.facet_tags == FacetTag.GAMMA_N).sum() == 2
    assert (m.facet_tags == FacetTag.GAMMA_D).sum() == 8


def test_vertex_cell_count_formula():
    # (nx+1)(ny+1)(nz+1) vertices, nx*ny*nz cells
    m = build_channel_mesh(4, 1, 1, 4, 4, 4)
    assert m.n_vertices == 125
    assert m.n_cells == 64


@pytest.mark.parametrize(
    "args",
    [(0, 1, 1, 1, 1, 1), (1, -2, 1, 1, 1, 1), (1, 1, 1, 0, 1, 1), (1, 1, 1, 1, 1, -3)],
)
def test_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        build_channel_mesh(*args)


def test_rejects_fractional_divisions():
    with pytest.raises(ValueError):
        build_channel_mesh(1, 1, 1, 1.5, 1, 1)


def test_vertex_ordering_x_fastest():
    m = build_channel_mesh(2, 3, 4, 2, 1, 1)
    # vertex 1 differs from vertex 0 only in x
    assert m.vertices[1][0] > 0
    assert np.all(m.vertices[1][1:] == 0)
    hx = 1.0
    assert np.allclose(m.vertices[1], (hx, 0, 0))
    # y block comes next
    assert np.allclose(m.vertices[3], (0, 3.0, 0))


def test_tags_partition_and_planes():
    m = build_channel_mesh(2.0, 1.0, 3.0, 3, 2, 4)
    coords = m.vertices[m.facets]              # (nf, 4, 3)
    for f in range(len(m.facets)):
        tag = m.facet_tags[f]
        quad = coords[f]
        if tag == FacetTag.GAMMA_N:
            assert np.all(quad[:, 0] == quad[0, 0])
            assert quad[0, 0] in (0.0, 2.0)
        else:
            on_y = np.all(quad[:, 1] == quad[0, 1]) and quad[0, 1] in (0.0, 1.0)
            on_z = np.all(quad[:, 2] == quad[0, 2]) and quad[0, 2] in (0.0, 3.0)
            assert on_y or on_z
    assert set(np.unique(m.facet_tags)) == {int(FacetTag.GAMMA_D), int(FacetTag.GAMMA_N)}


@settings(max_examples=20, deadline=None)
@given(
    nx=st.integers(1, 4), ny=st.integers(1, 4), nz=st.integers(1, 4),
    Lx=st.floats(0.5, 4.0), Ly=st.floats(0.5, 4.0), Lz=st.floats(0.5, 4.0),
)
def test_facet_area_sums(nx, ny, nz, Lx, Ly, Lz):
    m = build_channel_mesh(Lx, Ly, Lz, nx, ny, nz)
    areas = oracles.facet_areas(m)
    gn = areas[m.facet_tags == FacetTag.GAMMA_N].sum()
    gd = areas[m.facet_tags == FacetTag.GAMMA_D].sum()
    assert gn == pytest.approx(2 * Ly * Lz, rel=1e-13)
    assert gd == pytest.approx(2 * Lx * (Ly + Lz), rel=1e-13)


def test_refinement_nests_vertices_exactly():
    coarse = build_channel_mesh(1.7, 0.9, 3.3, 2, 3, 5)
    fine = build_channel_mesh(1.7, 0.9, 3.3, 4, 6, 10)
    fine_set = {tuple(v) for v in fine.vertices}
    for v in coarse.vertices:
        assert tuple(v) in fine_set


def test_junction_edges_are_exactly_the_tag_interfaces():
    for args in JUNCTION_MESHES:
        m = build_channel_mesh(*args)
        Lx, Ly, Lz = m.dims
        _, ny, nz = m.divisions
        edges, owners = oracles.reference_junction(m.facets, m.facet_tags)
        # 4 junction lines per open end, split into ny or nz segments
        assert len(edges) == 2 * (2 * ny + 2 * nz)
        assert np.all(m.facet_tags[owners[:, 0]] == FacetTag.GAMMA_D)
        assert np.all(m.facet_tags[owners[:, 1]] == FacetTag.GAMMA_N)
        for edge, pair in zip(edges, owners):
            for f in pair:
                assert set(edge) <= set(m.facets[f])
            # on an open end and on a wall
            p = m.vertices[edge]
            assert np.all(p[:, 0] == p[0, 0]) and p[0, 0] in (0.0, Lx)
            assert any(np.all(p[:, a] == L) for a, L in ((1, 0.0), (1, Ly), (2, 0.0), (2, Lz)))


def test_junction_angle_is_right_angle():
    for args in JUNCTION_MESHES:
        m = build_channel_mesh(*args)
        for edge, owners in zip(*oracles.reference_junction(m.facets, m.facet_tags)):
            assert oracles.junction_angle(m, edge, owners) == pytest.approx(np.pi / 2, abs=1e-14)


def test_junction_angle_detects_perturbed_vertex():
    m = build_channel_mesh(1, 1, 1, 1, 1, 1)
    vertices = m.vertices.copy()
    vertices[0] += np.array([0.2, 0.1, 0.0])
    bent = dataclasses.replace(m, vertices=vertices)
    angles = [oracles.junction_angle(bent, edge, owners)
              for edge, owners in zip(*oracles.reference_junction(m.facets, m.facet_tags))]
    assert any(abs(a - np.pi / 2) > 1e-3 for a in angles)


def test_mask_nodes_lie_on_walls(small_space):
    space = small_space
    Ly, Lz = space.mesh.dims[1], space.mesh.dims[2]
    nodes = space.q2_nodes
    on_wall = (
        (nodes[:, 1] == 0) | (nodes[:, 1] == Ly) | (nodes[:, 2] == 0) | (nodes[:, 2] == Lz)
    )
    wall_theta, wall_u = oracles.dirichlet_mask_theta(space), oracles.dirichlet_mask_u(space)
    assert set(wall_theta) == set(np.nonzero(on_wall)[0])
    # velocity mask is the three component copies
    assert len(wall_u) == 3 * len(wall_theta)
    expected = np.concatenate(
        [m * space.n_scalar + wall_theta for m in range(3)]
    )
    assert set(wall_u) == set(expected)
    # the free dofs are the ascending complement of each mask
    for free, fixed, n in ((space.free_theta, wall_theta, space.n_scalar),
                           (space.free_u, wall_u, space.n_velocity)):
        assert np.all(np.diff(free) > 0)
        assert np.array_equal(np.sort(np.concatenate([free, fixed])), np.arange(n))


def test_deterministic_construction():
    a = build_channel_mesh(1, 2, 3, 2, 3, 4)
    b = build_channel_mesh(1, 2, 3, 2, 3, 4)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.cells, b.cells)
    assert np.array_equal(a.facets, b.facets)
    assert np.array_equal(a.facet_tags, b.facet_tags)


def test_vtk_export(tmp_path):
    from thermoduct.io_vtk import write_boundary_vtk, write_mesh_vtk

    m = build_channel_mesh(1, 1, 2, 2, 2, 3)
    write_mesh_vtk(m, tmp_path / "mesh.vtk")
    write_boundary_vtk(m, tmp_path / "mesh_boundary.vtk")

    text = (tmp_path / "mesh.vtk").read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"POINTS {m.n_vertices} double" in text
    types = text[text.index(f"CELL_TYPES {m.n_cells}") + 1:]
    assert types[: m.n_cells] == ["12"] * m.n_cells

    btext = (tmp_path / "mesh_boundary.vtk").read_text().splitlines()
    nf = len(m.facets)
    assert f"CELLS {nf} {5 * nf}" in btext
    i = btext.index("SCALARS facet_tag int 1")
    tags = [int(t) for t in btext[i + 2: i + 2 + nf]]
    assert tags == [int(t) for t in m.facet_tags]


def test_space_dof_count_formulas():
    from thermoduct import build_spaces

    space = build_spaces(build_channel_mesh(1, 1, 1, 1, 1, 1))
    assert space.n_scalar == 27
    assert space.n_pressure == 8
    space = build_spaces(build_channel_mesh(1, 1, 1, 2, 2, 2))
    assert space.n_scalar == 125   # (2*2+1)^3
    assert space.n_velocity == 3 * 125


def test_vertex_to_quadratic_node_map(small_space):
    space = small_space
    mapped = space.q2_nodes[space.vertex_to_q2]
    assert np.array_equal(mapped, space.mesh.vertices)
