"""Mesh and dof-map construction checks.

Expected counts below were worked out by hand for tiny grids and are
frozen: a structured nx-by-ny grid on [-R, R] x [0, h] has
(nx+1)(ny+1) nodes, 2*nx*ny triangles, and 2*(nx+ny) boundary edges.
"""
from __future__ import annotations

import numpy as np
import pytest

from galbrun.assembly import triangle_gradients
from galbrun.mesh import (
    CONSTRAINED,
    BoundaryTag,
    DuctGeometry,
    build_dof_map,
    build_duct_mesh,
)

from conftest import duct_area


def test_geometry_validation():
    with pytest.raises(ValueError):
        DuctGeometry(R=0.0, h=1.0)
    with pytest.raises(ValueError):
        DuctGeometry(R=1.0, h=-2.0)
    assert duct_area(DuctGeometry(R=2.0, h=1.0)) == pytest.approx(8.0)


def test_counts_4x2():
    mesh = build_duct_mesh(DuctGeometry(R=2.0, h=1.0), nx=4, ny=2)
    assert mesh.n_nodes == 15
    assert mesh.n_triangles == 16
    assert mesh.boundary_edges.shape == (12, 2)
    tags = mesh.boundary_tags
    assert np.sum(tags == BoundaryTag.WALL_BOTTOM) == 4
    assert np.sum(tags == BoundaryTag.WALL_TOP) == 4
    assert np.sum(tags == BoundaryTag.GAMMA_MINUS) == 2
    assert np.sum(tags == BoundaryTag.GAMMA_PLUS) == 2


def test_node_coordinates_cover_rectangle():
    geom = DuctGeometry(R=1.5, h=0.5)
    mesh = build_duct_mesh(geom, nx=3, ny=2)
    assert mesh.nodes[:, 0].min() == pytest.approx(-1.5)
    assert mesh.nodes[:, 0].max() == pytest.approx(1.5)
    assert mesh.nodes[:, 1].min() == pytest.approx(-0.5)
    assert mesh.nodes[:, 1].max() == pytest.approx(0.5)


def test_triangle_areas_positive_and_sum():
    geom = DuctGeometry(R=2.0, h=1.0)
    mesh = build_duct_mesh(geom, nx=7, ny=3)
    _, _, areas = triangle_gradients(mesh)
    assert np.all(areas > 0.0)  # CCW orientation
    assert abs(areas.sum() - duct_area(geom)) < 1e-12


def test_boundary_edges_lie_on_perimeter():
    geom = DuctGeometry(R=2.0, h=1.0)
    mesh = build_duct_mesh(geom, nx=5, ny=4)
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        pa, pb = mesh.nodes[a], mesh.nodes[b]
        if tag == BoundaryTag.WALL_BOTTOM:
            assert pa[1] == pytest.approx(-geom.h) and pb[1] == pytest.approx(-geom.h)
            assert pb[0] > pa[0]  # CCW: bottom runs left to right
        elif tag == BoundaryTag.GAMMA_PLUS:
            assert pa[0] == pytest.approx(geom.R) and pb[0] == pytest.approx(geom.R)
            assert pb[1] > pa[1]  # CCW: right side runs upward
        elif tag == BoundaryTag.WALL_TOP:
            assert pa[1] == pytest.approx(geom.h) and pb[1] == pytest.approx(geom.h)
            assert pb[0] < pa[0]
        elif tag == BoundaryTag.GAMMA_MINUS:
            assert pa[0] == pytest.approx(-geom.R) and pb[0] == pytest.approx(-geom.R)
            assert pb[1] < pa[1]


def test_node_masks(small_duct):
    _, mesh, _ = small_duct
    assert mesh.wall_node_mask().sum() == 2 * (4 + 1)
    assert mesh.gamma_node_mask().sum() == 2 * (2 + 1)


def test_dof_map_4x2(small_duct):
    _, mesh, dofs = small_duct
    # 15 nodes, 10 of them on walls where the normal (y) component is fixed.
    assert dofs.n_dofs == 30 - 10
    wall = mesh.wall_node_mask()
    assert np.all(dofs.node_dofs[wall, 1] == CONSTRAINED)
    assert np.all(dofs.node_dofs[:, 0] >= 0)
    free = dofs.node_dofs[dofs.node_dofs >= 0]
    assert sorted(free.tolist()) == list(range(dofs.n_dofs))


def test_dof_map_all_wall_nodes():
    # One cell across the duct height: every node sits on a wall.
    mesh = build_duct_mesh(DuctGeometry(R=1.0, h=1.0), nx=1, ny=1)
    dofs = build_dof_map(mesh)
    assert mesh.n_nodes == 4
    assert dofs.n_dofs == 4


def test_dof_map_closed_box(small_duct):
    _, mesh, _ = small_duct
    dofs = build_dof_map(mesh, closed_box=True)
    # Walls fix y at 10 nodes, the two vertical sides fix x at 6 nodes.
    assert dofs.n_dofs == 30 - 10 - 6
    gamma = mesh.gamma_node_mask()
    assert np.all(dofs.node_dofs[gamma, 0] == CONSTRAINED)


def dof_map_per_component(mesh, closed_box):
    """Oracle: number the free x components node by node, then the free y
    components node by node."""
    wall, gamma = mesh.wall_node_mask(), mesh.gamma_node_mask()
    node_dofs = np.full((mesh.n_nodes, 2), CONSTRAINED, dtype=np.int64)
    counter = 0
    for comp in range(2):
        for node in range(mesh.n_nodes):
            if not (closed_box and gamma[node], wall[node])[comp]:
                node_dofs[node, comp] = counter
                counter += 1
    return counter, node_dofs


@pytest.mark.parametrize("closed_box", [False, True])
@pytest.mark.parametrize("nx, ny", [(1, 1), (4, 2), (40, 10)])
def test_dof_map_matches_per_node_numbering(nx, ny, closed_box):
    mesh = build_duct_mesh(DuctGeometry(R=4.0, h=1.0), nx, ny)
    dofs = build_dof_map(mesh, closed_box=closed_box)
    n_dofs, node_dofs = dof_map_per_component(mesh, closed_box)
    assert dofs.n_dofs == n_dofs
    assert dofs.node_dofs.dtype == node_dofs.dtype
    assert np.array_equal(dofs.node_dofs, node_dofs)
    # The components are the ranges [0, n_x) and [n_x, n_dofs), the latter
    # only when some y dof is free.
    n_x = np.count_nonzero(node_dofs[:, 0] >= 0)
    ranges = [(0, n_x)] + ([(n_x, n_dofs)] if n_x < n_dofs else [])
    assert [(r.start, r.stop, r.step) for r in dofs.components] == [
        (a, b, None) for a, b in ranges
    ]


def test_expand_restrict_round_trip(small_duct):
    _, mesh, dofs = small_duct
    rng = np.random.default_rng(3)
    x = rng.standard_normal(dofs.n_dofs)
    field = dofs.expand(x)
    assert field.shape == (mesh.n_nodes, 2)
    wall = mesh.wall_node_mask()
    assert np.all(field[wall, 1] == 0.0)
    assert np.array_equal(dofs.restrict(field), x)


def test_restrict_drops_constrained_components(small_duct):
    _, mesh, dofs = small_duct
    field = np.ones((mesh.n_nodes, 2))
    x = dofs.restrict(field)
    assert x.shape == (dofs.n_dofs,)
    assert np.all(x == 1.0)


def test_mesh_construction_deterministic():
    geom = DuctGeometry(R=2.0, h=1.0)
    a = build_duct_mesh(geom, nx=6, ny=3)
    b = build_duct_mesh(geom, nx=6, ny=3)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.boundary_edges, b.boundary_edges)
    assert np.array_equal(a.boundary_tags, b.boundary_tags)


def test_invalid_resolution():
    with pytest.raises(ValueError):
        build_duct_mesh(DuctGeometry(R=1.0, h=1.0), nx=0, ny=2)
