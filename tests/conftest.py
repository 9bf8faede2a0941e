from __future__ import annotations

import tracemalloc
from collections.abc import Callable

import numpy as np
import pytest

from galbrun.mesh import DofMap, DuctGeometry, Mesh, build_dof_map, build_duct_mesh


def duct_area(geom: DuctGeometry) -> float:
    """Area 4 R h of the duct ]-R, R[ x ]-h, h[."""
    return 4.0 * geom.R * geom.h


def traced_peak(build: Callable[[], object]) -> int:
    """Bytes that a second call of build allocates at its peak, over what
    was allocated before it; the first call does the imports and lazy
    set-up. Only Python's allocations are traced, not RSS."""
    build()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def make_free_dofmap(n_nodes: int) -> DofMap:
    """All components unknown, numbered component major like build_dof_map;
    for single-element checks without walls."""
    node_dofs = np.arange(2 * n_nodes, dtype=np.int64).reshape(2, n_nodes).T
    return DofMap(n_nodes=n_nodes, n_dofs=2 * n_nodes, node_dofs=node_dofs)


def make_single_triangle() -> tuple[Mesh, DofMap]:
    """Unit reference triangle with no boundary edges."""
    mesh = Mesh(
        geometry=DuctGeometry(1.0, 1.0),
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]], dtype=np.int64),
        boundary_edges=np.zeros((0, 2), dtype=np.int64),
        boundary_tags=np.zeros(0, dtype=np.int64),
    )
    return mesh, make_free_dofmap(3)


@pytest.fixture
def small_duct():
    geom = DuctGeometry(R=2.0, h=1.0)
    mesh = build_duct_mesh(geom, nx=4, ny=2)
    dofs = build_dof_map(mesh)
    return geom, mesh, dofs


@pytest.fixture
def medium_duct():
    geom = DuctGeometry(R=2.0, h=1.0)
    mesh = build_duct_mesh(geom, nx=16, ny=8)
    dofs = build_dof_map(mesh)
    return geom, mesh, dofs
