"""Structured triangulation of a rectangular duct and the dof numbering.

The computational domain is the truncated duct ]-R, R[ x ]-h, h[. The flow
is along x; the horizontal sides y = +-h are rigid walls where the normal
displacement is eliminated strongly, the vertical sides x = +-R are the
artificial boundaries carrying the absorbing condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

# Marker stored in DofMap.node_dofs for an eliminated component. Never a
# valid dof index.
CONSTRAINED = -1


class BoundaryTag(IntEnum):
    WALL_BOTTOM = 0
    WALL_TOP = 1
    GAMMA_MINUS = 2  # inflow side x = -R
    GAMMA_PLUS = 3   # outflow side x = +R


@dataclass(frozen=True)
class DuctGeometry:
    """Half-length R and half-height h of the rectangular duct."""

    R: float
    h: float

    def __post_init__(self) -> None:
        if self.R <= 0 or self.h <= 0:
            raise ValueError("duct half-length and half-height must be positive")


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh with tagged boundary edges.

    Attributes
    ----------
    geometry : DuctGeometry
    nodes : (n_nodes, 2) float array of coordinates.
    triangles : (n_tri, 3) int array, counterclockwise vertex order.
    boundary_edges : (n_edges, 2) int array; each edge is oriented along the
        counterclockwise traversal of the rectangle, so its tangent on
        Gamma+ is (0, 1) and on Gamma- it is (0, -1).
    boundary_tags : (n_edges,) int array of BoundaryTag values.
    """

    geometry: DuctGeometry
    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def _node_mask(self, tags: tuple[BoundaryTag, BoundaryTag]) -> np.ndarray:
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.boundary_edges[np.isin(self.boundary_tags, tags)]] = True
        return mask

    def wall_node_mask(self) -> np.ndarray:
        """Boolean mask of nodes lying on the rigid walls y = +-h."""
        return self._node_mask((BoundaryTag.WALL_BOTTOM, BoundaryTag.WALL_TOP))

    def gamma_node_mask(self) -> np.ndarray:
        """Boolean mask of nodes on the artificial boundaries x = +-R."""
        return self._node_mask((BoundaryTag.GAMMA_MINUS, BoundaryTag.GAMMA_PLUS))


@dataclass(frozen=True)
class DofMap:
    """Mapping from (node, component) pairs to global dof indices.

    Numbering is component major, every free x component before every free
    y one, each in node order; eliminated components hold CONSTRAINED and
    are absent from the algebraic system (strong elimination, homogeneous).
    """

    n_nodes: int
    n_dofs: int
    node_dofs: np.ndarray  # (n_nodes, 2) int, CONSTRAINED where eliminated

    @property
    def components(self) -> tuple[slice, ...]:
        """The dof ranges [0, n_x) of the free x and [n_x, n_dofs) of the
        free y components; there is no y range when no y dof is free (ny = 1)."""
        n_x = int(np.count_nonzero(self.node_dofs[:, 0] >= 0))
        x = slice(0, n_x)
        return (x, slice(n_x, self.n_dofs)) if n_x < self.n_dofs else (x,)

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Scatter a dof vector to a (n_nodes, 2) nodal field, zeros at
        constrained components."""
        field = np.zeros((self.n_nodes, 2))
        field.T[self.node_dofs.T >= 0] = x  # the free components in dof order
        return field

    def restrict(self, field: np.ndarray) -> np.ndarray:
        """Gather a (n_nodes, 2) nodal field into a dof vector, dropping
        constrained components."""
        return field.T[self.node_dofs.T >= 0]


def build_duct_mesh(geom: DuctGeometry, nx: int, ny: int) -> Mesh:
    """Triangulate the duct with a structured grid of nx by ny cells.

    Every cell is split along the same diagonal (lower-left to upper-right),
    giving 2*nx*ny congruent counterclockwise triangles over
    (nx+1)*(ny+1) nodes. Boundary edges are tagged by side and oriented
    counterclockwise.

    Parameters
    ----------
    geom : DuctGeometry
    nx, ny : int
        Cells along x and y, at least 1 each.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")

    xs = np.linspace(-geom.R, geom.R, nx + 1)
    ys = np.linspace(-geom.h, geom.h, ny + 1)
    X, Y = np.meshgrid(xs, ys)  # row j = constant y
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i: int | np.ndarray, j: int | np.ndarray) -> np.ndarray:
        return j * (nx + 1) + i

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny))
    ii = ii.ravel()
    jj = jj.ravel()
    n00 = nid(ii, jj)
    n10 = nid(ii + 1, jj)
    n01 = nid(ii, jj + 1)
    n11 = nid(ii + 1, jj + 1)
    lower = np.column_stack([n00, n10, n11])
    upper = np.column_stack([n00, n11, n01])
    triangles = np.vstack([lower, upper]).astype(np.int64)

    # The boundary as one counterclockwise ring of nodes: edge k joins ring[k]
    # to ring[k + 1] along the bottom, Gamma+, the top and Gamma-.
    i, j = np.arange(nx), np.arange(ny)
    ring = np.concatenate([nid(i, 0), nid(nx, j), nid(nx - i, ny), nid(0, ny - j)])
    T = BoundaryTag
    sides = np.array([T.WALL_BOTTOM, T.GAMMA_PLUS, T.WALL_TOP, T.GAMMA_MINUS], np.int64)

    return Mesh(
        geometry=geom,
        nodes=nodes,
        triangles=triangles,
        boundary_edges=np.column_stack([ring, np.roll(ring, -1)]),
        boundary_tags=np.repeat(sides, (nx, ny, nx, ny)),
    )


def build_dof_map(mesh: Mesh, closed_box: bool = False) -> DofMap:
    """Number the unknowns, eliminating wall-normal components.

    On the walls y = +-h the normal is vertical, so the y component is
    eliminated (corners included). With closed_box=True the vertical sides
    x = +-R are treated as rigid walls too and lose their x component; this
    variant serves the reflection-free conservation checks.

    Numbering is deterministic: the x components in node order, then y.
    """
    gamma_wall = mesh.gamma_node_mask() if closed_box else np.zeros(mesh.n_nodes, bool)
    free = np.column_stack([~gamma_wall, ~mesh.wall_node_mask()])
    node_dofs = np.full((mesh.n_nodes, 2), CONSTRAINED, dtype=np.int64)
    n_dofs = np.count_nonzero(free)
    node_dofs.T[free.T] = np.arange(n_dofs)  # component major: x, then y
    return DofMap(n_nodes=mesh.n_nodes, n_dofs=n_dofs, node_dofs=node_dofs)
