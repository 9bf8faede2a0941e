"""P1 finite element matrices for the regularized convected wave operator.

The semi-discrete system reads

    Mh xi'' + (Bh + Ch) xi' + (Ah + Dh) xi = F(t)

with Mh the vector mass matrix, Ah the volume stiffness
(div-div + s curl-curl - M^2 dx-dx), Bh the mean-flow convection operator,
and Ch, Dh boundary forms supported on the artificial boundaries x = +-R.
build_system returns the three operators the scheme uses: Mh, the
stiffness K = Ah + Dh and the damping BC = Bh + Ch, less the boundary
forms that an absorbing-condition variant drops.

Sign conventions are fixed by the energy identity: with
(Bh x)_i = 2M (dxi/dx, phi_i) and Ch carrying weight (1 - n_x M) on the
boundary whose outward normal has x component n_x, the symmetric part of
Bh + Ch is exactly the plain boundary mass on Gamma- u Gamma+, so the
semi-discrete energy obeys dE/dt = -int_Gamma |xi_t|^2 for F = 0. A run
logs that outflow as d^T sym(BC) d on the dofs of Gamma-/+, which the
system carries (SystemMatrices.gamma); no boundary mass is assembled.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from galbrun.mesh import BoundaryTag, DofMap, Mesh

# Degree-2 triangle rule: edge midpoints, equal weights. For P1 fields all
# volume integrands here are constant or quadratic, so this rule is exact.
TRI_QP_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
TRI_QP_WEIGHTS = np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])


class AbcVariant(str, Enum):
    """Treatment of the artificial boundaries x = +-R."""

    STABLE = "stable"  # damping form plus tangential coupling form
    NAIVE = "naive"    # damping form only; exact for plane waves, unstable for M != 0
    NONE = "none"      # closed box, rigid walls everywhere


@dataclass
class SystemMatrices:
    """Mh xi'' + BC xi' + K xi = F: the mass, damping and stiffness of one
    absorbing-condition variant, all CSR, DofMap.components, and gamma, the
    sorted free dofs on Gamma-/+, off which sym(BC) vanishes."""

    Mh: sp.csr_matrix
    K: sp.csr_matrix
    BC: sp.csr_matrix
    components: tuple[slice, ...]
    gamma: np.ndarray


def _areas(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Positive areas of triangles with (n_tri, 3) vertex coordinates."""
    area = 0.5 * (
        (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
        - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    )
    if np.any(area <= 0):
        raise ValueError("mesh contains non-counterclockwise triangles")
    return area


def triangle_gradients(
    mesh: Mesh, e: slice = slice(None)
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gx, gy, area): the (n_tri, 3) gradient components of the three
    nodal basis functions, constant per triangle, and the positive areas,
    of the triangles e."""
    p = mesh.nodes[mesh.triangles[e]]
    x, y = p[..., 0], p[..., 1]
    area = _areas(x, y)
    nxt, prv = [1, 2, 0], [2, 0, 1]
    gx = (y[:, nxt] - y[:, prv]) / (2.0 * area[:, None])
    gy = (x[:, prv] - x[:, nxt]) / (2.0 * area[:, None])
    return gx, gy, area


def triangle_quadrature(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Physical quadrature points and weights of the degree-2 rule.

    Returns (n_tri, 3, 2) points and (n_tri, 3) weights summing to the
    triangle areas. Basis values at point q are TRI_QP_BARY[q].
    """
    p = mesh.nodes[mesh.triangles]
    pts = np.einsum("qk,mkd->mqd", TRI_QP_BARY, p)
    w = _areas(p[..., 0], p[..., 1])[:, None] * TRI_QP_WEIGHTS[None, :]
    return pts, w


def minimum_edge_length(mesh: Mesh) -> float:
    p = mesh.nodes[mesh.triangles]
    lengths = [np.linalg.norm(p[:, k] - p[:, (k + 1) % 3], axis=1) for k in range(3)]
    return float(np.min(lengths))


# Elements per pass of _Pattern.scatter: at 4,096 a pass's temporaries set
# build_system's traced peak (measured at c8a0802).
_CHUNK = 2048
# Row groups per pass of _Pattern.scatter's CSR fill: at 2,048 a pass's
# temporaries set build_system's traced peak, and at 512 the fill ran
# slower (measured at f912ee5).
_RUN = 1024


class _Pattern:
    """The one sparse scatter: element blocks summed on a pattern of
    (row node, column) pairs.

    Each element gives its pairs as two arrays that broadcast, rows and
    cols: cells[:, :, None] and cells[:, None, :] for a form on (n_el, k)
    cells (_cell_pattern). Column j of column group g is matrix column
    col_dofs[g, j], by default the nodes' dofs by component; the matrix's
    columns run up to the largest entry of that table. The pairs in sorted
    order, and the slot of every element entry on them, are found once per
    pattern; build_system's volume forms share the triangles' and take their
    triangle_gradients a chunk of elements at a time.

    A block keyed by (row component, column group) is summed onto its slots
    with np.add.at, _CHUNK elements at a time in element order: the sums of
    one bincount over all elements, bit for bit, without an (n_el, k, k)
    array. Its sums are created when the key first gets a term, so a key
    that no chunk gives is zero. For component-major dofs the slots are in
    CSR order, row group (a row node's slots) by row group. A row
    component's row groups are laid out once per column group, in group
    order, only while the CSR is filled, _RUN row groups at a time. So the
    CSR's arrays are the kept sums and their columns: no COO, no sort.
    """

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        dofs: DofMap,
        col_dofs: np.ndarray | None = None,
    ):
        self.node_dofs = dofs.node_dofs.T.astype(np.int32)  # by component
        self.col_dofs = self.node_dofs if col_dofs is None else col_dofs.astype(np.int32)
        n = self.col_dofs.shape[1]
        # Int32 keys where they fit: the sort and the search take half the
        # memory. The key array then holds the slots, a chunk at a time.
        itype = np.int32 if dofs.n_nodes * n < 2**31 else np.int64
        key = rows.astype(itype) * n + cols.astype(itype, copy=False)
        key = key.reshape(len(key), -1)
        pairs = np.sort(key, axis=None)
        new = np.ones(len(pairs), bool)
        np.not_equal(pairs[1:], pairs[:-1], out=new[1:])
        pairs = pairs[new]
        for start in range(0, len(key), _CHUNK):
            e = slice(start, start + _CHUNK)
            key[e] = np.searchsorted(pairs, key[e])
        self.slot = key.astype(np.int32, copy=False)
        rows, cols = np.divmod(pairs, n)
        self.cols = cols.astype(np.int32)
        # The row groups: each row node's run of slots.
        self.first = np.flatnonzero(np.diff(rows, prepend=-1)).astype(np.int32)
        self.lens = np.diff(self.first, append=np.int32(len(rows)))
        self.row_nodes = rows[self.first]
        self.shape = (dofs.n_dofs, int(self.col_dofs.max()) + 1)

    def scatter(
        self, blocks: Callable[[slice], dict[tuple[int, int], np.ndarray]]
    ) -> sp.csr_matrix:
        """CSR matrix of the element blocks, blocks(e) those of the elements
        e keyed by (row component, column group), without constrained
        components or zero sums."""
        sums: dict[tuple[int, int], np.ndarray] = {}
        for start in range(0, len(self.slot), _CHUNK):
            e = slice(start, start + _CHUNK)
            slot = self.slot[e].ravel()
            for key, block in blocks(e).items():
                if key not in sums:
                    sums[key] = np.zeros(len(self.cols))
                np.add.at(sums[key], slot, block.ravel())
        # Constrained rows and columns zeroed; then each row's nonzero sums
        # are its entries.
        groups: dict[int, list[int]] = {}  # row component: its column groups
        for cr, g in sorted(sums):
            groups.setdefault(cr, []).append(g)
        n_kept = np.zeros(self.shape[0] + 1, np.int64)
        for cr, gs in groups.items():
            row = self.node_dofs[cr].take(self.row_nodes)
            dropped = np.repeat(row < 0, self.lens)
            n = 0
            for g in gs:
                val = sums[cr, g]
                val[dropped | (self.col_dofs[g].take(self.cols) < 0)] = 0.0
                n = n + np.add.reduceat(val != 0.0, self.first, dtype=np.int64)
            n_kept[1 + row[row >= 0]] = n[row >= 0]
        indptr = np.cumsum(n_kept)
        data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], np.int32)
        # The CSR's arrays, x rows then y rows, a run of row groups at a time.
        a = 0
        for cr, gs in groups.items():
            for r in range(0, len(self.first), _RUN):
                first, lens = self.first[r : r + _RUN], self.lens[r : r + _RUN]
                s = slice(first[0], first[-1] + lens[-1])
                if len(gs) == 1:  # the sums as they lie
                    val = sums[cr, gs[0]][s]
                    col = self.col_dofs[gs[0]].take(self.cols[s])
                else:
                    # Slot i of a row group that starts at slot f and holds
                    # l slots lies at i + (w - 1) f + j l for the j-th of w
                    # column groups, all counted from the run's start.
                    at = np.repeat((len(gs) - 1) * (first - s.start), lens)
                    at += np.arange(s.stop - s.start, dtype=np.int32)
                    stride = np.repeat(lens, lens)
                    val = np.empty(len(gs) * len(at))
                    col = np.empty(len(val), np.int32)
                    for j, g in enumerate(gs):
                        val[at + j * stride] = sums[cr, g][s]
                        col[at + j * stride] = self.col_dofs[g].take(self.cols[s])
                kept = val != 0.0
                b = a + np.count_nonzero(kept)
                np.compress(kept, val, out=data[a:b])
                np.compress(kept, col, out=indices[a:b])
                a = b
            for g in gs:
                del sums[cr, g]
        return sp.csr_matrix((data, indices, indptr), shape=self.shape)


def _cell_pattern(cells: np.ndarray, dofs: DofMap) -> _Pattern:
    """The pattern of a form on (n_el, k) cells: each cell's k x k node pairs."""
    return _Pattern(cells[:, :, None], cells[:, None, :], dofs)


def _diagonal(block: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """The same scalar block on both components, no x-y coupling."""
    return {(0, 0): block, (1, 1): block}


def assemble_mass(
    mesh: Mesh, dofs: DofMap, tri: _Pattern | None = None
) -> sp.csr_matrix:
    """Vector P1 mass matrix, one exact block (area/12)*[[2,1,1],[1,2,1],[1,1,2]]
    per component."""
    tri = tri or _cell_pattern(mesh.triangles, dofs)
    block = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    return tri.scatter(lambda e: _diagonal(triangle_gradients(mesh, e)[2][:, None, None] * block))


def assemble_a(
    mesh: Mesh, dofs: DofMap, M: float, s: float, tri: _Pattern | None = None
) -> sp.csr_matrix:
    """Volume stiffness of the regularized operator.

    a(xi, eta) = int div xi div eta + s curl xi curl eta
                 - M^2 (dxi/dx) . (deta/dx)

    Gradients of P1 fields are constant per triangle, so single-point
    (hence also degree-2) quadrature is exact. With div coefficients
    (gx, gy) and curl coefficients (-gy, gx) per component, the x-y block
    is gx gy^T - s gy gx^T and the y-x block its transpose.
    """
    tri = tri or _cell_pattern(mesh.triangles, dofs)

    def blocks(e: slice) -> dict[tuple[int, int], np.ndarray]:
        gx, gy, a = triangle_gradients(mesh, e)
        a = a[:, None, None]
        gxx = gx[:, :, None] * gx[:, None, :]
        gyy = gy[:, :, None] * gy[:, None, :]
        gxy = gx[:, :, None] * gy[:, None, :]
        kx = M * M * (a * gxx)
        xy = a * (gxy - s * gxy.transpose(0, 2, 1))
        return {
            (0, 0): a * (gxx + s * gyy) - kx,
            (1, 1): a * (gyy + s * gxx) - kx,
            (0, 1): xy,
            (1, 0): xy.transpose(0, 2, 1),
        }

    return tri.scatter(blocks)


def assemble_b(
    mesh: Mesh, dofs: DofMap, M: float, tri: _Pattern | None = None
) -> sp.csr_matrix:
    """Mean-flow convection operator: (Bh x)_i = 2M int (dxi_h/dx) . phi_i.

    Componentwise, entry (i, j) is 2M (dphi_j/dx, phi_i) = 2M gx_j area/3.
    The quadratic form reduces to a boundary term,
    x^T Bh x = M int_Gamma n_x |xi_h|^2, and vanishes for fields supported
    away from Gamma- u Gamma+.
    """
    tri = tri or _cell_pattern(mesh.triangles, dofs)

    def blocks(e: slice) -> dict[tuple[int, int], np.ndarray]:
        gx, _, a = triangle_gradients(mesh, e)
        row = 2.0 * M * (a[:, None] / 3.0) * gx  # same for every i
        return _diagonal(np.broadcast_to(row[:, None, :], (row.shape[0], 3, 3)))

    return tri.scatter(blocks)


def _gamma_edges(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Edges on the artificial boundaries with their outward normal
    x component (+1 downstream, -1 upstream)."""
    sel = np.isin(
        mesh.boundary_tags, (int(BoundaryTag.GAMMA_MINUS), int(BoundaryTag.GAMMA_PLUS))
    )
    edges = mesh.boundary_edges[sel]
    n_x = np.where(
        mesh.boundary_tags[sel] == int(BoundaryTag.GAMMA_PLUS), 1.0, -1.0
    )
    return edges, n_x


def _edge_mass(
    mesh: Mesh, dofs: DofMap, edge_weights: np.ndarray, edges: np.ndarray
) -> sp.csr_matrix:
    """Per-component edge mass w * (len/6) * [[2,1],[1,2]] on given edges."""
    ell = np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)
    block = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    scaled = (edge_weights * ell)[:, None, None] * block
    return _cell_pattern(edges, dofs).scatter(lambda e: _diagonal(scaled[e]))


def assemble_c(mesh: Mesh, dofs: DofMap, M: float) -> sp.csr_matrix:
    """Absorbing-condition damping form on Gamma- u Gamma+.

    c(xi, eta) = int_Gamma (1 - n_x M) xi . eta, i.e. weight 1-M on the
    downstream boundary and 1+M upstream for M > 0. Positive semidefinite
    for |M| < 1; at M = 0 it is the plain boundary mass.
    """
    edges, n_x = _gamma_edges(mesh)
    return _edge_mass(mesh, dofs, 1.0 - n_x * M, edges)


def assemble_d(mesh: Mesh, dofs: DofMap) -> sp.csr_matrix:
    """Tangential coupling form on Gamma- u Gamma+.

    d(xi, eta) = int_Gamma R (dxi/dtau) . eta with R the quarter-turn
    [[0,-1],[1,0]] and tau the counterclockwise tangent, (0, +-1) on the
    downstream/upstream boundary. Together with the volume stiffness this
    reproduces the gradient energy: on the constrained space,
    Ah + Dh equals the matrix of int |grad xi|^2 - M^2 |dxi/dx|^2 at s = 1.

    Along an edge the tangential derivative of a P1 trace is the nodal
    difference over the length; pairing against int phi_i = len/2 gives
    +-1/2 entries coupling x rows to y columns and back.
    """
    edges, _ = _gamma_edges(mesh)
    # dphi/dtau = (-1/len, +1/len) along the stored (CCW) orientation and
    # R dxi/dtau . eta = -(dv/dtau) eta_x + (du/dtau) eta_y: the x row of a
    # test node holds (+1/2, -1/2) at (a_y, b_y), its y row the negatives.
    xy = np.broadcast_to([[0.5, -0.5], [0.5, -0.5]], (edges.shape[0], 2, 2))
    return _cell_pattern(edges, dofs).scatter(lambda e: {(0, 1): xy[e], (1, 0): -xy[e]})


def build_system(
    mesh: Mesh, dofs: DofMap, M: float, s: float, abc: str = AbcVariant.STABLE
) -> SystemMatrices:
    """Assemble Mh, K and BC for one absorbing-condition variant.

    abc is "stable" (K = Ah + Dh, BC = Bh + Ch), "naive" (K = Ah,
    BC = Bh + Ch: Dh dropped, the classical characteristic-style condition,
    exact for plane waves but unstable for M != 0), or "none" (K = Ah,
    BC = Bh: a closed box; pair with a closed-box dof map).
    """
    if abs(M) >= 1.0:
        raise ValueError("mean flow must be subsonic, |M| < 1")
    abc = AbcVariant(abc)
    tri = _cell_pattern(mesh.triangles, dofs)
    # K, which couples the components, first: its scatter needs the most
    # memory, and the last one's sits on the other two matrices.
    K = assemble_a(mesh, dofs, M, s, tri)
    Mh = assemble_mass(mesh, dofs, tri)
    BC = assemble_b(mesh, dofs, M, tri)
    # Freed before the sums allocate K and BC, which reuse the pattern's memory
    # (measured at c8a0802).
    del tri
    if abc != AbcVariant.NONE:
        BC = BC + assemble_c(mesh, dofs, M)
    if abc == AbcVariant.STABLE:
        K = K + assemble_d(mesh, dofs)
    gamma = dofs.node_dofs[mesh.gamma_node_mask()]
    gamma = np.sort(gamma[gamma >= 0])
    return SystemMatrices(Mh, K, BC, dofs.components, gamma)
