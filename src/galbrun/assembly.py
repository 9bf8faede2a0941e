"""P1 finite element matrices for the regularized convected wave operator.

The semi-discrete system reads

    Mh xi'' + (Bh + Ch) xi' + (Ah + Dh) xi = F(t)

with Mh the vector mass matrix, Ah the volume stiffness
(div-div + s curl-curl - M^2 dx-dx), Bh the mean-flow convection operator,
and Ch, Dh boundary forms supported on the artificial boundaries x = +-R.

Sign conventions are fixed by the energy identity: with
(Bh x)_i = 2M (dxi/dx, phi_i) and Ch carrying weight (1 - n_x M) on the
boundary whose outward normal has x component n_x, the symmetric part of
Bh + Ch is exactly the plain boundary mass on Gamma- u Gamma+, so the
semi-discrete energy obeys dE/dt = -int_Gamma |xi_t|^2 for F = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from galbrun.mesh import BoundaryTag, DofMap, Mesh

# Degree-2 triangle rule: edge midpoints, equal weights. For P1 fields all
# volume integrands here are constant or quadratic, so this rule is exact.
TRI_QP_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
TRI_QP_WEIGHTS = np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])

# Two-point Gauss rule on an edge, exact through degree 3.
EDGE_QP = np.array([-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])
EDGE_QP_WEIGHTS = np.array([1.0, 1.0])


@dataclass
class SystemMatrices:
    """The assembled operators of the semi-discrete system, all CSR."""

    Mh: sp.csr_matrix
    Ah: sp.csr_matrix
    Bh: sp.csr_matrix
    Ch: sp.csr_matrix
    Dh: sp.csr_matrix
    M: float
    s: float


def triangle_gradients(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Barycentric basis gradients and areas, vectorized over triangles.

    Returns
    -------
    gx, gy : (n_tri, 3) arrays, gradient components of the three nodal
        basis functions (constant per triangle).
    area : (n_tri,) array of positive triangle areas.
    """
    p = mesh.nodes[mesh.triangles]
    x, y = p[..., 0], p[..., 1]
    area = 0.5 * (
        (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
        - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    )
    if np.any(area <= 0):
        raise ValueError("mesh contains non-counterclockwise triangles")
    nxt = [1, 2, 0]
    prv = [2, 0, 1]
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
    _, _, area = triangle_gradients(mesh)
    w = area[:, None] * TRI_QP_WEIGHTS[None, :]
    return pts, w


def minimum_edge_length(mesh: Mesh) -> float:
    p = mesh.nodes[mesh.triangles]
    lengths = [np.linalg.norm(p[:, k] - p[:, (k + 1) % 3], axis=1) for k in range(3)]
    return float(np.min(lengths))


def _local_dofs(mesh: Mesh, dofs: DofMap) -> np.ndarray:
    """(n_tri, 6) global indices ordered [u0, u1, u2, v0, v1, v2]."""
    return np.concatenate(
        [dofs.node_dofs[mesh.triangles, 0], dofs.node_dofs[mesh.triangles, 1]], axis=1
    )


def _scatter(local: np.ndarray, idx: np.ndarray, n: int) -> sp.csr_matrix:
    """Accumulate (n_el, k, k) element blocks into a CSR matrix, dropping
    rows/columns of constrained components and the zero entries of the
    blocks (such as the x-y coupling of a per-component form)."""
    k = idx.shape[1]
    rows = np.repeat(idx[:, :, None], k, axis=2)
    cols = np.repeat(idx[:, None, :], k, axis=1)
    keep = (rows >= 0) & (cols >= 0)
    mat = sp.coo_matrix(
        (local[keep], (rows[keep], cols[keep])), shape=(n, n)
    ).tocsr()
    mat.eliminate_zeros()
    return mat


def assemble_mass(mesh: Mesh, dofs: DofMap) -> sp.csr_matrix:
    """Vector P1 mass matrix, one exact block (area/12)*[[2,1,1],[1,2,1],[1,1,2]]
    per component."""
    _, _, area = triangle_gradients(mesh)
    m = mesh.n_triangles
    block = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    local = np.zeros((m, 6, 6))
    local[:, :3, :3] = area[:, None, None] * block
    local[:, 3:, 3:] = local[:, :3, :3]
    return _scatter(local, _local_dofs(mesh, dofs), dofs.n_dofs)


def assemble_a(mesh: Mesh, dofs: DofMap, M: float, s: float) -> sp.csr_matrix:
    """Volume stiffness of the regularized operator.

    a(xi, eta) = int div xi div eta + s curl xi curl eta
                 - M^2 (dxi/dx) . (deta/dx)

    Gradients of P1 fields are constant per triangle, so single-point
    (hence also degree-2) quadrature is exact.
    """
    gx, gy, area = triangle_gradients(mesh)
    m = mesh.n_triangles
    dvec = np.concatenate([gx, gy], axis=1)        # div coefficients
    cvec = np.concatenate([-gy, gx], axis=1)       # curl coefficients
    local = area[:, None, None] * (
        dvec[:, :, None] * dvec[:, None, :] + s * cvec[:, :, None] * cvec[:, None, :]
    )
    kx = area[:, None, None] * gx[:, :, None] * gx[:, None, :]
    local[:, :3, :3] -= M * M * kx
    local[:, 3:, 3:] -= M * M * kx
    return _scatter(local, _local_dofs(mesh, dofs), dofs.n_dofs)


def assemble_b(mesh: Mesh, dofs: DofMap, M: float) -> sp.csr_matrix:
    """Mean-flow convection operator: (Bh x)_i = 2M int (dxi_h/dx) . phi_i.

    Componentwise, entry (i, j) is 2M (dphi_j/dx, phi_i) = 2M gx_j area/3.
    The quadratic form reduces to a boundary term,
    x^T Bh x = M int_Gamma n_x |xi_h|^2, and vanishes for fields supported
    away from Gamma- u Gamma+.
    """
    gx, _, area = triangle_gradients(mesh)
    m = mesh.n_triangles
    row = 2.0 * M * (area[:, None] / 3.0) * gx    # same for every test index i
    local = np.zeros((m, 6, 6))
    local[:, :3, :3] = row[:, None, :]
    local[:, 3:, 3:] = row[:, None, :]
    return _scatter(local, _local_dofs(mesh, dofs), dofs.n_dofs)


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
    pa = mesh.nodes[edges[:, 0]]
    pb = mesh.nodes[edges[:, 1]]
    ell = np.linalg.norm(pb - pa, axis=1)
    block = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    k = edges.shape[0]
    local = np.zeros((k, 4, 4))
    scaled = (edge_weights * ell)[:, None, None] * block
    local[:, :2, :2] = scaled
    local[:, 2:, 2:] = scaled
    idx = np.concatenate(
        [dofs.node_dofs[edges, 0], dofs.node_dofs[edges, 1]], axis=1
    )
    return _scatter(local, idx, dofs.n_dofs)


def assemble_c(mesh: Mesh, dofs: DofMap, M: float) -> sp.csr_matrix:
    """Absorbing-condition damping form on Gamma- u Gamma+.

    c(xi, eta) = int_Gamma (1 - n_x M) xi . eta, i.e. weight 1-M on the
    downstream boundary and 1+M upstream for M > 0. Positive semidefinite
    for |M| < 1; at M = 0 it is the plain boundary mass.
    """
    edges, n_x = _gamma_edges(mesh)
    return _edge_mass(mesh, dofs, 1.0 - n_x * M, edges)


def assemble_boundary_mass(mesh: Mesh, dofs: DofMap) -> sp.csr_matrix:
    """Unweighted boundary mass on Gamma- u Gamma+ (the outflow flux form)."""
    edges, _ = _gamma_edges(mesh)
    return _edge_mass(mesh, dofs, np.ones(edges.shape[0]), edges)


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
    k = edges.shape[0]
    # dphi/dtau = (-1/len, +1/len) along the stored (CCW) orientation; the
    # integrand R dxi/dtau . eta = -(dv/dtau) eta_x + (du/dtau) eta_y.
    local = np.zeros((k, 4, 4))
    for i in range(2):  # test node a, b: int phi_i = len/2 cancels 1/len
        local[:, i, 2] = +0.5   # (i_x, a_y)
        local[:, i, 3] = -0.5   # (i_x, b_y)
        local[:, 2 + i, 0] = -0.5  # (i_y, a_x)
        local[:, 2 + i, 1] = +0.5  # (i_y, b_x)
    idx = np.concatenate(
        [dofs.node_dofs[edges, 0], dofs.node_dofs[edges, 1]], axis=1
    )
    return _scatter(local, idx, dofs.n_dofs)


def assemble_gradient_stiffness(mesh: Mesh, dofs: DofMap) -> sp.csr_matrix:
    """Componentwise int grad xi : grad eta (full H1 seminorm matrix)."""
    gx, gy, area = triangle_gradients(mesh)
    m = mesh.n_triangles
    kk = area[:, None, None] * (
        gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]
    )
    local = np.zeros((m, 6, 6))
    local[:, :3, :3] = kk
    local[:, 3:, 3:] = kk
    return _scatter(local, _local_dofs(mesh, dofs), dofs.n_dofs)


def assemble_dx_stiffness(mesh: Mesh, dofs: DofMap) -> sp.csr_matrix:
    """Componentwise int (dxi/dx) . (deta/dx)."""
    gx, _, area = triangle_gradients(mesh)
    m = mesh.n_triangles
    kx = area[:, None, None] * gx[:, :, None] * gx[:, None, :]
    local = np.zeros((m, 6, 6))
    local[:, :3, :3] = kx
    local[:, 3:, 3:] = kx
    return _scatter(local, _local_dofs(mesh, dofs), dofs.n_dofs)


def build_system(
    mesh: Mesh, dofs: DofMap, M: float, s: float, abc: str = "stable"
) -> SystemMatrices:
    """Assemble all operators for one absorbing-condition variant.

    abc is "stable" (full Ch and Dh), "naive" (same Ch, Dh dropped; the
    classical characteristic-style condition, exact for plane waves but
    unstable for M != 0), or "none" (closed box, both zero; pair with a
    closed-box dof map).
    """
    if abs(M) >= 1.0:
        raise ValueError("mean flow must be subsonic, |M| < 1")
    n = dofs.n_dofs
    zero = sp.csr_matrix((n, n))
    Mh = assemble_mass(mesh, dofs)
    Ah = assemble_a(mesh, dofs, M, s)
    Bh = assemble_b(mesh, dofs, M)
    if abc == "stable":
        Ch, Dh = assemble_c(mesh, dofs, M), assemble_d(mesh, dofs)
    elif abc == "naive":
        Ch, Dh = assemble_c(mesh, dofs, M), zero
    elif abc == "none":
        Ch, Dh = zero, zero.copy()
    else:
        raise ValueError(f"unknown abc variant: {abc!r}")
    return SystemMatrices(Mh=Mh, Ah=Ah, Bh=Bh, Ch=Ch, Dh=Dh, M=M, s=s)

