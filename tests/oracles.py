"""Reference formulas the tests check the production code against, and
readers for the run artifacts.

None of these is on a run path: the operators are summed from
per-component blocks on one scalar pattern (galbrun.assembly), the load
vector uses the separable source load of RhsAssembler, the vorticity
load comes from CausalVorticity's moments through a map summed on its own
pattern, not through sparse products, snapshots are written by
galbrun.output.write_snapshot, the outflow flux of a run is
d^T sym(BC) d, not a separate boundary mass, and the mesh's boundary is
one ring of node ids, not a walk side by side. They are kept here, written
the straightforward way, as independent oracles.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad

from galbrun.assembly import (
    TRI_QP_BARY,
    _edge_mass,
    _gamma_edges,
    triangle_gradients,
    triangle_quadrature,
)
from galbrun.mesh import BoundaryTag, DofMap, Mesh
from galbrun.output import ENERGY_HEADER, EnergyRecord
from galbrun.physics import CausalVorticity, SourceKind, SourceSpec, source_spatial


def _bump(spec: SourceSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian bump value and centered offsets at the given points."""
    dx = pts[..., 0] - spec.center[0]
    dy = pts[..., 1] - spec.center[1]
    w2 = spec.width * spec.width
    g = np.exp(-0.5 * (dx * dx + dy * dy) / w2)
    return g, dx, dy


def eval_source(spec: SourceSpec, pts: np.ndarray, t: float) -> np.ndarray:
    """Force vectors at points of shape (..., 2); same leading shape out."""
    return source_spatial(spec, pts) * float(spec.time_profile(t))


def source_curl_spatial(spec: SourceSpec, pts: np.ndarray) -> np.ndarray:
    """Spatial factor W of curl f = W(x, y) * p(t).

    For the rotational source W = -amplitude * laplacian(G); identically
    zero for irrotational or absent sources.
    """
    if spec.kind != SourceKind.ROTATIONAL:
        return np.zeros(pts.shape[:-1])
    g, dx, dy = _bump(spec, pts)
    w2 = spec.width * spec.width
    r2 = dx * dx + dy * dy
    return spec.amplitude * g * (2.0 / w2 - r2 / (w2 * w2))


def source_curl_spatial_gradient(spec: SourceSpec, pts: np.ndarray) -> np.ndarray:
    """Gradient of W, needed for grad psi under the Duhamel integral."""
    out = np.zeros(pts.shape)
    if spec.kind != SourceKind.ROTATIONAL:
        return out
    g, dx, dy = _bump(spec, pts)
    w2 = spec.width * spec.width
    w4 = w2 * w2
    r2 = dx * dx + dy * dy
    radial = spec.amplitude * g * (r2 / (w4 * w2) - 4.0 / w4)
    out[..., 0] = radial * dx
    out[..., 1] = radial * dy
    return out


def source_curl(spec: SourceSpec, pts: np.ndarray, t: float) -> np.ndarray:
    return source_curl_spatial(spec, pts) * float(spec.time_profile(t))


class AnalyticVorticity:
    """General closed-form vorticity for uniform flow.

    For M != 0:

        psi(x, y, t) = alpha(x - M t, y) + x beta(x - M t, y)
                       + (1/M^2) int_0^x (x - a) curl_f(a, y, t - (x - a)/M) da

    and in the degenerate M = 0 limit the convected integral becomes the
    repeated time integral int_0^t int_0^t' curl_f(x, y, t'') dt'' dt',
    evaluated here in its equivalent single-integral form
    int_0^t (t - t') curl_f(x, y, t') dt'.

    alpha and beta are caller-supplied functions of (x0, y); both default
    to zero. curl_f is any callable (x, y, t) -> scalar. Quadrature is
    adaptive to rel_tol (scipy.integrate.quad), scalar evaluation.
    """

    def __init__(
        self,
        curl_f: Callable[[float, float, float], float],
        M: float,
        alpha: Callable[[float, float], float] | None = None,
        beta: Callable[[float, float], float] | None = None,
        rel_tol: float = 1e-10,
    ):
        self.curl_f = curl_f
        self.M = float(M)
        self.alpha = alpha
        self.beta = beta
        self.rel_tol = rel_tol

    def _homogeneous(self, x: float, y: float, t: float) -> float:
        x0 = x - self.M * t
        val = 0.0
        if self.alpha is not None:
            val += self.alpha(x0, y)
        if self.beta is not None:
            val += x * self.beta(x0, y)
        return val

    def value(self, x: float, y: float, t: float) -> float:
        if self.M == 0.0:
            part, _ = quad(
                lambda tp: (t - tp) * self.curl_f(x, y, tp),
                0.0,
                t,
                epsabs=self.rel_tol,
                epsrel=self.rel_tol,
                limit=200,
            )
        else:
            m2 = self.M * self.M

            def integrand(a: float) -> float:
                return (x - a) * self.curl_f(a, y, t - (x - a) / self.M)

            part, _ = quad(
                integrand, 0.0, x, epsabs=self.rel_tol, epsrel=self.rel_tol, limit=200
            )
            part /= m2
        return self._homogeneous(x, y, t) + part

    def __call__(self, pts: np.ndarray, t: float) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 2)
        vals = np.array([self.value(p[0], p[1], t) for p in flat])
        return vals.reshape(pts.shape[:-1])


def causal_psi(vort: CausalVorticity, pts: np.ndarray, t: float) -> np.ndarray:
    """psi of CausalVorticity at points of shape (..., 2), from its moments:
    psi = A g_y (2/w^2 I0 - (I2 + dy^2 I0) / w^4). Runs need only grad psi."""
    moments = vort._point_moments(pts, t)
    if moments is None:
        return np.zeros(pts.shape[:-1])
    i0, _, i2, _ = moments
    dy, agy = vort._y_factors(pts)
    w2 = vort.source.width * vort.source.width
    return agy * (2.0 / w2 * i0 - (i2 + dy * dy * i0) / (w2 * w2))


def write_snapshot_per_line(mesh: Mesh, field: np.ndarray, t: float, path: str) -> None:
    """Write one displacement snapshot one line at a time: the format
    galbrun.output.write_snapshot must reproduce byte for byte.

    field is nodal, shape (n_nodes, 2); the vector data gets a zero third
    component and the norm goes out as a separate scalar array.
    """
    n = mesh.n_nodes
    m = mesh.n_triangles
    norm = np.hypot(field[:, 0], field[:, 1])
    with open(path, "w", newline="\n") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write(f"displacement snapshot t={t:.9g}\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {n} double\n")
        for x, y in mesh.nodes:
            f.write(f"{x:.9g} {y:.9g} 0\n")
        f.write(f"CELLS {m} {4 * m}\n")
        for a, b, c in mesh.triangles:
            f.write(f"3 {a} {b} {c}\n")
        f.write(f"CELL_TYPES {m}\n")
        for _ in range(m):
            f.write("5\n")
        f.write(f"POINT_DATA {n}\n")
        f.write("VECTORS displacement double\n")
        for u, v in field:
            f.write(f"{u:.9g} {v:.9g} 0\n")
        f.write("SCALARS xi_norm double\n")
        f.write("LOOKUP_TABLE default\n")
        for w in norm:
            f.write(f"{w:.9g}\n")


@dataclass(frozen=True)
class Snapshot:
    t: float
    points: np.ndarray     # (n, 2)
    triangles: np.ndarray  # (m, 3)
    field: np.ndarray      # (n, 2)
    norm: np.ndarray       # (n,)


def read_snapshot(path: str) -> Snapshot:
    """Parse a snapshot written by write_snapshot."""
    with open(path) as f:
        lines = f.read().splitlines()
    title = lines[1]
    t = float(title.rsplit("t=", 1)[1]) if "t=" in title else float("nan")
    i = 4
    if not lines[i].startswith("POINTS"):
        raise ValueError(f"{path}: expected POINTS at line {i + 1}")
    n = int(lines[i].split()[1])
    pts = np.array([[float(v) for v in lines[i + 1 + k].split()] for k in range(n)])
    i += 1 + n
    m = int(lines[i].split()[1])
    tris = np.array(
        [[int(v) for v in lines[i + 1 + k].split()[1:]] for k in range(m)], dtype=np.int64
    )
    i += 1 + m
    i += 1 + m  # CELL_TYPES block
    if not lines[i].startswith("POINT_DATA"):
        raise ValueError(f"{path}: expected POINT_DATA at line {i + 1}")
    i += 1
    if not lines[i].startswith("VECTORS displacement"):
        raise ValueError(f"{path}: expected VECTORS displacement")
    vec = np.array([[float(v) for v in lines[i + 1 + k].split()] for k in range(n)])
    i += 1 + n
    if not lines[i].startswith("SCALARS xi_norm"):
        raise ValueError(f"{path}: expected SCALARS xi_norm")
    i += 2  # skip LOOKUP_TABLE line
    norm = np.array([float(lines[i + k]) for k in range(n)])
    return Snapshot(t=t, points=pts[:, :2], triangles=tris, field=vec[:, :2], norm=norm)


def read_energy_log(path: str) -> list[EnergyRecord]:
    records = []
    with open(path) as f:
        reader = csv.reader(f)
        header = tuple(next(reader))
        if header != ENERGY_HEADER:
            raise ValueError(f"{path}: unexpected header {header}")
        for row in reader:
            records.append(EnergyRecord(int(row[0]), *map(float, row[1:5]), row[5]))
    return records


def boundary_walk(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Boundary edges and tags of the nx-by-ny duct mesh, walked one side at
    a time: bottom left to right, right side upward, top right to left,
    left side downward."""

    def nid(i: int, j: int) -> int:
        return j * (nx + 1) + i

    edges = []
    tags = []
    for i in range(nx):
        edges.append((nid(i, 0), nid(i + 1, 0)))
        tags.append(BoundaryTag.WALL_BOTTOM)
    for j in range(ny):
        edges.append((nid(nx, j), nid(nx, j + 1)))
        tags.append(BoundaryTag.GAMMA_PLUS)
    for i in range(nx, 0, -1):
        edges.append((nid(i, ny), nid(i - 1, ny)))
        tags.append(BoundaryTag.WALL_TOP)
    for j in range(ny, 0, -1):
        edges.append((nid(0, j), nid(0, j - 1)))
        tags.append(BoundaryTag.GAMMA_MINUS)
    return (
        np.asarray(edges, dtype=np.int64),
        np.asarray([int(t) for t in tags], dtype=np.int64),
    )


def assemble_boundary_mass(mesh: Mesh, dofs: DofMap) -> sp.csr_matrix:
    """Unweighted boundary mass on Gamma- u Gamma+, the form of the outflow
    flux int_Gamma |dxi/dt|^2 that sym(Bh) + Ch reproduces."""
    edges, _ = _gamma_edges(mesh)
    return _edge_mass(mesh, dofs, np.ones(edges.shape[0]), edges)


# ---------------------------------------------------------------------------
# the vorticity load map, as sparse products


def _quadrature_scatter(
    qw: np.ndarray, node_dofs: np.ndarray, n_dofs: int
) -> list[sp.csr_matrix]:
    """Per load component, the matrix S with S[i, p] = qw_p phi_i(p) over
    the flattened quadrature points, the zero basis values dropped."""
    q, k = np.nonzero(TRI_QP_BARY)
    point = np.arange(qw.size).reshape(-1, 3)[:, q]
    weight = qw[:, q] * TRI_QP_BARY[q, k]
    scatter = []
    for comp in range(2):
        dof = node_dofs[:, k, comp]
        keep = dof >= 0
        scatter.append(
            sp.csr_matrix(
                (weight[keep], (dof[keep], point[keep])), shape=(n_dofs, qw.size)
            )
        )
    return scatter


def vorticity_load_map(
    mesh: Mesh, dofs: DofMap, s: float, vorticity
) -> tuple[np.ndarray, sp.csr_matrix]:
    """(x, P) of RhsAssembler's vorticity load map, as the sum over the two
    load components of the quadrature scatter times a sparse selection of
    each point's x weighted by the moment's gradient coefficient, one
    column block per moment, stacked."""
    qp, qw = triangle_quadrature(mesh)
    n_dofs = dofs.n_dofs
    x, inv = np.unique(qp[..., 0].ravel(), return_inverse=True)
    scatter = _quadrature_scatter(qw, dofs.node_dofs[mesh.triangles], n_dofs)
    grad = vorticity.gradient_coefficients(qp).reshape(inv.size, 2, 4)
    rows = np.arange(inv.size + 1)
    blocks = []
    for m in range(4):
        block = sp.csr_matrix((n_dofs, x.size))
        # s curl psi = (s dpsi/dy, -s dpsi/dx): load component c takes the
        # derivative along axis 1 - c, selected at each point's x.
        for comp, sign in enumerate((s, -s)):
            select = sp.csr_matrix(
                (sign * grad[:, 1 - comp, m], inv, rows), shape=(inv.size, x.size)
            )
            block = block + scatter[comp] @ select
        blocks.append(block)
    return x, sp.hstack(blocks, format="csr")


# ---------------------------------------------------------------------------
# the operators, assembled from zero-padded 6x6 element blocks


def _local_dofs(mesh: Mesh, dofs: DofMap) -> np.ndarray:
    """(n_tri, 6) global indices ordered [u0, u1, u2, v0, v1, v2]."""
    return np.concatenate(
        [dofs.node_dofs[mesh.triangles, 0], dofs.node_dofs[mesh.triangles, 1]], axis=1
    )


def _padded_scatter(local: np.ndarray, idx: np.ndarray, n: int) -> sp.csr_matrix:
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


def _padded_mass(mesh: Mesh, dofs: DofMap) -> sp.csr_matrix:
    _, _, area = triangle_gradients(mesh)
    block = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    local = np.zeros((mesh.n_triangles, 6, 6))
    local[:, :3, :3] = area[:, None, None] * block
    local[:, 3:, 3:] = local[:, :3, :3]
    return _padded_scatter(local, _local_dofs(mesh, dofs), dofs.n_dofs)


def _padded_a(mesh: Mesh, dofs: DofMap, M: float, s: float) -> sp.csr_matrix:
    gx, gy, area = triangle_gradients(mesh)
    dvec = np.concatenate([gx, gy], axis=1)        # div coefficients
    cvec = np.concatenate([-gy, gx], axis=1)       # curl coefficients
    local = area[:, None, None] * (
        dvec[:, :, None] * dvec[:, None, :] + s * cvec[:, :, None] * cvec[:, None, :]
    )
    kx = area[:, None, None] * gx[:, :, None] * gx[:, None, :]
    local[:, :3, :3] -= M * M * kx
    local[:, 3:, 3:] -= M * M * kx
    return _padded_scatter(local, _local_dofs(mesh, dofs), dofs.n_dofs)


def _padded_b(mesh: Mesh, dofs: DofMap, M: float) -> sp.csr_matrix:
    gx, _, area = triangle_gradients(mesh)
    row = 2.0 * M * (area[:, None] / 3.0) * gx
    local = np.zeros((mesh.n_triangles, 6, 6))
    local[:, :3, :3] = row[:, None, :]
    local[:, 3:, 3:] = row[:, None, :]
    return _padded_scatter(local, _local_dofs(mesh, dofs), dofs.n_dofs)


def _edge_dofs(dofs: DofMap, edges: np.ndarray) -> np.ndarray:
    return np.concatenate([dofs.node_dofs[edges, 0], dofs.node_dofs[edges, 1]], axis=1)


def _padded_c(mesh: Mesh, dofs: DofMap, M: float) -> sp.csr_matrix:
    edges, n_x = _gamma_edges(mesh)
    ell = np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)
    block = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    local = np.zeros((edges.shape[0], 4, 4))
    scaled = ((1.0 - n_x * M) * ell)[:, None, None] * block
    local[:, :2, :2] = scaled
    local[:, 2:, 2:] = scaled
    return _padded_scatter(local, _edge_dofs(dofs, edges), dofs.n_dofs)


def _padded_d(mesh: Mesh, dofs: DofMap) -> sp.csr_matrix:
    edges, _ = _gamma_edges(mesh)
    local = np.zeros((edges.shape[0], 4, 4))
    for i in range(2):
        local[:, i, 2] = +0.5   # (i_x, a_y)
        local[:, i, 3] = -0.5   # (i_x, b_y)
        local[:, 2 + i, 0] = -0.5  # (i_y, a_x)
        local[:, 2 + i, 1] = +0.5  # (i_y, b_x)
    return _padded_scatter(local, _edge_dofs(dofs, edges), dofs.n_dofs)


def padded_system(
    mesh: Mesh, dofs: DofMap, M: float, s: float, abc: str
) -> dict[str, sp.csr_matrix]:
    """Mh and the split forms that the abc variant's K = Ah (+ Dh) and
    BC = Bh (+ Ch) are made of, each element block padded to the full 6x6
    (triangles) or 4x4 (edges) vector block and scattered as COO triples:
    the brute-force reference of the pattern scatter."""
    forms = {
        "Mh": _padded_mass(mesh, dofs),
        "Ah": _padded_a(mesh, dofs, M, s),
        "Bh": _padded_b(mesh, dofs, M),
    }
    if abc != "none":
        forms["Ch"] = _padded_c(mesh, dofs, M)
    if abc == "stable":
        forms["Dh"] = _padded_d(mesh, dofs)
    return forms
