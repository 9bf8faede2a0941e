"""Source terms, transported vorticity, energy bricks, reference waves.

The vorticity closed form is validated two independent ways: against
hand-computable constant-forcing solutions, and by finite-difference
residuals of the governing transport equation with Richardson control of
the stencil error.
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from galbrun.assembly import (
    TRI_QP_BARY,
    _CHUNK,
    assemble_a,
    assemble_b,
    assemble_c,
    assemble_mass,
    build_system,
    triangle_quadrature,
)
from galbrun.config import RunConfig
from galbrun.mesh import DuctGeometry, build_dof_map, build_duct_mesh
from galbrun.physics import (
    CausalVorticity,
    ProfileKind,
    RhsAssembler,
    SourceKind,
    SourceSpec,
    TimeProfile,
    boundary_flux,
    energy,
    make_energy_stiffness,
    source_spatial,
    well_posedness_margin,
)

from conftest import duct_area, traced_peak
from oracles import (
    AnalyticVorticity,
    assemble_boundary_mass,
    causal_psi,
    eval_source,
    source_curl,
    source_curl_spatial,
    source_curl_spatial_gradient,
    vorticity_load_map,
)


def fd_grad(fun, pts: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar field at (..., 2) points."""
    out = np.zeros(pts.shape)
    for k in range(2):
        plus = np.array(pts, copy=True)
        minus = np.array(pts, copy=True)
        plus[..., k] += step
        minus[..., k] -= step
        out[..., k] = (fun(plus) - fun(minus)) / (2 * step)
    return out


# ---------------------------------------------------------------------------
# time profiles and source fields


def test_time_profiles():
    gp = TimeProfile(ProfileKind.GAUSSIAN_PULSE, t0=0.5, sigma=0.1)
    assert gp(0.5) == pytest.approx(1.0)
    assert gp(0.5 + 0.1) == pytest.approx(np.exp(-0.5))
    assert gp.support_window() == pytest.approx((-0.4, 1.4))

    rk = TimeProfile(ProfileKind.RICKER, t0=1.0, sigma=0.2)
    assert rk(1.0) == pytest.approx(1.0)
    assert rk(1.2) == pytest.approx(0.0, abs=1e-15)
    assert rk(0.8) == pytest.approx(0.0, abs=1e-15)
    assert rk.support_window() == pytest.approx((-0.8, 2.8))


def test_rotational_source_divergence_free():
    spec = SourceSpec(SourceKind.ROTATIONAL, center=(0.2, -0.1), width=0.3)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.6, 0.6, size=(40, 2))
    step = 1e-5
    t = 0.5
    dpx = (
        eval_source(spec, pts + [step, 0.0], t) - eval_source(spec, pts - [step, 0.0], t)
    ) / (2 * step)
    dpy = (
        eval_source(spec, pts + [0.0, step], t) - eval_source(spec, pts - [0.0, step], t)
    ) / (2 * step)
    div = dpx[:, 0] + dpy[:, 1]
    scale = np.abs(eval_source(spec, pts, t)).max()
    assert np.abs(div).max() < 1e-8 * scale


def test_irrotational_source_curl_free():
    spec = SourceSpec(SourceKind.IRROTATIONAL, center=(0.0, 0.0), width=0.25)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-0.5, 0.5, size=(30, 2))
    step = 1e-5
    t = 0.4
    dpx = (
        eval_source(spec, pts + [step, 0.0], t) - eval_source(spec, pts - [step, 0.0], t)
    ) / (2 * step)
    dpy = (
        eval_source(spec, pts + [0.0, step], t) - eval_source(spec, pts - [0.0, step], t)
    ) / (2 * step)
    curl = dpx[:, 1] - dpy[:, 0]
    scale = np.abs(eval_source(spec, pts, t)).max()
    assert np.abs(curl).max() < 1e-8 * scale
    assert np.abs(source_curl_spatial(spec, pts)).max() == 0.0


def test_source_curl_matches_finite_differences():
    spec = SourceSpec(SourceKind.ROTATIONAL, center=(0.1, 0.2), width=0.35)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.7, 0.9, size=(25, 2))
    t = 0.55
    step = 1e-5
    f = lambda q, tt=t: eval_source(spec, q, tt)
    dpx = (f(pts + [step, 0.0]) - f(pts - [step, 0.0])) / (2 * step)
    dpy = (f(pts + [0.0, step]) - f(pts - [0.0, step])) / (2 * step)
    curl_fd = dpx[:, 1] - dpy[:, 0]
    curl_an = source_curl(spec, pts, t)
    assert np.abs(curl_fd - curl_an).max() < 1e-7 * np.abs(curl_an).max()


def test_source_curl_gradient_matches_finite_differences():
    spec = SourceSpec(SourceKind.ROTATIONAL, center=(0.0, 0.0), width=0.3)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.5, 0.5, size=(20, 2))
    grad_fd = fd_grad(lambda q: source_curl_spatial(spec, q), pts)
    grad_an = source_curl_spatial_gradient(spec, pts)
    assert np.abs(grad_fd - grad_an).max() < 1e-6 * np.abs(grad_an).max()


def test_absent_source_is_zero():
    spec = SourceSpec(SourceKind.NONE)
    pts = np.zeros((3, 2))
    assert np.all(eval_source(spec, pts, 1.0) == 0.0)
    assert np.all(source_curl_spatial(spec, pts) == 0.0)
    assert np.all(source_curl_spatial_gradient(spec, pts) == 0.0)


# ---------------------------------------------------------------------------
# transported vorticity


def test_vorticity_constant_forcing_with_flow():
    # curl f = c everywhere: the convected integral gives c x^2 / (2 M^2),
    # independent of t.
    c, M = 1.3, 0.5
    psi = AnalyticVorticity(lambda x, y, t: c, M)
    for x in (0.8, -0.6, 0.0):
        expected = c * x * x / (2 * M * M)
        assert psi.value(x, 0.3, 2.0) == pytest.approx(expected, abs=1e-8)


def test_vorticity_constant_forcing_without_flow():
    # M = 0 degenerates to the repeated time integral: c t^2 / 2.
    c = 0.7
    psi = AnalyticVorticity(lambda x, y, t: c, 0.0)
    for t in (0.5, 1.0, 2.0):
        assert psi.value(0.4, -0.2, t) == pytest.approx(c * t * t / 2, abs=1e-10)


def test_vorticity_homogeneous_terms():
    # alpha rides the characteristic, beta is multiplied by x.
    M = 0.4
    psi = AnalyticVorticity(
        lambda x, y, t: 0.0,
        M,
        alpha=lambda x0, y: x0 + 2 * y,
        beta=lambda x0, y: 3 * x0,
    )
    x, y, t = 0.9, 0.2, 1.5
    x0 = x - M * t
    assert psi.value(x, y, t) == pytest.approx((x0 + 2 * y) + x * 3 * x0, rel=1e-12)


def separable_case():
    spec = SourceSpec(
        SourceKind.ROTATIONAL,
        center=(0.0, 0.0),
        width=0.3,
        amplitude=1.0,
        time_profile=TimeProfile(ProfileKind.GAUSSIAN_PULSE, t0=0.4, sigma=0.15),
    )

    def curl_f(x: float, y: float, t: float) -> float:
        pt = np.array([x, y])
        return float(source_curl_spatial(spec, pt) * spec.time_profile(t))

    return spec, curl_f


def test_vorticity_transport_residual_second_order():
    # (d/dt + M d/dx)^2 psi = curl f, checked with the second difference
    # along the characteristic direction; the stencil error must shrink at
    # second order in the step.
    M = 0.6
    spec, curl_f = separable_case()
    psi = AnalyticVorticity(curl_f, M, rel_tol=1e-12)
    samples = [(0.7, 0.1, 0.9), (0.35, -0.2, 0.7)]
    residual_scale = abs(curl_f(0.0, 0.0, 0.4))

    def max_residual(delta: float) -> float:
        worst = 0.0
        for x, y, t in samples:
            second = (
                psi.value(x + M * delta, y, t + delta)
                - 2 * psi.value(x, y, t)
                + psi.value(x - M * delta, y, t - delta)
            ) / delta**2
            worst = max(worst, abs(second - curl_f(x, y, t)))
        return worst

    r1, r2 = max_residual(0.05), max_residual(0.025)
    order = np.log2(r1 / r2)
    assert order > 1.7
    assert r2 < 1e-2 * residual_scale


def test_causal_vorticity_zero_before_onset():
    spec, _ = separable_case()
    psi = CausalVorticity(spec, M=0.5)
    pts = np.array([[0.2, 0.1], [0.5, -0.3]])
    assert np.all(causal_psi(psi, pts, 0.0) == 0.0)
    # Just after start the Duhamel kernel tau caps the value at O(t^2).
    assert np.abs(psi.gradient(pts, 1e-6)).max() < 1e-11


def test_causal_matches_closed_form_with_flow():
    # The rest-started solution equals the general closed form once the
    # homogeneous terms are chosen to cancel the state at t = 0:
    # alpha(c,y) = -(1/M^2) int_c^0 u W(u,y) p((u-c)/M) du,
    # beta(c,y)  = +(1/M^2) int_c^0   W(u,y) p((u-c)/M) du.
    M = 0.5
    spec, curl_f = separable_case()

    def wp(u: float, y: float, c: float) -> float:
        return curl_f(u, y, (u - c) / M)

    def alpha(c: float, y: float) -> float:
        val, _ = quad(lambda u: u * wp(u, y, c), c, 0.0, epsabs=1e-12, limit=200)
        return -val / M**2

    def beta(c: float, y: float) -> float:
        val, _ = quad(lambda u: wp(u, y, c), c, 0.0, epsabs=1e-12, limit=200)
        return val / M**2

    causal = CausalVorticity(spec, M, n_nodes=64)
    closed = AnalyticVorticity(curl_f, M, alpha=alpha, beta=beta, rel_tol=1e-12)
    pts = np.array([[0.4, 0.1], [-0.3, 0.2], [0.9, -0.15]])
    t = 1.2
    got = causal_psi(causal, pts, t)
    want = closed(pts, t)
    assert np.abs(got).max() > 1e-4  # the comparison is not vacuous
    assert np.abs(got - want).max() < 1e-8 * np.abs(want).max()


def test_causal_matches_closed_form_without_flow():
    spec, curl_f = separable_case()
    causal = CausalVorticity(spec, M=0.0, n_nodes=64)
    closed = AnalyticVorticity(curl_f, 0.0, rel_tol=1e-12)
    pts = np.array([[0.15, 0.05], [-0.2, 0.25]])
    got = causal_psi(causal, pts, 1.0)
    want = closed(pts, 1.0)
    assert np.abs(got).max() > 1e-4
    assert np.abs(got - want).max() < 1e-9 * np.abs(want).max()


def test_causal_gradient_matches_finite_differences():
    spec, _ = separable_case()
    psi = CausalVorticity(spec, M=0.5)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-0.4, 0.8, size=(10, 2))
    t = 1.1
    grad_fd = fd_grad(lambda q: causal_psi(psi, q, t), pts, step=1e-5)
    grad_an = psi.gradient(pts, t)
    assert np.abs(grad_fd - grad_an).max() < 1e-6 * np.abs(grad_an).max()


def brute_force_vorticity(psi: CausalVorticity, pts: np.ndarray, t: float, spatial):
    """Per-node Duhamel sum: W (or grad W) shifted along the characteristic
    and summed over the Gauss-Legendre nodes, one full sweep per node.

    CausalVorticity factors this loop into 1-D moments over distinct x;
    spatial is source_curl_spatial or source_curl_spatial_gradient.
    """
    acc = np.zeros(spatial(psi.source, pts).shape)
    win = psi.source.time_profile.support_window()
    lo, hi = max(0.0, t - win[1]), min(t, t - win[0])
    if hi <= lo:
        return acc
    z, w = leggauss(psi.n_nodes)
    tau = 0.5 * (hi - lo) * z + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * w
    p = psi.source.time_profile(t - tau)
    shifted = np.array(pts, copy=True)
    for tq, wq, pq in zip(tau, w, p):
        shifted[..., 0] = pts[..., 0] - psi.M * tq
        acc += (wq * tq * pq) * spatial(psi.source, shifted)
    return acc


def assert_matches_brute_force(psi: CausalVorticity, pts: np.ndarray, t: float) -> None:
    for got, spatial in (
        (causal_psi(psi, pts, t), source_curl_spatial),
        (psi.gradient(pts, t), source_curl_spatial_gradient),
    ):
        want = brute_force_vorticity(psi, pts, t, spatial)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("M", [0.0, 0.5])
@pytest.mark.parametrize("t", [0.2, 0.9, 1.3, 2.6])
def test_factored_vorticity_matches_brute_force_at_random_points(M, t):
    # The pulse window starts at 0.3: t = 0.2 is before onset, 0.9 on the
    # ramp, 1.3 past the peak and 2.6 after the pulse has gone.
    spec = SourceSpec(
        SourceKind.ROTATIONAL,
        center=(0.1, -0.05),
        width=0.3,
        amplitude=1.7,
        time_profile=TimeProfile(ProfileKind.GAUSSIAN_PULSE, t0=1.2, sigma=0.1),
    )
    psi = CausalVorticity(spec, M)
    # Random x never repeat, so every point gets its own moments.
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1.5, 1.5, size=(200, 2))
    assert_matches_brute_force(psi, pts, t)
    # A second point set, with two leading axes, must not reuse the first's layout.
    assert_matches_brute_force(psi, rng.uniform(-1.0, 1.0, size=(4, 5, 2)), t)
    grad = psi.gradient(pts, t)
    if t == 0.2:
        assert np.all(causal_psi(psi, pts, t) == 0.0) and np.all(grad == 0.0)
    else:
        assert np.abs(grad).max() > 0.0


@pytest.mark.parametrize("M", [0.0, 0.5])
def test_factored_vorticity_matches_brute_force_on_exp1_quadrature(M):
    cfg = RunConfig()  # the exp1 mesh and source
    mesh = build_duct_mesh(cfg.geometry(), cfg.nx, cfg.ny)
    qp, _ = triangle_quadrature(mesh)
    psi = CausalVorticity(cfg.source_spec(), M)
    for t in (0.0, 0.45, 2.0):  # no window yet, pulse ramping, pulse gone
        assert_matches_brute_force(psi, qp, t)


@pytest.mark.parametrize("kind", [SourceKind.IRROTATIONAL, SourceKind.NONE])
def test_causal_vorticity_zero_for_curl_free_sources(kind):
    spec = SourceSpec(kind, center=(0.0, 0.1), width=0.3)
    psi = CausalVorticity(spec, M=0.5)
    pts = np.random.default_rng(13).uniform(-1, 1, size=(30, 2))
    for t in (0.45, 1.0):
        value = causal_psi(psi, pts, t)
        assert np.all(value == 0.0) and value.shape == (30,)
        assert np.all(psi.gradient(pts, t) == 0.0)


# ---------------------------------------------------------------------------
# load vector


def source_loads(source):
    """The configured source as run_simulation hands it over: one load."""
    if source is None:
        return ()
    return ((partial(source_spatial, source), source.time_profile),)


def one_shot_rhs(mesh, dofs, source, s, t, vorticity=None):
    """Load vector at t from a freshly built RhsAssembler."""
    return RhsAssembler(mesh, dofs, source_loads(source), s, vorticity=vorticity)(t)


def add_at_load(mesh, dofs, f: np.ndarray) -> np.ndarray:
    """Reference scatter of a quadrature-point force with np.add.at."""
    _, qw = triangle_quadrature(mesh)
    node_dofs = dofs.node_dofs[mesh.triangles]
    F = np.zeros(dofs.n_dofs)
    for comp in range(2):
        vals = np.einsum("mq,qk->mk", qw * f[..., comp], TRI_QP_BARY)
        idx = node_dofs[..., comp]
        keep = idx >= 0
        np.add.at(F, idx[keep], vals[keep])
    return F


def random_pointwise_field(seed: int):
    """A pointwise field (physics.Load) of 8 random plane waves: (..., 2)
    points to (..., 2) values."""
    rng = np.random.default_rng(seed)
    k, amp = 3.0 * rng.standard_normal((2, 8)), rng.standard_normal((8, 2))
    phase = rng.uniform(0.0, 2.0 * np.pi, 8)
    return lambda pts: np.cos(pts @ k + phase) @ amp


@pytest.mark.parametrize("closed_box", [False, True])
def test_rhs_scatter_matches_add_at_bit_for_bit(small_duct, closed_box):
    # The closed box constrains dofs on the walls and on both ends. The
    # field is evaluated _CHUNK triangles at a time: the 48x24 duct has
    # more triangles than one chunk, and not a whole number of chunks.
    _, small, _ = small_duct
    large = build_duct_mesh(DuctGeometry(2.0, 1.0), 48, 24)
    assert large.n_triangles > _CHUNK and large.n_triangles % _CHUNK
    f = random_pointwise_field(14)
    for mesh in (small, large):
        dofs = build_dof_map(mesh, closed_box=closed_box)
        qp, _ = triangle_quadrature(mesh)
        F = RhsAssembler(mesh, dofs, ((f, lambda t: 1.0),), s=0.0)(0.3)
        assert np.array_equal(F, add_at_load(mesh, dofs, f(qp)))


@pytest.mark.parametrize("closed_box", [False, True])
@pytest.mark.parametrize("s", [0.5, 1.0])
@pytest.mark.parametrize("M", [0.0, 0.5])
def test_vorticity_load_map_matches_quadrature_oracle(medium_duct, closed_box, s, M):
    # The precomputed map of the per-x moments must give the load of
    # s curl psi formed point by point: the brute-force gradient at every
    # quadrature point, turned into (s dpsi/dy, -s dpsi/dx) and scattered.
    _, mesh, _ = medium_duct
    dofs = build_dof_map(mesh, closed_box=closed_box)
    spec = SourceSpec(
        SourceKind.ROTATIONAL,
        center=(0.1, -0.05),
        width=0.3,
        amplitude=1.7,
        time_profile=TimeProfile(ProfileKind.GAUSSIAN_PULSE, t0=1.2, sigma=0.1),
    )
    psi = CausalVorticity(spec, M)
    qp, _ = triangle_quadrature(mesh)
    asm = RhsAssembler(mesh, dofs, (), s=s, vorticity=psi)
    # The pulse window starts at 0.3: t = 0.2 is before onset, 0.9 on the
    # ramp, 1.3 past the peak and 2.6 after the pulse has gone.
    for t in (0.2, 0.9, 1.3, 2.6):
        grad = brute_force_vorticity(psi, qp, t, source_curl_spatial_gradient)
        force = s * np.stack([grad[..., 1], -grad[..., 0]], axis=-1)
        want = add_at_load(mesh, dofs, force)
        got = asm(t)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert (np.abs(got).max() > 0.0) == (t > 0.3)


class UnitYVorticity:
    """Stand-in vorticity psi = y: its gradient (0, 1) is the moment I0 = 1
    taken with coefficient 1 on dpsi/dy, so s curl psi = (s, 0)."""

    def moments(self, x, t):
        out = np.zeros((4, x.size))
        out[0] = 1.0
        return out

    def gradient_coefficients(self, pts):
        out = np.zeros(pts.shape[:-1] + (2, 4))
        out[..., 1, 0] = 1.0
        return out


class SeededVorticity:
    """Stand-in vorticity whose gradient coefficients are seeded affine
    functions of the point, nonzero for all four moments on both
    derivatives: each load component's rows then span four column groups."""

    def __init__(self, seed: int):
        self.coef = np.random.default_rng(seed).standard_normal((3, 2, 4))

    def gradient_coefficients(self, pts):
        a, b, c = self.coef
        return a + b * pts[..., 0, None, None] + c * pts[..., 1, None, None]


def csr_entries(P) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, columns, value bits) of P's stored entries, sorted by row and
    column, summing no duplicates."""
    coo = P.tocoo()
    order = np.lexsort((coo.col, coo.row))
    return coo.row[order], coo.col[order], coo.data[order].view(np.int64)


def is_canonical(P) -> bool:
    """Each row's column indices strictly increase, so no duplicates."""
    rows = np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))
    return bool(np.all((np.diff(rows) > 0) | (np.diff(P.indices) > 0)))


@pytest.mark.parametrize(
    "cells, closed_box, s, M, vorticity",
    [
        *[
            ((16, 8), c, s, M, "causal")
            for c in (False, True)
            for s in (0.5, 1.0)
            for M in (0.0, 0.5)
        ],
        ((16, 8), False, 0.8, 0.5, "causal"),  # s * coefficient rounds
        ((16, 8), False, 0.8, 0.0, "unit_y"),
        ((16, 8), True, 0.8, 0.0, "unit_y"),
        ((160, 40), False, 1.0, 0.5, "causal"),  # 12,800 triangles, 7 chunks
        ((16, 8), True, 0.8, 0.0, "seeded"),  # four moments per component
    ],
)
def test_vorticity_load_map_is_the_sparse_products_bit_for_bit(
    cells, closed_box, s, M, vorticity
):
    # The map summed by _Pattern.scatter stores the same entries, with the
    # same bits, as the quadrature scatter times the per-point selection of
    # x, stacked over the moments; its rows are in canonical order.
    R = 2.0 if cells == (16, 8) else 4.0  # medium_duct, or exp1's duct
    mesh = build_duct_mesh(DuctGeometry(R, 1.0), *cells)
    dofs = build_dof_map(mesh, closed_box=closed_box)
    if vorticity == "causal":
        spec = SourceSpec(SourceKind.ROTATIONAL, center=(0.1, -0.05), width=0.3)
        psi = CausalVorticity(spec, M)
    elif vorticity == "unit_y":
        psi = UnitYVorticity()
    else:
        psi = SeededVorticity(7)
    asm = RhsAssembler(mesh, dofs, (), s=s, vorticity=psi)
    x, P = vorticity_load_map(mesh, dofs, s, psi)
    assert np.array_equal(asm._vorticity_x, x)
    assert asm._vorticity_map.shape == P.shape
    got, want = csr_entries(asm._vorticity_map), csr_entries(P)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert is_canonical(asm._vorticity_map)


@pytest.mark.parametrize("vorticity, bound", [(True, 365), (False, 237)])
def test_rhs_assembler_traced_peak_per_triangle(vorticity, bound):
    # exp1 at 160x40. The map built from the sparse products peaked at about
    # 820 B per triangle; summed on its own pattern a chunk of triangles at
    # a time, at about 333; by _Pattern.scatter, at about 287 (272 at
    # 320x80). Without vorticity the source load alone, 216 (155 since it is
    # built a chunk of triangles at a time).
    mesh = build_duct_mesh(DuctGeometry(4.0, 1.0), 160, 40)
    dofs = build_dof_map(mesh)
    source = SourceSpec(SourceKind.ROTATIONAL)
    psi = CausalVorticity(source, 0.5) if vorticity else None
    peak = traced_peak(
        lambda: RhsAssembler(mesh, dofs, source_loads(source), 1.0, vorticity=psi)
    )
    assert peak / mesh.n_triangles <= bound


def test_source_load_traced_peak_per_triangle():
    # exp2's irrotational source at 160x40, no vorticity. Its field evaluated
    # at every quadrature point at once peaked at 216 B per triangle; a
    # chunk of triangles at a time, at 155 (139 at 320x80).
    mesh = build_duct_mesh(DuctGeometry(4.0, 1.0), 160, 40)
    dofs = build_dof_map(mesh)
    source = SourceSpec(SourceKind.IRROTATIONAL)
    peak = traced_peak(lambda: RhsAssembler(mesh, dofs, source_loads(source), 1.0))
    assert peak / mesh.n_triangles <= 160


def test_rhs_of_constant_regularization_force(small_duct):
    # s curl(y) is the constant force (s, 0); its load vector, taken through
    # the moment map, is exactly the mass matrix applied to the
    # interpolated (1, 0) scaled by s.
    _, mesh, dofs = small_duct
    s = 0.8
    F = one_shot_rhs(mesh, dofs, source=None, s=s, t=0.0, vorticity=UnitYVorticity())
    Mh = assemble_mass(mesh, dofs)
    ones = dofs.restrict(np.column_stack([np.ones(mesh.n_nodes), np.zeros(mesh.n_nodes)]))
    want = s * (Mh @ ones)
    assert np.abs(F - want).max() < 1e-13 * np.abs(want).max()


def test_rhs_zero_without_inputs(small_duct):
    _, mesh, dofs = small_duct
    asm = RhsAssembler(mesh, dofs, (), s=1.0)
    assert np.all(asm(0.7) == 0.0)


def test_rhs_scales_with_amplitude_and_time_profile(small_duct):
    _, mesh, dofs = small_duct
    base = SourceSpec(SourceKind.IRROTATIONAL, center=(0.3, 0.1), width=0.4)
    double = SourceSpec(
        SourceKind.IRROTATIONAL, center=(0.3, 0.1), width=0.4, amplitude=2.0
    )
    t = 0.5
    F1 = one_shot_rhs(mesh, dofs, base, s=1.0, t=t)
    F2 = one_shot_rhs(mesh, dofs, double, s=1.0, t=t)
    assert np.abs(F2 - 2 * F1).max() < 1e-14 * np.abs(F1).max()
    # Separability in time: the ratio of load vectors is the profile ratio.
    t2 = 0.62
    F3 = one_shot_rhs(mesh, dofs, base, s=1.0, t=t2)
    ratio = float(base.time_profile(t2) / base.time_profile(t))
    assert np.abs(F3 - ratio * F1).max() < 1e-13 * np.abs(F1).max()


def test_rhs_superposes_loads_with_their_profiles(small_duct):
    # Two loads with different profiles give p1(t) F1 + p2(t) F2, each F_j
    # the load of its field alone.
    _, mesh, dofs = small_duct
    rot = SourceSpec(SourceKind.ROTATIONAL, center=(0.0, 0.2), width=0.5)
    irr = SourceSpec(SourceKind.IRROTATIONAL, center=(0.4, -0.1), width=0.3)
    p1, p2 = np.cos, lambda t: t * t - 0.3
    loads = ((partial(source_spatial, rot), p1), (partial(source_spatial, irr), p2))
    asm = RhsAssembler(mesh, dofs, loads, s=0.0)
    F1 = RhsAssembler(mesh, dofs, loads[:1], s=0.0)
    F2 = RhsAssembler(mesh, dofs, loads[1:], s=0.0)
    for t in (0.0, 0.45, 1.3):
        want = p1(t) / p1(0.0) * F1(0.0) + p2(t) / p2(0.0) * F2(0.0)
        assert np.abs(asm(t) - want).max() < 1e-14 * np.abs(want).max()


# ---------------------------------------------------------------------------
# energy bricks


def test_energy_of_static_linear_field(small_duct):
    geom, mesh, dofs = small_duct
    M = 0.5
    Ke = make_energy_stiffness(mesh, dofs, M)
    xi = dofs.restrict(np.column_stack([mesh.nodes[:, 0], np.zeros(mesh.n_nodes)]))
    # grad xi = e_x e_x^T: density 1 - M^2, integrated over 4 R h = 8.
    want = 0.5 * (1 - M * M) * duct_area(geom)
    rest = np.zeros_like(xi)  # d = Mh d = 0
    assert energy(rest, rest, xi, K_prev=Ke @ xi)[0] == pytest.approx(
        want, rel=1e-13
    )


def test_energy_of_uniform_motion(small_duct):
    geom, mesh, dofs = small_duct
    Ke = make_energy_stiffness(mesh, dofs, 0.0)
    Mh = assemble_mass(mesh, dofs)
    c, dt = 2.0, 0.05
    ones = dofs.restrict(np.column_stack([np.ones(mesh.n_nodes), np.zeros(mesh.n_nodes)]))
    prev = np.zeros_like(ones)
    curr = c * dt * ones
    # Constant velocity (c, 0): E = c^2/2 * area; the gradient product of
    # constants vanishes.
    d = (curr - prev) / dt
    assert energy(d, Mh @ d, curr, Ke @ prev)[0] == pytest.approx(
        0.5 * c * c * duct_area(geom), rel=1e-13
    )


def test_boundary_flux_of_uniform_motion(small_duct):
    geom, mesh, dofs = small_duct
    C0 = assemble_boundary_mass(mesh, dofs)
    c = 2.0
    ones = dofs.restrict(np.column_stack([np.ones(mesh.n_nodes), np.zeros(mesh.n_nodes)]))
    flux = boundary_flux(c * ones, C0)
    # |d|^2 = c^2 on both vertical sides of length 2h.
    assert flux == pytest.approx(c * c * 2 * (2 * geom.h), rel=1e-13)


def test_naive_forms_match_system_wiring(small_duct):
    # The naive condition keeps the damping form and drops the tangential
    # coupling entirely.
    _, mesh, dofs = small_duct
    M = 0.5
    mats = build_system(mesh, dofs, M, s=1.0, abc="naive")
    BC = assemble_b(mesh, dofs, M) + assemble_c(mesh, dofs, M)
    assert abs(mats.BC - BC).max() == 0.0
    assert abs(mats.K - assemble_a(mesh, dofs, M, 1.0)).max() == 0.0


def test_well_posedness_margin_values():
    assert well_posedness_margin(0.5, 1.0) == pytest.approx(0.75)
    assert well_posedness_margin(0.5, 0.2) == pytest.approx(-0.05)
    assert well_posedness_margin(0.9, 2.0) == pytest.approx(0.19)
    assert well_posedness_margin(0.0, 1.0) == pytest.approx(1.0)

