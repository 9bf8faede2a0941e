"""Oracle checks for the assembled operators.

The matrix-level identities tested here are what the time integrator's
energy accounting rests on, so they are required to hold to machine
precision, not just to discretization accuracy:

  * sym(Bh) + Ch is the plain boundary mass on Gamma- u Gamma+;
  * Ah(s=1) + Dh equals int |grad xi|^2 - M^2 |dxi/dx|^2 on the
    constrained space;
  * div-div + curl-curl coincides with the gradient stiffness for fields
    vanishing on Gamma- u Gamma+ (exact for P1, the gap is a null
    Lagrangian whose element contributions telescope).
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from galbrun.assembly import (
    SystemMatrices,
    assemble_a,
    assemble_b,
    assemble_c,
    assemble_d,
    assemble_mass,
    build_system,
    minimum_edge_length,
    triangle_gradients,
    triangle_quadrature,
)
from galbrun.mesh import DofMap, DuctGeometry, Mesh, build_dof_map, build_duct_mesh
from galbrun.physics import make_energy_stiffness

from conftest import duct_area, make_free_dofmap, make_single_triangle, traced_peak
from oracles import assemble_boundary_mass, padded_system


def assembled_forms(
    mesh: Mesh, dofs: DofMap, M: float, s: float, abc: str
) -> dict[str, sp.csr_matrix]:
    """Mh and the split forms that the abc variant's K and BC are made of,
    each from its own assemble_* call."""
    forms = {
        "Mh": assemble_mass(mesh, dofs),
        "Ah": assemble_a(mesh, dofs, M, s),
        "Bh": assemble_b(mesh, dofs, M),
    }
    if abc != "none":
        forms["Ch"] = assemble_c(mesh, dofs, M)
    if abc == "stable":
        forms["Dh"] = assemble_d(mesh, dofs)
    return forms


def dense(mat: sp.spmatrix) -> np.ndarray:
    return np.asarray(mat.todense())


def rel_diff(a: sp.spmatrix, b: sp.spmatrix) -> float:
    scale = max(abs(a).max(), abs(b).max(), 1e-300)
    return abs(a - b).max() / scale


def nodal(mesh: Mesh, dofs: DofMap, fx, fy) -> np.ndarray:
    """Dof vector interpolating (fx(x, y), fy(x, y)) at the nodes."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    field = np.column_stack([fx(x, y), fy(x, y)])
    return dofs.restrict(field)


def gamma_zeroed(mesh: Mesh, dofs: DofMap, rng: np.random.Generator) -> np.ndarray:
    """Random dof vector with both components zeroed at Gamma nodes."""
    field = rng.standard_normal((mesh.n_nodes, 2))
    field[mesh.gamma_node_mask()] = 0.0
    return dofs.restrict(field)


# ---------------------------------------------------------------------------
# quadrature and element-level bricks


def test_triangle_quadrature_degree_two_exact():
    # Monomial integrals over the unit reference triangle.
    mesh, _ = make_single_triangle()
    pts, w = triangle_quadrature(mesh)
    exact = {(0, 0): 1 / 2, (1, 0): 1 / 6, (0, 1): 1 / 6,
             (2, 0): 1 / 12, (1, 1): 1 / 24, (0, 2): 1 / 12}
    for (a, b), val in exact.items():
        got = np.sum(w * pts[..., 0] ** a * pts[..., 1] ** b)
        assert got == pytest.approx(val, abs=1e-15)


def test_gradients_reject_clockwise():
    mesh, _ = make_single_triangle()
    flipped = Mesh(
        geometry=mesh.geometry,
        nodes=mesh.nodes,
        triangles=mesh.triangles[:, ::-1].copy(),
        boundary_edges=mesh.boundary_edges,
        boundary_tags=mesh.boundary_tags,
    )
    with pytest.raises(ValueError):
        triangle_gradients(flipped)
    with pytest.raises(ValueError):
        triangle_quadrature(flipped)


def test_quadrature_weights_are_the_gradient_areas():
    # The load vectors take their weights from triangle_quadrature, the
    # operators their areas from triangle_gradients: the same bits.
    mesh = build_duct_mesh(DuctGeometry(R=4.0, h=1.0), 40, 10)
    _, w = triangle_quadrature(mesh)
    _, _, area = triangle_gradients(mesh)
    assert np.array_equal(w, area[:, None] * np.full(3, 1.0 / 3.0))


def test_reference_triangle_gradients():
    mesh, _ = make_single_triangle()
    gx, gy, area = triangle_gradients(mesh)
    assert area[0] == pytest.approx(0.5)
    assert np.allclose(gx[0], [-1.0, 1.0, 0.0])
    assert np.allclose(gy[0], [-1.0, 0.0, 1.0])


def test_minimum_edge_length_small_duct(small_duct):
    _, mesh, _ = small_duct
    assert minimum_edge_length(mesh) == pytest.approx(1.0)


def test_element_mass_block():
    mesh, dofs = make_single_triangle()
    Mh = dense(assemble_mass(mesh, dofs))
    block = (0.5 / 12.0) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=float)
    # Layout is component major (x0, x1, x2, y0, y1, y2): extract
    # per-component views.
    xs, ys = [0, 1, 2], [3, 4, 5]
    assert np.allclose(Mh[np.ix_(xs, xs)], block, atol=1e-15)
    assert np.allclose(Mh[np.ix_(ys, ys)], block, atol=1e-15)
    assert np.allclose(Mh[np.ix_(xs, ys)], 0.0)


def test_mass_spd(medium_duct):
    _, mesh, dofs = medium_duct
    Mh = assemble_mass(mesh, dofs)
    assert rel_diff(Mh, Mh.T) == 0.0
    eig = np.linalg.eigvalsh(dense(Mh))
    assert eig[0] > 0.0
    # Total mass: quadratic form of the constant x-directed field.
    ones = nodal(mesh, dofs, lambda x, y: 1.0 + 0 * x, lambda x, y: 0 * x)
    assert ones @ Mh @ ones == pytest.approx(duct_area(mesh.geometry), rel=1e-13)


# ---------------------------------------------------------------------------
# volume stiffness


def test_a_symmetric_and_constant_in_kernel(medium_duct):
    _, mesh, dofs = medium_duct
    for M, s in [(0.0, 1.0), (0.5, 1.0), (0.5, 0.0), (0.3, 2.0)]:
        Ah = assemble_a(mesh, dofs, M, s)
        assert rel_diff(Ah, Ah.T) < 1e-15
        const = nodal(mesh, dofs, lambda x, y: 1.0 + 0 * x, lambda x, y: 0 * x)
        assert np.max(np.abs(Ah @ const)) < 1e-13


def test_a_positive_semidefinite_without_flow(small_duct):
    _, mesh, dofs = small_duct
    Ah = dense(assemble_a(mesh, dofs, M=0.0, s=1.0))
    eig = np.linalg.eigvalsh(Ah)
    assert eig[0] > -1e-12


def test_div_curl_equals_gradient_for_interior_fields():
    # Pinned identity: (div, div) + (curl, curl) == (grad, grad) whenever
    # both components vanish on Gamma- u Gamma+. Exact at machine level.
    rng = np.random.default_rng(11)
    cases = [(2.0, 1.0, 4, 2), (1.5, 0.8, 8, 4), (3.0, 1.2, 12, 6)]
    for R, h, nx, ny in cases:
        mesh = build_duct_mesh(DuctGeometry(R, h), nx, ny)
        dofs = build_dof_map(mesh)
        A0 = assemble_a(mesh, dofs, M=0.0, s=1.0)
        Kg = make_energy_stiffness(mesh, dofs, 0.0)
        for _ in range(5):
            x = gamma_zeroed(mesh, dofs, rng)
            qa, qg = x @ A0 @ x, x @ Kg @ x
            assert abs(qa - qg) <= 1e-10 * max(qa, qg)


def test_a_plus_d_is_gradient_energy():
    # The boundary coupling Dh turns the s = 1 volume form back into the
    # plain (weighted) gradient stiffness on the constrained space.
    for R, h, nx, ny, M in [(2.0, 1.0, 6, 3, 0.5), (1.0, 1.0, 5, 5, -0.3)]:
        mesh = build_duct_mesh(DuctGeometry(R, h), nx, ny)
        dofs = build_dof_map(mesh)
        lhs = assemble_a(mesh, dofs, M, s=1.0) + assemble_d(mesh, dofs)
        rhs = make_energy_stiffness(mesh, dofs, M)
        assert rel_diff(lhs.tocsr(), rhs.tocsr()) < 1e-13


# ---------------------------------------------------------------------------
# convection operator


def test_b_vanishes_without_flow(medium_duct):
    _, mesh, dofs = medium_duct
    assert abs(assemble_b(mesh, dofs, M=0.0)).max() == 0.0


def test_b_pairing_value():
    # Pairing the constant field (1, 0) against (x, 0) integrates
    # 2M dx/dx = 2M over the triangle.
    mesh, dofs = make_single_triangle()
    M = 0.7
    Bh = assemble_b(mesh, dofs, M)
    test_vec = nodal(mesh, dofs, lambda x, y: 1.0 + 0 * x, lambda x, y: 0 * x)
    trial_vec = nodal(mesh, dofs, lambda x, y: x, lambda x, y: 0 * x)
    assert test_vec @ Bh @ trial_vec == pytest.approx(2 * M * 0.5, rel=1e-14)


def test_b_quadratic_form_is_boundary_flux(medium_duct):
    # x^T Bh x = M int_Gamma n_x |xi|^2: zero for interior fields, and the
    # signed boundary mass reproduces it for general ones.
    _, mesh, dofs = medium_duct
    M = 0.5
    Bh = assemble_b(mesh, dofs, M)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = gamma_zeroed(mesh, dofs, rng)
        assert abs(x @ Bh @ x) < 1e-12 * max(1.0, abs(x) @ abs(Bh) @ abs(x))


def test_sym_b_plus_c_is_boundary_mass():
    # The discrete counterpart of the energy identity: the skew part of Bh
    # carries the transport, its symmetric part plus Ch is the unweighted
    # Gamma mass whatever the flow speed or sign.
    for M in (0.5, -0.3, 0.0):
        mesh = build_duct_mesh(DuctGeometry(2.0, 1.0), 8, 4)
        dofs = build_dof_map(mesh)
        Bh = assemble_b(mesh, dofs, M)
        Ch = assemble_c(mesh, dofs, M)
        C0 = assemble_boundary_mass(mesh, dofs)
        sym = 0.5 * (Bh + Bh.T) + Ch
        assert rel_diff(sym.tocsr(), C0) < 1e-13


# ---------------------------------------------------------------------------
# boundary forms


def test_c_weights_by_side(small_duct):
    # Indicator of Gamma+ (resp. Gamma-) has trace one on that side only,
    # so the quadratic form reads off the side weight times the side length.
    geom, mesh, dofs = small_duct
    M = 0.5
    Ch = assemble_c(mesh, dofs, M)
    on_plus = nodal(
        mesh, dofs, lambda x, y: (x == geom.R).astype(float), lambda x, y: 0 * x
    )
    on_minus = nodal(
        mesh, dofs, lambda x, y: (x == -geom.R).astype(float), lambda x, y: 0 * x
    )
    side = 2 * geom.h
    assert on_plus @ Ch @ on_plus == pytest.approx((1 - M) * side, rel=1e-13)
    assert on_minus @ Ch @ on_minus == pytest.approx((1 + M) * side, rel=1e-13)
    # Plain boundary mass of the constant field covers both sides.
    C0 = assemble_boundary_mass(mesh, dofs)
    ones = nodal(mesh, dofs, lambda x, y: 1.0 + 0 * x, lambda x, y: 0 * x)
    assert ones @ C0 @ ones == pytest.approx(2 * side, rel=1e-13)


def test_c_interior_rows_empty(small_duct):
    _, mesh, dofs = small_duct
    Ch = assemble_c(mesh, dofs, 0.4)
    interior = ~mesh.gamma_node_mask()
    rows = dofs.node_dofs[interior]
    rows = rows[rows >= 0]
    assert abs(Ch[rows]).max() == 0.0


def test_d_orientation(small_duct):
    # Pairing (0, y) against the Gamma+ indicator gives -|Gamma+|, against
    # the Gamma- indicator +|Gamma-|; an unconstrained dof map isolates the
    # exact boundary values at the corners.
    geom, mesh, _ = small_duct
    dofs = make_free_dofmap(mesh.n_nodes)
    Dh = assemble_d(mesh, dofs)
    trial = nodal(mesh, dofs, lambda x, y: 0 * x, lambda x, y: y)
    on_plus = nodal(
        mesh, dofs, lambda x, y: (x == geom.R).astype(float), lambda x, y: 0 * x
    )
    on_minus = nodal(
        mesh, dofs, lambda x, y: (x == -geom.R).astype(float), lambda x, y: 0 * x
    )
    side = 2 * geom.h
    assert on_plus @ Dh @ trial == pytest.approx(-side, rel=1e-13)
    assert on_minus @ Dh @ trial == pytest.approx(+side, rel=1e-13)


def test_d_symmetric_with_wall_constraints(small_duct):
    # The endpoint terms of the tangential integration by parts cancel
    # between adjacent edges and die at the corners because the wall
    # constraint removes the y component there.
    _, mesh, dofs = small_duct
    Dh = assemble_d(mesh, dofs)
    assert rel_diff(Dh, Dh.T.tocsr()) < 1e-14
    # Without the corner constraints the form is genuinely asymmetric.
    free = make_free_dofmap(mesh.n_nodes)
    Df = assemble_d(mesh, free)
    assert abs(Df - Df.T).max() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# system wiring


def test_build_system_variants(small_duct):
    _, mesh, dofs = small_duct
    stable = build_system(mesh, dofs, M=0.5, s=1.0, abc="stable")
    naive = build_system(mesh, dofs, M=0.5, s=1.0, abc="naive")
    closed = build_system(mesh, dofs, M=0.5, s=1.0, abc="none")
    assert isinstance(stable, SystemMatrices)
    assert [f.name for f in dataclasses.fields(SystemMatrices)] == [
        "Mh",
        "K",
        "BC",
        "components",
        "gamma",
    ]
    assert stable.components == dofs.components
    # gamma: the free dofs of the nodes on x = +-R, sorted, in every variant.
    on_gamma = np.isclose(np.abs(mesh.nodes[:, 0]), 2.0)
    want = np.sort(dofs.node_dofs[on_gamma].ravel())
    for mats in (stable, naive, closed):
        assert np.array_equal(mats.gamma, want[want >= 0])
    # The closed box keeps only the y dofs there, off the walls' corners.
    box = build_dof_map(mesh, closed_box=True)
    on_wall = np.isclose(np.abs(mesh.nodes[:, 1]), 1.0)
    want = box.node_dofs[on_gamma & ~on_wall, 1]
    assert np.array_equal(build_system(mesh, box, M=0.0, s=1.0, abc="none").gamma, want)
    # naive drops Dh from K, none drops Ch from BC as well.
    assert rel_diff(naive.BC, stable.BC) == 0.0
    assert rel_diff(naive.K, closed.K) == 0.0
    assert rel_diff(stable.K, naive.K) > 0.0
    assert rel_diff(naive.BC, closed.BC) > 0.0
    with pytest.raises(ValueError):
        build_system(mesh, dofs, M=1.0, s=1.0)
    with pytest.raises(ValueError):
        build_system(mesh, dofs, M=0.5, s=1.0, abc="bogus")


@pytest.mark.parametrize("abc", ["stable", "naive", "none"])
def test_assembled_matrices_store_no_zeros(medium_duct, abc):
    # The zero entries of the element blocks, such as the x-y blocks of the
    # per-component forms, would be walked by every product in the step loop.
    _, mesh, _ = medium_duct
    dofs = build_dof_map(mesh, closed_box=(abc == "none"))
    mats = build_system(mesh, dofs, M=0.5, s=1.0, abc=abc)
    stored = {name: getattr(mats, name) for name in ("Mh", "K", "BC")}
    stored.update(assembled_forms(mesh, dofs, 0.5, 1.0, abc))
    stored["boundary mass"] = assemble_boundary_mass(mesh, dofs)
    zeros = {name: int(np.count_nonzero(m.data == 0.0)) for name, m in stored.items()}
    assert zeros == dict.fromkeys(stored, 0)


def test_permutation_invariance():
    # Quadratic forms of interpolated smooth fields must not depend on the
    # node numbering.
    rng = np.random.default_rng(23)
    geom = DuctGeometry(2.0, 1.0)
    base = build_duct_mesh(geom, 6, 3)
    perm = rng.permutation(base.n_nodes)
    new_nodes = np.empty_like(base.nodes)
    new_nodes[perm] = base.nodes
    shuffled = Mesh(
        geometry=geom,
        nodes=new_nodes,
        triangles=perm[base.triangles],
        boundary_edges=perm[base.boundary_edges],
        boundary_tags=base.boundary_tags,
    )
    fields = [
        (lambda x, y: np.sin(x) * np.cos(y), lambda x, y: x * y),
        (lambda x, y: x**2 - y, lambda x, y: np.exp(-(x**2))),
    ]
    M, s = 0.5, 1.0
    dofs_a = build_dof_map(base)
    dofs_b = build_dof_map(shuffled)
    mats_a = build_system(base, dofs_a, M, s)
    mats_b = build_system(shuffled, dofs_b, M, s)
    for name in ("Mh", "K", "BC"):
        Ka = getattr(mats_a, name)
        Kb = getattr(mats_b, name)
        for fx, fy in fields:
            for gx, gy in fields:
                ua, va = nodal(base, dofs_a, fx, fy), nodal(base, dofs_a, gx, gy)
                ub, vb = nodal(shuffled, dofs_b, fx, fy), nodal(shuffled, dofs_b, gx, gy)
                qa, qb = ua @ Ka @ va, ub @ Kb @ vb
                assert qa == pytest.approx(qb, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the pattern scatter against the padded 6x6 oracle, and its footprint


@pytest.mark.parametrize("s", [1.0, 0.0])
@pytest.mark.parametrize(
    "nx, ny, abc",
    [(40, 10, "stable"), (40, 10, "naive"), (40, 10, "none"), (160, 40, "stable")],
)
def test_pattern_scatter_matches_padded_oracle(nx, ny, abc, s):
    # Only the summation order differs, so values agree to 1e-15 of the
    # largest entry. A missing entry counts as zero here, so the patterns
    # may differ only where the oracle's sum is a rounding residue of
    # contributions that cancel (at most 1e-15 of the largest entry).
    mesh = build_duct_mesh(DuctGeometry(4.0, 1.0), nx, ny)
    dofs = build_dof_map(mesh, closed_box=(abc == "none"))
    M = 0.0 if abc == "none" else 0.5
    forms = assembled_forms(mesh, dofs, M, s, abc)
    padded = padded_system(mesh, dofs, M, s, abc)
    assert forms.keys() == padded.keys()
    for name, want in padded.items():
        got = forms[name]
        assert isinstance(got, sp.csr_matrix) and got.has_canonical_format
        scale = abs(want).max()
        assert abs(got - want).max() <= 1e-15 * scale, name


@pytest.mark.parametrize("abc", ["stable", "naive", "none"])
def test_system_operators_are_the_sums_of_the_forms(abc):
    # K = Ah + Dh and BC = Bh + Ch, with the forms of the variant only,
    # bit for bit.
    mesh = build_duct_mesh(DuctGeometry(4.0, 1.0), 40, 10)
    dofs = build_dof_map(mesh, closed_box=(abc == "none"))
    M = 0.0 if abc == "none" else 0.5
    mats = build_system(mesh, dofs, M, 1.0, abc=abc)
    forms = assembled_forms(mesh, dofs, M, 1.0, abc)
    K, BC = forms["Ah"], forms["Bh"]
    if "Dh" in forms:
        K = K + forms["Dh"]
    if "Ch" in forms:
        BC = BC + forms["Ch"]
    for got, want in ((mats.Mh, forms["Mh"]), (mats.K, K), (mats.BC, BC)):
        assert isinstance(got, sp.csr_matrix) and got.has_canonical_format
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))


def test_build_system_traced_peak_per_triangle():
    # The padded 6x6 scatter peaked at about 2,530 B per triangle at 160x40,
    # per-component blocks summed on one scalar pattern at about 880, those
    # blocks formed a chunk of elements at a time at about 510, the CSR
    # filled in place from int32 slots, with K scattered first, at 415, and
    # the column groups laid out only in the fill at 407 (401 at 320x80).
    mesh = build_duct_mesh(DuctGeometry(4.0, 1.0), 160, 40)
    dofs = build_dof_map(mesh)
    peak = traced_peak(lambda: build_system(mesh, dofs, M=0.5, s=1.0))
    assert peak / mesh.n_triangles <= 455


@pytest.mark.parametrize("nx, ny, nnz", [(160, 40, 89_064), (320, 80, 355_968)])
def test_stiffness_stores_no_more_entries(nx, ny, nnz):
    # Entries of K = Ah + Dh as the padded 6x6 assembly stored them; K is
    # multiplied every time step, so the scatter must not grow it.
    mesh = build_duct_mesh(DuctGeometry(4.0, 1.0), nx, ny)
    mats = build_system(mesh, build_dof_map(mesh), M=0.5, s=1.0)
    assert abs(mats.K.nnz - nnz) <= 0.01 * nnz
