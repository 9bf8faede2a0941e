"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Every check exercises the public surface the way a user would (configs,
runs, studies, assembled operators) and pins its tolerance inline. Run
with -s to see the verdict lines as they happen; without -s pytest shows
them for failing criteria only.
"""

import dataclasses
import os
import time

import numpy as np

from galbrun.assembly import (
    assemble_a,
    assemble_b,
    assemble_c,
    assemble_d,
    assemble_mass,
)
from galbrun.config import RunConfig, load_config
from galbrun.dynamics import Stable, Unstable, run_simulation
from galbrun.mesh import DuctGeometry, build_dof_map, build_duct_mesh
from galbrun.physics import CausalVorticity, SourceSpec, TimeProfile, make_energy_stiffness
from galbrun.studies import (
    cmd_abc_reflection,
    cmd_stability_contrast,
    growth_over_final_decade,
    spatial_convergence,
    temporal_convergence,
)

from oracles import AnalyticVorticity, causal_psi, source_curl_spatial

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------


def test_criterion_1_regularization_contrast():
    # s=1 must finish stable with bounded energy; s=0 must either abort or
    # grow at least 10x over the final logged decade. Both under 60 s.
    base = load_config(os.path.join(CONFIG_DIR, "exp1_rotational.cfg"))
    t0 = time.time()
    rep = cmd_stability_contrast(base)
    wall = time.time() - t0
    stable_ok = rep.regularized.stable and rep.growth_regularized < 10.0
    blowup_ok = (
        isinstance(rep.unregularized.status, Unstable)
        or rep.growth_unregularized >= 10.0
    )
    time_ok = wall < 120.0  # two runs, 60 s budget each
    ok = stable_ok and blowup_ok and time_ok
    assert verdict(
        1,
        ok,
        f"s=1 {rep.regularized.status}, growth {rep.growth_regularized:.2e}; "
        f"s=0 {rep.unregularized.status}, growth {rep.growth_unregularized:.2e}; "
        f"wall {wall:.1f}s",
    )


def test_criterion_2_source_free_decay_and_energy_identity():
    # with f=0 and absorbing ends the logged energy must never increase
    # (beyond 1e-8 of its peak per step), and the imbalance
    # (E_{n+1}-E_n)/dt + (flux_n+flux_{n+1})/2 must shrink as O(dt^2).
    def run_at(cfl):
        cfg = RunConfig(
            R=2.0,
            h=1.0,
            nx=64,
            ny=16,
            cfl_safety=cfl,
            t_end=1.0,
            snapshot_times=(),
            M=0.5,
            s=1.0,
            abc="stable",
            source_kind="none",
            init_kind="bump",
            init_width=0.35,
            init_center_x=0.0,
            init_center_y=0.0,
        )
        res = run_simulation(cfg)
        assert isinstance(res.status, Stable)
        E = np.array([r.E for r in res.records])
        fx = np.array([r.flux for r in res.records])
        resid = (E[1:] - E[:-1]) / res.dt + 0.5 * (fx[:-1] + fx[1:])
        return res.dt, float(np.max(np.abs(resid[2:]))), E

    dts, rmaxs = [], []
    decay_ok = True
    for cfl in (0.3, 0.15, 0.075):
        dt, rmax, E = run_at(cfl)
        dts.append(dt)
        rmaxs.append(rmax)
        decay_ok = decay_ok and np.max(np.diff(E[10:])) <= 1e-8 * E.max()
    order = float(np.polyfit(np.log(dts), np.log(rmaxs), 1)[0])
    ok = decay_ok and order >= 1.7
    assert verdict(
        2,
        ok,
        f"monotone decay {decay_ok}, identity residual order {order:.2f} "
        f"(dt {dts[0]:.4g} -> {dts[-1]:.4g}, residual {rmaxs[0]:.2e} -> {rmaxs[-1]:.2e})",
    )


def test_criterion_3_reflection_coefficient_refinement():
    # rho must drop monotonically over three refinements, finest below 2e-2
    rep = cmd_abc_reflection()
    rhos = tuple(lv.rho for lv in rep.levels)
    ok = (
        len(rhos) == 3
        and rhos[0] > rhos[1] > rhos[2]
        and rhos[2] < 0.02
        and all(isinstance(lv.status, Stable) for lv in rep.levels)
    )
    assert verdict(
        3,
        ok,
        "rho = " + ", ".join(f"{r:.3e}" for r in rhos) + f" (finest < 0.02: {rhos[2] < 0.02})",
    )


def test_criterion_4_manufactured_solution_orders():
    # both observed orders must sit in [1.7, 2.3]
    sp = spatial_convergence(levels=(8, 16, 32))
    tm = temporal_convergence(n=16, halvings=3)
    ok = 1.7 <= sp.order <= 2.3 and 1.7 <= tm.order <= 2.3
    assert verdict(
        4, ok, f"spatial order {sp.order:.3f}, temporal order {tm.order:.3f}"
    )


def test_criterion_5_vorticity_transport():
    # (a) the rest-started vorticity must solve the convected second-order
    # equation: the second difference along the characteristic direction
    # minus curl f decays at second order in the probe spacing;
    # (b) for constant curl f = c the value must equal c x^2 / (2 M^2)
    # to 1e-8 relative.
    M = 0.5
    spec = SourceSpec(
        center=(0.0, 0.0),
        width=0.3,
        amplitude=1.0,
        time_profile=TimeProfile(t0=0.4, sigma=0.15),
    )
    vort = CausalVorticity(spec, M, n_nodes=64)
    samples = np.array([[0.6, 0.2], [0.1, -0.25]])
    t = 1.1

    def residual(delta):
        shift = np.zeros_like(samples)
        shift[:, 0] = M * delta
        second = (
            causal_psi(vort, samples + shift, t + delta)
            - 2.0 * causal_psi(vort, samples, t)
            + causal_psi(vort, samples - shift, t - delta)
        ) / delta**2
        rhs = source_curl_spatial(spec, samples) * spec.time_profile(t)
        return float(np.max(np.abs(second - rhs)))

    r1, r2 = residual(0.05), residual(0.025)
    order = float(np.log2(r1 / r2))

    c = 1.3
    psi = AnalyticVorticity(lambda x, y, t: c, M)
    xs = (0.8, -0.6, 1.4)
    rel = max(
        abs(psi.value(x, 0.3, 2.0) - c * x * x / (2 * M * M))
        / (c * x * x / (2 * M * M))
        for x in xs
    )
    ok = order >= 1.7 and rel < 1e-8
    assert verdict(
        5,
        ok,
        f"transport residual order {order:.2f}, constant-curl closed form "
        f"rel err {rel:.2e}",
    )


def test_criterion_6_exact_splitting_identity():
    # div-div + curl-curl must equal the full gradient stiffness, to 1e-10,
    # on fields vanishing at the in/outflow ends, for three distinct meshes
    worst = 0.0
    cases = ((2.0, 1.0, 8, 4), (1.5, 0.8, 12, 6), (3.0, 1.2, 16, 8))
    rng = np.random.default_rng(3)
    for R, h, nx, ny in cases:
        mesh = build_duct_mesh(DuctGeometry(R, h), nx, ny)
        dofs = build_dof_map(mesh)
        A0 = assemble_a(mesh, dofs, M=0.0, s=1.0)  # div-div + curl-curl
        Kg = make_energy_stiffness(mesh, dofs, 0.0)
        on_gamma = np.abs(np.abs(mesh.nodes[:, 0]) - R) < 1e-12
        for _ in range(5):
            field = rng.standard_normal((mesh.nodes.shape[0], 2))
            field[on_gamma] = 0.0
            x = dofs.restrict(field)
            lhs = x @ (A0 @ x)
            rhs = x @ (Kg @ x)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    ok = worst < 1e-10
    assert verdict(6, ok, f"worst relative splitting defect {worst:.2e} on 3 meshes")


def test_criterion_7_operator_structure():
    # symmetry/definiteness/support of the assembled blocks, 1e-12 entrywise
    mesh = build_duct_mesh(DuctGeometry(2.0, 1.0), 16, 8)
    dofs = build_dof_map(mesh)
    M, s = 0.5, 1.0
    Mh = assemble_mass(mesh, dofs).toarray()
    Ah = assemble_a(mesh, dofs, M, s).toarray()
    Ch = assemble_c(mesh, dofs, M).toarray()
    Bh = assemble_b(mesh, dofs, M).toarray()
    Dh = assemble_d(mesh, dofs).toarray()

    mass_sym = np.max(np.abs(Mh - Mh.T))
    mass_spd = float(np.linalg.eigvalsh(Mh).min())
    a_sym = np.max(np.abs(Ah - Ah.T))
    c_sym = np.max(np.abs(Ch - Ch.T))
    c_psd = float(np.linalg.eigvalsh(Ch).min())

    # quadratic form of the convection block vanishes off the in/outflow ends
    on_gamma = np.abs(np.abs(mesh.nodes[:, 0]) - 2.0) < 1e-12
    rng = np.random.default_rng(7)
    b_interior = 0.0
    for _ in range(5):
        field = rng.standard_normal((mesh.nodes.shape[0], 2))
        field[on_gamma] = 0.0
        x = dofs.restrict(field)
        b_interior = max(b_interior, abs(x @ (Bh @ x)))

    # wake coupling must touch in/outflow dofs only
    gamma_dofs = np.zeros(dofs.n_dofs, dtype=bool)
    for node in np.nonzero(on_gamma)[0]:
        for d in dofs.node_dofs[node]:
            if d >= 0:
                gamma_dofs[d] = True
    off = ~gamma_dofs
    d_support = max(
        np.max(np.abs(Dh[off][:, :])) if off.any() else 0.0,
        np.max(np.abs(Dh[:, off])) if off.any() else 0.0,
    )

    tol = 1e-12
    ok = (
        mass_sym <= tol
        and mass_spd > 0.0
        and a_sym <= tol
        and c_sym <= tol
        and c_psd >= -tol
        and b_interior <= tol
        and d_support <= tol
    )
    assert verdict(
        7,
        ok,
        f"mass sym {mass_sym:.1e} spd {mass_spd:.2e}; A sym {a_sym:.1e}; "
        f"C sym {c_sym:.1e} min eig {c_psd:.2e}; interior B form {b_interior:.1e}; "
        f"D off-boundary {d_support:.1e}",
    )


def test_criterion_8_closed_box_conservation():
    # M=0, no boundary terms: staggered energy must be conserved to a
    # relative drift below 1e-10 per step across ten thousand steps
    cfg = RunConfig(
        R=1.0,
        h=1.0,
        nx=6,
        ny=6,
        cfl_safety=0.35,
        t_end=0.0,  # replaced below via dt * n_steps
        snapshot_times=(),
        M=0.0,
        s=1.0,
        abc="none",
        source_kind="none",
        init_kind="bump",
        init_width=0.4,
    )
    n_steps = 10_000
    # pick t_end so the planner lands exactly on n_steps
    probe = dataclasses.replace(cfg, t_end=1.0)
    from galbrun.dynamics import plan_time_step

    mesh = build_duct_mesh(probe.geometry(), probe.nx, probe.ny)
    dt_raw = plan_time_step(mesh, probe.M, probe.cfl_safety)
    cfg = dataclasses.replace(cfg, t_end=n_steps * dt_raw)
    res = run_simulation(cfg)
    E = np.array([r.E for r in res.records])
    E0 = E[1]
    steps = np.arange(len(E))
    drift = np.abs(E[1:] - E0) / (E0 * steps[1:])
    worst = float(drift.max())
    ok = isinstance(res.status, Stable) and worst < 1e-10
    assert verdict(
        8, ok, f"{res.n_steps} steps, worst relative drift per step {worst:.2e}"
    )


def test_criterion_9_naive_boundary_blows_up():
    # identical source-free configuration: the stable variant must finish,
    # the naive variant must abort with a detected instability
    common = dict(
        R=4.0,
        h=1.0,
        nx=80,
        ny=20,
        cfl_safety=0.35,
        t_end=100.0,
        snapshot_times=(),
        M=0.5,
        s=1.0,
        source_kind="none",
        init_kind="bump",
        init_width=0.35,
        init_center_x=0.0,
        init_center_y=0.0,
    )
    res_stable = run_simulation(RunConfig(abc="stable", **common))
    res_naive = run_simulation(RunConfig(abc="naive", **common))
    grew = growth_over_final_decade(res_naive.records)
    ok = isinstance(res_stable.status, Stable) and isinstance(
        res_naive.status, Unstable
    )
    assert verdict(
        9,
        ok,
        f"stable: {res_stable.status}; naive: {res_naive.status} "
        f"(final-decade growth {grew:.2e}) over {res_naive.n_steps} planned steps",
    )
