"""Convergence, reflection and contrast studies on reduced budgets.

The full-size versions of these runs live in the acceptance suite; here
the levels are trimmed so the whole module stays in the seconds range.
"""

import dataclasses
import os

import numpy as np
import pytest

from galbrun import studies
from galbrun.config import ConfigError, RunConfig, load_config
from galbrun.dynamics import EnergyRecord, Stable, Unstable
from galbrun.studies import (
    ContrastReport,
    ConvergenceReport,
    ReflectionLevel,
    ReflectionReport,
    cmd_abc_reflection,
    cmd_convergence,
    cmd_stability_contrast,
    growth_over_final_decade,
    manufactured_case,
    reflection_base_config,
    spatial_convergence,
    temporal_convergence,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


# ---------------------------------------------------------------------------
# manufactured solution


def test_manufactured_field_satisfies_closed_box_conditions():
    case = manufactured_case(M=0.4, s=1.0)
    yline = np.linspace(-1.0, 1.0, 7)
    left = np.stack([np.full_like(yline, -1.0), yline], axis=-1)
    right = np.stack([np.full_like(yline, 1.0), yline], axis=-1)
    bottom = np.stack([yline, np.full_like(yline, -1.0)], axis=-1)
    top = np.stack([yline, np.full_like(yline, 1.0)], axis=-1)
    t = 0.37
    assert np.allclose(case.xi(left, t)[:, 0], 0.0, atol=1e-14)
    assert np.allclose(case.xi(right, t)[:, 0], 0.0, atol=1e-14)
    assert np.allclose(case.xi(bottom, t)[:, 1], 0.0, atol=1e-14)
    assert np.allclose(case.xi(top, t)[:, 1], 0.0, atol=1e-14)


def test_manufactured_field_is_curl_free():
    # gradient fields have zero curl; checked by central differences
    case = manufactured_case(M=0.4, s=1.0)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.9, 0.9, size=(40, 2))
    d = 1e-5
    ex, ey = np.array([d, 0.0]), np.array([0.0, d])
    t = 0.52
    curl = (case.xi(pts + ex, t)[:, 1] - case.xi(pts - ex, t)[:, 1]) / (2 * d) - (
        case.xi(pts + ey, t)[:, 0] - case.xi(pts - ey, t)[:, 0]
    ) / (2 * d)
    assert np.max(np.abs(curl)) < 1e-8


def test_manufactured_velocity_matches_time_derivative():
    case = manufactured_case(M=0.4, s=1.0)
    pts = np.array([[0.3, -0.2], [-0.5, 0.6]])
    t, d = 0.8, 1e-6
    fd = (case.xi(pts, t + d) - case.xi(pts, t - d)) / (2 * d)
    assert np.allclose(case.xi_t(pts, t), fd, atol=1e-7)


def second_derivative(field, pts, t, a, b, d=1e-3):
    """Central difference of d^2 field / dz_a dz_b, z = (x, y, t)."""
    ea, eb = d * np.eye(3)[a], d * np.eye(3)[b]

    def at(shift):
        return field(pts + shift[:2], t + shift[2])

    return (at(ea + eb) - at(ea - eb) - at(eb - ea) + at(-ea - eb)) / (4 * d * d)


@pytest.mark.parametrize("s", [0.0, 1.0])
@pytest.mark.parametrize("M", [0.0, 0.4])
def test_manufactured_forcing_matches_operator_by_differences(M, s):
    # The two hand-written loads must sum to
    # (d/dt + M d/dx)^2 xi - grad div xi + s curl curl xi, the operator
    # applied to xi by central differences; curl of a scalar c is
    # (dc/dy, -dc/dx).
    case = manufactured_case(M=M, s=s)
    pts = np.random.default_rng(12).uniform(-0.95, 0.95, size=(50, 2))
    x, y, tt = 0, 1, 2
    for t in (0.0, 0.37, 1.1):
        D = {
            (a, b): second_derivative(case.xi, pts, t, a, b)
            for a, b in ((x, x), (x, y), (y, y), (x, tt), (tt, tt))
        }
        transport = D[tt, tt] + 2 * M * D[x, tt] + M * M * D[x, x]
        grad_div = np.stack(
            [D[x, x][:, 0] + D[x, y][:, 1], D[x, y][:, 0] + D[y, y][:, 1]], axis=-1
        )
        curl_curl = np.stack(
            [D[x, y][:, 1] - D[y, y][:, 0], D[x, y][:, 0] - D[x, x][:, 1]], axis=-1
        )
        want = transport - grad_div + s * curl_curl
        got = sum(f(pts) * p(t) for f, p in case.loads)
        assert np.abs(got - want).max() < 1e-5 * np.abs(want).max()


def test_spatial_convergence_second_order():
    rep = spatial_convergence(levels=(8, 16, 32))
    assert all(b < a for a, b in zip(rep.errors, rep.errors[1:]))
    assert 1.7 <= rep.order <= 2.3


def test_temporal_convergence_second_order():
    rep = temporal_convergence(n=16, halvings=3)
    assert all(b < a for a, b in zip(rep.errors, rep.errors[1:]))
    assert 1.7 <= rep.order <= 2.3


def test_convergence_requires_three_levels():
    with pytest.raises(ConfigError):
        spatial_convergence(levels=(8, 16))
    with pytest.raises(ConfigError):
        temporal_convergence(halvings=2)
    with pytest.raises(ConfigError):
        cmd_convergence(None, levels=(8,))


def test_convergence_report_carries_level_and_dt():
    rep = spatial_convergence(levels=(4, 8, 16), t_end=0.2)
    text = rep.text()
    assert "observed order" in text
    assert "n =   4" in text and "dt = " in text and "h = " in text


def test_convergence_report_flags_unstable_level():
    rep = ConvergenceReport(
        "spatial",
        ("n =   8 (dt = 0.1)", "n =  16 (dt = 0.05)", "n =  32 (dt = 0.025)"),
        (0.25, 0.125, 0.0625),
        (1e-2, 2.5e-3, 6.25e-4),
        (Stable(5), Unstable(7), Stable(20)),
    )
    lines = rep.text().splitlines()
    flagged = [line for line in lines if "[warning" in line]
    assert flagged == [lines[2]]
    assert lines[2].endswith("error = 2.500000e-03  [warning: Unstable at step 7]")
    assert rep.order == pytest.approx(2.0)


def test_default_convergence_levels_are_stable_and_unmarked():
    # Every level of the default study ends Stable, so its text is the
    # unmarked one: a row per level, then the observed order.
    study = cmd_convergence()
    for rep in (study.spatial, study.temporal):
        assert all(isinstance(status, Stable) for status in rep.statuses)
        name = "h" if rep.kind == "spatial" else "dt"
        want = [f"{rep.kind} convergence (relative L2 at t_end):"]
        want += [
            f"  {label}: {name} = {s:.6g}, error = {e:.6e}"
            for label, s, e in zip(rep.labels, rep.steps, rep.errors)
        ]
        want.append(f"  observed order: {rep.order:.3f}")
        assert rep.text() == "\n".join(want)
    # The reference runs 32 times the 16 steps of the coarsest level.
    assert study.temporal.reference == Stable(steps=512)


def test_temporal_report_flags_unstable_reference(monkeypatch):
    # Every temporal error is measured against the reference run, so a
    # reference that ended Unstable marks the report, on a line of its own.
    solve, calls = studies._mms_solve, []

    def reference_unstable(case, mesh, n_steps, t_end):
        x, status, p, dofs = solve(case, mesh, n_steps, t_end)
        calls.append(n_steps)
        return x, Unstable(9) if len(calls) == 1 else status, p, dofs

    monkeypatch.setattr(studies, "_mms_solve", reference_unstable)
    rep = temporal_convergence(n=6)
    assert calls[0] == 32 * calls[1]  # the reference, first
    assert rep.reference == Unstable(9)
    assert all(isinstance(status, Stable) for status in rep.statuses)
    lines = rep.text().splitlines()
    assert [line for line in lines if "[warning" in line] == [
        "  reference run  [warning: Unstable at step 9]"
    ]
    assert lines[-1].startswith("  observed order: ")


# ---------------------------------------------------------------------------
# reflection


def test_reflection_shrinks_under_refinement():
    rep = cmd_abc_reflection(levels=((80, 10), (160, 20)))
    assert isinstance(rep.levels[0].status, Stable)
    assert rep.levels[1].rho < rep.levels[0].rho < 0.05
    assert rep.levels[0].dt > rep.levels[1].dt > 0.0
    assert "rho = " in rep.text() and "dt = " in rep.text()


def test_reflection_closed_box_reflects_everything():
    # The closed box needs M = 0; the pulse then returns to the probe at
    # t = 7 and has passed it by t = 9.
    cfg = dataclasses.replace(reflection_base_config(), abc="none", M=0.0, t_end=9.0)
    rep = cmd_abc_reflection(cfg, levels=((80, 10),))
    assert rep.levels[0].rho > 0.5


def test_reflection_drops_a_configured_source_and_start():
    # exp1 runs a rotational source from rest; the study keeps neither, so
    # the source's wake is not read as reflection.
    exp1 = load_config(os.path.join(CONFIG_DIR, "exp1_rotational.cfg"))
    got = cmd_abc_reflection(dataclasses.replace(exp1, t_end=8.0), levels=((80, 10),))
    plain = dataclasses.replace(exp1, t_end=8.0, source_kind="none")
    want = cmd_abc_reflection(plain, levels=((80, 10),))
    assert got.levels[0].rho == want.levels[0].rho < 0.01


def test_reflection_errors_when_pulse_cannot_return():
    cfg = dataclasses.replace(reflection_base_config(), t_end=3.0)
    with pytest.raises(ConfigError, match="increase t_end"):
        cmd_abc_reflection(cfg)


def test_reflection_report_flags_unstable_level():
    lv = ReflectionLevel(
        nx=80,
        ny=10,
        dt=0.01,
        rho=float("nan"),
        status=Unstable(7),
    )
    rep = ReflectionReport(
        levels=(lv,), probe=(3.0, 0.0), passage_window=(1.0, 4.0), post_window=(5.0, 8.0)
    )
    assert "[warning: Unstable at step 7]" in rep.text()


# ---------------------------------------------------------------------------
# contrast


def _records(energies):
    return [EnergyRecord(step=i, t=0.01 * i, E=e, kinetic=e, flux=0.0, status="ok")
            for i, e in enumerate(energies)]


def test_growth_over_final_decade():
    E = [1.0] * 91 + [2.0**k for k in range(10)]  # 101 records, 10x window
    g = growth_over_final_decade(_records(E))
    assert g == pytest.approx(2.0**9 / 1.0)
    assert growth_over_final_decade(_records([1.0] * 50 + [float("inf")])) == float(
        "inf"
    )


def test_contrast_without_flow_reports_no_contrast(tmp_path):
    # M = 0 kills the convective term, so s = 0 is as stable as s = 1 and
    # the verdict must honestly say the contrast is absent.
    base = RunConfig(
        R=2.0,
        h=1.0,
        nx=24,
        ny=8,
        t_end=1.0,
        snapshot_times=(),
        M=0.0,
        source_kind="rotational",
        source_width=0.3,
        time_t0=0.3,
        time_sigma=0.1,
    )
    rep = cmd_stability_contrast(base, out_dir=str(tmp_path))
    assert rep.regularized.stable and rep.unregularized.stable
    assert not rep.passed
    assert "CONTRAST NOT REPRODUCED" in rep.text()
    assert (tmp_path / "s1" / "energy.csv").exists()
    assert (tmp_path / "s0" / "energy.csv").exists()


def test_contrast_report_text_shape():
    base = RunConfig(nx=16, ny=4, t_end=0.3, snapshot_times=(), M=0.0)
    rep = cmd_stability_contrast(base)
    text = rep.text()
    assert text.startswith("stability contrast: M = 0.0, nx = 16")
    assert "s = 1:" in text and "s = 0:" in text and "dt = " in text
    assert isinstance(rep, ContrastReport)
