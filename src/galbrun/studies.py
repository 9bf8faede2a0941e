"""Verification studies behind the CLI subcommands.

Three studies, each returning a small report object with a text() method;
every run steps through galbrun.dynamics.march and keeps its verdict:

  * cmd_convergence: manufactured-solution L2 orders, spatial and temporal;
  * cmd_abc_reflection: reflection coefficient of the absorbing boundary
    under simultaneous mesh and time-step refinement;
  * cmd_stability_contrast: the regularized vs unregularized run pair.

The manufactured field is grad[(1-x^2)^2 (1-y^2)^2] cos(omega t) on the
closed box [-1,1]^2. Being a gradient it is curl free, its normal
component vanishes on all four sides, and its x derivative of the
tangential component vanishes on the vertical sides, so it satisfies
every essential and natural condition of the closed-box weak form. Its
forcing, the full operator applied to it, is written by hand as two
separable loads, one modulated by cos(omega t) and one by sin(omega t).
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from galbrun.assembly import build_system
from galbrun.config import ConfigError, RunConfig
from galbrun.dynamics import (
    Problem,
    RunResult,
    Stable,
    Unstable,
    march,
    plan_time_step,
    run_simulation,
    snap_time_step,
    status_text,
)
from galbrun.mesh import DofMap, DuctGeometry, Mesh, build_dof_map, build_duct_mesh
from galbrun.physics import Load, RhsAssembler


# ---------------------------------------------------------------------------
# manufactured-solution convergence


@dataclass(frozen=True)
class MmsCase:
    """Vectorized exact solution, its velocity and the separable loads of
    the matching forcing."""

    xi: Callable[[np.ndarray, float], np.ndarray]
    xi_t: Callable[[np.ndarray, float], np.ndarray]
    loads: tuple[Load, Load]
    M: float
    s: float


_X = Polynomial([1.0, 0.0, -2.0, 0.0, 1.0])  # X(z) = (1 - z^2)^2


def _grad_bump(pts: np.ndarray, i: int, j: int) -> np.ndarray:
    """d^i/dx^i d^j/dy^j grad b at (..., 2) points, b = X(x) X(y)."""
    x, y = pts[..., 0], pts[..., 1]
    return np.stack(
        [_X.deriv(i + 1)(x) * _X.deriv(j)(y), _X.deriv(i)(x) * _X.deriv(j + 1)(y)],
        axis=-1,
    )


def manufactured_case(M: float, s: float, omega: float = 2.0) -> MmsCase:
    """xi = grad b cos(omega t) and its forcing as two separable loads.

    xi is a gradient, so curl xi = 0 and the forcing
    (d/dt + M d/dx)^2 xi - grad div xi + s curl curl xi has no s term. It
    splits as f_cos(x) cos(omega t) + f_sin(x) sin(omega t) with

        f_cos = (M^2 - 1) d_xx grad b - d_yy grad b - omega^2 grad b,
        f_sin = -2 M omega d_x grad b.
    """

    def xi(pts: np.ndarray, t: float) -> np.ndarray:
        return math.cos(omega * t) * _grad_bump(pts, 0, 0)

    def xi_t(pts: np.ndarray, t: float) -> np.ndarray:
        return -omega * math.sin(omega * t) * _grad_bump(pts, 0, 0)

    def f_cos(pts: np.ndarray) -> np.ndarray:
        return (
            (M * M - 1.0) * _grad_bump(pts, 2, 0)
            - _grad_bump(pts, 0, 2)
            - omega * omega * _grad_bump(pts, 0, 0)
        )

    def f_sin(pts: np.ndarray) -> np.ndarray:
        return -2.0 * M * omega * _grad_bump(pts, 1, 0)

    loads = (
        (f_cos, lambda t: math.cos(omega * t)),
        (f_sin, lambda t: math.sin(omega * t)),
    )
    return MmsCase(xi=xi, xi_t=xi_t, loads=loads, M=M, s=s)


def _mms_solve(
    case: MmsCase, mesh: Mesh, n_steps: int, t_end: float
) -> tuple[np.ndarray, Stable | Unstable, Problem, DofMap]:
    """(x at t_end, verdict, problem, dofs) of n_steps steps on the closed box."""
    dofs = build_dof_map(mesh, closed_box=True)
    mats = build_system(mesh, dofs, case.M, case.s, abc="none")
    rhs = RhsAssembler(mesh, dofs, case.loads, case.s)
    xi0 = dofs.restrict(case.xi(mesh.nodes, 0.0))
    zeta0 = dofs.restrict(case.xi_t(mesh.nodes, 0.0))
    p = Problem(mats, t_end / n_steps, n_steps, rhs, xi0, None, zeta0)
    status, _, state = march(p)
    return state.xi_curr, status, p, dofs


def _warning(status: Stable | Unstable) -> str:
    return "" if isinstance(status, Stable) else f"  [warning: {status_text(status)}]"


@dataclass(frozen=True)
class ConvergenceReport:
    kind: str  # "spatial" or "temporal"
    labels: tuple[str, ...]
    steps: tuple[float, ...]  # h or dt per level
    errors: tuple[float, ...]
    statuses: tuple[Stable | Unstable, ...]  # each level's run
    reference: Stable | Unstable | None = None  # the temporal study's reference

    @property
    def order(self) -> float:
        """The slope of log error against log step over the levels."""
        return float(np.polyfit(np.log(self.steps), np.log(self.errors), 1)[0])

    def text(self) -> str:
        name = "h" if self.kind == "spatial" else "dt"
        lines = [f"{self.kind} convergence (relative L2 at t_end):"]
        rows = zip(self.labels, self.steps, self.errors, self.statuses)
        for label, s, e, status in rows:
            note = _warning(status)
            lines.append(f"  {label}: {name} = {s:.6g}, error = {e:.6e}{note}")
        if isinstance(self.reference, Unstable):
            lines.append(f"  reference run{_warning(self.reference)}")
        lines.append(f"  observed order: {self.order:.3f}")
        return "\n".join(lines)


def spatial_convergence(
    levels: tuple[int, ...] = (8, 16, 32),
    M: float = 0.4,
    s: float = 1.0,
    cfl: float = 0.3,
    t_end: float = 0.5,
) -> ConvergenceReport:
    """Refine the mesh with dt tied to h, so both error terms scale as h^2.

    A fit needs three distinct levels, and each level needs n >= 3: at
    n = 2 the only free node is the centre, where xi vanishes.
    """
    if len(set(levels)) < 3 or min(levels) < 3:
        raise ConfigError(
            "convergence study needs at least 3 levels, all different and each "
            f"at least 3; got {levels}"
        )
    case = manufactured_case(M, s)
    rows = []
    for n in levels:
        mesh = build_duct_mesh(DuctGeometry(1.0, 1.0), n, n)
        _, n_steps = snap_time_step(plan_time_step(mesh, M, cfl), t_end)
        xi, status, p, dofs = _mms_solve(case, mesh, n_steps, t_end)
        exact = dofs.restrict(case.xi(mesh.nodes, t_end))
        err, Mh = xi - exact, p.mats.Mh
        error = math.sqrt((err @ (Mh @ err)) / (exact @ (Mh @ exact)))
        rows.append((f"n = {n:3d} (dt = {p.dt:.6g})", 2.0 / n, error, status))
    return ConvergenceReport("spatial", *zip(*rows))


def temporal_convergence(
    n: int = 16,
    halvings: int = 3,
    ref_factor: int = 32,
    M: float = 0.4,
    s: float = 1.0,
    cfl: float = 0.3,
    t_end: float = 0.5,
) -> ConvergenceReport:
    """Halve dt on a fixed mesh against a much finer-dt reference, which
    cancels the spatial error and exposes the time discretization alone."""
    if halvings < 3:
        raise ConfigError("convergence study needs at least 3 levels")
    case = manufactured_case(M, s)
    mesh = build_duct_mesh(DuctGeometry(1.0, 1.0), n, n)
    _, n0 = snap_time_step(plan_time_step(mesh, M, cfl), t_end)
    ref, ref_status, p, _ = _mms_solve(case, mesh, n0 * ref_factor, t_end)
    scale = math.sqrt(ref @ (p.mats.Mh @ ref))

    rows = []
    for k in range(halvings):
        xi, status, p, _ = _mms_solve(case, mesh, n0 * 2**k, t_end)
        diff = xi - ref
        error = math.sqrt(diff @ (p.mats.Mh @ diff)) / scale
        rows.append((f"n = {n:3d} (dt = {p.dt:.6g})", p.dt, error, status))
    return ConvergenceReport("temporal", *zip(*rows), reference=ref_status)


@dataclass(frozen=True)
class ConvergenceStudy:
    spatial: ConvergenceReport
    temporal: ConvergenceReport

    def text(self) -> str:
        return self.spatial.text() + "\n" + self.temporal.text() + "\n"


def cmd_convergence(
    config: RunConfig | None = None, levels: tuple[int, ...] = (8, 16, 32)
) -> ConvergenceStudy:
    """Manufactured-solution study; M, s and cfl_safety come from config.

    The study always runs on its own closed unit box, whatever geometry the
    config carries, because the manufactured field is tied to that domain.
    """
    cfg = config if config is not None else RunConfig(M=0.4)
    return ConvergenceStudy(
        spatial=spatial_convergence(levels, M=cfg.M, s=cfg.s, cfl=cfg.cfl_safety),
        temporal=temporal_convergence(
            M=cfg.M, s=cfg.s, cfl=cfg.cfl_safety
        ),
    )


# ---------------------------------------------------------------------------
# absorbing-boundary reflection


DEFAULT_REFLECTION_LEVELS = ((80, 10), (160, 20), (320, 40))


def reflection_base_config() -> RunConfig:
    """Right-moving plane pulse launched upstream of the domain center."""
    return RunConfig(
        t_end=8.0, source_kind="none", init_kind="plane_pulse", init_center_x=-2.0
    )


@dataclass(frozen=True)
class ReflectionLevel:
    nx: int
    ny: int
    dt: float
    rho: float
    status: Stable | Unstable


@dataclass(frozen=True)
class ReflectionReport:
    levels: tuple[ReflectionLevel, ...]
    probe: tuple[float, float]
    passage_window: tuple[float, float]
    post_window: tuple[float, float]

    def text(self) -> str:
        lines = [
            "absorbing-boundary reflection study "
            f"(probe at {self.probe}, passage window "
            f"[{self.passage_window[0]:.2f}, {self.passage_window[1]:.2f}], "
            f"post-exit window [{self.post_window[0]:.2f}, {self.post_window[1]:.2f}]):"
        ]
        for lv in self.levels:
            lines.append(
                f"  nx = {lv.nx:3d}, ny = {lv.ny:3d}, dt = {lv.dt:.6g}: "
                f"rho = {lv.rho:.6e}{_warning(lv.status)}"
            )
        return "\n".join(lines) + "\n"


def cmd_abc_reflection(
    config: RunConfig | None = None,
    levels: tuple[tuple[int, int], ...] = DEFAULT_REFLECTION_LEVELS,
) -> ReflectionReport:
    """Measure the reflection coefficient per refinement level.

    rho = (peak probe |xi| after the pulse has left through the downstream
    boundary) / (peak during passage). The probe sits one unit inside the
    downstream boundary on the axis; the observation windows derive from
    the two characteristic speeds. The pulse is the study's only
    excitation: a configured source is dropped, and a configured start
    other than a plane pulse gives way to one launched from x = -R/2.
    """
    base = dataclasses.replace(config or reflection_base_config(), source_kind="none")
    if base.init_kind != "plane_pulse":
        base = dataclasses.replace(
            base,
            init_kind="plane_pulse",
            init_center_x=-base.R / 2,
            init_width=RunConfig.init_width,
        )
    c_out = 1.0 + base.M  # downstream speed of the launched pulse
    c_back = 1.0 - base.M  # speed of anything reflected back upstream
    probe = (base.R - 1.0, 0.0)
    if not -base.R < base.init_center_x < probe[0]:
        raise ConfigError(
            f"init_center_x must lie downstream of the duct's upstream end "
            f"x = {-base.R} and upstream of the probe at x = {probe[0]}"
        )
    spread = 4.0 * base.init_width / c_out
    t_peak = (probe[0] - base.init_center_x) / c_out
    t_exit = (base.R - base.init_center_x) / c_out
    t_reflect = t_exit + (base.R - probe[0]) / c_back
    if t_reflect + spread > base.t_end:
        raise ConfigError(
            f"pulse cannot exit and reflect back to the probe by t_end = "
            f"{base.t_end}; increase t_end to at least {t_reflect + spread:.2f}"
        )
    passage = (max(0.0, t_peak - spread - 0.5), t_peak + spread + 0.5)
    post = (max(passage[1], t_reflect - spread), base.t_end)

    out_levels = []
    for nx, ny in levels:
        cfg = dataclasses.replace(base, nx=nx, ny=ny, snapshot_times=())
        res = run_simulation(cfg, probes=(probe,))
        tvals = np.array([r.t for r in res.records])
        norms = res.probe_norms[:, 0]
        in_passage = (tvals >= passage[0]) & (tvals <= passage[1])
        in_post = (tvals >= post[0]) & (tvals <= post[1])
        peak = float(norms[in_passage].max())
        reflected = float(norms[in_post].max()) if in_post.any() else float("nan")
        out_levels.append(
            ReflectionLevel(
                nx=nx,
                ny=ny,
                dt=res.dt,
                rho=reflected / peak,
                status=res.status,
            )
        )
    return ReflectionReport(
        levels=tuple(out_levels),
        probe=probe,
        passage_window=passage,
        post_window=post,
    )


# ---------------------------------------------------------------------------
# stability contrast


def growth_over_final_decade(records) -> float:
    """Ratio of the last logged kinetic part to the one a tenth of the log
    ago. The kinetic part cannot go negative, unlike E for s != 1."""
    kinetic = [r.kinetic for r in records]
    n = len(kinetic)
    k = max(1, n // 10)
    start = kinetic[n - 1 - k]
    end = kinetic[n - 1]
    if not np.isfinite(end):
        return float("inf")
    return end / max(start, 1e-300)


@dataclass(frozen=True)
class ContrastReport:
    regularized: RunResult  # s = 1
    unregularized: RunResult  # s = 0
    growth_regularized: float
    growth_unregularized: float

    @property
    def passed(self) -> bool:
        return (
            self.regularized.stable
            and self.growth_regularized < 10.0
            and (
                isinstance(self.unregularized.status, Unstable)
                or self.growth_unregularized >= 10.0
            )
        )

    def text(self) -> str:
        cfg = self.regularized.config
        lines = [
            f"stability contrast: M = {cfg.M}, nx = {cfg.nx}, ny = {cfg.ny}, "
            f"dt = {self.regularized.dt:.6g}, t_end = {cfg.t_end}"
        ]
        for name, res, growth in (
            ("s = 1", self.regularized, self.growth_regularized),
            ("s = 0", self.unregularized, self.growth_unregularized),
        ):
            finite = [r.E for r in res.records if np.isfinite(r.E)]
            peak = max(finite) if finite else float("nan")
            lines.append(
                f"  {name}: {status_text(res.status, res.n_steps)}; peak E = {peak:.4e}, "
                f"growth over final decade = {growth:.3e}"
            )
        lines.append(
            "verdict: "
            + (
                "regularized run stable, unregularized run unstable"
                if self.passed
                else "CONTRAST NOT REPRODUCED"
            )
        )
        return "\n".join(lines) + "\n"


def cmd_stability_contrast(
    config_base: RunConfig | None = None, out_dir: str | None = None
) -> ContrastReport:
    """Run the same configuration with s = 1 and s = 0.

    With out_dir given, the two runs' artifacts land in out_dir/s1 and
    out_dir/s0. The default configuration is the default run with
    snapshots near its end.
    """
    if config_base is None:
        config_base = RunConfig(snapshot_times=(1.5, 1.75, 2.0))
    results = {}
    for s in (1.0, 0.0):
        cfg = dataclasses.replace(config_base, s=s)
        sub = os.path.join(out_dir, f"s{int(s)}") if out_dir is not None else None
        results[s] = run_simulation(cfg, out_dir=sub)
    report = ContrastReport(
        regularized=results[1.0],
        unregularized=results[0.0],
        growth_regularized=growth_over_final_decade(results[1.0].records),
        growth_unregularized=growth_over_final_decade(results[0.0].records),
    )
    return report
