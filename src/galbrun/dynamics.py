"""Leapfrog time integration with a reused sparse factorization.

The scheme is the centered three-level discretization

    Mh (x+ - 2 x0 + x-) / dt^2 + BC (x+ - x-) / (2 dt) + K x0 = F(t),

with the mass Mh, damping BC and stiffness K of assembly.build_system,
taken in increment form: with the fixed operator
L = Mh / dt^2 + BC / (2 dt), LU-factorized once, each step solves

    L delta = F(t) - K x0 - BC (x0 - x-) / dt,
    x+ = 2 x0 - x- + delta,

which costs two sparse products, K x0 and BC (x0 - x-). The energy
record of the new pair reuses K x0, d = (x+ - x0) / dt and Mh d from the
step, so a step does three sparse products in all, plus the outflow flux
d^T sym(BC) d on the dofs of Gamma-/+, the only rows where sym(BC) is
non-zero. Mh and BC act on one displacement component at a time (only K
couples the two) and the dofs are numbered one component after the
other, so L is block diagonal on two dof ranges, and each diagonal block
(StepOperator._block) has its own LU (factorize). A process steps a range
of dofs at a time: its rows of K x0 and BC (x0 - x-), of the right-hand
side, its block solves, in place, of the update and of Mh d
(StepOperator._advance). As SuperLU holds the GIL, on large meshes a
forked worker steps the y range while the run steps the x range, and
otherwise the run steps both: same bits, more CPU time.

The logged energy (physics.energy) is the scheme's own: it pairs the
staggered states through K, so the scheme balances it exactly
against the damping and the source work. For s != 1, K need not be
positive and the energy may go negative, so blow-up is judged by its
kinetic part, which cannot. A non-finite update needs no check of its
own: E scales as |x|^2 / dt^2, so it goes non-finite first.

march is the one time loop: it starts, steps, observes and judges a
Problem, which run_simulation builds from a configuration and the
manufactured-solution study (galbrun.studies) from its own loads.
"""

from __future__ import annotations

import math
import mmap
import os
import weakref
from collections.abc import Callable
from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from galbrun.assembly import SystemMatrices, build_system, minimum_edge_length
from galbrun.config import ConfigError, InitKind, RunConfig
from galbrun.mesh import DofMap, Mesh, build_dof_map, build_duct_mesh
from galbrun.output import (
    EnergyRecord,
    vtk_geometry,
    write_energy_log,
    write_snapshot,
)
from galbrun.physics import (
    AbcVariant,
    CausalVorticity,
    RhsAssembler,
    SourceKind,
    SourceSpec,
    boundary_flux,
    energy,
    source_spatial,
)

# A run is Unstable once its kinetic part exceeds this multiple of the
# largest energy logged so far: the energy identity bounds the kinetic part
# by a small multiple of E in a stable run, not in an unstable one.
INSTABILITY_RATIO = 1e12


@dataclass(frozen=True)
class Stable:
    steps: int


@dataclass(frozen=True)
class Unstable:
    step: int


def status_text(status: Stable | Unstable, n_steps: int | None = None) -> str:
    """'Stable after N steps' or 'Unstable at step k', plus ' of n' when
    n_steps is given."""
    if isinstance(status, Stable):
        return f"Stable after {status.steps} steps"
    of = "" if n_steps is None else f" of {n_steps}"
    return f"Unstable at step {status.step}{of}"


@dataclass
class SimState:
    """Two consecutive displacement vectors; step indexes xi_curr.

    K_prev = K xi_prev, d = (xi_curr - xi_prev) / dt and Mh_d = Mh d when
    the step that made this state formed them. A state a StepOperator made
    lives in its buffers, which its next step rewrites: K_prev, d, Mh_d,
    and xi_prev with the new state.
    """

    xi_prev: np.ndarray
    xi_curr: np.ndarray
    step: int
    K_prev: np.ndarray | None = None
    d: np.ndarray | None = None
    Mh_d: np.ndarray | None = None


def factorize(A: sp.spmatrix) -> SuperLU:
    """The LU of A^T, so that lu.solve(b, trans="T") solves A x = b.

    The ordering is minimum degree on A^T + A. The FE matrices here are
    structurally symmetric, which SuperLU's default ordering (COLAMD)
    ignores: at 320x80 the step operator fills to 4.9M entries under it.
    SuperLU's forward solve scatters column updates supernode by supernode;
    its transposed solve (trans="T") gathers them, and on the same factors
    took 0.80 against 1.02 ms at 160x40 and 6.26 against 7.10 ms at 320x80
    (2-core Xeon, one BLAS thread).
    """
    return splu(A.T.tocsc(), permc_spec="MMD_AT_PLUS_A")


def _row_block(A: sp.csr_matrix, r: slice) -> sp.csr_matrix:
    """The rows r of A, on A's own data and indices: only indptr is new."""
    a, b = A.indptr[r.start], A.indptr[r.stop]
    return sp.csr_matrix(
        (A.data[a:b], A.indices[a:b], A.indptr[r.start : r.stop + 1] - a),
        shape=(r.stop - r.start, A.shape[1]),
    )


# Both blocks need this many dofs for a worker (the set-up's break-even).
WORKER_MIN_BLOCK = 3000
_parent_ends: set[int] = set()  # this process's pipe ends to live workers


def _reap(pid: int, *ends: int) -> None:
    """Close this process's pipe ends to worker pid, which then exits; wait."""
    _parent_ends.difference_update(ends)
    for fd in ends:
        os.close(fd)
    if pid:  # 0: the fork failed
        os.waitpid(pid, 0)


class StepOperator:
    """The leapfrog step with L = Mh / dt^2 + BC / (2 dt) factorized, and
    the system's mass Mh, stiffness K and damping BC, held, not copied.

    A process steps the dof range of the blocks it factored (_advance). The
    states sit in a pair of buffers, x_{n-1} in slot k and x_n in slot
    1 - k, and x_{n+1} takes the place of x_{n-1}. The pair, K x_n, d_{n+1}
    (within a step, the right-hand side and then the increment), Mh d_{n+1}
    and the load share one anonymous mmap with the worker process (_fork)
    that, on large meshes, factors the y block and steps the y range while
    this process does the x; otherwise this process steps the whole range.
    close() reaps the worker.
    """

    def __init__(self, mats: SystemMatrices, dt: float):
        self._pid = 0  # the worker's, while it runs
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.Mh, self.K, self.BC = mats.Mh, mats.K, mats.BC
        self.components = blocks = mats.components
        self.dt = dt
        # A process's rows of BC and Mh may reach only its own rows of d.
        for r in blocks:
            for A in (mats.BC, mats.Mh):
                cols = A.indices[A.indptr[r.start] : A.indptr[r.stop]]
                if cols.size and not r.start <= cols.min() <= cols.max() < r.stop:
                    raise ValueError(
                        "the mass or damping couples the two displacement components"
                    )
        shared = np.frombuffer(mmap.mmap(-1, 6 * 8 * mats.K.shape[0])).reshape(6, -1)
        # Each process writes its own rows of the load F and of d.
        *self._pair, self._Kx, self._d, self._Mh_d, self._F = shared
        self._phase = 0  # the slot of x_{n-1} at the next step
        cpus = getattr(os, "sched_getaffinity", lambda pid: ())(0)
        large = min(r.stop - r.start for r in blocks) >= WORKER_MIN_BLOCK
        try:
            if len(blocks) == 2 <= len(cpus) and large and hasattr(os, "fork"):
                self._fork(blocks[-1])
                blocks = blocks[:-1]
            self._own(blocks)
            fill = os.read(self._done, 8) if self._pid else b""  # b"" if it died
            self.worker_fill = int.from_bytes(fill, "little")
        except BaseException:
            self.close()
            raise

    def _block(self, r: slice) -> sp.spmatrix:
        """L's diagonal block L[r, r]."""
        # Slice both, then sum: slicing within the sum cost 3 MB more peak RSS.
        Mh, BC = self.Mh[r, r], self.BC[r, r]
        return Mh / self.dt**2 + BC / (2.0 * self.dt)

    def _own(self, blocks: tuple[slice, ...]) -> None:
        """Factor the blocks and take their dof range r and its rows of K, BC
        and Mh (_row_block): what this process steps."""
        # One block at a time, each freed before the next is built, and no
        # full-size L: at 320x80 the peak RSS stayed about 4 MB lower. The
        # fill (568,350 entries at 160x40, 3,164,002 at 320x80) and the
        # solution bits are those of one LU of L, also with the worker.
        self._lu = [(q, factorize(self._block(q))) for q in blocks]
        self._r = r = slice(blocks[0].start, blocks[-1].stop)
        # The row views come after the factors: allocated before them, these
        # and a scratch vector raised the peak RSS at 320x80 by 3 MB.
        self._rows = [_row_block(A, r) for A in (self.K, self.BC, self.Mh)]

    def _fork(self, r: slice) -> None:
        """Fork the worker that factors L[r, r] (_own), sends its fill, then
        steps the range r of the shared buffers, d[r] included (_advance), on
        each command, the phase k in one byte on a pipe, and answers with one
        byte, until its pipe's EOF or any error ends it through os._exit."""
        self._y = r
        (cmd, self._cmd), (self._done, done) = os.pipe(), os.pipe()
        _parent_ends.update((self._cmd, self._done))
        try:
            self._pid = os.fork()
        except BaseException:  # EAGAIN, ENOMEM: no worker to reap
            _reap(0, cmd, self._cmd, self._done, done)
            raise
        if self._pid == 0:
            try:
                for fd in _parent_ends:  # a copy left open would hide its EOF
                    os.close(fd)
                self._own((r,))
                [(_, lu)] = self._lu
                os.write(done, (lu.L.nnz + lu.U.nnz).to_bytes(8, "little"))
                while k := os.read(cmd, 1):
                    self._advance(k[0], self._F)
                    os.write(done, b"\1")
            finally:
                os._exit(0)
        os.close(cmd)
        os.close(done)
        self._reap = weakref.finalize(self, _reap, self._pid, self._cmd, self._done)

    def advance(self, state: SimState, F: np.ndarray) -> SimState:
        """The state one step after state under the load F, in the pair.

        A state other than the pair's own is copied in first. With a worker,
        this process writes F's y rows to the shared load and sends the
        phase, steps the x range, and waits for the y range.
        """
        k = self._phase
        prev, curr = self._pair[k], self._pair[1 - k]
        if state.xi_prev is not prev or state.xi_curr is not curr:
            # Copied first: the state may hold the pair's buffers swapped.
            prev[:], curr[:] = state.xi_prev.copy(), state.xi_curr.copy()
        if self._pid:
            self._F[self._y] = F[self._y]
            os.write(self._cmd, bytes([k]))
        self._advance(k, F)
        if self._pid and not os.read(self._done, 1):
            raise RuntimeError(f"step worker {self._pid} exited")
        self._phase = 1 - k
        return SimState(curr, prev, state.step + 1, self._Kx, self._d, self._Mh_d)

    def _advance(self, k: int, F: np.ndarray) -> None:
        """Step this process's rows r from (x_{n-1}, x_n) in the pair's slots
        (k, 1 - k) to x_{n+1} in slot k, leaving (K x_n)[r], d_{n+1}[r] =
        (x_{n+1} - x_n)[r] / dt and (Mh d_{n+1})[r]. The block solves run in
        place, so d[r] holds the increment x_{n+1} - 2 x_n + x_{n-1} before
        the update. Every product is taken row by row, so the bits are those
        of the full-size products.

        A blown-up state can give inf - inf here; the run's energy check
        reports the non-finite result, so the warning is silenced.
        """
        r, d = self._r, self._d
        prev, curr = self._pair[k], self._pair[1 - k]
        with np.errstate(invalid="ignore", over="ignore"):
            # d[r] holds d_n, the right-hand side, the increment, then d_{n+1}.
            d[r], self._Kx[r] = self.scheme_rhs(prev, curr, F)
            for q, lu in self._lu:
                d[q] = lu.solve(d[q], trans="T")
            prev[r] = 2.0 * curr[r] - prev[r] + d[r]
            d[r] = (prev[r] - curr[r]) / self.dt
            self._Mh_d[r] = self._rows[2] @ d

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """L^{-1} rhs: the step from rest under the load rhs."""
        rest = np.zeros_like(rhs)
        return self.advance(SimState(rest, rest, 0), rhs).xi_curr.copy()

    def close(self) -> None:
        if self._pid:
            self._reap()
            self._pid, self._lu = 0, None  # a later step raises

    def scheme_rhs(
        self, prev: np.ndarray, curr: np.ndarray, F: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """This process's rows r of (F - K x_n - BC (x_n - x_{n-1}) / dt, K x_n):
        the right-hand side of L (x_{n+1} - 2 x_n + x_{n-1}) and the
        stiffness product that the energy of the next pair reuses."""
        r, (K, BC, _) = self._r, self._rows
        Kx = K @ curr
        self._d[r] = (curr[r] - prev[r]) / self.dt
        return F[r] - Kx - BC @ self._d, Kx


def plan_time_step(mesh: Mesh, M: float, cfl_safety: float) -> float:
    """dt = cfl_safety * h_min / (1 + |M|), h_min the shortest edge."""
    if not 0.0 < cfl_safety <= 1.0:
        raise ValueError("cfl_safety must lie in (0, 1]")
    return cfl_safety * minimum_edge_length(mesh) / (1.0 + abs(M))


def snap_time_step(dt_raw: float, t_end: float) -> tuple[float, int]:
    """(dt, n): the fewest steps n of dt = t_end / n <= dt_raw that land
    exactly on t_end."""
    n = max(1, math.ceil(t_end / dt_raw - 1e-12))
    return t_end / n, n


def leapfrog_step(op: StepOperator, state: SimState, F: np.ndarray) -> SimState:
    """Advance one step (StepOperator.advance); the run's energy check
    reports a non-finite state."""
    return op.advance(state, F)


def taylor_first_step(
    op: StepOperator, xi0: np.ndarray, zeta0: np.ndarray, F0: np.ndarray
) -> np.ndarray:
    """Second-order accurate start from displacement and velocity data:

    xi1 = xi0 + dt zeta0 + dt^2/2 Mh^{-1} (F0 - K xi0 - BC zeta0)
    """
    accel = F0 - op.K @ xi0 - op.BC @ zeta0
    for r in op.components:  # Mh is block diagonal, like L
        accel[r] = factorize(op.Mh[r, r]).solve(accel[r], trans="T")
    return xi0 + op.dt * zeta0 + 0.5 * op.dt * op.dt * accel


@dataclass
class RunResult:
    status: Stable | Unstable
    records: list[EnergyRecord]
    dt: float
    n_steps: int
    mesh: Mesh
    dofs: DofMap
    config: RunConfig
    warnings: list[str]
    probe_norms: np.ndarray | None  # (n_records, n_probes)
    final_state: SimState

    @property
    def stable(self) -> bool:
        return isinstance(self.status, Stable)


@dataclass
class Problem:
    """What march steps: the system on a mesh's dofs, n_steps of dt, the load
    F(t) and the start (xi0, xi1), or xi0 and velocity zeta0 if xi1 is None."""

    mesh: Mesh
    dofs: DofMap
    mats: SystemMatrices
    dt: float
    n_steps: int
    rhs: RhsAssembler
    xi0: np.ndarray
    xi1: np.ndarray | None
    zeta0: np.ndarray | None


def march(
    p: Problem, visit: Callable[[int, np.ndarray], None] = lambda step, x: None
) -> tuple[Stable | Unstable, list[EnergyRecord], SimState]:
    """Step p, observe each pair and judge: (status, records, final state).

    Row n >= 1 logs the backward pair at step n; row 0 reuses the starter
    pair, the only difference quotient at t = 0. The flux is d^T sym(BC) d
    on the dofs of Gamma-/+. visit(n, x) sees each row's displacement, xi0
    at row 0. The march stops Unstable, its last row "warned", when E goes
    non-finite or the kinetic part exceeds INSTABILITY_RATIO times the
    largest E logged so far.
    """
    dt = p.dt
    with closing(StepOperator(p.mats, dt)) as op:
        # sym(BC) vanishes off the dofs of Gamma-/+ (to roundoff), and
        # slicing it first makes no full-size matrix.
        gamma = p.dofs.node_dofs[p.mesh.gamma_node_mask()]
        gamma = np.sort(gamma[gamma >= 0])
        BC_gamma = op.BC[gamma][:, gamma]
        flux_mat = 0.5 * (BC_gamma + BC_gamma.T)

        xi0, xi1 = p.xi0, p.xi1
        if xi1 is None:
            xi1 = taylor_first_step(op, xi0, p.zeta0, p.rhs(0.0))
        records: list[EnergyRecord] = []

        def observe(step: int, s: SimState) -> float:
            E, kinetic = energy(s.d, s.Mh_d, s.xi_curr, s.K_prev)
            flux = boundary_flux(s.d[gamma], flux_mat)
            records.append(EnergyRecord(step, step * dt, E, kinetic, flux))
            visit(step, s.xi_curr if step else s.xi_prev)
            return E

        d = (xi1 - xi0) / dt
        state = SimState(xi0, xi1, 1, op.K @ xi0, d, op.Mh @ d)
        peak_E = max(observe(0, state), observe(1, state))
        status: Stable | Unstable = Stable(steps=p.n_steps)
        while state.step < p.n_steps:
            state = leapfrog_step(op, state, p.rhs(state.step * dt))
            E = observe(state.step, state)
            peak_E = max(peak_E, E)
            if not np.isfinite(E) or records[-1].kinetic > INSTABILITY_RATIO * peak_E:
                records[-1] = replace(records[-1], status="warned")
                status = Unstable(state.step)
                break
    # Copied out of the operator's buffers, which it would otherwise keep.
    final = SimState(state.xi_prev.copy(), state.xi_curr.copy(), state.step)
    return status, records, final


def _initial_levels(
    cfg: RunConfig, mesh: Mesh, dofs: DofMap, dt: float
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The run's start (xi0, xi1, zeta0), as Problem holds it."""
    if cfg.init_kind == InitKind.NONE:
        zero = np.zeros(dofs.n_dofs)
        return zero, zero.copy(), None
    if cfg.init_kind == InitKind.PLANE_PULSE:
        # Exact downstream pulse xi = (A exp(-((x - (1 + M) t - x0) / w)^2 / 2), 0).
        def pulse(t: float) -> np.ndarray:
            z = mesh.nodes[:, 0] - (1.0 + cfg.M) * t
            field = np.zeros(mesh.nodes.shape)
            field[:, 0] = cfg.init_amplitude * np.exp(
                -0.5 * ((z - cfg.init_center_x) / cfg.init_width) ** 2
            )
            return dofs.restrict(field)

        return pulse(0.0), pulse(dt), None
    # gradient-of-bump displacement released from rest
    bump = SourceSpec(
        kind=SourceKind.IRROTATIONAL,
        center=(cfg.init_center_x, cfg.init_center_y),
        width=cfg.init_width,
        amplitude=cfg.init_amplitude,
    )
    return dofs.restrict(source_spatial(bump, mesh.nodes)), None, np.zeros(dofs.n_dofs)


def run_simulation(
    cfg: RunConfig,
    out_dir: str | None = None,
    probes: tuple[tuple[float, float], ...] = (),
) -> RunResult:
    """Execute one configured run: build its Problem and march it.

    Writes snapshots, the energy log, a metadata echo and a short report
    into out_dir when given; otherwise only the returned records and
    final state are kept. Partial outputs are preserved when the march
    stops Unstable. A mesh with no free dof raises ConfigError.
    """
    warnings = cfg.validate()
    variant = cfg.abc_variant()

    mesh = build_duct_mesh(cfg.geometry(), cfg.nx, cfg.ny)
    dofs = build_dof_map(mesh, closed_box=(variant == AbcVariant.NONE))
    if dofs.n_dofs == 0:
        raise ConfigError(f"no free dof on a {cfg.nx}x{cfg.ny} mesh, abc = {cfg.abc}")
    mats = build_system(mesh, dofs, cfg.M, cfg.s, abc=variant.value)

    dt, n_steps = snap_time_step(
        plan_time_step(mesh, cfg.M, cfg.cfl_safety), cfg.t_end
    )
    source = cfg.source_spec()
    loads, vorticity = (), None
    if source is not None:
        loads = ((partial(source_spatial, source), source.time_profile),)
        if source.kind == SourceKind.ROTATIONAL and cfg.s != 0.0:
            vorticity = CausalVorticity(source, cfg.M)
    rhs = RhsAssembler(mesh, dofs, loads, cfg.s, vorticity=vorticity)
    start = _initial_levels(cfg, mesh, dofs, dt)
    problem = Problem(mesh, dofs, mats, dt, n_steps, rhs, *start)

    snapshot_steps: dict[int, float] = {}
    for ts in cfg.snapshot_times:
        snapshot_steps.setdefault(min(n_steps, max(0, round(ts / dt))), ts)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        meta = _metadata_text(cfg, mesh, dofs, dt, n_steps, warnings)
        with open(os.path.join(out_dir, "run_metadata.cfg"), "w", newline="\n") as f:
            f.write(meta)

    probe_nodes = np.array(
        [
            np.argmin(np.hypot(mesh.nodes[:, 0] - px, mesh.nodes[:, 1] - py))
            for px, py in probes
        ],
        dtype=np.int64,
    )
    probe_rows: list[np.ndarray] = []
    n_written = 0
    geometry = ""  # the mesh's VTK text, formatted on the first snapshot

    def visit(step: int, x: np.ndarray) -> None:
        nonlocal n_written, geometry
        if probe_nodes.size:
            nodal = dofs.expand(x)[probe_nodes]
            probe_rows.append(np.hypot(nodal[:, 0], nodal[:, 1]))
        if out_dir is None or step not in snapshot_steps:
            return
        if n_written == 0:
            geometry = vtk_geometry(mesh)
        t = step * dt
        name = f"snap_{n_written:03d}_t{t:.6f}.vtk"
        write_snapshot(geometry, dofs.expand(x), t, os.path.join(out_dir, name))
        n_written += 1

    status, records, state = march(problem, visit)

    if out_dir is not None:
        write_energy_log(records, os.path.join(out_dir, "energy.csv"))
        with open(os.path.join(out_dir, "report.txt"), "w", newline="\n") as f:
            f.write(_report_text(status, records, dt, n_steps, warnings))

    return RunResult(
        status=status,
        records=records,
        dt=dt,
        n_steps=n_steps,
        mesh=mesh,
        dofs=dofs,
        config=cfg,
        warnings=warnings,
        probe_norms=np.array(probe_rows) if probe_nodes.size else None,
        final_state=state,
    )


def _metadata_text(
    cfg: RunConfig,
    mesh: Mesh,
    dofs: DofMap,
    dt: float,
    n_steps: int,
    warnings: list[str],
) -> str:
    from galbrun.config import config_to_text

    comments = [
        "run metadata echo; loadable as a config file",
        f"derived: dt = {dt!r}, n_steps = {n_steps}, n_dofs = {dofs.n_dofs}, "
        f"n_nodes = {mesh.n_nodes}, n_triangles = {mesh.n_triangles}",
    ]
    comments += [f"warning: {w}" for w in warnings]
    return config_to_text(cfg, header_comments=tuple(comments))


def _report_text(
    status: Stable | Unstable,
    records: list[EnergyRecord],
    dt: float,
    n_steps: int,
    warnings: list[str],
) -> str:
    finite = [r.E for r in records if np.isfinite(r.E)]
    lines = [f"status: {status_text(status, n_steps)} (dt = {dt!r})"]
    if finite:
        lines.append(
            f"blow-up rule: kinetic part {records[-1].kinetic!r} against "
            f"{INSTABILITY_RATIO:g} x peak energy {max(finite)!r}"
        )
        lines.append(f"final logged energy: {finite[-1]!r}")
    for w in warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"
