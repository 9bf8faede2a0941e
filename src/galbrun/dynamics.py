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
side, its block solves, in place, of the update and of Mh d, and each
block's partials of the record (StepOperator._advance), which the step
sums in block order. As SuperLU holds the GIL, on large meshes one forked
worker steps each block while the run builds the next step's load, and
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

import ctypes
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

from galbrun.assembly import AbcVariant, SystemMatrices, build_system, minimum_edge_length
from galbrun.config import ConfigError, InitKind, RunConfig, config_to_text
from galbrun.mesh import DofMap, Mesh, build_dof_map, build_duct_mesh
from galbrun.output import (
    EnergyRecord,
    vtk_geometry,
    write_energy_log,
    write_probe_log,
    write_snapshot,
)
from galbrun.physics import (
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

    observed is the pair's (E, kinetic, flux) (StepOperator.observe) when
    the step that made the state formed it. A state a StepOperator made
    lives in its buffers, whose next step overwrites xi_prev with the new
    state.
    """

    xi_prev: np.ndarray
    xi_curr: np.ndarray
    step: int
    observed: tuple[float, float, float] | None = None


def factorize(A: sp.spmatrix) -> SuperLU:
    """The LU of A^T, so that lu.solve(b, trans="T") solves A x = b.

    The ordering is minimum degree on A^T + A. The FE matrices here are
    structurally symmetric, which SuperLU's default ordering (COLAMD)
    ignores: at 320x80 the step operator fills to 4.9M entries under it.
    SuperLU's forward solve scatters column updates supernode by supernode;
    its transposed solve (trans="T") gathers them, and on the same factors
    took 0.80 against 1.02 ms at 160x40 and 6.26 against 7.10 ms at 320x80
    (2-core Xeon, one BLAS thread).

    The panels are one column wide, not SuperLU's default 20, whose
    workspace grows with the panel width. On the step operator's two blocks
    at 320x80 the fill stays 1,648,410 + 1,598,418 entries and the solve
    2.4-3.0 ms a block (within 5%), factoring takes 49-60 ms a block
    instead of 79-95, and a step worker's peak above the fork falls from
    14.2-14.6 to 6.9-7.6 MB. The width changes the factor's rounding only.
    """
    return splu(A.T.tocsc(), permc_spec="MMD_AT_PLUS_A", panel_size=1)


def _row_block(A: sp.csr_matrix, r: slice) -> sp.csr_matrix:
    """The rows r of A, on A's own data and indices: only indptr is new."""
    a, b = A.indptr[r.start], A.indptr[r.stop]
    return sp.csr_matrix(
        (A.data[a:b], A.indices[a:b], A.indptr[r.start : r.stop + 1] - a),
        shape=(r.stop - r.start, A.shape[1]),
    )


def _diagonal_block(A: sp.csr_matrix, r: slice) -> sp.csr_matrix:
    """A[r, r] of an A whose rows r reach only the columns r, on A's own
    data: only the shifted indices and indptr are new."""
    rows = _row_block(A, r)
    return sp.csr_matrix(
        (rows.data, rows.indices - r.start, rows.indptr), shape=(r.stop - r.start,) * 2
    )


# Both blocks need this many dofs for the workers: the break-even when one worker
# served one block. Now in process wins at 160x40 (6.3k a block), workers at 240x60 (14.2k).
WORKER_MIN_BLOCK = 3000
_parent_ends: set[int] = set()  # this process's pipe ends to live workers


@dataclass(frozen=True)
class _Worker:
    """A forked process that steps one block (StepOperator._fork), and this
    process's ends of its command and reply pipes."""

    pid: int
    block: int  # the index of its dof range in StepOperator.components
    cmd: int
    done: int


def _trim_heap() -> None:
    """Return the heap's free pages to the system (glibc's malloc_trim), so
    that a forked worker does not start with them resident; elsewhere
    nothing: 3.1-4.0 MB at 320x80, about 1 MB off the workers' peak."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def _reap(workers: list[_Worker]) -> None:
    """Close this process's pipe ends to the workers, which then exit; wait
    for each."""
    for w in workers:
        _parent_ends.difference_update((w.cmd, w.done))
        os.close(w.cmd)
        os.close(w.done)
    for w in workers:
        os.waitpid(w.pid, 0)
    workers.clear()


class StepOperator:
    """The leapfrog step with L = Mh / dt^2 + BC / (2 dt) factorized, and
    the system's mass Mh, stiffness K and damping BC, held, not copied.

    A process steps the dof range of the blocks it factored and writes each
    block's (E, kinetic, flux) partials (_advance); the step's record sums
    them in block order. The states sit in a pair of buffers, x_{n-1} in
    slot k and x_n in slot 1 - k, and x_{n+1} takes the place of x_{n-1}.
    The pair, K x_n, d_{n+1} (within a step, the right-hand side and then
    the increment), Mh d_{n+1}, the partials and two load slots, by phase,
    share one anonymous mmap with the worker processes (_fork) that, on
    large meshes, factor and step one block each, while this process
    builds the next step's load (advance); otherwise this process steps
    every block, then builds that load. load, when given, is the load F(t)
    a step at time t takes. start, when given, is the Taylor start's state
    (xi0, zeta0) (taylor_first_step): whichever process factors a block
    first solves that block of Mh a = F(0) - K xi0 - BC zeta0, and a is
    then start_accel. close() reaps the workers.
    """

    def __init__(
        self,
        mats: SystemMatrices,
        dt: float,
        load: Callable[[float], np.ndarray] | None = None,
        start: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self._workers: list[_Worker] = []
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.Mh, self.K, self.BC = mats.Mh, mats.K, mats.BC
        self.components = blocks = mats.components
        self.dt, self.load, self.start = dt, load, start
        # A process's rows of BC and Mh may reach only its own rows of d.
        for r in blocks:
            for A in (mats.BC, mats.Mh):
                cols = A.indices[A.indptr[r.start] : A.indptr[r.stop]]
                if cols.size and not r.start <= cols.min() <= cols.max() < r.stop:
                    raise ValueError(
                        "the mass or damping couples the two displacement components"
                    )
        # Each block's dofs on Gamma and sym(BC) on them, sliced first so as
        # to make no full-size matrix: the block's outflow flux.
        g = mats.gamma
        self._gamma = [g[(r.start <= g) & (g < r.stop)] for r in blocks]
        self._flux = [0.5 * (A + A.T) for A in (self.BC[g][:, g] for g in self._gamma)]
        n = mats.K.shape[0]
        shared = np.frombuffer(mmap.mmap(-1, 8 * (7 * n + 3 * len(blocks))))
        vectors = shared[: 7 * n].reshape(7, n)
        # Fixed objects, not a fresh view per step: advance knows its own
        # pair by identity and copies only a state from elsewhere.
        self._pair, self._F = tuple(vectors[:2]), vectors[2:4]
        # Each process writes its own rows of these and its blocks' partials.
        self._Kx, self._d, self._Mh_d = vectors[4:]
        self._parts = shared[7 * n :].reshape(len(blocks), 3)
        self._phase = 0  # the slot of x_{n-1}, and of the load, at the next step
        self._ahead: float | None = None  # the time of the next slot's load
        self._lu: list[tuple[int, SuperLU]] | None = []
        self.worker_fill = 0
        if start is not None:  # solved in place by block (_own)
            self._d[:] = load(0.0) - self.K @ start[0] - self.BC @ start[1]
        self._reap = weakref.finalize(self, _reap, self._workers)
        cpus = getattr(os, "sched_getaffinity", lambda pid: ())(0)
        large = min(r.stop - r.start for r in blocks) >= WORKER_MIN_BLOCK
        try:
            if len(blocks) == 2 <= len(cpus) and large and hasattr(os, "fork"):
                _trim_heap()
                for i in range(len(blocks)):
                    self._fork(i)
                for w in self._workers:  # both factor at once
                    fill = os.read(w.done, 8)
                    if not fill:
                        r = blocks[w.block]
                        raise RuntimeError(
                            f"step worker {w.pid} (dofs {r.start}:{r.stop}) "
                            "exited before it was ready"
                        )
                    self.worker_fill += int.from_bytes(fill, "little")
            else:
                self._own(range(len(blocks)))
        except BaseException:
            self.close()
            raise
        self.start_accel = None if start is None else self._d.copy()

    def _block(self, r: slice) -> sp.spmatrix:
        """L's diagonal block L[r, r]."""
        Mh, BC = (_diagonal_block(A, r) for A in (self.Mh, self.BC))
        return Mh / self.dt**2 + BC / (2.0 * self.dt)

    def _own(self, blocks: range) -> None:
        """Solve the blocks, by index, of the start's mass system, if any,
        in d; factor them; and take their dof range r and its rows of K, BC
        and Mh (_row_block): what this process steps."""
        for i in blocks if self.start else ():  # Mh is block diagonal, like L
            q = self.components[i]
            mass = factorize(_diagonal_block(self.Mh, q))
            self._d[q] = mass.solve(self._d[q], trans="T")
            # Kept until L's factor was built, this factor raised a bump
            # start's worker peak at 320x80 from 92 to 111 MB.
            del mass
        # One block at a time, each freed before the next is built, and no
        # full-size L: at 320x80 the peak RSS stayed about 4 MB lower. The
        # fill (594,326 entries at 160x40, 3,246,828 at 320x80, as
        # SuperLU.nnz counts them) and the solution bits are those of one
        # LU of L, also with the workers.
        self._lu = [(i, factorize(self._block(self.components[i]))) for i in blocks]
        first, last = self.components[blocks[0]], self.components[blocks[-1]]
        self._r = r = slice(first.start, last.stop)
        # The row views come after the factors: allocated before them, these
        # and a scratch vector raised the peak RSS at 320x80 by 3 MB.
        self._rows = [_row_block(A, r) for A in (self.K, self.BC, self.Mh)]

    def _fork(self, i: int) -> None:
        """Fork the worker that factors block i (_own) and reports its fill,
        SuperLU's own count of the factor's entries: reading lu.L or lu.U
        would copy the factor (about 10 MB a block at 320x80). Then, on each
        command, the phase k in one byte on a pipe, it steps the block in
        the shared buffers under the load in slot k (_advance) and answers
        with one byte, until its pipe's EOF or any error ends it through
        os._exit."""
        (cmd, w_cmd), (w_done, done) = os.pipe(), os.pipe()
        _parent_ends.update((w_cmd, w_done))
        try:
            pid = os.fork()
        except BaseException:  # EAGAIN, ENOMEM: no worker to reap
            _parent_ends.difference_update((w_cmd, w_done))
            for fd in (cmd, w_cmd, w_done, done):
                os.close(fd)
            raise
        if pid == 0:
            try:
                for fd in _parent_ends:  # a copy left open would hide its EOF
                    os.close(fd)
                self._own(range(i, i + 1))
                [(_, lu)] = self._lu
                os.write(done, lu.nnz.to_bytes(8, "little"))
                while k := os.read(cmd, 1):
                    self._advance(k[0])
                    os.write(done, b"\1")
            finally:
                os._exit(0)
        os.close(cmd)
        os.close(done)
        self._workers.append(_Worker(pid, i, w_cmd, w_done))

    def advance(self, state: SimState, F: np.ndarray | float) -> SimState:
        """The state one step after state, in the pair, with its record:
        under the load vector F, or under the operator's load at time F.

        A state other than the pair's own is copied in first. This process
        puts the load in the phase's slot, unless it built it ahead, sends
        each worker the phase, or else steps every block itself, and, given
        a time, builds the next step's load, at (step + 1) dt, in the other
        slot before it waits for the workers.
        """
        k = self._phase
        prev, curr = self._pair[k], self._pair[1 - k]
        if state.xi_prev is not prev or state.xi_curr is not curr:
            # Copied first: the state may hold the pair's buffers swapped.
            prev[:], curr[:] = state.xi_prev.copy(), state.xi_curr.copy()
        at_time = not isinstance(F, np.ndarray)
        if not at_time or F != self._ahead:
            self._F[k][:] = self.load(F) if at_time else F
        self._ahead = None
        for w in self._workers:
            os.write(w.cmd, bytes([k]))
        if not self._workers:
            self._advance(k)
        if at_time:
            t = (state.step + 1) * self.dt
            try:
                self._F[1 - k][:] = self.load(t)
                self._ahead = t
            except Exception:  # raised again by the step at t, not by this one
                pass
        for w in self._workers:
            if not os.read(w.done, 1):
                raise RuntimeError(f"step worker {w.pid} exited")
        self._phase = 1 - k
        return SimState(curr, prev, state.step + 1, self._total(self._parts))

    def _advance(self, k: int) -> None:
        """Step this process's rows r from (x_{n-1}, x_n) in the pair's slots
        (k, 1 - k), under the load in slot k, to x_{n+1} in slot k, leaving
        (K x_n)[r], d_{n+1}[r] = (x_{n+1} - x_n)[r] / dt, (Mh d_{n+1})[r]
        and its blocks' partials of the new pair's record. The block solves run in place, so d[r] holds
        the increment x_{n+1} - 2 x_n + x_{n-1} before the update. Every
        product is taken row by row, so the bits are those of the full-size
        products.

        A blown-up state can give inf - inf here; the run's energy check
        reports the non-finite result, so the warning is silenced.
        """
        r, d = self._r, self._d
        prev, curr = self._pair[k], self._pair[1 - k]
        with np.errstate(invalid="ignore", over="ignore"):
            # d[r] holds d_n, the right-hand side, the increment, then d_{n+1}.
            d[r], self._Kx[r] = self.scheme_rhs(prev, curr, self._F[k])
            for i, lu in self._lu:
                q = self.components[i]
                d[q] = lu.solve(d[q], trans="T")
            prev[r] = 2.0 * curr[r] - prev[r] + d[r]
            d[r] = (prev[r] - curr[r]) / self.dt
            self._Mh_d[r] = self._rows[2] @ d
        for i, _ in self._lu:
            self._parts[i] = self._observe(i, d, self._Mh_d, prev, self._Kx)

    def _observe(
        self, i: int, d: np.ndarray, Mh_d: np.ndarray, x: np.ndarray, Kx: np.ndarray
    ) -> tuple[float, float, float]:
        """Block i's partials of observe."""
        q, g = self.components[i], self._gamma[i]
        E, kinetic = energy(d[q], Mh_d[q], x[q], Kx[q])
        return E, kinetic, boundary_flux(d[g], self._flux[i])

    def observe(self, prev: np.ndarray, curr: np.ndarray) -> tuple[float, float, float]:
        """(E, kinetic, flux) of the pair (prev, curr): physics.energy on each
        block's rows plus physics.boundary_flux on its dofs of gamma, summed
        in block order, as a step sums them."""
        d = (curr - prev) / self.dt
        Mh_d, Kx, n = self.Mh @ d, self.K @ prev, len(self.components)
        parts = [self._observe(i, d, Mh_d, curr, Kx) for i in range(n)]
        return self._total(np.array(parts))

    @staticmethod
    def _total(parts: np.ndarray) -> tuple[float, float, float]:
        """The blocks' partials summed in block order."""
        with np.errstate(invalid="ignore", over="ignore"):
            E, kinetic, flux = parts.sum(axis=0)
        return float(E), float(kinetic), float(flux)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """L^{-1} rhs: the step from rest under the load rhs."""
        rest = np.zeros_like(rhs)
        return self.advance(SimState(rest, rest, 0), rhs).xi_curr.copy()

    def close(self) -> None:
        if self._workers:
            self._reap()
            self._lu = None  # a later step raises

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


def leapfrog_step(
    op: StepOperator, state: SimState, F: np.ndarray | float
) -> SimState:
    """Advance one step under the load F, or op's load at time F
    (StepOperator.advance); the run's energy check reports a non-finite
    state."""
    return op.advance(state, F)


def taylor_first_step(op: StepOperator) -> np.ndarray:
    """Second-order accurate start from op's start, the displacement and
    velocity data (xi0, zeta0):

    xi1 = xi0 + dt zeta0 + dt^2/2 Mh^{-1} (F0 - K xi0 - BC zeta0),

    with the mass solve op's start_accel."""
    xi0, zeta0 = op.start
    return xi0 + op.dt * zeta0 + 0.5 * op.dt * op.dt * op.start_accel


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
    """What march steps: the system, n_steps of dt, the load F(t) and the
    start (xi0, xi1), or xi0 and velocity zeta0 if xi1 is None."""

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
    dt, xi0, xi1 = p.dt, p.xi0, p.xi1
    start = None if xi1 is not None else (xi0, p.zeta0)
    with closing(StepOperator(p.mats, dt, p.rhs, start)) as op:
        if xi1 is None:
            xi1 = taylor_first_step(op)
        records: list[EnergyRecord] = []

        def observe(step: int, x: np.ndarray, E: float, *rest: float) -> float:
            records.append(EnergyRecord(step, step * dt, E, *rest))
            visit(step, x)
            return E

        first = op.observe(xi0, xi1)
        peak_E = max(observe(0, xi0, *first), observe(1, xi1, *first))
        state = SimState(xi0, xi1, 1)
        status: Stable | Unstable = Stable(steps=p.n_steps)
        while state.step < p.n_steps:
            state = leapfrog_step(op, state, state.step * dt)
            E = observe(state.step, state.xi_curr, *state.observed)
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

    Writes snapshots, the energy log, probes.csv (given probes), a metadata
    echo and a short report into out_dir when given; otherwise only the
    returned records and final state are kept. Partial outputs are kept
    when the march stops Unstable. A mesh with no free dof, or a probe
    outside the duct [-R, R] x [-h, h], raises ConfigError.
    """
    warnings = cfg.validate()
    for px, py in probes:
        if not (abs(px) <= cfg.R and abs(py) <= cfg.h):
            raise ConfigError(
                f"probe {px},{py} lies outside the duct "
                f"[-{cfg.R}, {cfg.R}] x [-{cfg.h}, {cfg.h}]"
            )
    mesh = build_duct_mesh(cfg.geometry(), cfg.nx, cfg.ny)
    dofs = build_dof_map(mesh, closed_box=(cfg.abc == AbcVariant.NONE))
    if dofs.n_dofs == 0:
        raise ConfigError(f"no free dof on a {cfg.nx}x{cfg.ny} mesh, abc = {cfg.abc}")
    mats = build_system(mesh, dofs, cfg.M, cfg.s, abc=cfg.abc)

    dt, n_steps = snap_time_step(
        plan_time_step(mesh, cfg.M, cfg.cfl_safety), cfg.t_end
    )
    source = cfg.source_spec()
    loads, vorticity = (), None
    if source is not None:
        loads = ((partial(source_spatial, source), source.time_profile),)
        if source.kind == SourceKind.ROTATIONAL:
            vorticity = CausalVorticity(source, cfg.M)
    rhs = RhsAssembler(mesh, dofs, loads, cfg.s, vorticity=vorticity)
    start = _initial_levels(cfg, mesh, dofs, dt)
    problem = Problem(mats, dt, n_steps, rhs, *start)

    steps = sorted({min(n_steps, max(0, round(ts / dt))) for ts in cfg.snapshot_times})
    snapshot_rank = {step: k for k, step in enumerate(steps)}  # the NNN of snap_NNN

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        meta = _metadata_text(cfg, mesh, dofs, dt, n_steps, warnings)
        with open(os.path.join(out_dir, "run_metadata.cfg"), "w", newline="\n") as f:
            f.write(meta)

    nearest = [np.argmin(np.hypot(*(mesh.nodes - p).T)) for p in probes]
    probe_dofs = dofs.node_dofs[nearest]  # CONSTRAINED where eliminated
    probe_rows: list[np.ndarray] = []
    geometry = ""  # the mesh's VTK text, formatted on the first snapshot

    def visit(step: int, x: np.ndarray) -> None:
        nonlocal geometry
        if probes:
            nodal = np.where(probe_dofs >= 0, x[probe_dofs], 0.0)
            probe_rows.append(np.hypot(nodal[:, 0], nodal[:, 1]))
        if out_dir is None or step not in snapshot_rank:
            return
        if not geometry:
            geometry = vtk_geometry(mesh)
        t = step * dt
        name = f"snap_{snapshot_rank[step]:03d}_t{t:.6f}.vtk"
        write_snapshot(geometry, dofs.expand(x), t, os.path.join(out_dir, name))

    status, records, state = march(problem, visit)

    probe_norms = np.array(probe_rows) if probes else None
    if out_dir is not None:
        write_energy_log(records, os.path.join(out_dir, "energy.csv"))
        if probe_norms is not None:
            write_probe_log(records, probes, probe_norms, os.path.join(out_dir, "probes.csv"))
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
        probe_norms=probe_norms,
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
