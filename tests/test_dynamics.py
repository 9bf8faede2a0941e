"""Time integrator checks.

The centered three-level scheme is exact for dof trajectories that are
quadratic in time, which pins the whole per-step plumbing (factorized
solve, scheme right-hand side, starter) without any discretization-error
haze. Conservation and monotone-decay checks then validate the energy
accounting the acceptance studies rely on.
"""
from __future__ import annotations

import errno
import os
import re
import signal
import subprocess
import sys
import warnings
from contextlib import closing, contextmanager
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import galbrun.assembly
from galbrun import dynamics
from galbrun.assembly import (
    SystemMatrices,
    SystemRecipe,
    assemble_a,
    assemble_b,
    assemble_c,
    assemble_d,
    build_system,
)
from galbrun.config import ConfigError, RunConfig, load_config
from galbrun.dynamics import (
    INSTABILITY_RATIO,
    RunResult,
    SimState,
    Stable,
    StepOperator,
    Unstable,
    _initial_levels,
    factorize,
    leapfrog_step,
    plan_time_step,
    run_simulation,
    snap_time_step,
    status_text,
)
from galbrun.mesh import DofMap, DuctGeometry, build_dof_map, build_duct_mesh
from galbrun.physics import boundary_flux, energy, make_energy_stiffness
from galbrun.studies import cmd_stability_contrast

from oracles import assemble_boundary_mass, read_energy_log, read_snapshot

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def linear_dof_vector(mesh, dofs):
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    field = np.column_stack([0.3 + 0.7 * x - 0.2 * y, -0.1 + 0.4 * x + 0.5 * y])
    return dofs.restrict(field)


def step_matrix(mats: SystemMatrices, dt: float):
    """The operator L = Mh / dt^2 + BC / (2 dt) that a StepOperator of mats
    and dt inverts."""
    return (mats.Mh / dt**2 + mats.BC / (2.0 * dt)).tocsr()


def test_plan_time_step_values(small_duct):
    _, mesh, _ = small_duct  # h_min = 1
    assert plan_time_step(mesh, M=0.0, cfl_safety=1.0) == pytest.approx(1.0)
    assert plan_time_step(mesh, M=0.5, cfl_safety=0.35) == pytest.approx(0.35 / 1.5)
    with pytest.raises(ValueError):
        plan_time_step(mesh, M=0.0, cfl_safety=0.0)
    with pytest.raises(ValueError):
        plan_time_step(mesh, M=0.0, cfl_safety=1.5)


def test_step_operator_solve_round_trip(small_duct):
    _, mesh, dofs = small_duct
    mats = build_system(mesh, dofs, M=0.5, s=1.0)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(dofs.n_dofs)
    op = StepOperator(mats, dt=0.1, load=lambda t: b)
    x = op.solve()
    L = step_matrix(mats, 0.1)
    assert np.abs(L @ x - b).max() < 1e-10 * np.abs(b).max()
    # The factor is of L^T; with flow L is not symmetric, so a solve with
    # L^T in place of L fails the check above.
    assert abs(L - L.T).max() > 1e-2 * abs(L).max()
    assert np.abs(L.T @ x - b).max() > 1e-2 * np.abs(b).max()
    with pytest.raises(ValueError):
        StepOperator(mats, dt=0.0, load=lambda t: b)


def test_step_operator_holds_the_system_operators(small_duct):
    # One copy of each operator: in process, the step operator steps on the
    # arrays of the matrices it is given, and builds from a recipe the
    # matrices of one build_system call, all rows of both components.
    _, mesh, dofs = small_duct
    mats = build_system(mesh, dofs, M=0.5, s=1.0)
    op = StepOperator(mats, dt=0.1, load=lambda t: np.zeros(dofs.n_dofs))
    assert op._r == slice(0, dofs.n_dofs)
    for rows, A in zip(op._rows, (mats.K, mats.BC, mats.Mh)):
        for name in ("data", "indices"):
            assert np.shares_memory(getattr(rows, name), getattr(A, name))
    built = StepOperator(
        SystemRecipe(mesh, dofs, M=0.5, s=1.0), dt=0.1, load=lambda t: np.zeros(dofs.n_dofs)
    )
    for rows, A in zip(built._rows, (mats.K, mats.BC, mats.Mh)):
        assert (rows != A).nnz == 0 and np.array_equal(rows.data, A.data)


def force_worker(monkeypatch) -> None:
    """Let StepOperator start a worker at any block size, on any machine
    with os.fork."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(dynamics, "WORKER_MIN_BLOCK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def factor_fill(op: StepOperator) -> int:
    """Entries of op's LU factors as SuperLU.nnz counts them, over both
    blocks wherever they live."""
    return sum(lu.nnz for _, lu in op._lu) + op.worker_fill


def factor_ranges(op: StepOperator) -> list[slice]:
    """The dof ranges of op's factors, in this process and then in the
    workers, in block order."""
    blocks = [i for i, _ in op._lu] + [w.block for w in op._workers]
    return [op.components[i] for i in blocks]


def test_step_operator_factor_is_fill_reducing():
    # On exp1's 160x40 operator the minimum-degree ordering on L^T + L
    # fills the factors of its two blocks to 594,326 entries (SuperLU.nnz),
    # SuperLU's default COLAMD on the whole L to 884,210; the per-step solve
    # time follows the fill.
    cfg = load_config(os.path.join(CONFIG_DIR, "exp1_rotational.cfg"))
    mesh = build_duct_mesh(cfg.geometry(), cfg.nx, cfg.ny)
    dofs = build_dof_map(mesh)
    mats = build_system(mesh, dofs, cfg.M, cfg.s, abc=cfg.abc)
    dt, _ = snap_time_step(plan_time_step(mesh, cfg.M, cfg.cfl_safety), cfg.t_end)
    b = np.random.default_rng(5).standard_normal(dofs.n_dofs)
    with closing(StepOperator(mats, dt, load=lambda t: b)) as op:
        assert factor_fill(op) <= 628_000
        want = spsolve(step_matrix(mats, dt).tocsc(), b)
        assert np.linalg.norm(op.solve() - want) <= 1e-13 * np.linalg.norm(want)


def split_recipe(case: str) -> SystemRecipe:
    """The recipe of one block-split case: the open duct at M = 0.5 with
    each ABC, the closed box at M = 0, and a one-cell-high duct."""
    closed = case == "closed"
    mesh = build_duct_mesh(DuctGeometry(4.0, 1.0), 40, 1 if case == "ny1" else 10)
    dofs = build_dof_map(mesh, closed_box=closed)
    abc = {"closed": "none", "naive": "naive"}.get(case, "stable")
    return SystemRecipe(mesh, dofs, M=0.0 if closed else 0.5, s=1.0, abc=abc)


def split_case(case: str) -> tuple[DofMap, SystemMatrices]:
    """The dof map and system of one block-split case (split_recipe)."""
    recipe = split_recipe(case)
    return recipe.dofs, recipe.build()


SPLIT_CASES = ["stable", "naive", "closed", "ny1"]


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_step_operator_factors_one_block_per_component(case, monkeypatch):
    # Mh, Bh and Ch act on one displacement component at a time, so L is
    # block diagonal: one factor for the free x dofs, the range [0, n_x),
    # and one for the free y dofs, [n_x, n_dofs), or one alone when no y
    # dof is free (ny = 1). Solving block by block must give the bits of
    # one LU of the whole L, with both blocks in this process and, forced
    # below the crossover here, one in each of two workers.
    dofs, mats = split_case(case)
    n_x = np.count_nonzero(dofs.node_dofs[:, 0] >= 0)
    assert 0 < n_x <= dofs.n_dofs
    want = [(0, dofs.n_dofs)] if case == "ny1" else [(0, n_x), (n_x, dofs.n_dofs)]
    rhs = np.random.default_rng(7).standard_normal(dofs.n_dofs)
    for worker in (False, True) if hasattr(os, "fork") else (False,):
        if worker:
            force_worker(monkeypatch)
        with closing(StepOperator(mats, dt=0.05, load=lambda t: rhs)) as op:
            split = worker and case != "ny1"
            assert len(op._workers) == (2 if split else 0)
            assert len(op._lu) == (0 if split else len(want))
            assert [(r.start, r.stop, r.step) for r in factor_ranges(op)] == [
                (a, b, None) for a, b in want
            ]
            for comp, r in enumerate(factor_ranges(op)):
                free = np.sort(dofs.node_dofs[:, comp])
                assert np.array_equal(free[free >= 0], np.arange(r.start, r.stop))
            whole = factorize(step_matrix(mats, 0.05))
            assert factor_fill(op) == whole.nnz
            assert np.array_equal(op.solve(), whole.solve(rhs, trans="T"))


@pytest.mark.parametrize("case", SPLIT_CASES[:3])
def test_step_operator_rejects_damping_across_components(case):
    # The split rests on BC keeping within the components of Mh: one entry
    # coupling an x dof to a y dof must be refused, not dropped.
    dofs, mats = split_case(case)
    x, y = (dofs.node_dofs[:, c].max() for c in (0, 1))
    n = dofs.n_dofs
    coupling = sp.csr_matrix(([1.0], ([x], [y])), shape=(n, n))
    with pytest.raises(ValueError):
        StepOperator(
            SystemMatrices(
                mats.Mh, mats.K, mats.BC + coupling, mats.components, mats.gamma
            ),
            dt=0.05,
            load=lambda t: np.zeros(n),
        )


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in whatever blocks past the deadline."""

    def expire(signum, frame):
        raise TimeoutError(f"still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def exp1_system() -> tuple[SystemRecipe, float]:
    cfg = load_config(os.path.join(CONFIG_DIR, "exp1_rotational.cfg"))
    mesh = build_duct_mesh(cfg.geometry(), cfg.nx, cfg.ny)
    recipe = SystemRecipe(mesh, build_dof_map(mesh), cfg.M, cfg.s, abc=cfg.abc)
    dt, _ = snap_time_step(plan_time_step(mesh, cfg.M, cfg.cfl_safety), cfg.t_end)
    return recipe, dt


def closed_box_system(nx: int, ny: int) -> tuple[SystemRecipe, float]:
    mesh = build_duct_mesh(DuctGeometry(4.0, 1.0), nx, ny)
    dofs = build_dof_map(mesh, closed_box=True)
    return SystemRecipe(mesh, dofs, M=0.0, s=1.0, abc="none"), 0.01


@pytest.mark.parametrize(
    "system, above",
    [
        (exp1_system, True),
        (lambda: closed_box_system(160, 40), True),
        (lambda: closed_box_system(40, 10), False),
    ],
    ids=["exp1", "closed_160x40", "closed_40x10"],
)
def test_worker_solve_is_bit_identical(system, above, monkeypatch):
    # Above the crossover, on two CPUs, one worker process solves each
    # block; on one CPU, or below the crossover, no worker starts. Every
    # way, with the system built by the process that steps it (its recipe)
    # or built before (its matrices), a solve gives the bits of the
    # in-process block factors.
    if above and not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    recipe, dt = system()
    mats = recipe.build()
    blocks = mats.components
    assert (min(r.stop - r.start for r in blocks) >= dynamics.WORKER_MIN_BLOCK) == above

    lus = [
        (r, factorize(mats.Mh[r, r] / dt**2 + mats.BC[r, r] / (2.0 * dt)))
        for r in blocks
    ]

    def want(b: np.ndarray) -> np.ndarray:
        return np.concatenate([lu.solve(b[r], trans="T") for r, lu in lus])

    rhs = np.random.default_rng(3).standard_normal((3, mats.Mh.shape[0]))
    for cpus, worker in (({0, 1}, above), ({0}, False)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        for given in (recipe, mats):
            # The load is the rhs row the loop has reached.
            with closing(StepOperator(given, dt, load=lambda t: b)) as op:
                assert len(op._workers) == (2 if worker else 0)
                for b in rhs:
                    assert np.array_equal(op.solve(), want(b))
    assert no_child_left()


def operator_bits(
    system: SystemRecipe | SystemMatrices,
    dt: float,
    load,
    start: tuple[np.ndarray, np.ndarray | None, np.ndarray | None],
) -> tuple[int, list[np.ndarray]]:
    """The workers that a StepOperator of system started, and its bits from
    the start (xi0, xi1, zeta0): its first state's second level (the Taylor
    start when xi1 is None) and record, and four steps' states and
    records."""
    with closing(StepOperator(system, dt, load, start)) as op:
        state = op.first
        assert state.step == 1 and np.array_equal(state.xi_prev, start[0])
        bits = [state.xi_curr.copy(), np.array(state.observed)]
        for _ in range(4):
            state = leapfrog_step(op, state)
            bits += [state.xi_curr.copy(), np.array(state.observed)]
        return len(op._workers), bits


@pytest.mark.parametrize("init", ["bump", "plane_pulse"])
@pytest.mark.parametrize("case", SPLIT_CASES[:3])
def test_worker_built_operator_is_bit_identical(case, init, monkeypatch):
    # Workers that build their own rows of the system (its recipe) and
    # workers that take the rows of a system built before the fork must
    # both give the in-process bits: the Taylor start's solve (bump) or the
    # given second level (plane pulse), the starter pair's record, which
    # the workers form, and every step.
    recipe = split_recipe(case)
    mesh, dofs, dt = recipe.mesh, recipe.dofs, 0.05
    cfg = RunConfig(M=recipe.M, init_kind=init, init_center_x=-1.0, init_width=0.4)
    start = _initial_levels(cfg, mesh, dofs, dt)
    assert (start[1] is None) == (init == "bump")
    F = np.random.default_rng(29).standard_normal(dofs.n_dofs)

    def load(t: float) -> np.ndarray:
        return np.cos(3.0 * t) * F

    workers, want = operator_bits(recipe, dt, load, start)  # below the crossover
    assert workers == 0
    force_worker(monkeypatch)
    for given in (recipe, recipe.build()):
        workers, got = operator_bits(given, dt, load, start)
        assert workers == 2
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    assert no_child_left()


def test_the_processes_that_step_the_system_build_it(monkeypatch, tmp_path):
    # A run builds its system where it is stepped: in process, the run
    # builds all of it once; with workers, each worker builds its own
    # component's rows, and the run process builds nothing.
    log, build = tmp_path / "builds", galbrun.assembly.build_system

    def spy(mesh, dofs, M, s, abc="stable", rows=(0, 1)):
        with open(log, "a") as f:  # the workers' calls too
            f.write(f"{os.getpid()} {' '.join(map(str, rows))}\n")
        return build(mesh, dofs, M, s, abc, rows)

    def builds() -> list[tuple[int, tuple[int, ...]]]:
        lines = log.read_text().splitlines()
        log.unlink()
        return [(int(pid), tuple(map(int, rows))) for pid, *rows in map(str.split, lines)]

    monkeypatch.setattr(galbrun.assembly, "build_system", spy)
    run = os.getpid()
    assert run_simulation(base_config()).stable  # below the crossover
    assert builds() == [(run, (0, 1))]
    force_worker(monkeypatch)
    assert run_simulation(base_config()).stable
    assert no_child_left()
    got = builds()
    assert run not in [pid for pid, _ in got]
    assert len({pid for pid, _ in got}) == 2
    assert sorted(rows for _, rows in got) == [(0,), (1,)]


@pytest.fixture
def worker_pids(monkeypatch) -> list[int]:
    """Workers at every block size; the pid of each one started."""
    force_worker(monkeypatch)
    pids = []
    fork = StepOperator._fork

    def spy(self, *args):
        fork(self, *args)
        pids.append(self._workers[-1].pid)

    monkeypatch.setattr(StepOperator, "_fork", spy)
    return pids


def test_run_reaps_its_worker(worker_pids):
    assert run_simulation(base_config()).stable
    assert len(worker_pids) == 2
    assert no_child_left()


def test_run_reaps_its_worker_when_a_step_raises(worker_pids, monkeypatch):
    step = dynamics.leapfrog_step

    def fail_at_step_3(op, state):
        if state.step == 3:
            raise RuntimeError("step failed")
        return step(op, state)

    monkeypatch.setattr(dynamics, "leapfrog_step", fail_at_step_3)
    with pytest.raises(RuntimeError, match="step failed") as raised:
        run_simulation(base_config())
    # Checked while the traceback, and with it the run's frame, is alive.
    assert raised.tb is not None
    assert len(worker_pids) == 2
    assert no_child_left()


def test_stability_contrast_reaps_its_workers(worker_pids, tmp_path):
    cmd_stability_contrast(base_config(), out_dir=str(tmp_path))
    assert len(worker_pids) == 4
    assert no_child_left()


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["first_first", "last_first"])
def test_two_live_operators_close_in_either_order(order, worker_pids):
    # A later worker inherits the earlier ones' pipes at its fork and must
    # drop them, or closing the first operator first would wait forever.
    _, mats = split_case("stable")
    b = np.ones(mats.Mh.shape[0])
    ops = [StepOperator(mats, dt, load=lambda t: b) for dt in (0.05, 0.1)]
    for op in ops:
        op.solve()
    with deadline(30):
        for i in order:
            ops[i].close()
    assert len(worker_pids) == 4
    assert no_child_left()


def test_killed_worker_makes_the_next_solve_raise(worker_pids):
    _, mats = split_case("stable")
    b = np.ones(mats.Mh.shape[0])
    with closing(StepOperator(mats, dt=0.05, load=lambda t: b)) as op:
        op.solve()
        os.kill(op._workers[0].pid, signal.SIGKILL)
        with deadline(30), pytest.raises((RuntimeError, BrokenPipeError)):
            op.solve()
    assert no_child_left()


def test_failed_fork_leaks_no_pipe(monkeypatch):
    # os.fork can raise (EAGAIN, ENOMEM) after the worker's two pipes are
    # open: the operator must close all four ends and forget its own two.
    force_worker(monkeypatch)
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip("no /proc/self/fd on this platform")
    _, mats = split_case("stable")

    def fail():
        raise OSError(errno.EAGAIN, "fork failed")

    monkeypatch.setattr(os, "fork", fail)
    before = len(os.listdir(fd_dir))
    with pytest.raises(OSError, match="fork failed"):
        StepOperator(mats, dt=0.05, load=lambda t: np.zeros(mats.Mh.shape[0]))
    assert len(os.listdir(fd_dir)) == before
    assert dynamics._parent_ends == set()


class FactorWithoutCopies:
    """A factor whose L and U raise: scipy builds each as a fresh CSC copy
    of the factor, about 10 MB a block at 320x80."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name: str):
        if name in ("L", "U"):
            raise AssertionError(f"lu.{name} copies the factor")
        return getattr(self._lu, name)


def test_worker_handshake_copies_no_factor(monkeypatch):
    # A worker reports its fill as SuperLU counts it: a handshake that read
    # lu.L or lu.U would kill the worker here before it is ready.
    force_worker(monkeypatch)
    _, mats = split_case("stable")
    factor = dynamics.factorize
    monkeypatch.setattr(dynamics, "factorize", lambda A: FactorWithoutCopies(factor(A)))
    rhs = np.random.default_rng(8).standard_normal(mats.Mh.shape[0])
    with deadline(30), closing(StepOperator(mats, dt=0.05, load=lambda t: rhs)) as op:
        assert len(op._workers) == 2
        whole = factor(step_matrix(mats, 0.05))
        assert op.worker_fill == whole.nnz
        assert np.array_equal(op.solve(), whole.solve(rhs, trans="T"))
    assert no_child_left()


WORKER_PEAK = """
import os, resource
from galbrun import dynamics
from galbrun.assembly import build_system
from galbrun.mesh import DuctGeometry, build_dof_map, build_duct_mesh

dynamics.WORKER_MIN_BLOCK = 0
os.sched_getaffinity = lambda pid: {0, 1}
mesh = build_duct_mesh(DuctGeometry(4.0, 1.0), 320, 80)
mats = build_system(mesh, build_dof_map(mesh), M=0.5, s=1.0)
dynamics._trim_heap()  # as the operator does before it forks
with open("/proc/self/status") as f:
    rss = next(int(line.split()[1]) for line in f if line.startswith("VmRSS:"))
op = dynamics.StepOperator(mats, dt=0.01, load=lambda t: 0.0)
op.close()
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(peak - rss, op.worker_fill)
"""


# The benchmark child's environment (bench/run.py): one BLAS and OpenMP
# thread, and no transparent huge pages asked for by numpy, which would
# move the resident memory measured.
CHILD_ENV = {
    **dict.fromkeys(
        (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ),
        "1",
    ),
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def run_script(script: str, *args: str) -> str:
    """The stdout of script in a fresh interpreter, in CHILD_ENV."""
    if not hasattr(os, "fork") or not os.path.exists("/proc/self/status"):
        pytest.skip("needs os.fork and /proc/self/status")
    src = os.path.dirname(os.path.dirname(dynamics.__file__))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=src, **CHILD_ENV),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout


def test_workers_peak_rss_stays_near_their_factors():
    # In a fresh interpreter, each worker starts from its resident memory at
    # the fork and adds its block's factor and SuperLU's workspace. At
    # 320x80 the workers' peak rose 5.6-5.9 MB above it, 0.23-0.24 of 8
    # bytes per factor entry, with one-column panels (factorize) and the
    # heap trimmed between the stages of StepOperator._own; without those
    # trims, 6.9-7.6 MB (0.28-0.31); with SuperLU's default 20-column
    # panels, 14.2-14.6 MB (0.57-0.59); with a handshake that read lu.L and
    # lu.U as well, 21.5-22.6 MB (0.89-0.94).
    above_kib, fill = map(int, run_script(WORKER_PEAK).split())
    assert above_kib * 1024 <= 0.45 * 8 * fill


STEP_PEAKS = """
import os, resource, sys
from galbrun import dynamics
from galbrun.assembly import SystemRecipe
from galbrun.mesh import DuctGeometry, build_dof_map, build_duct_mesh

dynamics.WORKER_MIN_BLOCK = 0
os.sched_getaffinity = lambda pid: {0, 1}
mesh = build_duct_mesh(DuctGeometry(4.0, 1.0), 320, 80)
system = SystemRecipe(mesh, build_dof_map(mesh), M=0.5, s=1.0)
if sys.argv[1] == "run":
    system = system.build()
op = dynamics.StepOperator(system, dt=0.01, load=lambda t: 1.0)
workers = len(op._workers)
op.solve()
op.close()
with open("/proc/self/status") as f:
    run = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
print(workers, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, run)
"""


def test_workers_that_build_their_rows_lower_both_peaks():
    # The same operator at 320x80, its system built by the run before the
    # fork, then built by the workers, each its own rows: the workers' peak
    # (RUSAGE_CHILDREN) and the run's (VmHWM) must both fall. Measured on a
    # 2-core host in CHILD_ENV, 6 runs each: the workers 82.3-82.6 MB
    # against 74.0-74.4 MB, the run 83.0-84.1 MB against 66.1-66.2 MB. The
    # margins are about three quarters of the smallest gaps, 7.9 and 16.8 MB.
    kib = {}
    for where in ("run", "workers"):
        workers, *kib[where] = map(int, run_script(STEP_PEAKS, where).split())
        assert workers == 2
    (workers_before, run_before), (workers_after, run_after) = kib["run"], kib["workers"]
    assert workers_after <= workers_before - 6 * 1024
    assert run_after <= run_before - 14 * 1024


def test_worker_that_dies_before_it_is_ready_is_named(monkeypatch):
    # A worker that fails to factor its block exits before its handshake:
    # the operator must say which, and leave no child behind.
    force_worker(monkeypatch)
    _, mats = split_case("stable")
    run, factor = os.getpid(), dynamics.factorize

    def fails_in_a_worker(A):
        if os.getpid() != run:
            raise MemoryError
        return factor(A)

    monkeypatch.setattr(dynamics, "factorize", fails_in_a_worker)
    with deadline(30), pytest.raises(RuntimeError, match=r"worker \d+ \(dofs 0:"):
        StepOperator(mats, dt=0.05, load=lambda t: np.zeros(mats.Mh.shape[0]))
    assert no_child_left()
    assert dynamics._parent_ends == set()


@pytest.mark.parametrize("ending", ["close", "raising_load", "kill_x", "kill_y"])
def test_workers_hold_every_factor_and_are_always_reaped(ending, worker_pids):
    # With workers the run process factors nothing: each block's factor
    # lives in its own worker. Both workers are reaped when the operator
    # closes, when a step's load raises, and when either worker dies. A
    # load that raises while it is built ahead raises in its own step.
    _, mats = split_case("stable")
    n = mats.Mh.shape[0]

    def load(t: float) -> np.ndarray:
        if ending == "raising_load" and t > 0.1:
            raise ValueError("load failed")
        return np.full(n, t)

    with deadline(30), closing(StepOperator(mats, dt=0.05, load=load)) as op:
        assert op._lu == []
        assert [w.block for w in op._workers] == [0, 1]
        state = SimState(np.zeros(n), np.zeros(n), 1)
        state = leapfrog_step(op, state)  # under the load of 0.05
        if ending == "raising_load":
            state = leapfrog_step(op, state)  # builds the load of 0.15
            assert state.step == 3
            with pytest.raises(ValueError, match="load failed"):
                leapfrog_step(op, state)
        elif ending.startswith("kill"):
            os.kill(op._workers[ending == "kill_y"].pid, signal.SIGKILL)
            with pytest.raises((RuntimeError, BrokenPipeError)):
                leapfrog_step(op, state)
    assert len(worker_pids) == 2
    assert no_child_left()
    assert op._workers == []


def test_taylor_start_is_solved_where_l_is_factored(monkeypatch):
    # A bump start solves Mh a = F0 - K xi0 - BC zeta0 block by block in the
    # processes that factor L: with workers the run factors nothing, and
    # every record and the final state keep their bits.
    cfg = base_config(init_kind="bump", init_amplitude=0.5)
    alone = run_simulation(cfg)  # below the crossover: no worker
    force_worker(monkeypatch)
    run, factor = os.getpid(), dynamics.factorize
    in_run = []

    def spy(A):
        if os.getpid() == run:
            in_run.append(A.shape)
        return factor(A)

    monkeypatch.setattr(dynamics, "factorize", spy)
    got = run_simulation(cfg)
    assert no_child_left()
    assert in_run == []
    for name in ("E", "kinetic", "flux", "status"):
        want = [getattr(r, name) for r in alone.records]
        assert [getattr(r, name) for r in got.records] == want, name
    assert np.array_equal(got.final_state.xi_prev, alone.final_state.xi_prev)
    assert np.array_equal(got.final_state.xi_curr, alone.final_state.xi_curr)


def test_workers_step_under_each_load_built_once(monkeypatch):
    # In process and with workers alike, each step's load is built once per
    # step time, by the step before it (with workers, while they solve that
    # step); the last one is never used.
    cfg = replace(MARCH_CASES["pulse_out"](), source_kind="rotational")
    events, load = [], dynamics.RhsAssembler.__call__
    step = dynamics.leapfrog_step

    def counted(self, t: float) -> np.ndarray:
        events.append(("load", t))
        return load(self, t)

    def stepped(op: StepOperator, state: SimState) -> SimState:
        events.append(("step", state.step * op.dt))
        return step(op, state)

    monkeypatch.setattr(dynamics.RhsAssembler, "__call__", counted)
    monkeypatch.setattr(dynamics, "leapfrog_step", stepped)
    alone = run_simulation(cfg)  # below the crossover: no worker
    in_process = events[:]
    events.clear()
    force_worker(monkeypatch)
    got = run_simulation(cfg)
    assert no_child_left()
    dt = got.dt
    order = [("step", dt), ("load", dt)]
    for k in range(2, got.n_steps):
        order += [("load", k * dt), ("step", k * dt)]
    assert in_process == events == order + [("load", got.n_steps * dt)]
    for name in ("E", "kinetic", "flux"):
        want = [getattr(r, name) for r in alone.records]
        assert [getattr(r, name) for r in got.records] == want, name


def exp1_config(**over) -> RunConfig:
    cfg = load_config(os.path.join(CONFIG_DIR, "exp1_rotational.cfg"))
    return replace(cfg, snapshot_times=(), **over)


MARCH_CASES = {
    "exp1_s1": lambda: exp1_config(),
    "exp1_s0": lambda: exp1_config(s=0.0),
    "pulse_out": lambda: base_config(
        R=1.0,
        nx=24,
        ny=8,
        t_end=1.0,
        source_kind="none",
        init_kind="plane_pulse",
        init_center_x=0.4,
        init_width=0.15,
        snapshot_times=(),
    ),
    "closed_40x10": lambda: RunConfig(
        nx=40, ny=10, abc="none", M=0.0, t_end=0.5, snapshot_times=()
    ),
}


@pytest.mark.parametrize("case", list(MARCH_CASES))
def test_worker_march_is_bit_identical(case, worker_pids, monkeypatch):
    # Each worker steps one block of every step, forms its rows of K x and
    # Mh d and its partials of the record, and the run builds each load
    # ahead: the records and the final state must be the in-process bits.
    cfg = MARCH_CASES[case]()
    worker = run_simulation(cfg)
    assert len(worker_pids) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    alone = run_simulation(cfg)
    assert len(worker_pids) == 2
    assert no_child_left()
    assert worker.status == alone.status
    for name in ("E", "kinetic", "flux", "status"):
        got = [getattr(r, name) for r in worker.records]
        assert np.array_equal(got, [getattr(r, name) for r in alone.records]), name
    a, b = worker.final_state, alone.final_state
    assert a.step == b.step
    assert np.array_equal(a.xi_prev, b.xi_prev)
    assert np.array_equal(a.xi_curr, b.xi_curr)
    if case == "exp1_s0":
        assert isinstance(worker.status, Unstable)
    else:
        assert isinstance(worker.status, Stable)
    if case == "pulse_out":
        assert max(r.flux for r in worker.records) > 0.0


def test_worker_silences_floating_point_warnings(worker_pids, capfd):
    # The workers share the run's stderr, so they must silence floating-point
    # warnings as the run does. Made errors here, an unsilenced one stops the
    # run, in the worker through its exit. The 1e150 start of
    # test_nonfinite_run_ends_unstable_on_the_energy_check overflows E; a
    # state that is already non-finite overflows every product of the step.
    cfg = RunConfig(
        nx=40,
        ny=10,
        cfl_safety=1.0,
        t_end=20.0,
        source_kind="none",
        init_kind="bump",
        init_amplitude=1e150,
    )
    _, mats = split_case("stable")
    blown = np.full(mats.Mh.shape[0], np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # before the fork, for the worker too
        res = run_simulation(cfg)
        zero = np.zeros_like(blown)
        with closing(StepOperator(mats, dt=0.05, load=lambda t: zero)) as op:
            state = leapfrog_step(op, SimState(blown, blown, 1))
    assert res.status == Unstable(step=10)
    assert not np.isfinite(state.xi_curr).any()
    assert len(worker_pids) == 4
    assert no_child_left()
    assert "Warning" not in capfd.readouterr().err


@pytest.mark.parametrize("init", ["none", "bump"])
def test_one_command_byte_per_step(init, monkeypatch):
    # The run hands each worker one byte per step on its command pipe, the
    # step's phase, and nothing else: march steps n_steps - 1 times from the
    # first state, whose second level and record the workers formed while
    # they set up, from rest (a given second level) or from a bump (the
    # Taylor level).
    force_worker(monkeypatch)
    writes, fork, write = {}, StepOperator._fork, os.write

    def spy_fork(self, *args):
        fork(self, *args)
        writes[self._workers[-1].cmd] = []

    def counted(fd, data):
        if fd in writes:
            writes[fd].append(data)
        return write(fd, data)

    monkeypatch.setattr(StepOperator, "_fork", spy_fork)
    monkeypatch.setattr(os, "write", counted)
    res = run_simulation(base_config(init_kind=init))
    assert res.stable and res.n_steps > 2
    assert (res.records[1].E > 0.0) == (init == "bump")
    assert len(writes) == 2
    phases = [bytes([k % 2]) for k in range(res.n_steps - 1)]
    for sent in writes.values():
        assert sent == phases
    assert no_child_left()


def test_run_without_free_dofs_is_refused(tmp_path):
    # The one-cell closed box eliminates every component: the x range is
    # empty, there is no y range, and a run would have nothing to solve.
    # The output directory the run made for it goes again.
    dofs = build_dof_map(build_duct_mesh(DuctGeometry(2.0, 1.0), 1, 1), closed_box=True)
    assert dofs.n_dofs == 0
    assert dofs.components == (slice(0, 0),)
    cfg = RunConfig(nx=1, ny=1, abc="none", M=0.0, t_end=0.1, source_kind="none")
    with pytest.raises(ConfigError, match="no free dof"):
        run_simulation(cfg)
    with pytest.raises(ConfigError, match="no free dof"):
        run_simulation(cfg, out_dir=str(tmp_path / "new" / "out"))
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("kind", ["empty", "file"])
def test_an_unusable_out_dir_is_refused_before_the_mesh(kind, tmp_path, monkeypatch):
    # The library path makes its output directory first, by the CLI's rule
    # (output_directory): an empty path, or one that os.makedirs cannot make,
    # is a ConfigError that names it, raised before any mesh is built.
    out = ""
    if kind == "file":
        out = str(tmp_path / "file")
        open(out, "w").close()
    meshes = []
    monkeypatch.setattr(dynamics, "build_duct_mesh", lambda *args: meshes.append(args))
    name = "''" if kind == "empty" else re.escape(out) + ":"
    with pytest.raises(ConfigError, match=f"output directory {name}"):
        run_simulation(RunConfig(nx=8, ny=4, t_end=0.05), out_dir=out)
    assert meshes == []


def test_leapfrog_satisfies_three_level_relation(small_duct):
    _, mesh, dofs = small_duct
    mats = build_system(mesh, dofs, M=0.5, s=1.0)
    dt = 0.05
    rng = np.random.default_rng(4)
    prev = rng.standard_normal(dofs.n_dofs)
    curr = rng.standard_normal(dofs.n_dofs)
    F = rng.standard_normal(dofs.n_dofs)
    op = StepOperator(mats, dt, load=lambda t: F)
    state = leapfrog_step(op, SimState(prev, curr, step=1))
    residual = (
        mats.Mh @ (state.xi_curr - 2 * curr + prev) / dt**2
        + mats.BC @ (state.xi_curr - prev) / (2 * dt)
        + mats.K @ curr
        - F
    )
    assert np.abs(residual).max() < 1e-9 * np.abs(F).max()
    assert state.step == 2


def test_step_reuses_the_buffers_of_the_state_it_made(small_duct):
    # A state the operator made lives in its pair of buffers: the next step
    # knows them, copies nothing in and writes x_{n+1} over x_{n-1}. A state
    # from elsewhere, or the pair swapped, is copied in first. Every way,
    # the bits are those of a fresh operator stepping copies.
    _, mesh, dofs = small_duct
    mats = build_system(mesh, dofs, M=0.5, s=1.0)
    rng = np.random.default_rng(21)
    prev, curr, F = rng.standard_normal((3, dofs.n_dofs))

    def fresh_step(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        with closing(StepOperator(mats, 0.05, load=lambda t: F)) as fresh:
            return leapfrog_step(fresh, SimState(a.copy(), b.copy(), 1)).xi_curr

    with closing(StepOperator(mats, 0.05, load=lambda t: F)) as op:
        first = leapfrog_step(op, SimState(prev, curr, 1))
        assert np.array_equal(first.xi_curr, fresh_step(prev, curr))
        state = first
        for _ in range(3):
            want = fresh_step(state.xi_prev, state.xi_curr)
            new = leapfrog_step(op, state)
            assert new.xi_curr is state.xi_prev and new.xi_prev is state.xi_curr
            assert np.array_equal(new.xi_curr, want)
            state = new
        want = fresh_step(state.xi_curr, state.xi_prev)
        swapped = leapfrog_step(op, SimState(state.xi_curr, state.xi_prev, 1))
        assert np.array_equal(swapped.xi_curr, want)


def test_a_state_out_of_order_takes_its_own_steps_load(monkeypatch):
    # A step from state.step = n builds step n + 1's load ahead. A state
    # handed in at another step, here 3 after the operator built step 2's
    # load, is stepped under F(3 dt), in process and with workers alike,
    # with the bits of a fresh operator.
    _, mats = split_case("stable")
    rng = np.random.default_rng(23)
    prev, curr, F = rng.standard_normal((3, mats.Mh.shape[0]))

    def load(t: float) -> np.ndarray:
        return t * F

    def fresh_step(step: int) -> np.ndarray:
        with closing(StepOperator(mats, 0.05, load)) as fresh:
            state = SimState(prev.copy(), curr.copy(), step)
            return leapfrog_step(fresh, state).xi_curr.copy()

    want = fresh_step(3)
    assert not np.array_equal(want, fresh_step(2))
    for worker in (False, True) if hasattr(os, "fork") else (False,):
        if worker:
            force_worker(monkeypatch)
        with closing(StepOperator(mats, 0.05, load)) as op:
            assert len(op._workers) == (2 if worker else 0)
            leapfrog_step(op, SimState(prev, curr, 1))
            assert op._ahead == 2
            got = leapfrog_step(op, SimState(prev, curr, 3))
            assert got.step == 4
            assert np.array_equal(got.xi_curr, want)
    assert no_child_left()


def test_scheme_rhs_matches_three_term_form(small_duct):
    # The increment form's right-hand side F - K x_n - BC (x_n - x_{n-1})/dt
    # must equal its three terms formed from the unfolded matrices, and the
    # stiffness product handed on must be (Ah + Dh) x_n.
    _, mesh, dofs = small_duct
    mats = build_system(mesh, dofs, M=0.5, s=1.0)
    dt = 0.05
    rng = np.random.default_rng(11)
    prev = rng.standard_normal(dofs.n_dofs)
    curr = rng.standard_normal(dofs.n_dofs)
    F = rng.standard_normal(dofs.n_dofs)
    op = StepOperator(mats, dt, load=lambda t: F)
    Ah, Bh = assemble_a(mesh, dofs, 0.5, 1.0), assemble_b(mesh, dofs, 0.5)
    Ch, Dh = assemble_c(mesh, dofs, 0.5), assemble_d(mesh, dofs)
    BC = Bh + Ch
    K_curr = Ah @ curr + Dh @ curr
    want = F - K_curr - (Bh @ (curr - prev) + Ch @ (curr - prev)) / dt
    got, Kx = op.scheme_rhs(prev, curr, F)
    assert np.abs(got - want).max() < 1e-14 * np.abs(want).max()
    assert np.abs(Kx - K_curr).max() < 1e-14 * np.abs(K_curr).max()
    # It is the three-level right-hand side less L (2 x_n - x_{n-1}).
    three_level = (
        (2.0 / dt**2) * (mats.Mh @ curr)
        - (mats.Mh / dt**2 - BC / (2.0 * dt)) @ prev
        - K_curr
        + F
    )
    increment = three_level - step_matrix(mats, dt) @ (2.0 * curr - prev)
    assert np.abs(got - increment).max() < 1e-14 * np.abs(three_level).max()


def test_scheme_exact_for_quadratic_trajectory(small_duct):
    # x(t) = w t^2 solves Mh x'' + BC x' + K x = F with
    # F(t) = 2 Mh w + 2t BC w + t^2 K w, and every centered difference the
    # scheme uses is exact for quadratics, so the integrator must track
    # the trajectory to solver precision.
    _, mesh, dofs = small_duct
    mats = build_system(mesh, dofs, M=0.5, s=1.0)
    w = linear_dof_vector(mesh, dofs)
    dt = 0.05
    Fw_const = 2 * (mats.Mh @ w)
    Fw_lin = 2 * (mats.BC @ w)
    Fw_quad = mats.K @ w

    def F(t: float) -> np.ndarray:
        return Fw_const + t * Fw_lin + t * t * Fw_quad

    op = StepOperator(mats, dt, load=F)
    state = SimState(np.zeros_like(w), dt * dt * w, step=1)
    n = 60
    for _ in range(1, n):
        state = leapfrog_step(op, state)  # under F(state.step * dt)
    expected = (n * dt) ** 2 * w
    assert np.abs(state.xi_curr - expected).max() < 1e-9 * np.abs(expected).max()


def test_taylor_start_exact_for_quadratic(small_duct):
    _, mesh, dofs = small_duct
    mats = build_system(mesh, dofs, M=0.5, s=1.0)
    w = linear_dof_vector(mesh, dofs)
    dt = 0.05
    zero = np.zeros_like(w)
    # From rest the start's mass load is F0 itself.
    Fw = 2 * (mats.Mh @ w)
    op = StepOperator(mats, dt, load=lambda t: Fw, start=(zero, None, zero))
    xi1 = op.first.xi_curr
    assert np.abs(xi1 - dt * dt * w).max() < 1e-12 * np.abs(w).max()
    # From rest, xi1 = dt^2/2 Mh^{-1} F0: the start's factor solves Mh.
    F0 = np.random.default_rng(6).standard_normal(dofs.n_dofs)
    op = StepOperator(mats, dt, load=lambda t: F0, start=(zero, None, zero))
    accel = op.first.xi_curr / (0.5 * dt * dt)
    assert np.abs(mats.Mh @ accel - F0).max() < 1e-12 * np.abs(F0).max()
    # x(t) = u + v t + w t^2 under its own load: the operator forms the mass
    # load F(0) - K u - BC v, and the start is exact.
    u, v = np.random.default_rng(7).standard_normal((2, dofs.n_dofs))

    def F(t: float) -> np.ndarray:
        return Fw + mats.BC @ (v + 2 * t * w) + mats.K @ (u + t * v + t * t * w)

    op = StepOperator(mats, dt, load=F, start=(u, None, v))
    xi1 = op.first.xi_curr
    exact = u + dt * v + dt * dt * w
    assert np.abs(xi1 - exact).max() < 1e-12 * np.abs(exact).max()
    # A start without xi1 needs zeta0; no start at all is rest.
    with pytest.raises(ValueError, match="zeta0"):
        StepOperator(mats, dt, load=F, start=(u, None, None))
    rest = StepOperator(mats, dt, load=F).first
    assert not rest.xi_prev.any() and not rest.xi_curr.any()
    assert (rest.step, rest.observed) == (1, (0.0, 0.0, 0.0))


def test_nonfinite_run_ends_unstable_on_the_energy_check():
    # Past the leapfrog limit a huge start overflows within ten steps. E,
    # which scales as |x|^2 / dt^2, goes non-finite first, and that row ends
    # the run.
    cfg = RunConfig(
        nx=40,
        ny=10,
        cfl_safety=1.0,
        t_end=20.0,
        source_kind="none",
        init_kind="bump",
        init_amplitude=1e150,
    )
    res = run_simulation(cfg, probes=((0.0, 0.0),))
    assert res.status == Unstable(step=10)
    last = res.records[-1]
    assert (last.step, last.status) == (10, "warned")
    assert not np.isfinite(last.E)
    assert all(r.status == "ok" for r in res.records[:-1])
    assert [r.step for r in res.records] == list(range(11))
    assert res.probe_norms.shape == (len(res.records), 1)


def test_closed_box_energy_conservation_drift():
    # No boundary damping, no flow, symmetric stiffness: the staggered
    # energy telescopes exactly; only roundoff may move it.
    mesh = build_duct_mesh(DuctGeometry(1.0, 1.0), 6, 6)
    dofs = build_dof_map(mesh, closed_box=True)
    mats = build_system(mesh, dofs, M=0.0, s=1.0, abc="none")
    dt = plan_time_step(mesh, 0.0, 0.35)
    zero = np.zeros(dofs.n_dofs)
    op = StepOperator(mats, dt, load=lambda t: zero)
    Ke = make_energy_stiffness(mesh, dofs, 0.0)

    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    f0 = np.column_stack([np.sin(2 * x) * np.cos(y), x * y * (1 - y)])
    f1 = np.column_stack([np.cos(x + y), np.sin(3 * y) * x])
    xi0 = dofs.restrict(f0)
    xi1 = xi0 + dt * dofs.restrict(f1)
    d0 = (xi1 - xi0) / dt
    E0 = energy(d0, mats.Mh @ d0, xi1, Ke @ xi0)[0]
    assert E0 > 0.0

    state = SimState(xi0, xi1, step=1)
    n_steps = 10_000
    worst = 0.0
    for _ in range(n_steps):
        state = leapfrog_step(op, state)
        if state.step % 250 == 0:
            prev, curr = state.xi_prev, state.xi_curr
            d = (curr - prev) / dt
            E, _ = energy(d, mats.Mh @ d, curr, Ke @ prev)
            worst = max(worst, abs(E - E0) / (E0 * state.step))
    assert worst < 1e-10


def base_config(**over) -> RunConfig:
    kw = dict(
        R=2.0,
        h=1.0,
        nx=16,
        ny=8,
        t_end=0.4,
        snapshot_times=(0.2,),
        M=0.5,
        s=1.0,
        source_kind="rotational",
        source_center_x=0.0,
        source_center_y=0.0,
        source_width=0.25,
        time_t0=0.15,
        time_sigma=0.05,
    )
    kw.update(over)
    return RunConfig(**kw)


def test_run_simulation_smoke(tmp_path):
    out = tmp_path / "run"
    res = run_simulation(base_config(), out_dir=str(out), probes=((1.0, 0.0),))
    assert isinstance(res, RunResult)
    assert res.stable and isinstance(res.status, Stable)
    assert abs(res.n_steps * res.dt - 0.4) < 1e-14
    assert [r.step for r in res.records] == list(range(res.n_steps + 1))
    assert all(r.status == "ok" for r in res.records)
    E = np.array([r.E for r in res.records])
    flux = np.array([r.flux for r in res.records])
    assert np.all(np.isfinite(E))
    assert np.all(flux >= -1e-12)
    assert res.probe_norms.shape == (len(res.records), 1)

    # artifacts
    assert (out / "report.txt").read_text().startswith("status: Stable")
    log = read_energy_log(str(out / "energy.csv"))
    assert [(r.step, r.E, r.flux) for r in log] == [
        (r.step, r.E, r.flux) for r in res.records
    ]
    snaps = sorted(out.glob("snap_*.vtk"))
    assert len(snaps) == 1
    snap = read_snapshot(str(snaps[0]))
    assert snap.points.shape == (res.mesh.n_nodes, 2)
    # nearest step, with slack for the 9-digit time in the snapshot title
    assert abs(snap.t - 0.2) <= res.dt / 2 + 1e-8
    assert np.all(np.isfinite(snap.field))

    # the metadata echo is itself a valid config equal to the input
    from galbrun.config import parse_config_text

    meta = (out / "run_metadata.cfg").read_text()
    assert parse_config_text(meta) == base_config()


def test_run_simulation_deterministic():
    a = run_simulation(base_config())
    b = run_simulation(base_config())
    assert [r.E for r in a.records] == [r.E for r in b.records]
    assert [r.flux for r in a.records] == [r.flux for r in b.records]
    assert np.array_equal(a.final_state.xi_curr, b.final_state.xi_curr)


def test_probes_read_their_own_dofs():
    # A wall node (y eliminated), a Gamma+ node of the closed box (x
    # eliminated) and an interior node: each probe reads |xi| of the nodal
    # field, 0 for an eliminated component, bit for bit.
    cfg = base_config(M=0.0, abc="none", t_end=1.0, source_center_x=1.0)
    probes = ((0.5, 1.0), (2.0, 0.25), (0.5, 0.25))
    res = run_simulation(cfg, probes=probes)
    nodes = [
        int(np.flatnonzero(np.all(res.mesh.nodes == p, axis=1))[0]) for p in probes
    ]
    free = [tuple(res.dofs.node_dofs[n] >= 0) for n in nodes]
    assert free == [(True, False), (False, True), (True, True)]
    field = res.dofs.expand(res.final_state.xi_curr)[nodes]
    assert np.all(field[np.array(free)] != 0.0)
    want = np.hypot(field[:, 0], field[:, 1])
    assert res.probe_norms[-1].tolist() == want.tolist()


@pytest.mark.parametrize(
    "over, status, names",
    [
        # Requested times on one step give one file.
        (
            dict(nx=8, ny=2, t_end=0.3, snapshot_times=(0.3, 0.3, 0.0)),
            "Stable after 2 steps",
            ["snap_000_t0.000000.vtk", "snap_001_t0.300000.vtk"],
        ),
        # exp1 at s = 0 blows up before t = 11: the files it wrote are
        # numbered from 0 without a gap.
        (
            dict(nx=40, ny=10, s=0.0, t_end=12.0, snapshot_times=(0.0, 1.0, 11.0, 12.0)),
            "Unstable at step 66 of 258",
            ["snap_000_t0.000000.vtk", "snap_001_t1.023256.vtk"],
        ),
    ],
)
def test_snapshots_are_numbered_by_the_steps_reached(tmp_path, over, status, names):
    res = run_simulation(RunConfig(**over), out_dir=str(tmp_path))
    assert status_text(res.status, res.n_steps) == status
    assert sorted(p.name for p in tmp_path.glob("snap_*.vtk")) == names


def test_plane_pulse_initial_level():
    cfg = base_config(
        R=1.0,
        nx=24,
        ny=8,
        source_kind="none",
        init_kind="plane_pulse",
        init_center_x=-0.4,
        init_width=0.15,
        t_end=0.01,  # one step: the final state is the two initial levels
        snapshot_times=(),
    )
    res = run_simulation(cfg)
    assert res.stable and res.n_steps == 1 and res.dt == 0.01
    x = res.mesh.nodes[:, 0]
    levels = (res.final_state.xi_prev, res.final_state.xi_curr)
    for t, level in zip((0.0, res.dt), levels):
        z = (x - (1.0 + cfg.M) * t + 0.4) / 0.15  # downstream at speed 1 + M
        want = np.column_stack([np.exp(-0.5 * z * z), np.zeros_like(x)])
        assert np.abs(res.dofs.expand(level) - want).max() < 1e-12


def test_logged_flux_is_the_boundary_mass_flux():
    # The run logs d^T sym(BC) d on the Gamma dofs; the energy identity's
    # outflow int_Gamma |d|^2 is the flux through the boundary mass. Replay
    # the run's trajectory and compare every row while a pulse leaves
    # through Gamma+.
    cfg = base_config(
        R=1.0,
        nx=24,
        ny=8,
        t_end=1.0,
        source_kind="none",
        init_kind="plane_pulse",
        init_center_x=0.4,
        init_width=0.15,
        snapshot_times=(),
    )
    res = run_simulation(cfg)
    assert res.stable
    mesh, dofs, dt = res.mesh, res.dofs, res.dt
    zero = np.zeros(dofs.n_dofs)
    op = StepOperator(build_system(mesh, dofs, cfg.M, cfg.s), dt, load=lambda t: zero)
    xi0, xi1, _ = _initial_levels(cfg, mesh, dofs, dt)
    C0 = assemble_boundary_mass(mesh, dofs)
    want = [boundary_flux((xi1 - xi0) / dt, C0)] * 2
    state = SimState(xi0, xi1, step=1)
    while state.step < res.n_steps:
        state = leapfrog_step(op, state)
        want.append(boundary_flux((state.xi_curr - state.xi_prev) / dt, C0))
    assert np.array_equal(state.xi_curr, res.final_state.xi_curr)
    got = np.array([r.flux for r in res.records])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    # The pulse carried most of its energy out through Gamma+.
    assert res.records[-1].E < 0.1 * res.records[0].E


def test_energy_monotone_decay_without_forcing():
    cfg = base_config(
        R=1.0,
        h=1.0,
        nx=24,
        ny=24,
        t_end=2.0,
        source_kind="none",
        init_kind="bump",
        init_width=0.2,
        snapshot_times=(),
    )
    res = run_simulation(cfg)
    assert res.stable
    E = np.array([r.E for r in res.records])
    Emax = E.max()
    assert Emax > 0
    diffs = np.diff(E[1:])  # row 0 repeats the starter pair
    assert diffs.max() <= 1e-12 * Emax
    assert E.min() >= -1e-12 * Emax
    # By t = 2 the pulse has crossed the absorbing sides and drained.
    assert E[-1] < 0.8 * Emax


def test_cfl_violation_detected_unstable():
    cfg = base_config(
        R=1.0,
        h=1.0,
        nx=8,
        ny=8,
        cfl_safety=1.0,
        t_end=80.0,
        source_kind="none",
        init_kind="bump",
        init_width=0.3,
        snapshot_times=(),
    )
    res = run_simulation(cfg)
    assert isinstance(res.status, Unstable)
    assert res.records[-1].status == "warned"
    last = res.records[-1]
    peak = max(r.E for r in res.records if np.isfinite(r.E))
    assert (not np.isfinite(last.E)) or last.kinetic > INSTABILITY_RATIO * peak
    # probe bookkeeping stays aligned with the records
    res2 = run_simulation(cfg, probes=((0.0, 0.0),))
    assert res2.probe_norms.shape[0] == len(res2.records)


def test_logged_energy_is_the_schemes_own(tmp_path):
    # At s = 0 and with the naive condition the scheme's K differs from the
    # independently assembled Ke; the log must hold the scheme's pairing.
    import galbrun.dynamics
    import galbrun.studies

    for module in (galbrun.dynamics, galbrun.studies):
        assert all(v is not make_energy_stiffness for v in vars(module).values())
    # The naive run starts its source next to the outlet, where Dh acts.
    for over in (dict(s=0.0), dict(abc="naive", source_center_x=1.6)):
        out = tmp_path / over.get("abc", "s0")
        res = run_simulation(base_config(**over), out_dir=str(out))
        row = read_energy_log(str(out / "energy.csv"))[-1]
        assert row.step == res.n_steps
        prev, curr = res.final_state.xi_prev, res.final_state.xi_curr
        cfg = res.config
        mats = build_system(res.mesh, res.dofs, cfg.M, cfg.s, abc=cfg.abc)
        d = (curr - prev) / res.dt
        kinetic = 0.5 * d @ (mats.Mh @ d)
        want = kinetic + 0.5 * curr @ (mats.K @ prev)
        assert row.E == pytest.approx(want, rel=1e-13)
        assert row.kinetic == pytest.approx(kinetic, rel=1e-13)
        Ke = make_energy_stiffness(res.mesh, res.dofs, res.config.M)
        assert abs(kinetic + 0.5 * curr @ (Ke @ prev) - want) > 1e-3 * abs(want)


def test_verdict_independent_of_source_amplitude_and_onset():
    # A linear run scales with the source amplitude and only shifts with
    # its onset; neither may change the verdict.
    for t0 in (0.5, 0.8, 1.2):
        for amplitude in (1e-7, 1.0, 1e7):
            cfg = RunConfig(nx=80, ny=20, s=1.0, time_t0=t0, source_amplitude=amplitude)
            res = run_simulation(cfg)
            assert isinstance(res.status, Stable), (t0, amplitude, res.status)


@pytest.mark.parametrize(
    "cfl, stable", [(0.35, True), (0.6, True), (0.7, False), (1.0, False)]
)
def test_blown_up_field_is_never_stable(cfl, stable):
    # The leapfrog limit on this mesh is about cfl_safety = 0.605; past it
    # the field grows without bound while E stays bounded or falls.
    cfg = RunConfig(
        nx=40,
        ny=10,
        cfl_safety=cfl,
        t_end=20.0,
        source_kind="none",
        init_kind="bump",
    )
    res = run_simulation(cfg)
    assert res.stable == stable
    if stable:
        assert np.abs(res.final_state.xi_curr).max() < 1.0
