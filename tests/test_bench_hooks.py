"""The names the benchmark child hooks must exist in the package.

bench/child.py wraps every (module, attribute) of its TRACED table when run
with --trace 1, and always replaces galbrun.dynamics.run_simulation and the
module global leapfrog_step to time each step. A rename or deletion in
src/ would only surface when the benchmark runs; this check reads the
table from the file, without importing or changing it, and resolves every
name.
"""
from __future__ import annotations

import ast
import importlib
import os

import pytest

CHILD = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "child.py")


def traced_table() -> tuple[tuple[str, str, str], ...]:
    with open(CHILD) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/child.py has no TRACED table")


TRACED = traced_table()


@pytest.mark.parametrize(
    "modname, attr", [(m, a) for m, a, _ in TRACED], ids=[s for _, _, s in TRACED]
)
def test_traced_name_resolves(modname, attr):
    module = importlib.import_module(modname)
    if "." in attr:
        # install_traced reads the method from the class's own __dict__.
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(module, cls_name))[method])
    else:
        assert callable(getattr(module, attr))


def test_run_hooks_resolve():
    dyn = importlib.import_module("galbrun.dynamics")
    assert callable(dyn.run_simulation) and callable(dyn.leapfrog_step)
    # The step hook swaps the module global, so the time loop, march, must
    # look leapfrog_step up there at call time rather than hold its own
    # reference, and run_simulation must step through march.
    assert "leapfrog_step" in dyn.march.__code__.co_names
    assert "march" in dyn.run_simulation.__code__.co_names


def test_step_hook_sees_one_call_per_step(monkeypatch):
    # The step hook counts calls of the module global leapfrog_step while
    # run_simulation runs; dof_steps_per_s rests on one call per step.
    from galbrun.config import RunConfig

    dyn = importlib.import_module("galbrun.dynamics")
    step = dyn.leapfrog_step
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].step)
        return step(*args, **kwargs)

    monkeypatch.setattr(dyn, "leapfrog_step", counted)
    cfg = RunConfig(R=2.0, nx=16, ny=8, t_end=0.4, time_t0=0.15, time_sigma=0.05)
    res = dyn.run_simulation(cfg)
    assert res.stable
    assert len(calls) == res.final_state.step - 1 == res.n_steps - 1
    assert calls == list(range(1, res.n_steps))


def test_vorticity_span_attributes_resolve():
    # The physics.vorticity span counts n_nodes times the points inside the
    # source's support window.
    from galbrun.physics import CausalVorticity, SourceSpec

    psi = CausalVorticity(SourceSpec(), M=0.5)
    assert psi.n_nodes > 0
    assert psi.source.time_profile.support_window() is not None
