"""One benchmark repeat: the galbrun CLI in a fresh process, with spans.

Usage (from the repository root, with PYTHONPATH=src):

    python bench/child.py SPANS_JSON TRACE -- CLI_ARGS...

Runs ``galbrun.cli.main(CLI_ARGS)`` exactly as ``python -m galbrun.cli``
does and writes the recorded spans to SPANS_JSON. With TRACE = 0 only
timestamps are taken: the import, the CLI call, per simulation run its
start and end, and the start of each time step (one clock read per step,
well under a thousandth of a step's time). With TRACE = 1 the public calls
of every layer are wrapped as well (see TRACED), which costs a little per
call; run.py reports that cost as the tracing overhead.
"""

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

from spans import Recorder, clock  # noqa: E402

# (module, attribute, span name): the layer boundaries the traced run times.
TRACED = (
    ("galbrun.config", "load_config", "config.load_config"),
    ("galbrun.studies", "cmd_stability_contrast", "studies.stability_contrast"),
    ("galbrun.studies", "cmd_abc_reflection", "studies.abc_reflection"),
    ("galbrun.mesh", "build_duct_mesh", "mesh.build_duct_mesh"),
    ("galbrun.mesh", "build_dof_map", "mesh.build_dof_map"),
    ("galbrun.assembly", "build_system", "assembly.build_system"),
    ("galbrun.physics", "make_energy_stiffness", "physics.energy_stiffness"),
    ("galbrun.physics", "energy", "physics.energy"),
    ("galbrun.physics", "boundary_flux", "physics.boundary_flux"),
    ("galbrun.physics", "RhsAssembler.__call__", "physics.rhs"),
    ("galbrun.physics", "CausalVorticity.gradient", "physics.vorticity"),
    ("galbrun.dynamics", "StepOperator.__init__", "dynamics.factor"),
    ("galbrun.dynamics", "StepOperator.solve", "dynamics.solve"),
    ("galbrun.dynamics", "StepOperator.scheme_rhs", "dynamics.scheme_rhs"),
    ("galbrun.output", "write_snapshot", "output.write_snapshot"),
    ("galbrun.output", "write_energy_log", "output.write_energy_log"),
)


def _replace_everywhere(old, new) -> None:
    """Point every galbrun module name bound to old at new.

    Modules import functions by name (``from galbrun.dynamics import
    run_simulation``), so patching only the defining module would miss
    the callers.
    """
    for modname, module in list(sys.modules.items()):
        if modname == "galbrun" or modname.startswith("galbrun."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def _vorticity_point_evals(vorticity, pts, t: float) -> int:
    """Quadrature nodes times points when the Duhamel window is non-empty."""
    lo, hi = 0.0, t
    window = vorticity.source.time_profile.support_window()
    if window is not None:
        lo, hi = max(lo, t - window[1]), min(hi, t - window[0])
    if hi <= lo:
        return 0
    return vorticity.n_nodes * math.prod(pts.shape[:-1])


def _wrap(rec: Recorder, target, span_name: str):
    @functools.wraps(target)
    def wrapper(*args, **kwargs):
        span = rec.open(span_name)
        if span_name == "physics.vorticity":
            span.attrs["point_evals"] = _vorticity_point_evals(*args[:3])
        try:
            return target(*args, **kwargs)
        finally:
            rec.close(span)

    return wrapper


def install_traced(rec: Recorder) -> None:
    for modname, attr, span_name in TRACED:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, _wrap(rec, cls.__dict__[method], span_name))
        else:
            target = getattr(module, attr)
            _replace_everywhere(target, _wrap(rec, target, span_name))


def install_run_hooks(rec: Recorder) -> None:
    """Span each simulation run and its time loop; time-stamp every step.

    The loop span opens at the run's first call of leapfrog_step. Each
    call's start goes into the run span's ``step_starts``: one step runs
    from its start to the next one's (the last to the loop's end), so the
    observation, snapshot and next load of a step are inside it.
    """
    import galbrun.dynamics as dyn

    run_orig = dyn.run_simulation
    step_orig = dyn.leapfrog_step
    open_loops = []

    @functools.wraps(run_orig)
    def run(*args, **kwargs):
        span = rec.open("dynamics.run")
        starts = span.attrs["step_starts"] = []

        def step(*step_args, **step_kwargs):
            now = clock()
            if not starts:
                open_loops.append(rec.open("dynamics.loop", at=now))
            starts.append(now)
            return step_orig(*step_args, **step_kwargs)

        dyn.leapfrog_step = step
        try:
            result = run_orig(*args, **kwargs)
        finally:
            dyn.leapfrog_step = step_orig
            if open_loops:
                rec.close(open_loops.pop())
            rec.close(span)
        span.attrs["n_dofs"] = int(result.dofs.n_dofs)
        span.attrs["steps"] = int(result.final_state.step) - 1
        return result

    _replace_everywhere(run_orig, run)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[1] not in ("0", "1"):
        print("usage: child.py SPANS_JSON TRACE -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, traced, cli_args = argv[0], argv[1] == "1", argv[3:]
    rec = Recorder()
    root = rec.open("process", at=T_START)
    code = 1
    try:
        span = rec.open("cli.import")
        try:
            import galbrun.cli
        finally:
            rec.close(span)
        install_run_hooks(rec)
        if traced:
            install_traced(rec)
        span = rec.open("cli.main")
        try:
            code = galbrun.cli.main(cli_args)
        finally:
            rec.close(span)
    finally:
        rec.close(root)
        with open(spans_path, "w") as f:
            json.dump({"spans": rec.dump()}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
