"""galbrun benchmark: the real CLI, one fresh process per repeat.

Usage, from the repository root:

    python3 bench/run.py --workload contrast --seed 0 --seconds 55 --trace 0

A closed loop with one client: repeats run one after another, each a new
``python bench/child.py`` process (``galbrun.cli.main`` plus timestamps)
on the inputs the seed generates. A repeat starts only if it ends within
--seconds at the slowest repeat's pace; there is always at least one.
Every repeat's outputs are checked against reference.json. The report
prints each metric by name with unit, value, median and maximum over
repeats and sample count; the last line is one JSON object with the keys
correct, attempted, failed and metrics. --trace 1 alternates untraced and
traced repeats and reports the per-layer metrics instead of the
end-to-end ones. --workload all runs
every workload in turn. --smoke runs the coarse variants the benchmark's
tests use. Exit status: 0 when every check passed, 1 when an output check
failed, 2 when the repository is missing.

BLAS and OpenMP threads are pinned to one (PINNED_THREADS): on a few
shared cores, spinning BLAS threads made the same repeat vary by a third
and measured the host's scheduler rather than the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
from dataclasses import dataclass

import spans as sp
import workloads as wl

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(wl.BENCH_DIR, "child.py")
# A run must end within 180 s. Repeats start by --seconds (at most 60),
# so a hung child is killed in time.
CHILD_TIMEOUT_S = 100.0
RUN_CAP_S = 150.0  # start no repeat that could end past this

END_TO_END = {
    "command_s": "s",
    "setup_s": "s",
    "dof_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed with every result but not gated: medians of the plain per-repeat
# wall and user + system times, which a burst of load on the host moves by
# more than the bound between runs of the same code.
UNGATED = {"wall_s": "s", "cpu_s": "s"}
LAYERS = ("process", "cli", "config", "studies", "dynamics", "mesh", "assembly",
          "physics", "output")
PER_LAYER = {
    "physics.vorticity_ms": "ms",
    "physics.vorticity_calls": "count",
    "physics.vorticity_point_evals": "count",
    "physics.rhs_ms": "ms",
    "physics.rhs_self_ms": "ms",
    "physics.observe_ms": "ms",
    "physics.energy_stiffness_s": "s",
    "dynamics.solve_ms": "ms",
    "dynamics.scheme_rhs_ms": "ms",
    "dynamics.loop_self_ms": "ms",
    "dynamics.steps": "count",
    "dynamics.factor_s": "s",
    "cli.import_s": "s",
    "mesh.build_s": "s",
    "mesh.n_dofs": "count",
    "assembly.build_system_s": "s",
    "output.snapshot_s": "s",
    "output.snapshots": "count",
    "output.energy_log_s": "s",
    "output.bytes": "bytes",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.span_s": "s",
    "trace.overhead_pct": "%",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PINNED_THREADS = "1"  # every THREAD_VARS entry, in every child
# numpy asks for transparent huge pages on large arrays by default; whether
# the host grants them moved peak RSS of one input by a tenth from run to
# run. Every child runs without them.
FIXED_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}
FACTS_SNIPPET = """\
import json, platform, numpy, scipy, galbrun.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": " ".join(str(blas.get(k, "")) for k in ("name", "version"))}))
"""


@dataclass
class Sample:
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    t_spawn: float
    spans: list[sp.Span]
    out_bytes: int
    observed: dict
    failures: list[str]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(THREAD_VARS, PINNED_THREADS))
    env.update(FIXED_ENV)
    return env


def spawn(argv: list[str], out_path: str, err_path: str, timeout: float):
    """Run argv to completion; return (exit code, rusage, spawn time, wall s)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    t0 = sp.clock()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    killer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
    wall = sp.clock() - t0
    return os.waitstatus_to_exitcode(status), usage, t0, wall


def machine_facts() -> dict:
    """Facts recorded with every result; also warms imports and .pyc files."""
    os.makedirs(WORK, exist_ok=True)
    out, err = os.path.join(WORK, "facts.out"), os.path.join(WORK, "facts.err")
    code, _, _, _ = spawn([sys.executable, "-c", FACTS_SNIPPET], out, err, 60.0)
    with open(out) as f:
        text = f.read()
    if code != 0:
        with open(err) as f:
            raise RuntimeError(f"cannot import galbrun: {f.read().strip()}")
    facts = {"nproc": os.cpu_count(), "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    facts.update(json.loads(text.splitlines()[-1]))
    env = child_env()
    facts["child_env"] = {v: env[v] for v in (*THREAD_VARS, *FIXED_ENV)}
    facts["threads_pinned"] = True
    return facts


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def repeat(workload: wl.Workload, seed: int, smoke: bool, traced: bool,
           reference: dict | None, index: int) -> Sample:
    """One child process; reference None records outputs without checking."""
    run_dir = os.path.join(WORK, f"{workload.name}-{os.getpid()}-{index}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        cfg = os.path.join(run_dir, "input.cfg")
        with open(cfg, "w", newline="\n") as f:
            f.write(wl.config_text(workload, seed, smoke, ROOT))
        out_dir = os.path.join(run_dir, "out")
        spans_path = os.path.join(run_dir, "spans.json")
        stdout_path = os.path.join(run_dir, "stdout.txt")
        argv = [sys.executable, CHILD, spans_path, "1" if traced else "0", "--",
                workload.command, "--config", cfg, "--out", out_dir]
        code, usage, t_spawn, wall = spawn(
            argv, stdout_path, os.path.join(run_dir, "stderr.txt"), CHILD_TIMEOUT_S
        )
        failures = [] if code == 0 else [f"exit status {code}"]
        with open(stdout_path) as f:
            stdout = f.read()
        recorded: list[sp.Span] = []
        observed: dict = {}
        try:
            with open(spans_path) as f:
                recorded = sp.load(json.load(f)["spans"])
            observed = wl.observe(workload, out_dir, stdout)
            if reference is not None:
                entry = wl.reference_entry(reference, workload, seed, smoke)
                failures += wl.compare(observed, entry)
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"unreadable output: {exc!r}")
        calls = sp.count(recorded, "physics.vorticity")
        if workload.vorticity_free and calls:
            failures.append(f"{calls} vorticity evaluations in a vorticity-free workload")
        if failures:
            with open(os.path.join(run_dir, "stderr.txt")) as f:
                failures.append("stderr tail: " + f.read()[-400:].strip())
        return Sample(
            traced=traced,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
            t_spawn=t_spawn,
            spans=recorded,
            out_bytes=dir_bytes(out_dir),
            observed=observed,
            failures=failures,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def runs_with_loops(spans: list[sp.Span]) -> list[tuple[sp.Span, sp.Span | None]]:
    loops = {s.parent: s for s in spans if s.name == "dynamics.loop"}
    return [(s, loops.get(i)) for i, s in enumerate(spans) if s.name == "dynamics.run"]


def repeat_times(sample: Sample) -> dict:
    """One untraced repeat's times, which add up to its wall time.

    setup_s: spawn to the first run, plus each run's start to its first
    step. steps: the wall time of every time step of every run, in order.
    rest_s: the remainder (between and after runs, interpreter exit).
    """
    setup, steps, work = 0.0, [], 0
    for i, (run, loop) in enumerate(runs_with_loops(sample.spans)):
        setup += (run.start - sample.t_spawn) if i == 0 else 0.0
        setup += (loop.start if loop else run.end) - run.start
        starts = run.attrs["step_starts"]
        ends = (starts[1:] + [loop.end]) if loop else []
        steps += [b - a for a, b in zip(starts, ends)]
        work += run.attrs["n_dofs"] * run.attrs["steps"]
    return {"setup_s": setup, "steps": steps, "work": work,
            "rest_s": sample.wall_s - setup - sum(steps)}


def end_to_end(samples: list[Sample]) -> tuple[dict[str, float], list[dict[str, float]]]:
    """The run's end-to-end metrics, and the same quantities per repeat.

    command_s and dof_steps_per_s take each time step at its fastest over
    the repeats (steps are matched by position), and the set-up and the
    rest at theirs. On a 2-core virtual machine of a shared host the same
    code ran at two speeds, about 1.6x apart, switching within seconds: a
    repeat's wall time, or a median over a handful of them, reports the
    share of slow seconds it happened to get, while each step's fastest
    time repeats.
    A change that slows every repeat counts in full. setup_s and
    peak_rss_mb are medians over repeats.
    """
    times = [repeat_times(s) for s in samples]
    loop = sum(min(step) for step in zip(*(t["steps"] for t in times)))
    fastest_setup = min(t["setup_s"] for t in times)
    fastest_rest = min(t["rest_s"] for t in times)
    work = times[0]["work"]
    per_repeat = [
        {
            "command_s": s.wall_s,
            "setup_s": t["setup_s"],
            "dof_steps_per_s": work / sum(t["steps"]),
            "peak_rss_mb": s.peak_rss_mb,
            "wall_s": s.wall_s,
            "cpu_s": s.cpu_s,
        }
        for s, t in zip(samples, times)
    ]
    value = {
        "command_s": fastest_setup + loop + fastest_rest,
        "setup_s": statistics.median(t["setup_s"] for t in times),
        "dof_steps_per_s": work / loop,
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "wall_s": statistics.median(s.wall_s for s in samples),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
    }
    return value, per_repeat


def step_count_failures(samples: list[Sample]) -> list[str]:
    """Steps are matched by position across repeats, so every repeat of
    one input must take the same number of them."""
    counts = sorted({len(repeat_times(s)["steps"]) for s in samples})
    return [f"time steps differ between repeats: {counts}"] if len(counts) > 1 else []


def per_layer(sample: Sample) -> dict[str, float]:
    spans = sample.spans
    own = sp.self_times(spans)

    def total(*names: str) -> float:
        return sum(sp.total(spans, n) for n in names)

    def self_of(name: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.name == name)

    runs = runs_with_loops(spans)
    out = {
        "physics.vorticity_ms": 1e3 * total("physics.vorticity"),
        "physics.vorticity_calls": sp.count(spans, "physics.vorticity"),
        "physics.vorticity_point_evals": sum(
            s.attrs.get("point_evals", 0) for s in spans if s.name == "physics.vorticity"
        ),
        "physics.rhs_ms": 1e3 * total("physics.rhs"),
        "physics.rhs_self_ms": 1e3 * self_of("physics.rhs"),
        "physics.observe_ms": 1e3 * total("physics.energy", "physics.boundary_flux"),
        "physics.energy_stiffness_s": total("physics.energy_stiffness"),
        "dynamics.solve_ms": 1e3 * total("dynamics.solve"),
        "dynamics.scheme_rhs_ms": 1e3 * total("dynamics.scheme_rhs"),
        "dynamics.loop_self_ms": 1e3 * self_of("dynamics.loop"),
        "dynamics.steps": sum(run.attrs["steps"] for run, _ in runs),
        "dynamics.factor_s": total("dynamics.factor"),
        "cli.import_s": total("cli.import"),
        "mesh.build_s": total("mesh.build_duct_mesh", "mesh.build_dof_map"),
        "mesh.n_dofs": max(run.attrs["n_dofs"] for run, _ in runs),
        "assembly.build_system_s": total("assembly.build_system"),
        "output.snapshot_s": total("output.write_snapshot"),
        "output.snapshots": sp.count(spans, "output.write_snapshot"),
        "output.energy_log_s": total("output.write_energy_log"),
        "output.bytes": sample.out_bytes,
    }
    for layer in LAYERS:
        out[f"self.{layer}_s"] = sum(t for s, t in zip(spans, own) if s.layer == layer)
    out["trace.span_s"] = spans[0].duration
    return out


def summarize(rows: list[dict[str, float]], units: dict[str, str],
              value: dict[str, float] | None = None) -> dict[str, dict]:
    """Per metric: its value (the median over rows unless given), the
    median and maximum over rows, and the row count."""
    table = {}
    for name, unit in units.items():
        column = [r[name] for r in rows]
        median = statistics.median(column)
        table[name] = {"value": median if value is None else value[name],
                       "median": median, "max": max(column), "n": len(column), "unit": unit}
    return table


def print_table(title: str, table: dict[str, dict]) -> None:
    print(f"{title}:")
    for name, m in table.items():
        print(f"  {name:<30} value {m['value']:<14.7g} median {m['median']:<14.7g} "
              f"max {m['max']:<14.7g} {m['unit']:<6} n={m['n']}")


def largest_layer(values: dict[str, float]) -> str:
    """The named layer-time metric (not a self time) with the most seconds."""
    seconds = {k: values[k] / (1e3 if PER_LAYER[k] == "ms" else 1.0)
               for k in PER_LAYER if PER_LAYER[k] in ("ms", "s")
               and not k.startswith(("self.", "trace."))}
    return max(seconds, key=seconds.get)


def shape_lines(workload: str, layer: dict[str, dict]) -> list[str]:
    """Seed-state shape of the profile; a change here means re-measure the
    baseline, not that an output is wrong."""
    v = {k: m["value"] for k, m in layer.items()}
    lines = []
    if workload == "contrast":
        share = v["physics.vorticity_ms"] / 1e3 / v["trace.span_s"]
        lines.append(("vorticity layer >= half of wall time", share >= 0.5,
                      f"{100 * share:.1f}% of traced wall"))
    else:
        lines.append(("no vorticity evaluations", v["physics.vorticity_calls"] == 0,
                      f"{v['physics.vorticity_calls']:g} calls"))
    if workload == "reflection":
        largest = largest_layer(v)
        lines.append(("dynamics.solve_ms is the largest layer",
                      largest == "dynamics.solve_ms", f"largest is {largest}"))
    return [f"  {'holds' if ok else 'CHANGED'}: {what} ({detail})" for what, ok, detail in lines]


def run_workload(workload: wl.Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool, reference: dict) -> tuple[dict, bool]:
    facts = machine_facts()
    start = sp.clock()
    samples: list[Sample] = []
    while True:
        traced = trace and len(samples) % 2 == 1
        samples.append(repeat(workload, seed, smoke, traced, reference, len(samples)))
        elapsed = sp.clock() - start
        if trace and not any(s.traced for s in samples):
            continue
        # Start a repeat only if, as slow as the slowest so far, it ends
        # within --seconds.
        if elapsed + max(s.wall_s for s in samples) > min(seconds, RUN_CAP_S):
            break

    plain = [s for s in samples if not s.traced]
    traced_samples = [s for s in samples if s.traced]
    if not any(s.failures for s in samples):
        plain[-1].failures += step_count_failures(plain)
    failed = [s for s in samples if s.failures]

    variant = workload.variant(smoke)
    x = variant.positions[wl.position_index(variant, seed)]
    print(f"workload {workload.name} seed {seed} ({workload.position_key} = {x!r})"
          f"{' smoke' if smoke else ''}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    for s in failed:
        print(f"output check failed ({'traced' if s.traced else 'untraced'} repeat):")
        for line in s.failures:
            print(f"  {line}")
    print(f"  {'fail_ratio':<30} {len(failed) / len(samples):.7g} ratio "
          f"({len(failed)} of {len(samples)} repeats)")
    metrics = e2e = {}
    if not failed:
        value, rows = end_to_end(plain)
        e2e = summarize(rows, END_TO_END, value)
        print_table("end to end (untraced repeats; value: see end_to_end)", e2e)
        print_table("not gated", summarize(rows, UNGATED, value))
        metrics = e2e
    if trace and not failed:
        layer_rows = [per_layer(s) for s in traced_samples]
        traced_wall = statistics.median(s.wall_s for s in traced_samples)
        untraced_wall = statistics.median(s.wall_s for s in plain)
        overhead = 100.0 * (traced_wall / untraced_wall - 1.0)
        for row in layer_rows:
            row["trace.overhead_pct"] = overhead
        layer = summarize(layer_rows, PER_LAYER)
        print_table("per layer (traced repeats)", layer)
        print(f"tracing overhead: traced wall {traced_wall:.4f} s against untraced "
              f"median {untraced_wall:.4f} s ({overhead:+.2f}%)")
        print("baseline shape:")
        for line in shape_lines(workload.name, layer):
            print(line)
        metrics = layer
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    return result, not failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="coarse, short variants for the benchmark's tests")
    args = parser.parse_args(argv)
    missing = [p for p in ("src/galbrun/cli.py", "configs") if not os.path.exists(p)]
    if missing:
        print(f"error: run from the galbrun repository root; missing {missing}",
              file=sys.stderr)
        return 2
    reference = wl.load_reference()
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    all_ok = True
    for name in names:
        result, ok = run_workload(wl.WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), args.smoke, reference)
        all_ok = all_ok and ok
        print(json.dumps(result), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
