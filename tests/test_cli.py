"""End-to-end checks of the argparse front end and its exit codes."""

import os
import shlex
import subprocess
import sys

import pytest

import galbrun
from galbrun.cli import build_parser, main


def write_cfg(path, **overrides):
    base = {
        "R": 2.0,
        "h": 1.0,
        "nx": 12,
        "ny": 6,
        "t_end": 0.3,
        "M": 0.5,
        "s": 1.0,
        "snapshot_times": "0.2",
        "source_width": 0.25,
        "time_t0": 0.1,
        "time_sigma": 0.04,
    }
    base.update(overrides)
    text = "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n"
    path.write_text(text)
    return str(path)


def test_run_writes_artifacts_and_exits_zero(tmp_path):
    cfg = write_cfg(tmp_path / "a.cfg")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "energy.csv").exists()
    assert (out / "report.txt").exists()
    assert (out / "run_metadata.cfg").exists()
    assert list(out.glob("snap_*.vtk"))


def test_run_probe_flag_writes_probes_csv(tmp_path):
    cfg = write_cfg(tmp_path / "a.cfg", snapshot_times="")
    out = tmp_path / "out"
    code = main(
        ["run", "--config", cfg, "--out", str(out), "--probe", "0,0", "--probe=-1,0.5"]
    )
    assert code == 0
    lines = (out / "probes.csv").read_text().splitlines()
    assert lines[0] == "step,t,xi_norm_at_0.0_0.0,xi_norm_at_-1.0_0.5"
    body = (out / "energy.csv").read_text().splitlines()
    assert len(lines) == len(body)  # one probe row per energy record


@pytest.mark.parametrize("probe", ["100,0", "-2.5,0", "0,1.01", "nan,0"])
def test_probe_outside_the_duct_exits_two(probe, tmp_path, capsys):
    # The duct is [-2, 2] x [-1, 1]; a probe outside it has no node to log.
    cfg = write_cfg(tmp_path / "a.cfg")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), f"--probe={probe}"]) == 2
    assert "lies outside the duct [-2.0, 2.0] x [-1.0, 1.0]" in capsys.readouterr().err
    assert not out.exists()
    # Its edges are inside.
    assert main(["run", "--config", cfg, "--out", str(out), "--probe=-2,1"]) == 0


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", nz=3)
    assert main(["run", "--config", cfg]) == 2
    assert "unknown config keys: nz" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, allowed",
    [
        ("abc", "stable, naive, none"),
        ("source_kind", "rotational, irrotational, none"),
        ("time_profile", "gaussian_pulse, ricker"),
        ("init_kind", "none, bump, plane_pulse"),
    ],
)
def test_unknown_named_value_exits_two_naming_the_values(key, allowed, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", **{key: "bogus"})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert f"unknown {key} 'bogus'; one of {allowed}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exits_two(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_convergence_too_few_levels_exits_two(capsys):
    assert main(["convergence", "--levels", "8,16"]) == 2
    assert "at least 3 levels" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["--levels", "0,8,16"], ["--levels=-4,8,16"]], ids=["zero", "negative"]
)
def test_convergence_non_positive_level_exits_two(capsys, argv):
    # Both crashed with a ValueError traceback from the mesh builder.
    assert main(["convergence", *argv]) == 2
    assert "each at least 3" in capsys.readouterr().err


def test_convergence_repeated_levels_exit_two(capsys):
    # Three equal levels gave a rank-deficient fit and printed an order.
    assert main(["convergence", "--levels", "8,8,8"]) == 2
    assert "all different" in capsys.readouterr().err


def test_convergence_level_two_exits_two(capsys):
    # At n = 2 the only free node is the centre, where the manufactured
    # field vanishes: the relative error was 0/0 and the order printed nan.
    assert main(["convergence", "--levels", "2,4,8"]) == 2
    assert "each at least 3" in capsys.readouterr().err


def test_convergence_runs_without_sympy(monkeypatch, capsys):
    # The manufactured forcing is written by hand; None in sys.modules makes
    # any import of sympy fail.
    monkeypatch.setitem(sys.modules, "sympy", None)
    assert main(["convergence"]) == 0
    lines = capsys.readouterr().out.splitlines()
    orders = [float(ln.split(":")[1]) for ln in lines if "observed order" in ln]
    assert len(orders) == 2 and all(1.7 <= p <= 2.3 for p in orders)


def test_closed_box_with_flow_exits_two(tmp_path, capsys):
    # At M != 0 the closed box gains energy at its end walls and blows up.
    cfg = write_cfg(
        tmp_path / "a.cfg", abc="none", source_kind="none", init_kind="bump"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "needs M = 0" in capsys.readouterr().err
    assert not out.exists()


def test_mesh_without_free_dofs_exits_two(tmp_path, capsys):
    # Every node of the one-cell closed box is a corner: no component is free.
    cfg = write_cfg(
        tmp_path / "a.cfg", nx=1, ny=1, abc="none", M=0.0, source_kind="none"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "no free dof" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, raw",
    [
        ("M", "nan"),
        ("R", "nan"),
        ("t_end", "inf"),
        ("s", "nan"),
        ("source_width", "inf"),
        ("time_t0", "1e999"),
        ("snapshot_times", "0.1, nan"),
    ],
)
def test_non_finite_value_exits_two(tmp_path, capsys, key, raw):
    # These crashed with a traceback (M, R, t_end), ran to a roundoff verdict
    # (s = nan: Unstable at step 2) or ran without a source (an infinitely
    # wide one) and were reported Stable.
    cfg = write_cfg(tmp_path / "a.cfg", **{key: raw})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_bad_probe_argument_raises_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--probe", "1;2"])
    assert exc.value.code == 2


def test_run_with_an_empty_out_dir_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", out_dir="")
    assert main(["run", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert "output directory '' is an empty path" in err
    assert out == ""  # no run started


@pytest.mark.parametrize("command", ["run", "convergence", "stability-contrast"])
def test_a_file_as_out_exits_two_before_any_run(command, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg")
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert main([command, "--config", cfg, "--out", str(taken)]) == 2
    out, err = capsys.readouterr()
    assert f"cannot make output directory {taken}" in err
    assert out == ""  # no run started
    assert taken.read_text() == "kept\n"


def test_a_config_error_found_by_the_run_leaves_no_directory(tmp_path, capsys):
    # The CLI makes new/out before the run finds the probe outside the duct.
    cfg = write_cfg(tmp_path / "a.cfg")
    out = tmp_path / "new" / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--probe=9,0"]) == 2
    assert "lies outside the duct" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_readme_commands_parse():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "README.md")) as f:
        section = f.read().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("galbrun ")]
    assert lines
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        if args.config is not None:
            assert os.path.isfile(os.path.join(root, args.config)), line


def test_unstable_run_still_exits_zero(tmp_path, capsys):
    # the verdict is data; only configuration problems are tool failures
    cfg = write_cfg(
        tmp_path / "a.cfg",
        R=1.0,
        nx=8,
        ny=8,
        cfl_safety=1.0,
        t_end=80.0,
        snapshot_times="",
        source_kind="none",
        init_kind="bump",
        init_width=0.35,
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert "Unstable at step" in capsys.readouterr().out
    assert (out / "energy.csv").exists()


def test_run_prints_the_warnings_and_exits_zero(tmp_path, capsys):
    # s = 0 is outside both the well-posedness regime and the absorbing
    # boundary analysis: a warning each, and the run still completes.
    cfg = write_cfg(tmp_path / "a.cfg", s=0.0, snapshot_times="")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("warning: min(1, s) = 0.0 does not exceed M^2")
    assert err[1] == (
        "warning: absorbing boundary analysis assumes s = 1; this run is experimental"
    )


def test_stability_contrast_writes_both_runs_and_its_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", nx=32, ny=8, t_end=0.4)
    out = tmp_path / "out"
    assert main(["stability-contrast", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "s1" / "energy.csv").exists()
    assert (out / "s0" / "energy.csv").exists()
    path = out / "contrast_report.txt"
    *report, wrote = capsys.readouterr().out.splitlines(keepends=True)
    assert wrote == f"wrote {path}\n"
    assert report[0].startswith("stability contrast: M = 0.5, nx = 32, ny = 8")
    assert path.read_text() == "".join(report)


def test_abc_reflection_writes_its_report(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "a.cfg", R=8.0, t_end=5.0, init_kind="plane_pulse", init_center_x=5.0
    )
    out = tmp_path / "out"
    assert main(["abc-reflection", "--config", cfg, "--out", str(out)]) == 0
    path = out / "reflection_report.txt"
    *report, wrote = capsys.readouterr().out.splitlines(keepends=True)
    assert wrote == f"wrote {path}\n"
    assert report[0].startswith("absorbing-boundary reflection study (probe at (7.0,")
    assert path.read_text() == "".join(report)


def test_abc_reflection_pulse_past_its_probe_exits_two(tmp_path, capsys):
    # Launched at x = 10, downstream of the probe at x = R - 1 = 3, the pulse
    # never passes the probe: no record would fall in the passage window.
    cfg = write_cfg(
        tmp_path / "a.cfg",
        R=4.0,
        t_end=8.0,
        source_kind="none",
        init_kind="plane_pulse",
        init_center_x=10.0,
    )
    assert main(["abc-reflection", "--config", cfg]) == 2
    assert "upstream of the probe at x = 3.0" in capsys.readouterr().err


def test_abc_reflection_pulse_upstream_of_the_duct_exits_two(tmp_path, capsys):
    # Launched at x = -30, far upstream of the duct's end x = -R = -4, the
    # pulse restricts to zero on every node: its passage peak would be 0.
    cfg = write_cfg(
        tmp_path / "a.cfg",
        R=4.0,
        t_end=26.0,
        source_kind="none",
        init_kind="plane_pulse",
        init_center_x=-30.0,
    )
    assert main(["abc-reflection", "--config", cfg]) == 2
    assert "the duct's upstream end x = -4.0" in capsys.readouterr().err


def test_metadata_echo_rerun_reproduces_energy_log(tmp_path):
    cfg = write_cfg(tmp_path / "a.cfg")
    out_a = tmp_path / "a_out"
    out_b = tmp_path / "b_out"
    assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    echoed = out_a / "run_metadata.cfg"
    assert main(["run", "--config", str(echoed), "--out", str(out_b)]) == 0
    assert (out_a / "energy.csv").read_bytes() == (out_b / "energy.csv").read_bytes()


def test_retired_keys_are_unknown_keys(tmp_path, capsys):
    # field_format and serial_deterministic changed no run; metadata echoes
    # that still carry them are rejected like any other unknown key.
    for key, value in (
        ("field_format", "vtk_ascii"),
        ("serial_deterministic", "true"),
    ):
        cfg = write_cfg(tmp_path / "a.cfg", **{key: value})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not out.exists()


def test_unsupported_field_format_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", field_format="hdf5")
    assert main(["run", "--config", cfg]) == 2
    assert "unknown config keys: field_format" in capsys.readouterr().err


def test_serial_deterministic_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--serial-deterministic"])
    assert exc.value.code == 2


def test_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    # exp1 at 160x40 has 12,880 dofs, enough for a threaded BLAS dot to
    # split its sum; every logged number must come out the same anyway.
    src = os.path.dirname(os.path.dirname(galbrun.__file__))
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    cfg = os.path.join(configs, "exp1_rotational.cfg")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        argv = ["stability-contrast", "--config", cfg, "--out", str(tmp_path / threads)]
        subprocess.run(
            [sys.executable, "-m", "galbrun.cli", *argv],
            env=env, check=True, capture_output=True, timeout=300,
        )
    one, two = tmp_path / "1", tmp_path / "2"
    files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
    assert any(f.name == "energy.csv" for f in files)
    for f in files:
        assert (one / f).read_bytes() == (two / f).read_bytes(), f


def test_cli_import_leaves_out_scipy_graph_routines(tmp_path):
    # No command needs scipy.sparse.csgraph: the step's LU blocks are the
    # dof ranges of the two displacement components, not graph components.
    # Importing it would cost every command tens of ms and about 1 MB.
    src = os.path.dirname(os.path.dirname(galbrun.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, galbrun.cli; print('scipy.sparse.csgraph' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, cwd=tmp_path, check=True, capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
