"""Config parsing, validation and artifact round trips."""
from __future__ import annotations

import dataclasses
import os
import re

import numpy as np
import pytest

from galbrun.cli import main
from galbrun.config import (
    ConfigError,
    RunConfig,
    config_to_text,
    load_config,
    parse_config_text,
)
from galbrun.dynamics import run_simulation
from galbrun.mesh import DuctGeometry, build_duct_mesh
from galbrun.output import (
    ENERGY_HEADER,
    FORMAT_CHUNK_ROWS,
    EnergyRecord,
    vtk_geometry,
    write_energy_log,
    write_snapshot,
)

from oracles import read_energy_log, read_snapshot, write_snapshot_per_line


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.validate() == []


def test_parse_round_trip():
    cfg = RunConfig(
        R=3.5,
        nx=80,
        snapshot_times=(0.5, 1.0, 1.5),
        M=-0.25,
        abc="naive",
        source_kind="irrotational",
    )
    text = config_to_text(cfg, header_comments=("example", "two lines"))
    assert parse_config_text(text) == cfg
    # and a second echo is byte-identical
    assert config_to_text(parse_config_text(text)) == config_to_text(cfg)


def test_parse_comments_and_blanks():
    cfg = parse_config_text(
        """
        # a comment
        M = 0.25   # trailing comment
        nx = 12

        s = 0.5
        """
    )
    assert cfg.M == 0.25 and cfg.nx == 12 and cfg.s == 0.5
    assert cfg.ny == RunConfig().ny  # untouched default


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: nz, weird"):
        parse_config_text("nz = 3\nweird = x\nnx = 4")


def readme_config_keys() -> list[str]:
    """The keys named in the first column of the README's configuration
    table, with name_x/y expanded to name_x and name_y."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as f:
        section = f.read().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    keys = []
    for line in section.splitlines():
        if line.startswith("| `"):
            for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
                head, _, tail = name.partition("/")
                keys += [head] + ([head[: -len(tail)] + tail] if tail else [])
    return keys


def test_readme_table_names_every_config_key():
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert sorted(readme_config_keys()) == sorted(fields)


def test_parse_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("M = 0.1\nM = 0.2")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config_text("M: 0.1")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("M = fast")


def test_snapshot_times_list_parsing():
    cfg = parse_config_text("snapshot_times = 0.5, 1.0, 1.5")
    assert cfg.snapshot_times == (0.5, 1.0, 1.5)
    assert parse_config_text("snapshot_times =").snapshot_times == ()


def test_validate_hard_errors():
    bad = [
        dict(R=-1.0),
        dict(nx=0),
        dict(cfl_safety=0.0),
        dict(cfl_safety=1.2),
        dict(t_end=0.0),
        dict(M=1.0),
        dict(M=-1.3),
        dict(s=-0.1),
        dict(abc="open"),
        dict(source_kind="dipole"),
        dict(time_profile="square"),
        dict(init_kind="vortex"),
        dict(source_width=0.0),
        dict(time_sigma=-0.5),
        dict(snapshot_times=(3.0,), t_end=2.0),
        dict(snapshot_times=(-0.1,)),
    ]
    for over in bad:
        with pytest.raises(ConfigError):
            RunConfig(**over).validate()


def test_continuous_time_profile_exits_two(tmp_path, capsys):
    # Every profile needs a support window for the vorticity quadrature;
    # "continuous" had none, and is rejected like any unknown profile.
    path = tmp_path / "run.cfg"
    path.write_text("time_profile = continuous\n")
    with pytest.raises(ConfigError, match="unknown time_profile 'continuous'"):
        load_config(str(path))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "unknown time_profile" in capsys.readouterr().err


def test_validate_subsonic_message():
    with pytest.raises(ConfigError, match="subsonic"):
        RunConfig(M=1.5).validate()


def test_validate_closed_box_needs_rest():
    for M in (0.5, -0.1):
        with pytest.raises(ConfigError, match="needs M = 0"):
            RunConfig(M=M, abc="none").validate()
    assert RunConfig(M=0.0, abc="none").validate() == []


def test_validate_warnings():
    # Outside the sufficient well-posedness regime (needs s < 1, since
    # min(1, s) = 1 beats any subsonic M^2): warn, do not fail. The closed
    # box runs at M = 0, so only s = 0 is outside it there.
    warnings = RunConfig(M=0.0, s=0.0, abc="none").validate()
    assert len(warnings) == 1 and "well-posedness" in warnings[0]
    warnings = RunConfig(M=0.5, s=0.0).validate()
    assert any("well-posedness" in w for w in warnings)
    # s != 1 with an active absorbing boundary is flagged as experimental.
    warnings = RunConfig(M=0.1, s=2.0).validate()
    assert any("experimental" in w for w in warnings)
    assert RunConfig(M=0.0, s=2.0, abc="none").validate() == []


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("M = 0.3\nnx = 20\nny = 10\nt_end = 1.0\n")
    cfg = load_config(str(path))
    assert (cfg.M, cfg.nx, cfg.ny, cfg.t_end) == (0.3, 20, 10, 1.0)
    path.write_text("M = 2.0\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_snapshot_round_trip(tmp_path):
    mesh = build_duct_mesh(DuctGeometry(1.0, 0.5), 5, 3)
    rng = np.random.default_rng(12)
    field = rng.standard_normal((mesh.n_nodes, 2))
    path = tmp_path / "snap.vtk"
    write_snapshot(vtk_geometry(mesh), field, t=1.234567, path=str(path))
    snap = read_snapshot(str(path))
    assert snap.t == pytest.approx(1.234567, abs=1e-9)
    assert np.abs(snap.points - mesh.nodes).max() < 1e-9
    assert np.array_equal(snap.triangles, mesh.triangles)
    assert np.abs(snap.field - field).max() < 1e-8 * np.abs(field).max()
    norm = np.hypot(field[:, 0], field[:, 1])
    assert np.abs(snap.norm - norm).max() < 1e-8 * norm.max()


def test_snapshot_header_layout(tmp_path):
    mesh = build_duct_mesh(DuctGeometry(1.0, 1.0), 1, 1)
    field = np.zeros((mesh.n_nodes, 2))
    field[0] = (3.0, 4.0)  # norm 5: a 3-4-5 triple survives formatting
    path = tmp_path / "tiny.vtk"
    write_snapshot(vtk_geometry(mesh), field, t=0.0, path=str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == "POINTS 4 double"
    assert "CELLS 2 8" in lines
    assert "VECTORS displacement double" in lines
    assert "SCALARS xi_norm double" in lines
    snap = read_snapshot(str(path))
    assert snap.norm[0] == 5.0


@pytest.mark.parametrize("nx, ny", [(5, 3), (40, 10)])
def test_snapshot_bytes_match_per_line_writer(tmp_path, nx, ny):
    mesh = build_duct_mesh(DuctGeometry(4.0, 1.0), nx, ny)
    rng = np.random.default_rng(nx)
    scale = 10.0 ** rng.integers(-300, 300, (mesh.n_nodes, 2))
    field = rng.standard_normal((mesh.n_nodes, 2)) * scale
    field[:7] = [
        (0.0, -0.0),
        (5e-324, -5e-324),
        (1e16, -1e16),
        (-1e300, 1e300),
        (np.inf, -0.0),
        (-np.inf, 5e-324),
        (np.nan, -1.0),
    ]
    t = 1.7441860465116279
    write_snapshot(vtk_geometry(mesh), field, t, str(tmp_path / "new.vtk"))
    write_snapshot_per_line(mesh, field, t, str(tmp_path / "ref.vtk"))
    assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "ref.vtk").read_bytes()


def test_chunked_snapshot_text_equals_one_shot_formatting(tmp_path):
    # The rows are formatted FORMAT_CHUNK_ROWS at a time; on a mesh with
    # more nodes and triangles than one chunk, and a partial last chunk,
    # the text must equal one % over all the rows.
    mesh = build_duct_mesh(DuctGeometry(4.0, 1.0), 130, 40)
    n, m = mesh.n_nodes, mesh.n_triangles
    for rows in (n, m):
        assert rows > FORMAT_CHUNK_ROWS and rows % FORMAT_CHUNK_ROWS
    field = np.random.default_rng(3).standard_normal((n, 2))
    norm = np.hypot(field[:, 0], field[:, 1])
    geometry = (
        f"POINTS {n} double\n"
        + ("%.9g %.9g 0\n" * n) % tuple(mesh.nodes.ravel().tolist())
        + f"CELLS {m} {4 * m}\n"
        + ("3 %d %d %d\n" * m) % tuple(mesh.triangles.ravel().tolist())
        + f"CELL_TYPES {m}\n"
        + "5\n" * m
    )
    assert vtk_geometry(mesh) == geometry
    t = 0.25
    want = (
        "# vtk DataFile Version 2.0\n"
        f"displacement snapshot t={t:.9g}\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n"
        + geometry
        + f"POINT_DATA {n}\nVECTORS displacement double\n"
        + ("%.9g %.9g 0\n" * n) % tuple(field.ravel().tolist())
        + "SCALARS xi_norm double\nLOOKUP_TABLE default\n"
        + ("%.9g\n" * n) % tuple(norm.tolist())
    )
    write_snapshot(vtk_geometry(mesh), field, t, str(tmp_path / "snap.vtk"))
    assert (tmp_path / "snap.vtk").read_bytes() == want.encode()


def test_snapshots_of_one_run_share_the_geometry(tmp_path):
    cfg = RunConfig(nx=20, ny=5, t_end=0.2, snapshot_times=(0.1, 0.2))
    res = run_simulation(cfg, out_dir=str(tmp_path))
    texts = [p.read_text() for p in sorted(tmp_path.glob("snap_*.vtk"))]
    assert len(texts) == 2
    blocks = [text[text.index("POINTS") : text.index("POINT_DATA")] for text in texts]
    assert blocks[0] == blocks[1] == vtk_geometry(res.mesh)


def test_energy_log_round_trip(tmp_path):
    records = [
        EnergyRecord(step=0, t=0.0, E=0.1234567890123456, flux=0.0),
        EnergyRecord(step=1, t=0.05, E=1e-17, flux=2.5e-3),
        EnergyRecord(step=2, t=0.1, E=float("inf"), flux=float("inf"), status="warned"),
    ]
    path = tmp_path / "energy.csv"
    write_energy_log(records, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(ENERGY_HEADER)
    back = read_energy_log(str(path))
    assert back == records  # repr round trip is exact, including inf
    # deterministic bytes on rewrite
    write_energy_log(records, str(path))
    assert path.read_text() == text


def test_run_writes_its_probe_log(tmp_path):
    # probes.csv is a run artifact: run_simulation writes it whenever it has
    # an output directory and probes, without the CLI.
    cfg = RunConfig(nx=20, ny=5, t_end=0.2, snapshot_times=())
    res = run_simulation(cfg, out_dir=str(tmp_path), probes=((0.0, 0.0), (1.0, 0.5)))
    lines = (tmp_path / "probes.csv").read_text().splitlines()
    assert lines[0] == "step,t,xi_norm_at_0.0_0.0,xi_norm_at_1.0_0.5"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [r.step for r in res.records]
