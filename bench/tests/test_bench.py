"""Tests of the benchmark itself, on its coarse smoke variants.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from galbrun.config import load_config, parse_config_text  # noqa: E402
from galbrun.studies import reflection_base_config  # noqa: E402

HEADLINE = "verdict: regularized run stable, unregularized run unstable"


def bench(*args: str, cwd: Path = REPO) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def results(lines: list[str]) -> list[dict]:
    return [json.loads(line) for line in lines if line.startswith('{"correct"')]


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(REPO))
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))
    return tmp_path


def test_seed_zero_reproduces_shipped_inputs_and_seeds_move_only_the_position():
    exp1 = (REPO / "configs" / "exp1_rotational.cfg").read_text()
    assert wl.config_text(wl.WORKLOADS["contrast"], 0, False, str(REPO)) == exp1
    exp2 = load_config(str(REPO / "configs" / "exp2_duct_gaussian.cfg"))
    duct = parse_config_text(wl.config_text(wl.WORKLOADS["duct_fine"], 0, False, str(REPO)))
    assert duct == dataclasses.replace(exp2, nx=320, ny=80)
    refl = parse_config_text(wl.config_text(wl.WORKLOADS["reflection"], 0, False, str(REPO)))
    assert refl == reflection_base_config()
    for workload in wl.WORKLOADS.values():
        for smoke in (False, True):
            positions = workload.variant(smoke).positions
            base = parse_config_text(wl.config_text(workload, 0, smoke, str(REPO)))
            for seed in range(1, 2 * len(positions)):
                got = parse_config_text(wl.config_text(workload, seed, smoke, str(REPO)))
                x = positions[seed % len(positions)]
                assert got == dataclasses.replace(base, **{workload.position_key: x})


def test_smoke_emits_every_metric_with_its_unit():
    code, lines = bench("--workload", "all", "--smoke", "--seconds", "0", "--trace", "0")
    assert code == 0
    out = results(lines)
    assert len(out) == len(wl.WORKLOADS)
    for result in out:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
        assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(lines)
    for name, unit in run.END_TO_END.items():
        assert name in text and unit in text
    assert "fail_ratio" in text and "machine: " in text

    code, lines = bench("--workload", "all", "--smoke", "--seconds", "0", "--trace", "1")
    assert code == 0
    out = dict(zip(wl.WORKLOADS, results(lines)))
    for name, result in out.items():
        assert result["correct"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == run.PER_LAYER
    assert out["contrast"]["metrics"]["physics.vorticity_calls"]["value"] > 0
    for name in ("duct_fine", "reflection"):
        assert out[name]["metrics"]["physics.vorticity_calls"]["value"] == 0
    assert "tracing overhead" in "\n".join(lines)


def test_tampered_reference_fails_the_check(tmp_path):
    for part in ("src", "configs", "bench"):
        shutil.copytree(REPO / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "bench" / "reference.json"
    reference = json.loads(path.read_text())
    entry = reference["contrast"]["smoke"][0]
    peak = max(range(len(entry["E"])), key=lambda i: abs(entry["E"][i]))
    entry["E"][peak] *= 1.0 + 10 * wl.E_RTOL
    path.write_text(json.dumps(reference))
    code, lines = bench("--workload", "contrast", "--smoke", "--seconds", "0", cwd=tmp_path)
    assert code == 1
    assert results(lines)[-1]["correct"] is False
    assert any("max deviation" in line for line in lines)


def test_compare_flags_each_checked_output():
    entry = {"verdict": HEADLINE, "E": [0.0, 1.0, 2.0]}
    assert wl.compare({"verdict": HEADLINE, "E": [0.0, 1.0, 2.0 + 1e-7]}, entry) == []
    assert wl.compare({"verdict": "verdict: CONTRAST NOT REPRODUCED", "E": entry["E"]}, entry)
    assert wl.compare({"verdict": HEADLINE, "E": [0.0, 1.0]}, entry)
    rho = {"rho": [3e-3, 1e-3, 2e-4]}
    assert wl.compare(rho, rho) == []
    assert wl.compare({"rho": [3e-3, 1e-3, 2.001e-4]}, rho)
    assert wl.compare({"rho": [1e-3, 3e-3]}, {"rho": [1e-3, 3e-3]})  # not decreasing


def test_traced_layer_self_times_add_up_to_the_run(work):
    reference = wl.load_reference()
    sample = run.repeat(wl.WORKLOADS["contrast"], 0, True, True, reference, 0)
    assert sample.failures == []
    layer = run.per_layer(sample)
    selves = sum(v for k, v in layer.items() if k.startswith("self."))
    assert selves == pytest.approx(layer["trace.span_s"], rel=1e-9)
    assert 0 < layer["trace.span_s"] <= sample.wall_s
    assert layer["physics.rhs_ms"] >= layer["physics.vorticity_ms"] > 0
    own = spans.self_times(sample.spans)
    assert min(own) >= 0


def test_end_to_end_takes_each_step_at_its_fastest_repeat():
    def sample(wall: float, steps: list[float]) -> run.Sample:
        starts = [1.0 + sum(steps[:i]) for i in range(len(steps))]
        loop_end = 1.0 + sum(steps)
        recorded = [
            spans.Span("process", 0.0, wall),
            spans.Span("dynamics.run", 0.5, loop_end, 0,
                       {"step_starts": starts, "n_dofs": 10, "steps": len(steps)}),
            spans.Span("dynamics.loop", 1.0, loop_end, 1),
        ]
        return run.Sample(False, wall, wall, 50.0, 0.0, recorded, 0, {}, [])

    # Set-up 1 s, rest 0.5 s in both; the slow burst hits step 0 of one
    # repeat and step 1 of the other.
    value, rows = run.end_to_end([sample(5.5, [3.0, 1.0]), sample(5.5, [1.0, 3.0])])
    assert value["command_s"] == pytest.approx(1.0 + 2.0 + 0.5)
    assert value["dof_steps_per_s"] == pytest.approx(10 * 2 / 2.0)
    assert value["setup_s"] == pytest.approx(1.0)
    assert value["wall_s"] == 5.5 and [r["command_s"] for r in rows] == [5.5, 5.5]
    assert run.step_count_failures([sample(2.0, [1.0]), sample(3.0, [1.0, 1.0])])


def test_exits_nonzero_without_the_repository(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "contrast", "--seed", "0", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert code != 0 and results(lines) == []


def test_reference_and_baseline_have_the_seed_state_shape():
    reference = wl.load_reference()
    assert all(e["verdict"] == HEADLINE for e in reference["contrast"]["full"])
    assert all(e["status"].startswith("status: Stable") for e in reference["duct_fine"]["full"])
    for entry in reference["reflection"]["full"]:
        assert entry["rho"] == sorted(entry["rho"], reverse=True)

    doc = json.loads((BENCH / "baseline.json").read_text())
    for row in doc["layer_map"]:
        assert set(row["per_layer"]) <= set(run.PER_LAYER)
        assert set(row["moves"]) <= set(run.END_TO_END)
        assert set(row["on"]) <= set(wl.WORKLOADS)
    baseline = doc["workloads"]
    contrast = baseline["contrast"]
    assert (contrast["per_layer"]["physics.vorticity_ms"] / 1e3
            >= 0.5 * contrast["per_layer"]["trace.span_s"])
    for name in ("duct_fine", "reflection"):
        assert baseline[name]["per_layer"]["physics.vorticity_calls"] == 0
    assert run.largest_layer(baseline["reflection"]["per_layer"]) == "dynamics.solve_ms"
