"""Benchmark workloads: their CLI commands, seeded inputs and output checks.

Each workload is one galbrun subcommand on one configuration. The seed
picks the x position of the source (or of the initial pulse) from a short
list; position 0 is the shipped configuration, so seed 0 reproduces it
byte for byte. The other positions were checked to give the same verdict.
The smoke variants run the same commands on coarse meshes and short
horizons for the benchmark's own tests.

Output checks read what the CLI wrote (energy.csv by column name, the
printed verdict, status and rho lines) and compare it with
reference.json at the tolerances below, never byte for byte: the bytes of
energy.csv move in the last digit with the BLAS thread count.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

# |E - E_ref| <= E_RTOL * max|E_ref| on every row: admits a change of the
# vorticity quadrature kept within 1e-6 of E, catches any change of the
# scheme or of its data.
E_RTOL = 1e-6
# rho is printed with 7 significant digits.
RHO_RTOL = 1e-5

# The defaults of galbrun.studies.reflection_base_config, as a config file.
REFLECTION_CFG = """\
R = 4.0
h = 1.0
t_end = 8.0
M = 0.5
s = 1.0
abc = stable
source_kind = none
init_kind = plane_pulse
init_center_x = -2.0
init_width = 0.35
"""


@dataclass(frozen=True)
class Variant:
    overrides: dict[str, str]
    positions: tuple[float, ...]  # positions[0] is the unmodified input


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    base_config: str | None  # path from the repository root; None: REFLECTION_CFG
    position_key: str
    full: Variant
    smoke: Variant
    vorticity_free: bool  # CausalVorticity must never be evaluated

    def variant(self, smoke: bool) -> Variant:
        return self.smoke if smoke else self.full


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="contrast",
            command="stability-contrast",
            base_config="configs/exp1_rotational.cfg",
            position_key="source_center_x",
            full=Variant({}, (0.0, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4)),
            smoke=Variant(
                {"nx": "32", "ny": "8", "t_end": "0.4", "snapshot_times": "0.4"},
                (0.0, 0.1),
            ),
            vorticity_free=False,
        ),
        Workload(
            name="duct_fine",
            command="run",
            base_config="configs/exp2_duct_gaussian.cfg",
            position_key="source_center_x",
            full=Variant(
                {"nx": "320", "ny": "80"},
                (-1.0, -1.3, -1.2, -1.1, -0.9, -0.8, -0.7, -0.6),
            ),
            smoke=Variant(
                {"nx": "32", "ny": "8", "t_end": "0.4", "snapshot_times": "0.2, 0.4"},
                (-1.0, -0.9),
            ),
            vorticity_free=True,
        ),
        Workload(
            name="reflection",
            command="abc-reflection",
            base_config=None,
            position_key="init_center_x",
            full=Variant({}, (-2.0, -1.9, -1.8, -1.7, -1.6, -1.5, -1.4, -1.3)),
            # The study's mesh levels are fixed; a longer duct makes them
            # coarser and a pulse near the outlet shortens the horizon.
            smoke=Variant(
                {"R": "8.0", "t_end": "5.0", "init_center_x": "5.0"}, (5.0, 5.1)
            ),
            vorticity_free=True,
        ),
    )
}


def position_index(variant: Variant, seed: int) -> int:
    return seed % len(variant.positions)


def _set_keys(text: str, values: dict[str, str]) -> str:
    """Replace the value of each given key, appending keys not present."""
    lines, seen = [], set()
    for line in text.splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        if key in values and "=" in line:
            line = f"{key} = {values[key]}"
            seen.add(key)
        lines.append(line)
    lines += [f"{k} = {v}" for k, v in values.items() if k not in seen]
    return "\n".join(lines) + "\n"


def config_text(workload: Workload, seed: int, smoke: bool, root: str) -> str:
    """The configuration file the seed selects."""
    if workload.base_config is None:
        text = REFLECTION_CFG
    else:
        with open(os.path.join(root, workload.base_config)) as f:
            text = f.read()
    variant = workload.variant(smoke)
    values = dict(variant.overrides)
    j = position_index(variant, seed)
    if j:
        values[workload.position_key] = repr(variant.positions[j])
    return _set_keys(text, values) if values else text


def _energy_column(path: str) -> list[float]:
    with open(path, newline="") as f:
        return [float(row["E"]) for row in csv.DictReader(f)]


def _line_starting(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line.strip()
    return ""


_RHO = re.compile(r"rho = (\S+)")


def observe(workload: Workload, out_dir: str, stdout: str) -> dict:
    """The checked outputs of one finished CLI run."""
    if workload.name == "contrast":
        return {
            "verdict": _line_starting(stdout, "verdict:"),
            "E": _energy_column(os.path.join(out_dir, "s1", "energy.csv")),
        }
    if workload.name == "duct_fine":
        return {
            "status": _line_starting(stdout, "status:"),
            "E": _energy_column(os.path.join(out_dir, "energy.csv")),
        }
    return {"rho": [float(m.group(1)) for m in _RHO.finditer(stdout)]}


def _energy_failures(got: list[float], ref: list[float]) -> list[str]:
    if len(got) != len(ref):
        return [f"E: {len(got)} rows, reference has {len(ref)}"]
    scale = max((abs(v) for v in ref), default=0.0)
    worst = max((abs(a - b) for a, b in zip(got, ref)), default=0.0)
    if not worst <= E_RTOL * scale:
        return [f"E: max deviation {worst:.3e} exceeds {E_RTOL:g} x {scale:.3e}"]
    return []


def compare(observed: dict, reference: dict) -> list[str]:
    """Failures of observed outputs against one reference entry."""
    failures = []
    for key in ("verdict", "status"):
        if key in reference and observed.get(key) != reference[key]:
            failures.append(f"{key}: {observed.get(key)!r} != {reference[key]!r}")
    if "E" in reference:
        failures += _energy_failures(observed.get("E", []), reference["E"])
    if "rho" in reference:
        rho = observed.get("rho", [])
        if len(rho) != len(reference["rho"]):
            failures.append(f"rho: {len(rho)} levels, reference has {len(reference['rho'])}")
        else:
            for i, (a, b) in enumerate(zip(rho, reference["rho"])):
                if not abs(a - b) <= RHO_RTOL * abs(b):
                    failures.append(f"rho level {i}: {a!r} != {b!r}")
            if any(b >= a for a, b in zip(rho, rho[1:])):
                failures.append(f"rho does not decrease under refinement: {rho}")
    return failures


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def reference_entry(reference: dict, workload: Workload, seed: int, smoke: bool) -> dict:
    variant = workload.variant(smoke)
    mode = "smoke" if smoke else "full"
    return reference[workload.name][mode][position_index(variant, seed)]
