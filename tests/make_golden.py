"""Regenerate the golden small-mesh outputs that tests/test_golden.py checks.

Usage, from the repository root:

    PYTHONPATH=src python tests/make_golden.py

Every case runs at 40x10 cells and keeps its full-precision energy.csv in
tests/golden/<case>/:

- exp1 and exp2 as configured, exp2 with a probe at (3, 0) and its
  probes.csv;
- a bump start (the Taylor second level) and a plane-pulse start (a given
  second level), both launched at x = 2 so that they leave through Gamma+;
- stability-contrast's default pair: the s = 0 rows up to t = 1.4, before
  the grid-scale growth that roundoff seeds takes over, and both status
  lines.

Regenerate only for a change that moves the numbers on purpose, and state
in CHANGES.md how far they moved.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import shutil
import sys
import tempfile
from collections.abc import Callable

from galbrun.config import RunConfig, load_config
from galbrun.dynamics import run_simulation, status_text
from galbrun.studies import cmd_stability_contrast

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
CONFIGS = os.path.join(HERE, os.pardir, "configs")
SMALL = {"nx": 40, "ny": 10}
CONTRAST_T_MAX = 1.4


def _config(name: str) -> RunConfig:
    return dataclasses.replace(load_config(os.path.join(CONFIGS, name)), **SMALL)


def _run(cfg: RunConfig, probes: tuple[tuple[float, float], ...] = ()):
    """A case that runs cfg and keeps energy.csv, and probes.csv if probed."""
    kept = ("energy.csv", "probes.csv") if probes else ("energy.csv",)

    def write(out: str) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            run_simulation(cfg, out_dir=tmp, probes=probes)
            for name in kept:
                shutil.copy(os.path.join(tmp, name), os.path.join(out, name))

    return write


def _contrast(out: str) -> None:
    cfg = RunConfig(snapshot_times=(1.5, 1.75, 2.0), **SMALL)  # the command's default
    with tempfile.TemporaryDirectory() as tmp:
        report = cmd_stability_contrast(cfg, out_dir=tmp)
        with open(os.path.join(tmp, "s0", "energy.csv"), newline="") as f:
            header, *rows = csv.reader(f)
    early = [row for row in rows if float(row[1]) <= CONTRAST_T_MAX]
    with open(os.path.join(out, "energy_s0.csv"), "w", newline="\n") as f:
        csv.writer(f, lineterminator="\n").writerows([header, *early])
    with open(os.path.join(out, "status.txt"), "w", newline="\n") as f:
        for r in (report.regularized, report.unregularized):
            f.write(f"s = {r.config.s:g}: {status_text(r.status, r.n_steps)}\n")


# Each case writes its golden files into the directory it is given.
CASES: dict[str, Callable[[str], None]] = {
    "exp1": _run(_config("exp1_rotational.cfg")),
    "exp2_probe": _run(_config("exp2_duct_gaussian.cfg"), probes=((3.0, 0.0),)),
    "bump": _run(RunConfig(source_kind="none", init_kind="bump", init_center_x=2.0, **SMALL)),
    "plane_pulse": _run(
        RunConfig(source_kind="none", init_kind="plane_pulse", init_center_x=2.0, **SMALL)
    ),
    "contrast": _contrast,
}


def main() -> int:
    for name, write in CASES.items():
        out = os.path.join(GOLDEN, name)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        write(out)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
