"""Writers for run artifacts.

Snapshots use the legacy ASCII unstructured-grid format so any standard
visualization tool opens them directly; numbers carry 9 significant
digits and lines end with LF regardless of platform. The energy log is a
small CSV with a fixed header; formatting is deterministic so serial
reruns are bit-identical. output_directory makes the artifact directory
before any work starts.
"""

from __future__ import annotations

import csv
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from galbrun.config import ConfigError
from galbrun.mesh import Mesh

ENERGY_HEADER = ("step", "t", "E", "kinetic", "flux", "status")

# Rows formatted per % call. One call over a whole 320x80 mesh boxes about
# 154k cell indices as Python ints at once; chunks bound that to a few MB.
FORMAT_CHUNK_ROWS = 4096


@contextmanager
def output_directory(out: str | None) -> Iterator[None]:
    """Make the output directory, if given, for the work in the block.

    An empty path, or one that os.makedirs cannot make, is a ConfigError.
    The block's own ConfigErrors come before it writes any output, so one
    raised there removes the directories this made, innermost first, and
    leaves no output behind.
    """
    made: list[str] = []
    if out is not None:
        if not out:
            raise ConfigError("output directory '' is an empty path; give --out or out_dir")
        head = os.path.abspath(out)
        while not os.path.exists(head):
            made.append(head)
            head = os.path.dirname(head)
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from exc
    try:
        yield
    except ConfigError:
        for d in made:
            os.rmdir(d)
        raise


@dataclass(frozen=True)
class EnergyRecord:
    step: int
    t: float
    E: float
    kinetic: float = 0.0  # the part 1/2 d^T Mh d of E
    flux: float = 0.0
    status: str = "ok"  # "warned" marks the abort row of an unstable run


def _format_rows(row: str, values: np.ndarray) -> Iterator[str]:
    """The text of row % r for each row r of values, FORMAT_CHUNK_ROWS
    rows per % call."""
    for start in range(0, len(values), FORMAT_CHUNK_ROWS):
        chunk = values[start : start + FORMAT_CHUNK_ROWS]
        yield (row * len(chunk)) % tuple(chunk.ravel().tolist())


def vtk_geometry(mesh: Mesh) -> str:
    """The POINTS, CELLS and CELL_TYPES blocks of a snapshot.

    They are the same in every snapshot of a run, so a run formats them
    once and hands the text to write_snapshot.
    """
    m = mesh.n_triangles
    return "".join(
        [
            f"POINTS {mesh.n_nodes} double\n",
            *_format_rows("%.9g %.9g 0\n", mesh.nodes),
            f"CELLS {m} {4 * m}\n",
            *_format_rows("3 %d %d %d\n", mesh.triangles),
            f"CELL_TYPES {m}\n",
            "5\n" * m,
        ]
    )


def write_snapshot(geometry: str, field: np.ndarray, t: float, path: str) -> None:
    """Write one displacement snapshot on the mesh whose vtk_geometry is given.

    field is nodal, shape (n_nodes, 2); the vector data gets a zero third
    component and the norm goes out as a separate scalar array.
    """
    n = field.shape[0]
    norm = np.hypot(field[:, 0], field[:, 1])
    with open(path, "w", newline="\n") as f:
        f.write(
            "# vtk DataFile Version 2.0\n"
            f"displacement snapshot t={t:.9g}\n"
            "ASCII\n"
            "DATASET UNSTRUCTURED_GRID\n"
        )
        f.write(geometry)
        f.write(f"POINT_DATA {n}\nVECTORS displacement double\n")
        f.writelines(_format_rows("%.9g %.9g 0\n", field))
        f.write("SCALARS xi_norm double\nLOOKUP_TABLE default\n")
        f.writelines(_format_rows("%.9g\n", norm))


def write_energy_log(records: list[EnergyRecord], path: str) -> None:
    with open(path, "w", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(ENERGY_HEADER)
        for r in records:
            floats = (r.t, r.E, r.kinetic, r.flux)
            writer.writerow([r.step, *map(repr, floats), r.status])


def write_probe_log(
    records: list[EnergyRecord],
    probes: tuple[tuple[float, float], ...],
    norms: np.ndarray,
    path: str,
) -> None:
    """|xi| at each probe, one row per energy record; norms is (n_records, n_probes)."""
    with open(path, "w", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["step", "t", *(f"xi_norm_at_{px}_{py}" for px, py in probes)])
        for rec, row in zip(records, norms):
            writer.writerow([rec.step, repr(rec.t), *(repr(float(v)) for v in row)])
