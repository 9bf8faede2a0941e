"""Writers and readers for run artifacts.

Snapshots use the legacy ASCII unstructured-grid format so any standard
visualization tool opens them directly; numbers carry 9 significant
digits and lines end with LF regardless of platform. The energy log is a
small CSV with a fixed header; formatting is deterministic so serial
reruns are bit-identical.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from galbrun.mesh import Mesh

ENERGY_HEADER = ("step", "t", "E", "kinetic", "flux", "status")


@dataclass(frozen=True)
class EnergyRecord:
    step: int
    t: float
    E: float
    kinetic: float = 0.0  # the part 1/2 d^T Mh d of E
    flux: float = 0.0
    status: str = "ok"  # "warned" marks the abort row of an unstable run


def write_snapshot(mesh: Mesh, field: np.ndarray, t: float, path: str) -> None:
    """Write one displacement snapshot.

    field is nodal, shape (n_nodes, 2); the vector data gets a zero third
    component and the norm goes out as a separate scalar array.
    """
    n = mesh.n_nodes
    m = mesh.n_triangles
    norm = np.hypot(field[:, 0], field[:, 1])
    with open(path, "w", newline="\n") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write(f"displacement snapshot t={t:.9g}\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {n} double\n")
        for x, y in mesh.nodes:
            f.write(f"{x:.9g} {y:.9g} 0\n")
        f.write(f"CELLS {m} {4 * m}\n")
        for a, b, c in mesh.triangles:
            f.write(f"3 {a} {b} {c}\n")
        f.write(f"CELL_TYPES {m}\n")
        for _ in range(m):
            f.write("5\n")
        f.write(f"POINT_DATA {n}\n")
        f.write("VECTORS displacement double\n")
        for u, v in field:
            f.write(f"{u:.9g} {v:.9g} 0\n")
        f.write("SCALARS xi_norm double\n")
        f.write("LOOKUP_TABLE default\n")
        for w in norm:
            f.write(f"{w:.9g}\n")


@dataclass(frozen=True)
class Snapshot:
    t: float
    points: np.ndarray     # (n, 2)
    triangles: np.ndarray  # (m, 3)
    field: np.ndarray      # (n, 2)
    norm: np.ndarray       # (n,)


def read_snapshot(path: str) -> Snapshot:
    """Parse a snapshot written by write_snapshot."""
    with open(path) as f:
        lines = f.read().splitlines()
    title = lines[1]
    t = float(title.rsplit("t=", 1)[1]) if "t=" in title else float("nan")
    i = 4
    if not lines[i].startswith("POINTS"):
        raise ValueError(f"{path}: expected POINTS at line {i + 1}")
    n = int(lines[i].split()[1])
    pts = np.array([[float(v) for v in lines[i + 1 + k].split()] for k in range(n)])
    i += 1 + n
    m = int(lines[i].split()[1])
    tris = np.array(
        [[int(v) for v in lines[i + 1 + k].split()[1:]] for k in range(m)], dtype=np.int64
    )
    i += 1 + m
    i += 1 + m  # CELL_TYPES block
    if not lines[i].startswith("POINT_DATA"):
        raise ValueError(f"{path}: expected POINT_DATA at line {i + 1}")
    i += 1
    if not lines[i].startswith("VECTORS displacement"):
        raise ValueError(f"{path}: expected VECTORS displacement")
    vec = np.array([[float(v) for v in lines[i + 1 + k].split()] for k in range(n)])
    i += 1 + n
    if not lines[i].startswith("SCALARS xi_norm"):
        raise ValueError(f"{path}: expected SCALARS xi_norm")
    i += 2  # skip LOOKUP_TABLE line
    norm = np.array([float(lines[i + k]) for k in range(n)])
    return Snapshot(t=t, points=pts[:, :2], triangles=tris, field=vec[:, :2], norm=norm)


def write_energy_log(records: list[EnergyRecord], path: str) -> None:
    with open(path, "w", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(ENERGY_HEADER)
        for r in records:
            floats = (r.t, r.E, r.kinetic, r.flux)
            writer.writerow([r.step, *map(repr, floats), r.status])


def write_probe_log(
    records: list[EnergyRecord],
    probes: list[tuple[float, float]],
    norms: np.ndarray,
    path: str,
) -> None:
    """|xi| at each probe, one row per energy record; norms is (n_records, n_probes)."""
    with open(path, "w", newline="\n") as f:
        cols = ",".join(f"xi_norm_at_{px}_{py}" for px, py in probes)
        f.write(f"step,t,{cols}\n")
        for rec, row in zip(records, norms):
            vals = ",".join(repr(float(v)) for v in row)
            f.write(f"{rec.step},{rec.t!r},{vals}\n")


def read_energy_log(path: str) -> list[EnergyRecord]:
    records = []
    with open(path) as f:
        reader = csv.reader(f)
        header = tuple(next(reader))
        if header != ENERGY_HEADER:
            raise ValueError(f"{path}: unexpected header {header}")
        for row in reader:
            records.append(EnergyRecord(int(row[0]), *map(float, row[1:5]), row[5]))
    return records
