"""Small-mesh outputs against the golden files in tests/golden.

make_golden.py wrote them; each case here reruns its runs at 40x10 and
compares what they write with the committed files. A change that only
reorders floating-point operations passes; one that changes the
numbers, as a load scaled by 1 + 1e-10 does, fails.
"""
from __future__ import annotations

import csv
import os

import numpy as np
import pytest

from make_golden import CASES, GOLDEN

# Every column agrees within this fraction of its own largest magnitude.
# Factoring with SuperLU's default panel width, which changes the rounding
# only, moved no column by more than 8.4e-15 of its max. At 40x10 no column
# holds rounding alone: exp2's flux peaks at 4e-3 of its max E, and its
# probe at (3, 0) sees the pulse's tail, so none needs a floor.
RTOL = 1e-12
EXACT = ("step", "status")


def read(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    return header, rows


def assert_columns_close(want_path: str, got_path: str) -> None:
    (want_header, want), (got_header, got) = read(want_path), read(got_path)
    assert got_header == want_header
    assert len(got) == len(want), f"{len(got)} rows, {len(want)} golden"
    for j, name in enumerate(want_header):
        w, g = [row[j] for row in want], [row[j] for row in got]
        if name in EXACT:
            assert g == w, name
            continue
        w, g = np.array(w, dtype=float), np.array(g, dtype=float)
        err, scale = np.abs(g - w).max(), np.abs(w).max()
        assert err <= RTOL * scale, f"{name}: off by {err:.3e}, max {scale:.3e}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_small_mesh_outputs_match_the_golden_files(case, tmp_path):
    CASES[case](str(tmp_path))
    golden = os.path.join(GOLDEN, case)
    names = sorted(os.listdir(golden))
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        want, got = os.path.join(golden, name), os.path.join(tmp_path, name)
        if name.endswith(".csv"):
            assert_columns_close(want, got)
        else:
            with open(want) as f, open(got) as g:
                assert g.read() == f.read(), name
