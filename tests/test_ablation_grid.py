"""Smoke test of scripts/ablation_grid.py: both sweeps run to a full table."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from .conftest import FIXTURE_CORPUS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("sweep, cells", [
    ("strategy", ["front/varr", "front/varr_plus", "random/varr_plus", "back/varr_plus",
                  "enforced_front/varr_plus", "no_rule/varr_plus"]),
    ("warmup", [f"warmup={ratio}" for ratio in (0.0, 0.1, 0.2, 0.3, 0.4)]),
])
def test_ablation_grid_prints_a_row_per_cell(sweep, cells):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ablation_grid.py"),
         "--corpus", str(FIXTURE_CORPUS), "--sweep", sweep],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[2:]  # under the header and its rule
    assert [row.split()[0] for row in rows] == cells
    for row in rows:
        assert re.fullmatch(r"\S+ +\d+ +\d+ +\d+ +\d+\.\d\d%  [0-9a-f]{12}", row), row
