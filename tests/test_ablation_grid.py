"""scripts/ablation_grid.py: both sweeps run to a full table, each cell is
the ``varr reduce`` run of its flags, and a cell fails as that run does."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from varr.cli import main

from .conftest import FIXTURE_CORPUS

ROOT = Path(__file__).resolve().parent.parent
STRATEGY_CELLS = {
    "front/varr": ["--strategy", "front", "--mode", "varr"],
    "front/varr_plus": ["--strategy", "front", "--mode", "varr-plus"],
    "random/varr_plus": ["--strategy", "random", "--mode", "varr-plus"],
    "back/varr_plus": ["--strategy", "back", "--mode", "varr-plus"],
    "enforced_front/varr_plus": ["--strategy", "enforced-front:2", "--mode", "varr-plus"],
    "no_rule/varr_plus": ["--strategy", "no-rule"],
}


def run_grid(*flags):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ablation_grid.py"), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("sweep, cells", [
    ("strategy", list(STRATEGY_CELLS)),
    ("warmup", [f"warmup={ratio}" for ratio in (0.0, 0.1, 0.2, 0.3, 0.4)]),
])
def test_ablation_grid_prints_a_row_per_cell(sweep, cells):
    done = run_grid("--corpus", str(FIXTURE_CORPUS), "--sweep", sweep)
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[2:]  # under the header and its rule
    assert [row.split()[0] for row in rows] == cells
    for row in rows:
        assert re.fullmatch(r"\S+ +\d+ +\d+ +\d+ +\d+\.\d\d%  [0-9a-f]{12}", row), row


def test_ablation_grid_passes_flags_on_to_varr_reduce(tmp_path):
    flags = ["--seed", "7", "--unit", "token"]
    done = run_grid("--corpus", str(FIXTURE_CORPUS), *flags)
    assert done.returncode == 0, done.stderr
    fingerprints = {}
    for name, cell in STRATEGY_CELLS.items():
        out = tmp_path / name.replace("/", "-")
        assert main(["reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                     "--batch-size", "4", *flags, *cell]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        fingerprints[name] = report["determinism_fingerprint"][:12]
    rows = done.stdout.splitlines()[2:]
    assert {row.split()[0]: row.split()[-1] for row in rows} == fingerprints


def test_ablation_grid_cell_fails_as_varr_reduce_does(tmp_path):
    corpus = tmp_path / "blank.jsonl"
    corpus.write_text("".join(json.dumps({
        "id": rid, "question": "what is it", "rationale": ["One here.", "Two here."],
        "answer": answer, "task_kind": "free_form"}) + "\n" for rid, answer in
        (("a", "fine"), ("b", " "))), encoding="utf-8")
    done = run_grid("--corpus", str(corpus), "--epochs", "2", "--batch-size", "2",
                    "--warmup", "0")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr == (f"violation [b]: answer is empty\n"
                           f"error: 1 violation(s) in corpus {corpus}\n")
    header, rule, *rows = done.stdout.splitlines()  # the first cell failed: no row
    assert header.startswith("strategy/mode") and set(rule) == {"-"} and rows == []


def test_ablation_grid_puts_log_level_before_reduce():
    done = run_grid("--corpus", str(FIXTURE_CORPUS), "--log-level", "info")
    assert done.returncode == 0, done.stderr
    assert done.stderr.count("INFO varr.schedule: epoch 1/") == len(STRATEGY_CELLS)
    assert [row.split()[0] for row in done.stdout.splitlines()[2:]] == list(STRATEGY_CELLS)


def test_ablation_grid_prints_the_rows_of_cells_before_a_failing_one():
    # --mode reaches every cell; the no_rule cell, the last, refuses it
    done = run_grid("--corpus", str(FIXTURE_CORPUS), "--mode", "varr")
    assert done.returncode == 1
    assert done.stderr == ("error: --mode is meaningless with --strategy no-rule "
                           "(criteria are bypassed)\n")
    rows = done.stdout.splitlines()[2:]
    assert [row.split()[0] for row in rows] == list(STRATEGY_CELLS)[:5]
