"""The output checks accept a real run and refuse one flipped decision.

    python -m pytest perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import checks  # noqa: E402
from corpus_gen import corpus_line, generate  # noqa: E402
from varr.cli import main  # noqa: E402

SETTINGS = {
    "sentence-front-plus": ("sentence", "varr_plus", "front"),
    "sentence-random-plus": ("sentence", "varr_plus", "random"),
    "token-back-varr": ("token", "varr", "back"),
}


@pytest.fixture(params=sorted(SETTINGS))
def run(request, tmp_path):
    unit, mode, order = SETTINGS[request.param]
    records = generate(seed=5, records=40)
    for rec in records:
        rec["units"] = (" ".join(rec["sentences"]).split() if unit == "token"
                        else rec["sentences"])
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(corpus_line(r, raw=unit == "token") + "\n" for r in records))
    params = {"epochs": 3, "batch_size": 4, "warmup": 0.1, "k": 2, "seed": 3, "alpha": 1.0,
              "mode": mode, "order": order}
    out = tmp_path / "out"
    code = main([
        "reduce", "--input", str(corpus), "--out-dir", str(out), "--unit", unit,
        "--mode", mode.replace("_", "-"), "--strategy", order, "--epochs", "3",
        "--batch-size", "4", "--warmup", "0.1", "--k-negatives", "2", "--seed", "3",
    ])
    assert code == 0
    reference = checks.reference_events(
        records, params, checks.initial_model(records, 1.0), refit=True)
    return records, params, out, reference


def test_real_run_passes(run):
    records, params, out, reference = run
    assert checks.check_output(records, params, out, reference) == []


@pytest.mark.parametrize("flip", [("kept", "removed"), ("removed", "kept")])
def test_one_flipped_decision_fails(run, flip):
    records, params, out, reference = run
    path = out / "trace.json"
    trace = json.loads(path.read_text())
    event = next(e for e in trace["events"] if e["decision"] == flip[0])
    event["decision"] = flip[1]
    path.write_text(json.dumps(trace))
    assert checks.check_output(records, params, out, reference) != []
