"""The benchmark's hooks still attach to the package.

``perfbench/probe.py`` and ``perfbench/traced.py`` replace or wrap
public functions of ``varr`` by name; a rename under ``src/`` would
break the set-up probe or the per-layer trace without failing any
other test. Both run here as subprocesses on a tiny token-unit tabular
corpus, as the benchmark runs them. ``traced.py`` also counts requests by
wrapping ``score_answer`` on the scorer classes, and fails a run whose
count differs from the trace's; a remote run checks that law in process.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

from varr.config import RunConfig
from varr.corpus import load_corpus
from varr.schedule import run_reduction
from varr.scorer import RemoteScorer

from .conftest import FIXTURE_CORPUS
from .mockserver import MockScorerServer, corpus_score

ROOT = Path(__file__).resolve().parent.parent


def run_hook(script, args, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def reduce_args(tmp_path):
    # raw rationale strings, so the segmenter does the splitting
    corpus = tmp_path / "corpus.jsonl"
    with open(FIXTURE_CORPUS, encoding="utf-8") as src, \
            open(corpus, "w", encoding="utf-8") as dst:
        for line in src:
            obj = json.loads(line)
            obj["rationale"] = ". ".join(obj["rationale"]) + "."
            dst.write(json.dumps(obj) + "\n")
    return [
        "reduce", "--input", str(corpus), "--out-dir", str(tmp_path / "out"),
        "--mode", "varr", "--strategy", "back", "--unit", "token",
        "--epochs", "2", "--batch-size", "4", "--warmup", "0", "--seed", "0",
    ]


def test_probe_reaches_a_scorer_request(tmp_path):
    done = run_hook("probe.py", reduce_args(tmp_path), tmp_path)
    assert done.returncode == 0, done.stderr


def test_traced_run_records_every_layer(tmp_path):
    spans_path = tmp_path / "spans.json"
    done = run_hook("traced.py", [str(spans_path), *reduce_args(tmp_path)], tmp_path)
    assert done.returncode == 0, done.stderr
    summary = json.loads(spans_path.read_text(encoding="utf-8"))
    assert summary["exit"] == 0
    assert summary["segments"] > 0
    for name in ("segmenter.segment", "scorer.request", "verbosity.evaluate"):
        assert summary["spans"][name][0] > 0, name
    assert sum(summary["cache"]) > 0


def test_wrapped_remote_requests_match_the_trace_count(monkeypatch):
    # every logical call, whichever thread sends it, goes through the class's
    # score_answer, where the benchmark's wrapper sees it
    count, lock = [0], threading.Lock()
    score = RemoteScorer.score_answer

    def counting(handle, assembly, answer):
        with lock:
            count[0] += 1
        return score(handle, assembly, answer)

    monkeypatch.setattr(RemoteScorer, "score_answer", counting)
    settings = RunConfig(epochs=3, batch_size=16, warmup_ratio=0.0, candidate_order="random",
                         mode="varr_plus", seed=1, k_negatives=4, scorer_backend="remote")
    with MockScorerServer(score=corpus_score(FIXTURE_CORPUS)) as server:
        handle = RemoteScorer(server.url, in_flight=16)
        try:
            trace = run_reduction(load_corpus(FIXTURE_CORPUS), handle, settings)
        finally:
            handle.close()
    assert trace.scorer_call_count == count[0] > 0
