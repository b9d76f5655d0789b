"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every tolerance and time budget is pinned here, not configured.
"""

import json
import random
import time
from dataclasses import asdict
from fractions import Fraction

import pytest

from varr.cli import main as cli_main
from varr.config import RunConfig
from varr.corpus import load_corpus, write_reduced
from varr.errors import TransportError
from varr.metrics import replay_trace, token_stats, trace_fingerprint, validate_trace
from varr.pilot import ordering_holds, pilot_nll_curve, sampling_probabilities
from varr.schedule import negative_pool, removal_budget, run_reduction
from varr.scorer import (
    PromptAssembly,
    RemoteScorer,
    build_vocabulary,
    fit_tabular_scorer,
    uniform_tabular_scorer,
)
from varr.verbosity import (
    candidate_assemblies,
    evaluate_candidate,
    nll,
    sample_negatives,
    verbosity_wrong,
)

from .conftest import FIXTURE_CORPUS, PILOT_CORPUS, random_model, random_record
from .mockserver import MockScorerServer
from .oracles import oracle_nll, oracle_verbosity_gt, oracle_verbosity_wrong
from .reference_driver import run_reference


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeds budget {self.seconds}s"
            )
        return False


def passed(n, message, budget=None):
    timing = f" [{budget.elapsed:.2f}s]" if budget else ""
    print(f"\nACCEPTANCE {n:2d} PASS: {message}{timing}")


def test_criterion_01_oracle_equivalence():
    rng = random.Random(1001)
    with Budget(10.0) as budget:
        cases = 0
        while cases < 120:
            scorer, counts, vocab, alpha = random_model(rng, max_vocab=8)
            record = random_record(rng, vocab, max_units=4, max_answer_len=6)
            retained = [u.index for u in record.rationale]
            i = rng.choice(retained)

            got_nll = nll(scorer, record, retained)
            want_nll = oracle_nll(counts, vocab, record, retained, alpha)
            assert got_nll == pytest.approx(want_nll, abs=1e-9)

            got_gt = evaluate_candidate(
                scorer, record, *candidate_assemblies(record, i, retained)).verbosity_gt
            want_gt = oracle_verbosity_gt(counts, vocab, record, i, retained, alpha)
            assert got_gt == pytest.approx(want_gt, abs=1e-9)

            # checked whether or not the candidate passes the gold criterion
            negatives = [v for v in vocab if v != record.answer][:3]
            negatives.append(f"{vocab[0]} {vocab[-1]}")
            negatives = [n for n in negatives if n != record.answer]
            sampled = sample_negatives(record, negatives, len(negatives))
            full, reduced = candidate_assemblies(record, i, retained)
            got_w = verbosity_wrong(scorer, full, reduced, sampled)
            want_w = oracle_verbosity_wrong(
                counts, vocab, record, i, retained, negatives, alpha
            )
            assert sampled == negatives
            assert got_w == pytest.approx(want_w, abs=1e-9)
            cases += 1
    passed(1, f"nll/verbosity match brute-force oracle on {cases} random models", budget)


def test_criterion_02_zero_laws():
    corpus = load_corpus(FIXTURE_CORPUS)
    handle = uniform_tabular_scorer(build_vocabulary(corpus))
    with Budget(1.0) as budget:
        checked = 0
        for record in corpus.records:
            retained = record.retained_indices()
            negatives = [r.answer for r in corpus.records if r.answer != record.answer]
            for i in retained:
                full, reduced = candidate_assemblies(record, i, retained)
                v_gt = evaluate_candidate(handle, record, full, reduced).verbosity_gt
                v_w = verbosity_wrong(handle, full, reduced, negatives)
                assert abs(v_gt) <= 1e-12
                assert abs(v_w) <= 1e-12
                checked += 1
    passed(2, f"uniform scorer gives exactly zero verbosity on {checked} candidates", budget)


def test_criterion_03_schedule_golden_table():
    with Budget(5.0) as budget:
        for total in range(1, 201):
            for n in range(0, 21):
                previous = 0
                for t in range(1, total + 1):
                    got = removal_budget(t, total, n)
                    assert got == int(Fraction(n * t, total))
                    assert got >= previous  # monotone nondecreasing in t
                    if t * n < total:
                        assert got == 0
                    previous = got
                assert removal_budget(total, total, n) == n
    passed(3, "removal budget matches floor(n*t/T) exhaustively for T<=200, n<=20", budget)


def test_criterion_04_footnote_probabilities():
    with Budget(1.0) as budget:
        assert sampling_probabilities(4, "front") == pytest.approx(
            [0.4, 0.3, 0.2, 0.1], abs=1e-15
        )
        for n in range(1, 51):
            total = n * (n + 1) / 2
            front = sampling_probabilities(n, "front")
            back = sampling_probabilities(n, "back")
            rand = sampling_probabilities(n, "random")
            for k in range(1, n + 1):
                assert front[k - 1] == pytest.approx((n - k + 1) / total, abs=1e-15)
                assert back[k - 1] == pytest.approx(k / total, abs=1e-15)
                assert rand[k - 1] == pytest.approx(1 / n, abs=1e-15)
            assert abs(sum(front) - 1.0) < 1e-12
            assert abs(sum(back) - 1.0) < 1e-12
            assert abs(sum(rand) - 1.0) < 1e-12
            assert front[::-1] == back
    passed(4, "position weights match the closed forms for N<=50, mirrored", budget)


def test_criterion_05_pilot_ordering():
    corpus = load_corpus(PILOT_CORPUS)
    handle = fit_tabular_scorer(corpus, smoothing_alpha=4.0)
    with Budget(30.0) as budget:
        results = pilot_nll_curve(corpus, handle, RunConfig(
            pilot_sizes=(1, 2, 3, 4), samples_per_record=8, seed=0))
        assert ordering_holds(results)
        front = next(r for r in results if r.strategy == "front")
        for mean in front.mean_nll_per_size:
            rel = abs(mean - front.baseline_nll) / front.baseline_nll
            assert rel < 0.05
    passed(5, "back > random > front at sizes 1-4; front within 5% of baseline", budget)


def test_criterion_06_algorithm_conformance():
    with Budget(60.0) as budget:
        corpus_a = load_corpus(FIXTURE_CORPUS)
        handle_a = fit_tabular_scorer(corpus_a)
        trace = run_reduction(
            corpus_a, handle_a, RunConfig(
                epochs=4, batch_size=3, warmup_ratio=0.1, candidate_order="front",
                mode="varr_plus", seed=11, k_negatives=2))
        corpus_b = load_corpus(FIXTURE_CORPUS)
        handle_b = fit_tabular_scorer(corpus_b)
        ref_events, ref_retained = run_reference(
            corpus_b, handle_b, epochs=4, batch_size=3, warmup_ratio=0.1,
            candidate_order="front", mode="varr_plus", seed=11, k_negatives=2,
        )
        got_events = [asdict(e) for e in trace.events]
        assert got_events == ref_events
        for record in corpus_a.records:
            assert record.retained_indices() == ref_retained[record.id]
    passed(6, f"driver trace equals straight-line reference, {len(ref_events)} events", budget)


def test_criterion_07_subset_law():
    corpus = load_corpus(FIXTURE_CORPUS)
    handle = fit_tabular_scorer(corpus)
    violations = 0
    cells = 0
    batch = corpus.records
    for record in corpus.records:
        full = record.retained_indices()
        grids = [full] + [[j for j in full if j != full[0]]] if len(full) > 1 else [full]
        for retained in grids:
            for i in retained:
                pool, k = negative_pool(record, batch, 4)
                pool = [p for p in pool if p != record.answer]
                if not pool:
                    continue
                full, reduced = candidate_assemblies(record, i, retained)
                base = evaluate_candidate(handle, record, full, reduced)
                rng = random.Random(17)
                plus = evaluate_candidate(
                    handle, record, full, reduced, negatives=pool, k=k, rng=rng,
                )
                cells += 1
                if plus.passes_varr_plus is True and not base.passes_varr:
                    violations += 1
    assert cells > 0
    assert violations == 0
    passed(7, f"VARR+ passers are a subset of VARR passers over {cells} grid cells")


def test_criterion_08_budget_and_permanence_laws():
    for ratio in (0.0, 0.1, 0.4, 1.0):
        corpus = load_corpus(FIXTURE_CORPUS)
        handle = fit_tabular_scorer(corpus)
        trace = run_reduction(
            corpus, handle, RunConfig(
                epochs=3, batch_size=4, warmup_ratio=ratio, candidate_order="front",
                mode="varr_plus", seed=5, k_negatives=2))
        assert validate_trace(trace) == []
        total = trace.config["schedule"]["total_steps"]
        assert all(e.t > ratio * total for e in trace.events)
        removed = set()
        per_group = {}
        for e in trace.events:
            key = (e.record_id, e.t)
            per_group.setdefault(key, [0, e.budget])
            if e.decision == "removed":
                unit = (e.record_id, e.candidate_index)
                assert unit not in removed
                removed.add(unit)
                per_group[key][0] += 1
        for count, budget_value in per_group.values():
            assert count <= budget_value
        if ratio == 1.0:
            assert trace.events == []
    passed(8, "budget, permanence, and warm-up laws hold for ratios 0/0.1/0.4/1.0")


def test_criterion_09_token_reduction_and_replay(tmp_path):
    corpus = load_corpus(FIXTURE_CORPUS)
    handle = fit_tabular_scorer(corpus)
    trace = run_reduction(
        corpus, handle, RunConfig(
            epochs=3, batch_size=4, warmup_ratio=0.1, candidate_order="front",
            mode="varr", seed=7))
    before = load_corpus(FIXTURE_CORPUS)
    stats = token_stats(before, corpus)
    assert stats["reduction_percent"] > 0

    out_run = tmp_path / "reduced_run.jsonl"
    write_reduced(corpus, trace, out_run)
    replayed = replay_trace(load_corpus(FIXTURE_CORPUS), trace)
    out_replay = tmp_path / "reduced_replay.jsonl"
    write_reduced(replayed, trace, out_replay)
    assert out_run.read_bytes() == out_replay.read_bytes()

    reloaded = load_corpus(out_run)
    for original, loaded in zip(corpus.records, reloaded.records):
        assert [u.text for u in original.retained_units()] == [
            u.text for u in loaded.rationale
        ]
    passed(9, f"tokens reduced {stats['reduction_percent']:.1f}%; replay byte-exact")


def test_criterion_10_wire_protocol():
    assembly = PromptAssembly("the question", ("one unit",))
    with Budget(5.0) as budget:
        with MockScorerServer() as server:
            scorer = RemoteScorer(base_url=server.url, backoff_seconds=0.001,
                                  timeout_ms=2000)
            got = scorer.score_answer(assembly, "a b")
            assert got.per_token == (-0.5, -0.5)
            assert got.total == -1.0
            body = server.requests[0]["body"]
            assert set(body) == {"model", "prompt", "completion"}
            assert body["prompt"] == "the question one unit"
            scorer.close()
        for status in (429, 500, 503):
            with MockScorerServer(status_script=[status, status]) as server:
                scorer = RemoteScorer(base_url=server.url, max_attempts=3,
                                      backoff_seconds=0.001, timeout_ms=2000)
                assert scorer.score_answer(assembly, "a").total == -0.5
                assert len(server.requests) == 3
                scorer.close()
        with MockScorerServer(status_script=[500] * 5) as server:
            scorer = RemoteScorer(base_url=server.url, max_attempts=3,
                                  backoff_seconds=0.001, timeout_ms=2000)
            with pytest.raises(TransportError) as exc:
                scorer.score_answer(assembly, "a")
            assert exc.value.attempts == 3
            assert len(server.requests) == 3
            scorer.close()
    passed(10, "remote backend round-trips, retries on 429/5xx, reports attempts", budget)


def test_criterion_11_cli_determinism(tmp_path):
    fingerprints = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = cli_main([
            "reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
            "--mode", "varr-plus", "--strategy", "front", "--epochs", "3",
            "--batch-size", "4", "--seed", "99",
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        trace_loaded = json.loads((out / "trace.json").read_text(encoding="utf-8"))
        from varr.metrics import ReductionTrace

        assert trace_fingerprint(ReductionTrace.from_dict(trace_loaded)) == (
            report["determinism_fingerprint"]
        )
        fingerprints.append(report["determinism_fingerprint"])
    assert fingerprints[0] == fingerprints[1]
    passed(11, f"repeat CLI runs fingerprint identically: {fingerprints[0][:16]}...")
