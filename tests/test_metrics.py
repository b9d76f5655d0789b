import hashlib
import json

import pytest

from varr.corpus import Corpus, load_corpus
from varr.metrics import (
    DECISION_KEPT,
    DECISION_REMOVED,
    ReductionTrace,
    TraceEvent,
    build_report,
    encode_events,
    reduction_token_stats,
    removal_ratio_curve,
    removal_ratio_tsv,
    render_report_text,
    replay_trace,
    token_stats,
    trace_fingerprint,
    validate_trace,
)
from varr.schedule import ClockConfig, StrategyConfig, run_reduction
from varr.scorer import fit_tabular_scorer

from .conftest import FIXTURE_CORPUS, make_record


def event(record_id="r", epoch=1, step=1, t=1, index=0, decision=DECISION_REMOVED,
          budget=1, buffer_size=1, **kw):
    return TraceEvent(record_id=record_id, epoch=epoch, step=step, t=t,
                      candidate_index=index, decision=decision, budget=budget,
                      buffer_size=buffer_size, **kw)


def trace_with(events, epochs=2, total_steps=10, warmup=0.0, seed=0):
    config = {"schedule": {"epochs": epochs, "total_steps": total_steps,
                           "warmup_ratio": warmup}}
    return ReductionTrace(config=config, seed=seed, events=events)


def test_ratio_simple_division():
    # one epoch: 3 removals against a summed budget of 5
    events = [
        event("a", t=3, index=0, budget=2, buffer_size=1),
        event("a", t=3, index=1, decision=DECISION_KEPT, budget=2, buffer_size=1),
        event("b", t=3, index=0, budget=3, buffer_size=1),
        event("b", t=3, index=1, budget=3, buffer_size=2),
    ]
    points = removal_ratio_curve(trace_with(events, epochs=1))
    assert len(points) == 1
    assert points[0].removed_count == 3
    assert points[0].max_potential == 5
    assert points[0].ratio == pytest.approx(0.6)


def test_ratio_warmup_only_epoch_is_zero():
    events = [event("a", epoch=2, step=1, t=6)]
    points = removal_ratio_curve(trace_with(events, epochs=2))
    assert points[0].epoch == 1
    assert points[0].max_potential == 0
    assert points[0].ratio == 0.0
    assert points[1].removed_count == 1


def test_ratio_budget_counted_once_per_record_step():
    events = [
        event("a", t=4, index=0, budget=3, buffer_size=1),
        event("a", t=4, index=1, budget=3, buffer_size=2),
        event("a", t=4, index=2, decision=DECISION_KEPT, budget=3, buffer_size=2),
    ]
    points = removal_ratio_curve(trace_with(events, epochs=1))
    assert points[0].max_potential == 3
    assert points[0].removed_count == 2


def test_ratio_uniform_varr_run_is_one_until_exhaustion(fixture_corpus):
    from varr.scorer import build_vocabulary, uniform_tabular_scorer

    handle = uniform_tabular_scorer(build_vocabulary(fixture_corpus))
    trace = run_reduction(fixture_corpus, handle,
                          ClockConfig(epochs=1, batch_size=4, warmup_ratio=0.0),
                          StrategyConfig("front", mode="varr", seed=3))
    points = removal_ratio_curve(trace)
    assert len(points) == 1
    assert points[0].ratio == pytest.approx(1.0)


def test_token_stats_identity(fixture_corpus):
    other = load_corpus(FIXTURE_CORPUS)
    stats = token_stats(fixture_corpus, other)
    assert stats["reduction_percent"] == 0.0
    assert stats["avg_rationale_tokens_before"] == stats["avg_rationale_tokens_after"]


def test_token_stats_exhausted_counts_answers_only():
    before = Corpus(records=[make_record(units=("a b", "c d"), answer="x y")])
    after_record = make_record(units=("a b", "c d"), answer="x y")
    after_record.mark_removed(0, 1, 1)
    after_record.mark_removed(1, 1, 1)
    after = Corpus(records=[after_record])
    stats = token_stats(before, after)
    assert stats["avg_rationale_tokens_before"] == 6.0
    assert stats["avg_rationale_tokens_after"] == 2.0  # answer tokens only
    assert stats["reduction_percent"] == pytest.approx(100 * 4 / 6)


def test_token_stats_id_mismatch_lists_difference():
    a = Corpus(records=[make_record(record_id="x")])
    b = Corpus(records=[make_record(record_id="y")])
    with pytest.raises(ValueError, match="x.*y|y.*x"):
        token_stats(a, b)


def test_replay_reproduces_final_retained_sets():
    corpus = load_corpus(FIXTURE_CORPUS)
    handle = fit_tabular_scorer(corpus)
    trace = run_reduction(corpus, handle, ClockConfig(3, 4, 0.1),
                          StrategyConfig("front", mode="varr", seed=8))
    replayed = replay_trace(load_corpus(FIXTURE_CORPUS), trace)
    for got, want in zip(replayed.records, corpus.records):
        assert got.retained_indices() == want.retained_indices()
        assert [u.removed_at for u in got.rationale] == [
            u.removed_at for u in want.rationale
        ]


def test_fingerprint_ignores_paths_but_not_config():
    events = [event("a", t=2)]
    t1 = trace_with(events)
    t2 = trace_with(list(events))
    t2.config = dict(t1.config)
    t2.config["paths"] = {"out_dir": "/somewhere/else"}
    assert trace_fingerprint(t1) == trace_fingerprint(t2)
    t3 = trace_with(list(events), seed=1)
    assert trace_fingerprint(t3) != trace_fingerprint(t1)


def test_trace_json_roundtrip(tmp_path):
    events = [event("a", t=2, verbosity_gt=-0.125, score_full=-1.5, score_reduced=-1.625)]
    trace = trace_with(events)
    trace.scorer_call_count = 2
    path = tmp_path / "trace.json"
    trace.save(path)
    loaded = ReductionTrace.load(path)
    assert loaded.to_dict() == trace.to_dict()
    assert trace_fingerprint(loaded) == trace_fingerprint(trace)


def test_validate_trace_catches_violations():
    ok = trace_with([event("a", t=3, budget=1)], total_steps=10, warmup=0.2)
    assert validate_trace(ok) == []
    warm = trace_with([event("a", t=2, budget=1)], total_steps=10, warmup=0.2)
    assert any("warm-up" in p for p in validate_trace(warm))
    double = trace_with([
        event("a", t=3, index=0, budget=2),
        event("a", epoch=2, step=1, t=6, index=0, budget=2),
    ])
    assert any("twice" in p for p in validate_trace(double))
    over = trace_with([
        event("a", t=3, index=0, budget=1, buffer_size=1),
        event("a", t=3, index=1, budget=1, buffer_size=2),
    ])
    assert any("over budget" in p for p in validate_trace(over))
    disorder = trace_with([
        event("a", epoch=2, step=1, t=6),
        event("a", epoch=1, step=1, t=1, index=1),
    ])
    assert any("order" in p for p in validate_trace(disorder))


def test_report_flags_no_reductions():
    report = build_report(trace_with([]))
    assert report["no_reductions_performed"] is True
    assert report["event_count"] == 0
    text = render_report_text(report)
    assert "no reductions performed" in text


def test_report_full_run(fixture_corpus):
    handle = fit_tabular_scorer(fixture_corpus)
    trace = run_reduction(fixture_corpus, handle, ClockConfig(3, 4, 0.1),
                          StrategyConfig("front", mode="varr", seed=8))
    report = build_report(trace, fixture_corpus)
    assert report["removal_count"] > 0
    assert report["no_reductions_performed"] is False
    assert report["law_violations"] == []
    assert report["token_stats"]["reduction_percent"] > 0
    assert report["token_stats"] == token_stats(load_corpus(FIXTURE_CORPUS), fixture_corpus)
    assert report["determinism_fingerprint"] == trace_fingerprint(trace)
    text = render_report_text(report)
    assert "reduction" in text
    assert str(report["removal_count"]) in text


def test_ratio_per_step_flag(fixture_corpus):
    handle = fit_tabular_scorer(fixture_corpus)
    trace = run_reduction(fixture_corpus, handle, ClockConfig(2, 6, 0.0),
                          StrategyConfig("front", mode="varr", seed=8))
    per_epoch = removal_ratio_curve(trace)
    per_step = removal_ratio_curve(trace, per_step=True)
    assert len(per_step) >= len(per_epoch)
    assert sum(p.removed_count for p in per_step) == sum(
        p.removed_count for p in per_epoch
    )


def naive_ratio_curve(trace, per_step):
    """The per-key rescan removal_ratio_curve replaced: one filter per key."""
    if per_step:
        keys = sorted({(e.epoch, e.step) for e in trace.events})
    else:
        keys = range(1, trace.config["schedule"]["epochs"] + 1)
    points = []
    for key in keys:
        events = [e for e in trace.events if ((e.epoch, e.step) if per_step else e.epoch) == key]
        removed = sum(e.decision == DECISION_REMOVED for e in events)
        budget = sum({(e.record_id, e.t): e.budget for e in events}.values())
        points.append((key[0] if per_step else key, removed, budget,
                       removed / budget if budget else 0.0))
    return points


@pytest.mark.parametrize("per_step", [False, True])
def test_ratio_curve_matches_per_key_rescan(fixture_corpus, per_step):
    handle = fit_tabular_scorer(fixture_corpus)
    trace = run_reduction(fixture_corpus, handle, ClockConfig(3, 4, 0.0),
                          StrategyConfig("back", mode="varr", seed=5))
    got = [(p.epoch, p.removed_count, p.max_potential, p.ratio)
           for p in removal_ratio_curve(trace, per_step=per_step)]
    assert got == naive_ratio_curve(trace, per_step)
    assert len(got) > (3 if per_step else 0)


def canonical_trace():
    events = [
        event("b", t=3, index=1, decision=DECISION_KEPT, verbosity_gt=-0.25,
              score_full=-1.0, score_reduced=-1.25, unconditional=False),
        event("\u00e9t\u00e9-\u4e2d", t=4, index=0, verbosity_gt=0.5, k_used=2,
              verbosity_wrong=-0.1, score_full=-2.0, score_reduced=-1.5),
    ]
    trace = trace_with(events)
    trace.scorer_call_count = 7
    trace.config["run"] = {"mode": "varr", "alpha": 1.0, "template_id": "plain-v1"}
    trace.config["paths"] = {"input": "/data/c\u00f6rpus.jsonl", "out_dir": "out"}
    return trace


def test_canonical_json_is_sorted_compact_dumps_of_to_dict():
    trace = canonical_trace()
    plain = json.dumps(trace.to_dict(), sort_keys=True, separators=(",", ":"))
    assert trace.canonical_json() == plain
    assert trace.canonical_json(encode_events(trace.events)) == plain
    assert plain.isascii()


def test_fingerprint_is_sha256_of_canonical_bytes_without_paths():
    trace = canonical_trace()
    payload = trace.to_dict()
    payload["config"] = {k: v for k, v in payload["config"].items() if k != "paths"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(canonical).hexdigest() == trace_fingerprint(trace)
    assert trace_fingerprint(trace, encode_events(trace.events)) == trace_fingerprint(trace)
    assert "paths" in trace.config  # the fingerprint leaves the trace alone


def test_non_ascii_trace_roundtrips_with_same_fingerprint(tmp_path):
    trace = canonical_trace()
    path = tmp_path / "trace.json"
    trace.save(path)
    raw = path.read_bytes()
    assert raw.isascii()
    assert json.loads(raw) == trace.to_dict()
    loaded = ReductionTrace.load(path)
    assert loaded.events[1].record_id == "\u00e9t\u00e9-\u4e2d"
    assert trace_fingerprint(loaded) == trace_fingerprint(trace)
    assert raw.decode() == trace.canonical_json()


def test_to_dict_rows_are_copies():
    trace = canonical_trace()
    trace.to_dict()["events"][0]["decision"] = "tampered"
    assert trace.events[0].decision == DECISION_KEPT


def test_marks_token_stats_equal_reload_comparison(fixture_corpus):
    handle = fit_tabular_scorer(fixture_corpus)
    run_reduction(fixture_corpus, handle, ClockConfig(3, 4, 0.1),
                  StrategyConfig("front", mode="varr", seed=7))
    stats = reduction_token_stats(fixture_corpus)
    assert stats == token_stats(load_corpus(FIXTURE_CORPUS), fixture_corpus)
    assert stats["reduction_percent"] > 0


def test_ratio_tsv_renders_report_curve():
    events = [event("a", t=3, index=0, budget=2, buffer_size=1)]
    report = build_report(trace_with(events, epochs=2))
    assert removal_ratio_tsv(report["removal_ratio_curve"]) == (
        "epoch\tremoved\tmax_potential\tratio\n1\t1\t2\t0.5\n2\t0\t0\t0.0\n"
    )
