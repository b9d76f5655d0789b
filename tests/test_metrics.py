import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varr.config import RunConfig
from varr.corpus import load_corpus
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
    trace_fingerprint,
    validate_trace,
)
from varr.scorer import fit_tabular_scorer

from .conftest import FIXTURE_CORPUS, make_record, reduction_trace
from .oracles import oracle_validate_trace, token_stats, trace_to_dict


def event(record_id="r", epoch=1, step=1, t=1, index=0, decision=DECISION_REMOVED,
          budget=1, buffer_size=1, k_used=0, unconditional=False, score_full=None,
          score_reduced=None, verbosity_gt=None, verbosity_wrong=None):
    return TraceEvent(record_id=record_id, epoch=epoch, step=step, t=t,
                      candidate_index=index, decision=decision, budget=budget,
                      buffer_size=buffer_size, k_used=k_used, unconditional=unconditional,
                      score_full=score_full, score_reduced=score_reduced,
                      verbosity_gt=verbosity_gt, verbosity_wrong=verbosity_wrong)


def trace_with(events, epochs=2, total_steps=10, warmup=0.0, seed=0):
    config = {"run": {"epochs": epochs, "warmup_ratio": warmup},
              "schedule": {"total_steps": total_steps}}
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
    assert points[0]["removed_count"] == 3
    assert points[0]["max_potential"] == 5
    assert points[0]["ratio"] == pytest.approx(0.6)


def test_ratio_warmup_only_epoch_is_zero():
    events = [event("a", epoch=2, step=1, t=6)]
    points = removal_ratio_curve(trace_with(events, epochs=2))
    assert points[0]["epoch"] == 1
    assert points[0]["max_potential"] == 0
    assert points[0]["ratio"] == 0.0
    assert points[1]["removed_count"] == 1


def test_ratio_budget_counted_once_per_record_step():
    events = [
        event("a", t=4, index=0, budget=3, buffer_size=1),
        event("a", t=4, index=1, budget=3, buffer_size=2),
        event("a", t=4, index=2, decision=DECISION_KEPT, budget=3, buffer_size=2),
    ]
    points = removal_ratio_curve(trace_with(events, epochs=1))
    assert points[0]["max_potential"] == 3
    assert points[0]["removed_count"] == 2


def test_ratio_uniform_varr_run_is_one_until_exhaustion(fixture_corpus):
    from varr.scorer import TabularScorer, build_vocabulary

    handle = TabularScorer(build_vocabulary(fixture_corpus))
    trace = reduction_trace(fixture_corpus, handle, RunConfig(
        epochs=1, batch_size=4, warmup_ratio=0.0, candidate_order="front", mode="varr",
        seed=3))
    points = removal_ratio_curve(trace)
    assert len(points) == 1
    assert points[0]["ratio"] == pytest.approx(1.0)


def test_token_stats_identity(fixture_corpus):
    other = load_corpus(FIXTURE_CORPUS)
    stats = token_stats(fixture_corpus, other)
    assert stats["reduction_percent"] == 0.0
    assert stats["avg_rationale_tokens_before"] == stats["avg_rationale_tokens_after"]


def test_token_stats_exhausted_counts_answers_only():
    before = [make_record(units=("a b", "c d"), answer="x y")]
    after_record = make_record(units=("a b", "c d"), answer="x y")
    after_record.mark_removed(0, 1, 1)
    after_record.mark_removed(1, 1, 1)
    after = [after_record]
    stats = token_stats(before, after)
    assert stats["avg_rationale_tokens_before"] == 6.0
    assert stats["avg_rationale_tokens_after"] == 2.0  # answer tokens only
    assert stats["reduction_percent"] == pytest.approx(100 * 4 / 6)


def test_token_stats_id_mismatch_lists_difference():
    a = [make_record(record_id="x")]
    b = [make_record(record_id="y")]
    with pytest.raises(ValueError, match="x.*y|y.*x"):
        token_stats(a, b)


def test_replay_reproduces_final_retained_sets():
    corpus = load_corpus(FIXTURE_CORPUS)
    handle = fit_tabular_scorer(corpus)
    trace = reduction_trace(corpus, handle, RunConfig(
        epochs=3, batch_size=4, warmup_ratio=0.1, candidate_order="front", mode="varr",
        seed=8))
    replayed = replay_trace(load_corpus(FIXTURE_CORPUS), trace)
    for got, want in zip(replayed, corpus):
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
    assert trace_to_dict(loaded) == trace_to_dict(trace)
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


REPLAY_PROBLEM = "trace removal events disagree with corpus removed_at marks"


def replayed_pair():
    """A trace of two removals and a corpus marked exactly as it replays."""
    record = make_record(units=("u0", "u1", "u2"))
    record.mark_removed(0, 1, 1)
    record.mark_removed(2, 2, 1)
    trace = trace_with([event(record.id, index=0), event(record.id, epoch=2, t=6, index=2)])
    return trace, [record]


@pytest.mark.parametrize("change", ["none", "missing", "extra", "moved", "no-events"])
def test_validate_trace_checks_the_replay_law_given_the_corpus(change):
    trace, corpus = replayed_pair()
    units = corpus[0].rationale
    if change == "missing":
        units[2].removed_at = None
    elif change == "extra":
        units[1].removed_at = (2, 1)
    elif change == "moved":
        units[2].removed_at = (2, 2)
    elif change == "no-events":
        trace.events.clear()
    assert validate_trace(trace, corpus) == ([] if change == "none" else [REPLAY_PROBLEM])
    assert validate_trace(trace) == []  # without a corpus, no replay check


def test_validate_trace_lists_the_replay_problem_after_the_budget_problems():
    trace, corpus = replayed_pair()
    trace.events.insert(1, event(corpus[0].id, index=1, buffer_size=2))
    assert validate_trace(trace, corpus) == [
        "group ('r1', 1, 1) removed 2 over budget 1", REPLAY_PROBLEM]


SMALL = st.integers(0, 3)
# events of a few records, epochs and steps, so laws break by chance
EVENTS = st.lists(st.builds(
    event, record_id=st.sampled_from(["a", "b"]), epoch=SMALL, step=SMALL,
    t=st.integers(0, 12), index=SMALL,
    decision=st.sampled_from([DECISION_KEPT, DECISION_REMOVED]), budget=SMALL,
), max_size=12)


@given(events=EVENTS, total_steps=st.sampled_from([0, 10]),
       warmup=st.sampled_from([0.0, 0.25]))
@settings(max_examples=200, deadline=None)
def test_validate_trace_lists_the_problems_of_the_two_pass_check(events, total_steps, warmup):
    trace = trace_with(events, total_steps=total_steps, warmup=warmup)
    assert validate_trace(trace) == oracle_validate_trace(trace)


def test_report_flags_no_reductions(fixture_corpus):
    report = build_report(trace_with([]), fixture_corpus)
    assert report["no_reductions_performed"] is True
    assert report["event_count"] == 0
    text = render_report_text(report)
    assert "no reductions performed" in text
    assert "(0.00% reduction)" in text.splitlines()[7]


def test_report_full_run(fixture_corpus):
    handle = fit_tabular_scorer(fixture_corpus)
    trace = reduction_trace(fixture_corpus, handle, RunConfig(
        epochs=3, batch_size=4, warmup_ratio=0.1, candidate_order="front", mode="varr",
        seed=8))
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


def naive_ratio_curve(trace):
    """The per-epoch rescan removal_ratio_curve replaced: one filter per epoch."""
    points = []
    for epoch in range(1, trace.config["run"]["epochs"] + 1):
        events = [e for e in trace.events if e.epoch == epoch]
        removed = sum(e.decision == DECISION_REMOVED for e in events)
        budget = sum({(e.record_id, e.t): e.budget for e in events}.values())
        points.append((epoch, removed, budget, removed / budget if budget else 0.0))
    return points


@given(events=EVENTS, epochs=st.integers(1, 4))
@example(events=None, epochs=3)
@settings(deadline=None)
def test_ratio_curve_matches_per_key_rescan(events, epochs):
    # generated events interleave scans, fall outside the run's epochs and
    # do not tie t to (epoch, step); None stands for a real run's trace
    if events is None:
        corpus = load_corpus(FIXTURE_CORPUS)
        trace = reduction_trace(corpus, fit_tabular_scorer(corpus), RunConfig(
            epochs=epochs, batch_size=4, warmup_ratio=0.0, candidate_order="back",
            mode="varr", seed=5))
        assert trace.events
    else:
        trace = trace_with(events, epochs=epochs)
    got = [(p["epoch"], p["removed_count"], p["max_potential"], p["ratio"])
           for p in removal_ratio_curve(trace)]
    assert got == naive_ratio_curve(trace)


def canonical_trace():
    events = [
        event("b", t=3, index=1, decision=DECISION_KEPT, verbosity_gt=-0.25,
              score_full=-1.0, score_reduced=-1.25, unconditional=False),
        event("\u00e9t\u00e9-\u4e2d", t=4, index=0, verbosity_gt=0.5, k_used=2,
              verbosity_wrong=-0.1, score_full=-2.0, score_reduced=-1.5),
    ]
    trace = trace_with(events)
    trace.scorer_call_count = 7
    trace.config["run"].update(mode="varr", smoothing_alpha=1.0, template_id="plain-v1")
    trace.config["paths"] = {"input": "/data/c\u00f6rpus.jsonl", "out_dir": "out"}
    return trace


def test_canonical_json_is_sorted_compact_dumps_of_to_dict():
    trace = canonical_trace()
    plain = json.dumps(trace_to_dict(trace), sort_keys=True, separators=(",", ":"))
    assert trace.canonical_json() == plain
    assert trace.canonical_json(encode_events(trace.events)) == plain
    assert plain.isascii()


def test_fingerprint_is_sha256_of_canonical_bytes_without_paths():
    trace = canonical_trace()
    payload = trace_to_dict(trace)
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
    assert json.loads(raw) == trace_to_dict(trace)
    loaded = ReductionTrace.load(path)
    assert loaded.events[1].record_id == "\u00e9t\u00e9-\u4e2d"
    assert trace_fingerprint(loaded) == trace_fingerprint(trace)
    assert raw.decode() == trace.canonical_json()


def test_trace_event_fields_are_declared_in_sorted_order():
    # encode_events writes each event's keys in field order, unsorted
    assert list(TraceEvent._fields) == sorted(TraceEvent._fields)


# 0.0 and -0.0, which are equal as dict keys, the smallest subnormal, a
# subnormal, the largest float, nan and both infinities
FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-310, 1.7976931348623157e308, math.nan, math.inf, -math.inf])
INTS = st.integers(0, 10**12)


def event_lists(scores):
    return st.lists(st.builds(
        TraceEvent, budget=INTS, buffer_size=INTS, candidate_index=INTS,
        decision=st.sampled_from([DECISION_KEPT, DECISION_REMOVED]) | st.text(), epoch=INTS,
        k_used=INTS, record_id=st.text(), score_full=scores, score_reduced=scores, step=INTS,
        t=INTS, unconditional=st.booleans(), verbosity_gt=scores, verbosity_wrong=scores,
    ), max_size=8)


def scored(*values):
    """Events whose four score fields each hold ``values``, in order."""
    return [event(score_full=v, score_reduced=v, verbosity_gt=v, verbosity_wrong=v)
            for v in values]


# Scores as the driver makes them, then with ints beside floats, as a
# loaded trace can carry them (-3 beside -3.0); each example holds equal
# values of two texts in every score field.
@given(event_lists(st.none() | FLOATS)
       | event_lists(st.none() | FLOATS | st.integers(-5, 5) | st.sampled_from([-3, -3.0])))
@example(scored(0.0, -0.0))
@example(scored(-0.0, 0.0))
@example(scored(-3, -3.0))
@example(scored(-3.0, -3))
@example(scored(0, 0.0, None))
@example(scored(math.nan, math.nan, math.inf, -math.inf, -0.5, -0.5))
@settings(max_examples=300, deadline=None)
def test_encode_events_equals_key_sorted_dumps(events):
    expected = json.dumps([e._asdict() for e in events], sort_keys=True, separators=(",", ":"))
    assert encode_events(events) == expected


def test_to_dict_rows_are_copies():
    trace = canonical_trace()
    trace_to_dict(trace)["events"][0]["decision"] = "tampered"
    assert trace.events[0].decision == DECISION_KEPT


def test_to_dict_config_is_a_copy():
    trace = canonical_trace()
    before = trace.canonical_json()
    config = trace_to_dict(trace)["config"]
    del config["paths"]
    config["run"]["mode"] = "tampered"
    assert trace.config["paths"] == {"input": "/data/c\u00f6rpus.jsonl", "out_dir": "out"}
    assert trace.config["run"]["mode"] == "varr"
    assert trace.canonical_json() == before


def test_marks_token_stats_equal_reload_comparison(fixture_corpus):
    handle = fit_tabular_scorer(fixture_corpus)
    reduction_trace(fixture_corpus, handle, RunConfig(
        epochs=3, batch_size=4, warmup_ratio=0.1, candidate_order="front", mode="varr",
        seed=7))
    stats = reduction_token_stats(fixture_corpus)
    assert stats == token_stats(load_corpus(FIXTURE_CORPUS), fixture_corpus)
    assert stats["reduction_percent"] > 0


def test_ratio_tsv_renders_report_curve(fixture_corpus):
    events = [event("a", t=3, index=0, budget=2, buffer_size=1)]
    report = build_report(trace_with(events, epochs=2), fixture_corpus)
    assert removal_ratio_tsv(report["removal_ratio_curve"]) == (
        "epoch\tremoved\tmax_potential\tratio\n1\t1\t2\t0.5\n2\t0\t0\t0.0\n"
    )
