import hashlib
import itertools
import random
import sys
import threading
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varr import schedule
from varr.config import RunConfig
from varr.corpus import Corpus, load_corpus
from varr.errors import ConfigurationError, OutOfVocabularyError
from varr.schedule import (
    CANDIDATE_ORDERS,
    ReductionAborted,
    TrainingClock,
    candidate_sequence,
    in_warmup,
    negative_pool,
    removal_budget,
    run_reduction,
)
from varr.scorer import (
    TEMPLATES,
    LogLikelihood,
    ScorerHandle,
    build_vocabulary,
    fit_tabular_scorer,
    uniform_tabular_scorer,
)
from varr.seeding import child_rng
from varr.verbosity import candidate_assemblies

from .conftest import FIXTURE_CORPUS, make_record
from .reference_driver import run_reference


# --- removal budget ---------------------------------------------------------

def test_budget_examples():
    assert removal_budget(50, 100, 10) == 5
    assert removal_budget(100, 100, 7) == 7
    assert removal_budget(33, 100, 10) == 3  # floor, not round


def test_budget_domain_errors():
    with pytest.raises(ValueError):
        removal_budget(0, 100, 5)
    with pytest.raises(ValueError):
        removal_budget(101, 100, 5)
    with pytest.raises(ValueError):
        removal_budget(1, 100, -1)


def test_budget_no_float_error_at_large_inputs():
    t, total, n = 999_999_999, 10**9, 10**9
    assert removal_budget(t, total, n) == (n * t) // total
    assert removal_budget(10**9, 10**9, 10**9) == 10**9


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_budget_matches_exact_fraction(t, total, n):
    if t > total:
        t, total = total, t
    want = int(Fraction(n) * Fraction(t, total))
    assert removal_budget(t, total, n) == want


# --- warm-up gate ------------------------------------------------------------

def test_warmup_boundary_inclusive():
    assert in_warmup(10, 100, 0.1) is True
    assert in_warmup(11, 100, 0.1) is False


def test_warmup_zero_ratio_never_warm():
    assert all(not in_warmup(t, 100, 0.0) for t in range(1, 101))


def test_warmup_full_ratio_always_warm():
    assert all(in_warmup(t, 50, 1.0) for t in range(1, 51))


def test_clock_bookkeeping():
    clock = TrainingClock(epoch=3, step_in_epoch=2, steps_per_epoch=5,
                          epochs=4, warmup_ratio=0.1)
    assert clock.t == 12
    assert clock.total_steps == 20
    assert clock.in_warmup is False


# --- candidate ordering ------------------------------------------------------

def seq_indices(record, order, rng=None, enforced_active=False):
    settings = RunConfig(candidate_order=order)
    return [c.index for c in candidate_sequence(record, settings, rng, enforced_active)]


def test_front_and_back_orders():
    record = make_record(units=("a", "b", "c", "d"))
    assert seq_indices(record, "front") == [0, 1, 2, 3]
    assert seq_indices(record, "back") == [3, 2, 1, 0]


def test_orders_skip_removed_units():
    record = make_record(units=("a", "b", "c", "d"))
    record.mark_removed(1, 1, 1)
    assert seq_indices(record, "front") == [0, 2, 3]


def test_random_order_seeded_permutation():
    record = make_record(units=("a", "b", "c", "d"))
    one = seq_indices(record, "random", child_rng(7, "x"))
    two = seq_indices(record, "random", child_rng(7, "x"))
    assert one == two
    assert sorted(one) == [0, 1, 2, 3]


def test_enforced_front_flags():
    record = make_record(units=("a", "b", "c", "d"))
    settings = RunConfig(candidate_order="enforced_front", enforced_n=2)
    active = candidate_sequence(record, settings, enforced_active=True)
    assert [(c.index, c.unconditional) for c in active] == [
        (0, True), (1, True), (2, False), (3, False),
    ]
    inactive = candidate_sequence(record, settings, enforced_active=False)
    assert all(not c.unconditional for c in inactive)


def test_no_rule_all_unconditional():
    record = make_record(units=("a", "b", "c"))
    got = candidate_sequence(record, RunConfig(candidate_order="no_rule"), child_rng(3, "y"))
    assert all(c.unconditional for c in got)
    assert sorted(c.index for c in got) == [0, 1, 2]


def test_run_config_range_checks():
    for settings in (
        {"candidate_order": "sideways"},
        {"candidate_order": "enforced_front", "enforced_n": 0},
        {"mode": "maybe"},
        {"unit": "word"},
        {"epochs": 0},
        {"batch_size": 0},
        {"warmup_ratio": 1.5},
        {"warmup_ratio": -0.1},
        {"k_negatives": 0},
        {"samples_per_record": 0},
        {"smoothing_alpha": float("nan")},
        {"smoothing_alpha": float("inf")},
        {"smoothing_alpha": 0.0},
        {"smoothing_alpha": -1.0},
        {"template_id": "nope"},
    ):
        with pytest.raises(ConfigurationError):
            RunConfig(**settings)


# --- negative pools ----------------------------------------------------------

def test_negative_pool_choice_uses_full_wrong_set():
    record = make_record(task_kind="multiple_choice",
                         wrong_answers=("w1", "w2", "w1"), answer="g")
    pool, k = negative_pool(record, [record], k_default=1)
    assert pool == ["w1", "w2"]  # deduplicated, order kept
    assert k == 2
    record.wrong_answers = ["g", "w2", "g"]
    assert negative_pool(record, [record], k_default=1) == (["w2"], 1)  # no gold


def test_negative_pool_free_form_uses_batch():
    target = make_record(record_id="t", answer="gold")
    others = [
        make_record(record_id="o1", answer="a1"),
        make_record(record_id="o2", answer="a2"),
        make_record(record_id="o3", answer="a1"),  # duplicate answer
    ]
    pool, k = negative_pool(target, [target] + others, k_default=4)
    assert pool == ["a1", "a2"]
    assert k == 4
    same = make_record(record_id="o4", answer="gold")  # another record's gold
    assert negative_pool(target, [same, target] + others, k_default=4) == (["a1", "a2"], 4)


# --- the driver --------------------------------------------------------------

def fresh_corpus():
    return load_corpus(FIXTURE_CORPUS)


def test_full_warmup_means_zero_removals():
    corpus = fresh_corpus()
    handle = fit_tabular_scorer(corpus)
    trace = run_reduction(corpus, handle, RunConfig(
        epochs=3, batch_size=4, warmup_ratio=1.0, candidate_order="front", seed=1))
    assert trace.events == []
    assert all(u.removed_at is None for r in corpus for u in r.rationale)


def test_uniform_scorer_removals_match_budget_exactly():
    # one epoch: the epoch-end refit must not influence any decision,
    # so the scorer stays uniform for every evaluation of the run
    corpus = fresh_corpus()
    handle = uniform_tabular_scorer(build_vocabulary(corpus))
    trace = run_reduction(corpus, handle, RunConfig(
        epochs=1, batch_size=4, warmup_ratio=0.0, candidate_order="front", mode="varr",
        seed=3))
    # zero law: every candidate passes, so each (record, step) removes r(t)
    # exactly, until the rationale is exhausted
    by_group = {}
    for e in trace.events:
        key = (e.record_id, e.t)
        by_group.setdefault(key, []).append(e)
    assert by_group
    for (record_id, t), events in by_group.items():
        removed = sum(1 for e in events if e.decision == "removed")
        budget = events[0].budget
        assert all(e.verbosity_gt == 0.0 for e in events)
        assert all(e.decision == "removed" for e in events)
        assert removed == budget
    # any record batched at t = T ends fully exhausted (r(T) = n)
    total = trace.config["schedule"]["total_steps"]
    final_batch_ids = {e.record_id for e in trace.events if e.t == total}
    assert final_batch_ids
    for record in corpus:
        if record.id in final_batch_ids:
            assert record.retained_indices() == []


def test_budget_law_and_permanence_on_fixture():
    corpus = fresh_corpus()
    handle = fit_tabular_scorer(corpus)
    trace = run_reduction(corpus, handle, RunConfig(
        epochs=4, batch_size=3, warmup_ratio=0.1, candidate_order="front",
        mode="varr_plus", seed=11, k_negatives=2))
    seen = set()
    by_group = {}
    for e in trace.events:
        if e.decision == "removed":
            assert (e.record_id, e.candidate_index) not in seen
            seen.add((e.record_id, e.candidate_index))
        key = (e.record_id, e.t)
        by_group.setdefault(key, []).append(e)
        assert e.buffer_size <= e.budget
    for events in by_group.values():
        removed = sum(1 for e in events if e.decision == "removed")
        assert removed <= events[0].budget
    assert len(trace.removal_events()) > 0
    # removed units are never re-evaluated
    evaluated_after_removal = set()
    removal_t = {}
    for e in trace.events:
        key = (e.record_id, e.candidate_index)
        if key in removal_t and e.t > removal_t[key]:
            evaluated_after_removal.add(key)
        if e.decision == "removed":
            removal_t[key] = e.t
    assert not evaluated_after_removal


@pytest.mark.parametrize("ratio", [0.0, 0.1, 0.4, 1.0])
def test_warmup_purity(ratio):
    corpus = fresh_corpus()
    handle = fit_tabular_scorer(corpus)
    trace = run_reduction(corpus, handle, RunConfig(
        epochs=3, batch_size=4, warmup_ratio=ratio, candidate_order="front",
        mode="varr", seed=5))
    total = trace.config["schedule"]["total_steps"]
    assert all(e.t > ratio * total for e in trace.events)


def test_trace_determinism_same_seed():
    def run(seed):
        corpus = fresh_corpus()
        handle = fit_tabular_scorer(corpus)
        trace = run_reduction(corpus, handle, RunConfig(
            epochs=3, batch_size=4, warmup_ratio=0.1, candidate_order="random",
            mode="varr_plus", seed=seed, k_negatives=2))
        return [asdict(e) for e in trace.events]

    assert run(21) == run(21)
    assert run(21) != run(22)


def test_scorer_call_accounting():
    corpus = fresh_corpus()
    handle = fit_tabular_scorer(corpus)
    trace = run_reduction(corpus, handle, RunConfig(
        epochs=3, batch_size=4, warmup_ratio=0.1, candidate_order="front",
        mode="varr_plus", seed=11, k_negatives=2))
    expected = sum(
        0 if e.unconditional else 2 + 2 * e.k_used for e in trace.events
    )
    assert trace.scorer_call_count == expected


def test_no_rule_makes_no_scorer_calls():
    corpus = fresh_corpus()
    handle = fit_tabular_scorer(corpus)
    calls_before = handle.thread_calls()
    trace = run_reduction(corpus, handle, RunConfig(
        epochs=2, batch_size=4, warmup_ratio=0.0, candidate_order="no_rule", seed=2))
    assert trace.scorer_call_count == 0
    assert handle.thread_calls() == calls_before
    assert all(e.unconditional for e in trace.events)
    assert all(e.decision == "removed" for e in trace.events)


def test_enforced_front_removes_unconditionally_in_early_epochs():
    corpus = fresh_corpus()
    handle = fit_tabular_scorer(corpus)
    trace = run_reduction(
        corpus, handle, RunConfig(
            epochs=4, batch_size=4, warmup_ratio=0.0, candidate_order="enforced_front",
            mode="varr_plus", seed=6, enforced_n=2, enforce_epochs=2, k_negatives=2))
    unconditional = [e for e in trace.events if e.unconditional]
    assert unconditional
    assert all(e.epoch <= 2 for e in unconditional)
    assert all(e.decision == "removed" for e in unconditional)


def test_reduction_aborts_with_partial_trace():
    corpus = fresh_corpus()
    # vocabulary missing the fixture tokens: first evaluation raises OOV
    handle = uniform_tabular_scorer(["nothing", "here"])
    with pytest.raises(ReductionAborted) as exc:
        run_reduction(corpus, handle, RunConfig(
            epochs=2, batch_size=4, warmup_ratio=0.0, candidate_order="front",
            mode="varr", seed=1))
    assert exc.value.trace is not None
    assert exc.value.trace.events == []


# --- scans on a worker pool -------------------------------------------------

def test_scan_pool_matches_inline_under_thread_stress():
    def run(in_flight):
        corpus = fresh_corpus()
        handle = fit_tabular_scorer(corpus)
        handle.in_flight = in_flight
        trace = run_reduction(corpus, handle, RunConfig(
            epochs=4, batch_size=8, warmup_ratio=0.1, candidate_order="random",
            mode="varr_plus", seed=21, k_negatives=2))
        retained = {r.id: r.retained_indices() for r in corpus.records}
        return [asdict(e) for e in trace.events], trace.scorer_call_count, retained

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = run(8)
    finally:
        sys.setswitchinterval(interval)
    events, calls, _ = pooled
    # a call lost or counted against another scan would break this law
    assert calls == sum(0 if e["unconditional"] else 2 + 2 * e["k_used"]
                        for e in events)
    assert pooled == run(1)


def test_pooled_scan_failure_keeps_serial_partial_trace(monkeypatch):
    def aborted(in_flight):
        corpus = fresh_corpus()
        handle = fit_tabular_scorer(corpus)
        handle.in_flight = in_flight
        order = list(range(len(corpus.records)))
        child_rng(1, "batch-order", 1).shuffle(order)
        failing = corpus.records[order[2]]
        failing.answer = "unseen " + failing.answer  # out of vocabulary
        later = {corpus.records[i].id for i in order[3:]}
        # run_reduction builds the abort once the failing scan has ended, so
        # its failure is recorded. Scans of later slots wait for that after
        # their first candidate; from then on no scan may call the scorer.
        recorded = threading.Event()
        late_calls = []

        class Aborted(ReductionAborted):
            def __init__(self, *args):
                recorded.set()
                super().__init__(*args)

        def holding(handle, record, *args, **kwargs):
            report = evaluate(handle, record, *args, **kwargs)
            if record.id in later:
                recorded.wait(timeout=10)
            return report

        def counting(assembly, answer):
            if recorded.is_set():
                late_calls.append(assembly.question)
            return score(assembly, answer)

        score = handle.score_answer
        handle.score_answer = counting
        monkeypatch.setattr(schedule, "ReductionAborted", Aborted)
        monkeypatch.setattr(schedule, "evaluate_candidate", holding)
        # one batch of one step: every record's budget is its unit count,
        # so the failing scan fails at its first call, mid-batch
        with pytest.raises(ReductionAborted) as exc:
            run_reduction(corpus, handle, RunConfig(
                epochs=1, batch_size=len(order), warmup_ratio=0.0,
                candidate_order="front", mode="varr", seed=1))
        assert isinstance(exc.value.cause, OutOfVocabularyError)
        assert late_calls == []
        trace = exc.value.trace
        return failing.id, [asdict(e) for e in trace.events], trace.scorer_call_count

    evaluate = schedule.evaluate_candidate
    failing_id, serial, calls = aborted(1)
    assert serial
    assert all(e["record_id"] != failing_id for e in serial)
    # the failing scan's one call, counted before it raised, and no other
    assert calls == 1 + sum(2 + 2 * e["k_used"] for e in serial)
    assert aborted(4) == (failing_id, serial, calls)


@pytest.mark.parametrize("template_id", ["plain-v1", "newline-v1"])
def test_scan_prompts_equal_candidate_assemblies(monkeypatch, template_id):
    corpus = fresh_corpus()
    handle = fit_tabular_scorer(corpus)
    seen = []
    score = handle.score_answer

    def recording(assembly, answer):
        seen.append(assembly)
        return score(assembly, answer)

    handle.score_answer = recording
    evaluate = schedule.evaluate_candidate
    calls = []

    def checking(handle, record, *args, **kwargs):
        seen.clear()
        retained = record.retained_indices()
        report = evaluate(handle, record, *args, **kwargs)
        calls.append((record, retained, list(seen)))
        return report

    monkeypatch.setattr(schedule, "evaluate_candidate", checking)
    trace = run_reduction(corpus, handle, RunConfig(
        epochs=3, batch_size=4, warmup_ratio=0.1, candidate_order="random",
        mode="varr_plus", seed=5, k_negatives=2, template_id=template_id))
    decisions = [e for e in trace.events if not e.unconditional]
    assert len(decisions) == len(calls)
    for event, (record, retained, scored) in zip(decisions, calls):
        assert event.record_id == record.id
        expected = candidate_assemblies(record, event.candidate_index, retained, template_id)
        assert scored and [expected[n % 2] for n in range(len(scored))] == scored
    assert max(len(scored) for _, _, scored in calls) > 2  # wrong answers were scored too


@pytest.mark.parametrize("mode", ["varr", "varr_plus"])
def test_negative_pool_built_once_per_scan_in_varr_plus_only(monkeypatch, mode):
    counts = {"scans": 0, "pools": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(schedule, "candidate_sequence",
                        counting("scans", schedule.candidate_sequence))
    monkeypatch.setattr(schedule, "negative_pool",
                        counting("pools", schedule.negative_pool))
    corpus = fresh_corpus()
    run_reduction(corpus, fit_tabular_scorer(corpus), RunConfig(
        epochs=3, batch_size=4, warmup_ratio=0.1, candidate_order="random", mode=mode,
        seed=5, k_negatives=2))
    assert counts["scans"] > 0
    assert counts["pools"] == (counts["scans"] if mode == "varr_plus" else 0)


# --- conformance with the straight-line reference ---------------------------

def assert_conformance(candidate_order, mode, seed, epochs=4, batch_size=3,
                       warmup=0.1, k=2, enforced_n=0):
    corpus_a = fresh_corpus()
    handle_a = fit_tabular_scorer(corpus_a)
    trace = run_reduction(
        corpus_a, handle_a, RunConfig(
            epochs=epochs, batch_size=batch_size, warmup_ratio=warmup,
            candidate_order=candidate_order, mode=mode, seed=seed,
            enforced_n=max(enforced_n, 1) if candidate_order == "enforced_front" else 0,
            k_negatives=k))
    corpus_b = fresh_corpus()
    handle_b = fit_tabular_scorer(corpus_b)
    ref_events, ref_retained = run_reference(
        corpus_b, handle_b, epochs=epochs, batch_size=batch_size,
        warmup_ratio=warmup, candidate_order=candidate_order, mode=mode,
        seed=seed, k_negatives=k, enforced_n=enforced_n,
    )
    assert [asdict(e) for e in trace.events] == ref_events
    for record in corpus_a.records:
        assert record.retained_indices() == ref_retained[record.id]


def test_conformance_front_varr_plus():
    assert_conformance("front", "varr_plus", seed=11)


def test_conformance_random_varr():
    assert_conformance("random", "varr", seed=4)


def test_conformance_back_varr_plus():
    assert_conformance("back", "varr_plus", seed=9)


def test_conformance_no_rule():
    assert_conformance("no_rule", "varr_plus", seed=13)


def test_conformance_enforced_front():
    assert_conformance("enforced_front", "varr_plus", seed=17, enforced_n=2)


# --- differential: driver against the reference on generated corpora --------

class RenderedHashScorer(ScorerHandle):
    """Scores a hash of the rendered prompt, the answer and the last refresh
    view. Unlike the tabular backend, which sees only the prompt's last
    token, a wrong middle slice of a prompt or a wrong separator changes
    its scores. Few score levels, so exact ties at zero occur."""

    backend = "remote"

    def __init__(self):
        super().__init__()
        self.view = ""

    def _evaluate(self, context, answer):
        material = f"{self.view}\x00{context}\x00{answer}".encode()
        digest = hashlib.sha256(material).digest()
        return LogLikelihood.from_per_token([-(digest[0] % 4) / 2, -(digest[1] % 3)])

    def refresh(self, corpus_view=None):
        self.view = repr(corpus_view)
        self._next_version()


WORDS = ("p", "q", "r", "s")
ANSWERS = ("p", "q r", "s")


@st.composite
def record_specs(draw):
    """Small corpora whose answers and wrong answers overlap, so negative
    pools may hold the gold answer, duplicates, or nothing else."""
    phrase = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
    records = []
    for n in range(draw(st.integers(1, 5))):
        records.append(dict(
            id=f"r{n}",
            question=draw(phrase),
            units=draw(st.lists(phrase, min_size=1, max_size=4)),
            answer=draw(st.sampled_from(ANSWERS)),
            wrong_answers=draw(st.lists(st.sampled_from(ANSWERS), max_size=3)),
            task_kind=draw(st.sampled_from(["free_form", "multiple_choice"])),
        ))
    return records


def spec_corpus(specs):
    return Corpus(records=[
        make_record(record_id=s["id"], question=s["question"], units=s["units"],
                    answer=s["answer"], wrong_answers=s["wrong_answers"],
                    task_kind=s["task_kind"])
        for s in specs
    ])


@settings(max_examples=25, deadline=None)
@given(
    specs=record_specs(),
    epochs=st.integers(1, 3),
    batch_size=st.integers(1, 3),
    warmup=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 50),
    k=st.integers(1, 3),
    enforced_n=st.integers(1, 2),
)
def test_driver_matches_reference_on_generated_corpora(specs, epochs, batch_size,
                                                       warmup, seed, k, enforced_n):
    def handle_for(kind, corpus):
        return fit_tabular_scorer(corpus) if kind == "tabular" else RenderedHashScorer()

    for handle_kind, order, mode, template_id, in_flight in itertools.product(
        ("tabular", "hash"), CANDIDATE_ORDERS, ("varr", "varr_plus"),
        sorted(TEMPLATES), (1, 3),
    ):
        corpus_a = spec_corpus(specs)
        handle_a = handle_for(handle_kind, corpus_a)
        handle_a.in_flight = in_flight
        trace = run_reduction(corpus_a, handle_a, RunConfig(
            epochs=epochs, batch_size=batch_size, warmup_ratio=warmup,
            candidate_order=order, mode=mode, seed=seed, k_negatives=k,
            enforced_n=enforced_n, scorer_backend=handle_a.backend,
            template_id=template_id))
        corpus_b = spec_corpus(specs)
        ref_events, ref_retained = run_reference(
            corpus_b, handle_for(handle_kind, corpus_b), epochs=epochs, batch_size=batch_size,
            warmup_ratio=warmup, candidate_order=order, mode=mode, seed=seed,
            k_negatives=k, enforced_n=enforced_n, template_id=template_id)
        setting = (handle_kind, order, mode, template_id, in_flight)
        assert [asdict(e) for e in trace.events] == ref_events, setting
        assert {r.id: r.retained_indices() for r in corpus_a.records} == ref_retained, setting
