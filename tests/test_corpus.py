import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varr.corpus import (
    atomic_writer,
    load_corpus,
    validate_corpus,
    validate_record,
    write_corpus,
    write_reduced,
)
from varr.errors import InternalInvariantError, ParseError, ValidationError
from varr.metrics import DECISION_REMOVED, ReductionTrace, TraceEvent

from .conftest import make_record


def write_lines(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def base_obj(rid="a", rationale=("one step here", "two steps done")):
    return {
        "id": rid,
        "question": "what is it",
        "rationale": list(rationale),
        "answer": "fine",
        "wrong_answers": [],
        "task_kind": "free_form",
    }


def test_load_counts_records(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [base_obj("a"), base_obj("b"), base_obj("c")])
    corpus = load_corpus(path)
    assert len(corpus) == 3
    assert corpus.meta.format_version == "1"
    assert corpus.meta.segmentation_rule_id == "default-v1"


def test_presplit_list_passthrough(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [base_obj("a", rationale=["u0", "u1", "u2", "u3"])])
    record = load_corpus(path).records[0]
    assert [u.index for u in record.rationale] == [0, 1, 2, 3]
    assert [u.text for u in record.rationale] == ["u0", "u1", "u2", "u3"]


def test_raw_string_goes_through_segmenter(tmp_path):
    path = tmp_path / "c.jsonl"
    obj = base_obj("a")
    obj["rationale"] = "A is 2. So B is 4."
    write_lines(path, [obj])
    record = load_corpus(path).records[0]
    assert [u.text for u in record.rationale] == ["A is 2.", "So B is 4."]


def test_token_granularity(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [base_obj("a", rationale=["a b", "c d e"])])
    record = load_corpus(path, granularity="token").records[0]
    assert [u.text for u in record.rationale] == ["a", "b", "c", "d", "e"]
    assert all(u.granularity == "token" for u in record.rationale)


def test_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(base_obj("a")) + "\n{oops\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        load_corpus(path)


def test_missing_field_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    obj = base_obj("a")
    del obj["answer"]
    write_lines(path, [obj])
    with pytest.raises(ParseError, match="line 1.*answer"):
        load_corpus(path)


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [base_obj("dup"), base_obj("dup")])
    with pytest.raises(ValidationError, match="dup"):
        load_corpus(path)


def test_empty_rationale_flagged_not_fatal(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [base_obj("a", rationale=[])])
    corpus = load_corpus(path)
    report = validate_record(corpus.records[0])
    assert report.ok
    assert report.flags == ["rationale is empty"]


def test_validate_free_form_empty_wrongs_ok():
    report = validate_record(make_record(task_kind="free_form", wrong_answers=()))
    assert report.ok and not report.flags


def test_validate_choice_needs_wrongs():
    report = validate_record(make_record(task_kind="multiple_choice", wrong_answers=()))
    assert len(report.violations) == 1
    assert "wrong_answers" in report.violations[0]


def test_validate_empty_answer():
    report = validate_record(make_record(answer="  "))
    assert len(report.violations) == 1
    assert "answer" in report.violations[0]


def test_mark_removed_is_permanent():
    record = make_record(units=("u0", "u1"))
    record.mark_removed(0, epoch=1, step=2)
    assert record.rationale[0].removed_at == (1, 2)
    assert record.retained_indices() == [1]
    with pytest.raises(InternalInvariantError):
        record.mark_removed(0, epoch=2, step=1)


def _trace_for(corpus_records):
    events = []
    for record in corpus_records:
        for unit in record.rationale:
            if unit.removed_at is not None:
                events.append(TraceEvent(
                    record_id=record.id, epoch=unit.removed_at[0],
                    step=unit.removed_at[1], t=unit.removed_at[1],
                    candidate_index=unit.index, decision=DECISION_REMOVED,
                    budget=9, buffer_size=1,
                ))
    return ReductionTrace(config={}, seed=0, events=events)


def test_write_reduced_no_removals_identity(tmp_path, fixture_corpus):
    out = tmp_path / "red.jsonl"
    write_reduced(fixture_corpus, _trace_for(fixture_corpus.records), out)
    reloaded = load_corpus(out)
    assert [r.id for r in reloaded.records] == [r.id for r in fixture_corpus.records]
    for before, after in zip(fixture_corpus.records, reloaded.records):
        assert [u.text for u in before.rationale] == [u.text for u in after.rationale]


def test_write_reduced_set_difference(tmp_path):
    record = make_record(units=("u0", "u1", "u2", "u3"))
    record.mark_removed(0, 1, 1)
    record.mark_removed(2, 1, 2)
    from varr.corpus import Corpus

    corpus = Corpus(records=[record])
    out = tmp_path / "red.jsonl"
    write_reduced(corpus, _trace_for(corpus.records), out)
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["rationale"] == ["u1", "u3"]
    assert obj["removed"] == [
        {"index": 0, "text": "u0", "epoch": 1, "step": 1},
        {"index": 2, "text": "u2", "epoch": 1, "step": 2},
    ]


def test_write_reduced_refuses_inconsistent_trace(tmp_path):
    record = make_record(units=("u0", "u1"))
    record.mark_removed(0, 1, 1)
    from varr.corpus import Corpus

    corpus = Corpus(records=[record])
    with pytest.raises(InternalInvariantError):
        write_reduced(corpus, ReductionTrace(config={}, seed=0), tmp_path / "x.jsonl")


record_strategy = st.lists(
    st.builds(
        dict,
        rid=st.uuids().map(str),
        units=st.lists(
            st.text(alphabet="abcde ", min_size=1, max_size=12).map(
                lambda s: " ".join(s.split()) or "u"
            ),
            min_size=0,
            max_size=5,
        ),
        removed=st.sets(st.integers(min_value=0, max_value=4)),
    ),
    min_size=1,
    max_size=6,
)


@given(record_strategy)
@settings(max_examples=50, deadline=None)
def test_roundtrip_restricted_to_retained(tmp_path_factory, specs):
    """load(write(load(f))) == load(f) restricted to non-removed units."""
    from varr.corpus import Corpus

    tmp = tmp_path_factory.mktemp("rt")
    records = []
    for n, spec in enumerate(specs):
        record = make_record(record_id=f"{n}-{spec['rid']}", units=spec["units"])
        for idx in sorted(spec["removed"]):
            if idx < len(record.rationale):
                record.mark_removed(idx, 1, n + 1)
        records.append(record)
    corpus = Corpus(records=records)
    out = tmp / "reduced.jsonl"
    write_reduced(corpus, _trace_for(records), out)
    reloaded = load_corpus(out)
    assert len(reloaded) == len(corpus)
    for before, after in zip(corpus.records, reloaded.records):
        assert [u.text for u in before.retained_units()] == [
            u.text for u in after.rationale
        ]
        # fresh contiguous indices after reload
        assert [u.index for u in after.rationale] == list(range(len(after.rationale)))


def test_write_corpus_roundtrip(tmp_path, fixture_corpus):
    out = tmp_path / "norm.jsonl"
    write_corpus(fixture_corpus, out)
    reloaded = load_corpus(out)
    for before, after in zip(fixture_corpus.records, reloaded.records):
        assert before.id == after.id
        assert [u.text for u in before.rationale] == [u.text for u in after.rationale]
        assert before.wrong_answers == after.wrong_answers
        assert before.task_kind == after.task_kind
    assert all(r.ok for r in validate_corpus(reloaded))


def test_atomic_writer_keeps_target_when_block_raises(tmp_path):
    path = tmp_path / "trace.json"
    path.write_bytes(b"previous contents")
    with pytest.raises(RuntimeError):
        with atomic_writer(path) as fh:
            fh.write("half of the new")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"previous contents"
    assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]
    with atomic_writer(path) as fh:
        fh.write("n\u00e9w")
    assert path.read_text(encoding="utf-8") == "n\u00e9w"
    assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]
