import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varr.config import RunConfig
from varr.corpus import (
    RationaleRecord,
    RationaleUnit,
    atomic_writer,
    load_corpus,
    validate_corpus,
    validate_record,
    write_corpus,
    write_reduced,
)
from varr.errors import InternalInvariantError, ParseError, ValidationError
from varr.metrics import ReductionTrace
from varr.segmenter import segment_sentences

from .conftest import make_record
from .oracles import reduced_record_dict


def write_lines(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def test_records_built_without_wrong_answers_do_not_share_a_list():
    first = RationaleRecord("a", "q", [], "x")
    second = RationaleRecord("b", "q", [], "x")
    first.wrong_answers.append("y")
    assert (first.wrong_answers, second.wrong_answers) == (["y"], [])
    first_trace, second_trace = ReductionTrace({}, 0), ReductionTrace({}, 0)
    first_trace.events.append("event")
    assert second_trace.events == []


# each value class, a value of each field, and another value of it
VALUES = {
    "unit": (RationaleUnit, {"index": 0, "text": "a", "removed_at": None},
             {"index": 1, "text": "b", "removed_at": (1, 2)}),
    "record": (RationaleRecord,
               {"id": "r", "question": "q", "rationale": [RationaleUnit(0, "a")],
                "answer": "x", "wrong_answers": ["y"], "task_kind": "free_form"},
               {"id": "s", "question": "p", "rationale": [RationaleUnit(0, "b")],
                "answer": "z", "wrong_answers": [], "task_kind": "true_false"}),
    "trace": (ReductionTrace, {"config": {"run": {}}, "seed": 1, "events": [],
                               "scorer_call_count": 0},
              {"config": {}, "seed": 2, "events": ["event"], "scorer_call_count": 1}),
}


@pytest.mark.parametrize("kind", VALUES)
def test_values_are_equal_field_by_field_and_unhashable(kind):
    cls, values, others = VALUES[kind]
    assert cls(**values) == cls(**values)
    for name in values:
        assert cls(**values) != cls(**{**values, name: others[name]}), name
    with pytest.raises(TypeError):
        hash(cls(**values))


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


def test_presplit_list_passthrough(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [base_obj("a", rationale=["u0", "u1", "u2", "u3"])])
    record = load_corpus(path)[0]
    assert [u.index for u in record.rationale] == [0, 1, 2, 3]
    assert [u.text for u in record.rationale] == ["u0", "u1", "u2", "u3"]


def test_raw_string_goes_through_segmenter(tmp_path):
    path = tmp_path / "c.jsonl"
    obj = base_obj("a")
    obj["rationale"] = "A is 2. So B is 4."
    write_lines(path, [obj])
    record = load_corpus(path)[0]
    assert [u.text for u in record.rationale] == ["A is 2.", "So B is 4."]


def test_token_granularity(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [base_obj("a", rationale=["a b", "c d e"])])
    record = load_corpus(path, RunConfig(unit="token"))[0]
    assert [u.text for u in record.rationale] == ["a", "b", "c", "d", "e"]


# Marks, abbreviations, capitals, digits and several kinds of whitespace,
# so that any segmenter settings drawn below find sentences to split.
RATIONALE_TEXT = st.lists(
    st.sampled_from(list("abXY12 .?!;^]\\\t\n\u00a0\u2003") + ["Dr. ", "e.g. "]),
    max_size=40,
).map("".join)


@settings(max_examples=150, deadline=None)
@given(
    text=RATIONALE_TEXT,
    entries=st.lists(RATIONALE_TEXT.filter(str.strip), max_size=4),
    terminal=st.text(alphabet=".?!;^]\\ a", min_size=1, max_size=3),
    abbreviations=st.lists(st.sampled_from(["Dr.", "e.g.", "X.", "b;", "a"]), max_size=3),
    min_chars=st.integers(1, 12),
)
def test_token_units_are_the_whitespace_tokens_whatever_the_segmenter(
        text, entries, terminal, abbreviations, min_chars):
    settings = RunConfig(unit="token", terminal_punctuation=terminal,
                         abbreviation_exceptions=tuple(abbreviations),
                         min_unit_chars=min_chars)
    # the segmenter's sentences hold exactly the text's tokens, so splitting
    # the text once gives the units that splitting each sentence would
    sentences = segment_sentences(text, terminal, tuple(abbreviations), min_chars)
    assert [token for sentence in sentences for token in sentence.split()] == text.split()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        write_lines(path, [{**base_obj("raw"), "rationale": text},
                           base_obj("split", rationale=entries)])
        raw, split = load_corpus(path, settings)
    assert [u.text for u in raw.rationale] == text.split()
    assert [u.text for u in split.rationale] == " ".join(entries).split()
    assert [u.index for u in raw.rationale] == list(range(len(raw.rationale)))


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


# One wrong JSON type per field; str() used to coerce each of them.
WRONG_FIELD_TYPES = [
    ("question", None),
    ("rationale", ["s1 y.", None]),
    ("answer", None),
    ("wrong_answers", "abc"),
    ("task_kind", "essay"),
]


@pytest.mark.parametrize("key, value", WRONG_FIELD_TYPES, ids=[k for k, _ in WRONG_FIELD_TYPES])
def test_field_of_wrong_type_names_line_and_field(tmp_path, key, value):
    path = tmp_path / "c.jsonl"
    write_lines(path, [base_obj("a"), {**base_obj("b"), key: value}])
    with pytest.raises(ParseError, match=f"^line 2: field '{key}' must be .*, got "):
        load_corpus(path)


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [base_obj("dup"), base_obj("dup")])
    with pytest.raises(ValidationError, match="dup"):
        load_corpus(path)


def test_validate_free_form_empty_wrongs_ok():
    assert validate_record(make_record(task_kind="free_form", wrong_answers=())) == []


def test_validate_choice_needs_wrongs():
    violations = validate_record(make_record(task_kind="multiple_choice", wrong_answers=()))
    assert len(violations) == 1
    assert "wrong_answers" in violations[0]


def test_validate_choice_needs_a_wrong_answer_other_than_gold():
    # the negative pool drops the gold answer, so such a record has no contrast to check
    for wrongs in (["fine"], ["fine", "fine"]):
        violations = validate_record(make_record(task_kind="true_false", wrong_answers=wrongs))
        assert len(violations) == 1
        assert "wrong_answers" in violations[0]
    assert validate_record(make_record(task_kind="true_false", wrong_answers=["fine", "no"])) == []


def test_validate_empty_answer():
    violations = validate_record(make_record(answer="  "))
    assert len(violations) == 1
    assert "answer" in violations[0]


def test_validate_blank_question_and_wrong_answer():
    assert validate_record(make_record(question=" \t")) == ["question is empty"]
    assert validate_record(make_record(task_kind="multiple_choice", wrong_answers=("m", " "))) == [
        "wrong_answers has an empty entry"]


def test_validate_corpus_pairs_each_violation_with_its_record_in_order():
    corpus = [make_record(record_id="a", question=" ", answer=" "), make_record(record_id="b"),
              make_record(record_id="c", task_kind="true_false", wrong_answers=())]
    assert validate_corpus(corpus) == [
        ("a", "question is empty"), ("a", "answer is empty"),
        ("c", "true_false record needs a wrong_answers entry other than its gold answer")]


def test_mark_removed_is_permanent():
    record = make_record(units=("u0", "u1"))
    record.mark_removed(0, epoch=1, step=2)
    assert record.rationale[0].removed_at == (1, 2)
    assert record.retained_indices() == [1]
    with pytest.raises(InternalInvariantError):
        record.mark_removed(0, epoch=2, step=1)


def test_write_reduced_no_removals_identity(tmp_path, fixture_corpus):
    out = tmp_path / "red.jsonl"
    write_reduced(fixture_corpus, out)
    reloaded = load_corpus(out)
    assert [r.id for r in reloaded] == [r.id for r in fixture_corpus]
    for before, after in zip(fixture_corpus, reloaded):
        assert [u.text for u in before.rationale] == [u.text for u in after.rationale]


def test_write_reduced_set_difference(tmp_path):
    record = make_record(units=("u0", "u1", "u2", "u3"))
    record.mark_removed(0, 1, 1)
    record.mark_removed(2, 1, 2)

    corpus = [record]
    out = tmp_path / "red.jsonl"
    write_reduced(corpus, out)
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["rationale"] == ["u1", "u3"]
    assert obj["removed"] == [
        {"index": 0, "text": "u0", "epoch": 1, "step": 1},
        {"index": 2, "text": "u2", "epoch": 1, "step": 2},
    ]


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

    tmp = tmp_path_factory.mktemp("rt")
    records = []
    for n, spec in enumerate(specs):
        record = make_record(record_id=f"{n}-{spec['rid']}", units=spec["units"])
        for idx in sorted(spec["removed"]):
            if idx < len(record.rationale):
                record.mark_removed(idx, 1, n + 1)
        records.append(record)
    corpus = records
    out = tmp / "reduced.jsonl"
    write_reduced(corpus, out)
    reloaded = load_corpus(out)
    assert len(reloaded) == len(corpus)
    for before, after in zip(corpus, reloaded):
        assert [u.text for u in before.retained_units()] == [
            u.text for u in after.rationale
        ]
        # fresh contiguous indices after reload
        assert [u.index for u in after.rationale] == list(range(len(after.rationale)))


# quotes, backslashes, control characters, U+2028, non-ASCII and non-BMP
TEXTS = st.text(alphabet=st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u00e9", "\u4e2d",
     "\U0001f600", "a", "b", " "]) | st.characters(exclude_categories=("Cs",)), min_size=1)


@given(st.lists(st.tuples(
    st.lists(TEXTS, max_size=6),  # the units
    st.lists(st.tuples(st.integers(0, 5), st.integers(1, 9), st.integers(1, 99)),
             max_size=6),  # removals: (index, epoch, step)
    TEXTS,  # the other text fields
), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_write_reduced_lines_are_json_dumps_of_the_record_dict(tmp_path_factory, specs):

    records = []
    for n, (units, removals, text) in enumerate(specs):
        record = make_record(record_id=f"{n}{text}", question=text, units=units,
                             answer=text, wrong_answers=[text, "w"])
        for index, epoch, step in removals:
            if index < len(units) and record.rationale[index].removed_at is None:
                record.mark_removed(index, epoch, step)
        records.append(record)
    out = tmp_path_factory.mktemp("reduced") / "reduced.jsonl"
    write_reduced(records, out)
    assert out.read_text(encoding="utf-8").split("\n") == [
        json.dumps(reduced_record_dict(r), ensure_ascii=False) for r in records] + [""]


def test_write_corpus_roundtrip(tmp_path, fixture_corpus):
    out = tmp_path / "norm.jsonl"
    write_corpus(fixture_corpus, out)
    reloaded = load_corpus(out)
    for before, after in zip(fixture_corpus, reloaded):
        assert before.id == after.id
        assert [u.text for u in before.rationale] == [u.text for u in after.rationale]
        assert before.wrong_answers == after.wrong_answers
        assert before.task_kind == after.task_kind
    assert validate_corpus(reloaded) == []


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
