"""Chain-of-thought corpus ingestion, validation, and reduced output.

File format (one JSON object per line, UTF-8):

    {"id": str, "question": str, "rationale": str | [str, ...],
     "answer": str, "wrong_answers": [str, ...]?, "task_kind": str}

A rationale given as a list of strings is taken as pre-split units and
bypasses segmentation; a raw string is split by the segmenter. Reduced
output keeps the same shape, with ``rationale`` holding only the
retained units plus a ``removed`` provenance block:

    "removed": [{"index": int, "text": str, "epoch": int, "step": int}]
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO

from .errors import InternalInvariantError, ParseError, ValidationError
from .segmenter import SegmentationRules, segment_sentences, segment_tokens

if TYPE_CHECKING:
    from .metrics import ReductionTrace

FORMAT_VERSION = "1"
TASK_KINDS = ("multiple_choice", "true_false", "free_form")
GRANULARITIES = ("sentence", "token")
CHOICE_TASKS = ("multiple_choice", "true_false")


@dataclass
class RationaleUnit:
    index: int
    text: str
    granularity: str = "sentence"
    removed_at: tuple[int, int] | None = None  # (epoch, step); never cleared


@dataclass
class RationaleRecord:
    id: str
    question: str
    rationale: list[RationaleUnit]
    answer: str
    wrong_answers: list[str] = field(default_factory=list)
    task_kind: str = "free_form"

    def retained_indices(self) -> list[int]:
        return [u.index for u in self.rationale if u.removed_at is None]

    def retained_units(self) -> list[RationaleUnit]:
        return [u for u in self.rationale if u.removed_at is None]

    def removed_units(self) -> list[RationaleUnit]:
        return [u for u in self.rationale if u.removed_at is not None]

    def unit_texts(self, indices: Iterable[int]) -> list[str]:
        wanted = set(indices)
        return [u.text for u in self.rationale if u.index in wanted]

    def mark_removed(self, index: int, epoch: int, step: int) -> None:
        unit = self.rationale[index]
        if unit.index != index:
            raise InternalInvariantError(f"unit index mismatch at {index} in {self.id}")
        if unit.removed_at is not None:
            raise InternalInvariantError(
                f"unit {index} of record {self.id} removed twice"
            )
        unit.removed_at = (epoch, step)


@dataclass
class CorpusMeta:
    source: str = ""
    format_version: str = FORMAT_VERSION
    segmentation_rule_id: str = ""


@dataclass
class Corpus:
    records: list[RationaleRecord]
    meta: CorpusMeta = field(default_factory=CorpusMeta)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def by_id(self, record_id: str) -> RationaleRecord:
        for record in self.records:
            if record.id == record_id:
                return record
        raise KeyError(record_id)


@dataclass
class ValidationReport:
    record_id: str
    violations: list[str] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _split_rationale(raw, granularity: str, rules: SegmentationRules) -> list[str]:
    if isinstance(raw, list):
        sentences = [str(s) for s in raw]
    elif isinstance(raw, str):
        sentences = segment_sentences(raw, rules) if raw.strip() else []
    else:
        raise TypeError("rationale must be a string or a list of strings")
    if granularity == "sentence":
        return sentences
    tokens: list[str] = []
    for sentence in sentences:
        tokens.extend(segment_tokens(sentence, "whitespace"))
    return tokens


def _record_from_obj(obj: dict, granularity: str, rules: SegmentationRules) -> RationaleRecord:
    for key in ("id", "question", "rationale", "answer", "task_kind"):
        if key not in obj:
            raise KeyError(key)
    task_kind = obj["task_kind"]
    if task_kind not in TASK_KINDS:
        raise ValueError(f"unknown task_kind {task_kind!r}")
    texts = _split_rationale(obj["rationale"], granularity, rules)
    units = [RationaleUnit(i, t, granularity) for i, t in enumerate(texts)]
    return RationaleRecord(
        id=str(obj["id"]),
        question=str(obj["question"]),
        rationale=units,
        answer=str(obj["answer"]),
        wrong_answers=[str(w) for w in obj.get("wrong_answers", [])],
        task_kind=task_kind,
    )


def load_corpus(
    path: str | Path,
    granularity: str = "sentence",
    rules: SegmentationRules | None = None,
) -> Corpus:
    """Load a line-delimited corpus, splitting rationales as requested.

    Raises ParseError for malformed lines (naming the line number) and
    ValidationError for duplicate record ids. Empty rationales load fine;
    they surface as flags in validate_record, not as failures here.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    if rules is None:
        rules = SegmentationRules()
    path = Path(path)
    records: list[RationaleRecord] = []
    seen: set[str] = set()
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise ParseError(f"line {lineno}: record must be a JSON object")
            try:
                record = _record_from_obj(obj, granularity, rules)
            except KeyError as exc:
                raise ParseError(f"line {lineno}: missing field {exc.args[0]!r}") from exc
            except (TypeError, ValueError) as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if record.id in seen:
                raise ValidationError(f"duplicate record id: {record.id!r}")
            seen.add(record.id)
            records.append(record)
    meta = CorpusMeta(
        source=str(path),
        format_version=FORMAT_VERSION,
        segmentation_rule_id=rules.rule_id,
    )
    return Corpus(records=records, meta=meta)


def validate_record(record: RationaleRecord) -> ValidationReport:
    """Check a record against its invariants. Reports, never raises."""
    report = ValidationReport(record_id=record.id)
    if not record.answer.strip():
        report.violations.append("answer is empty")
    if record.task_kind not in TASK_KINDS:
        report.violations.append(f"unknown task_kind {record.task_kind!r}")
    elif record.task_kind in CHOICE_TASKS and not record.wrong_answers:
        report.violations.append(
            f"{record.task_kind} record needs a non-empty wrong_answers set"
        )
    indices = [u.index for u in record.rationale]
    if indices != list(range(len(indices))):
        report.violations.append("unit indices are not contiguous from 0")
    if not record.rationale:
        report.flags.append("rationale is empty")
    return report


def validate_corpus(corpus: Corpus) -> list[ValidationReport]:
    return [validate_record(r) for r in corpus.records]


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """Open a UTF-8 text file that replaces ``path`` only once fully written.

    Writes go to a temporary file in the same directory, which
    ``os.replace`` moves over ``path`` when the block ends without an
    exception; on an exception it is deleted and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(text)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the input format, rationale as a pre-split list."""
    with atomic_writer(path) as fh:
        for record in corpus.records:
            obj = {
                "id": record.id,
                "question": record.question,
                "rationale": [u.text for u in record.rationale],
                "answer": record.answer,
                "wrong_answers": record.wrong_answers,
                "task_kind": record.task_kind,
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def write_reduced(corpus: Corpus, trace: "ReductionTrace", path: str | Path) -> None:
    """Emit the reduced corpus with removal provenance attached.

    The trace must have been produced over this corpus: the set of
    removal events must equal the set of units marked removed, else the
    engine broke its replay law and we refuse to write.
    """
    removal_events = {
        (e.record_id, e.candidate_index): (e.epoch, e.step)
        for e in trace.events
        if e.decision == "removed"
    }
    marked = {
        (record.id, unit.index): unit.removed_at
        for record in corpus.records
        for unit in record.rationale
        if unit.removed_at is not None
    }
    if removal_events != marked:
        raise InternalInvariantError(
            "trace removal events disagree with corpus removed_at marks"
        )
    with atomic_writer(path) as fh:
        for record in corpus.records:
            obj = {
                "id": record.id,
                "question": record.question,
                "rationale": [u.text for u in record.retained_units()],
                "answer": record.answer,
                "wrong_answers": record.wrong_answers,
                "task_kind": record.task_kind,
                "removed": [
                    {
                        "index": u.index,
                        "text": u.text,
                        "epoch": u.removed_at[0],
                        "step": u.removed_at[1],
                    }
                    for u in record.removed_units()
                ],
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
