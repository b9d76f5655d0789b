"""Chain-of-thought corpus ingestion, validation, and reduced output.

File format (one JSON object per line, UTF-8):

    {"id": str, "question": str, "rationale": str | [str, ...],
     "answer": str, "wrong_answers": [str, ...]?, "task_kind": str}

A rationale given as a list of non-blank strings is taken as pre-split
units and bypasses sentence segmentation; a raw string is split by the
segmenter. In token mode the units are the rationale's whitespace
tokens: the string, or each pre-split entry, is split once. By the
segmenter's reconstruction invariant these are the tokens of its
sentences, so the segmenter settings never change a token unit.
Reduced output keeps the same shape, with ``rationale`` holding only
the retained units plus a ``removed`` provenance block:

    "removed": [{"index": int, "text": str, "epoch": int, "step": int}]

A corpus is a plain ``list[RationaleRecord]`` in file order:
``load_corpus`` returns one, and every layer takes it as it is.
Records are checked in two places only: ``load_corpus`` (UTF-8, JSON,
field types, blank pre-split units, lone surrogates, ``task_kind``,
duplicate ids) and ``validate_record`` (blank text, choice records'
wrong answers), which returns its violations as plain strings;
``validate_corpus`` pairs each with its record id. An empty rationale
is no violation: ``varr ingest`` notes it as a flag. Units are numbered
from 0 in order as they are loaded.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, TextIO

from .errors import InternalInvariantError, ParseError, ValidationError
from .segmenter import segment_sentences, segment_tokens

if TYPE_CHECKING:
    from .config import RunConfig

TASK_KINDS = ("multiple_choice", "true_false", "free_form")
GRANULARITIES = ("sentence", "token")
CHOICE_TASKS = ("multiple_choice", "true_false")


class SlotsValue:
    """A mutable value whose slots are its fields: equal to an instance of
    its own class whose every field is equal, and unhashable."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class RationaleUnit(SlotsValue):
    __slots__ = ("index", "text", "removed_at")

    def __init__(self, index: int, text: str, removed_at: tuple[int, int] | None = None):
        self.index = index
        self.text = text
        self.removed_at = removed_at  # (epoch, step); never cleared


class RationaleRecord(SlotsValue):
    __slots__ = ("id", "question", "rationale", "answer", "wrong_answers", "task_kind")

    def __init__(self, id: str, question: str, rationale: list[RationaleUnit], answer: str,
                 wrong_answers: list[str] | None = None, task_kind: str = "free_form"):
        self.id = id
        self.question = question
        self.rationale = rationale
        self.answer = answer
        self.wrong_answers = [] if wrong_answers is None else wrong_answers
        self.task_kind = task_kind

    def retained_indices(self) -> list[int]:
        return [u.index for u in self.rationale if u.removed_at is None]

    def retained_units(self) -> list[RationaleUnit]:
        return [u for u in self.rationale if u.removed_at is None]

    def removed_units(self) -> list[RationaleUnit]:
        return [u for u in self.rationale if u.removed_at is not None]

    def mark_removed(self, index: int, epoch: int, step: int) -> None:
        unit = self.rationale[index]
        if unit.removed_at is not None:
            raise InternalInvariantError(
                f"unit {index} of record {self.id} removed twice"
            )
        unit.removed_at = (epoch, step)


def parse_json(text: str | bytes):
    """``json.loads``, raising well-formed JSON that the parser refuses as a
    ValueError named in a user's terms. Python's own message for a long
    integer ends with advice for a programmer (``sys.set_int_max_str_digits``)."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except RecursionError:
        reason = "arrays or objects nested too deeply"
    except ValueError:
        reason = f"an integer of more than {sys.get_int_max_str_digits()} digits"
    raise ValueError(f"JSON the parser refuses ({reason})")


def _split_rationale(raw: str | list[str], settings: RunConfig) -> list[str]:
    if settings.unit == "token":
        if isinstance(raw, str):
            return segment_tokens(raw)
        return [token for unit in raw for token in segment_tokens(unit)]
    if isinstance(raw, list):
        return raw
    return segment_sentences(raw, settings.terminal_punctuation,
                             settings.abbreviation_exceptions, settings.min_unit_chars)


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _utf8(value) -> bool:
    """Whether each string in ``value``, or in the list ``value``, encodes
    to UTF-8. A JSON escape can make a lone surrogate, which no UTF-8 text
    holds."""
    try:
        for text in value if isinstance(value, list) else [value]:
            if isinstance(text, str):
                text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _record_from_obj(obj, settings: RunConfig) -> RationaleRecord:
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    for key in ("id", "question", "rationale", "answer", "task_kind"):
        if key not in obj:
            raise KeyError(key)
    wrong_answers = obj.get("wrong_answers", [])
    for key, ok, expected in (
        ("question", isinstance(obj["question"], str), "a string"),
        ("rationale", isinstance(obj["rationale"], str)
         or (_strings(obj["rationale"]) and all(u.strip() for u in obj["rationale"])),
         "a string or a list of non-blank strings"),
        ("answer", isinstance(obj["answer"], str), "a string"),
        ("wrong_answers", _strings(wrong_answers), "a list of strings"),
        ("task_kind", obj["task_kind"] in TASK_KINDS, "one of " + ", ".join(TASK_KINDS)),
    ):
        if not ok:
            raise ValueError(f"field {key!r} must be {expected}, "
                             f"got {json.dumps(obj.get(key))}")
    for key in ("id", "question", "rationale", "answer", "wrong_answers"):
        if not _utf8(obj.get(key)):
            raise ValueError(f"field {key!r} holds a lone surrogate, which is not UTF-8 text")
    texts = _split_rationale(obj["rationale"], settings)
    return RationaleRecord(
        id=str(obj["id"]),
        question=obj["question"],
        rationale=[RationaleUnit(i, t) for i, t in enumerate(texts)],
        answer=obj["answer"],
        wrong_answers=list(wrong_answers),
        task_kind=obj["task_kind"],
    )


def load_corpus(path: str | Path, settings: RunConfig | None = None) -> list[RationaleRecord]:
    """Load a line-delimited corpus, splitting rationales by the unit and
    segmenter settings of ``settings`` (default ``RunConfig()``).

    Raises ParseError for lines that are not UTF-8, not JSON or JSON the
    parser refuses (``parse_json``), fields of the wrong JSON type, blank
    pre-split units and strings that hold a lone surrogate (naming the
    line number and the field) and ValidationError for duplicate record
    ids. Empty rationales load fine; ``varr ingest`` flags them.
    """
    if settings is None:
        from .config import RunConfig
        settings = RunConfig()
    records: list[RationaleRecord] = []
    seen: set[str] = set()
    # split as text mode splits (at \n, \r\n and \r), then decoded line by
    # line, so that a byte that is not UTF-8 is named with its line
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"line {lineno}: not valid UTF-8 ({exc.reason} "
                             f"at byte {exc.start + 1})") from exc
        if not line.strip():
            continue
        try:
            record = _record_from_obj(parse_json(line), settings)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        except KeyError as exc:
            raise ParseError(f"line {lineno}: missing field {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if record.id in seen:
            raise ValidationError(f"duplicate record id: {record.id!r}")
        seen.add(record.id)
        records.append(record)
    return records


def validate_record(record: RationaleRecord) -> list[str]:
    """The record's violations of its invariants. Reports, never raises."""
    violations = []
    if not record.question.strip():
        violations.append("question is empty")
    if not record.answer.strip():
        violations.append("answer is empty")
    if any(not wrong.strip() for wrong in record.wrong_answers):
        violations.append("wrong_answers has an empty entry")
    if record.task_kind in CHOICE_TASKS and all(
            wrong == record.answer for wrong in record.wrong_answers):
        violations.append(
            f"{record.task_kind} record needs a wrong_answers entry other than its gold answer"
        )
    return violations


def validate_corpus(corpus: list[RationaleRecord]) -> list[tuple[str, str]]:
    """Each violation in the corpus as a ``(record id, violation)`` pair, in
    record order."""
    return [(r.id, v) for r in corpus for v in validate_record(r)]


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


# One removed unit's provenance row, as json.dumps writes its dict.
_REMOVED_ROW = '{"index": %d, "text": %s, "epoch": %d, "step": %d}'


class _Texts(dict):
    """json's own text of each string, non-ASCII kept, made on first use."""

    def __missing__(self, text: str) -> str:
        encoded = self[text] = json.dumps(text, ensure_ascii=False)
        return encoded


def _write_records(corpus: list[RationaleRecord], path: str | Path, reduced: bool) -> None:
    """Write each record in the input format, rationale as a pre-split list:
    all its units, or if ``reduced`` the retained ones and a ``removed``
    provenance block.

    Each line is ``json.dumps(obj, ensure_ascii=False)`` of the record's
    dict. The ``removed`` rows are spliced in after the record's other
    keys, written from one row template with each distinct unit text
    encoded once.
    """
    texts = _Texts()
    with atomic_writer(path) as fh:
        for record in corpus:
            line = json.dumps({
                "id": record.id,
                "question": record.question,
                "rationale": [u.text for u in record.rationale
                              if not reduced or u.removed_at is None],
                "answer": record.answer,
                "wrong_answers": record.wrong_answers,
                "task_kind": record.task_kind,
            }, ensure_ascii=False)
            if reduced:
                line = line[:-1] + ', "removed": [' + ", ".join([
                    _REMOVED_ROW % (u.index, texts[u.text], *u.removed_at)
                    for u in record.removed_units()
                ]) + "]}"
            fh.write(line + "\n")


def write_corpus(corpus: list[RationaleRecord], path: str | Path) -> None:
    """Write a corpus in the input format, rationale as a pre-split list."""
    _write_records(corpus, path, reduced=False)


def write_reduced(corpus: list[RationaleRecord], path: str | Path) -> None:
    """Write the reduced corpus with removal provenance attached.

    The caller checks the replay law first (``metrics.validate_trace``
    given the corpus): the marks written here are the trace's removals.
    """
    _write_records(corpus, path, reduced=True)
