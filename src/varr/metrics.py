"""Trace bookkeeping and post-run analytics.

A ReductionTrace is the full audit log of a reduction run: one event per
candidate decision, plus the config snapshot, seed, and scorer-call
count. Everything downstream (removal-ratio curves, token statistics,
replay checks, the determinism fingerprint) is derived from it. The
report is plain JSON values, its curve one row per epoch from one pass.

The trace is written as canonical JSON: keys sorted, compact separators,
non-ASCII characters escaped. TraceEvent is a named tuple whose fields
are declared in sorted order, so writing them in field order is the
canonical key order, and the events list, most of the trace, is written
row by row from one template of those keys (``encode_events``).
The fingerprint is the sha256 of the same encoding without the config
entries that cannot change a decision
(``UNFINGERPRINTED``: filesystem paths and remote execution settings),
so two runs of the same configuration into different output directories,
or against the same scorer at another concurrency, fingerprint
identically. Both documents are spliced around one encoding of the
events list; the rest is done by json's C encoder (``indent`` and
``json.dump`` to a file would fall back to the pure-Python one).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from itertools import chain, cycle
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .corpus import RationaleRecord, SlotsValue, atomic_writer

REPORT_SCHEMA_VERSION = "1"
# Version of the trace config layout: run, schedule, execution and paths.
TRACE_SCHEMA = "3"
UNFINGERPRINTED = ("execution", "paths")

DECISION_REMOVED = "removed"
DECISION_KEPT = "kept"


class TraceEvent(NamedTuple):
    """One candidate decision: a trace row. An unconditional removal scores
    nothing, so its score fields are None and its k_used 0."""

    # Fields in sorted order: encode_events relies on it.
    budget: int
    buffer_size: int  # |R_B| after this decision was applied
    candidate_index: int
    decision: str
    epoch: int
    k_used: int
    record_id: str
    score_full: float | None
    score_reduced: float | None
    step: int
    t: int
    unconditional: bool
    verbosity_gt: float | None
    verbosity_wrong: float | None


class ReductionTrace(SlotsValue):
    __slots__ = ("config", "seed", "events", "scorer_call_count")

    def __init__(self, config: dict, seed: int, events: list[TraceEvent] | None = None,
                 scorer_call_count: int = 0):
        self.config = config
        self.seed = seed
        self.events = [] if events is None else events
        self.scorer_call_count = scorer_call_count

    @classmethod
    def from_dict(cls, obj: dict) -> "ReductionTrace":
        return cls(
            config=obj["config"],
            seed=obj["seed"],
            scorer_call_count=obj["scorer_call_count"],
            events=[TraceEvent(**e) for e in obj["events"]],
        )

    def canonical_json(self, events_json: str | None = None,
                       for_fingerprint: bool = False) -> str:
        """The trace as canonical JSON: the ``json.dumps`` of a dict of its
        config, its events (each as the dict of its fields), scorer_call_count
        and seed, with ``sort_keys=True`` and ``separators=(",", ":")``.

        Built by splicing: the sorted top-level keys are config, events,
        scorer_call_count, seed. Pass the output of ``encode_events`` to
        reuse one encoding of the events for several documents. With
        ``for_fingerprint`` the UNFINGERPRINTED config entries are left out.
        """
        config = self.config
        if for_fingerprint:
            config = {k: v for k, v in config.items() if k not in UNFINGERPRINTED}
        if events_json is None:
            events_json = encode_events(self.events)
        return "".join((
            '{"config":', _canonical(config),
            ',"events":', events_json,
            ',"scorer_call_count":', _canonical(self.scorer_call_count),
            ',"seed":', _canonical(self.seed), "}",
        ))

    def save(self, path: str | Path, events_json: str | None = None) -> None:
        with atomic_writer(path) as fh:
            fh.write(self.canonical_json(events_json))

    @classmethod
    def load(cls, path: str | Path) -> "ReductionTrace":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# One event's row, json.dumps of its dict of fields (compact, keys sorted),
# after a comma that the first row drops.
_ROW = ",{" + ",".join(json.dumps(name) + ":%s" for name in TraceEvent._fields) + "}"
_SCORES = [TraceEvent._fields.index(name) for name in
           ("score_full", "score_reduced", "verbosity_gt", "verbosity_wrong")]


class _FieldTexts(dict):
    """One field's part of a row, keyed by value and made on first use:
    the template's text before the value, json's own text of the value,
    and, for the last field, the text after it."""

    def __init__(self, before: str, after: str = ""):
        self.before, self.after = before, after

    def __missing__(self, value) -> str:
        text = self[value] = self.before + json.dumps(value) + self.after
        return text


def _one_text_per_value(texts: _FieldTexts, events: list[TraceEvent], index: int) -> bool:
    """Whether the values of field ``index`` that share an entry of
    ``texts`` share its json text too. Equal values with two texts (-3 and
    -3.0, 0.0 and -0.0, 1 and True) are integral, so a field none of whose
    entries is integral holds none of them."""
    if all(value is None or type(value) is float and not value.is_integer()
           for value in texts):
        return True
    column = list(map(itemgetter(index), events))
    kinds = set(map(type, column)) - {type(None)}
    signs = {math.copysign(1.0, value) for value in column if value == 0}
    return len(kinds) < 2 and len(signs) < 2


def encode_events(events: list[TraceEvent]) -> str:
    """The canonical JSON of the events list: ``json.dumps`` of each
    event's dict of fields, keys sorted, compact separators.

    Each event is written from the one row template, whose keys are
    TraceEvent's fields, in their sorted order; json encodes each distinct
    value of a field once. The score fields may hold ints beside floats,
    as a loaded trace can. An int and an equal float, or 0.0 and -0.0,
    have two texts, so a list that holds such a pair in one score field
    is handed to json whole. The other fields hold the one type that
    TraceEvent declares.
    """
    parts = _ROW.split("%s")
    fields = [_FieldTexts(before) for before in parts[:-2]] + [_FieldTexts(*parts[-2:])]
    rows = "".join(map(dict.__getitem__, cycle(fields), chain.from_iterable(events)))
    for index in _SCORES:
        if not _one_text_per_value(fields[index], events, index):
            return json.dumps([e._asdict() for e in events], separators=(",", ":"))
    return "[" + rows[1:] + "]"


def trace_fingerprint(trace: ReductionTrace, events_json: str | None = None) -> str:
    """sha256 over the canonical trace JSON, without UNFINGERPRINTED config."""
    canonical = trace.canonical_json(events_json, for_fingerprint=True)
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def removal_ratio_curve(trace: ReductionTrace) -> list[dict]:
    """Removals over summed budgets, one report row per epoch: ``epoch``,
    ``removed_count``, ``max_potential`` and ``ratio``.

    One pass over the events counts each epoch's removals and keeps each
    scan's budget, keyed by (epoch, record, t): it counts once no matter
    how many candidates were evaluated. Scans with zero budget emit no
    events and contribute zero, so reconstruction from events is exact.
    Epochs with no events (all warm-up) get ratio 0 by convention.
    """
    removals, budgets = [], {}
    for e in trace.events:
        budgets[e.epoch, e.record_id, e.t] = e.budget
        if e.decision == DECISION_REMOVED:
            removals.append(e.epoch)
    removed, potential = Counter(removals), Counter()
    for (epoch, _, _), budget in budgets.items():
        potential[epoch] += budget
    return [
        {"epoch": epoch, "removed_count": removed[epoch], "max_potential": potential[epoch],
         "ratio": removed[epoch] / potential[epoch] if potential[epoch] > 0 else 0.0}
        for epoch in range(1, trace.config["run"]["epochs"] + 1)
    ]


def _record_token_count(record) -> int:
    tokens = sum(len(u.text.split()) for u in record.retained_units())
    return tokens + len(record.answer.split())


def reduction_token_stats(corpus: list[RationaleRecord]) -> dict:
    """Average whitespace tokens (retained rationale + answer) per record,
    of the corpus as loaded against the corpus as reduced.

    A reduction only marks units removed (removed_at), so the corpus as
    loaded is its retained plus its removed units: no second parse. The
    corpus is validated and non-empty, and every answer has a token, so
    the "before" average is positive.
    """
    n = len(corpus)
    after = sum(_record_token_count(r) for r in corpus)
    removed = sum(len(u.text.split()) for r in corpus for u in r.removed_units())
    before_avg, after_avg = (after + removed) / n, after / n
    return {
        "avg_rationale_tokens_before": before_avg,
        "avg_rationale_tokens_after": after_avg,
        "reduction_percent": 100.0 * (before_avg - after_avg) / before_avg,
    }


def replay_trace(corpus: list[RationaleRecord], trace: ReductionTrace) -> list[RationaleRecord]:
    """Apply the trace's removal decisions to a pristine corpus copy.

    Used to verify the replay law: ``validate_trace(trace, result)`` must
    find no problem, as it must for the corpus the run actually produced.
    """
    records = {record.id: record for record in corpus}
    for event in trace.events:
        if event.decision == DECISION_REMOVED:
            records[event.record_id].mark_removed(event.candidate_index, event.epoch, event.step)
    return corpus


def validate_trace(trace: ReductionTrace,
                   corpus: list[RationaleRecord] | None = None) -> list[str]:
    """Check the budget, permanence, warm-up, and ordering laws, and, given
    the corpus the run reduced, the replay law: the trace's removal events
    are exactly the units the corpus marks removed, at the same (epoch, step).

    One pass over the events. The problems are listed by law: ordering
    and warm-up first, then permanence, then budget, then replay.
    """
    timing: list[str] = []
    permanence: list[str] = []
    total_steps = int(trace.config.get("schedule", {}).get("total_steps", 0))
    warmup_end = float(trace.config.get("run", {}).get("warmup_ratio", 0.0)) * total_steps

    previous_key = None
    removed_by_group: dict[tuple[str, int, int], int] = {}
    budget_by_group: dict[tuple[str, int, int], int] = {}
    removed_at: dict[tuple[str, int], tuple[int, int]] = {}
    for e in trace.events:
        key = (e.epoch, e.step)
        if previous_key is not None and key < previous_key:
            timing.append(f"events out of (epoch, step) order at t={e.t}")
        previous_key = key
        if total_steps and e.t <= warmup_end:
            timing.append(f"event at t={e.t} inside warm-up window")
        group = (e.record_id, e.epoch, e.step)
        budget_by_group[group] = e.budget
        if e.decision == DECISION_REMOVED:
            removed_by_group[group] = removed_by_group.get(group, 0) + 1
            unit = (e.record_id, e.candidate_index)
            if unit in removed_at:
                permanence.append(f"unit {unit} removed twice")
            removed_at[unit] = key
    problems = timing + permanence + [
        f"group {group} removed {removed} over budget {budget_by_group[group]}"
        for group, removed in removed_by_group.items()
        if removed > budget_by_group[group]
    ]
    if corpus is not None and removed_at != {
        (record.id, unit.index): unit.removed_at
        for record in corpus for unit in record.rationale
        if unit.removed_at is not None
    }:
        problems.append("trace removal events disagree with corpus removed_at marks")
    return problems


def build_report(
    trace: ReductionTrace,
    corpus: list[RationaleRecord],
    *,
    events_json: str | None = None,
) -> dict:
    """Machine-readable run summary of ``trace`` and the corpus it reduced
    (carrying its removed_at marks), which give the token stats and the
    replay law's check. ``events_json`` is ``encode_events`` of the
    trace's events, when the caller has it already.
    """
    curve = removal_ratio_curve(trace)
    removals = sum(row["removed_count"] for row in curve)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": trace.config,
        "seed": trace.seed,
        "scorer_call_count": trace.scorer_call_count,
        "event_count": len(trace.events),
        "removal_count": removals,
        "no_reductions_performed": removals == 0,
        "determinism_fingerprint": trace_fingerprint(trace, events_json),
        "removal_ratio_curve": curve,
        "law_violations": validate_trace(trace, corpus),
        "token_stats": reduction_token_stats(corpus),
    }


def render_report_text(report: dict) -> str:
    lines = [
        "reduction run report",
        f"  fingerprint        {report['determinism_fingerprint']}",
        f"  seed               {report['seed']}",
        f"  scorer calls       {report['scorer_call_count']}",
        f"  decisions          {report['event_count']}",
        f"  removals           {report['removal_count']}",
    ]
    if report["no_reductions_performed"]:
        lines.append("  note               no reductions performed")
    stats = report["token_stats"]
    lines.append(
        "  tokens/record      "
        f"{stats['avg_rationale_tokens_before']:.2f} -> "
        f"{stats['avg_rationale_tokens_after']:.2f} "
        f"({stats['reduction_percent']:.2f}% reduction)"
    )
    lines.append("  removal ratio per epoch")
    for point in report["removal_ratio_curve"]:
        lines.append(
            f"    epoch {point['epoch']:>3}  removed {point['removed_count']:>5}"
            f"  of {point['max_potential']:>5}  ratio {point['ratio']:.3f}"
        )
    return "\n".join(lines)


def removal_ratio_tsv(curve: list[dict]) -> str:
    """The report's ``removal_ratio_curve`` as a tab-separated table."""
    rows = ["epoch\tremoved\tmax_potential\tratio"]
    for p in curve:
        rows.append(f"{p['epoch']}\t{p['removed_count']}\t{p['max_potential']}\t{p['ratio']!r}")
    return "\n".join(rows) + "\n"
