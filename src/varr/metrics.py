"""Trace bookkeeping and post-run analytics.

A ReductionTrace is the full audit log of a reduction run: one event per
candidate decision, plus the config snapshot, seed, and scorer-call
count. Everything downstream (removal-ratio curves, token statistics,
replay checks, the determinism fingerprint) is derived from it.

The trace is written as canonical JSON: keys sorted, compact separators,
non-ASCII characters escaped. The fingerprint is the sha256 of the same
encoding with filesystem paths stripped from the config, so two runs of
the same configuration into different output directories fingerprint
identically. Both documents are spliced around one encoding of the
events list, done by json's C encoder (``indent`` and ``json.dump`` to
a file would fall back to the pure-Python one).
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Corpus, atomic_writer
from .errors import InternalInvariantError

REPORT_SCHEMA_VERSION = "1"

DECISION_REMOVED = "removed"
DECISION_KEPT = "kept"


@dataclass
class TraceEvent:
    record_id: str
    epoch: int
    step: int
    t: int
    candidate_index: int
    decision: str
    budget: int
    buffer_size: int  # |R_B| after this decision was applied
    verbosity_gt: float | None = None
    verbosity_wrong: float | None = None
    k_used: int = 0
    score_full: float | None = None
    score_reduced: float | None = None
    unconditional: bool = False


@dataclass
class ReductionTrace:
    config: dict
    seed: int
    events: list[TraceEvent] = field(default_factory=list)
    scorer_call_count: int = 0

    def removal_events(self) -> list[TraceEvent]:
        return [e for e in self.events if e.decision == DECISION_REMOVED]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "scorer_call_count": self.scorer_call_count,
            "events": [dict(vars(e)) for e in self.events],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ReductionTrace":
        return cls(
            config=obj["config"],
            seed=obj["seed"],
            scorer_call_count=obj["scorer_call_count"],
            events=[TraceEvent(**e) for e in obj["events"]],
        )

    def canonical_json(self, events_json: str | None = None, with_paths: bool = True) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))``.

        Built by splicing: the sorted top-level keys are config, events,
        scorer_call_count, seed. Pass the output of ``encode_events`` to
        reuse one encoding of the events for several documents.
        """
        config = self.config
        if not with_paths:
            config = {k: v for k, v in config.items() if k != "paths"}
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


def encode_events(events: list[TraceEvent]) -> str:
    """The canonical JSON of the events list, without copying the events."""
    return _canonical([vars(e) for e in events])


def trace_fingerprint(trace: ReductionTrace, events_json: str | None = None) -> str:
    """sha256 over the canonical trace JSON, ignoring config paths."""
    canonical = trace.canonical_json(events_json, with_paths=False)
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


@dataclass
class RemovalRatioPoint:
    epoch: int
    removed_count: int
    max_potential: int
    ratio: float


def removal_ratio_curve(trace: ReductionTrace, per_step: bool = False) -> list[RemovalRatioPoint]:
    """Removals over summed budgets, one point per epoch (or per step).

    The budget of a (record, step) pair counts once no matter how many
    candidates were evaluated; pairs with zero budget emit no events and
    contribute zero, so reconstruction from events is exact. Epochs with
    no events (all warm-up) get ratio 0 by convention.
    """
    groups: dict = defaultdict(list)
    for e in trace.events:
        groups[(e.epoch, e.step) if per_step else e.epoch].append(e)
    epochs = int(trace.config.get("schedule", {}).get("epochs", 0))
    if epochs and not per_step:
        keys = range(1, epochs + 1)
    else:
        keys = sorted(groups)
    points = []
    for key in keys:
        events = groups.get(key, ())
        removed = sum(1 for e in events if e.decision == DECISION_REMOVED)
        budgets: dict[tuple[str, int], int] = {}
        for e in events:
            budgets[(e.record_id, e.t)] = e.budget
        max_potential = sum(budgets.values())
        ratio = removed / max_potential if max_potential > 0 else 0.0
        if not 0.0 <= ratio <= 1.0:
            raise InternalInvariantError(f"removal ratio {ratio} out of [0, 1]")
        epoch_label = key[0] if per_step else key
        points.append(RemovalRatioPoint(epoch_label, removed, max_potential, ratio))
    return points


def _record_token_count(record) -> int:
    tokens = sum(len(u.text.split()) for u in record.retained_units())
    return tokens + len(record.answer.split())


def _token_summary(before_total: int, after_total: int, n: int) -> dict:
    before_avg = before_total / n if n else 0.0
    after_avg = after_total / n if n else 0.0
    if before_avg > 0:
        reduction_percent = 100.0 * (before_avg - after_avg) / before_avg
    else:
        reduction_percent = 0.0
    return {
        "avg_rationale_tokens_before": before_avg,
        "avg_rationale_tokens_after": after_avg,
        "reduction_percent": reduction_percent,
    }


def token_stats(corpus_before: Corpus, corpus_after: Corpus) -> dict:
    """Average whitespace tokens (retained rationale + answer) per record."""
    before_ids = {r.id for r in corpus_before.records}
    after_ids = {r.id for r in corpus_after.records}
    if before_ids != after_ids:
        diff = sorted(before_ids.symmetric_difference(after_ids))
        raise ValueError(f"corpora do not share record ids; differ on {diff}")
    return _token_summary(
        sum(_record_token_count(r) for r in corpus_before.records),
        sum(_record_token_count(r) for r in corpus_after.records),
        len(corpus_before.records),
    )


def reduction_token_stats(corpus: Corpus) -> dict:
    """token_stats of the corpus as loaded against the corpus as reduced.

    A reduction only marks units removed (removed_at), so the corpus as
    loaded is its retained plus its removed units: no second parse.
    """
    after = sum(_record_token_count(r) for r in corpus.records)
    removed = sum(len(u.text.split()) for r in corpus.records for u in r.removed_units())
    return _token_summary(after + removed, after, len(corpus.records))


def replay_trace(corpus: Corpus, trace: ReductionTrace) -> Corpus:
    """Apply the trace's removal decisions to a pristine corpus copy.

    Used to verify the replay law: the result must match the corpus the
    run actually produced, retained set for retained set.
    """
    for event in trace.events:
        if event.decision != DECISION_REMOVED:
            continue
        record = corpus.by_id(event.record_id)
        record.mark_removed(event.candidate_index, event.epoch, event.step)
    return corpus


def validate_trace(trace: ReductionTrace) -> list[str]:
    """Check the budget, permanence, warm-up, and ordering laws."""
    problems: list[str] = []
    schedule = trace.config.get("schedule", {})
    total_steps = int(schedule.get("total_steps", 0))
    warmup_ratio = float(schedule.get("warmup_ratio", 0.0))

    previous_key = None
    for e in trace.events:
        key = (e.epoch, e.step)
        if previous_key is not None and key < previous_key:
            problems.append(f"events out of (epoch, step) order at t={e.t}")
        previous_key = key
        if total_steps and e.t <= warmup_ratio * total_steps:
            problems.append(f"event at t={e.t} inside warm-up window")

    removed_by_group: dict[tuple[str, int, int], int] = {}
    budget_by_group: dict[tuple[str, int, int], int] = {}
    seen_removals: set[tuple[str, int]] = set()
    for e in trace.events:
        group = (e.record_id, e.epoch, e.step)
        budget_by_group[group] = e.budget
        if e.decision == DECISION_REMOVED:
            removed_by_group[group] = removed_by_group.get(group, 0) + 1
            unit = (e.record_id, e.candidate_index)
            if unit in seen_removals:
                problems.append(f"unit {unit} removed twice")
            seen_removals.add(unit)
    for group, removed in removed_by_group.items():
        if removed > budget_by_group[group]:
            problems.append(
                f"group {group} removed {removed} over budget {budget_by_group[group]}"
            )
    return problems


def build_report(
    trace: ReductionTrace,
    corpus: Corpus | None = None,
    *,
    events_json: str | None = None,
) -> dict:
    """Machine-readable run summary.

    Token stats are included when the reduced corpus (carrying its
    removed_at marks) is given. ``events_json`` is ``encode_events`` of
    the trace's events, when the caller has it already.
    """
    removals = len(trace.removal_events())
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": trace.config,
        "seed": trace.seed,
        "scorer_call_count": trace.scorer_call_count,
        "event_count": len(trace.events),
        "removal_count": removals,
        "no_reductions_performed": removals == 0,
        "determinism_fingerprint": trace_fingerprint(trace, events_json),
        "removal_ratio_curve": [vars(p) for p in removal_ratio_curve(trace)],
        "law_violations": validate_trace(trace),
    }
    if corpus is not None:
        report["token_stats"] = reduction_token_stats(corpus)
    return report


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
    if report["law_violations"]:
        lines.append(f"  LAW VIOLATIONS     {report['law_violations']}")
    stats = report.get("token_stats")
    if stats:
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
