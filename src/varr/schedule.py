"""The reduction driver: budgets, warm-up gating, and the removal loop.

One run walks E epochs of S steps (S batches per epoch, seeded shuffle
per epoch). During warm-up (t <= warmup_ratio * T, boundary inclusive)
no removal evaluation happens. Afterwards, each record of the current
batch gets a fresh removal buffer and its candidates are visited in the
configured order; every approved candidate is removed permanently, and
the scan stops once the buffer reaches the per-record linear budget

    r(t) = floor(n_t * t / T)

where n_t is the record's retained unit count at the start of the scan.
At every epoch boundary the scorer's refresh hook runs (the tabular
backend refits from scratch on the current reduced corpus), so earlier
removals change the model that judges later ones.

Candidate orders: front (ascending), back (descending), random (seeded
permutation), enforced_front(n) (front order, first n unconditional
during the first enforce_epochs epochs), no_rule (seeded permutation,
all unconditional; criteria bypassed entirely).

Within an epoch the scorer does not change and each record is scanned
once, reading only its own units and the answers of its batch, so the
scans of one batch are independent. A handle with ``in_flight > 1``
(the remote backend) has them run on that many worker threads; their
events and scorer call counts are merged in batch order, so the trace is
the serial one. Once a scan fails, the scans of later batch slots stop
before their next candidate, since a serial run would never have
reached them.

The driver reads its settings off a ``config.RunConfig``, which checked
their ranges when it was built, and records the decision settings in the
trace it returns.

A scan holds its own state: the record's retained indices and full
prompt, read and validated once. Each candidate's reduced prompt is the
full one with that unit sliced out, and a removal drops the unit from
both. Only varr_plus builds a negative pool, once per scan; a record
whose pool is empty (say, one alone in its batch) cannot confirm the
wrong-answer contrast, so each of its candidates is kept.
"""

from __future__ import annotations

import functools
import logging
import math
import random
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .corpus import CHOICE_TASKS, Corpus, RationaleRecord
from .errors import ConfigurationError, ScorerError, VarrError
from .metrics import (
    DECISION_KEPT,
    DECISION_REMOVED,
    TRACE_SCHEMA,
    ReductionTrace,
    TraceEvent,
)
from .scorer import ScorerHandle, assemble_prompt, corpus_view
from .seeding import child_rng
from .verbosity import MODE_VARR_PLUS, evaluate_candidate

if TYPE_CHECKING:  # config imports this module
    from .config import RunConfig

log = logging.getLogger(__name__)

CANDIDATE_ORDERS = ("front", "random", "back", "enforced_front", "no_rule")
SHUFFLED_ORDERS = ("random", "no_rule")


@dataclass
class TrainingClock:
    """Step bookkeeping: epoch and step are 1-based, t is global."""

    epoch: int
    step_in_epoch: int
    steps_per_epoch: int
    epochs: int
    warmup_ratio: float

    @property
    def t(self) -> int:
        return (self.epoch - 1) * self.steps_per_epoch + self.step_in_epoch

    @property
    def total_steps(self) -> int:
        return self.epochs * self.steps_per_epoch

    @property
    def in_warmup(self) -> bool:
        return in_warmup(self.t, self.total_steps, self.warmup_ratio)


def removal_budget(t: int, total_steps: int, n_t: int) -> int:
    """floor(n_t * t / T) in exact integer arithmetic."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 1 <= t <= total_steps:
        raise ValueError(f"t={t} outside [1, {total_steps}]")
    if n_t < 0:
        raise ValueError("n_t must be >= 0")
    return (n_t * t) // total_steps


def in_warmup(t: int, total_steps: int, warmup_ratio: float) -> bool:
    """True while t <= warmup_ratio * T (boundary step still warms up)."""
    if not 0.0 <= warmup_ratio <= 1.0:
        raise ValueError("warmup_ratio must be in [0, 1]")
    return t <= warmup_ratio * total_steps


@dataclass(frozen=True)
class Candidate:
    index: int
    unconditional: bool = False


def candidate_sequence(
    record: RationaleRecord,
    settings: RunConfig,
    rng: random.Random | None = None,
    enforced_active: bool = False,
) -> list[Candidate]:
    """Visit order over the record's currently retained unit indices.

    The shuffled orders permute them with ``rng``, back reverses them; an
    unconditional prefix covers all of no_rule's and the first enforced_n
    of enforced_front's while ``enforced_active``.
    """
    retained = record.retained_indices()
    order = settings.candidate_order
    if order in SHUFFLED_ORDERS:
        if rng is None:
            raise ValueError(f"{order} order requires an rng")
        rng.shuffle(retained)
    elif order == "back":
        retained.reverse()
    n = (len(retained) if order == "no_rule"
         else settings.enforced_n if order == "enforced_front" and enforced_active
         else 0)
    return [Candidate(i, unconditional=pos < n) for pos, i in enumerate(retained)]


def negative_pool(
    record: RationaleRecord,
    batch: Sequence[RationaleRecord],
    k_default: int,
) -> tuple[list[str], int]:
    """Wrong-answer pool and sample size for one record of a batch.

    Choice tasks use the record's complete non-correct label set (all of
    it, no subsampling); free-form tasks draw k_default answers from the
    other records of the batch. Pools are deduplicated by exact string
    and never hold the gold answer.
    """
    choice = record.task_kind in CHOICE_TASKS
    answers = record.wrong_answers if choice else (
        r.answer for r in batch if r.id != record.id)
    pool = [a for a in dict.fromkeys(answers) if a != record.answer]
    return pool, len(pool) if choice else k_default


class ReductionAborted(VarrError):
    """Scorer failure mid-run; carries the trace up to the failure."""

    def __init__(self, cause: Exception, trace: ReductionTrace):
        super().__init__(f"reduction aborted: {cause}")
        self.cause = cause
        self.trace = trace


def run_reduction(
    corpus: Corpus,
    handle: ScorerHandle,
    settings: RunConfig,
) -> ReductionTrace:
    """Execute the full removal schedule over the corpus, mutating it.

    Returns the complete trace of every evaluation and removal. Its config
    holds the trace schema, the decision settings (``run``) and the
    derived step counts (``schedule``). The corpus records' units carry
    removed_at marks afterwards; feed the pair to write_reduced for the
    reduced artifact with provenance.

    On a scorer failure the partial trace holds what the serial driver
    would have recorded: the events of the batch's records before the
    failing one, then the failing scan's own, and the scorer calls of
    those scans only, not of scans that ran concurrently with the
    failing one.
    """
    records = corpus.records
    if not records:
        raise ValueError("corpus is empty")
    if handle.backend != settings.scorer_backend:
        raise ConfigurationError(
            f"the settings name the {settings.scorer_backend} scorer backend, "
            f"the handle is {handle.backend}"
        )
    batch_size, epochs = settings.batch_size, settings.epochs
    steps_per_epoch = math.ceil(len(records) / batch_size)
    config = {
        "trace_schema": TRACE_SCHEMA,
        "run": settings.recorded(),
        "schedule": {
            "record_count": len(records),
            "steps_per_epoch": steps_per_epoch,
            "total_steps": epochs * steps_per_epoch,
        },
    }
    trace = ReductionTrace(config=config, seed=settings.seed)
    # One pool for the whole run, so worker sessions outlive batches.
    pool = (
        ThreadPoolExecutor(handle.in_flight, thread_name_prefix="varr-scan")
        if handle.in_flight > 1 else None
    )

    try:
        for epoch in range(1, epochs + 1):
            order = list(range(len(records)))
            child_rng(settings.seed, "batch-order", epoch).shuffle(order)
            for step in range(1, steps_per_epoch + 1):
                clock = TrainingClock(
                    epoch, step, steps_per_epoch, epochs, settings.warmup_ratio,
                )
                if clock.in_warmup:
                    continue
                lo = (step - 1) * batch_size
                batch = [records[i] for i in order[lo : lo + batch_size]]
                scan = functools.partial(
                    _reduce_record, batch=batch, handle=handle, clock=clock,
                    settings=settings,
                )
                _scan_batch(pool, scan, batch, trace, handle)
            handle.refresh(corpus_view(corpus))
            log.info(
                "epoch %d/%d done: %d removals so far",
                epoch, epochs, len(trace.removal_events()),
            )
    except ScorerError as exc:
        raise ReductionAborted(exc, trace) from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return trace


def _scan_batch(
    pool: ThreadPoolExecutor | None,
    scan: Callable[..., None],
    batch: Sequence[RationaleRecord],
    trace: ReductionTrace,
    handle: ScorerHandle,
) -> None:
    """Scan each record of the batch and merge the results in batch order.

    Without a pool each scan runs when the merge reaches it; with one,
    all are submitted first and awaited in order, and once a scan fails
    the scans of later slots stop before their next candidate: the merge
    never reaches them. Either way the first failure in batch order is
    raised, after its scan's events and its scorer calls, counted on the
    thread that ran it, are merged.
    """
    logs: list[list[TraceEvent]] = [[] for _ in batch]
    calls = [0] * len(batch)
    failed: list[int] = []  # slots whose scan raised

    def counted(slot: int) -> None:
        halted = (lambda: any(f < slot for f in failed)) if pool is not None else None
        start = handle.thread_calls()
        try:
            scan(batch[slot], events=logs[slot], halted=halted)
        except BaseException:
            failed.append(slot)
            raise
        finally:
            calls[slot] = handle.thread_calls() - start

    slots = range(len(batch))
    if pool is None:
        jobs = [functools.partial(counted, slot) for slot in slots]
    else:
        jobs = [pool.submit(counted, slot).result for slot in slots]
    for slot, job in zip(slots, jobs):
        try:
            job()
        finally:
            trace.events.extend(logs[slot])
            trace.scorer_call_count += calls[slot]


def _reduce_record(
    record: RationaleRecord,
    batch: Sequence[RationaleRecord],
    handle: ScorerHandle,
    clock: TrainingClock,
    settings: RunConfig,
    events: list[TraceEvent],
    halted: Callable[[], bool] | None = None,
) -> None:
    """Scan one record, appending its events; stop early once ``halted()``."""
    retained = record.retained_indices()
    full = assemble_prompt(record, retained, settings.template_id)
    budget = removal_budget(clock.t, clock.total_steps, len(retained))
    buffer: list[int] = []
    negatives, k = (
        negative_pool(record, batch, settings.k_negatives)
        if settings.mode == MODE_VARR_PLUS else ((), 0)
    )

    enforced_active = (
        settings.candidate_order == "enforced_front"
        and clock.epoch <= settings.enforce_epochs
    )
    order_rng = (
        child_rng(settings.seed, "candidate-order", record.id, clock.t)
        if settings.candidate_order in SHUFFLED_ORDERS else None
    )
    for candidate in candidate_sequence(record, settings, order_rng, enforced_active):
        if len(buffer) >= budget or (halted is not None and halted()):
            break
        position = bisect_left(retained, candidate.index)
        reduced = full.without(position)
        scores = {}
        if candidate.unconditional:
            removed = True
        else:
            # seeded only if the negatives are actually subsampled
            neg_rng = functools.partial(
                child_rng, settings.seed, "negatives", record.id, clock.t,
                candidate.index,
            ) if negatives else None
            report = evaluate_candidate(
                handle, record, full, reduced, negatives, k, neg_rng)
            removed = report.removal_approved(settings.mode)
            scores = vars(report)
        if removed:
            record.mark_removed(candidate.index, clock.epoch, clock.step_in_epoch)
            buffer.append(candidate.index)
            del retained[position]
            full = reduced
        events.append(TraceEvent(
            record_id=record.id,
            epoch=clock.epoch,
            step=clock.step_in_epoch,
            t=clock.t,
            candidate_index=candidate.index,
            decision=DECISION_REMOVED if removed else DECISION_KEPT,
            budget=budget,
            buffer_size=len(buffer),
            unconditional=candidate.unconditional,
            **scores,
        ))
