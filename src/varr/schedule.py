"""The reduction driver: budgets, warm-up gating, and the removal loop.

One run walks E epochs of S steps (S batches per epoch, seeded shuffle
per epoch). During warm-up (t <= warmup_ratio * T, boundary inclusive)
no removal evaluation happens. Afterwards, each record of the current
batch gets a fresh removal buffer and its candidates are visited in the
configured order; every approved candidate is removed permanently, and
the scan stops once the buffer reaches the per-record linear budget

    r(t) = floor(n_t * t / T)

where n_t is the record's retained unit count at the start of the scan.
Between epochs the scorer's refresh hook runs (the tabular backend
refits from scratch on the current reduced corpus), so earlier removals
change the model that judges later ones. None runs after the last
epoch, as no scan would read the refreshed model.

Candidate orders: front (ascending), back (descending), random (seeded
permutation), enforced_front(n) (front order, first n unconditional
during the first enforce_epochs epochs), no_rule (seeded permutation,
all unconditional; criteria bypassed entirely).

Within an epoch the scorer does not change and each record is scanned
once, reading only its own units and the answers of its batch, so all
scans of an epoch are independent, and so is each scan's budget, fixed
by the record's units before the scan. The driver plans an epoch's
scans in serial order (step, then batch slot), each a plain tuple
(budget, record, retained, batch, epoch, step, t), and hands them to one
helper. A handle with ``in_flight > 1`` (the remote backend, default 16)
has them run on that many worker threads, largest budget first, each
scan sending one request at a time, so no batch waits for the slowest
scan of the one before it and the longest scans start first; their
events are merged in serial order, so the trace is the serial one, and
its scorer call count is that of the merged events. Once a scan fails,
the scans of later slots stop before their next candidate, since a
serial run would never have reached them. Every scan, pooled or not, is
handed the same halt check, run before each candidate: it compares the
scan's slot with the earliest failed slot, which is kept in a
one-element list, so each call is one item read and one comparison, and
an inline run, which visits thousands of candidates, pays next to
nothing for the pool's early stop. The pool's module is imported only
when ``in_flight > 1``, so a tabular run never loads it.

The driver reads its settings off a ``config.RunConfig``, which checked
their ranges when it was built. It records the seed, each setting its
backend reads (``run``, ``execution``) and every event in the trace that
its caller owns and hands in; a scorer failure leaves the driver as the
scorer raised it, and that trace holds the serial prefix of the run.

A scan holds its own state: the record's retained indices, read once
by the plan, and its full prompt, built once from them. One call gives
its visit order, a copy of that list (shuffled or reversed as the order
asks), and the length of its unconditional prefix, so no object is built
for a unit the scan never reaches. Each candidate's reduced prompt is the
full one with that unit sliced out, and a removal drops the unit from
both. Only varr_plus builds a negative pool, once per scan; a record
whose pool is empty (say, one alone in its batch) cannot confirm the
wrong-answer contrast, so each of its candidates is kept.
"""

from __future__ import annotations

import math
import sys
import threading
from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Sequence

from .corpus import CHOICE_TASKS, RationaleRecord
from .metrics import DECISION_KEPT, DECISION_REMOVED, TRACE_SCHEMA, TraceEvent
from .scorer import ScorerHandle, assemble_prompt, corpus_view
from .seeding import child_rng
from .verbosity import MODE_VARR_PLUS, VerbosityReport, evaluate_candidate

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    from .config import RunConfig  # config imports this module
    from .metrics import ReductionTrace

CANDIDATE_ORDERS = ("front", "random", "back", "enforced_front", "no_rule")
SHUFFLED_ORDERS = ("random", "no_rule")


def removal_budget(t: int, total_steps: int, n_t: int) -> int:
    """floor(n_t * t / T) in exact integer arithmetic, for 1 <= t <= T."""
    return (n_t * t) // total_steps


def in_warmup(t: int, total_steps: int, warmup_ratio: float) -> bool:
    """True while t <= warmup_ratio * T (boundary step still warms up)."""
    return t <= warmup_ratio * total_steps


# The score fields of an unconditional removal, which scores nothing.
_UNSCORED = VerbosityReport(None, None, 0, None, None)


def candidate_sequence(
    retained: list[int],
    settings: RunConfig,
    record_id: str,
    epoch: int,
    t: int,
) -> tuple[list[int], int]:
    """Visit order of a record's scan at step ``t`` of ``epoch`` over its
    retained unit indices, and how many of its first candidates are
    removed unconditionally.

    The order is a new list, so the scan may delete from ``retained``
    while it visits: the shuffled orders permute a copy with the scan's
    own ``("candidate-order", record_id, t)`` child rng, back reverses it.
    The unconditional prefix covers all of no_rule's candidates, and the
    first enforced_n of enforced_front's in epochs up to enforce_epochs.
    """
    order = settings.candidate_order
    visits = retained[::-1] if order == "back" else retained[:]
    if order in SHUFFLED_ORDERS:
        child_rng(settings.seed, "candidate-order", record_id, t).shuffle(visits)
    n = (len(visits) if order == "no_rule"
         else settings.enforced_n
         if order == "enforced_front" and epoch <= settings.enforce_epochs
         else 0)
    return visits, n


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


def run_reduction(
    corpus: list[RationaleRecord],
    handle: ScorerHandle,
    settings: RunConfig,
    trace: ReductionTrace,
) -> None:
    """Execute the full removal schedule over the corpus, mutating it, and
    record it in ``trace``, which the caller owns and hands in holding only
    its own config entries (``varr reduce``'s paths).

    The driver records the seed, the trace schema, the decision settings
    (``run``), the derived step counts (``schedule``) and the execution
    settings (``execution``), then appends every evaluation and removal.
    The corpus records' units carry removed_at marks afterwards;
    ``corpus.write_reduced`` writes the reduced artifact with provenance.

    Its one caller, ``varr reduce`` (``cli.cmd_reduce``), hands it a
    validated, non-empty corpus and a handle that ``settings`` built; the
    driver checks neither again.

    A scorer failure propagates as the scorer raised it. ``trace`` then
    holds what the serial driver would have recorded: the events of the
    epoch's scans before the failing one in serial order, then the failing
    scan's own, and only the scorer calls behind those events: not those
    of the failing candidate, nor of later scans that ran before or beside
    it.
    """
    batch_size, epochs = settings.batch_size, settings.epochs
    steps_per_epoch = math.ceil(len(corpus) / batch_size)
    total_steps = epochs * steps_per_epoch
    trace.seed = settings.seed
    trace.config.update(
        trace_schema=TRACE_SCHEMA,
        run=settings.recorded(),
        schedule={
            "record_count": len(corpus),
            "steps_per_epoch": steps_per_epoch,
            "total_steps": total_steps,
        },
        execution=settings.recorded("execution"),
    )
    pool = None
    if handle.in_flight > 1:
        # imported here, so that a run without concurrent scans never loads it
        from concurrent.futures import ThreadPoolExecutor

        # One pool for the whole run, so worker sessions outlive batches.
        pool = ThreadPoolExecutor(handle.in_flight, thread_name_prefix="varr-scan")

    try:
        for epoch in range(1, epochs + 1):
            order = list(range(len(corpus)))
            child_rng(settings.seed, "batch-order", epoch).shuffle(order)
            scans = []
            for step in range(1, steps_per_epoch + 1):
                t = (epoch - 1) * steps_per_epoch + step
                if in_warmup(t, total_steps, settings.warmup_ratio):
                    continue
                lo = (step - 1) * batch_size
                batch = [corpus[i] for i in order[lo : lo + batch_size]]
                for record in batch:
                    retained = record.retained_indices()
                    budget = removal_budget(t, total_steps, len(retained))
                    scans.append((budget, record, retained, batch, epoch, step, t))
            _scan_epoch(pool, scans, trace, handle, settings)
            if epoch < epochs:
                handle.refresh(corpus_view(corpus))
            # nothing can switch INFO on without importing logging
            if (logging := sys.modules.get("logging")) is not None:
                log = logging.getLogger(__name__)
                if log.isEnabledFor(logging.INFO):
                    removals = sum(e.decision == DECISION_REMOVED for e in trace.events)
                    log.info("epoch %d/%d done: %d removals so far", epoch, epochs, removals)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _scan_epoch(
    pool: ThreadPoolExecutor | None,
    scans: Sequence[tuple],
    trace: ReductionTrace,
    handle: ScorerHandle,
    settings: RunConfig,
) -> None:
    """Run an epoch's scans, each the leading arguments of ``_reduce_record``
    with its budget first, and merge their events in serial order.

    Without a pool each scan runs when the merge reaches it; with one,
    all are submitted first, largest budget first (a stable sort, so
    equal budgets keep serial order), and awaited in serial order. Once
    a scan fails the scans of later slots stop before their next
    candidate: the merge never reaches them. Either way the first failure
    in serial order is raised, after its scan's events are merged. Each
    merged event adds its scorer calls to the trace's count: 2 + 2 *
    k_used if scored, none if unconditional.
    """
    logs: list[list[TraceEvent]] = [[] for _ in scans]
    first_failed = [len(scans)]  # the earliest slot whose scan raised
    lock = threading.Lock()

    def run(slot: int) -> None:
        try:
            _reduce_record(*scans[slot], handle, settings, logs[slot],
                           lambda: first_failed[0] < slot)
        except BaseException:
            with lock:
                first_failed[0] = min(first_failed[0], slot)
            raise

    slots = range(len(scans))
    futures = {} if pool is None else {
        slot: pool.submit(run, slot) for slot in
        sorted(slots, key=lambda slot: scans[slot][0], reverse=True)}
    for slot in slots:
        try:
            run(slot) if pool is None else futures[slot].result()
        finally:
            trace.events.extend(logs[slot])
            trace.scorer_call_count += sum(
                2 + 2 * e.k_used for e in logs[slot] if not e.unconditional)


def _reduce_record(
    budget: int,
    record: RationaleRecord,
    retained: list[int],
    batch: Sequence[RationaleRecord],
    epoch: int,
    step: int,
    t: int,
    handle: ScorerHandle,
    settings: RunConfig,
    events: list[TraceEvent],
    halted: Callable[[], bool],
) -> None:
    """Scan one record, whose retained indices and budget the plan read,
    appending its events; stop early once ``halted()``."""
    full = assemble_prompt(record, retained, settings.template_id)
    buffer_size = 0  # removals so far
    negatives, k = (
        negative_pool(record, batch, settings.k_negatives)
        if settings.mode == MODE_VARR_PLUS else ((), 0)
    )
    mode = settings.mode
    visits, unconditional_n = candidate_sequence(retained, settings, record.id, epoch, t)
    for visited, index in enumerate(visits):
        if buffer_size >= budget or halted():
            break
        unconditional = visited < unconditional_n
        position = bisect_left(retained, index)
        reduced = full.without(position)
        if unconditional:
            removed, report = True, _UNSCORED
        else:
            # seeded only if the negatives are actually subsampled
            neg_rng = ((lambda: child_rng(settings.seed, "negatives", record.id, t, index))
                       if negatives else None)
            report = evaluate_candidate(
                handle, record, full, reduced, negatives, k, neg_rng)
            removed = report.removal_approved(mode)
        if removed:
            record.mark_removed(index, epoch, step)
            buffer_size += 1
            del retained[position]
            full = reduced
        # positionally, in TraceEvent's field order: one is built per decision
        events.append(TraceEvent(
            budget, buffer_size, index, DECISION_REMOVED if removed else DECISION_KEPT,
            epoch, report.k_used, record.id, report.score_full, report.score_reduced,
            step, t, unconditional, report.verbosity_gt, report.verbosity_wrong,
        ))
