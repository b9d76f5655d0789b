"""Redundancy criteria for rationale units.

For a candidate unit i of a record with retained rationale R and gold
answer y_g, with R' = R minus unit i:

    verbosity_gt    = log p(y_g | R', x) - log p(y_g | R, x)
    verbosity_wrong = mean over k sampled wrong answers y_w of
                      log p(y_w | R', x) - log p(y_w | R, x)

A candidate passes the base criterion when verbosity_gt >= 0 (removal
does not hurt the gold answer) and the strict criterion additionally
when verbosity_wrong - verbosity_gt <= 0 (removal does not favor wrong
answers over the gold one). Ties at exactly zero pass both inequalities.

R is always the record's *current* retained set: earlier removals in the
same pass already changed the context each later candidate is judged in.
Both terms score against one pair of prompts for R and R': the one the
reduction driver slices from its scan's state, or else the one
``candidate_assemblies`` builds and validates from an index list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .corpus import RationaleRecord
from .errors import EmptyNegativePoolError
from .scorer import PromptAssembly, ScorerHandle, assemble_prompt

MODE_VARR = "varr"
MODE_VARR_PLUS = "varr_plus"
MODES = (MODE_VARR, MODE_VARR_PLUS)

# A generator, or a zero-argument factory called only when a draw is made.
RngSource = random.Random | Callable[[], random.Random] | None


@dataclass(frozen=True)
class VerbosityReport:
    """Outcome of evaluating one candidate unit against the criteria.

    verbosity_wrong and passes_varr_plus are present together: both are
    None in plain mode and when the first criterion already rejected the
    candidate (the wrong-answer contrast is then never computed).
    """

    record_id: str
    candidate_index: int
    verbosity_gt: float
    verbosity_wrong: float | None
    k_used: int
    passes_varr: bool
    passes_varr_plus: bool | None
    score_full: float
    score_reduced: float

    def removal_approved(self, mode: str) -> bool:
        if mode == MODE_VARR:
            return self.passes_varr
        return self.passes_varr_plus is True


def nll(
    handle: ScorerHandle,
    record: RationaleRecord,
    retained: Iterable[int],
    template_id: str = "plain-v1",
) -> float:
    """Negative log-likelihood of the gold answer given the retained units."""
    assembly = assemble_prompt(record, retained, template_id)
    return -handle.score_answer(assembly, record.answer).total


def candidate_assemblies(
    record: RationaleRecord,
    i: int,
    current_retained: Iterable[int],
    template_id: str = "plain-v1",
) -> tuple[PromptAssembly, PromptAssembly]:
    """The prompts for R and for R' = R minus candidate i."""
    retained = sorted(set(current_retained))
    if i not in retained:
        raise ValueError(f"candidate {i} not in retained set of record {record.id}")
    full = assemble_prompt(record, retained, template_id)
    return full, full.without(retained.index(i))


def sample_negatives(
    record: RationaleRecord,
    negatives: Sequence[str],
    k: int,
    rng: RngSource = None,
) -> list[str]:
    """Up to k wrong answers, the gold answer filtered out.

    Sampling is without replacement; when k covers the whole filtered
    pool no randomness is consumed (and an rng factory is not called).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pool = [n for n in negatives if n != record.answer]
    if not pool:
        raise EmptyNegativePoolError(
            f"record {record.id}: no negatives distinct from the gold answer"
        )
    if k >= len(pool):
        return pool
    if rng is None:
        raise ValueError("subsampling negatives requires an rng")
    if not isinstance(rng, random.Random):
        rng = rng()
    return rng.sample(pool, k)


def verbosity_wrong(
    handle: ScorerHandle,
    full: PromptAssembly,
    reduced: PromptAssembly,
    wrong_answers: Sequence[str],
) -> float:
    """Mean log-ratio of the reduced over the full prompt per wrong answer."""
    total = 0.0
    for wrong in wrong_answers:
        s_full = handle.score_answer(full, wrong).total
        s_reduced = handle.score_answer(reduced, wrong).total
        total += s_reduced - s_full
    return total / len(wrong_answers)


def evaluate_candidate(
    handle: ScorerHandle,
    record: RationaleRecord,
    i: int,
    current_retained: Iterable[int],
    mode: str = MODE_VARR_PLUS,
    negatives: Sequence[str] = (),
    k: int = 4,
    rng: RngSource = None,
    template_id: str = "plain-v1",
    *,
    assemblies: tuple[PromptAssembly, PromptAssembly] | None = None,
) -> VerbosityReport:
    """Run the configured criteria for one candidate and report.

    In strict mode the wrong-answer contrast is computed only when the
    gold criterion already passed; a candidate failing verbosity_gt >= 0
    is rejected without sampling negatives or spending scorer calls on
    them. ``assemblies`` is the (full, reduced) prompt pair if the caller
    has built it; otherwise ``candidate_assemblies`` builds it.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    full, reduced = assemblies or candidate_assemblies(
        record, i, current_retained, template_id
    )
    score_full = handle.score_answer(full, record.answer).total
    score_reduced = handle.score_answer(reduced, record.answer).total
    v_gt = score_reduced - score_full
    passes = v_gt >= 0.0

    v_wrong: float | None = None
    k_used = 0
    passes_plus: bool | None = None
    if mode == MODE_VARR_PLUS and passes:
        sampled = sample_negatives(record, negatives, k, rng)
        v_wrong = verbosity_wrong(handle, full, reduced, sampled)
        k_used = len(sampled)
        passes_plus = v_wrong - v_gt <= 0.0

    return VerbosityReport(
        record_id=record.id,
        candidate_index=i,
        verbosity_gt=v_gt,
        verbosity_wrong=v_wrong,
        k_used=k_used,
        passes_varr=passes,
        passes_varr_plus=passes_plus,
        score_full=score_full,
        score_reduced=score_reduced,
    )
