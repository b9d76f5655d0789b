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
Both terms score against the one pair of prompts for R and R' that the
caller passes in.
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
    """Outcome of evaluating one candidate unit: the trace's score fields.

    verbosity_wrong is None when no wrong answers were scored: without
    negatives (as in plain mode), or when the first criterion already
    rejected the candidate.
    """

    verbosity_gt: float
    verbosity_wrong: float | None
    k_used: int
    score_full: float
    score_reduced: float

    @property
    def passes_varr(self) -> bool:
        return self.verbosity_gt >= 0.0

    @property
    def passes_varr_plus(self) -> bool | None:
        if self.verbosity_wrong is None:
            return None
        return self.verbosity_wrong - self.verbosity_gt <= 0.0

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
    full: PromptAssembly,
    reduced: PromptAssembly,
    negatives: Sequence[str] = (),
    k: int = 4,
    rng: RngSource = None,
) -> VerbosityReport:
    """Judge the candidate whose removal turns prompt ``full`` into ``reduced``.

    The gold answer is scored on both prompts. The wrong-answer contrast
    is computed only when there are negatives and the gold criterion
    passed; a candidate failing verbosity_gt >= 0 is rejected without
    sampling negatives or spending scorer calls on them.
    """
    score_full = handle.score_answer(full, record.answer).total
    score_reduced = handle.score_answer(reduced, record.answer).total
    v_gt = score_reduced - score_full

    v_wrong: float | None = None
    k_used = 0
    if negatives and v_gt >= 0.0:
        sampled = sample_negatives(record, negatives, k, rng)
        v_wrong = verbosity_wrong(handle, full, reduced, sampled)
        k_used = len(sampled)
    return VerbosityReport(v_gt, v_wrong, k_used, score_full, score_reduced)
