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
from typing import Callable, Iterable, NamedTuple, Sequence

from .corpus import RationaleRecord
from .scorer import PromptAssembly, ScorerHandle, assemble_prompt

MODE_VARR = "varr"
MODE_VARR_PLUS = "varr_plus"
MODES = (MODE_VARR, MODE_VARR_PLUS)


class VerbosityReport(NamedTuple):
    """Outcome of evaluating one candidate unit: the trace's score fields.

    verbosity_wrong is None when no wrong answers were scored: without
    negatives (as in plain mode), or when the first criterion already
    rejected the candidate. A named tuple, as one is built per decision.
    """

    verbosity_gt: float
    verbosity_wrong: float | None
    k_used: int
    score_full: float
    score_reduced: float

    def removal_approved(self, mode: str) -> bool:
        """The criterion of ``mode``: verbosity_gt >= 0 in varr mode;
        verbosity_wrong - verbosity_gt <= 0 in varr_plus mode, which fails
        when no wrong answers were scored."""
        if mode == MODE_VARR:
            return self.verbosity_gt >= 0.0
        return (self.verbosity_wrong is not None
                and self.verbosity_wrong - self.verbosity_gt <= 0.0)


def nll(
    handle: ScorerHandle,
    record: RationaleRecord,
    retained: Iterable[int],
    template_id: str = "plain-v1",
) -> float:
    """Negative log-likelihood of the gold answer given the retained units."""
    assembly = assemble_prompt(record, retained, template_id)
    return -handle.score_answer(assembly, record.answer).total


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
    rng: Callable[[], random.Random] | None = None,
) -> VerbosityReport:
    """Judge the candidate whose removal turns prompt ``full`` into ``reduced``.

    The gold answer is scored on both prompts. The wrong-answer contrast
    is computed only when there are negatives and the gold criterion
    passed; a candidate failing verbosity_gt >= 0 is rejected without
    sampling negatives or spending scorer calls on them.

    ``negatives`` never holds the gold answer: the driver passes the pool
    that ``schedule.negative_pool`` built, which guarantees it. When k
    covers the pool, all of it is scored and no randomness is consumed
    (``rng``, a zero-argument generator factory, is not called); otherwise
    k wrong answers are drawn without replacement by ``rng().sample``.
    """
    score_full = handle.score_answer(full, record.answer).total
    score_reduced = handle.score_answer(reduced, record.answer).total
    v_gt = score_reduced - score_full

    v_wrong: float | None = None
    k_used = 0
    if negatives and v_gt >= 0.0:
        if k < len(negatives):
            negatives = rng().sample(negatives, k)
        v_wrong = verbosity_wrong(handle, full, reduced, negatives)
        k_used = len(negatives)
    return VerbosityReport(v_gt, v_wrong, k_used, score_full, score_reduced)
