"""Position-weighted removal sampling and NLL-vs-removal-size curves.

For a rationale of N units at 1-based positions k = 1..N, the three
sampling strategies weight position k as:

    front:  (N - k + 1) / sum(1..N)   early units favored
    random: 1 / N
    back:   k / sum(1..N)             late units favored

Removal sets are drawn without replacement, renormalizing the remaining
weights after every draw. The curve reports, per (strategy, size), the
mean NLL of the gold answer after removing a sampled set of that size,
against the complete-rationale baseline. The sizes, strategies, draws
per record and seed are the pilot settings of a ``config.RunConfig``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .corpus import RationaleRecord
from .errors import ValidationError
from .scorer import ScorerHandle
from .seeding import child_rng
from .verbosity import nll

if TYPE_CHECKING:
    from .config import RunConfig


@dataclass
class PilotResult:
    strategy: str
    removal_sizes: list[int]
    mean_nll_per_size: list[float]
    baseline_nll: float
    sample_count_per_size: list[int]
    skipped_records: int = 0


def sampling_probabilities(n: int, strategy: str) -> list[float]:
    total = n * (n + 1) // 2
    if strategy == "front":
        return [(n - k + 1) / total for k in range(1, n + 1)]
    if strategy == "back":
        return [k / total for k in range(1, n + 1)]
    return [1.0 / n for _ in range(n)]


def sample_removal_set(
    record: RationaleRecord,
    size: int,
    strategy: str,
    rng: random.Random,
) -> set[int]:
    """Draw ``size`` distinct unit indices, position-weighted.

    Sequential draws without replacement; after each draw the weights of
    the remaining indices are renormalized (implicitly, by drawing from
    their sum). size 0 is the degenerate empty set.
    """
    n = len(record.rationale)
    weights = sampling_probabilities(n, strategy) if n else []
    available = list(range(n))
    chosen: set[int] = set()
    for _ in range(size):
        total = math.fsum(weights[i] for i in available)
        point = rng.random() * total
        acc = 0.0
        picked = available[-1]
        for i in available:
            acc += weights[i]
            if point < acc:
                picked = i
                break
        available.remove(picked)
        chosen.add(picked)
    return chosen


def pilot_nll_curve(
    corpus: list[RationaleRecord],
    handle: ScorerHandle,
    settings: RunConfig,
) -> list[PilotResult]:
    """Mean NLL per (strategy, removal size) over the eligible corpus.

    The sizes, strategies and draws per record are ``settings.pilot_sizes``,
    ``pilot_strategies`` and ``samples_per_record``; draws are seeded from
    ``settings.seed`` and prompts use ``settings.template_id``.

    Records shorter than the largest removal size are skipped from the
    whole analysis (and counted), never zero-padded; the baseline is the
    mean NLL with the complete rationale over the same eligible records.
    """
    sizes, samples_per_record = settings.pilot_sizes, settings.samples_per_record
    seed, template_id = settings.seed, settings.template_id
    max_size = max(sizes) if sizes else 0
    eligible = [r for r in corpus if len(r.rationale) >= max_size]
    skipped = len(corpus) - len(eligible)
    if not eligible:
        raise ValidationError("no record is long enough for the requested sizes")

    all_indices = {r.id: [u.index for u in r.rationale] for r in eligible}
    baseline = math.fsum(
        nll(handle, r, all_indices[r.id], template_id) for r in eligible
    ) / len(eligible)

    results = []
    for strategy in settings.pilot_strategies:
        means: list[float] = []
        counts: list[int] = []
        for size in sizes:
            total = 0.0
            count = 0
            for record in eligible:
                for draw in range(samples_per_record):
                    rng = child_rng(seed, "pilot", strategy, size, record.id, draw)
                    removed = sample_removal_set(record, size, strategy, rng)
                    retained = [i for i in all_indices[record.id] if i not in removed]
                    total += nll(handle, record, retained, template_id)
                    count += 1
            means.append(total / count)
            counts.append(count)
        results.append(PilotResult(
            strategy=strategy,
            removal_sizes=list(sizes),
            mean_nll_per_size=means,
            baseline_nll=baseline,
            sample_count_per_size=counts,
            skipped_records=skipped,
        ))
    return results


def pilot_tsv(results: list[PilotResult]) -> str:
    rows = ["strategy\tsize\tmean_nll\tbaseline_nll\tn"]
    for result in results:
        for size, mean, n in zip(
            result.removal_sizes, result.mean_nll_per_size,
            result.sample_count_per_size,
        ):
            rows.append(
                f"{result.strategy}\t{size}\t{mean!r}\t{result.baseline_nll!r}\t{n}"
            )
    return "\n".join(rows) + "\n"


def pilot_summary(results: list[PilotResult]) -> dict:
    return {
        "baseline_nll": results[0].baseline_nll,
        "skipped_records": results[0].skipped_records,
        "curves": [
            {
                "strategy": r.strategy,
                "sizes": r.removal_sizes,
                "mean_nll": r.mean_nll_per_size,
                "sample_counts": r.sample_count_per_size,
            }
            for r in results
        ],
    }


def ordering_holds(results: list[PilotResult]) -> bool:
    """back > random > front in mean NLL at every size present in all."""
    by_name = {r.strategy: r for r in results}
    front, rand, back = by_name["front"], by_name["random"], by_name["back"]
    for f, r, b in zip(
        front.mean_nll_per_size, rand.mean_nll_per_size, back.mean_nll_per_size
    ):
        if not (b > r > f):
            return False
    return True
