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

``pilot_nll_curve`` builds the result once, as the plain dict that
``pilot.json`` holds (less its ``config``); ``pilot_tsv`` and
``ordering_holds`` read that dict.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

from .corpus import RationaleRecord
from .errors import ValidationError
from .scorer import ScorerHandle
from .seeding import child_rng
from .verbosity import nll

if TYPE_CHECKING:
    from .config import RunConfig


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
) -> dict:
    """Mean NLL per (strategy, removal size) over the eligible corpus, as
    the pilot summary ``{"baseline_nll", "skipped_records", "curves"}``.
    Each curve is ``{"strategy", "sizes", "mean_nll", "sample_counts"}``,
    one per strategy in order, with one entry per size.

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
    if not eligible:
        raise ValidationError("no record is long enough for the requested sizes")

    baseline = math.fsum(
        nll(handle, r, range(len(r.rationale)), template_id) for r in eligible
    ) / len(eligible)

    curves = []
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
                    retained = [i for i in range(len(record.rationale)) if i not in removed]
                    total += nll(handle, record, retained, template_id)
                    count += 1
            means.append(total / count)
            counts.append(count)
        curves.append({"strategy": strategy, "sizes": list(sizes),
                       "mean_nll": means, "sample_counts": counts})
    return {"baseline_nll": baseline, "skipped_records": len(corpus) - len(eligible),
            "curves": curves}


def pilot_tsv(summary: dict) -> str:
    """One row per (strategy, size) of the summary, baseline on each row."""
    rows = ["strategy\tsize\tmean_nll\tbaseline_nll\tn"]
    baseline = summary["baseline_nll"]
    for curve in summary["curves"]:
        for size, mean, n in zip(curve["sizes"], curve["mean_nll"], curve["sample_counts"]):
            rows.append(f"{curve['strategy']}\t{size}\t{mean!r}\t{baseline!r}\t{n}")
    return "\n".join(rows) + "\n"


def ordering_holds(summary: dict) -> bool:
    """back > random > front in mean NLL at every size present in all."""
    by_name = {c["strategy"]: c["mean_nll"] for c in summary["curves"]}
    for f, r, b in zip(by_name["front"], by_name["random"], by_name["back"]):
        if not (b > r > f):
            return False
    return True
