import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varr.config import RunConfig
from varr.errors import ValidationError
from varr.pilot import (
    ordering_holds,
    pilot_nll_curve,
    pilot_tsv,
    sample_removal_set,
    sampling_probabilities,
)
from varr.scorer import TabularScorer, build_vocabulary, fit_tabular_scorer
from varr.seeding import child_rng

from .conftest import make_record


def test_footnote_probabilities_n4():
    assert sampling_probabilities(4, "front") == pytest.approx(
        [0.4, 0.3, 0.2, 0.1], abs=1e-15
    )
    assert sampling_probabilities(4, "random") == pytest.approx([0.25] * 4, abs=1e-15)
    assert sampling_probabilities(4, "back") == pytest.approx(
        [0.1, 0.2, 0.3, 0.4], abs=1e-15
    )


@pytest.mark.parametrize("n", range(1, 51))
def test_closed_forms_exhaustive(n):
    total = n * (n + 1) / 2
    front = sampling_probabilities(n, "front")
    back = sampling_probabilities(n, "back")
    rand = sampling_probabilities(n, "random")
    for k in range(1, n + 1):
        assert front[k - 1] == pytest.approx((n - k + 1) / total, abs=1e-15)
        assert back[k - 1] == pytest.approx(k / total, abs=1e-15)
    assert abs(sum(front) - 1.0) < 1e-12
    assert abs(sum(back) - 1.0) < 1e-12
    assert abs(sum(rand) - 1.0) < 1e-12
    # mirror symmetry and monotonicity
    assert front[::-1] == back
    assert all(front[i] > front[i + 1] for i in range(n - 1))
    assert all(back[i] < back[i + 1] for i in range(n - 1))


def test_sample_full_size_is_everything():
    record = make_record(units=("a", "b", "c", "d"))
    for strategy in ("front", "random", "back"):
        got = sample_removal_set(record, 4, strategy, random.Random(1))
        assert got == {0, 1, 2, 3}


def test_sample_size_domain():
    record = make_record(units=("a", "b"))
    assert sample_removal_set(record, 0, "front", random.Random(1)) == set()


def test_sample_seeded_repeatability():
    record = make_record(units=tuple("abcdef"))
    one = sample_removal_set(record, 3, "back", child_rng(5, "s"))
    two = sample_removal_set(record, 3, "back", child_rng(5, "s"))
    assert one == two


def test_front_first_draw_marginal_monte_carlo():
    record = make_record(units=("a", "b", "c", "d"))
    rng = random.Random(12345)
    draws = 100_000
    hits = sum(
        1 for _ in range(draws)
        if 0 in sample_removal_set(record, 1, "front", rng)
    )
    assert hits / draws == pytest.approx(0.4, abs=0.01)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_sample_always_distinct_and_sized(n, seed):
    record = make_record(units=tuple(f"u{i}" for i in range(n)))
    size = seed % (n + 1)
    got = sample_removal_set(record, size, "back", random.Random(seed))
    assert len(got) == size
    assert got <= set(range(n))


def test_degenerate_size_zero_equals_baseline(pilot_corpus):
    handle = fit_tabular_scorer(pilot_corpus, smoothing_alpha=4.0)
    summary = pilot_nll_curve(
        pilot_corpus, handle, RunConfig(pilot_sizes=(0,), samples_per_record=2, seed=1)
    )
    for curve in summary["curves"]:
        assert curve["mean_nll"][0] == pytest.approx(summary["baseline_nll"], abs=1e-12)


def test_uniform_scorer_flattens_all_curves(pilot_corpus):
    handle = TabularScorer(build_vocabulary(pilot_corpus))
    summary = pilot_nll_curve(
        pilot_corpus, handle, RunConfig(pilot_sizes=(1, 2), samples_per_record=2, seed=0)
    )
    for curve in summary["curves"]:
        for mean in curve["mean_nll"]:
            assert mean == pytest.approx(summary["baseline_nll"], abs=1e-12)


def test_synthetic_corpus_ordering_and_front_closeness(pilot_corpus):
    handle = fit_tabular_scorer(pilot_corpus, smoothing_alpha=4.0)
    summary = pilot_nll_curve(pilot_corpus, handle, RunConfig(samples_per_record=8, seed=0))
    assert ordering_holds(summary)
    by = {c["strategy"]: c for c in summary["curves"]}
    assert list(by) == ["front", "random", "back"]
    baseline = summary["baseline_nll"]
    for mean in by["front"]["mean_nll"]:
        assert abs(mean - baseline) / baseline < 0.05
    # short calibration records are skipped, not padded
    assert summary["skipped_records"] == 60
    for curve in summary["curves"]:
        assert curve["sizes"] == [1, 2, 3, 4]
        assert curve["sample_counts"] == [40 * 8] * 4


def test_back_curve_monotone_on_synthetic(pilot_corpus):
    handle = fit_tabular_scorer(pilot_corpus, smoothing_alpha=4.0)
    summary = pilot_nll_curve(pilot_corpus, handle, RunConfig(samples_per_record=8, seed=0))
    means = next(c["mean_nll"] for c in summary["curves"] if c["strategy"] == "back")
    assert all(means[i] <= means[i + 1] for i in range(len(means) - 1))


def test_curve_determinism(pilot_corpus):
    handle = fit_tabular_scorer(pilot_corpus, smoothing_alpha=4.0)
    cfg = RunConfig(pilot_sizes=(1, 2), samples_per_record=3, seed=9)
    a = pilot_nll_curve(pilot_corpus, handle, cfg)
    b = pilot_nll_curve(pilot_corpus, handle, cfg)
    assert a == b
    assert pilot_tsv(a) == pilot_tsv(b)


def test_tsv_shape(pilot_corpus):
    handle = fit_tabular_scorer(pilot_corpus, smoothing_alpha=4.0)
    summary = pilot_nll_curve(
        pilot_corpus, handle, RunConfig(pilot_sizes=(1, 2), samples_per_record=2, seed=0))
    lines = pilot_tsv(summary).strip().split("\n")
    assert lines[0] == "strategy\tsize\tmean_nll\tbaseline_nll\tn"
    assert len(lines) == 1 + 3 * 2  # header + strategies x sizes
    baseline = summary["baseline_nll"]
    assert lines[1:] == [
        f"{c['strategy']}\t{size}\t{mean!r}\t{baseline!r}\t{n}"
        for c in summary["curves"]
        for size, mean, n in zip(c["sizes"], c["mean_nll"], c["sample_counts"])]


def test_ordering_holds_needs_strict_order_at_every_size():
    def summary(front, rand, back):
        return {"baseline_nll": 1.0, "skipped_records": 0, "curves": [
            {"strategy": s, "sizes": [1, 2], "mean_nll": m, "sample_counts": [1, 1]}
            for s, m in (("front", front), ("random", rand), ("back", back))]}

    assert ordering_holds(summary([1.0, 1.0], [2.0, 2.0], [3.0, 3.0]))
    assert not ordering_holds(summary([1.0, 1.0], [2.0, 2.0], [3.0, 2.0]))
    assert not ordering_holds(summary([1.0, 2.0], [2.0, 2.0], [3.0, 3.0]))


def test_all_records_too_short_raises():

    corpus = [make_record(units=("a", "b"))]
    handle = TabularScorer(["a", "b", "what", "is", "it", "fine"])
    with pytest.raises(ValidationError):
        pilot_nll_curve(corpus, handle, RunConfig(pilot_sizes=(4,)))


def test_record_as_long_as_the_largest_size_is_eligible():
    # one record per unit count from 1 to 5; with the largest size 3 the
    # records of 3, 4 and 5 units are eligible and the others are skipped
    corpus = [make_record(record_id=f"n{n}", units=tuple(f"u{i}" for i in range(n)))
              for n in range(1, 6)]
    handle = TabularScorer(build_vocabulary(corpus))
    summary = pilot_nll_curve(corpus, handle, RunConfig(pilot_sizes=(1, 3), samples_per_record=2))
    assert summary["skipped_records"] == 2
    for curve in summary["curves"]:
        assert curve["sample_counts"] == [3 * 2, 3 * 2]
    only = [make_record(units=("a", "b", "c"))]
    handle = TabularScorer(build_vocabulary(only))
    summary = pilot_nll_curve(only, handle, RunConfig(pilot_sizes=(3,), samples_per_record=1))
    assert summary["skipped_records"] == 0
    assert [c["sample_counts"] for c in summary["curves"]] == [[1], [1], [1]]
