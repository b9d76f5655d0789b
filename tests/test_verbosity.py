import functools
import math
import random

import pytest

from varr.scorer import TabularScorer
from varr.seeding import child_rng
from varr.verbosity import (
    MODE_VARR,
    MODE_VARR_PLUS,
    evaluate_candidate,
    nll,
    verbosity_wrong,
)

from .conftest import (
    dense_counts,
    make_record,
    random_record,
    random_scorer,
    scorer_from_counts,
)
from .oracles import (
    candidate_assemblies,
    oracle_nll,
    oracle_verbosity_gt,
    oracle_verbosity_wrong,
)

VOCAB4 = ["a", "b", "c", "d"]


def evaluate(scorer, record, i, retained, **kwargs):
    """evaluate_candidate on the prompts for removing unit i from retained."""
    return evaluate_candidate(
        scorer, record, *candidate_assemblies(record, i, retained), **kwargs)


def verbosity_gt(scorer, record, i, retained):
    return evaluate(scorer, record, i, retained).verbosity_gt


def scored_answers(scorer):
    """The answers the scorer is asked for, in order, as they are scored."""
    seen = []
    score = scorer.score_answer

    def recording(assembly, answer):
        seen.append(answer)
        return score(assembly, answer)

    scorer.score_answer = recording
    return seen


def contrast_model():
    """count(v,a)=3 of row 4; count(u,a)=1 of row 2; alpha=1, V=5."""
    vocab = ["q", "u", "v", "a", "b"]
    counts = [[0] * 5 for _ in range(5)]
    counts[1][3] = 1  # u -> a
    counts[1][4] = 1  # u -> b
    counts[2][3] = 3  # v -> a
    counts[2][4] = 1  # v -> b
    return scorer_from_counts(vocab, counts, 1.0), vocab


def test_nll_uniform_any_retained_set():
    scorer = TabularScorer(VOCAB4)
    record = make_record(units=("a b", "c"), question="d", answer="a")
    for retained in ([], [0], [0, 1], [1]):
        assert nll(scorer, record, retained) == pytest.approx(math.log(4), abs=1e-12)


def test_nll_repeat_call_identical(fixture_corpus):
    from varr.scorer import fit_tabular_scorer

    scorer = fit_tabular_scorer(fixture_corpus)
    record = fixture_corpus[0]
    retained = record.retained_indices()
    assert nll(scorer, record, retained) == nll(scorer, record, retained)


def test_verbosity_gt_zero_for_uniform_model():
    scorer = TabularScorer(VOCAB4)
    record = make_record(units=("a", "b", "c"), question="d", answer="a")
    for i in range(3):
        assert verbosity_gt(scorer, record, i, [0, 1, 2]) == 0.0


def test_verbosity_gt_middle_removal_is_zero_under_order_one():
    scorer, _ = contrast_model()
    record = make_record(units=("v", "u"), question="q", answer="a")
    # removing unit 0 leaves the answer's predecessor (u) unchanged
    assert verbosity_gt(scorer, record, 0, [0, 1]) == 0.0


def test_verbosity_gt_final_removal_hand_computed():
    scorer, _ = contrast_model()
    record = make_record(units=("v", "u"), question="q", answer="a")
    # removing unit 1 swaps the predecessor from u to v:
    #   log p(a|v) - log p(a|u) = log(4/9) - log(2/7)
    got = verbosity_gt(scorer, record, 1, [0, 1])
    assert got == pytest.approx(math.log(4 / 9) - math.log(2 / 7), abs=1e-12)


def test_verbosity_gt_equals_nll_difference():
    rng = random.Random(31)
    for _ in range(30):
        scorer, _, vocab, _ = random_scorer(rng)
        record = random_record(rng, vocab, max_units=4)
        retained = [u.index for u in record.rationale]
        i = rng.choice(retained)
        reduced = [j for j in retained if j != i]
        via_scores = verbosity_gt(scorer, record, i, retained)
        via_nll = nll(scorer, record, retained) - nll(scorer, record, reduced)
        assert via_scores == pytest.approx(via_nll, abs=1e-12)


def test_verbosity_gt_candidate_must_be_retained():
    scorer = TabularScorer(VOCAB4)
    record = make_record(units=("a", "b"), question="c", answer="d")
    with pytest.raises(ValueError):
        verbosity_gt(scorer, record, 1, [0])


def test_verbosity_wrong_uniform_is_zero():
    scorer = TabularScorer(VOCAB4)
    record = make_record(units=("a", "b"), question="c", answer="d")
    report = evaluate(scorer, record, 0, [0, 1], negatives=["a", "b"], k=2)
    assert report.verbosity_wrong == 0.0
    assert report.k_used == 2


def test_verbosity_wrong_per_term_cancellation():
    scorer, _ = contrast_model()
    record = make_record(units=("v", "u"), question="q", answer="a")
    # middle removal: predecessor unchanged, every negative's ratio is 1
    full, reduced = candidate_assemblies(record, 0, [0, 1])
    mean = verbosity_wrong(scorer, full, reduced, ["b"])
    assert mean == 0.0


def test_verbosity_wrong_fixed_negatives_match_oracle():
    scorer, vocab = contrast_model()
    counts = dense_counts(scorer, vocab)
    record = make_record(units=("v", "u"), question="q", answer="a")
    report = evaluate(scorer, record, 1, [0, 1], negatives=["b", "q"], k=2)
    want = oracle_verbosity_wrong(counts, vocab, record, 1, [0, 1], ["b", "q"], 1.0)
    assert report.k_used == 2
    assert report.verbosity_wrong == pytest.approx(want, abs=1e-12)


def test_verbosity_wrong_seeded_sampling_is_reproducible():
    # the uniform model passes every gold check, so the wrong answers are scored
    scorer = TabularScorer(VOCAB4)
    seen = scored_answers(scorer)
    record = make_record(units=("a", "b"), question="c", answer="d")
    pool = ["a", "b", "c", "a b"]
    samples = []
    for rng in (
        functools.partial(child_rng, 42, "negatives", record.id, 1, 0),
        functools.partial(child_rng, 42, "negatives", record.id, 1, 0),
    ):
        seen.clear()
        report = evaluate(scorer, record, 0, [0, 1], negatives=pool, k=2, rng=rng)
        assert report.k_used == 2
        samples.append(seen[2::2])  # each wrong answer's score on the full prompt
    assert samples[0] == samples[1]
    assert samples[0] == child_rng(42, "negatives", record.id, 1, 0).sample(pool, 2)


def test_verbosity_wrong_rng_factory_called_only_to_subsample():
    scorer = TabularScorer(VOCAB4)
    record = make_record(units=("a", "b"), question="c", answer="d")
    made = []

    def factory():
        made.append(1)
        return random.Random(3)

    for k in (2, 5):  # k covers the pool: all of it is scored
        report = evaluate(scorer, record, 0, [0, 1], negatives=["a", "b"], k=k, rng=factory)
        assert (made, report.k_used) == ([], 2)
    report = evaluate(scorer, record, 0, [0, 1], negatives=["a", "b", "c"], k=2, rng=factory)
    assert (made, report.k_used) == ([1], 2)


def test_randomized_oracle_equivalence_nll_and_verbosities():
    rng = random.Random(515)
    for _ in range(120):
        scorer, counts, vocab, alpha = random_scorer(rng)
        record = random_record(rng, vocab, max_units=4)
        retained = [u.index for u in record.rationale]
        i = rng.choice(retained)
        got_nll = nll(scorer, record, retained)
        assert got_nll == pytest.approx(
            oracle_nll(counts, vocab, record, retained, alpha), abs=1e-9
        )
        got_gt = verbosity_gt(scorer, record, i, retained)
        assert got_gt == pytest.approx(
            oracle_verbosity_gt(counts, vocab, record, i, retained, alpha), abs=1e-9
        )
        negatives = list({f"{vocab[0]} {vocab[1]}", vocab[-1], vocab[0]} - {record.answer})
        got_w = verbosity_wrong(
            scorer, *candidate_assemblies(record, i, retained), negatives)
        assert got_w == pytest.approx(
            oracle_verbosity_wrong(counts, vocab, record, i, retained, negatives, alpha),
            abs=1e-9,
        )


def test_evaluate_zero_boundary_passes():
    scorer = TabularScorer(VOCAB4)
    record = make_record(units=("a", "b"), question="c", answer="d")
    report = evaluate(scorer, record, 0, [0, 1])
    assert report.verbosity_gt == 0.0
    assert report.verbosity_wrong is None
    assert report.k_used == 0
    assert report.removal_approved(MODE_VARR)
    # without negatives the contrast is never confirmed: varr_plus keeps it
    assert not report.removal_approved(MODE_VARR_PLUS)


def test_evaluate_plus_rejects_when_wrong_exceeds_gt():
    # uniform model gives gt = wrong = 0; fabricate the 0.5 / 0.6 case by
    # checking the inequality logic directly on the contrast model
    scorer, _ = contrast_model()
    record = make_record(
        units=("v", "u"), question="q", answer="b", wrong_answers=["a"],
    )
    # removing unit 1: gt = log p(b|v) - log p(b|u) = log(2/9) - log(2/7) < 0
    # so use answer "a" instead where gt > 0 and wrong ("b") rises less
    record_good = make_record(
        units=("v", "u"), question="q", answer="a", wrong_answers=["b"],
    )
    report = evaluate(scorer, record_good, 1, [0, 1], negatives=["b"], k=1)
    v_gt = math.log(4 / 9) - math.log(2 / 7)
    v_w = math.log(2 / 9) - math.log(2 / 7)
    assert report.verbosity_gt == pytest.approx(v_gt, abs=1e-12)
    assert report.verbosity_wrong == pytest.approx(v_w, abs=1e-12)
    assert report.removal_approved(MODE_VARR)
    assert report.removal_approved(MODE_VARR_PLUS) is (v_w - v_gt <= 0.0)


def test_evaluate_plus_difference_sign_decides():
    scorer, _ = contrast_model()
    # answer b, negative a: removing unit 1 lifts a (x7/2... see counts)
    # gt(b) = log(2/9)-log(2/7) < 0 -> short-circuit
    record = make_record(units=("v", "u"), question="q", answer="b")
    lookups_before = scorer.cache.hits + scorer.cache.misses
    report = evaluate(scorer, record, 1, [0, 1], negatives=["a"], k=1)
    assert not report.removal_approved(MODE_VARR)
    assert report.verbosity_wrong is None
    assert not report.removal_approved(MODE_VARR_PLUS)
    # one lookup per logical call: no negative was ever scored
    assert scorer.cache.hits + scorer.cache.misses - lookups_before == 2


def test_subset_law_random_models():
    rng = random.Random(99)
    for _ in range(60):
        scorer, _, vocab, _ = random_scorer(rng)
        record = random_record(rng, vocab, max_units=4)
        retained = [u.index for u in record.rationale]
        i = rng.choice(retained)
        negatives = [v for v in vocab if v != record.answer][:3]
        if not negatives:
            continue
        plus = evaluate(scorer, record, i, retained,
                        negatives=negatives, k=len(negatives))
        base = evaluate(scorer, record, i, retained)
        if plus.removal_approved(MODE_VARR_PLUS):
            assert base.removal_approved(MODE_VARR)


class StubScorer:
    """Fixed totals per (rationale length, answer), for criterion algebra."""

    def __init__(self, table):
        self.table = table  # (n_units, answer) -> total

    def score_answer(self, assembly, answer):
        from varr.scorer import LogLikelihood

        total = self.table[(len(assembly.retained_rationale), answer)]
        return LogLikelihood(total, (total,))


def test_evaluate_literal_half_versus_point_six():
    # verbosity_gt = 0.5 and verbosity_wrong = 0.6: 0.6 - 0.5 > 0 rejects
    record = make_record(units=("u0", "u1"), answer="gold")
    scorer = StubScorer({
        (2, "gold"): -2.0, (1, "gold"): -1.5,   # gt = 0.5
        (2, "bad"): -2.0, (1, "bad"): -1.4,     # wrong = 0.6
    })
    report = evaluate(scorer, record, 0, [0, 1], negatives=["bad"], k=1)
    assert report.verbosity_gt == pytest.approx(0.5, abs=1e-12)
    assert report.verbosity_wrong == pytest.approx(0.6, abs=1e-12)
    assert report.removal_approved(MODE_VARR)
    assert not report.removal_approved(MODE_VARR_PLUS)


def test_evaluate_scores_gold_then_each_wrong_full_before_reduced():
    scorer = TabularScorer(VOCAB4)
    seen = []
    score = scorer.score_answer

    def recording(assembly, answer):
        seen.append((len(assembly.retained_rationale), answer))
        return score(assembly, answer)

    scorer.score_answer = recording
    record = make_record(units=("a", "b"), question="c", answer="d")
    evaluate(scorer, record, 0, [0, 1], negatives=["a", "b"], k=2)
    assert seen == [(2, "d"), (1, "d"), (2, "a"), (1, "a"), (2, "b"), (1, "b")]
