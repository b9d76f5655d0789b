import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varr.corpus import load_corpus
from varr.errors import OutOfVocabularyError
from varr.scorer import (
    TEMPLATES,
    PromptAssembly,
    TabularScorer,
    assemble_prompt,
    build_vocabulary,
    corpus_view,
    fit_tabular_scorer,
)

from .conftest import (
    bigram_count,
    bigram_total,
    dense_counts,
    make_record,
    random_record,
    random_scorer,
    scorer_from_counts,
)
from .oracles import oracle_score


def test_uniform_single_token():
    scorer = TabularScorer(["a", "b", "c", "d"])
    assembly = PromptAssembly("a", ("b",))
    got = scorer.score_answer(assembly, "a")
    assert got.total == pytest.approx(-math.log(4), abs=1e-12)
    assert len(got.per_token) == 1


def test_uniform_two_tokens_chain_rule():
    scorer = TabularScorer(["a", "b", "c", "d"])
    got = scorer.score_answer(PromptAssembly("a", ()), "a b")
    assert got.total == pytest.approx(-2 * math.log(4), abs=1e-12)


def test_uniform_law_context_independent():
    scorer = TabularScorer(["a", "b", "c", "d", "e"])
    v1 = scorer.score_answer(PromptAssembly("a b", ("c",)), "d").total
    v2 = scorer.score_answer(PromptAssembly("e", ()), "d").total
    assert v1 == v2 == -math.log(5)


def test_oracle_equivalence_randomized():
    rng = random.Random(2024)
    for _ in range(150):
        scorer, counts, vocab, alpha = random_scorer(rng)
        record = random_record(rng, vocab)
        retained = [u.index for u in record.rationale]
        assembly = assemble_prompt(record, retained)
        got = scorer.score_answer(assembly, record.answer).total
        want = oracle_score(
            counts, vocab, record.question,
            [u.text for u in record.rationale], record.answer, alpha,
        )
        assert got == pytest.approx(want, abs=1e-9)


def test_version_purity_bit_identical():
    rng = random.Random(5)
    scorer, _, vocab, _ = random_scorer(rng)
    record = random_record(rng, vocab)
    assembly = assemble_prompt(record, [u.index for u in record.rationale])
    first = scorer.score_answer(assembly, record.answer)
    for _ in range(5):
        again = scorer.score_answer(assembly, record.answer)
        assert again.total == first.total
        assert again.per_token == first.per_token


def test_score_errors():
    scorer = TabularScorer(["a", "b"])
    with pytest.raises(OutOfVocabularyError, match="'z'"):
        scorer.score_answer(PromptAssembly("a", ()), "z")
    with pytest.raises(OutOfVocabularyError, match="'q'"):
        scorer.score_answer(PromptAssembly("q", ()), "a")


def test_assemble_prompt_orders_and_validates(fixture_corpus):
    record = fixture_corpus[0]
    full = assemble_prompt(record, [u.index for u in record.rationale])
    assert full.retained_rationale == tuple(u.text for u in record.rationale)
    empty = assemble_prompt(record, [])
    assert empty.render() == record.question
    sub = assemble_prompt(record, [2, 0])
    assert sub.retained_rationale == (
        record.rationale[0].text,
        record.rationale[2].text,
    )


def test_template_controls_separators_only(fixture_corpus):
    record = fixture_corpus[0]
    plain = assemble_prompt(record, [0, 1], "plain-v1").render()
    newline = assemble_prompt(record, [0, 1], "newline-v1").render()
    assert plain.split() == newline.split()
    assert "\n" in newline and "\n" not in plain


def test_templates_need_whitespace_separators():
    assert TEMPLATES
    assert all(separator.isspace() for separator in TEMPLATES.values())


# blanks, ASCII and non-ASCII whitespace (\x1c and \x85 split in str.split)
PIECES = ["a", "bc", "\u00e9", "", " ", "\n", "\t", "\x1c", "\x85", "\u3000"]
TEXTS = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=6).map("".join),
    st.text(max_size=6),
)


# a question holds a token: the corpus and ``varr score`` reject a blank one.
# Not filter(str.split): Hypothesis rewrites that to a non-empty check, which
# lets a blank question such as " " through
@given(question=TEXTS.filter(lambda text: text.split()),
       units=st.lists(TEXTS, max_size=5).map(tuple),
       template_id=st.sampled_from(sorted(TEMPLATES)))
@example(question="q", units=("", " ", "\x1c"), template_id="plain-v1")
@example(question="q x", units=("a ", "b\u3000", "\x85"), template_id="newline-v1")
@example(question=" \u3000q\x85", units=("", "\t"), template_id="plain-v1")
@example(question="q", units=(), template_id="newline-v1")
def test_tabular_context_is_last_rendered_token(question, units, template_id):
    assembly = PromptAssembly(question, units, template_id)
    # the long way: render, then take the last token
    assert TabularScorer(["a"])._context(assembly) == assembly.render().rsplit(None, 1)[-1]


@pytest.mark.parametrize("template_id", sorted(TEMPLATES))
def test_corpus_view_equals_split_of_rendered_prompt(fixture_corpus, pilot_corpus,
                                                     template_id):
    for corpus in (fixture_corpus, pilot_corpus):
        for n, record in enumerate(corpus):
            if n % 2 and record.rationale:
                record.mark_removed(n % len(record.rationale), 1, 1)
        want = [
            assemble_prompt(r, r.retained_indices(), template_id).render().split()
            + r.answer.split()
            for r in corpus
        ]
        assert list(corpus_view(corpus)) == want


def test_refit_rebuilds_from_scratch():
    scorer = TabularScorer(["a", "b"])
    scorer.refresh([["a", "b"]])
    assert bigram_count(scorer, "a", "b") == 1
    assert bigram_total(scorer) == 1
    assert scorer.model_version == 2
    # refit on identical streams: identical counts, new version
    scorer.refresh([["a", "b"]])
    assert bigram_count(scorer, "a", "b") == 1
    assert bigram_total(scorer) == 1
    assert scorer.model_version == 3


def test_refit_matches_hand_counted_bigrams(fixture_corpus):
    scorer = fit_tabular_scorer(fixture_corpus)
    # remove one unit and refit; count the reduced streams by hand
    record = fixture_corpus[0]
    record.mark_removed(1, 1, 1)
    streams = list(corpus_view(fixture_corpus))
    scorer.refresh(streams)
    expected = {}
    for stream in streams:
        for u, v in zip(stream, stream[1:]):
            expected[(u, v)] = expected.get((u, v), 0) + 1
    for (u, v), count in expected.items():
        assert bigram_count(scorer, u, v) == count
    assert bigram_total(scorer) == sum(expected.values())


PHRASES = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=3).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(specs=st.lists(st.tuples(PHRASES, st.lists(PHRASES, max_size=4), PHRASES),
                      min_size=1, max_size=5),
       removals=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=8),
       alpha=st.sampled_from([0.5, 1.0, 2.0]))
def test_fit_on_the_reduced_corpus_equals_the_refreshed_model(specs, removals, alpha):
    # a resumed run rebuilds its model by fitting on the replayed corpus;
    # that must be the model a run refreshed on the same corpus holds
    corpus = [
        make_record(record_id=f"r{n}", question=question, units=units, answer=answer)
        for n, (question, units, answer) in enumerate(specs)
    ]
    refreshed = fit_tabular_scorer(corpus, alpha)
    for n, index in removals:
        units = corpus[n % len(corpus)].rationale
        if units and units[index % len(units)].removed_at is None:
            units[index % len(units)].removed_at = (1, 1)
    refreshed.refresh(corpus_view(corpus))
    fitted = fit_tabular_scorer(corpus, alpha)
    assert fitted.vocabulary == refreshed.vocabulary
    for record in corpus:
        for retained in (record.retained_indices(), []):
            assembly = assemble_prompt(record, retained)
            for answer in (record.answer, record.question):
                assert fitted.score_answer(assembly, answer) == refreshed.score_answer(
                    assembly, answer)


def test_smoothed_conditionals_sum_to_one():
    rng = random.Random(77)
    scorer, _, vocab, _ = random_scorer(rng)
    for prev in vocab:
        total = sum(math.exp(scorer.log_conditional(prev, nxt)) for nxt in vocab)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_cache_store_lookup_and_invalidation():
    scorer = scorer_from_counts(["a", "b"], [[1, 2], [3, 4]])
    assembly = PromptAssembly("b", ("a",))
    first = scorer.score_answer(assembly, "b a")
    assert scorer.score_answer(assembly, "b a") is first  # bit-identical, same object
    assert (scorer.cache.hits, scorer.cache.misses, len(scorer.cache)) == (1, 1, 1)
    scorer.refresh([["b", "a"]])  # new counts, new version: the entry is gone
    assert len(scorer.cache) == 0
    refit = scorer.score_answer(assembly, "b a")
    assert refit.total != first.total
    assert refit.total == pytest.approx(math.log(2 / 4) + math.log(2 / 3), abs=1e-12)
    assert scorer.cache.misses == 2


def test_memo_key_is_last_prompt_token():
    rng = random.Random(17)
    vocab = ["a", "b", "c", "d", "e"]
    counts = [[rng.randint(0, 9) for _ in vocab] for _ in vocab]
    scorer = scorer_from_counts(vocab, counts, 0.5)
    # every token differs but the last one, which is all an order-1 model sees
    one = PromptAssembly("b", ("c", "a"))
    other = PromptAssembly("e d", ("c b e a",), template_id="newline-v1")
    first = scorer.score_answer(one, "b a d")
    second = scorer.score_answer(other, "b a d")
    assert second is first
    assert (scorer.cache.hits, scorer.cache.misses) == (1, 1)
    fresh = scorer_from_counts(vocab, counts, 0.5).score_answer(other, "b a d")
    assert (second.total, second.per_token) == (fresh.total, fresh.per_token)
    assert second.total == pytest.approx(
        oracle_score(counts, vocab, "e d", ["c b e a"], "b a d", 0.5), abs=1e-9
    )


def test_cache_no_cross_key_collisions():
    # many prompts through one memo of each scorer: every score, hit or
    # miss, equals the brute-force oracle
    rng = random.Random(9)
    for _ in range(20):
        scorer, counts, vocab, alpha = random_scorer(rng)
        for _ in range(50):
            record = random_record(rng, vocab, max_answer_len=2)
            retained = [u.index for u in record.rationale if rng.random() < 0.7]
            got = scorer.score_answer(assemble_prompt(record, retained), record.answer)
            want = oracle_score(
                counts, vocab, record.question,
                [u.text for u in record.rationale if u.index in retained],
                record.answer, alpha,
            )
            assert got.total == pytest.approx(want, abs=1e-9)
        assert scorer.cache.hits > 0
        # one lookup per logical call
        assert scorer.cache.hits + scorer.cache.misses == 50


def test_scorer_cache_hits_do_not_change_results():
    scorer = TabularScorer(["a", "b", "c"])
    assembly = PromptAssembly("a", ("b",))
    v1 = scorer.score_answer(assembly, "c")
    v2 = scorer.score_answer(assembly, "c")
    assert v1.total == v2.total
    assert scorer.cache.hits + scorer.cache.misses == 2  # one lookup per logical call
    assert scorer.cache.hits == 1


def test_build_vocabulary_covers_all_fields():
    record = make_record(
        units=("u1 u2",), answer="ans", wrong_answers=("w1", "w2 w3"),
        task_kind="multiple_choice",
    )

    vocab = build_vocabulary([record])
    assert set(vocab) >= {"u1", "u2", "ans", "w1", "w2", "w3", "what", "is", "it"}
    assert list(vocab) == sorted(vocab)


def test_from_counts_validation():
    with pytest.raises(ValueError):
        scorer_from_counts(["a", "b"], [[1, 2]])
    with pytest.raises(ValueError):
        scorer_from_counts(["a", "b"], [[1, 2], [3]])
    with pytest.raises(ValueError):
        scorer_from_counts(["a", "b"], [[1, -2], [0, 0]])


def test_fit_tabular_scorer_fixture_prompt_matches_oracle():
    corpus = load_corpus("tests/data/fixture_corpus.jsonl")
    scorer = fit_tabular_scorer(corpus)
    vocab = sorted(scorer.vocabulary)
    counts = dense_counts(scorer, vocab)
    record = corpus[0]
    assembly = assemble_prompt(record, record.retained_indices())
    got = scorer.score_answer(assembly, record.answer).total
    want = oracle_score(
        counts, vocab, record.question,
        [u.text for u in record.rationale], record.answer, 1.0,
    )
    assert got == pytest.approx(want, abs=1e-9)
