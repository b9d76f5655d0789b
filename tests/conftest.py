import random
from pathlib import Path

import pytest

from varr.corpus import Corpus, RationaleRecord, RationaleUnit, load_corpus
from varr.scorer import TabularModel, TabularScorer

DATA_DIR = Path(__file__).parent / "data"
FIXTURE_CORPUS = DATA_DIR / "fixture_corpus.jsonl"
PILOT_CORPUS = DATA_DIR / "pilot_synthetic.jsonl"


@pytest.fixture
def fixture_corpus() -> Corpus:
    return load_corpus(FIXTURE_CORPUS)


@pytest.fixture
def pilot_corpus() -> Corpus:
    return load_corpus(PILOT_CORPUS)


def make_record(record_id="r1", question="what is it", units=("first step here", "second step done"),
                answer="fine", wrong_answers=(), task_kind="free_form") -> RationaleRecord:
    return RationaleRecord(
        id=record_id,
        question=question,
        rationale=[RationaleUnit(i, t) for i, t in enumerate(units)],
        answer=answer,
        wrong_answers=list(wrong_answers),
        task_kind=task_kind,
    )


def model_from_counts(vocabulary, counts, smoothing_alpha=1.0) -> TabularModel:
    """A model with the given dense V x V count matrix (nested lists)."""
    model = TabularModel(vocabulary, smoothing_alpha)
    size = model.vocab_size
    rows = [[int(c) for c in row] for row in counts]
    if len(rows) != size or any(len(row) != size for row in rows):
        raise ValueError(f"counts must be {size}x{size} nested sequences")
    if any(c < 0 for row in rows for c in row):
        raise ValueError("counts must be nonnegative")
    model.fit_streams(
        (vocabulary[v], vocabulary[w])
        for v, row in enumerate(rows) for w, c in enumerate(row) for _ in range(c)
    )
    return model


def random_model(rng: random.Random, max_vocab=8, max_count=9, alphas=(0.5, 1.0, 2.0)):
    """A randomized small tabular model plus its raw-count twin for oracles."""
    size = rng.randint(2, max_vocab)
    vocab = [f"w{i}" for i in range(size)]
    counts = [[rng.randint(0, max_count) for _ in range(size)] for _ in range(size)]
    alpha = rng.choice(alphas)
    model = model_from_counts(vocab, counts, alpha)
    return TabularScorer(model), counts, vocab, alpha


def bigram_count(model: TabularModel, v: int, w: int) -> int:
    """Bigram count of vocabulary indices (v, w)."""
    return model._counts[v, w]


def bigram_total(model: TabularModel) -> int:
    """Number of bigrams counted."""
    return sum(model._row_sums)


def dense_counts(model: TabularModel) -> list[list[int]]:
    """The model's bigram counts as a V x V list of lists, for oracles."""
    size = range(model.vocab_size)
    return [[bigram_count(model, v, w) for w in size] for v in size]


def random_record(rng: random.Random, vocab, max_units=4, max_answer_len=6) -> RationaleRecord:
    def phrase(lo, hi):
        return " ".join(rng.choice(vocab) for _ in range(rng.randint(lo, hi)))

    units = [phrase(1, 3) for _ in range(rng.randint(1, max_units))]
    return make_record(
        record_id=f"rnd-{rng.randint(0, 10**6)}",
        question=phrase(1, 3),
        units=units,
        answer=phrase(1, max_answer_len),
    )
