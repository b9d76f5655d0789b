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


def random_model(rng: random.Random, max_vocab=8, max_count=9, alphas=(0.5, 1.0, 2.0)):
    """A randomized small tabular model plus its raw-count twin for oracles."""
    size = rng.randint(2, max_vocab)
    vocab = [f"w{i}" for i in range(size)]
    counts = [[rng.randint(0, max_count) for _ in range(size)] for _ in range(size)]
    alpha = rng.choice(alphas)
    model = TabularModel.from_counts(vocab, counts, alpha)
    return TabularScorer(model), counts, vocab, alpha


def dense_counts(model: TabularModel) -> list[list[int]]:
    """The model's bigram counts as a V x V list of lists, for oracles."""
    size = range(model.vocab_size)
    return [[model.count(v, w) for w in size] for v in size]


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
