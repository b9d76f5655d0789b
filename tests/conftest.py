import random
from pathlib import Path

import pytest

from varr.corpus import RationaleRecord, RationaleUnit, load_corpus
from varr.metrics import ReductionTrace
from varr.schedule import run_reduction
from varr.scorer import TabularScorer

DATA_DIR = Path(__file__).parent / "data"
FIXTURE_CORPUS = DATA_DIR / "fixture_corpus.jsonl"
PILOT_CORPUS = DATA_DIR / "pilot_synthetic.jsonl"
LONG_ANSWER_CORPUS = DATA_DIR / "long_answer_corpus.jsonl"


@pytest.fixture
def fixture_corpus() -> list[RationaleRecord]:
    return load_corpus(FIXTURE_CORPUS)


@pytest.fixture
def pilot_corpus() -> list[RationaleRecord]:
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


def reduction_trace(corpus, handle, settings) -> ReductionTrace:
    """Run the driver into a new empty trace and return the trace."""
    run_reduction(corpus, handle, settings, trace := ReductionTrace({}, None))
    return trace


def scorer_from_counts(vocabulary, counts, smoothing_alpha=1.0) -> TabularScorer:
    """A tabular scorer with the given dense V x V count matrix (nested
    lists), rows and columns in the order of ``vocabulary``."""
    size = len(vocabulary)
    rows = [[int(c) for c in row] for row in counts]
    if len(rows) != size or any(len(row) != size for row in rows):
        raise ValueError(f"counts must be {size}x{size} nested sequences")
    if any(c < 0 for row in rows for c in row):
        raise ValueError("counts must be nonnegative")
    return TabularScorer(vocabulary, smoothing_alpha, (
        (vocabulary[v], vocabulary[w])
        for v, row in enumerate(rows) for w, c in enumerate(row) for _ in range(c)
    ))


def random_scorer(rng: random.Random, max_vocab=8, max_count=9, alphas=(0.5, 1.0, 2.0)):
    """A randomized small tabular scorer plus its raw-count twin for oracles."""
    size = rng.randint(2, max_vocab)
    vocab = [f"w{i}" for i in range(size)]
    counts = [[rng.randint(0, max_count) for _ in range(size)] for _ in range(size)]
    alpha = rng.choice(alphas)
    return scorer_from_counts(vocab, counts, alpha), counts, vocab, alpha


def bigram_count(scorer: TabularScorer, prev: str, nxt: str) -> int:
    """Count of the token pair (prev, nxt)."""
    return scorer._counts[prev, nxt]


def bigram_total(scorer: TabularScorer) -> int:
    """Number of bigrams counted."""
    return sum(scorer._row_sums.values())


def dense_counts(scorer: TabularScorer, vocabulary) -> list[list[int]]:
    """The scorer's bigram counts as a V x V list of lists, rows and
    columns in the order of ``vocabulary``, for oracles."""
    return [[bigram_count(scorer, v, w) for w in vocabulary] for v in vocabulary]


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
