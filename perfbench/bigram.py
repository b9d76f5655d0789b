"""An additively smoothed order-1 bigram model, written apart from varr.

The benchmark's scorer server, its score oracle and its reference-driver
handle all use this model, so that a change to ``varr.scorer`` can move
only the program under test, never the yardstick:

    p(w | v) = (count(v, w) + alpha) / (sum_w count(v, w) + alpha * V)

Token streams are whitespace-split; a stream for one record is the
question, the retained rationale units in order and the answer.
"""

from __future__ import annotations

import math
from collections import Counter


def record_vocabulary(records) -> set[str]:
    """Every whitespace token of every question, answer, unit and wrong answer."""
    symbols: set[str] = set()
    for rec in records:
        symbols.update(rec["question"].split())
        symbols.update(rec["answer"].split())
        for text in rec["units"]:
            symbols.update(text.split())
        for wrong in rec["wrong_answers"]:
            symbols.update(wrong.split())
    return symbols


def record_stream(question: str, unit_texts, answer: str) -> list[str]:
    tokens = question.split()
    for text in unit_texts:
        tokens.extend(text.split())
    tokens.extend(answer.split())
    return tokens


class BigramModel:
    def __init__(self, vocabulary, alpha: float = 1.0):
        self.vocabulary = frozenset(vocabulary)
        self.alpha = float(alpha)
        self.pairs: Counter = Counter()
        self.row_sums: Counter = Counter()

    def fit(self, streams) -> None:
        """Recount from scratch over the given token streams."""
        pairs: Counter = Counter()
        for stream in streams:
            pairs.update(zip(stream, stream[1:]))
        rows: Counter = Counter()
        for (prev, _), n in pairs.items():
            rows[prev] += n
        self.pairs = pairs
        self.row_sums = rows

    def token_logprobs(self, context_last: str, answer_tokens) -> list[float]:
        """Natural-log conditionals of each answer token, left to right.

        Raises KeyError for a token outside the vocabulary.
        """
        size = len(self.vocabulary)
        out = []
        prev = context_last
        for token in answer_tokens:
            if prev not in self.vocabulary:
                raise KeyError(prev)
            if token not in self.vocabulary:
                raise KeyError(token)
            numer = self.pairs[(prev, token)] + self.alpha
            denom = self.row_sums[prev] + self.alpha * size
            out.append(math.log(numer / denom))
            prev = token
        return out

    def score(self, question: str, unit_texts, answer: str) -> float:
        """Total log-likelihood of the answer after question + units."""
        context = record_stream(question, unit_texts, "")
        return sum(self.token_logprobs(context[-1], answer.split()))
