"""Brute-force oracles, kept independent of the engine's code paths.

The scoring oracle multiplies smoothed bigram probabilities straight
off a plain list-of-lists count matrix and takes one log at the end,
whereas the engine sums per-token logs over a sparse-count model. The
verbosity oracles difference two such scores. Agreement within 1e-9
validates both the arithmetic and the prompt-assembly conventions.
"""

import math


def oracle_smoothed_prob(counts, vocab, prev, nxt, alpha):
    v = vocab.index(prev)
    w = vocab.index(nxt)
    row_sum = sum(counts[v])
    return (counts[v][w] + alpha) / (row_sum + alpha * len(vocab))


def oracle_context_tokens(question, unit_texts):
    tokens = question.split()
    for text in unit_texts:
        tokens.extend(text.split())
    return tokens


def oracle_log_likelihood(counts, vocab, context_tokens, answer_tokens, alpha):
    """log of the product of smoothed bigram probabilities."""
    prob = 1.0
    prev = context_tokens[-1]
    for token in answer_tokens:
        prob *= oracle_smoothed_prob(counts, vocab, prev, token, alpha)
        prev = token
    return math.log(prob)


def oracle_score(counts, vocab, question, unit_texts, answer, alpha):
    return oracle_log_likelihood(
        counts, vocab, oracle_context_tokens(question, unit_texts),
        answer.split(), alpha,
    )


def oracle_nll(counts, vocab, record, retained, alpha):
    texts = [u.text for u in record.rationale if u.index in set(retained)]
    return -oracle_score(counts, vocab, record.question, texts, record.answer, alpha)


def oracle_verbosity_gt(counts, vocab, record, i, retained, alpha):
    retained = sorted(retained)
    full = [u.text for u in record.rationale if u.index in set(retained)]
    reduced = [u.text for u in record.rationale if u.index in set(retained) - {i}]
    s_full = oracle_score(counts, vocab, record.question, full, record.answer, alpha)
    s_reduced = oracle_score(counts, vocab, record.question, reduced, record.answer, alpha)
    return s_reduced - s_full


def oracle_verbosity_wrong(counts, vocab, record, i, retained, negatives, alpha):
    """Mean log-ratio over an explicit negative list (already sampled)."""
    retained = sorted(retained)
    full = [u.text for u in record.rationale if u.index in set(retained)]
    reduced = [u.text for u in record.rationale if u.index in set(retained) - {i}]
    total = 0.0
    for wrong in negatives:
        s_full = oracle_score(counts, vocab, record.question, full, wrong, alpha)
        s_reduced = oracle_score(counts, vocab, record.question, reduced, wrong, alpha)
        total += s_reduced - s_full
    return total / len(negatives)


def token_stats(corpus_before, corpus_after):
    """Average whitespace tokens (retained rationale + answer) per record,
    counted on two corpora with the same record ids."""
    before_ids = {r.id for r in corpus_before.records}
    after_ids = {r.id for r in corpus_after.records}
    if before_ids != after_ids:
        diff = sorted(before_ids.symmetric_difference(after_ids))
        raise ValueError(f"corpora do not share record ids; differ on {diff}")

    def average(corpus):
        if not corpus.records:
            return 0.0
        total = 0
        for record in corpus.records:
            total += len(record.answer.split())
            for unit in record.rationale:
                if unit.removed_at is None:
                    total += len(unit.text.split())
        return total / len(corpus.records)

    before, after = average(corpus_before), average(corpus_after)
    return {
        "avg_rationale_tokens_before": before,
        "avg_rationale_tokens_after": after,
        "reduction_percent": 100.0 * (before - after) / before if before > 0 else 0.0,
    }
