"""Brute-force oracles, kept independent of the engine's code paths.

The scoring oracle multiplies smoothed bigram probabilities straight
off a plain list-of-lists count matrix and takes one log at the end,
whereas the engine sums per-token logs over a sparse-count model. The
verbosity oracles difference two such scores. Agreement within 1e-9
validates both the arithmetic and the prompt-assembly conventions.
``candidate_assemblies`` builds a candidate's two prompts from the
retained sets alone, the reference for the driver's sliced prompts.
``trace_to_dict`` is the plain-dict form of a trace that
``ReductionTrace.canonical_json`` must equal once dumped, and
``reduced_record_dict`` that of a ``reduced.jsonl`` line, which must
equal ``json.dumps(..., ensure_ascii=False)`` of it.
"""

import copy
import math

from varr.scorer import assemble_prompt


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
    before_ids = {r.id for r in corpus_before}
    after_ids = {r.id for r in corpus_after}
    if before_ids != after_ids:
        diff = sorted(before_ids.symmetric_difference(after_ids))
        raise ValueError(f"corpora do not share record ids; differ on {diff}")

    def average(corpus):
        if not corpus:
            return 0.0
        total = 0
        for record in corpus:
            total += len(record.answer.split())
            for unit in record.rationale:
                if unit.removed_at is None:
                    total += len(unit.text.split())
        return total / len(corpus)

    before, after = average(corpus_before), average(corpus_after)
    return {
        "avg_rationale_tokens_before": before,
        "avg_rationale_tokens_after": after,
        "reduction_percent": 100.0 * (before - after) / before if before > 0 else 0.0,
    }


def oracle_segment_sentences(text, terminal_punctuation, abbreviation_exceptions,
                             min_unit_chars):
    """The sentence splitter as a character-by-character scan: the
    reference for ``segmenter.segment_sentences``, which finds its split
    candidates with a regular expression."""
    normalized = " ".join(text.split())
    segments = []
    start = 0
    i = 0
    while i < len(normalized) - 1:
        ch = normalized[i]
        if ch in terminal_punctuation and normalized[i + 1] == " ":
            nxt = normalized[i + 2] if i + 2 < len(normalized) else ""
            if nxt and (nxt.isupper() or nxt.isdigit()):
                word = normalized[normalized.rfind(" ", 0, i) + 1 : i + 1]
                candidate = normalized[start : i + 1]
                if word not in abbreviation_exceptions and len(candidate) >= min_unit_chars:
                    segments.append(candidate)
                    start = i + 2
                    i += 2
                    continue
        i += 1
    tail = normalized[start:]
    if tail:
        if segments and len(tail) < min_unit_chars:
            segments[-1] = segments[-1] + " " + tail
        else:
            segments.append(tail)
    return segments


def trace_to_dict(trace):
    """The trace as a plain dict: ``json.dumps`` of it with sorted keys and
    compact separators is the trace's canonical JSON. The config and the
    event rows are copies, so editing the result leaves the trace alone."""
    return {
        "config": copy.deepcopy(trace.config),
        "seed": trace.seed,
        "scorer_call_count": trace.scorer_call_count,
        "events": [e._asdict() for e in trace.events],
    }


def reduced_record_dict(record):
    """A record as a ``reduced.jsonl`` line holds it: the input format with
    the retained units as the rationale, then the removed units'
    provenance."""
    return {
        "id": record.id,
        "question": record.question,
        "rationale": [u.text for u in record.rationale if u.removed_at is None],
        "answer": record.answer,
        "wrong_answers": record.wrong_answers,
        "task_kind": record.task_kind,
        "removed": [{"index": u.index, "text": u.text, "epoch": u.removed_at[0],
                     "step": u.removed_at[1]}
                    for u in record.rationale if u.removed_at is not None],
    }


def oracle_validate_trace(trace):
    """The trace law check in two passes over the events: ordering and
    warm-up, then permanence and budget."""
    problems = []
    total_steps = int(trace.config.get("schedule", {}).get("total_steps", 0))
    warmup_ratio = float(trace.config.get("run", {}).get("warmup_ratio", 0.0))
    previous_key = None
    for e in trace.events:
        key = (e.epoch, e.step)
        if previous_key is not None and key < previous_key:
            problems.append(f"events out of (epoch, step) order at t={e.t}")
        previous_key = key
        if total_steps and e.t <= warmup_ratio * total_steps:
            problems.append(f"event at t={e.t} inside warm-up window")
    removed_by_group, budget_by_group, seen_removals = {}, {}, set()
    for e in trace.events:
        group = (e.record_id, e.epoch, e.step)
        budget_by_group[group] = e.budget
        if e.decision == "removed":
            removed_by_group[group] = removed_by_group.get(group, 0) + 1
            unit = (e.record_id, e.candidate_index)
            if unit in seen_removals:
                problems.append(f"unit {unit} removed twice")
            seen_removals.add(unit)
    for group, removed in removed_by_group.items():
        if removed > budget_by_group[group]:
            problems.append(
                f"group {group} removed {removed} over budget {budget_by_group[group]}")
    return problems


def candidate_assemblies(record, i, current_retained, template_id="plain-v1"):
    """The prompts for R and for R' = R minus candidate i, each assembled
    from its retained set."""
    retained = sorted(set(current_retained))
    if i not in retained:
        raise ValueError(f"candidate {i} not in retained set of record {record.id}")
    return (assemble_prompt(record, retained, template_id),
            assemble_prompt(record, [j for j in retained if j != i], template_id))
