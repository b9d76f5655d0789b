"""Straight-line reimplementation of the reduction procedure.

Deliberately independent of varr.schedule and varr.verbosity: batching,
warm-up gating, budgets, candidate ordering, negative pools, criteria,
and the removal buffer are all re-derived here from the documented
rules, with raw scorer calls and inline arithmetic. Only the scorer
machinery itself (PromptAssembly + the handle) is shared, since the
point is to drive identical scorer snapshots through an independently
coded loop and compare traces event for event.

Between epochs the loop refreshes the handle with its own view, one
(context tokens, answer tokens) pair per record, as the benchmark's
reference scorer takes it; ``PairRefresh`` hands a varr handle the
joined token stream of each pair instead.

Seed derivation rule (mirrors varr.seeding): the child seed for a label
path is the first 8 bytes, big-endian, of sha256("{seed}:{p1}:{p2}:...").
"""

import hashlib
import math
import random

from varr.scorer import PromptAssembly

CHOICE = ("multiple_choice", "true_false")


class PairRefresh:
    """A varr scorer handle driven by this loop: its refresh takes one
    token stream per record, the context tokens then the answer's."""

    def __init__(self, handle):
        self.handle = handle

    def score_answer(self, assembly, answer):
        return self.handle.score_answer(assembly, answer)

    def refresh(self, view):
        self.handle.refresh([context + answer for context, answer in view])


def _child_rng(seed, *path):
    material = ":".join([str(seed)] + [str(p) for p in path])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _score(handle, question, unit_texts, answer, template_id):
    assembly = PromptAssembly(question, tuple(unit_texts), template_id)
    return handle.score_answer(assembly, answer).total


def run_reference(corpus, handle, epochs, batch_size, warmup_ratio,
                  candidate_order="front", mode="varr_plus", seed=0,
                  k_negatives=4, enforced_n=0, enforce_epochs=2,
                  template_id="plain-v1"):
    """Returns (events, retained) where events are plain dicts."""
    records = corpus.records
    retained = {r.id: [u.index for u in r.rationale] for r in records}
    texts = {r.id: {u.index: u.text for u in r.rationale} for r in records}
    steps_per_epoch = math.ceil(len(records) / batch_size)
    total_steps = epochs * steps_per_epoch
    events = []

    for epoch in range(1, epochs + 1):
        order = list(range(len(records)))
        _child_rng(seed, "batch-order", epoch).shuffle(order)
        for step in range(1, steps_per_epoch + 1):
            t = (epoch - 1) * steps_per_epoch + step
            if t <= warmup_ratio * total_steps:
                continue
            lo = (step - 1) * batch_size
            batch = [records[i] for i in order[lo : lo + batch_size]]
            for record in batch:
                kept = retained[record.id]
                budget = (len(kept) * t) // total_steps
                buffer = 0

                # candidate visiting order
                if candidate_order == "front":
                    seq = [(i, False) for i in kept]
                elif candidate_order == "back":
                    seq = [(i, False) for i in reversed(kept)]
                elif candidate_order == "random":
                    shuffled = list(kept)
                    _child_rng(seed, "candidate-order", record.id, t).shuffle(shuffled)
                    seq = [(i, False) for i in shuffled]
                elif candidate_order == "enforced_front":
                    n = enforced_n if epoch <= enforce_epochs else 0
                    seq = [(i, pos < n) for pos, i in enumerate(kept)]
                elif candidate_order == "no_rule":
                    shuffled = list(kept)
                    _child_rng(seed, "candidate-order", record.id, t).shuffle(shuffled)
                    seq = [(i, True) for i in shuffled]
                else:
                    raise ValueError(candidate_order)

                for index, unconditional in seq:
                    if buffer >= budget:
                        break
                    if unconditional:
                        retained[record.id] = [j for j in retained[record.id] if j != index]
                        buffer += 1
                        events.append({
                            "record_id": record.id, "epoch": epoch, "step": step,
                            "t": t, "candidate_index": index, "decision": "removed",
                            "budget": budget, "buffer_size": buffer,
                            "verbosity_gt": None, "verbosity_wrong": None,
                            "k_used": 0, "score_full": None, "score_reduced": None,
                            "unconditional": True,
                        })
                        continue

                    current = retained[record.id]
                    full_texts = [texts[record.id][j] for j in current]
                    reduced_texts = [texts[record.id][j] for j in current if j != index]
                    s_full = _score(handle, record.question, full_texts,
                                    record.answer, template_id)
                    s_reduced = _score(handle, record.question, reduced_texts,
                                       record.answer, template_id)
                    v_gt = s_reduced - s_full
                    passes = v_gt >= 0.0

                    v_wrong = None
                    k_used = 0
                    if mode == "varr":
                        removed = passes
                    else:
                        if record.task_kind in CHOICE:
                            pool = list(dict.fromkeys(record.wrong_answers))
                            k = sum(1 for p in pool if p != record.answer)
                        else:
                            pool = list(dict.fromkeys(
                                r.answer for r in batch if r.id != record.id
                            ))
                            k = k_negatives
                        pool = [p for p in pool if p != record.answer]
                        removed = False
                        if passes and pool:
                            if k >= len(pool):
                                sampled = list(pool)
                            else:
                                rng = _child_rng(seed, "negatives", record.id, t, index)
                                sampled = rng.sample(pool, k)
                            acc = 0.0
                            for wrong in sampled:
                                w_full = _score(handle, record.question, full_texts,
                                                wrong, template_id)
                                w_reduced = _score(handle, record.question,
                                                   reduced_texts, wrong, template_id)
                                acc += w_reduced - w_full
                            v_wrong = acc / len(sampled)
                            k_used = len(sampled)
                            removed = passes and (v_wrong - v_gt <= 0.0)

                    if removed:
                        retained[record.id] = [j for j in retained[record.id] if j != index]
                        buffer += 1
                    events.append({
                        "record_id": record.id, "epoch": epoch, "step": step,
                        "t": t, "candidate_index": index,
                        "decision": "removed" if removed else "kept",
                        "budget": budget, "buffer_size": buffer,
                        "verbosity_gt": v_gt, "verbosity_wrong": v_wrong,
                        "k_used": k_used, "score_full": s_full,
                        "score_reduced": s_reduced, "unconditional": False,
                    })

        view = []
        for record in records:
            tokens = record.question.split()
            for j in retained[record.id]:
                tokens.extend(texts[record.id][j].split())
            view.append((tokens, record.answer.split()))
        handle.refresh(view)

    return events, retained
