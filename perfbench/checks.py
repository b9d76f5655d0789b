"""Output checks for one ``varr reduce`` run, recomputed from the inputs.

Nothing here compares against a stored copy of an earlier output. Each
check derives what must hold from the generated corpus, the run's
settings and the method's laws:

  * laws: the schedule is rebuilt from the documented seeding rule, and
    every scan with a nonzero budget after warm-up appears, in batch
    order, with the budget floor(n_t * t / T) (n_t recounted by replay),
    its candidates in the configured order, the buffer, the stop rule
    and permanence (a removed unit is never seen again);
  * criteria: every removal satisfies its mode's inequalities, every
    kept unit fails them, and k_used is the size of the negative sample
    the mode calls for;
  * accounting: scorer_call_count = sum over evaluated events of
    2 + 2 * k_used;
  * rebuild: reduced.jsonl's retained plus removed units give back the
    input units, and its removal marks equal the trace's;
  * token statistics in report.json equal a recount;
  * scores: a seeded sample of score_full / score_reduced equals an
    independent bigram computation within 1e-9, with counts refitted on
    the corpus as replayed to the start of the event's epoch (remote: the
    server's fixed model);
  * decisions: every event equals the one tests/reference_driver.py
    produces on the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace

from bigram import BigramModel, record_stream, record_vocabulary

TOLERANCE = 1e-9
MAX_PROBLEMS = 20
EXACT_FIELDS = ("record_id", "epoch", "step", "t", "candidate_index", "decision",
                "budget", "buffer_size", "k_used", "unconditional")
FLOAT_FIELDS = ("verbosity_gt", "verbosity_wrong", "score_full", "score_reduced")


def close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def child_rng(seed: int, *path) -> random.Random:
    """The documented seeding rule: sha256 of "seed:part:...", first 8 bytes."""
    material = ":".join([str(seed)] + [str(p) for p in path])
    return random.Random(int.from_bytes(hashlib.sha256(material.encode()).digest()[:8], "big"))


def scan_plan(records, params):
    """Yield (epoch, step, t, batch) for every step after warm-up."""
    steps = math.ceil(len(records) / params["batch_size"])
    total = params["epochs"] * steps
    for epoch in range(1, params["epochs"] + 1):
        order = list(range(len(records)))
        child_rng(params["seed"], "batch-order", epoch).shuffle(order)
        for step in range(1, steps + 1):
            t = (epoch - 1) * steps + step
            if t > params["warmup"] * total:
                lo = (step - 1) * params["batch_size"]
                yield epoch, step, t, [records[i] for i in order[lo:lo + params["batch_size"]]]


def check_schedule(records, params, events) -> list[str]:
    """Walk the schedule and match each scan's events against the laws.

    Every scan with a nonzero budget must appear, in batch order; its
    candidates follow the configured order over the units retained at
    the scan's start; the scan ends when the buffer reaches the budget
    floor(n_t * t / T) or the candidates run out; and each decision is
    the one the mode's inequalities give.
    """
    problems = []
    total = params["epochs"] * math.ceil(len(records) / params["batch_size"])
    retained = {r["id"]: list(range(len(r["units"]))) for r in records}
    pos = 0
    for epoch, step, t, batch in scan_plan(records, params):
        for rec in batch:
            kept = retained[rec["id"]]
            start = list(kept)
            budget = len(kept) * t // total
            buffer = 0
            visited = []
            while (pos < len(events) and events[pos]["record_id"] == rec["id"]
                   and events[pos]["t"] == t):
                e = events[pos]
                where = f"event {pos} ({rec['id']}, t={t}, unit {e['candidate_index']})"
                pos += 1
                if (e["epoch"], e["step"], e["budget"]) != (epoch, step, budget):
                    problems.append(f"{where}: epoch/step/budget != {(epoch, step, budget)}")
                if buffer >= budget:
                    problems.append(f"{where}: scan continued with a full buffer")
                if e["candidate_index"] not in kept or e["candidate_index"] in visited:
                    problems.append(f"{where}: candidate is not a retained, unvisited unit")
                    continue
                visited.append(e["candidate_index"])
                problems += check_decision(rec, batch, params, e, where)
                if e["decision"] == "removed":
                    kept.remove(e["candidate_index"])
                    buffer += 1
                if e["buffer_size"] != buffer:
                    problems.append(f"{where}: buffer_size {e['buffer_size']} != {buffer}")
            if params["order"] in ("front", "back"):
                order = start if params["order"] == "front" else start[::-1]
                if visited != order[:len(visited)]:
                    problems.append(f"{rec['id']} t={t}: candidates out of {params['order']} order")
            if buffer < budget and len(visited) != len(start):
                problems.append(f"{rec['id']} t={t}: scan stopped early "
                                f"({buffer} of {budget} removed, {len(visited)} of {len(start)} seen)")
    if pos != len(events):
        problems.append(f"event {pos} and after match no scheduled scan")
    return problems


def check_decision(rec, batch, params, e, where) -> list[str]:
    """The decision, k_used and verbosity_wrong the mode's criteria imply."""
    if e["unconditional"] or e["verbosity_gt"] is None:
        return [f"{where}: not evaluated by the criteria"]
    v_gt, v_wrong = e["verbosity_gt"], e["verbosity_wrong"]
    problems = []
    if v_gt != e["score_reduced"] - e["score_full"]:
        problems.append(f"{where}: verbosity_gt != score_reduced - score_full")
    k_used = 0
    if params["mode"] == "varr_plus" and v_gt >= 0.0:
        if rec["task_kind"] == "free_form":
            pool = {o["answer"] for o in batch if o["id"] != rec["id"]} - {rec["answer"]}
            k_used = min(params["k"], len(pool))
        else:
            k_used = len(set(rec["wrong_answers"]) - {rec["answer"]})
    if e["k_used"] != k_used or (v_wrong is None) != (k_used == 0):
        problems.append(f"{where}: k_used {e['k_used']} (verbosity_wrong {v_wrong!r}), "
                        f"criteria need {k_used}")
        return problems
    passes = v_gt >= 0.0 and (params["mode"] == "varr" or (k_used and v_wrong - v_gt <= 0.0))
    if (e["decision"] == "removed") != bool(passes):
        problems.append(f"{where}: decision {e['decision']} contradicts the criteria")
    return problems


def check_accounting(trace, report) -> list[str]:
    expected = sum(2 + 2 * e["k_used"] for e in trace["events"] if not e["unconditional"])
    problems = []
    if trace["scorer_call_count"] != expected:
        problems.append(f"scorer_call_count {trace['scorer_call_count']} != {expected}")
    if report["scorer_call_count"] != trace["scorer_call_count"]:
        problems.append("report and trace disagree on scorer_call_count")
    if report["event_count"] != len(trace["events"]):
        problems.append("report event_count != number of trace events")
    return problems


def check_rebuild(records, events, reduced) -> list[str]:
    problems = []
    if [r["id"] for r in reduced] != [r["id"] for r in records]:
        return ["reduced.jsonl does not list the input records in order"]
    marks = {(e["record_id"], e["candidate_index"]): (e["epoch"], e["step"])
             for e in events if e["decision"] == "removed"}
    seen = {}
    for rec, out in zip(records, reduced):
        slots = [None] * len(rec["units"])
        for item in out["removed"]:
            seen[(rec["id"], item["index"])] = (item["epoch"], item["step"])
            if not 0 <= item["index"] < len(slots) or slots[item["index"]] is not None:
                problems.append(f"{rec['id']}: bad removed index {item['index']}")
                continue
            slots[item["index"]] = item["text"]
        free = [i for i, s in enumerate(slots) if s is None]
        if len(free) != len(out["rationale"]):
            problems.append(f"{rec['id']}: retained + removed != input unit count")
            continue
        for i, text in zip(free, out["rationale"]):
            slots[i] = text
        if slots != rec["units"]:
            problems.append(f"{rec['id']}: retained + removed units do not rebuild the input")
        for field in ("question", "answer", "wrong_answers", "task_kind"):
            if out[field] != rec[field]:
                problems.append(f"{rec['id']}: {field} changed")
    if seen != marks:
        problems.append("reduced.jsonl removal marks != trace removal events")
    return problems


def check_token_stats(records, reduced, report) -> list[str]:
    n = len(records)
    before = sum(sum(len(u.split()) for u in r["units"]) + len(r["answer"].split())
                 for r in records) / n
    after = sum(sum(len(u.split()) for u in r["rationale"]) + len(r["answer"].split())
                for r in reduced) / n
    expected = {
        "avg_rationale_tokens_before": before,
        "avg_rationale_tokens_after": after,
        "reduction_percent": 100.0 * (before - after) / before if before else 0.0,
    }
    stats = report.get("token_stats", {})
    return [f"report token_stats.{k} = {stats.get(k)!r}, recount gives {v!r}"
            for k, v in expected.items() if not close(stats.get(k), v)]


def _fit(records, retained, vocabulary, alpha) -> BigramModel:
    model = BigramModel(vocabulary, alpha)
    model.fit(record_stream(r["question"], [r["units"][i] for i in retained[r["id"]]],
                            r["answer"]) for r in records)
    return model


def check_scores(records, params, events, fixed_model, sample_seed, size=200) -> list[str]:
    """Recompute a seeded sample of scores with the benchmark's own model."""
    problems = []
    evaluated = [n for n, e in enumerate(events) if e["score_full"] is not None]
    wanted = set(random.Random(f"perfbench-oracle:{sample_seed}").sample(
        evaluated, min(size, len(evaluated))))
    by_id = {r["id"]: r for r in records}
    retained = {r["id"]: list(range(len(r["units"]))) for r in records}
    vocabulary = record_vocabulary(records)
    model, model_epoch = fixed_model, None
    for n, e in enumerate(events):
        if fixed_model is None and model_epoch != e["epoch"]:
            model, model_epoch = _fit(records, retained, vocabulary, params["alpha"]), e["epoch"]
        if n in wanted:
            rec = by_id[e["record_id"]]
            kept = retained[rec["id"]]
            full = model.score(rec["question"], [rec["units"][i] for i in kept], rec["answer"])
            reduced = model.score(rec["question"],
                                  [rec["units"][i] for i in kept if i != e["candidate_index"]],
                                  rec["answer"])
            if not (close(full, e["score_full"]) and close(reduced, e["score_reduced"])):
                problems.append(
                    f"event {n}: scores ({e['score_full']!r}, {e['score_reduced']!r}) "
                    f"!= oracle ({full!r}, {reduced!r})"
                )
        if e["decision"] == "removed" and e["candidate_index"] in retained[e["record_id"]]:
            retained[e["record_id"]].remove(e["candidate_index"])
    return problems


def check_reference(events, reference) -> list[str]:
    if len(events) != len(reference):
        return [f"{len(events)} events, reference driver has {len(reference)}"]
    for n, (got, want) in enumerate(zip(events, reference)):
        for field in EXACT_FIELDS:
            if got[field] != want[field]:
                return [f"event {n}: {field} {got[field]!r} != reference {want[field]!r}"]
        for field in FLOAT_FIELDS:
            if not close(got[field], want[field]):
                return [f"event {n}: {field} {got[field]!r} != reference {want[field]!r}"]
    return []


def check_output(records, params, out_dir: Path, reference, fixed_model=None,
                 sample_seed: int = 0) -> list[str]:
    """Every check on one run's outputs; an empty list means the run is correct."""
    trace = json.loads((out_dir / "trace.json").read_text(encoding="utf-8"))
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    reduced = [json.loads(line) for line in
               (out_dir / "reduced.jsonl").read_text(encoding="utf-8").splitlines()]
    events = trace["events"]
    problems = (
        check_schedule(records, params, events)
        + check_accounting(trace, report)
        + check_rebuild(records, events, reduced)
        + check_token_stats(records, reduced, report)
        + check_scores(records, params, events, fixed_model, sample_seed)
        + check_reference(events, reference)
    )
    return problems[:MAX_PROBLEMS]


# --- reference driver -------------------------------------------------------

class ReferenceScorer:
    """Scorer handle for tests/reference_driver.py backed by BigramModel.

    With ``refit`` it recounts on every refresh view, like the tabular
    backend; without, it keeps the remote server's fixed model.
    """

    def __init__(self, model: BigramModel, refit: bool):
        self.model = model
        self.refit = refit

    def score_answer(self, assembly, answer):
        last = None
        for text in reversed(assembly.retained_rationale):
            parts = text.split()
            if parts:
                last = parts[-1]
                break
        if last is None:
            last = assembly.question.split()[-1]
        return SimpleNamespace(total=sum(self.model.token_logprobs(last, answer.split())))

    def refresh(self, view) -> None:
        if self.refit:
            self.model.fit(context + answer for context, answer in view)


def reference_events(records, params, model: BigramModel, refit: bool) -> list[dict]:
    from tests.reference_driver import run_reference

    corpus = SimpleNamespace(records=[
        SimpleNamespace(
            id=r["id"], question=r["question"], answer=r["answer"],
            wrong_answers=r["wrong_answers"], task_kind=r["task_kind"],
            rationale=[SimpleNamespace(index=i, text=t) for i, t in enumerate(r["units"])],
        )
        for r in records
    ])
    events, _ = run_reference(
        corpus, ReferenceScorer(model, refit), params["epochs"], params["batch_size"],
        params["warmup"], candidate_order=params["order"], mode=params["mode"],
        seed=params["seed"], k_negatives=params["k"],
    )
    return events


def initial_model(records, alpha: float) -> BigramModel:
    model = BigramModel(record_vocabulary(records), alpha)
    model.fit(record_stream(r["question"], r["units"], r["answer"]) for r in records)
    return model
