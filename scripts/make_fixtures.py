#!/usr/bin/env python3
"""Regenerate the committed test fixtures under tests/data/.

All three corpora are fully deterministic (no RNG) so the files can be
rebuilt bit-identically at any time.

fixture_corpus.jsonl    mixed-task corpus for reduction/scoring tests.
    Bigram structure is planted on purpose:
      * ff-* records end with "final value is rK" so the answer's
        predecessor token rK is informative: removing the last unit
        drops the gold answer's likelihood (candidates get kept).
      * mc-01 is built so that removing its last unit slightly helps
        the gold answer but helps the planted wrong answer optB more:
        the base criterion passes while the contrast criterion rejects.
      * middle units never touch the answer's predecessor under an
        order-1 scorer, so they evaluate to verbosity exactly 0 and
        pass (ties pass by the >= 0 / <= 0 inequalities).

pilot_synthetic.jsonl   answer-in-last-sentence corpus for the pilot
    curves. Eligible records have 10 units; units 1..9 end with "mid",
    unit 10 ends with "fin", and only "fin" strongly predicts the
    answer. Short calibration records (1 unit, skipped by the pilot at
    sizes up to 4) give "mid" a moderate answer count so the damage
    from losing "fin" is bounded: front sampling rarely touches unit 10
    and stays within a few percent of the complete-rationale baseline,
    while back sampling hits it often and pays for it.

long_answer_corpus.jsonl    answers of 3 to 6 tokens, so each score sums
    3 to 6 float terms. With full rationale, la-01's gold score rounds
    differently under a left-to-right sum (Python 3.11's ``sum``) than
    correctly rounded (``math.fsum``), so a pinned fingerprint of a run on
    it fails if the summation rule changes.
"""

import json
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parents[1] / "tests" / "data"

PILOT_ELIGIBLE = 40
PILOT_CALIBRATION = 60
PILOT_UNITS = 10


def reduction_records() -> list[dict]:
    records = []

    # free-form records whose final unit carries the answer predecessor
    for i in range(1, 5):
        records.append({
            "id": f"ff-{i:02d}",
            "question": f"what is job a{i}",
            "rationale": [
                f"start with k{i} now",
                f"then add k{i + 1} now",
                "combine all parts now",
                f"final value is r{i}",
            ],
            "answer": f"ans{i} done",
            "wrong_answers": [],
            "task_kind": "free_form",
        })

    # mc-01: base criterion passes on the last unit, contrast rejects
    records.append({
        "id": "mc-01",
        "question": "pick choice for m1",
        "rationale": [
            "fact one about m1",
            "thus answer follows pre2",
            "and final hint pre1",
        ],
        "answer": "optA",
        "wrong_answers": ["optB", "optC"],
        "task_kind": "multiple_choice",
    })
    # plant count(pre2, optA) = 3
    for i in range(2, 5):
        records.append({
            "id": f"mc-{i:02d}",
            "question": f"pick choice for m{i}",
            "rationale": [f"fact two about m{i}", "conclude with pre2"],
            "answer": "optA",
            "wrong_answers": ["optB", "optC"],
            "task_kind": "multiple_choice",
        })
    # plant count(pre2, optB) = 6
    for i in range(5, 11):
        records.append({
            "id": f"mc-{i:02d}",
            "question": f"pick choice for m{i}",
            "rationale": [f"fact six about m{i}", "conclude with pre2"],
            "answer": "optB",
            "wrong_answers": ["optA", "optC"],
            "task_kind": "multiple_choice",
        })

    records.append({
        "id": "tf-01",
        "question": "is claim c1 true",
        "rationale": ["check premise p1 first", "premise p1 holds fine", "so verdict leans yes"],
        "answer": "yes",
        "wrong_answers": ["no"],
        "task_kind": "true_false",
    })
    records.append({
        "id": "tf-02",
        "question": "is claim c2 true",
        "rationale": ["check premise p2 first", "premise p2 fails badly"],
        "answer": "no",
        "wrong_answers": ["yes"],
        "task_kind": "true_false",
    })

    # one longer record for budget dynamics
    records.append({
        "id": "ff-long",
        "question": "what is job a9",
        "rationale": [
            "start with k9 now",
            "then add k1 now",
            "then add k2 now",
            "then add k3 now",
            "combine all parts now",
            "final value is r9",
        ],
        "answer": "ans9 done",
        "wrong_answers": [],
        "task_kind": "free_form",
    })
    return records


def pilot_records() -> list[dict]:
    records = []
    for j in range(PILOT_ELIGIBLE):
        units = [f"part s{i} mid" for i in range(1, PILOT_UNITS)]
        units.append(f"part s{PILOT_UNITS} fin")
        records.append({
            "id": f"pilot-{j:03d}",
            "question": f"solve case v{j % 5}",
            "rationale": units,
            "answer": "a1 a2",
            "wrong_answers": [],
            "task_kind": "free_form",
        })
    for c in range(PILOT_CALIBRATION):
        records.append({
            "id": f"calib-{c:03d}",
            "question": f"quick case w{c % 5}",
            "rationale": ["part s0 mid"],
            "answer": "a1 a2",
            "wrong_answers": [],
            "task_kind": "free_form",
        })
    return records


def long_answer_records() -> list[dict]:
    records = []
    for i in range(1, 9):
        length = 3 + i % 4
        records.append({
            "id": f"la-{i:02d}",
            "question": f"what is plan b{i}",
            "rationale": [f"start from b{i} here", f"then take step s{i % 3}",
                          "keep going on", f"end near e{i % 4}"],
            "answer": " ".join(f"w{i * j % 7}" for j in range(1, length + 1)),
            "wrong_answers": [],
            "task_kind": "free_form",
        })
    return records


def jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)


def write_jsonl(records: list[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(jsonl(records).encode("utf-8"))
    print(f"wrote {len(records):4d} records -> {path}")


def main() -> None:
    write_jsonl(reduction_records(), DATA_DIR / "fixture_corpus.jsonl")
    write_jsonl(pilot_records(), DATA_DIR / "pilot_synthetic.jsonl")
    write_jsonl(long_answer_records(), DATA_DIR / "long_answer_corpus.jsonl")


if __name__ == "__main__":
    main()
