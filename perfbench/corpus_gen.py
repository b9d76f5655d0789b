"""Deterministic corpus generator with planted answer-predecessor structure.

An order-1 scorer conditions the answer on the last token of the context
only, so removing a unit changes the gold score only when that unit is
the last retained one. The generator therefore decides, per record, which
token ends the last and the second-to-last sentence. Six archetypes:

    ff-anchor  free-form; the last sentence ends with the answer's cue
               token c<j>. Removing it lowers the gold score: kept.
    ff-drift   free-form; the second-to-last sentence ends with the cue,
               the last with filler. Removing the last raises the gold
               score and barely moves wrong answers: removed.
    ff-plain   free-form, filler only: the criterion sees noise.
    mc-anchor  multiple choice; the last sentence ends with the hub token
               "hence.", which precedes options A/B/C/D in a 4:3:2:1 mix.
    mc-decoy   multiple choice; the second-to-last sentence ends with the
               hub. Removing the last raises every option's score, the
               common ones most, so a gold C or D fails the varr-plus
               contrast (a rejection) while a gold A or B passes.
    tf-plain   true/false, filler only.

The outcomes above are those of a scan that judges the last sentence
while the second-to-last is still retained, as back and random orders
do; front order removes the second-to-last first.

Usage:
    python perfbench/corpus_gen.py --seed 7 --records 100 [--raw] > corpus.jsonl
"""

from __future__ import annotations

import argparse
import json
import random
import sys

FILLERS = [f"f{i:03d}" for i in range(300)]
ANSWERS = 60
OPTIONS = ("optA", "optB", "optC", "optD")
OPTION_WEIGHTS = (4, 3, 2, 1)
HUB = "hence"
ARCHETYPES = (
    ("ff-anchor", 25),
    ("ff-drift", 20),
    ("ff-plain", 10),
    ("mc-anchor", 15),
    ("mc-decoy", 15),
    ("tf-plain", 15),
)


def _sentence(shape: random.Random, rng: random.Random, words: tuple[int, int],
              last: str | None) -> str:
    body = [rng.choice(FILLERS) for _ in range(shape.randint(*words))]
    if last is not None:
        body[-1] = last
    body[0] = body[0].capitalize()
    return " ".join(body) + "."


def _record(shape: random.Random, rng: random.Random, index: int,
            sentences: tuple[int, int], words: tuple[int, int]) -> dict:
    names = [name for name, _ in ARCHETYPES]
    archetype = shape.choices(names, weights=[w for _, w in ARCHETYPES])[0]
    n = shape.randint(*sentences)
    two_token_answer = shape.random() < 0.3
    question_words = shape.randint(3, 6)
    wrong: list[str] = []
    last_word = penultimate_word = None
    if archetype.startswith("ff"):
        j = rng.randrange(ANSWERS)
        answer = f"a{j} units" if two_token_answer else f"a{j}"
        task_kind = "free_form"
        if archetype == "ff-anchor":
            last_word = f"c{j}"
        elif archetype == "ff-drift":
            penultimate_word = f"c{j}"
    elif archetype.startswith("mc"):
        answer = rng.choices(OPTIONS, weights=OPTION_WEIGHTS)[0]
        wrong = [o for o in OPTIONS if o != answer]
        task_kind = "multiple_choice"
        if archetype == "mc-anchor":
            last_word = HUB
        else:
            penultimate_word = HUB
    else:
        answer = rng.choice(("true", "false"))
        wrong = ["false" if answer == "true" else "true"]
        task_kind = "true_false"
    texts = []
    for pos in range(n):
        cue = last_word if pos == n - 1 else penultimate_word if pos == n - 2 else None
        texts.append(_sentence(shape, rng, words, cue))
    question = "what about " + " ".join(rng.choice(FILLERS) for _ in range(question_words))
    return {
        "id": f"r{index:05d}",
        "archetype": archetype,
        "question": question,
        "sentences": texts,
        "answer": answer,
        "wrong_answers": wrong,
        "task_kind": task_kind,
    }


def generate(seed: int, records: int, sentences=(6, 10), words=(4, 8)) -> list[dict]:
    """The same seed and sizes always give the same records.

    The shape of record i (archetype, sentence and word counts, answer
    length) is the same for every seed, so the schedule's work barely
    varies between seeds; the seed draws the words, answers and options.
    """
    shape = random.Random("perfbench-shape")
    rng = random.Random(f"perfbench-corpus:{seed}")
    return [_record(shape, rng, i, sentences, words) for i in range(records)]


def corpus_line(rec: dict, raw: bool) -> str:
    """One input line; a raw rationale is left for varr's segmenter to split."""
    rationale = " ".join(rec["sentences"]) if raw else rec["sentences"]
    return json.dumps({
        "id": rec["id"],
        "question": rec["question"],
        "rationale": rationale,
        "answer": rec["answer"],
        "wrong_answers": rec["wrong_answers"],
        "task_kind": rec["task_kind"],
    })


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--records", type=int, required=True)
    parser.add_argument("--raw", action="store_true", help="rationale as one string")
    args = parser.parse_args()
    for rec in generate(args.seed, args.records):
        sys.stdout.write(corpus_line(rec, args.raw) + "\n")


if __name__ == "__main__":
    main()
