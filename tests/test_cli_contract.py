"""Property test of the CLI contract on generated inputs.

Whatever the corpus lines, config-file entries, flag values and faults
in the bytes of the files it reads, ``varr`` exits 0, 1 or 2, never 3
(an internal fault), prints no traceback, ends the stderr of an exit 1
with one ``error: ...`` line, and a ``reduce`` that exits 1 leaves no
out-dir. Every run is on the tabular backend: no generated setting
names the remote scorer or a URL. The model is fitted on the
corpus, so a scorer failure (exit 2) in ``reduce`` or ``pilot`` would be
a bad input that validation let through.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from varr.cli import main
from varr.corpus import TASK_KINDS


def sometimes(good, bad, one_in=6):
    """``bad`` one draw in ``one_in``, else ``good``."""
    return st.sampled_from([good] * (one_in - 1) + [bad]).flatmap(lambda s: s)


# non-blank text, some of it non-ASCII; blank text; JSON values of a wrong type
words = st.one_of(
    st.sampled_from(["a b", "X y.", "So é 2. Then 中 3!", "e.g. Dr. Lee"]),
    st.text(alphabet="ab Xé中.?!\t", min_size=1, max_size=10).filter(str.strip),
)
blanks = st.sampled_from(["", " ", "\t"])
wrong_types = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 2), st.just({"k": "v"}),
    st.lists(st.one_of(st.none(), st.integers(0, 2), words, blanks), max_size=3),
)
FIELDS = {
    "question": words,
    "rationale": st.one_of(words, st.lists(st.one_of(words, blanks), max_size=4)),
    "answer": words,
    "wrong_answers": st.lists(words, min_size=1, max_size=3),
    "task_kind": st.sampled_from([*TASK_KINDS, "essay"]),
}


# JSON that json.loads refuses although it is well formed: nesting deeper
# than its recursion limit, and an integer longer than int() converts.
# json.dumps cannot write the integer, so both are raw text.
REFUSED = ["[" * 200_000, '{"id": ' + "1" * 5000 + "}"]


@st.composite
def corpus_line(draw, index):
    """A valid record, or one with a field dropped, blank or of a wrong type,
    or a duplicate id; or a line that is not a record."""
    obj = {"id": sometimes(st.just(f"r{index}"), st.sampled_from(["r0", 0, "é"]), 8),
           **FIELDS}
    obj = {key: draw(value) for key, value in obj.items()}
    if draw(st.integers(0, 5)) == 5:
        key = draw(st.sampled_from(sorted(obj)))
        fault = draw(st.sampled_from(["drop", "blank", "type"]))
        if fault == "drop":
            del obj[key]
        else:
            obj[key] = draw(blanks if fault == "blank" else wrong_types)
    return draw(sometimes(st.just(json.dumps(obj)),
                          st.sampled_from(["{oops", "[]", "null", "", "\"x\"", *REFUSED]), 10))


# Faults in a file's bytes: a byte that is not UTF-8, a UTF-8 byte order
# mark, a JSON escape of a lone surrogate, CRLF line ends and NUL. Each
# file, the corpus (--input or --fit-corpus), --config and
# --rationale-file, has one or none.
BYTE_FAULTS = ("invalid", "bom", "surrogate", "crlf", "nul")
file_faults = st.fixed_dictionaries({
    door: sometimes(st.none(), st.tuples(st.sampled_from(BYTE_FAULTS), st.integers(0, 999)), 3)
    for door in ("corpus", "config", "rationale")
})
NO_FAULTS = {"corpus": None, "config": None, "rationale": None}


def with_fault(text: str, fault: tuple[str, int] | None) -> bytes:
    """``text`` as UTF-8, with ``fault`` applied: (kind, byte offset)."""
    data = text.encode("utf-8")
    if fault is None:
        return data
    kind, at = fault
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    at %= len(data) + 1
    inserted = {"invalid": b"\xff", "surrogate": b"\\ud800", "nul": b"\x00"}[kind]
    return data[:at] + inserted + data[at:]


# config-file entries; the scorer backend and URL are left at their defaults
CONFIG_VALUES = {
    ("schedule", "epochs"): [1, 2, 0, "2"],
    ("schedule", "batch_size"): [1, 3, 0],
    ("schedule", "warmup_ratio"): [0, 0.5, 1.5, None],
    ("strategy", "candidate_order"): ["back", "random", "sideways"],
    ("strategy", "mode"): ["varr", "maybe"],
    ("strategy", "unit"): ["token", "word"],
    ("strategy", "enforced_n"): [1, 0],
    ("negatives", "k"): [1, 0],
    ("scorer", "smoothing_alpha"): [2.0, 0, -1],
    ("scorer", "template_id"): ["newline-v1", "nope"],
    ("segmenter", "terminal_punctuation"): [".!", ""],
    ("segmenter", "abbreviation_exceptions"): [["Dr."], [], "Dr."],
    ("segmenter", "min_unit_chars"): [1, 5, 0],
    ("pilot", "sizes"): [[0], [1, 2], [-1]],
    ("pilot", "strategies"): [["back"], [], ["sideways"]],
    ("pilot", "samples_per_record"): [1, 0],
    ("schedule", "epochz"): [1],
}
config_entry = st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
    lambda entry: st.tuples(st.just(entry), st.sampled_from(CONFIG_VALUES[entry])))

FLAG_VALUES = {
    "reduce": {
        "--epochs": ["1", "2", "0", "x"], "--batch-size": ["1", "3", "0"],
        "--warmup": ["0", "0.5", "1.5", "nan"], "--unit": ["sentence", "token", "word"],
        "--mode": ["varr", "varr-plus", "maybe"], "--k-negatives": ["1", "2", "0"],
        "--strategy": ["front", "back", "random", "no-rule", "enforced-front:1",
                       "enforced-front:0"],
        "--alpha": ["1", "0", "inf", "nan"], "--template": ["plain-v1", "newline-v1", "nope"],
        "--seed": ["0", "7", "-1"],
    },
    "pilot": {
        "--sizes": ["1,2", "0", "1,-1", "x"], "--strategies": ["front,random,back", "front", ""],
        "--samples": ["1", "2", "0"], "--alpha": ["1", "nan"], "--check-ordering": [None],
    },
    "ingest": {"--granularity": ["sentence", "token"]},
    "score": {"--question": ["a b", " ", "é"], "--answer": ["b", "", " ", "zz"],
              "--alpha": ["1", "inf"]},
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAG_VALUES)))
    choices = FLAG_VALUES[command]
    flags = []
    for flag in draw(st.lists(st.sampled_from(sorted(choices)), max_size=3, unique=True)):
        value = draw(st.sampled_from(choices[flag]))
        flags += [flag] if value is None else [flag, value]
    size = draw(sometimes(st.integers(1, 4), st.just(0), 10))
    lines = [draw(corpus_line(index)) for index in range(size)]
    entries = draw(sometimes(st.just([]), st.lists(config_entry, min_size=1, max_size=2), 2))
    sections = {}
    for (section, key), value in entries:
        sections.setdefault(section, {})[key] = value
    return command, lines, json.dumps(sections), flags


# --sizes 0 meets --check-ordering: every mean is the baseline, so the check fails
VALID_LINE = json.dumps({"id": "r0", "question": "a b", "rationale": "X y. So é 2.",
                         "answer": "a", "task_kind": "free_form"})


@given(invocations(), st.lists(words, max_size=3), file_faults)
@example(("pilot", [VALID_LINE], "{}", ["--sizes", "0", "--check-ordering"]), [], NO_FAULTS)
@example(("reduce", [VALID_LINE, REFUSED[0]], "{}", []), [], NO_FAULTS)
@example(("reduce", [REFUSED[1]], "{}", []), [], NO_FAULTS)
@example(("reduce", [VALID_LINE], REFUSED[0], []), [], NO_FAULTS)
@example(("score", [VALID_LINE], '{"schedule": {"epochs": ' + "1" * 5000 + "}}", []), [],
         NO_FAULTS)
@example(("reduce", [VALID_LINE], "{}", []), [], {**NO_FAULTS, "corpus": ("crlf", 0)})
@example(("score", [VALID_LINE], "{}", []), ["X y", "So"],
         {"corpus": ("bom", 0), "config": ("nul", 1), "rationale": ("nul", 3)})
@settings(derandomize=True, deadline=None, max_examples=200)
def test_cli_exit_codes_and_outputs_on_generated_inputs(tmp_path_factory, invocation,
                                                        rationale_lines, faults):
    command, lines, config_text, flags = invocation
    tmp = tmp_path_factory.mktemp("contract")
    corpus, config, out = tmp / "corpus.jsonl", tmp / "run.json", tmp / "out"
    rationale = tmp / "rationale.txt"
    corpus.write_bytes(with_fault("".join(f"{text}\n" for text in lines), faults["corpus"]))
    config.write_bytes(with_fault(config_text, faults["config"]))
    rationale.write_bytes(with_fault("".join(f"{text}\n" for text in rationale_lines),
                                     faults["rationale"]))
    for door, fault in faults.items():
        if fault is not None:
            event(f"{door} has {fault[0]}")
    argv = [command, "--config", str(config)]
    if command == "score":
        argv += ["--question", "a", "--answer", "b", "--fit-corpus", str(corpus),
                 "--rationale-file", str(rationale)]
    elif command == "ingest":
        argv += ["--input", str(corpus), "--output", str(tmp / "norm.jsonl")]
    else:
        argv += ["--input", str(corpus), "--out-dir", str(out)]
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = main(argv + flags)
    event(f"{command} exits {code}")
    assert code in (0, 1, 2), (argv + flags, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    if code == 1:
        assert stderr.getvalue().splitlines()[-1].startswith("error: "), stderr.getvalue()
    if command in ("reduce", "pilot"):
        assert code != 2, (argv + flags, lines, stderr.getvalue())
    if command == "reduce" and code == 1:
        assert not out.exists(), stderr.getvalue()
