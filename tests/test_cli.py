import argparse
import contextlib
import functools
import gc
import json
import math
import operator
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from varr import cli, metrics, schedule
from varr.cli import main
from varr.config import (
    BACKENDS,
    DECISION,
    EXECUTION,
    FIELDS,
    MAX_EPOCHS,
    MAX_IN_FLIGHT,
    PILOT_STRATEGIES,
    RunConfig,
    load_run_config,
)
from varr.corpus import GRANULARITIES, load_corpus
from varr.schedule import CANDIDATE_ORDERS
from varr.scorer import DEFAULT_TIMEOUT_MS, assemble_prompt, fit_tabular_scorer
from varr.segmenter import DEFAULT_ABBREVIATIONS
from varr.verbosity import MODES

from .conftest import FIXTURE_CORPUS, LONG_ANSWER_CORPUS, PILOT_CORPUS
from .mockserver import MockScorerServer, ScriptedReplyServer, corpus_score
from .oracles import trace_to_dict
from .test_corpus import WRONG_FIELD_TYPES


ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    return main(list(argv))


def write_lines(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def record_obj(rid, rationale):
    return {"id": rid, "question": "what is it", "rationale": rationale,
            "answer": "fine", "task_kind": "free_form"}


# --- ingest ------------------------------------------------------------------

def test_ingest_valid_file(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    write_lines(src, [record_obj(f"r{i}", ["One here.", "Two there."]) for i in range(3)])
    out = tmp_path / "corpus.jsonl"
    code = run_cli("ingest", "--input", str(src), "--output", str(out))
    assert code == 0
    assert "3 records" in capsys.readouterr().out
    assert len(load_corpus(out)) == 3


def test_ingest_duplicate_id_names_it(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    write_lines(src, [record_obj("dup", ["A one."]), record_obj("dup", ["B two."])])
    code = run_cli("ingest", "--input", str(src), "--output", str(tmp_path / "o.jsonl"))
    assert code == 1
    assert "dup" in capsys.readouterr().err


def test_ingest_raw_text_matches_segmenter_golden(tmp_path):
    src = tmp_path / "in.jsonl"
    obj = record_obj("r1", "He bikes 40 miles. So 200 miles total.")
    write_lines(src, [obj])
    out = tmp_path / "corpus.jsonl"
    assert run_cli("ingest", "--input", str(src), "--output", str(out)) == 0
    record = load_corpus(out)[0]
    assert [u.text for u in record.rationale] == [
        "He bikes 40 miles.", "So 200 miles total.",
    ]


def test_ingest_report_names_the_segmenter_settings_it_used(tmp_path):
    src = tmp_path / "in.jsonl"
    write_lines(src, [record_obj("r1", "One two. Three four.")])
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"segmenter": {"min_unit_chars": 50}}))
    out, report = tmp_path / "corpus.jsonl", tmp_path / "report.json"
    assert run_cli("ingest", "--input", str(src), "--output", str(out),
                   "--report", str(report), "--config", str(config)) == 0
    assert [u.text for u in load_corpus(out)[0].rationale] == ["One two. Three four."]
    assert json.loads(report.read_text())["segmenter"] == {
        "terminal_punctuation": ".?!",
        "abbreviation_exceptions": list(DEFAULT_ABBREVIATIONS),
        "min_unit_chars": 50,
    }


def test_ingest_reports_violations(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    bad = record_obj("mc", ["One here."])
    bad["task_kind"] = "multiple_choice"  # no wrong_answers
    write_lines(src, [bad])
    report = tmp_path / "report.json"
    out = tmp_path / "o.jsonl"
    code = run_cli("ingest", "--input", str(src), "--output", str(out), "--report", str(report))
    assert code == 1
    captured = capsys.readouterr()
    assert "violation [mc]" in captured.out and "wrong_answers" in captured.out
    assert captured.err == f"error: 1 violation(s) in corpus {src}\n"
    assert json.loads(report.read_text())["violations"]
    assert len(load_corpus(out)) == 1


def test_ingest_flags_an_empty_rationale_without_failing(tmp_path, capsys):
    # an empty list, and a blank string, which segments to no units
    src = tmp_path / "in.jsonl"
    write_lines(src, [record_obj("a", []), record_obj("b", " \t "), record_obj("c", ["One."])])
    out, report = tmp_path / "o.jsonl", tmp_path / "report.json"
    assert run_cli("ingest", "--input", str(src), "--output", str(out),
                   "--report", str(report)) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "flag [a]: rationale is empty", "flag [b]: rationale is empty"]
    summary = json.loads(report.read_text())
    assert summary["violations"] == []
    assert summary["flags"] == [{"record_id": "a", "note": "rationale is empty"},
                                {"record_id": "b", "note": "rationale is empty"}]
    assert [r.rationale for r in load_corpus(out)][:2] == [[], []]


# --- pilot -------------------------------------------------------------------

def test_pilot_emits_full_grid_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    for out in (out1, out2):
        code = run_cli("pilot", "--input", str(PILOT_CORPUS), "--out-dir", str(out),
                       "--sizes", "1,2,3,4", "--samples", "2", "--seed", "5",
                       "--alpha", "4.0")
        assert code == 0
    tsv1 = (out1 / "pilot.tsv").read_bytes()
    tsv2 = (out2 / "pilot.tsv").read_bytes()
    assert tsv1 == tsv2
    lines = tsv1.decode().strip().split("\n")
    assert len(lines) == 1 + 12  # header + 3 strategies x 4 sizes
    assert (out1 / "pilot.json").exists()


def test_pilot_check_ordering_passes_on_synthetic(tmp_path):
    code = run_cli("pilot", "--input", str(PILOT_CORPUS), "--out-dir",
                   str(tmp_path / "p"), "--alpha", "4.0", "--check-ordering")
    assert code == 0


def test_pilot_check_ordering_failure_exits_1_after_writing(tmp_path, capsys):
    # removing nothing leaves every mean at the baseline: no strict ordering
    out = tmp_path / "p"
    code = run_cli("pilot", "--input", str(PILOT_CORPUS), "--out-dir", str(out),
                   "--sizes", "0", "--check-ordering")
    assert code == 1
    assert capsys.readouterr().err == (
        "error: ordering check failed: expected back > random > front\n")
    assert sorted(p.name for p in out.iterdir()) == ["pilot.json", "pilot.tsv"]


# --- reduce ------------------------------------------------------------------

def test_reduce_full_warmup_identity(tmp_path):
    out = tmp_path / "run"
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                   "--warmup", "1.0", "--epochs", "2", "--batch-size", "4",
                   "--seed", "1")
    assert code == 0
    before = load_corpus(FIXTURE_CORPUS)
    after = load_corpus(out / "reduced.jsonl")
    for b, a in zip(before, after):
        assert [u.text for u in b.rationale] == [u.text for u in a.rationale]
    report = json.loads((out / "report.json").read_text())
    assert report["no_reductions_performed"] is True


def test_reduce_writes_all_artifacts_and_reduces(tmp_path):
    out = tmp_path / "run"
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                   "--mode", "varr", "--strategy", "front", "--epochs", "3",
                   "--batch-size", "4", "--seed", "7")
    assert code == 0
    for name in ("reduced.jsonl", "trace.json", "report.json", "report.txt",
                 "removal_ratio.tsv"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["removal_count"] > 0
    assert report["token_stats"]["reduction_percent"] > 0
    assert report["config"]["run"]["mode"] == "varr"
    assert report["config"]["paths"]["input"] == str(FIXTURE_CORPUS)


def test_reduce_determinism_across_out_dirs(tmp_path):
    fingerprints = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                       str(out), "--mode", "varr-plus", "--epochs", "3",
                       "--batch-size", "4", "--seed", "13")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        fingerprints.append(report["determinism_fingerprint"])
    assert fingerprints[0] == fingerprints[1]


def test_reduce_enforced_front(tmp_path):
    out = tmp_path / "run"
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                   "--strategy", "enforced-front:2", "--mode", "varr-plus",
                   "--epochs", "3", "--batch-size", "4", "--warmup", "0.0",
                   "--seed", "2")
    assert code == 0
    trace = json.loads((out / "trace.json").read_text())
    unconditional = [e for e in trace["events"] if e["unconditional"]]
    assert unconditional
    assert all(e["epoch"] <= 2 for e in unconditional)
    assert all(e["decision"] == "removed" for e in unconditional)


@pytest.mark.parametrize("strategy", ["no-rule", "enforced-front:2"])
def test_report_counts_unconditional_removals(tmp_path, strategy):
    out = tmp_path / "run"
    mode = [] if strategy == "no-rule" else ["--mode", "varr-plus"]
    assert run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                   "--strategy", strategy, *mode, "--epochs", "3", "--batch-size", "4",
                   "--warmup", "0.0", "--seed", "2") == 0
    events = json.loads((out / "trace.json").read_text())["events"]
    assert any(e["unconditional"] and e["decision"] == "removed" for e in events)
    removed = Counter(e["epoch"] for e in events if e["decision"] == "removed")
    potential = Counter()
    scans = {(e["epoch"], e["record_id"], e["t"]): e["budget"] for e in events}
    for (epoch, _, _), budget in scans.items():
        potential[epoch] += budget
    rows = [{"epoch": epoch, "removed_count": removed[epoch], "max_potential": potential[epoch],
             "ratio": removed[epoch] / potential[epoch] if potential[epoch] else 0.0}
            for epoch in (1, 2, 3)]
    report = json.loads((out / "report.json").read_text())
    assert report["removal_count"] == sum(removed.values()) > 0
    assert report["removal_ratio_curve"] == rows
    tsv = (out / "removal_ratio.tsv").read_text().splitlines()
    assert tsv == ["epoch\tremoved\tmax_potential\tratio"] + [
        f"{r['epoch']}\t{r['removed_count']}\t{r['max_potential']}\t{r['ratio']!r}" for r in rows]


def test_reduce_no_rule_with_mode_is_usage_error(tmp_path, capsys):
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                   str(tmp_path / "x"), "--strategy", "no-rule", "--mode", "varr")
    assert code == 1
    assert "no-rule" in capsys.readouterr().err
    assert not (tmp_path / "x" / "trace.json").exists()  # failed before any work


def test_reduce_unknown_flag_is_error(tmp_path):
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                   str(tmp_path / "x"), "--frobnicate")
    assert code == 1


def test_reduce_invalid_corpus_exits_one(tmp_path, capsys):
    src = tmp_path / "bad.jsonl"
    obj = record_obj("mc", ["One here."])
    obj["task_kind"] = "multiple_choice"
    write_lines(src, [obj])
    code = run_cli("reduce", "--input", str(src), "--out-dir", str(tmp_path / "x"))
    assert code == 1
    assert "wrong_answers" in capsys.readouterr().err


BAD_RECORDS = {
    **{f"{key}-type": {key: value} for key, value in WRONG_FIELD_TYPES},
    "blank-question": {"question": " "},
    "blank-wrong-answer": {"task_kind": "multiple_choice", "wrong_answers": ["m", " "]},
}


@pytest.mark.parametrize("fields", BAD_RECORDS.values(), ids=BAD_RECORDS)
def test_reduce_bad_record_exits_one_before_out_dir(tmp_path, capsys, fields):
    src = tmp_path / "bad.jsonl"
    write_lines(src, [record_obj("ok", ["One here."]),
                      {**record_obj("bad", ["One here."]), **fields}])
    out = tmp_path / "out"
    assert run_cli("reduce", "--input", str(src), "--out-dir", str(out),
                   "--mode", "varr-plus") == 1
    err = capsys.readouterr().err
    assert "line 2: field" in err or "violation [bad]" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("unit", GRANULARITIES)
def test_blank_pre_split_unit_exits_one_naming_the_field(tmp_path, capsys, unit):
    src = tmp_path / "bad.jsonl"
    write_lines(src, [record_obj("blank", ["One here.", "   "])])
    out = tmp_path / "out"
    assert run_cli("reduce", "--input", str(src), "--out-dir", str(out), "--unit", unit) == 1
    assert capsys.readouterr().err == (
        "error: line 1: field 'rationale' must be a string or a list of non-blank strings, "
        'got ["One here.", "   "]\n')
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["reduce", "--input", "{bad}", "--out-dir", "{tmp}/out"],
     "error: line 2: not valid UTF-8 (invalid start byte at byte 16)\n"),
    (["pilot", "--input", "{bad}", "--out-dir", "{tmp}/out"],
     "error: line 2: not valid UTF-8 (invalid start byte at byte 16)\n"),
    (["ingest", "--input", "{bad}", "--output", "{tmp}/out"],
     "error: line 2: not valid UTF-8 (invalid start byte at byte 16)\n"),
    (["reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", "{tmp}/out", "--config", "{bad}"],
     "error: cannot read config file {bad}: 'utf-8' codec can't decode byte 0xff in"
     " position {at}: invalid start byte\n"),
    (["score", "--question", "a", "--answer", "b", "--vocab", "a b",
      "--rationale-file", "{bad}"],
     "error: rationale file {bad} is not valid UTF-8: 'utf-8' codec can't decode byte"
     " 0xff in position {at}: invalid start byte\n"),
], ids=["reduce", "pilot", "ingest", "config", "score-rationale"])
def test_input_that_is_not_utf8_exits_one_naming_the_file_or_line(tmp_path, capsys, argv,
                                                                  message):
    bad = tmp_path / "bad"
    good = json.dumps(record_obj("ok", ["One here."])) + "\n"
    bad.write_bytes(good.encode() + b'{"id": "bad", "\xff": 1}\n')
    argv = [a.format(bad=bad, tmp=tmp_path) for a in argv]
    assert run_cli(*argv) == 1
    # the byte is the 16th of line 2
    assert capsys.readouterr().err == message.format(bad=bad, at=len(good) + 15)
    assert not (tmp_path / "out").exists()


NESTED = "[" * 200_000
LONG_INT = "1" * 5000


@pytest.mark.parametrize("corpus, config, message", [
    (NESTED, None,
     "error: line 2: JSON the parser refuses (arrays or objects nested too deeply)"),
    ('{"id": ' + LONG_INT + "}", None,
     "error: line 2: JSON the parser refuses (an integer of more than 4300 digits)"),
    (None, NESTED, "error: cannot read config file {config}: JSON the parser refuses"
     " (arrays or objects nested too deeply)"),
    (None, '{"schedule": {"epochs": ' + LONG_INT + "}}",
     "error: cannot read config file {config}: JSON the parser refuses"
     " (an integer of more than 4300 digits)"),
], ids=["corpus-nested", "corpus-long-int", "config-nested", "config-long-int"])
def test_json_the_parser_refuses_exits_one_naming_the_line_or_file(tmp_path, capsys, corpus,
                                                                   config, message):
    # json.loads raises RecursionError or a plain ValueError on these, which
    # used to end in an internal error (exit 3); its message for the integer
    # advises a programmer, not a user
    src, run_config = tmp_path / "corpus.jsonl", tmp_path / "run.json"
    src.write_text(json.dumps(record_obj("ok", ["One here."])) + "\n" + (corpus or "") + "\n")
    run_config.write_text(config or "{}")
    out = tmp_path / "out"
    assert run_cli("reduce", "--input", str(src), "--out-dir", str(out),
                   "--config", str(run_config)) == 1
    err = capsys.readouterr().err
    assert err == message.format(config=run_config) + "\n"
    assert "set_int_max_str_digits" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["id", "question", "rationale", "answer", "wrong_answers"])
def test_lone_surrogate_exits_one_before_any_output(tmp_path, capsys, key):
    # a JSON escape of half a surrogate pair loads as a str that no UTF-8
    # file can hold
    src = tmp_path / "bad.jsonl"
    obj = {**record_obj("ok", ["One here.", "Two there."]), "wrong_answers": ["no"]}
    obj[key] = [obj[key][0], "\ud800"] if isinstance(obj[key], list) else "a \ud800"
    src.write_text(json.dumps(obj) + "\n", encoding="ascii")
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli("reduce", "--input", str(src), "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: line 1: field {key!r} holds a lone surrogate, which is not UTF-8 text\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, flags", [
    ("pilot", ["--out-dir", "{tmp}/out"]),
    ("score", ["--question", "a", "--answer", "b"]),
])
def test_blank_answer_in_corpus_exits_one_naming_the_record(tmp_path, capsys, command, flags):
    src = tmp_path / "bad.jsonl"
    write_lines(src, [record_obj("ok", ["One here."]),
                      {**record_obj("blank", ["One here."]), "answer": " "}])
    corpus_flag = "--input" if command == "pilot" else "--fit-corpus"
    flags = [f.format(tmp=tmp_path) for f in flags]
    assert run_cli(command, corpus_flag, str(src), *flags) == 1
    err = capsys.readouterr().err
    assert "violation [blank]: answer is empty" in err
    assert not (tmp_path / "out").exists()


def test_choice_record_whose_wrong_answers_are_its_gold_exits_one(tmp_path, capsys):
    # varr-plus would keep each of its units unchecked, its negative pool being empty
    choice = {**record_obj("gold", ["One here.", "Two here.", "So y."]),
              "answer": "y", "wrong_answers": ["y"], "task_kind": "true_false"}
    src = tmp_path / "bad.jsonl"
    write_lines(src, [choice, {**choice, "id": "fair", "wrong_answers": ["n"]}])
    assert run_cli("reduce", "--input", str(src), "--out-dir", str(tmp_path / "out"),
                   "--strategy", "front", "--mode", "varr-plus", "--epochs", "2") == 1
    err = capsys.readouterr().err
    assert "violation [gold]: true_false record needs a wrong_answers entry" in err
    assert "[fair]" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags", [
    ("reduce", ["--input", "{src}", "--out-dir", "{tmp}/out"]),
    ("pilot", ["--input", "{src}", "--out-dir", "{tmp}/out"]),
    ("score", ["--fit-corpus", "{src}", "--question", "a", "--answer", "b"]),
])
def test_missing_remote_url_is_named_before_the_corpus_is_read(tmp_path, capsys, monkeypatch,
                                                               command, flags):
    monkeypatch.delenv("VARR_SCORER_URL", raising=False)
    src = tmp_path / "bad.jsonl"  # a corpus violation, if it were read
    write_lines(src, [{**record_obj("blank", ["One here."]), "question": " "}])
    flags = [f.format(src=src, tmp=tmp_path) for f in flags]
    assert run_cli(command, *flags, "--scorer", "remote") == 1
    assert capsys.readouterr().err == (
        "error: remote scorer needs a base URL (flag, config, or VARR_SCORER_URL)\n")
    assert not (tmp_path / "out").exists()


def test_ingest_builds_no_scorer_so_needs_no_url(tmp_path, monkeypatch):
    monkeypatch.delenv("VARR_SCORER_URL", raising=False)
    config = tmp_path / "remote.json"
    config.write_text(json.dumps({"scorer": {"backend": "remote"}}), encoding="utf-8")
    assert run_cli("ingest", "--input", str(FIXTURE_CORPUS), "--output",
                   str(tmp_path / "corpus.jsonl"), "--config", str(config)) == 0


@pytest.mark.parametrize("argv", [
    ["reduce", "--out-dir", "{tmp}/out"],
    ["reduce", "--out-dir", "{tmp}/out", "--scorer", "remote",
     "--scorer-url", "http://127.0.0.1:9"],
    ["pilot", "--out-dir", "{tmp}/out"],
    ["score", "--question", "a", "--answer", "b", "--fit-corpus"],
    ["ingest", "--output", "{tmp}/out"],
], ids=["reduce-tabular", "reduce-remote", "pilot", "score-fit-corpus", "ingest"])
def test_empty_corpus_exits_one_before_out_dir(tmp_path, capsys, argv):
    src = tmp_path / "empty.jsonl"
    src.write_text("\n", encoding="utf-8")
    argv = [a.format(tmp=tmp_path) for a in argv]
    if argv[-1] != "--fit-corpus":
        argv.append("--input")
    assert run_cli(*argv, str(src)) == 1
    err = capsys.readouterr().err
    assert err == f"error: corpus {src} holds no records\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("vocab, problem", [
    (" ", "vocabulary must be non-empty"),
    ("a a", "vocabulary contains duplicates"),
])
def test_score_bad_vocab_is_configuration_error(capsys, vocab, problem):
    assert run_cli("score", "--question", "a", "--answer", "a", "--vocab", vocab) == 1
    assert capsys.readouterr().err == f"error: --vocab {vocab!r}: {problem}\n"


@pytest.mark.parametrize("question, answer", [(" ", "a"), ("a", "")])
def test_score_blank_question_or_answer_exits_one(capsys, question, answer):
    # a blank answer used to exit 2 as a scorer failure
    assert run_cli("score", "--question", question, "--answer", answer, "--vocab", "a") == 1
    assert capsys.readouterr().err == "error: --question and --answer must not be blank\n"


@pytest.mark.parametrize("url, env, problem", [
    ("http://[::1", {}, "Invalid IPv6 URL"),
    ("http://h:99999", {}, "Port out of range"),
    ("http://127.0.0.1:9", {"http_proxy": "http://[::1"}, "Invalid IPv6 URL"),
    ("http://127.0.0.1:9", {"HTTP_PROXY": "proxy:99999"}, "Port out of range"),
    ("ftp://x", {}, "error: scorer URL 'ftp://x' is not an http or https URL\n"),
    # the score path is appended to the base URL, which a query would swallow
    ("http://h/p?x=1", {},
     "error: scorer URL 'http://h/p?x=1' has a query or fragment; give the base URL only\n"),
    # getaddrinfo would take a missing host for the loopback one
    ("http://127.0.0.1:9", {"http_proxy": ":8080"}, "error: proxy 'http://:8080' has no host\n"),
    ("http://127.0.0.1:9", {"HTTP_PROXY": "http://"}, "error: proxy 'http://' has no host\n"),
], ids=["ipv6", "port", "proxy-ipv6", "proxy-port", "scheme", "query", "proxy-no-host",
        "proxy-no-host-scheme-only"])
def test_bad_scorer_or_proxy_url_is_configuration_error(tmp_path, capsys, monkeypatch,
                                                        url, env, problem):
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    assert run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                   "--scorer", "remote", "--scorer-url", url) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert problem in err
    assert not out.exists()


def test_reduce_records_the_url_and_timeout_taken_from_the_environment(tmp_path, monkeypatch):
    def remote_trace(out, *flags):
        assert run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                       "--scorer", "remote", "--epochs", "2", "--seed", "3", *flags) == 0
        return json.loads((out / "trace.json").read_text())

    with MockScorerServer(score=corpus_score(FIXTURE_CORPUS)) as server:
        given = remote_trace(tmp_path / "flags", "--scorer-url", server.url,
                             "--timeout-ms", "4000")
        monkeypatch.setenv("VARR_SCORER_URL", server.url)
        monkeypatch.setenv("VARR_SCORER_TIMEOUT_MS", "4000")
        from_env = remote_trace(tmp_path / "env")
    assert from_env["config"]["execution"] == given["config"]["execution"] == {
        "scorer_url": server.url, "timeout_ms": 4000, "max_attempts": 3, "in_flight": 16}
    assert from_env["events"] == given["events"]


def test_unexpected_exception_exits_three_without_traceback(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("planted fault")

    monkeypatch.setattr(cli, "run_reduction", broken)
    assert reduce_fixture(tmp_path / "run") == 3
    err = capsys.readouterr().err
    assert err == "internal error: ValueError: planted fault\n"


def run_module(tmp_path, *argv, plant_fault=False) -> subprocess.CompletedProcess:
    """``python -m varr.cli reduce`` on the fixture with ``argv`` before the
    command, in a fresh interpreter: pytest's own root handler would turn
    ``logging.basicConfig`` into a no-op in this one. With ``plant_fault``,
    ``run_reduction`` raises a ValueError instead."""
    reduce = ["reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(tmp_path / "out"),
              "--mode", "varr", "--epochs", "3", "--batch-size", "4", "--seed", "3"]
    launch = ["-m", "varr.cli"]
    if plant_fault:
        launch = ["-c", "import sys, varr.cli\n"
                  "def broken(*args, **kwargs): raise ValueError('planted fault')\n"
                  "varr.cli.run_reduction = broken\n"
                  "sys.exit(varr.cli.main(sys.argv[1:]))\n"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *launch, *argv, *reduce],
                          env=env, capture_output=True, text=True, timeout=60)


def test_info_log_level_prints_each_epochs_removals_so_far(tmp_path):
    done = run_module(tmp_path, "--log-level", "info")
    assert done.returncode == 0, done.stderr
    events = json.loads((tmp_path / "out" / "trace.json").read_text())["events"]
    removed = [e["epoch"] for e in events if e["decision"] == "removed"]
    assert 0 < removed.count(3) < len(removed)
    assert done.stderr == "".join(
        f"INFO varr.schedule: epoch {k}/3 done: "
        f"{sum(epoch <= k for epoch in removed)} removals so far\n" for k in (1, 2, 3))


@pytest.mark.parametrize("level", [[], ["--log-level", "warning"], ["--log-level", "error"]],
                         ids=["default", "warning", "error"])
def test_log_levels_above_info_print_nothing_on_a_clean_run(tmp_path, level):
    done = run_module(tmp_path, *level)
    assert done.returncode == 0 and done.stdout
    assert done.stderr == ""


def test_debug_log_level_prints_an_internal_errors_traceback_first(tmp_path):
    done = run_module(tmp_path, "--log-level", "debug", plant_fault=True)
    assert done.returncode == 3
    assert done.stderr.startswith(
        "DEBUG varr: internal error\nTraceback (most recent call last):\n")
    assert done.stderr.endswith(
        "ValueError: planted fault\ninternal error: ValueError: planted fault\n")
    assert done.stderr.count("internal error: ") == 1
    # and without debug, only the one line
    done = run_module(tmp_path, plant_fault=True)
    assert (done.returncode, done.stderr) == (3, "internal error: ValueError: planted fault\n")


def test_reduce_remote_scorer_failure_exits_two(tmp_path, capsys):
    # a refused connection, then a server that answers every request with 503
    with MockScorerServer(status_script=[503] * 64) as busy:
        for name, url in (("refused", "http://127.0.0.1:9"), ("busy", busy.url)):
            out = tmp_path / name
            code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                           str(out), "--scorer", "remote",
                           "--scorer-url", url, "--timeout-ms", "100",
                           "--max-attempts", "1", "--epochs", "1", "--warmup", "0.0")
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("scorer transport failure: ") and err.count("\n") == 1, err
            assert [p.name for p in out.iterdir()] == ["trace.partial.json"]
        assert busy.requests  # the server answered, with 503


def test_partial_trace_records_the_config_of_a_finished_run(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("VARR_SCORER_TIMEOUT_MS", raising=False)
    # one server for both runs, so the URL is the same: its first request is
    # answered 503, which with one attempt fails the first run, then 200s
    out = tmp_path / "out"
    argv = ["reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
            "--scorer", "remote", "--max-attempts", "1", "--epochs", "2", "--warmup", "0.0"]
    with MockScorerServer(score=corpus_score(FIXTURE_CORPUS), status_script=[503]) as server:
        argv += ["--scorer-url", server.url]
        assert run_cli(*argv) == 2
        partial = json.loads((out / "trace.partial.json").read_text())["config"]
        assert run_cli(*argv) == 0
    finished = json.loads((out / "trace.json").read_text())["config"]
    assert set(partial) == {"trace_schema", "run", "schedule", "execution", "paths"}
    assert partial == finished
    # no flag, entry or variable set the timeout: the default the scorer ran with
    assert partial["execution"] == {
        "scorer_url": server.url, "timeout_ms": DEFAULT_TIMEOUT_MS, "max_attempts": 1,
        "in_flight": 16}
    assert partial["paths"] == {"input": str(FIXTURE_CORPUS), "out_dir": str(out)}


def test_reduce_against_a_server_that_totals_nan_exits_two(tmp_path, capsys):
    # json.loads reads NaN; a kept NaN score would write NaN into
    # trace.json, which is not JSON
    body = b'{"token_logprobs": [-1.0, -0.5], "total_logprob": NaN}'
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    out = tmp_path / "out"
    with ScriptedReplyServer([(reply, False)] * 64) as server:
        code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                       "--scorer", "remote", "--scorer-url", server.url,
                       "--epochs", "1", "--warmup", "0.0")
    assert code == 2
    assert capsys.readouterr().err == (
        "scorer failure: malformed scorer response:"
        " total_logprob nan is not the terms' sum -1.5\n")
    assert [p.name for p in out.iterdir()] == ["trace.partial.json"]


def test_reduce_against_a_server_that_nests_too_deeply_exits_two(tmp_path, capsys):
    # json.loads raises RecursionError on the reply, which used to escape
    # the reply check: exit 3 and no partial trace
    body = b"[" * 200_000
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    out = tmp_path / "out"
    with ScriptedReplyServer([(reply, False)] * 64) as server:
        code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                       "--scorer", "remote", "--scorer-url", server.url,
                       "--epochs", "1", "--warmup", "0.0")
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("scorer failure: malformed scorer response:"
                   " JSON the parser refuses (arrays or objects nested too deeply)\n")
    assert [p.name for p in out.iterdir()] == ["trace.partial.json"]


@pytest.mark.parametrize("argv", [
    ["reduce", "--input", "{missing}", "--out-dir", "{tmp}/out"],
    ["pilot", "--input", "{missing}", "--out-dir", "{tmp}/out"],
    ["ingest", "--input", "{missing}", "--output", "{tmp}/out.jsonl"],
    ["score", "--question", "a", "--answer", "b", "--vocab", "a b",
     "--rationale-file", "{missing}"],
    ["reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", "{tmp}/file"],
], ids=["reduce-input", "pilot-input", "ingest-input", "score-rationale",
        "reduce-out-dir-is-file"])
def test_bad_path_is_one_line_error(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("not a directory")
    argv = [a.format(missing=tmp_path / "missing.jsonl", tmp=tmp_path) for a in argv]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


# --- score -------------------------------------------------------------------

def test_score_uniform_vocab_four(capsys):
    code = run_cli("score", "--question", "a", "--answer", "b",
                   "--vocab", "a b c d")
    assert code == 0
    out = capsys.readouterr().out
    assert "1.386294" in out  # NLL = ln 4
    assert "total log-likelihood" in out


def test_score_repeat_identical(tmp_path, capsys):
    rationale = tmp_path / "r.txt"
    rationale.write_text("start with k1 now\nfinal value is r1\n", encoding="utf-8")
    argv = ("score", "--question", "what is job a1",
            "--rationale-file", str(rationale), "--answer", "ans1 done",
            "--fit-corpus", str(FIXTURE_CORPUS))
    assert run_cli(*argv) == 0
    first = capsys.readouterr().out
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == first
    assert "NLL" in first


def test_score_oov_symbol_exits_two(tmp_path, capsys):
    code = run_cli("score", "--question", "a", "--answer", "zebra",
                   "--vocab", "a b c d")
    assert code == 2
    assert "zebra" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", "{out}", "--alpha", "1e308"],
    ["reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", "{out}", "--alpha", "5e-324"],
    ["score", "--question", "a", "--answer", "b", "--vocab", "a b c", "--alpha", "1e308"],
    ["score", "--question", "what is job a1", "--answer", "ans1 done",
     "--fit-corpus", str(FIXTURE_CORPUS), "--alpha", "5e-324"],
], ids=["reduce-huge", "reduce-tiny", "score-vocab-huge", "score-fit-corpus-tiny"])
def test_alpha_that_rounds_a_probability_to_zero_exits_one(tmp_path, capsys, argv):
    # alpha * V overflows, or alpha / (row sum + alpha * V) underflows:
    # either rounds a probability to zero, whose log would fail
    out = tmp_path / "out"
    assert run_cli(*(arg.format(out=out) for arg in argv)) == 1
    assert capsys.readouterr().err == (
        f"error: smoothing_alpha {float(argv[-1])!r} rounds a smoothed probability to zero\n")
    assert not out.exists()


def test_score_tabular_needs_vocab_or_corpus(capsys):
    code = run_cli("score", "--question", "a", "--answer", "b")
    assert code == 1


def test_score_remote_against_mock(capsys):
    with MockScorerServer() as server:
        code = run_cli("score", "--question", "q", "--answer", "x y",
                       "--scorer", "remote", "--scorer-url", server.url)
    assert code == 0
    assert "-1.0" in capsys.readouterr().out


def test_help_lists_flags(capsys):
    assert run_cli("reduce", "--help") == 0
    out = capsys.readouterr().out
    for flag in ("--mode", "--strategy", "--unit", "--warmup", "--epochs",
                 "--k-negatives", "--batch-size", "--seed", "--scorer"):
        assert flag in out


def test_reduce_token_unit(tmp_path):
    out = tmp_path / "tok"
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                   "--unit", "token", "--mode", "varr", "--epochs", "2",
                   "--batch-size", "6", "--seed", "4")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["removal_count"] > 0
    reduced = [json.loads(line) for line in
               (out / "reduced.jsonl").read_text().splitlines()]
    # token units: retained rationale entries are single whitespace tokens
    assert all(len(u.split()) == 1 for obj in reduced for u in obj["rationale"])


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "schedule": {"epochs": 2, "batch_size": 6, "seed": 21},
        "strategy": {"candidate_order": "back", "mode": "varr"},
    }))
    out = tmp_path / "cfgrun"
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                   "--config", str(config), "--epochs", "3")
    assert code == 0
    trace = json.loads((out / "trace.json").read_text())
    assert trace["config"]["run"]["epochs"] == 3      # flag wins
    assert trace["config"]["run"]["batch_size"] == 6  # file wins
    assert trace["config"]["run"]["candidate_order"] == "back"
    assert trace["seed"] == 21


# A valid value other than the default for every RunConfig field.
OTHER_VALUES = {
    "epochs": 2, "batch_size": 3, "warmup_ratio": 0.2, "seed": 1,
    "candidate_order": "back", "mode": "varr", "unit": "token", "enforced_n": 3,
    "enforce_epochs": 1, "k_negatives": 2, "scorer_backend": "remote",
    "smoothing_alpha": 2.0, "template_id": "newline-v1",
    "scorer_url": "http://127.0.0.1:9", "scorer_model": "other", "timeout_ms": 50,
    "max_attempts": 5, "in_flight": 1, "terminal_punctuation": ".!",
    "abbreviation_exceptions": ["Dr."], "min_unit_chars": 3,
    "pilot_sizes": [2], "pilot_strategies": ["back"], "samples_per_record": 3,
}


def reduce_with_config(tmp_path, name, entries):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(entries))
    out = tmp_path / name
    assert run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                   "--config", str(config)) == 0
    return json.loads((out / "trace.json").read_text())


def reduce_on(tmp_path, backend, entries):
    """reduce_with_config on the tabular backend, or on the remote one
    against a mock server scoring with the fixture-fitted model."""
    if backend == "tabular":
        return reduce_with_config(tmp_path, backend, entries)
    with MockScorerServer(score=corpus_score(FIXTURE_CORPUS)) as server:
        scorer = {**entries.get("scorer", {}), "backend": "remote", "url": server.url}
        return reduce_with_config(tmp_path, backend, {**entries, "scorer": scorer})


def fingerprint(trace):
    return metrics.trace_fingerprint(metrics.ReductionTrace.from_dict(trace))


@pytest.fixture(scope="module")
def default_traces(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("default")
    return {backend: reduce_on(tmp, backend, {}) for backend in ("tabular", "remote")}


def test_other_values_cover_every_field():
    assert list(FIELDS) == list(RunConfig._fields) == list(OTHER_VALUES)


@pytest.mark.parametrize("name", FIELDS)
def test_setting_config_entry_and_fingerprint_role(tmp_path, default_traces, name):
    setting, value = FIELDS[name], OTHER_VALUES[name]
    entry = {setting.section: {setting.key: value}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(entry))
    got = getattr(load_run_config(config), name)
    assert got == (tuple(value) if isinstance(value, list) else value) != setting.default
    assert getattr(RunConfig(), name) == setting.default

    role, only = setting.role, setting.backend
    if name == "scorer_backend":
        trace = reduce_on(tmp_path, value, entry)
        assert trace["config"]["run"][name] == value
        assert fingerprint(trace) != fingerprint(default_traces["tabular"])
        return
    # a setting read by one backend only is run on both
    for backend in ("tabular", "remote") if only else ("tabular",):
        trace = reduce_on(tmp_path, backend, entry)
        default = default_traces[backend]
        assert set(trace["config"]["run"]) == {
            other for other, s in FIELDS.items()
            if s.role == DECISION and s.backend in (None, backend)}
        if role == DECISION and only in (None, backend):
            assert trace["config"]["run"][name] == value
            assert fingerprint(trace) != fingerprint(default)
        else:
            assert trace["events"] == default["events"]
            assert fingerprint(trace) == fingerprint(default)
            if role == EXECUTION and only in (None, backend):
                recorded = trace["config"]["execution"]
                assert name in recorded
                # reduce_on points a remote run's URL at its mock server
                if name != "scorer_url":
                    assert recorded[name] == value
            else:
                assert name not in json.dumps(trace["config"])


def test_tabular_run_records_no_remote_execution_settings(tmp_path):
    # the remote-only settings are neither read nor checked on the tabular
    # backend, so the trace does not claim them
    out = tmp_path / "out"
    assert run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                   "--timeout-ms", "-5", "--max-attempts", "0",
                   "--scorer-url", "not a url") == 0
    assert json.loads((out / "trace.json").read_text())["config"]["execution"] == {}


@pytest.mark.parametrize("argv", [
    ["reduce", "--input", "i", "--out-dir", "o", "--mode", "varr", "--unit", "token",
     "--warmup", "0.2", "--epochs", "2", "--batch-size", "3", "--k-negatives", "2",
     "--seed", "1", "--scorer", "remote", "--alpha", "2.0", "--template", "newline-v1",
     "--scorer-url", "http://127.0.0.1:9", "--scorer-model", "other",
     "--timeout-ms", "50", "--max-attempts", "5"],
    ["pilot", "--input", "i", "--out-dir", "o", "--sizes", "2", "--strategies", "back",
     "--samples", "3", "--seed", "1"],
    ["ingest", "--input", "i", "--output", "o", "--granularity", "token"],
], ids=["reduce", "pilot", "ingest"])
def test_setting_flags_set_their_fields(argv):
    args = cli.build_parser().parse_args(argv)
    given = set(FIELDS) & {
        name for name, value in vars(args).items() if value is not None}
    assert len(given) == sum(a.startswith("--") for a in argv) - 2
    cfg = load_run_config(None, vars(args))
    for name in given:
        value = OTHER_VALUES[name]
        assert getattr(cfg, name) == (tuple(value) if isinstance(value, list) else value)


def test_parser_choices_are_the_setting_vocabularies():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def option(command, flag):
        return next(a for a in commands[command]._actions if flag in a.option_strings)

    assert tuple(option("reduce", "--mode").choices) == MODES
    assert tuple(option("reduce", "--unit").choices) == GRANULARITIES
    assert tuple(option("ingest", "--granularity").choices) == GRANULARITIES
    assert tuple(option("reduce", "--scorer").choices) == BACKENDS
    strategy = option("reduce", "--strategy")
    for order in CANDIDATE_ORDERS:
        spelling = order.replace("_", "-")
        if order == "enforced_front":
            assert strategy.type(spelling + ":3") == (order, 3)
            spelling += ":N"
        else:
            assert strategy.type(spelling) == (order, None)
        assert spelling in strategy.help.split(" | ")
    assert option("pilot", "--strategies").help.startswith(
        f"comma list from {','.join(PILOT_STRATEGIES)} ")


def test_help_defaults_come_from_run_config(capsys):
    assert run_cli("reduce", "--help") == 0
    out = " ".join(capsys.readouterr().out.split())
    assert f"(default {RunConfig().epochs})" in out
    assert f"(default {RunConfig().max_attempts})" in out
    assert f"(default {RunConfig().warmup_ratio})" in out


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"schedule": {"epochz": 2}}))
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                   str(tmp_path / "x"), "--config", str(config))
    assert code == 1
    assert "epochz" in capsys.readouterr().err


@pytest.mark.parametrize("content, problem", [
    ("[1, 2]", "config file must hold a JSON object"),
    ('{"schedule": 3}', "config section 'schedule' must be an object"),
], ids=["file", "section"])
def test_config_that_is_not_an_object_exits_one(tmp_path, capsys, content, problem):
    config = tmp_path / "run.json"
    config.write_text(content)
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                   str(tmp_path / "x"), "--config", str(config))
    assert code == 1
    assert capsys.readouterr().err == f"error: {problem}\n"


def test_unknown_strategy_exits_one(tmp_path, capsys):
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                   str(tmp_path / "x"), "--strategy", "sideways")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: varr reduce ")
    assert err.endswith("\nerror: argument --strategy: unknown strategy 'sideways'\n")
    assert err.count("error: ") == 1


# each entry's type as its error message names it
ENTRY_TYPES = {
    ("schedule", "epochs"): "int",
    ("schedule", "warmup_ratio"): "float",
    ("scorer", "url"): "str | None",
    ("scorer", "timeout_ms"): "int | None",
    ("pilot", "sizes"): "tuple[int, ...]",
    ("pilot", "strategies"): "tuple[str, ...]",
}


@pytest.mark.parametrize("section, key, value", [
    ("schedule", "epochs", "3"),
    ("schedule", "warmup_ratio", True),
    ("scorer", "url", 8900),
    ("pilot", "sizes", [1, "2"]),
    ("schedule", "epochs", 2.0),
    ("schedule", "warmup_ratio", "0.1"),
    ("scorer", "timeout_ms", 1.5),
    ("pilot", "sizes", 3),
    ("pilot", "strategies", "back"),
    ("pilot", "strategies", ["back", 1]),
])
def test_config_file_wrong_type_rejected(tmp_path, capsys, section, key, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({section: {key: value}}))
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                   str(tmp_path / "x"), "--config", str(config))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: config entry {section}.{key} must be {ENTRY_TYPES[section, key]}, "
        f"got {json.dumps(value)}\n")


def test_run_config_is_immutable_and_equal_field_by_field():
    cfg = RunConfig(epochs=2)
    with pytest.raises(AttributeError):
        cfg.epochs = 3
    with pytest.raises(AttributeError):
        cfg.not_a_setting = 1
    assert cfg == RunConfig(epochs=2) != RunConfig()
    assert cfg.epochs == 2


def test_config_file_typed_values_accepted(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "schedule": {"warmup_ratio": 0},          # an integer is a valid float
        "scorer": {"url": None, "timeout_ms": 500},
        "pilot": {"sizes": [1, 2]},
    }))
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                   str(tmp_path / "ok"), "--config", str(config), "--epochs", "1")
    assert code == 0


@pytest.mark.parametrize("command, flags, entries", [
    ("reduce", ["--epochs", "0"], {}),
    ("reduce", [], {"schedule": {"epochs": MAX_EPOCHS + 1}}),
    ("reduce", ["--batch-size", "0"], {}),
    ("reduce", ["--warmup", "1.5"], {}),
    ("reduce", ["--warmup", "-0.1"], {}),
    ("reduce", ["--k-negatives", "0"], {}),
    ("reduce", [], {"strategy": {"candidate_order": "sideways"}}),
    ("reduce", [], {"strategy": {"candidate_order": "enforced_front", "enforced_n": 0}}),
    ("reduce", [], {"strategy": {"mode": "maybe"}}),
    ("reduce", [], {"strategy": {"unit": "word"}}),
    ("pilot", ["--samples", "0"], {}),
    ("pilot", ["--strategies", "front,sideways"], {}),
    ("pilot", [], {"pilot": {"strategies": []}}),
    ("pilot", ["--sizes", "1,-1"], {}),
    ("pilot", ["--check-ordering"], {"pilot": {"sizes": []}}),
    ("reduce", [], {"scorer": {"backend": "foo"}}),
    ("pilot", [], {"scorer": {"backend": "foo"}}),
    ("reduce", ["--alpha", "nan"], {}),
    ("reduce", ["--alpha", "0"], {}),
    ("reduce", ["--template", "nope"], {}),
    ("reduce", ["--template", "nope", "--scorer", "remote"], {}),
    ("pilot", ["--strategies", "front", "--check-ordering"], {}),
    ("reduce", [], {"segmenter": {"min_unit_chars": 0}}),
    ("reduce", [], {"segmenter": {"terminal_punctuation": ""}}),
    ("pilot", [], {"segmenter": {"min_unit_chars": 0}}),
    ("reduce", ["--scorer", "remote", "--timeout-ms", "0"], {}),
    # with a URL, so that only the timeout can fail before the corpus loads
    ("reduce", ["--scorer", "remote", "--scorer-url", "http://127.0.0.1:9",
                "--timeout-ms", "100000000000000000000"], {}),
    ("reduce", [], {"scorer": {"backend": "remote", "url": "http://127.0.0.1:9",
                               "timeout_ms": 2**31}}),
    ("reduce", ["--scorer", "remote", "--max-attempts", "0"], {}),
    ("reduce", [], {"scorer": {"backend": "remote", "in_flight": 0}}),
    # with a URL, so that only the concurrency can fail before the corpus loads
    ("reduce", [], {"scorer": {"backend": "remote", "url": "http://127.0.0.1:9",
                               "in_flight": MAX_IN_FLIGHT + 1}}),
], ids=["epochs", "epochs_too_large", "batch_size", "warmup_above", "warmup_below",
        "k_negatives", "candidate_order", "enforced_n", "mode", "unit", "samples_per_record",
        "pilot_strategies", "pilot_strategies_empty", "pilot_sizes", "pilot_sizes_empty",
        "scorer_backend",
        "scorer_backend_pilot", "smoothing_alpha_nan", "smoothing_alpha_zero",
        "template_id", "template_id_remote", "check_ordering_strategies",
        "min_unit_chars", "terminal_punctuation", "min_unit_chars_pilot",
        "timeout_ms", "timeout_ms_too_large", "timeout_ms_too_large_entry", "max_attempts",
        "in_flight", "in_flight_too_large"])
def test_out_of_range_setting_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                     command, flags, entries):
    loads = []
    monkeypatch.setattr(cli, "load_corpus", lambda *args: loads.append(args))
    config = tmp_path / "run.json"
    config.write_text(json.dumps(entries))
    out = tmp_path / "out"
    code = run_cli(command, "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                   "--config", str(config), *flags)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert loads == []
    assert not out.exists()


def test_reduce_varr_plus_needs_negatives(tmp_path, capsys):
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                   str(tmp_path / "x"), "--mode", "varr-plus", "--k-negatives", "0")
    assert code == 1
    assert "k_negatives" in capsys.readouterr().err
    # plain varr draws no negatives, so k is not used
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                   str(tmp_path / "y"), "--mode", "varr", "--k-negatives", "0",
                   "--epochs", "1")
    assert code == 0


def test_reduce_worker_exception_reaches_caller(tmp_path, monkeypatch):
    class Boom(Exception):
        pass

    raised = Boom("raised inside a worker scan")

    def evaluate(handle, record, *args, **kwargs):
        if record.id == "ff-02":
            raise raised
        return real(handle, record, *args, **kwargs)

    real = schedule.evaluate_candidate
    monkeypatch.setattr(schedule, "evaluate_candidate", evaluate)
    with MockScorerServer() as server:
        args = cli.build_parser().parse_args([
            "reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(tmp_path / "x"),
            "--scorer", "remote", "--scorer-url", server.url, "--epochs", "1",
            "--warmup", "0"])
        with pytest.raises(Boom) as exc:  # main() would map it to exit 3
            cli.cmd_reduce(args)
    assert exc.value is raised


REDUCE_OUTPUTS = ["reduced.jsonl", "removal_ratio.tsv", "report.json", "report.txt",
                  "trace.json"]


def reduce_fixture(out, *extra):
    return run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                   "--mode", "varr", "--epochs", "2", "--batch-size", "4", "--seed", "3",
                   *extra)


def test_reduce_loads_corpus_once_and_trace_parses_to_run_trace(tmp_path, monkeypatch):
    loads, traces = [], []

    def counting_load(*args, **kwargs):
        loads.append(args)
        return real_load(*args, **kwargs)

    def capturing_run(corpus, handle, settings, trace):
        real_run(corpus, handle, settings, trace)
        traces.append(trace)

    real_load, real_run = cli.load_corpus, cli.run_reduction
    monkeypatch.setattr(cli, "load_corpus", counting_load)
    monkeypatch.setattr(cli, "run_reduction", capturing_run)
    assert reduce_fixture(tmp_path / "run") == 0
    assert len(loads) == 1
    raw = (tmp_path / "run" / "trace.json").read_text(encoding="utf-8")
    # JSON has no tuples: tuples in config.run read back as lists.
    assert json.loads(raw) == json.loads(json.dumps(trace_to_dict(traces[0])))
    assert raw == json.dumps(trace_to_dict(traces[0]), sort_keys=True, separators=(",", ":"))


def test_reduce_leaves_no_temp_files(tmp_path):
    assert reduce_fixture(tmp_path / "run") == 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == REDUCE_OUTPUTS


def fixture_copies(tmp_path, copies: int) -> Path:
    """The fixture corpus ``copies`` times over, each copy's ids renamed."""
    records = [json.loads(line) for line in FIXTURE_CORPUS.read_text().splitlines()]
    path = tmp_path / f"fixture-x{copies}.jsonl"
    write_lines(path, [{**r, "id": f"{r['id']}-{c}"} for c in range(copies) for r in records])
    return path


@pytest.mark.parametrize("backend", BACKENDS)
def test_reduce_makes_no_garbage_that_grows_with_the_corpus(tmp_path, backend):
    # cmd_reduce pauses the cyclic collector, which is safe only while the
    # cycles a run leaves behind do not grow with its input
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scorer": {"in_flight": 16}}))

    def garbage(copies: int) -> int:
        corpus = fixture_copies(tmp_path, copies)
        argv = ["reduce", "--input", str(corpus), "--out-dir", str(tmp_path / f"out{copies}"),
                "--config", str(config)]
        with contextlib.ExitStack() as stack:
            if backend == "remote":
                server = stack.enter_context(MockScorerServer(score=corpus_score(corpus)))
                argv += ["--scorer", "remote", "--scorer-url", server.url]
            args = cli.build_parser().parse_args(argv)
            gc.disable()
            stack.callback(gc.enable)
            gc.collect()
            assert cli.cmd_reduce(args) == 0
            return gc.collect()

    assert garbage(1) == garbage(4)


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", ["success", "invalid_corpus", "scorer_failure"])
def test_reduce_restores_the_callers_collector_setting(tmp_path, collecting, outcome):
    invalid = tmp_path / "invalid.jsonl"
    write_lines(invalid, [record_obj("r1", ["One here."]), record_obj("r1", ["Two there."])])
    out = tmp_path / "out"
    argv = ["reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out), "--epochs", "1"]
    with contextlib.ExitStack() as stack:
        if outcome == "invalid_corpus":
            argv[2] = str(invalid)
        elif outcome == "scorer_failure":
            server = stack.enter_context(MockScorerServer(status_script=[503] * 64))
            argv += ["--scorer", "remote", "--scorer-url", server.url, "--max-attempts", "1"]
        stack.callback(gc.enable)
        (gc.enable if collecting else gc.disable)()
        code = run_cli(*argv)
        assert gc.isenabled() == collecting
    assert code == {"success": 0, "invalid_corpus": 1, "scorer_failure": 2}[outcome]
    assert (out / "trace.partial.json").exists() == (outcome == "scorer_failure")


def test_reduce_serialization_failure_keeps_previous_trace(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    assert reduce_fixture(out) == 0
    before = {name: (out / name).read_bytes() for name in REDUCE_OUTPUTS}

    def failing_encoding(trace, events_json=None, for_fingerprint=False):
        if not for_fingerprint:  # the fingerprint's encoding succeeds, trace.json's fails
            raise ValueError("cannot serialize")
        return real(trace, events_json, for_fingerprint)

    real = metrics.ReductionTrace.canonical_json
    monkeypatch.setattr(metrics.ReductionTrace, "canonical_json", failing_encoding)
    assert reduce_fixture(out, "--seed", "4") == 3  # an internal fault
    assert capsys.readouterr().err == "internal error: ValueError: cannot serialize\n"
    assert {name: (out / name).read_bytes() for name in REDUCE_OUTPUTS} == before
    assert sorted(p.name for p in out.iterdir()) == REDUCE_OUTPUTS


def test_reduce_law_violation_exits_3_before_writing(tmp_path, monkeypatch, capsys):
    calls = []

    def violated(trace, corpus=None):
        calls.append(corpus)
        return ["planted violation"]

    monkeypatch.setattr(metrics, "validate_trace", violated)
    out = tmp_path / "run"
    assert reduce_fixture(out) == 3
    assert "planted violation" in capsys.readouterr().err
    assert len(calls) == 1 and calls[0] is not None  # the reduced corpus, for the replay law
    assert list(out.iterdir()) == []


def test_reduce_replay_law_violation_exits_3_before_writing(tmp_path, monkeypatch, capsys):
    # the replay law alone, then with the ordering law, then with the budget
    # law: one line names every broken law
    def group(event):
        return event.record_id, event.epoch, event.step

    def unmarking_run(corpus, handle, settings, trace):
        real_run(corpus, handle, settings, trace)
        removed = next(e for e in trace.events if e.decision == metrics.DECISION_REMOVED)
        record = next(r for r in corpus if r.id == removed.record_id)
        record.rationale[removed.candidate_index].removed_at = None
        problems = ["trace removal events disagree with corpus removed_at marks"]
        if broken == "ordering":  # the first event moved behind the last
            trace.events.append(trace.events.pop(0))
            problems.insert(0, f"events out of (epoch, step) order at t={trace.events[-1].t}")
        if broken == "budget":  # every group at its budget, the first removal's one below
            counts = Counter(group(e) for e in trace.events
                             if e.decision == metrics.DECISION_REMOVED)
            trace.events[:] = [e._replace(budget=counts[group(e)] - (group(e) == group(removed)))
                               for e in trace.events]
            n = counts[group(removed)]
            problems.insert(0, f"group {group(removed)} removed {n} over budget {n - 1}")
        expected.append("internal invariant violation: " + "; ".join(problems) + "\n")

    real_run = cli.run_reduction
    monkeypatch.setattr(cli, "run_reduction", unmarking_run)
    expected = []
    for broken in (None, "ordering", "budget"):
        out = tmp_path / f"run-{broken}"
        assert reduce_fixture(out) == 3
        assert capsys.readouterr().err == expected[-1]
        assert list(out.iterdir()) == []


# Golden fingerprint for the pinned invocation below, produced by the
# reference-validated driver on the committed fixture corpus. Regenerate
# deliberately (rerun and update) whenever config surface or fixtures
# change; any unexplained difference is a behavior regression.
GOLDEN_FINGERPRINT = "be90fb7e1963647ce7e3d34cb9edd1f70a6c8352b06e9a9b1169ae0e7087c37c"


@pytest.fixture(scope="module")
def golden_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "out"
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                   "--mode", "varr-plus", "--strategy", "front", "--epochs", "3",
                   "--batch-size", "4", "--seed", "99")
    assert code == 0
    return out


def test_reduce_matches_committed_golden_fingerprint(golden_out):
    report = json.loads((golden_out / "report.json").read_text())
    assert report["determinism_fingerprint"] == GOLDEN_FINGERPRINT


# Pinned like GOLDEN_FINGERPRINT, on answers of 3 to 6 tokens. A tabular
# score is the correctly rounded sum of its terms (math.fsum), the same on
# every Python version; summed left to right, as Python 3.11's sum() does,
# la-01's gold score and so this fingerprint would differ.
LONG_ANSWER_FINGERPRINT = "1fb826ee2b1c960bc19553ea62203a7bc373f5dbd3143991d612de9c0d598847"


def test_reduce_long_answers_matches_pinned_fingerprint(tmp_path):
    corpus = load_corpus(LONG_ANSWER_CORPUS)
    record = corpus[0]
    terms = fit_tabular_scorer(corpus).score_answer(
        assemble_prompt(record, record.retained_indices()), record.answer).per_token
    assert functools.reduce(operator.add, terms) != math.fsum(terms)
    out = tmp_path / "out"
    code = run_cli("reduce", "--input", str(LONG_ANSWER_CORPUS), "--out-dir", str(out),
                   "--mode", "varr-plus", "--strategy", "back", "--epochs", "3",
                   "--batch-size", "4", "--seed", "7")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["determinism_fingerprint"] == LONG_ANSWER_FINGERPRINT


def test_trace_config_states_each_setting_once(golden_out):
    config = json.loads((golden_out / "trace.json").read_text())["config"]
    assert set(config) == {"trace_schema", "run", "schedule", "execution", "paths"}
    assert config["trace_schema"] == metrics.TRACE_SCHEMA
    assert set(config["schedule"]) == {"record_count", "steps_per_epoch", "total_steps"}

    def keys(obj):
        if isinstance(obj, dict):
            for key, value in obj.items():
                yield key
                yield from keys(value)
        elif isinstance(obj, list):
            for value in obj:
                yield from keys(value)

    names = set(FIELDS)
    elsewhere = {section: body for section, body in config.items()
                 if section not in ("run", "execution")}
    assert names.isdisjoint(keys(elsewhere))
    assert set(config["run"]).isdisjoint(config["execution"])
    assert set(config["run"]) | set(config["execution"]) <= names


def test_cli_import_loads_only_the_standard_library():
    # modules that site hooks load at startup belong to the interpreter, not varr
    # http.client and email (its header parser) are not needed either
    probe = ("import sys; started = set(sys.modules); import varr.cli; "
             "print(sorted({name.partition('.')[0] for name in set(sys.modules) - started}"
             " - sys.stdlib_module_names - {'varr'}), "
             "sorted(name for name in sys.modules"
             " if name == 'http.client' or name.partition('.')[0] == 'email'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] []"
    # Only a remote scorer uses these; -S keeps site hooks from loading
    # any of them before the probe looks. (ipaddress is not among them:
    # pathlib loads it, through urllib.parse.)
    remote_only = ("ssl", "netrc", "base64", "socket")
    probe = ("import sys; import varr.cli; "
             f"print(sorted(name for name in {remote_only} if name in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    # and only an https scorer uses ssl
    probe = ("import sys; from varr.scorer import RemoteScorer; "
             "RemoteScorer('http://127.0.0.1:9').close(); print('ssl' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# a reduce never needs these: dataclasses pulls in inspect, and varr
# imports logging only at --log-level info or debug
NOT_AT_START_UP = ("dataclasses", "inspect", "logging")


def reduce_loads(tmp_path, *argv) -> tuple[list[str], list[str]]:
    """The modules that ``import varr.cli`` loads, and those loaded once a
    ``varr reduce`` with ``argv`` has run, in a fresh interpreter. What site
    hooks load before varr is imported belongs to the interpreter, so each
    set is taken against that."""
    probe = ("import json, sys\n"
             "started = set(sys.modules)\n"
             "import varr.cli\n"
             "imported = set(sys.modules) - started\n"
             "code = varr.cli.main(sys.argv[1:])\n"
             "ran = set(sys.modules) - started\n"
             "print(json.dumps([code, sorted(imported), sorted(ran)]))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe, "reduce", "--input", str(FIXTURE_CORPUS),
         "--out-dir", str(tmp_path / "out"), "--epochs", "2", "--batch-size", "4", *argv],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    code, imported, ran = json.loads(done.stdout.splitlines()[-1])
    assert code == 0 and {"varr.cli", "varr.schedule"} <= set(imported)
    return imported, ran


def loaded_of(loaded: list[str], unwanted: tuple[str, ...]) -> list[str]:
    return [name for name in loaded if name in unwanted
            or name.startswith(tuple(u + "." for u in unwanted))]


def test_tabular_reduce_loads_no_scan_pool_pilot_or_network_module(tmp_path):
    # only concurrent scans use the pool, only `varr pilot` the pilot, and
    # only a remote scorer the network
    unwanted = ("concurrent.futures", "varr.pilot", "socket", "ssl", "netrc",
                *NOT_AT_START_UP)
    for loaded in reduce_loads(tmp_path):
        assert loaded_of(loaded, unwanted) == []


@pytest.mark.parametrize("in_flight", [1, 16])
def test_remote_reduce_loads_no_dataclasses_inspect_or_logging(tmp_path, in_flight):
    # concurrent.futures imports logging itself, so a pooled run (in_flight
    # > 1) has it loaded; an unpooled one loads neither
    unwanted = NOT_AT_START_UP if in_flight == 1 else ("dataclasses", "inspect")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scorer": {"in_flight": in_flight}}))
    with MockScorerServer(score=corpus_score(FIXTURE_CORPUS)) as server:
        imported, ran = reduce_loads(tmp_path, "--scorer", "remote",
                                     "--scorer-url", server.url, "--config", str(config))
    assert server.requests
    assert loaded_of(imported, ("varr.pilot", "socket", *NOT_AT_START_UP)) == []
    assert loaded_of(ran, unwanted) == []
    assert ("concurrent.futures" in ran) == (in_flight > 1)
