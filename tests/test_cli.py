import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from varr import cli, metrics, schedule
from varr.cli import main
from varr.config import BACKENDS, DECISION, EXECUTION, RunConfig, load_run_config
from varr.corpus import GRANULARITIES, load_corpus
from varr.pilot import PILOT_STRATEGIES
from varr.schedule import CANDIDATE_ORDERS
from varr.verbosity import MODES

from .conftest import FIXTURE_CORPUS, PILOT_CORPUS
from .mockserver import MockScorerServer, corpus_score


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
    record = load_corpus(out).records[0]
    assert [u.text for u in record.rationale] == [
        "He bikes 40 miles.", "So 200 miles total.",
    ]


def test_ingest_reports_violations(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    bad = record_obj("mc", ["One here."])
    bad["task_kind"] = "multiple_choice"  # no wrong_answers
    write_lines(src, [bad])
    report = tmp_path / "report.json"
    code = run_cli("ingest", "--input", str(src), "--output",
                   str(tmp_path / "o.jsonl"), "--report", str(report))
    assert code == 1
    assert "wrong_answers" in capsys.readouterr().out
    assert json.loads(report.read_text())["violations"]


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


# --- reduce ------------------------------------------------------------------

def test_reduce_full_warmup_identity(tmp_path):
    out = tmp_path / "run"
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir", str(out),
                   "--warmup", "1.0", "--epochs", "2", "--batch-size", "4",
                   "--seed", "1")
    assert code == 0
    before = load_corpus(FIXTURE_CORPUS)
    after = load_corpus(out / "reduced.jsonl")
    for b, a in zip(before.records, after.records):
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


def test_reduce_remote_scorer_failure_exits_two(tmp_path, capsys):
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                   str(tmp_path / "x"), "--scorer", "remote",
                   "--scorer-url", "http://127.0.0.1:9", "--timeout-ms", "100",
                   "--max-attempts", "1", "--epochs", "1", "--warmup", "0.0")
    assert code == 2


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
    assert [f.name for f in dataclasses.fields(RunConfig)] == list(OTHER_VALUES)


@pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
def test_setting_config_entry_and_fingerprint_role(tmp_path, default_traces, field):
    value = OTHER_VALUES[field.name]
    entry = {field.metadata["section"]: {field.metadata["key"]: value}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(entry))
    got = getattr(load_run_config(config), field.name)
    assert got == (tuple(value) if isinstance(value, list) else value) != field.default

    role, only = field.metadata["role"], field.metadata["backend"]
    if field.name == "scorer_backend":
        trace = reduce_on(tmp_path, value, entry)
        assert trace["config"]["run"][field.name] == value
        assert fingerprint(trace) != fingerprint(default_traces["tabular"])
        return
    # a setting read by one backend only is run on both
    for backend in ("tabular", "remote") if only else ("tabular",):
        trace = reduce_on(tmp_path, backend, entry)
        default = default_traces[backend]
        assert set(trace["config"]["run"]) == {
            f.name for f in dataclasses.fields(RunConfig)
            if f.metadata["role"] == DECISION and f.metadata["backend"] in (None, backend)}
        if role == DECISION and only in (None, backend):
            assert trace["config"]["run"][field.name] == value
            assert fingerprint(trace) != fingerprint(default)
        else:
            assert trace["events"] == default["events"]
            assert fingerprint(trace) == fingerprint(default)
            if role == EXECUTION:
                assert trace["config"]["execution"][field.name] == value
            else:
                assert field.name not in json.dumps(trace["config"])


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
    given = {f.name for f in dataclasses.fields(RunConfig)} & {
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
    assert f"(default {RunConfig.epochs})" in out
    assert f"(default {RunConfig.max_attempts})" in out
    assert f"(default {RunConfig.warmup_ratio})" in out


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"schedule": {"epochz": 2}}))
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                   str(tmp_path / "x"), "--config", str(config))
    assert code == 1
    assert "epochz" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("schedule", "epochs", "3"),
    ("schedule", "warmup_ratio", True),
    ("scorer", "url", 8900),
    ("pilot", "sizes", [1, "2"]),
])
def test_config_file_wrong_type_rejected(tmp_path, capsys, section, key, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({section: {key: value}}))
    code = run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                   str(tmp_path / "x"), "--config", str(config))
    assert code == 1
    assert f"{section}.{key} must be" in capsys.readouterr().err


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
    ("reduce", [], {"scorer": {"backend": "foo"}}),
    ("pilot", [], {"scorer": {"backend": "foo"}}),
    ("reduce", ["--alpha", "nan"], {}),
    ("reduce", ["--alpha", "0"], {}),
    ("reduce", ["--template", "nope"], {}),
    ("reduce", ["--template", "nope", "--scorer", "remote"], {}),
], ids=["epochs", "batch_size", "warmup_above", "warmup_below", "k_negatives",
        "candidate_order", "enforced_n", "mode", "unit", "samples_per_record",
        "pilot_strategies", "pilot_strategies_empty", "pilot_sizes", "scorer_backend",
        "scorer_backend_pilot", "smoothing_alpha_nan", "smoothing_alpha_zero",
        "template_id", "template_id_remote"])
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
        with pytest.raises(Boom) as exc:
            run_cli("reduce", "--input", str(FIXTURE_CORPUS), "--out-dir",
                    str(tmp_path / "x"), "--scorer", "remote",
                    "--scorer-url", server.url, "--epochs", "1", "--warmup", "0")
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

    def capturing_run(*args, **kwargs):
        traces.append(real_run(*args, **kwargs))
        return traces[-1]

    real_load, real_run = cli.load_corpus, cli.run_reduction
    monkeypatch.setattr(cli, "load_corpus", counting_load)
    monkeypatch.setattr(cli, "run_reduction", capturing_run)
    assert reduce_fixture(tmp_path / "run") == 0
    assert len(loads) == 1
    raw = (tmp_path / "run" / "trace.json").read_text(encoding="utf-8")
    # JSON has no tuples: tuples in config.run read back as lists.
    assert json.loads(raw) == json.loads(json.dumps(traces[0].to_dict()))
    assert raw == json.dumps(traces[0].to_dict(), sort_keys=True, separators=(",", ":"))


def test_reduce_leaves_no_temp_files(tmp_path):
    assert reduce_fixture(tmp_path / "run") == 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == REDUCE_OUTPUTS


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
    assert reduce_fixture(out, "--seed", "4") == 1
    assert "cannot serialize" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in REDUCE_OUTPUTS} == before
    assert sorted(p.name for p in out.iterdir()) == REDUCE_OUTPUTS


def test_reduce_law_violation_exits_3_before_writing(tmp_path, monkeypatch, capsys):
    calls = []

    def violated(trace):
        calls.append(trace)
        return ["planted violation"]

    monkeypatch.setattr(metrics, "validate_trace", violated)
    out = tmp_path / "run"
    assert reduce_fixture(out) == 3
    assert "planted violation" in capsys.readouterr().err
    assert len(calls) == 1
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

    names = {f.name for f in dataclasses.fields(RunConfig)}
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
