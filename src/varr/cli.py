"""Command-line entry point.

    varr ingest --input raw.jsonl --output corpus.jsonl
    varr pilot  --input corpus.jsonl --out-dir out/
    varr reduce --input corpus.jsonl --out-dir out/ --mode varr-plus
    varr score  --question "..." --rationale-file r.txt --answer "..."

Exit codes: 0 success; 1 usage, configuration or input error, a file
that cannot be read or written, or a failed ``pilot --check-ordering``;
2 scorer or transport failure; 3 internal fault (a broken invariant or
any other unexpected exception). A command raises every failure to
``main``, which alone maps it to its exit code and prints its one stderr
line; ``reduce`` first saves ``trace.partial.json`` when the scorer
fails mid-run, and ``ingest`` and ``pilot`` write their outputs first.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from . import config as config_mod
from . import metrics
from .corpus import (
    GRANULARITIES,
    RationaleRecord,
    load_corpus,
    validate_corpus,
    write_corpus,
    write_reduced,
    write_text_atomic,
)
from .errors import (
    ConfigurationError,
    InternalInvariantError,
    ScorerError,
    TransportError,
    ValidationError,
    VarrError,
)
from .schedule import CANDIDATE_ORDERS, run_reduction
from .scorer import DEFAULT_TIMEOUT_MS, PromptAssembly, ScorerHandle, TabularScorer
from .verbosity import MODES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCORER = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for scorers."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_setting(parser: argparse.ArgumentParser, flag: str, dest: str,
                 text: str = "", **kwargs) -> None:
    """A flag that overrides the RunConfig field ``dest`` when given."""
    default = config_mod.FIELDS[dest].default
    if default is not None:
        if isinstance(default, tuple):
            default = ",".join(map(str, default))
        text = f"{text} (default {default})".lstrip()
    if "choices" not in kwargs:  # name the value after the flag, not the field
        kwargs["metavar"] = flag[2:].upper().replace("-", "_")
    parser.add_argument(flag, dest=dest, default=None, help=text, **kwargs)


def _strategy(raw: str) -> tuple[str, int | None]:
    """--strategy spelling -> (candidate_order, enforced_n or None).

    Accepts each candidate order, hyphens for underscores; enforced-front
    takes its count as enforced-front:N.
    """
    name = raw.replace("-", "_")
    if name.startswith("enforced_front"):
        parts = name.split(":")
        if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
            raise argparse.ArgumentTypeError(
                "enforced-front takes a positive count, e.g. enforced-front:2"
            )
        return "enforced_front", int(parts[1])
    if name in CANDIDATE_ORDERS:
        return name, None
    raise argparse.ArgumentTypeError(f"unknown strategy {raw!r}")


def _int_list(raw: str) -> list[int]:
    try:
        return [int(s) for s in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {raw!r}") from None


def _add_scorer_flags(parser: argparse.ArgumentParser) -> None:
    _add_setting(parser, "--scorer", "scorer_backend", "likelihood backend",
                 choices=config_mod.BACKENDS)
    _add_setting(parser, "--alpha", "smoothing_alpha",
                 "additive smoothing for the tabular backend", type=float)
    _add_setting(parser, "--template", "template_id", "prompt template id")
    _add_setting(parser, "--scorer-url", "scorer_url",
                 "remote base URL (or env VARR_SCORER_URL)")
    _add_setting(parser, "--scorer-model", "scorer_model",
                 "model name sent to the remote endpoint")
    _add_setting(parser, "--timeout-ms", "timeout_ms",
                 "remote timeout of each connect and read in ms (or env "
                 f"VARR_SCORER_TIMEOUT_MS; default {DEFAULT_TIMEOUT_MS})", type=int)
    _add_setting(parser, "--max-attempts", "max_attempts",
                 "remote attempts incl. retries", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="varr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load, validate, and normalize a corpus")
    p_ingest.add_argument("--input", required=True)
    p_ingest.add_argument("--output", required=True,
                          help="normalized corpus file (rationale pre-split)")
    p_ingest.add_argument("--report", default=None, help="validation report JSON path")
    _add_setting(p_ingest, "--granularity", "unit", choices=GRANULARITIES)
    p_ingest.add_argument("--config", default=None)

    p_pilot = sub.add_parser("pilot", help="NLL-vs-removal-size curves")
    p_pilot.add_argument("--input", required=True)
    p_pilot.add_argument("--out-dir", required=True)
    _add_setting(p_pilot, "--sizes", "pilot_sizes", "comma list", type=_int_list)
    _add_setting(p_pilot, "--strategies", "pilot_strategies",
                 f"comma list from {','.join(config_mod.PILOT_STRATEGIES)}",
                 type=lambda raw: raw.split(","))
    _add_setting(p_pilot, "--samples", "samples_per_record",
                 "removal-set draws per record per cell", type=int)
    _add_setting(p_pilot, "--seed", "seed", type=int)
    p_pilot.add_argument("--config", default=None)
    p_pilot.add_argument("--check-ordering", action="store_true",
                         help="fail unless back > random > front at every size")
    _add_scorer_flags(p_pilot)

    p_reduce = sub.add_parser("reduce", help="run the removal schedule")
    p_reduce.add_argument("--input", required=True)
    p_reduce.add_argument("--out-dir", required=True)
    p_reduce.add_argument("--config", default=None)
    _add_setting(p_reduce, "--mode", "mode", "varr or varr-plus",
                 choices=MODES, type=lambda raw: raw.replace("-", "_"))
    p_reduce.add_argument("--strategy", default=None, type=_strategy, help=" | ".join(
        order.replace("_", "-") + (":N" if order == "enforced_front" else "")
        for order in CANDIDATE_ORDERS))
    _add_setting(p_reduce, "--unit", "unit", choices=GRANULARITIES)
    _add_setting(p_reduce, "--warmup", "warmup_ratio",
                 "warm-up ratio of total steps", type=float)
    _add_setting(p_reduce, "--epochs", "epochs",
                 f"passes over the corpus, 1 to {config_mod.MAX_EPOCHS}", type=int)
    _add_setting(p_reduce, "--batch-size", "batch_size", type=int)
    _add_setting(p_reduce, "--k-negatives", "k_negatives", type=int)
    _add_setting(p_reduce, "--seed", "seed", type=int)
    _add_scorer_flags(p_reduce)

    p_score = sub.add_parser("score", help="one-shot likelihood of an answer")
    p_score.add_argument("--question", required=True)
    p_score.add_argument("--rationale-file", default=None,
                         help="text file, one rationale unit per line")
    p_score.add_argument("--answer", required=True)
    p_score.add_argument("--vocab", default=None,
                         help="inline vocabulary for an untrained tabular model")
    p_score.add_argument("--fit-corpus", default=None,
                         help="corpus file to fit the tabular model on")
    p_score.add_argument("--config", default=None)
    _add_scorer_flags(p_score)
    return parser


def _load_records(path: str, cfg: config_mod.RunConfig) -> list[RationaleRecord]:
    """The corpus at ``path`` read with ``cfg``; a ValidationError if it is empty."""
    corpus = load_corpus(path, cfg)
    if not corpus:
        raise ValidationError(f"corpus {path} holds no records")
    return corpus


def _load_valid(path: str, cfg: config_mod.RunConfig) -> list[RationaleRecord]:
    """The corpus at ``path`` read with ``cfg``; else, if it is empty or a
    record is invalid, a ValidationError after each violation on stderr."""
    corpus = _load_records(path, cfg)
    violations = validate_corpus(corpus)
    for rid, violation in violations:
        print(f"violation [{rid}]: {violation}", file=sys.stderr)
    if violations:
        raise ValidationError(f"{len(violations)} violation(s) in corpus {path}")
    return corpus


def _scorer_and_corpus(path: str,
                       cfg: config_mod.RunConfig) -> tuple[ScorerHandle, list[RationaleRecord]]:
    """The run's scorer and the valid corpus at ``path``. A remote scorer is
    built first, so a missing or unusable URL is named before the corpus is
    read; it opens no connection until its first request. A tabular one is
    fitted on the corpus."""
    remote = cfg.build_scorer() if cfg.scorer_backend == "remote" else None
    corpus = _load_valid(path, cfg)
    return remote or cfg.build_scorer(corpus), corpus


def cmd_ingest(args) -> int:
    cfg = config_mod.load_run_config(args.config, vars(args))
    corpus = _load_records(args.input, cfg)
    violations = validate_corpus(corpus)
    flags = [(r.id, "rationale is empty") for r in corpus if not r.rationale]
    write_corpus(corpus, args.output)
    summary = {
        "records": len(corpus),
        "violations": [{"record_id": rid, "problem": v} for rid, v in violations],
        "flags": [{"record_id": rid, "note": f} for rid, f in flags],
        # the config file's segmenter section, as this run applied it
        "segmenter": {setting.key: value
                      for setting, value in zip(config_mod.FIELDS.values(), cfg)
                      if setting.section == "segmenter"},
    }
    if args.report:
        write_text_atomic(args.report, json.dumps(summary, indent=2, ensure_ascii=False))
    print(f"loaded {len(corpus)} records from {args.input}")
    for rid, violation in violations:
        print(f"violation [{rid}]: {violation}")
    for rid, note in flags:
        print(f"flag [{rid}]: {note}")
    if violations:
        raise ValidationError(f"{len(violations)} violation(s) in corpus {args.input}")
    return EXIT_OK


def cmd_pilot(args) -> int:
    from . import pilot as pilot_mod  # imported here: no other command runs the pilot

    cfg = config_mod.load_run_config(args.config, vars(args))
    if args.check_ordering and set(cfg.pilot_strategies) != set(config_mod.PILOT_STRATEGIES):
        raise ConfigurationError(
            f"--check-ordering needs the strategies {','.join(config_mod.PILOT_STRATEGIES)}")
    handle, corpus = _scorer_and_corpus(args.input, cfg)
    try:
        summary = pilot_mod.pilot_nll_curve(corpus, handle, cfg)
    finally:
        handle.close()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(out_dir / "pilot.tsv", pilot_mod.pilot_tsv(summary))
    write_text_atomic(out_dir / "pilot.json", json.dumps(
        {**summary, "config": cfg._asdict()}, indent=2, sort_keys=True))
    print(f"pilot curves over {len(summary['curves'])} strategies -> {out_dir}")
    print(f"baseline mean NLL: {summary['baseline_nll']:.6f}")
    if args.check_ordering and not pilot_mod.ordering_holds(summary):
        raise ValidationError("ordering check failed: expected back > random > front")
    return EXIT_OK


def cmd_reduce(args) -> int:
    # A reduce makes no reference cycles that grow with its input, yet its
    # long-lived records, events and counts trigger some 175 collections,
    # each rescanning them: the collector is paused for the run and the
    # caller's setting restored after it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _reduce(args)
    finally:
        if collecting:
            gc.enable()


def _reduce(args) -> int:
    if args.strategy is not None:
        args.candidate_order, args.enforced_n = args.strategy
        if args.candidate_order == "no_rule" and args.mode is not None:
            raise ConfigurationError(
                "--mode is meaningless with --strategy no-rule (criteria are bypassed)"
            )
    cfg = config_mod.load_run_config(args.config, vars(args))
    handle, corpus = _scorer_and_corpus(args.input, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The run's trace holds the paths, which are not fingerprinted, and
    # run_reduction records every setting and event in it: on a scorer
    # failure, the serial prefix of the run, saved before main maps the
    # failure to its exit code.
    trace = metrics.ReductionTrace(
        {"paths": {"input": str(args.input), "out_dir": str(out_dir)}}, None)
    try:
        run_reduction(corpus, handle, cfg, trace)
    except ScorerError:
        trace.save(out_dir / "trace.partial.json")
        raise
    finally:
        handle.close()

    # The events are encoded once, for the fingerprint and for trace.json,
    # and the report is complete before any output is written.
    events_json = metrics.encode_events(trace.events)
    report = metrics.build_report(trace, corpus, events_json=events_json)
    if report["law_violations"]:
        raise InternalInvariantError("; ".join(report["law_violations"]))

    trace.save(out_dir / "trace.json", events_json)
    write_reduced(corpus, out_dir / "reduced.jsonl")
    write_text_atomic(out_dir / "report.json", json.dumps(report, indent=2, sort_keys=True))
    text = metrics.render_report_text(report)
    write_text_atomic(out_dir / "report.txt", text + "\n")
    write_text_atomic(out_dir / "removal_ratio.tsv",
                      metrics.removal_ratio_tsv(report["removal_ratio_curve"]))
    print(text)
    return EXIT_OK


def cmd_score(args) -> int:
    cfg = config_mod.load_run_config(args.config, vars(args))
    if not args.question.strip() or not args.answer.strip():
        raise ConfigurationError("--question and --answer must not be blank")
    units: list[str] = []
    if args.rationale_file:
        try:
            raw = Path(args.rationale_file).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigurationError(
                f"rationale file {args.rationale_file} is not valid UTF-8: {exc}") from None
        units = [line.strip() for line in raw.splitlines() if line.strip()]
    if cfg.scorer_backend == "tabular":
        if args.vocab:
            vocabulary = args.vocab.split()
            if not vocabulary or len(set(vocabulary)) < len(vocabulary):
                problem = "contains duplicates" if vocabulary else "must be non-empty"
                raise ConfigurationError(f"--vocab {args.vocab!r}: vocabulary {problem}")
            handle = TabularScorer(vocabulary, cfg.smoothing_alpha)
        elif args.fit_corpus:
            handle = cfg.build_scorer(_load_valid(args.fit_corpus, cfg))
        else:
            raise ConfigurationError(
                "tabular scoring needs --vocab (untrained) or --fit-corpus"
            )
    else:
        handle = cfg.build_scorer()
    assembly = PromptAssembly(
        question=args.question,
        retained_rationale=tuple(units),
        template_id=cfg.template_id,
    )
    try:
        result = handle.score_answer(assembly, args.answer)
    finally:
        handle.close()
    print(f"total log-likelihood: {result.total!r}")
    print(f"per-token: {[round(v, 6) for v in result.per_token]}")
    print(f"NLL: {-result.total!r}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.log_level in ("debug", "info"):
        # imported here: varr logs nothing above info, so no other level
        # needs logging loaded or configured
        import logging

        logging.basicConfig(level=args.log_level.upper(),
                            format="%(levelname)s %(name)s: %(message)s")
    handlers = {
        "ingest": cmd_ingest,
        "pilot": cmd_pilot,
        "reduce": cmd_reduce,
        "score": cmd_score,
    }
    try:
        return handlers[args.command](args)
    except TransportError as exc:
        print(f"scorer transport failure: {exc}", file=sys.stderr)
        return EXIT_SCORER
    except ScorerError as exc:
        print(f"scorer failure: {exc}", file=sys.stderr)
        return EXIT_SCORER
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (VarrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not of its input
        # only a run that imported logging can have debug output switched on
        if (logging := sys.modules.get("logging")) is not None:
            logging.getLogger("varr").debug("internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
