"""Command-line entry point.

    varr ingest --input raw.jsonl --output corpus.jsonl
    varr pilot  --input corpus.jsonl --out-dir out/
    varr reduce --input corpus.jsonl --out-dir out/ --mode varr-plus
    varr score  --question "..." --rationale-file r.txt --answer "..."

Exit codes: 0 success, 1 validation or usage error, 2 scorer/transport
failure, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import config as config_mod
from . import metrics, pilot as pilot_mod
from .corpus import (
    load_corpus,
    validate_corpus,
    write_corpus,
    write_reduced,
    write_text_atomic,
)
from .errors import (
    ConfigurationError,
    InternalInvariantError,
    ParseError,
    ScorerError,
    TransportError,
    ValidationError,
    VarrError,
)
from .schedule import ReductionAborted, run_reduction
from .scorer import PromptAssembly, fit_tabular_scorer, uniform_tabular_scorer

log = logging.getLogger("varr")

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


def _add_scorer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scorer", choices=["tabular", "remote"], default=None,
                        help="likelihood backend (default: tabular)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="additive smoothing for the tabular backend")
    parser.add_argument("--template", default=None, help="prompt template id")
    parser.add_argument("--scorer-url", default=None,
                        help="remote base URL (or env VARR_SCORER_URL)")
    parser.add_argument("--scorer-model", default=None,
                        help="model name sent to the remote endpoint")
    parser.add_argument("--timeout-ms", type=int, default=None,
                        help="remote timeout (or env VARR_SCORER_TIMEOUT_MS)")
    parser.add_argument("--max-attempts", type=int, default=None,
                        help="remote attempts incl. retries (default 3)")


def _scorer_overrides(args) -> dict:
    return {
        "scorer_backend": args.scorer,
        "smoothing_alpha": args.alpha,
        "template_id": args.template,
        "scorer_url": args.scorer_url,
        "scorer_model": args.scorer_model,
        "timeout_ms": args.timeout_ms,
        "max_attempts": args.max_attempts,
    }


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
    p_ingest.add_argument("--granularity", choices=["sentence", "token"], default=None)
    p_ingest.add_argument("--config", default=None)

    p_pilot = sub.add_parser("pilot", help="NLL-vs-removal-size curves")
    p_pilot.add_argument("--input", required=True)
    p_pilot.add_argument("--out-dir", required=True)
    p_pilot.add_argument("--sizes", default=None, help="comma list, e.g. 1,2,3,4")
    p_pilot.add_argument("--strategies", default=None,
                         help="comma list from front,random,back")
    p_pilot.add_argument("--samples", type=int, default=None,
                         help="removal-set draws per record per cell")
    p_pilot.add_argument("--seed", type=int, default=None)
    p_pilot.add_argument("--config", default=None)
    p_pilot.add_argument("--check-ordering", action="store_true",
                         help="fail unless back > random > front at every size")
    _add_scorer_flags(p_pilot)

    p_reduce = sub.add_parser("reduce", help="run the removal schedule")
    p_reduce.add_argument("--input", required=True)
    p_reduce.add_argument("--out-dir", required=True)
    p_reduce.add_argument("--config", default=None)
    p_reduce.add_argument("--mode", default=None, help="varr or varr-plus")
    p_reduce.add_argument("--strategy", default=None,
                          help="front | random | back | enforced-front:N | no-rule")
    p_reduce.add_argument("--unit", choices=["sentence", "token"], default=None)
    p_reduce.add_argument("--warmup", type=float, default=None,
                          help="warm-up ratio of total steps (default 0.1)")
    p_reduce.add_argument("--epochs", type=int, default=None, help="default 5")
    p_reduce.add_argument("--batch-size", type=int, default=None)
    p_reduce.add_argument("--k-negatives", type=int, default=None)
    p_reduce.add_argument("--seed", type=int, default=None)
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


def cmd_ingest(args) -> int:
    cfg = config_mod.load_run_config(args.config, {"unit": args.granularity})
    corpus = load_corpus(args.input, cfg.unit, cfg.segmentation_rules())
    reports = validate_corpus(corpus)
    violations = [(r.record_id, v) for r in reports for v in r.violations]
    flags = [(r.record_id, f) for r in reports for f in r.flags]
    write_corpus(corpus, args.output)
    summary = {
        "records": len(corpus),
        "violations": [{"record_id": rid, "problem": v} for rid, v in violations],
        "flags": [{"record_id": rid, "note": f} for rid, f in flags],
        "segmentation_rule_id": corpus.meta.segmentation_rule_id,
    }
    if args.report:
        write_text_atomic(args.report, json.dumps(summary, indent=2, ensure_ascii=False))
    print(f"loaded {len(corpus)} records from {args.input}")
    for rid, violation in violations:
        print(f"violation [{rid}]: {violation}")
    for rid, note in flags:
        print(f"flag [{rid}]: {note}")
    return EXIT_USAGE if violations else EXIT_OK


def cmd_pilot(args) -> int:
    overrides = _scorer_overrides(args)
    overrides["seed"] = args.seed
    overrides["samples_per_record"] = args.samples
    if args.sizes:
        overrides["pilot_sizes"] = [int(s) for s in args.sizes.split(",")]
    if args.strategies:
        overrides["pilot_strategies"] = args.strategies.split(",")
    cfg = config_mod.load_run_config(args.config, overrides)
    corpus = load_corpus(args.input, cfg.unit, cfg.segmentation_rules())
    handle = cfg.build_scorer(corpus)
    try:
        results = pilot_mod.pilot_nll_curve(
            corpus, handle,
            sizes=tuple(cfg.pilot_sizes),
            strategies=tuple(cfg.pilot_strategies),
            samples_per_record=cfg.samples_per_record,
            seed=cfg.seed,
            template_id=cfg.template_id,
        )
    finally:
        handle.close()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(out_dir / "pilot.tsv", pilot_mod.pilot_tsv(results))
    summary = pilot_mod.pilot_summary(results)
    summary["config"] = cfg.effective_dict()
    write_text_atomic(out_dir / "pilot.json", json.dumps(summary, indent=2, sort_keys=True))
    print(f"pilot curves over {len(results)} strategies -> {out_dir}")
    print(f"baseline mean NLL: {results[0].baseline_nll:.6f}")
    if args.check_ordering and not pilot_mod.ordering_holds(results):
        print("ordering check FAILED: expected back > random > front", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_reduce(args) -> int:
    overrides = _scorer_overrides(args)
    overrides.update({
        "warmup_ratio": args.warmup,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "k_negatives": args.k_negatives,
        "seed": args.seed,
        "unit": args.unit,
    })
    strategy_flag = args.strategy
    if strategy_flag is not None:
        order, enforced_n = config_mod.parse_strategy_flag(strategy_flag)
        overrides["candidate_order"] = order
        if enforced_n is not None:
            overrides["enforced_n"] = enforced_n
        if order == "no_rule" and args.mode is not None:
            raise ConfigurationError(
                "--mode is meaningless with --strategy no-rule (criteria are bypassed)"
            )
    if args.mode is not None:
        overrides["mode"] = config_mod.parse_mode_flag(args.mode)
    cfg = config_mod.load_run_config(args.config, overrides)

    corpus = load_corpus(args.input, cfg.unit, cfg.segmentation_rules())
    bad = [r for r in validate_corpus(corpus) if not r.ok]
    if bad:
        for report in bad:
            for violation in report.violations:
                print(f"violation [{report.record_id}]: {violation}", file=sys.stderr)
        return EXIT_USAGE

    handle = cfg.build_scorer(corpus)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        trace = run_reduction(
            corpus, handle, cfg.clock_config(), cfg.strategy_config(),
            k_negatives=cfg.k_negatives, template_id=cfg.template_id,
        )
    except ReductionAborted as exc:
        exc.trace.config["run"] = cfg.effective_dict()
        exc.trace.config["paths"] = {"input": str(args.input), "out_dir": str(out_dir)}
        exc.trace.save(out_dir / "trace.partial.json")
        print(f"scorer failure, partial trace saved: {exc.cause}", file=sys.stderr)
        return EXIT_SCORER
    finally:
        handle.close()

    trace.config["run"] = cfg.effective_dict()
    trace.config["paths"] = {"input": str(args.input), "out_dir": str(out_dir)}
    # The events are encoded once, for the fingerprint and for trace.json,
    # and the report is complete before any output is written.
    events_json = metrics.encode_events(trace.events)
    report = metrics.build_report(trace, corpus, events_json=events_json)
    if report["law_violations"]:
        for problem in report["law_violations"]:
            print(f"invariant violation: {problem}", file=sys.stderr)
        return EXIT_INVARIANT

    trace.save(out_dir / "trace.json", events_json)
    write_reduced(corpus, trace, out_dir / "reduced.jsonl")
    write_text_atomic(out_dir / "report.json", json.dumps(report, indent=2, sort_keys=True))
    text = metrics.render_report_text(report)
    write_text_atomic(out_dir / "report.txt", text + "\n")
    write_text_atomic(out_dir / "removal_ratio.tsv",
                      metrics.removal_ratio_tsv(report["removal_ratio_curve"]))
    print(text)
    return EXIT_OK


def cmd_score(args) -> int:
    overrides = _scorer_overrides(args)
    cfg = config_mod.load_run_config(args.config, overrides)
    units: list[str] = []
    if args.rationale_file:
        raw = Path(args.rationale_file).read_text(encoding="utf-8")
        units = [line.strip() for line in raw.splitlines() if line.strip()]
    if cfg.scorer_backend == "tabular":
        if args.vocab:
            handle = uniform_tabular_scorer(args.vocab.split(), cfg.smoothing_alpha)
        elif args.fit_corpus:
            handle = fit_tabular_scorer(
                load_corpus(args.fit_corpus, cfg.unit, cfg.segmentation_rules()),
                cfg.smoothing_alpha, cfg.template_id,
            )
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
    except (ConfigurationError, ParseError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TransportError as exc:
        print(f"scorer transport failure: {exc}", file=sys.stderr)
        return EXIT_SCORER
    except ScorerError as exc:
        print(f"scorer failure: {exc}", file=sys.stderr)
        return EXIT_SCORER
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except VarrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
