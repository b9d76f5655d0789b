#!/usr/bin/env python3
"""Run reduction ablations on a corpus and print a comparison table.

Two sweeps, mirroring the configuration grids the engine exposes:

    python scripts/ablation_grid.py --corpus tests/data/fixture_corpus.jsonl
    python scripts/ablation_grid.py --sweep warmup --epochs 5

`strategy` sweeps candidate orders (front/random/back/no_rule plus
enforced_front) under both criteria modes; `warmup` sweeps the warm-up
ratio over {0.0, 0.1, 0.2, 0.3, 0.4} with the default strategy. Each cell
is the flags' base RunConfig with the swept settings replaced. Every
cell prints from its run's report (``metrics.build_report``, the one
that ``varr reduce`` writes): removals, decisions, scorer calls,
retained-token reduction and the trace fingerprint, so two checkouts can
compare runs exactly. A run that breaks a law of the trace ends the
script.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from varr.config import RunConfig
from varr.corpus import load_corpus
from varr.metrics import build_report
from varr.schedule import run_reduction

STRATEGY_GRID = [
    ("front", "varr"),
    ("front", "varr_plus"),
    ("random", "varr_plus"),
    ("back", "varr_plus"),
    ("enforced_front", "varr_plus"),
    ("no_rule", "varr_plus"),  # mode ignored: criteria bypassed
]
WARMUP_GRID = [0.0, 0.1, 0.2, 0.3, 0.4]


def run_cell(corpus_path, settings):
    """One run's report; exits naming the broken laws if the run broke any."""
    corpus = load_corpus(corpus_path, settings)
    handle = settings.build_scorer(corpus)
    try:
        trace = run_reduction(corpus, handle, settings)
    finally:
        handle.close()
    report = build_report(trace, corpus)
    if report["law_violations"]:
        sys.exit("internal invariant violation: " + "; ".join(report["law_violations"]))
    return report


def print_table(rows, label):
    header = f"{label:<24} {'removals':>8} {'decisions':>9} {'calls':>7} {'tok-red%':>9}  fingerprint"
    print(header)
    print("-" * len(header))
    for name, report in rows:
        print(f"{name:<24} {report['removal_count']:>8} {report['event_count']:>9} "
              f"{report['scorer_call_count']:>7} "
              f"{report['token_stats']['reduction_percent']:>8.2f}%  "
              f"{report['determinism_fingerprint'][:12]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", default="tests/data/fixture_corpus.jsonl")
    parser.add_argument("--sweep", choices=["strategy", "warmup"], default="strategy")
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--batch-size", type=int, default=4)
    parser.add_argument("--warmup", type=float, default=0.1)
    parser.add_argument("--k-negatives", type=int, default=4)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    base = RunConfig(
        epochs=args.epochs, batch_size=args.batch_size, warmup_ratio=args.warmup,
        k_negatives=args.k_negatives, smoothing_alpha=args.alpha, seed=args.seed,
    )
    if args.sweep == "strategy":
        cells = [(f"{order}/{mode}", replace(base, candidate_order=order, mode=mode))
                 for order, mode in STRATEGY_GRID]
        label = "strategy/mode"
    else:
        cells = [(f"warmup={ratio}", replace(base, warmup_ratio=ratio))
                 for ratio in WARMUP_GRID]
        label = "warm-up ratio"
    print_table([(name, run_cell(args.corpus, cell)) for name, cell in cells], label)


if __name__ == "__main__":
    main()
