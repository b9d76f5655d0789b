#!/usr/bin/env python3
"""Run reduction ablations on a corpus and print a comparison table.

Two sweeps, mirroring the configuration grids the engine exposes:

    python scripts/ablation_grid.py --corpus tests/data/fixture_corpus.jsonl
    python scripts/ablation_grid.py --sweep warmup --epochs 5

`strategy` sweeps candidate orders (front/random/back/no_rule plus
enforced_front) under both criteria modes; `warmup` sweeps the warm-up
ratio over {0.0, 0.1, 0.2, 0.3, 0.4} with the default strategy. Every
cell reports removals, retained-token reduction, and the trace
fingerprint, so two checkouts can compare runs exactly.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from varr.corpus import load_corpus
from varr.metrics import reduction_token_stats, trace_fingerprint
from varr.schedule import ClockConfig, StrategyConfig, run_reduction
from varr.scorer import fit_tabular_scorer

STRATEGY_GRID = [
    ("front", "varr"),
    ("front", "varr_plus"),
    ("random", "varr_plus"),
    ("back", "varr_plus"),
    ("enforced_front", "varr_plus"),
    ("no_rule", "varr_plus"),  # mode ignored: criteria bypassed
]
WARMUP_GRID = [0.0, 0.1, 0.2, 0.3, 0.4]


def run_cell(corpus_path, clock, strategy, k, alpha):
    corpus = load_corpus(corpus_path)
    handle = fit_tabular_scorer(corpus, smoothing_alpha=alpha)
    trace = run_reduction(corpus, handle, clock, strategy, k_negatives=k)
    stats = reduction_token_stats(corpus)
    return {
        "removals": len(trace.removal_events()),
        "decisions": len(trace.events),
        "scorer_calls": trace.scorer_call_count,
        "reduction": stats["reduction_percent"],
        "fingerprint": trace_fingerprint(trace)[:12],
    }


def print_table(rows, label):
    header = f"{label:<24} {'removals':>8} {'decisions':>9} {'calls':>7} {'tok-red%':>9}  fingerprint"
    print(header)
    print("-" * len(header))
    for name, cell in rows:
        print(f"{name:<24} {cell['removals']:>8} {cell['decisions']:>9} "
              f"{cell['scorer_calls']:>7} {cell['reduction']:>8.2f}%  {cell['fingerprint']}")


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

    rows = []
    if args.sweep == "strategy":
        for order, mode in STRATEGY_GRID:
            strategy = StrategyConfig(
                candidate_order=order, mode=mode, seed=args.seed,
                enforced_n=2 if order == "enforced_front" else 0,
            )
            clock = ClockConfig(args.epochs, args.batch_size, args.warmup)
            cell = run_cell(args.corpus, clock, strategy, args.k_negatives, args.alpha)
            rows.append((f"{order}/{mode}", cell))
        print_table(rows, "strategy/mode")
    else:
        for ratio in WARMUP_GRID:
            strategy = StrategyConfig(seed=args.seed)
            clock = ClockConfig(args.epochs, args.batch_size, ratio)
            cell = run_cell(args.corpus, clock, strategy, args.k_negatives, args.alpha)
            rows.append((f"warmup={ratio}", cell))
        print_table(rows, "warm-up ratio")


if __name__ == "__main__":
    main()
