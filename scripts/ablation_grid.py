#!/usr/bin/env python3
"""Run reduction ablations on a corpus and print a comparison table.

Two sweeps, mirroring the configuration grids the engine exposes:

    python scripts/ablation_grid.py --corpus tests/data/fixture_corpus.jsonl
    python scripts/ablation_grid.py --sweep warmup --epochs 5

`strategy` sweeps candidate orders (front/random/back/no_rule plus
enforced_front) under both criteria modes; `warmup` sweeps the warm-up
ratio over {0.0, 0.1, 0.2, 0.3, 0.4} with the default strategy. Each
cell is one ``varr reduce`` run into a temporary directory, with
``--batch-size 4``, then every flag other than --corpus, --sweep and
--log-level, then the cell's own flags; --log-level is ``varr``'s own and
goes before ``reduce``. Each cell prints its row as it finishes, from the
``report.json`` of its run: removals, decisions, scorer calls,
retained-token reduction and the trace fingerprint, so two checkouts can
compare runs exactly. A cell fails exactly as ``varr reduce`` does: its
message is on stderr, the rows of the cells before it are on stdout, and
the script exits with its exit code.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from varr.cli import main as varr_main

STRATEGY_GRID = [
    ("front/varr", ["--strategy", "front", "--mode", "varr"]),
    ("front/varr_plus", ["--strategy", "front", "--mode", "varr-plus"]),
    ("random/varr_plus", ["--strategy", "random", "--mode", "varr-plus"]),
    ("back/varr_plus", ["--strategy", "back", "--mode", "varr-plus"]),
    ("enforced_front/varr_plus", ["--strategy", "enforced-front:2", "--mode", "varr-plus"]),
    ("no_rule/varr_plus", ["--strategy", "no-rule"]),  # criteria bypassed: no mode
]
WARMUP_GRID = [(f"warmup={ratio}", ["--warmup", str(ratio)])
               for ratio in (0.0, 0.1, 0.2, 0.3, 0.4)]


def run_cell(corpus_path, log_flags, flags):
    """The report of one ``varr reduce`` run; exits with its code if it failed."""
    with tempfile.TemporaryDirectory() as out_dir:
        with contextlib.redirect_stdout(io.StringIO()):
            code = varr_main([*log_flags, "reduce", "--input", corpus_path,
                              "--out-dir", out_dir, "--batch-size", "4", *flags])
        if code:
            sys.exit(code)
        return json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))


def print_header(label):
    header = f"{label:<24} {'removals':>8} {'decisions':>9} {'calls':>7} {'tok-red%':>9}  fingerprint"
    print(header)
    print("-" * len(header), flush=True)


def print_row(name, report):
    print(f"{name:<24} {report['removal_count']:>8} {report['event_count']:>9} "
          f"{report['scorer_call_count']:>7} "
          f"{report['token_stats']['reduction_percent']:>8.2f}%  "
          f"{report['determinism_fingerprint'][:12]}", flush=True)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, epilog="Any other flag is passed on to varr reduce.",
        allow_abbrev=False)
    parser.add_argument("--corpus", default="tests/data/fixture_corpus.jsonl")
    parser.add_argument("--sweep", choices=["strategy", "warmup"], default="strategy")
    parser.add_argument("--log-level", help="varr's --log-level, for every cell")
    args, passed_on = parser.parse_known_args()
    grid, label = ((STRATEGY_GRID, "strategy/mode") if args.sweep == "strategy"
                   else (WARMUP_GRID, "warm-up ratio"))
    log_flags = ["--log-level", args.log_level] if args.log_level else []
    print_header(label)
    for name, flags in grid:
        print_row(name, run_cell(args.corpus, log_flags, [*passed_on, *flags]))


if __name__ == "__main__":
    main()
