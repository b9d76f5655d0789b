#!/usr/bin/env python3
"""Run ``varr reduce`` up to its first scorer request, then exit at once.

    python perfbench/probe.py reduce --input corpus.jsonl --out-dir out ...

The launch-to-exit time of this process is the program's fixed cost:
interpreter start, imports, config, corpus load and validation, and
scorer fit or connect. Exits 0 only when a scorer request was reached.
"""

import os
import sys

import varr.cli
import varr.scorer


def _stop(*_args, **_kwargs):
    os._exit(0)


if __name__ == "__main__":
    varr.scorer.TabularScorer.score_answer = _stop
    varr.scorer.RemoteScorer.score_answer = _stop
    varr.cli.main(sys.argv[1:])
    print("probe: varr reduce ended without a scorer request", file=sys.stderr)
    sys.exit(3)
