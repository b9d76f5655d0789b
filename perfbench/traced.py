#!/usr/bin/env python3
"""Run ``varr reduce`` with spans around each layer's public functions.

    python perfbench/traced.py spans.json reduce --input corpus.jsonl ...

Wraps, from outside the package, the functions each module exposes to
the next one up, runs ``varr.cli.main`` on the remaining arguments and
writes one JSON object to the first argument:

    {"exit": int,
     "spans": {name: [calls, total_s, self_s]},
     "request_us": [p50, p99], "repeats": int, "segments": int,
     "cache": [hits, misses]}

Self time is a span's duration minus the time of the spans it encloses.
A repeat is a scorer request whose (model version, prompt, answer) was
already asked during the same record scan; a scan starts with each call
of ``schedule.candidate_sequence``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import varr.cli
import varr.config
import varr.corpus
import varr.metrics
import varr.schedule
import varr.scorer


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}
        self.stack: list[float] = []
        self.request_s: list[float] = []
        self.scan_keys: set = set()
        self.repeats = 0
        self.segments = 0
        self.handles: list = []

    def _close(self, name: str, elapsed: float) -> None:
        child = self.stack.pop()
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - child
        if self.stack:
            self.stack[-1] += elapsed

    def span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            self.stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, perf_counter() - start)
            if after is not None:
                after(result)
            return result
        return wrapper

    def request(self, fn):
        def wrapper(handle, assembly, answer):
            key = (handle.model_version, assembly.question,
                   assembly.retained_rationale, assembly.template_id, answer)
            if key in self.scan_keys:
                self.repeats += 1
            else:
                self.scan_keys.add(key)
            self.stack.append(0.0)
            start = perf_counter()
            try:
                return fn(handle, assembly, answer)
            finally:
                elapsed = perf_counter() - start
                self._close("scorer.request", elapsed)
                self.request_s.append(elapsed)
        return wrapper

    def new_scan(self, fn):
        def wrapper(*args, **kwargs):
            self.scan_keys.clear()
            return fn(*args, **kwargs)
        return wrapper

    def count_segments(self, result) -> None:
        self.segments += len(result)

    def install(self) -> None:
        cli, corpus, schedule = varr.cli, varr.corpus, varr.schedule
        metrics, scorer = varr.metrics, varr.scorer
        cli.cmd_reduce = self.span("cli.reduce", cli.cmd_reduce)
        cli.load_corpus = self.span("corpus.load", cli.load_corpus)
        cli.validate_corpus = self.span("corpus.validate", cli.validate_corpus)
        cli.write_reduced = self.span("corpus.write_reduced", cli.write_reduced)
        corpus.segment_sentences = self.span(
            "segmenter.segment", corpus.segment_sentences, self.count_segments)
        corpus.segment_tokens = self.span(
            "segmenter.segment", corpus.segment_tokens, self.count_segments)
        varr.config.fit_tabular_scorer = self.span(
            "scorer.fit", varr.config.fit_tabular_scorer, self.handles.append)
        for cls in (scorer.TabularScorer, scorer.RemoteScorer):
            cls.score_answer = self.request(cls.score_answer)
            cls.refresh = self.span("scorer.refresh", cls.refresh)
        schedule.corpus_view = self.span("scorer.corpus_view", schedule.corpus_view)
        schedule.evaluate_candidate = self.span("verbosity.evaluate", schedule.evaluate_candidate)
        schedule.child_rng = self.span("seeding.child_rng", schedule.child_rng)
        schedule.candidate_sequence = self.new_scan(schedule.candidate_sequence)
        cli.run_reduction = self.span("schedule.run", cli.run_reduction)
        metrics.ReductionTrace.save = self.span("metrics.trace_save", metrics.ReductionTrace.save)
        metrics.build_report = self.span("metrics.build_report", metrics.build_report)
        metrics.validate_trace = self.span("metrics.validate_trace", metrics.validate_trace)

    def summary(self, code: int) -> dict:
        times = sorted(self.request_s)

        def pct(q: float) -> float:
            return 1e6 * times[min(len(times) - 1, int(q * len(times)))] if times else 0.0

        hits = sum(h.cache.hits for h in self.handles if h.cache is not None)
        misses = sum(h.cache.misses for h in self.handles if h.cache is not None)
        return {
            "exit": code,
            "spans": self.spans,
            "request_us": [pct(0.5), pct(0.99)],
            "repeats": self.repeats,
            "segments": self.segments,
            "cache": [hits, misses],
        }


if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = varr.cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(code), fh)
    sys.exit(code)
