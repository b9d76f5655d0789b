#!/usr/bin/env python3
"""Benchmark of ``varr reduce``: end to end, or per layer with --trace 1.

    python3 perfbench/run.py --workload tabular-token --seed 1 --seconds 45 --trace 0

Run from anywhere; the program under test is the ``src/varr`` next to
this directory, launched as ``python -m varr.cli reduce`` exactly as a
user would run it. Each run generates its corpus from --seed, runs whole
``varr reduce`` operations until --seconds of them have been measured,
checks every output (see checks.py) and prints one JSON object as its
last line:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

--trace 0 reports the end-to-end metrics of the varr process alone:
wall_s and cpu_s of the fastest operation, the median peak_rss_mb, and
setup_s, the fastest launch-to-first-scorer-request time of the set-up
probes (probe.py), one before each operation. The program is
deterministic, so a slower sample of the same work measures only
interference from the rest of the machine; see README.md for how much.
--trace 1 alternates untraced and traced operations (see traced.py) and
reports the medians of the per-layer metrics of the traced ones, and
the fastest traced minus the fastest untraced wall time as the overhead.
"attempted" counts the reduce operations and the set-up probes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import urllib.request
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from corpus_gen import corpus_line, generate  # noqa: E402

COMMON = {"epochs": 3, "batch_size": 16, "warmup": 0.1, "k": 4, "seed": 0, "alpha": 1.0}
# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "tabular-token": {"records": 360, "sentences": (4, 6), "words": (6, 10),
                      "unit": "token", "mode": "varr", "order": "back",
                      "scorer": "tabular"},
    "remote-sentence": {"records": 24, "sentences": (6, 10), "words": (4, 8),
                        "unit": "sentence", "mode": "varr_plus", "order": "random",
                        "scorer": "remote"},
}
MIN_ROUNDS = 3
OUTPUTS = ("trace.json", "reduced.jsonl", "report.json")


class Op:
    """One finished child process: exit code, wall, CPU and peak RSS."""

    def __init__(self, argv: list[str], env: dict, stderr_path: Path):
        with stderr_path.open("wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.wall_s = perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]


class Server:
    """The loopback scorer server, in its own process for one run."""

    def __init__(self, corpus: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--corpus", str(corpus)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise RuntimeError("scorer server did not start")
        self.url = f"http://127.0.0.1:{line[1]}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def reduce_args(spec: dict, corpus: Path, out_dir: Path, url: str | None) -> list[str]:
    args = [
        "reduce", "--input", str(corpus), "--out-dir", str(out_dir),
        "--mode", spec["mode"].replace("_", "-"), "--strategy", spec["order"],
        "--unit", spec["unit"], "--epochs", str(COMMON["epochs"]),
        "--batch-size", str(COMMON["batch_size"]), "--warmup", str(COMMON["warmup"]),
        "--k-negatives", str(COMMON["k"]), "--seed", str(COMMON["seed"]),
        "--alpha", str(COMMON["alpha"]),
    ]
    if url is not None:
        args += ["--scorer", "remote", "--scorer-url", url]
    return args


def decision_counts(events: list[dict]) -> dict:
    """What the criterion and the budget decided: these describe a workload."""
    return {
        "schedule.decisions": len(events),
        "schedule.removals": sum(e["decision"] == "removed" for e in events),
        "schedule.criterion_decisions": sum(e["verbosity_gt"] not in (None, 0.0)
                                            for e in events),
    }


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.params = {**COMMON, "mode": self.spec["mode"], "order": self.spec["order"]}
        self.records = generate(seed, self.spec["records"], self.spec["sentences"],
                                self.spec["words"])
        # Token runs get raw strings, so varr's segmenter does the splitting.
        raw = self.spec["unit"] == "token"
        for rec in self.records:
            rec["units"] = " ".join(rec["sentences"]).split() if raw else rec["sentences"]
        self.corpus = work / "corpus.jsonl"
        self.corpus.write_text("".join(corpus_line(r, raw) + "\n" for r in self.records),
                               encoding="utf-8")
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        remote = self.spec["scorer"] == "remote"
        model = checks.initial_model(self.records, COMMON["alpha"])
        self.fixed_model = model if remote else None
        self.reference = checks.reference_events(self.records, self.params, model,
                                                 refit=not remote)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passed: set[str] = set()
        self.server = Server(self.corpus) if remote else None

    def close(self) -> None:
        if self.server is not None:
            self.server.close()

    def _launch(self, prefix: list[str], out_dir: Path) -> Op:
        url = self.server.url if self.server else None
        argv = [sys.executable, *prefix, *reduce_args(self.spec, self.corpus, out_dir, url)]
        return Op(argv, self.env, self.work / "stderr.txt")

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.append(what)
        self.problems.extend(problems)

    def probe(self) -> Op:
        """Launch to first scorer request of one ``varr reduce``."""
        self.attempted += 1
        op = self._launch([str(HERE / "probe.py")], self.work / "probe")
        if op.code != 0:
            self._fail(f"set-up probe exited {op.code}", [op.stderr])
        return op

    def warm_up(self) -> None:
        """Compile bytecode and fill the file cache before anything is timed."""
        self._launch([str(HERE / "probe.py")], self.work / "probe")

    def reduce(self, traced: bool = False) -> tuple[Op, dict | None]:
        """One measured ``varr reduce``, then every output check."""
        self.attempted += 1
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        spans_path = self.work / "spans.json"
        before = self.server.stats() if self.server and traced else None
        prefix = [str(HERE / "traced.py"), str(spans_path)] if traced else ["-m", "varr.cli"]
        op = self._launch(prefix, out_dir)
        if op.code != 0:
            self._fail(f"varr reduce exited {op.code}", [op.stderr])
            return op, None
        # varr is deterministic: an output identical to one that passed every
        # check passes them too, so only new outputs are checked in full.
        digest = hashlib.sha256(b"".join(
            (out_dir / name).read_bytes() for name in OUTPUTS)).hexdigest()
        problems = [] if digest in self.passed else checks.check_output(
            self.records, self.params, out_dir, self.reference, self.fixed_model, self.seed)
        if not problems:
            self.passed.add(digest)
        layers = None
        if traced and not problems:
            trace = json.loads((out_dir / "trace.json").read_text(encoding="utf-8"))
            layers = self.layers(json.loads(spans_path.read_text(encoding="utf-8")),
                                 out_dir, trace["events"], before)
            if layers["scorer.requests"] != trace["scorer_call_count"]:
                problems.append(f"traced {layers['scorer.requests']} scorer requests, "
                                f"the trace counts {trace['scorer_call_count']}")
        if problems:
            self._fail("output check failed", problems)
        return op, layers

    def layers(self, spans: dict, out_dir: Path, events: list, before: dict | None) -> dict:
        def span(name: str, field: int = 1) -> float:
            return spans["spans"].get(name, [0, 0.0, 0.0])[field]

        requests = int(span("scorer.request", 0))
        hits, misses = spans["cache"]
        server = {"requests": 0, "connections": 0, "max_in_flight": 0, "busy_s": 0.0}
        if before is not None:
            after = self.server.stats()
            server = {k: after[k] - before[k] for k in server}
            server["max_in_flight"] = after["max_in_flight"]
        return {
            "cli.reduce_s": span("cli.reduce"),
            "cli.self_s": span("cli.reduce", 2),
            "corpus.load_s": span("corpus.load"),
            "corpus.load_calls": span("corpus.load", 0),
            "corpus.validate_s": span("corpus.validate"),
            "corpus.write_reduced_s": span("corpus.write_reduced"),
            "segmenter.segment_s": span("segmenter.segment"),
            "segmenter.segments": spans["segments"],
            "scorer.fit_s": span("scorer.fit"),
            "scorer.refresh_s": span("scorer.refresh"),
            "scorer.corpus_view_s": span("scorer.corpus_view"),
            "scorer.requests": requests,
            "scorer.request_s": span("scorer.request"),
            "scorer.request_p50_us": spans["request_us"][0],
            "scorer.request_p99_us": spans["request_us"][1],
            "scorer.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "scorer.repeat_ratio": spans["repeats"] / requests if requests else 0.0,
            "scorer.http_requests": server["requests"],
            "scorer.http_connections": server["connections"],
            "scorer.http_max_in_flight": server["max_in_flight"],
            "scorer.server_busy_s": server["busy_s"],
            "scorer.wait_s": span("scorer.request") - server["busy_s"] if before else 0.0,
            "verbosity.evaluate_calls": span("verbosity.evaluate", 0),
            "verbosity.evaluate_s": span("verbosity.evaluate"),
            "verbosity.self_s": span("verbosity.evaluate", 2),
            "seeding.child_rng_calls": span("seeding.child_rng", 0),
            "seeding.child_rng_s": span("seeding.child_rng"),
            "schedule.run_s": span("schedule.run"),
            "schedule.self_s": span("schedule.run", 2),
            **decision_counts(events),
            "metrics.trace_save_s": span("metrics.trace_save"),
            "metrics.trace_bytes": (out_dir / "trace.json").stat().st_size,
            "metrics.build_report_s": span("metrics.build_report"),
            "metrics.validate_trace_s": span("metrics.validate_trace"),
        }


def end_to_end(bench: Bench, seconds: float) -> dict:
    bench.warm_up()
    setups, ops, measured, rounds = [], [], 0.0, 0
    while measured < seconds or rounds < MIN_ROUNDS:
        rounds += 1
        # Probes and operations alternate so that both sample the whole run.
        probe = bench.probe()
        if probe.code == 0:
            setups.append(probe.wall_s)
        op, _ = bench.reduce()
        measured += op.wall_s
        if op.code == 0:
            ops.append(op)
    if not ops or not setups:
        return {}
    return {
        "wall_s": min(op.wall_s for op in ops),
        "cpu_s": min(op.cpu_s for op in ops),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in ops),
        "setup_s": min(setups),
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    plain, traced, measured, rounds = [], [], 0.0, 0
    while measured < seconds or rounds < MIN_ROUNDS:
        rounds += 1
        op, _ = bench.reduce()
        measured += op.wall_s
        if op.code == 0:
            plain.append(op.wall_s)
        op, layers = bench.reduce(traced=True)
        measured += op.wall_s
        if layers is not None:
            traced.append((op.wall_s, layers))
    if not traced or not plain:
        return {}
    metrics = {name: statistics.median(layers[name] for _, layers in traced)
               for name in traced[0][1]}
    metrics["bench.trace_overhead_s"] = min(w for w, _ in traced) - min(plain)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/varr/cli.py", "tests/reference_driver.py"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    # A SIGTERM unwinds through the finally below, which stops the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = None
    try:
        bench = Bench(args.workload, args.seed, work)
        values = (per_layer if args.trace else end_to_end)(bench, args.seconds)
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    # Metric names and units are declared once, in BENCHMARK.json.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    counts = decision_counts(bench.reference)
    print(f"perfbench: {args.workload} seed {args.seed}: "
          + ", ".join(f"{k} {v}" for k, v in counts.items()))
    correct = bench.failed == 0 and set(values) == set(units)
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
