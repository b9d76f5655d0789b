#!/usr/bin/env python3
"""Run one-line mutants of ``src/varr`` against the test suite.

    python scripts/mutants.py                       every mutant, whole suite
    python scripts/mutants.py --list                the catalogue, nothing run
    python scripts/mutants.py --only budget-stop -- tests/test_schedule.py

Each mutant replaces one piece of source text, which occurs exactly once
in its module, with a deliberately wrong one. The script copies the
checkout (``src``, ``tests``, ``perfbench``, ``scripts`` and
``pyproject.toml``) into a temporary directory, and for each mutant
writes the mutated module there, runs ``python -m pytest -x -q`` on the
copy (or on the pytest arguments after ``--``), leaving out
``tests/test_mutants.py``, which checks the catalogue against the
source, and restores the module.
A mutant is killed when pytest fails and survives when it passes. The
checkout itself is never written.

The tests are run once unmutated first; the script exits 1 if they
fail. Then one line per mutant is printed as it finishes; the script
exits 1 if a mutant that is not listed as equivalent survives, or if the
catalogue has gone stale (an original text missing, or found more than
once).
Stdlib only. A whole-suite run takes about half a minute per surviving
mutant on 2 vCPUs; killed ones stop at their first failing test.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "varr"
COPIED = ("src", "tests", "perfbench", "scripts", "pyproject.toml")
# reads the mutated source, so it would kill every mutant: left out of each run
CATALOGUE_TEST = "tests/test_mutants.py"


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/varr
    original: str
    mutated: str
    equivalent: str = ""  # why no test can tell it from the original, if so


MUTANTS = [
    # schedule: budgets, warm-up and the scan
    Mutant("warmup-boundary", "schedule.py",
           "return t <= warmup_ratio * total_steps",
           "return t < warmup_ratio * total_steps"),
    Mutant("ceiling-budget", "schedule.py",
           "return (n_t * t) // total_steps",
           "return -(-(n_t * t) // total_steps)"),
    Mutant("budget-stop", "schedule.py",
           "if buffer_size >= budget or halted():",
           "if buffer_size > budget or halted():"),
    Mutant("negative-pool-gold-filter", "schedule.py",
           "pool = [a for a in dict.fromkeys(answers) if a != record.answer]",
           "pool = list(dict.fromkeys(answers))"),
    Mutant("enforce-epochs-boundary", "schedule.py",
           "if order == \"enforced_front\" and epoch <= settings.enforce_epochs",
           "if order == \"enforced_front\" and epoch < settings.enforce_epochs"),
    Mutant("refresh-after-last-epoch", "schedule.py",
           "if epoch < epochs:\n                handle.refresh",
           "if epoch <= epochs:\n                handle.refresh"),
    Mutant("submission-order-reversed", "schedule.py",
           "key=lambda slot: scans[slot][0], reverse=True)",
           "key=lambda slot: scans[slot][0], reverse=False)"),
    Mutant("execution-not-recorded", "schedule.py",
           "execution=settings.recorded(\"execution\"),",
           "execution={},"),
    Mutant("caller-config-replaced", "schedule.py",
           "trace.config.update(",
           "trace.config = dict("),
    Mutant("epoch-log-counts-decisions", "schedule.py",
           "removals = sum(e.decision == DECISION_REMOVED for e in trace.events)",
           "removals = len(trace.events)"),
    # verbosity: the two criteria
    Mutant("varr-zero-boundary", "verbosity.py",
           "return self.verbosity_gt >= 0.0",
           "return self.verbosity_gt > 0.0"),
    Mutant("varr-plus-zero-boundary", "verbosity.py",
           "self.verbosity_wrong - self.verbosity_gt <= 0.0)",
           "self.verbosity_wrong - self.verbosity_gt < 0.0)"),
    Mutant("gold-gate-before-negatives", "verbosity.py",
           "if negatives and v_gt >= 0.0:",
           "if negatives:"),
    Mutant("negative-sample-size", "verbosity.py",
           "if k < len(negatives):",
           "if k <= len(negatives):"),
    # metrics: the trace's laws, the curve and the token stats
    Mutant("trace-budget-check", "metrics.py",
           "if removed > budget_by_group[group]",
           "if removed > budget_by_group[group] + 1"),
    Mutant("trace-warmup-check", "metrics.py",
           "if total_steps and e.t <= warmup_end:",
           "if total_steps and e.t < warmup_end:"),
    Mutant("trace-permanence-check", "metrics.py",
           "if unit in removed_at:",
           "if False and unit in removed_at:"),
    Mutant("all-warmup-ratio", "metrics.py",
           "if potential[epoch] > 0 else 0.0}",
           "if potential[epoch] > 0 else 1.0}"),
    Mutant("unconditional-removals-uncounted", "metrics.py",
           "if e.decision == DECISION_REMOVED:\n            removals.append(e.epoch)",
           "if e.decision == DECISION_REMOVED and not e.unconditional:\n"
           "            removals.append(e.epoch)"),
    Mutant("encode-events-sign-check", "metrics.py",
           "return len(kinds) < 2 and len(signs) < 2",
           "return len(kinds) < 2"),
    Mutant("token-stats-before", "metrics.py",
           "before_avg, after_avg = (after + removed) / n, after / n",
           "before_avg, after_avg = after / n, after / n"),
    # config
    Mutant("recorded-backend-filter", "config.py",
           "\n                and setting.backend in (None, self.scorer_backend)}",
           "}"),
    Mutant("range-check-skipped", "config.py",
           "if broken:\n                raise ConfigurationError(problem)",
           "if False:\n                raise ConfigurationError(problem)"),
    Mutant("pilot-sizes-empty-accepted", "config.py",
           "(not self.pilot_sizes or any(size < 0",
           "(any(size < 0"),
    Mutant("in-flight-uncapped", "config.py",
           "(remote and self.in_flight > MAX_IN_FLIGHT,",
           "(False,"),
    # corpus: the records' equality
    Mutant("equality-drops-a-field", "corpus.py",
           "getattr(other, name) for name in self.__slots__)",
           "getattr(other, name) for name in self.__slots__[:-1])"),
    # cli: logging only at the levels that print
    Mutant("log-level-gate", "cli.py",
           'if args.log_level in ("debug", "info"):',
           'if args.log_level in ("debug",):'),
    Mutant("debug-traceback-gate", "cli.py",
           'if (logging := sys.modules.get("logging")) is not None:\n'
           '            logging.getLogger("varr").debug',
           'if False:\n            logging.getLogger("varr").debug'),
    # cli: the partial trace of a scorer failure
    Mutant("partial-trace-not-saved", "cli.py",
           "trace.save(out_dir / \"trace.partial.json\")",
           "pass"),
    # cli: the collector paused for a reduce, and the caller's setting restored
    Mutant("collector-left-paused", "cli.py",
           "if collecting:\n            gc.enable()",
           "if False:\n            gc.enable()"),
    # scorer: the model's streams and the HTTP client
    Mutant("corpus-view-keeps-removed", "scorer.py",
           "if unit.removed_at is None:\n                stream.extend",
           "if True:\n                stream.extend"),
    Mutant("positive-term-check", "scorer.py",
           "if not all(-math.inf < v <= 0.0 for v in per_token):",
           "if not all(-math.inf < v for v in per_token):"),
    Mutant("max-connecting", "scorer.py",
           "MAX_CONNECTING = 4",
           "MAX_CONNECTING = 64"),
    Mutant("reply-smuggling-reuse", "scorer.py",
           "return status, body, keep and not (length is not None and b\"transfer-encoding\" "
           "in headers)",
           "return status, body, keep"),
    Mutant("http10-keep-alive", "scorer.py",
           "else b\"keep-alive\" in tokens",
           "else True"),
    Mutant("no-body-304", "scorer.py",
           "if status in (204, 304):",
           "if status == 204:"),
    Mutant("reconnect-guard-lift", "scorer.py",
           "except ConnectionError:\n                self._connecting = None\n",
           "except ConnectionError:\n"),
    Mutant("closed-reply-guard-lift", "scorer.py",
           "else:\n            self._connecting = None\n            _close(connection)",
           "else:\n            _close(connection)"),
    Mutant("retry-cap-doubled", "scorer.py",
           "ceiling = min(self.backoff_seconds, self.timeout_seconds)",
           "ceiling = min(2 * self.backoff_seconds, self.timeout_seconds)"),
    Mutant("retry-ceiling-uncapped", "scorer.py",
           "ceiling = min(2 * ceiling, self.timeout_seconds)",
           "ceiling = 2 * ceiling"),
    Mutant("sleep-after-last-attempt", "scorer.py",
           "if attempts < self.max_attempts:\n                time.sleep",
           "if attempts <= self.max_attempts:\n                time.sleep"),
    # pilot
    Mutant("pilot-back-weights", "pilot.py",
           "return [k / total for k in range(1, n + 1)]",
           "return [(n - k + 1) / total for k in range(1, n + 1)]"),
    Mutant("pilot-eligibility-boundary", "pilot.py",
           "if len(r.rationale) >= max_size]",
           "if len(r.rationale) > max_size]"),
    Mutant("pilot-draw-boundary", "pilot.py",
           "if point < acc:",
           "if point <= acc:",
           equivalent="point == acc needs rng.random() * total to land exactly on a "
                      "partial sum of the weights, which has probability near 0, and "
                      "when it does the draw only moves to the neighbouring unit"),
]


def catalogue_problems() -> list[str]:
    """Each mutant whose original text does not occur exactly once in its
    module, and each name used twice."""
    problems = []
    names = [m.name for m in MUTANTS]
    problems += [f"{name}: named twice" for name in sorted({n for n in names
                                                            if names.count(n) > 1})]
    for m in MUTANTS:
        count = (ROOT / PACKAGE / m.module).read_text(encoding="utf-8").count(m.original)
        if count != 1:
            problems.append(f"{m.name}: original text found {count} times in {m.module}")
    return problems


def suite_passes(copy: Path, pytest_args: list[str]) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         f"--ignore={CATALOGUE_TEST}", *pytest_args],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return result.returncode == 0


def run_mutant(copy: Path, mutant: Mutant, pytest_args: list[str]) -> bool:
    """Whether pytest fails (kills the mutant) on ``copy`` with it applied."""
    path = copy / PACKAGE / mutant.module
    source = path.read_text(encoding="utf-8")
    path.write_text(source.replace(mutant.original, mutant.mutated), encoding="utf-8")
    try:
        return not suite_passes(copy, pytest_args)
    finally:
        path.write_text(source, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    pytest_args: list[str] = []
    if "--" in argv:
        at = argv.index("--")
        argv, pytest_args = argv[:at], argv[at + 1:]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--list", action="store_true", help="print the catalogue and exit")
    parser.add_argument("--only", nargs="+", default=None, metavar="NAME",
                        help="run only these mutants")
    args = parser.parse_args(argv)
    problems = catalogue_problems()
    for problem in problems:
        print(f"stale catalogue: {problem}", file=sys.stderr)
    if problems:
        return 1
    chosen = MUTANTS
    if args.only is not None:
        unknown = set(args.only) - {m.name for m in MUTANTS}
        if unknown:
            parser.error(f"unknown mutant(s): {', '.join(sorted(unknown))}")
        chosen = [m for m in MUTANTS if m.name in args.only]
    if args.list:
        for m in chosen:
            print(f"{m.name}\t{m.module}" + ("\tequivalent" if m.equivalent else ""))
        return 0
    failed = False
    with tempfile.TemporaryDirectory(prefix="varr-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)
        # a suite that fails unmutated would kill every mutant
        if not suite_passes(copy, pytest_args):
            print("the tests fail without any mutant; nothing to compare", file=sys.stderr)
            return 1
        for m in chosen:
            killed = run_mutant(copy, m, pytest_args)
            verdict = "killed" if killed else "survived"
            if not killed and m.equivalent:
                verdict += f" (equivalent: {m.equivalent})"
            failed |= not killed and not m.equivalent
            print(f"{m.name}\t{m.module}\t{verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
