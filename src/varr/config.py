"""Run configuration: one declarative JSON file plus flag overrides.

``RunConfig`` is the only settings object: the CLI builds one, and
``corpus.load_corpus`` (unit and segmenter settings), the driver
(``schedule.run_reduction``) and ``pilot.pilot_nll_curve`` read their
settings off it. Each field's entry in ``FIELDS`` names its config-file
section and key, its default, its JSON type and its role:

* decision -- the settings that decide which units a reduction removes.
  ``run_reduction`` records them as ``config.run`` in the trace, and they
  enter the determinism fingerprint.
* execution -- how the remote scorer is reached (URL, timeout, attempts,
  concurrency). Recorded as ``config.execution``, outside the
  fingerprint, like ``config.paths``; all of them are remote-only, so a
  tabular run records ``execution: {}``.
* pilot -- read by ``varr pilot`` only; ``reduce`` does not record them.

A field read by one scorer backend only names it (``backend``); a run on
the other backend neither records nor fingerprints it.

The file holds one JSON object per section, each entry optional, e.g.
``{"schedule": {"epochs": 3}, "scorer": {"in_flight": 1}}``; an entry
absent from the file keeps its default. A CLI flag overrides the field
whose name is its argparse ``dest``. Settings are checked in two places
only: ``load_run_config`` (the file's entries and JSON types, the
environment) and ``RunConfig`` as it is built (every range, once, so a
bad value fails before any work).
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple

from .corpus import GRANULARITIES, RationaleRecord, parse_json
from .errors import ConfigurationError
from .schedule import CANDIDATE_ORDERS
from .scorer import (
    DEFAULT_IN_FLIGHT,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_TIMEOUT_MS,
    TEMPLATES,
    RemoteScorer,
    ScorerHandle,
    fit_tabular_scorer,
)
from .segmenter import DEFAULT_ABBREVIATIONS, DEFAULT_MIN_UNIT_CHARS, DEFAULT_TERMINAL_PUNCTUATION
from .verbosity import MODE_VARR_PLUS, MODES

DECISION = "decision"
EXECUTION = "execution"
PILOT = "pilot"
BACKENDS = ("tabular", "remote")
PILOT_STRATEGIES = ("front", "random", "back")
ENV_SCORER_URL = "VARR_SCORER_URL"
ENV_SCORER_TIMEOUT_MS = "VARR_SCORER_TIMEOUT_MS"
# About 24.8 days; a socket refuses more than its time_t holds (9.2e9 s on 64-bit Linux).
MAX_TIMEOUT_MS = 2**31 - 1
# Each epoch walks every step, so a mistyped count would run for hours.
MAX_EPOCHS = 1_000
# Each in-flight scan holds a thread and a socket: more would exhaust them.
MAX_IN_FLIGHT = 256


class Setting(NamedTuple):
    """One RunConfig field: the config-file entry ``section.key`` that sets
    it, its default, its JSON type spelled as its Python annotation, its
    role, and the one scorer backend that reads it, if only one does."""

    section: str
    key: str
    default: object
    kind: str
    role: str = DECISION
    backend: str | None = None


# RunConfig's fields in order: name -> Setting
FIELDS = {
    "epochs": Setting("schedule", "epochs", 5, "int"),
    "batch_size": Setting("schedule", "batch_size", 8, "int"),
    "warmup_ratio": Setting("schedule", "warmup_ratio", 0.1, "float"),
    "seed": Setting("schedule", "seed", 0, "int"),
    "candidate_order": Setting("strategy", "candidate_order", "front", "str"),
    "mode": Setting("strategy", "mode", "varr_plus", "str"),
    "unit": Setting("strategy", "unit", "sentence", "str"),
    "enforced_n": Setting("strategy", "enforced_n", 2, "int"),
    "enforce_epochs": Setting("strategy", "enforce_epochs", 2, "int"),
    "k_negatives": Setting("negatives", "k", 4, "int"),
    "scorer_backend": Setting("scorer", "backend", "tabular", "str"),
    "smoothing_alpha": Setting("scorer", "smoothing_alpha", 1.0, "float", backend="tabular"),
    "template_id": Setting("scorer", "template_id", "plain-v1", "str"),
    "scorer_url": Setting("scorer", "url", None, "str | None", EXECUTION, "remote"),
    "scorer_model": Setting("scorer", "model", "default", "str", backend="remote"),
    "timeout_ms": Setting("scorer", "timeout_ms", None, "int | None", EXECUTION, "remote"),
    "max_attempts": Setting(
        "scorer", "max_attempts", DEFAULT_MAX_ATTEMPTS, "int", EXECUTION, "remote"),
    "in_flight": Setting("scorer", "in_flight", DEFAULT_IN_FLIGHT, "int", EXECUTION, "remote"),
    "terminal_punctuation": Setting(
        "segmenter", "terminal_punctuation", DEFAULT_TERMINAL_PUNCTUATION, "str"),
    "abbreviation_exceptions": Setting(
        "segmenter", "abbreviation_exceptions", DEFAULT_ABBREVIATIONS, "tuple[str, ...]"),
    "min_unit_chars": Setting("segmenter", "min_unit_chars", DEFAULT_MIN_UNIT_CHARS, "int"),
    "pilot_sizes": Setting("pilot", "sizes", (1, 2, 3, 4), "tuple[int, ...]", PILOT),
    "pilot_strategies": Setting(
        "pilot", "strategies", ("front", "random", "back"), "tuple[str, ...]", PILOT),
    "samples_per_record": Setting("pilot", "samples_per_record", 8, "int", PILOT),
}


class RunConfig(namedtuple("RunConfig", FIELDS, defaults=[s.default for s in FIELDS.values()])):
    """The settings of a run, one field per entry of FIELDS, each range
    checked as it is built. A named tuple: immutable, and equal to another
    field by field. Build one by calling the class: ``_make`` and
    ``_replace`` skip the checks."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        remote = self.scorer_backend == "remote"
        if remote and self.timeout_ms is None:  # recorded as the scorer will use it
            self = self._replace(timeout_ms=DEFAULT_TIMEOUT_MS)
        for broken, problem in (
            (self.epochs < 1, f"epochs must be >= 1, got {self.epochs}"),
            (self.epochs > MAX_EPOCHS, f"epochs must be <= {MAX_EPOCHS}, got {self.epochs}"),
            (self.batch_size < 1, f"batch_size must be >= 1, got {self.batch_size}"),
            (not 0.0 <= self.warmup_ratio <= 1.0,
             f"warmup_ratio must be in [0, 1], got {self.warmup_ratio}"),
            (self.candidate_order not in CANDIDATE_ORDERS,
             f"unknown candidate_order {self.candidate_order!r}"),
            (self.mode not in MODES, f"unknown mode {self.mode!r}"),
            (self.unit not in GRANULARITIES, f"unknown unit {self.unit!r}"),
            (self.candidate_order == "enforced_front" and self.enforced_n < 1,
             f"enforced_front requires enforced_n >= 1, got {self.enforced_n}"),
            (self.mode == MODE_VARR_PLUS and self.k_negatives < 1,
             f"k_negatives must be >= 1 in varr_plus mode, got {self.k_negatives}"),
            (self.scorer_backend not in BACKENDS,
             f"unknown scorer backend {self.scorer_backend!r}"),
            (self.scorer_backend == "tabular"
             and not 0.0 < self.smoothing_alpha < math.inf,
             f"smoothing_alpha must be a finite number > 0, got {self.smoothing_alpha}"),
            (self.template_id not in TEMPLATES,
             f"unknown template_id {self.template_id!r}"),
            (remote and self.timeout_ms < 1,
             f"timeout_ms must be >= 1, got {self.timeout_ms}"),
            (remote and self.timeout_ms > MAX_TIMEOUT_MS,
             f"timeout_ms must be <= {MAX_TIMEOUT_MS}, got {self.timeout_ms}"),
            (remote and self.max_attempts < 1,
             f"max_attempts must be >= 1, got {self.max_attempts}"),
            (remote and self.in_flight < 1, f"in_flight must be >= 1, got {self.in_flight}"),
            (remote and self.in_flight > MAX_IN_FLIGHT,
             f"in_flight must be <= {MAX_IN_FLIGHT}, got {self.in_flight}"),
            (not self.terminal_punctuation, "terminal_punctuation must be non-empty"),
            (self.min_unit_chars < 1, f"min_unit_chars must be >= 1, got {self.min_unit_chars}"),
            (not self.pilot_strategies
             or any(s not in PILOT_STRATEGIES for s in self.pilot_strategies),
             f"pilot strategies must be some of {', '.join(PILOT_STRATEGIES)}, "
             f"got {list(self.pilot_strategies)}"),
            (not self.pilot_sizes or any(size < 0 for size in self.pilot_sizes),
             f"pilot sizes must be one or more sizes >= 0, got {list(self.pilot_sizes)}"),
            (self.samples_per_record < 1,
             f"samples_per_record must be >= 1, got {self.samples_per_record}"),
        ):
            if broken:
                raise ConfigurationError(problem)
        return self

    def build_scorer(self, corpus: list[RationaleRecord] | None = None) -> ScorerHandle:
        """Tabular scorers fit on the given corpus; remote ones connect."""
        if self.scorer_backend == "tabular":
            return fit_tabular_scorer(corpus, self.smoothing_alpha)
        return RemoteScorer(
            base_url=self.scorer_url,
            model=self.scorer_model,
            timeout_ms=self.timeout_ms,
            max_attempts=self.max_attempts,
            in_flight=self.in_flight,
        )

    def recorded(self, role: str = DECISION) -> dict:
        """The fields of one role (DECISION, EXECUTION or PILOT) by name,
        without those that only the other scorer backend reads."""
        return {name: value for (name, setting), value in zip(FIELDS.items(), self)
                if setting.role == role
                and setting.backend in (None, self.scorer_backend)}


def _matches(value, kind: str) -> bool:
    """Whether a JSON value fits a setting's type (``Setting.kind``)."""
    if kind.endswith(" | None"):
        return value is None or _matches(value, kind[:-len(" | None")])
    if kind.startswith("tuple["):  # tuple[X, ...]: a JSON list of X
        item = kind[len("tuple["):-len(", ...]")]
        return isinstance(value, list) and all(_matches(v, item) for v in value)
    if kind == "str":
        return isinstance(value, str)
    numbers = (int, float) if kind == "float" else int
    return isinstance(value, numbers) and not isinstance(value, bool)


# config-file (section, key) -> RunConfig field name
_ENTRIES = {(s.section, s.key): name for name, s in FIELDS.items()}


def _value(name: str, value):
    """A JSON list becomes a tuple for the tuple-typed fields."""
    return tuple(value) if FIELDS[name].kind.startswith("tuple[") else value


def load_run_config(path: str | Path | None, flags: dict | None = None) -> RunConfig:
    """Defaults <- config file sections <- flags, checked once at the end.

    ``flags`` maps names to values, as ``vars()`` of parsed arguments does:
    an entry named after a RunConfig field overrides it unless it is None,
    and other entries are ignored. On the remote backend, the variables
    VARR_SCORER_URL and VARR_SCORER_TIMEOUT_MS fill in the scorer URL and
    timeout that neither the file nor the flags set.
    """
    values = {}
    if path is not None:
        try:
            data = parse_json(Path(path).read_text(encoding="utf-8"))
        # ValueError: not UTF-8, not JSON, or JSON the parser refuses
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("config file must hold a JSON object")
        for section, entries in data.items():
            if not isinstance(entries, dict):
                raise ConfigurationError(f"config section {section!r} must be an object")
            for key, value in entries.items():
                attr = _ENTRIES.get((section, key))
                if attr is None:
                    raise ConfigurationError(f"unknown config entry {section}.{key}")
                kind = FIELDS[attr].kind
                if not _matches(value, kind):
                    raise ConfigurationError(
                        f"config entry {section}.{key} must be {kind}, "
                        f"got {json.dumps(value)}"
                    )
                values[attr] = _value(attr, value)
    for name in FIELDS:
        value = (flags or {}).get(name)
        if value is not None:
            values[name] = _value(name, value)
    if values.get("scorer_backend", FIELDS["scorer_backend"].default) == "remote":
        if url := values.get("scorer_url") or os.environ.get(ENV_SCORER_URL):
            values["scorer_url"] = url
        timeout = os.environ.get(ENV_SCORER_TIMEOUT_MS)
        if values.get("timeout_ms") is None and timeout is not None:
            try:
                values["timeout_ms"] = int(timeout)
            except ValueError:
                raise ConfigurationError(
                    f"{ENV_SCORER_TIMEOUT_MS}={timeout!r} is not a whole number of"
                    " milliseconds (timeout_ms)") from None
    return RunConfig(**values)
