"""Run configuration: one declarative JSON file plus flag overrides.

``RunConfig`` is the only settings object: the CLI builds one, and the
driver (``schedule.run_reduction``) and ``pilot.pilot_nll_curve`` read
their settings off it. Each field names its config-file section and key,
and its role:

* decision -- the settings that decide which units a reduction removes.
  ``run_reduction`` records them as ``config.run`` in the trace, and they
  enter the determinism fingerprint.
* execution -- how the remote scorer is reached (URL, timeout, attempts,
  concurrency). Recorded as ``config.execution``, outside the
  fingerprint, like ``config.paths``.
* pilot -- read by ``varr pilot`` only; ``reduce`` does not record them.

A field read by one scorer backend only names it (``backend``); a run on
the other backend neither records nor fingerprints it.

The file holds one JSON object per section, each entry optional, e.g.
``{"schedule": {"epochs": 3}, "scorer": {"in_flight": 1}}``; an entry
absent from the file keeps its default. A CLI flag overrides the field
whose name is its argparse ``dest``. The settings are checked once, when
the ``RunConfig`` is built, so a bad value fails before any work.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

from .corpus import GRANULARITIES, Corpus
from .errors import ConfigurationError
from .pilot import PILOT_STRATEGIES
from .schedule import CANDIDATE_ORDERS
from .scorer import TEMPLATES, RemoteScorer, ScorerHandle, fit_tabular_scorer
from .segmenter import DEFAULT_ABBREVIATIONS, SegmentationRules
from .verbosity import MODE_VARR_PLUS, MODES

DECISION = "decision"
EXECUTION = "execution"
PILOT = "pilot"
BACKENDS = ("tabular", "remote")


def _setting(section: str, key: str, default, role: str = DECISION,
             backend: str | None = None):
    """A RunConfig field read from the config-file entry ``section.key``.

    ``backend`` names the one scorer backend that reads it, if only one does.
    """
    return field(default=default, metadata={
        "section": section, "key": key, "role": role, "backend": backend})


@dataclass(frozen=True)
class RunConfig:
    epochs: int = _setting("schedule", "epochs", 5)
    batch_size: int = _setting("schedule", "batch_size", 8)
    warmup_ratio: float = _setting("schedule", "warmup_ratio", 0.1)
    seed: int = _setting("schedule", "seed", 0)
    candidate_order: str = _setting("strategy", "candidate_order", "front")
    mode: str = _setting("strategy", "mode", "varr_plus")
    unit: str = _setting("strategy", "unit", "sentence")
    enforced_n: int = _setting("strategy", "enforced_n", 2)
    enforce_epochs: int = _setting("strategy", "enforce_epochs", 2)
    k_negatives: int = _setting("negatives", "k", 4)
    scorer_backend: str = _setting("scorer", "backend", "tabular")
    smoothing_alpha: float = _setting("scorer", "smoothing_alpha", 1.0, backend="tabular")
    template_id: str = _setting("scorer", "template_id", "plain-v1")
    scorer_url: str | None = _setting("scorer", "url", None, EXECUTION)
    scorer_model: str = _setting("scorer", "model", "default", backend="remote")
    timeout_ms: int | None = _setting("scorer", "timeout_ms", None, EXECUTION)
    max_attempts: int = _setting("scorer", "max_attempts", 3, EXECUTION)
    in_flight: int = _setting("scorer", "in_flight", 4, EXECUTION)
    terminal_punctuation: str = _setting("segmenter", "terminal_punctuation", ".?!")
    abbreviation_exceptions: tuple[str, ...] = _setting(
        "segmenter", "abbreviation_exceptions", tuple(DEFAULT_ABBREVIATIONS))
    min_unit_chars: int = _setting("segmenter", "min_unit_chars", 2)
    pilot_sizes: tuple[int, ...] = _setting("pilot", "sizes", (1, 2, 3, 4), PILOT)
    pilot_strategies: tuple[str, ...] = _setting(
        "pilot", "strategies", ("front", "random", "back"), PILOT)
    samples_per_record: int = _setting("pilot", "samples_per_record", 8, PILOT)

    def __post_init__(self):
        for broken, problem in (
            (self.epochs < 1, f"epochs must be >= 1, got {self.epochs}"),
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
            (not self.pilot_strategies
             or any(s not in PILOT_STRATEGIES for s in self.pilot_strategies),
             f"pilot strategies must be some of {', '.join(PILOT_STRATEGIES)}, "
             f"got {list(self.pilot_strategies)}"),
            (any(size < 0 for size in self.pilot_sizes),
             f"pilot sizes must be >= 0, got {list(self.pilot_sizes)}"),
            (self.samples_per_record < 1,
             f"samples_per_record must be >= 1, got {self.samples_per_record}"),
        ):
            if broken:
                raise ConfigurationError(problem)

    def segmentation_rules(self) -> SegmentationRules:
        return SegmentationRules(
            terminal_punctuation=self.terminal_punctuation,
            abbreviation_exceptions=tuple(self.abbreviation_exceptions),
            min_unit_chars=self.min_unit_chars,
        )

    def build_scorer(self, corpus: Corpus | None = None) -> ScorerHandle:
        """Tabular scorers fit on the given corpus; remote ones connect."""
        if self.scorer_backend == "tabular":
            if corpus is None:
                raise ConfigurationError("tabular scorer needs a corpus to fit on")
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
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.metadata["role"] == role
                and f.metadata["backend"] in (None, self.scorer_backend)}


def _matches(value, hint) -> bool:
    """Whether a JSON value fits a RunConfig field annotation."""
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(hint, type):
        return isinstance(value, hint)
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_matches(value, arg) for arg in args)
    # tuple[X, ...]: a JSON list of X
    return isinstance(value, list) and all(_matches(v, args[0]) for v in value)


_FIELD_TYPES = typing.get_type_hints(RunConfig)
# config-file (section, key) -> RunConfig field name
_ENTRIES = {(f.metadata["section"], f.metadata["key"]): f.name for f in fields(RunConfig)}


def _value(name: str, value):
    """A JSON list becomes a tuple for the tuple-typed fields."""
    return tuple(value) if typing.get_origin(_FIELD_TYPES[name]) is tuple else value


def load_run_config(path: str | Path | None, flags: dict | None = None) -> RunConfig:
    """Defaults <- config file sections <- flags, checked once at the end.

    ``flags`` maps names to values, as ``vars()`` of parsed arguments does:
    an entry named after a RunConfig field overrides it unless it is None,
    and other entries are ignored.
    """
    values = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
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
                hint = _FIELD_TYPES[attr]
                if not _matches(value, hint):
                    expected = hint.__name__ if isinstance(hint, type) else hint
                    raise ConfigurationError(
                        f"config entry {section}.{key} must be {expected}, "
                        f"got {json.dumps(value)}"
                    )
                values[attr] = _value(attr, value)
    for name in _FIELD_TYPES:
        value = (flags or {}).get(name)
        if value is not None:
            values[name] = _value(name, value)
    return RunConfig(**values)
