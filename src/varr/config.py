"""Run configuration: one declarative JSON file plus flag overrides.

The file has one section per subsystem; every field is optional and
falls back to the defaults below. Flags override file values. The
merged effective configuration is echoed into every output so results
carry their provenance.

    {
      "schedule":  {"epochs": 5, "batch_size": 8, "warmup_ratio": 0.1, "seed": 0},
      "strategy":  {"candidate_order": "front", "mode": "varr_plus",
                    "unit": "sentence", "enforced_n": 2, "enforce_epochs": 2},
      "negatives": {"k": 4},
      "scorer":    {"backend": "tabular", "smoothing_alpha": 1.0,
                    "template_id": "plain-v1", "url": null, "model": "default",
                    "timeout_ms": null, "max_attempts": 3, "in_flight": 4},
      "segmenter": {"terminal_punctuation": ".?!",
                    "abbreviation_exceptions": [...], "min_unit_chars": 2},
      "pilot":     {"sizes": [1, 2, 3, 4],
                    "strategies": ["front", "random", "back"],
                    "samples_per_record": 8}
    }
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

from .corpus import Corpus
from .errors import ConfigurationError
from .schedule import ClockConfig, StrategyConfig
from .scorer import RemoteScorer, ScorerHandle, fit_tabular_scorer
from .segmenter import DEFAULT_ABBREVIATIONS, SegmentationRules


@dataclass
class RunConfig:
    # schedule
    epochs: int = 5
    batch_size: int = 8
    warmup_ratio: float = 0.1
    seed: int = 0
    # strategy
    candidate_order: str = "front"
    mode: str = "varr_plus"
    unit: str = "sentence"
    enforced_n: int = 2
    enforce_epochs: int = 2
    # negatives
    k_negatives: int = 4
    # scorer
    scorer_backend: str = "tabular"
    smoothing_alpha: float = 1.0
    template_id: str = "plain-v1"
    scorer_url: str | None = None
    scorer_model: str = "default"
    timeout_ms: int | None = None
    max_attempts: int = 3
    in_flight: int = 4
    # segmenter
    terminal_punctuation: str = ".?!"
    abbreviation_exceptions: tuple[str, ...] = tuple(DEFAULT_ABBREVIATIONS)
    min_unit_chars: int = 2
    # pilot
    pilot_sizes: tuple[int, ...] = (1, 2, 3, 4)
    pilot_strategies: tuple[str, ...] = ("front", "random", "back")
    samples_per_record: int = 8

    def clock_config(self) -> ClockConfig:
        return ClockConfig(self.epochs, self.batch_size, self.warmup_ratio)

    def strategy_config(self) -> StrategyConfig:
        return StrategyConfig(
            candidate_order=self.candidate_order,
            mode=self.mode,
            unit=self.unit,
            seed=self.seed,
            enforced_n=self.enforced_n,
            enforce_epochs=self.enforce_epochs,
        )

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
            return fit_tabular_scorer(
                corpus, self.smoothing_alpha, self.template_id
            )
        if self.scorer_backend == "remote":
            return RemoteScorer(
                base_url=self.scorer_url,
                model=self.scorer_model,
                timeout_ms=self.timeout_ms,
                max_attempts=self.max_attempts,
                in_flight=self.in_flight,
            )
        raise ConfigurationError(f"unknown scorer backend {self.scorer_backend!r}")

    def effective_dict(self) -> dict:
        return asdict(self)


# Maps config-file (section, key) -> RunConfig attribute.
_SECTION_FIELDS = {
    ("schedule", "epochs"): "epochs",
    ("schedule", "batch_size"): "batch_size",
    ("schedule", "warmup_ratio"): "warmup_ratio",
    ("schedule", "seed"): "seed",
    ("strategy", "candidate_order"): "candidate_order",
    ("strategy", "mode"): "mode",
    ("strategy", "unit"): "unit",
    ("strategy", "enforced_n"): "enforced_n",
    ("strategy", "enforce_epochs"): "enforce_epochs",
    ("negatives", "k"): "k_negatives",
    ("scorer", "backend"): "scorer_backend",
    ("scorer", "smoothing_alpha"): "smoothing_alpha",
    ("scorer", "template_id"): "template_id",
    ("scorer", "url"): "scorer_url",
    ("scorer", "model"): "scorer_model",
    ("scorer", "timeout_ms"): "timeout_ms",
    ("scorer", "max_attempts"): "max_attempts",
    ("scorer", "in_flight"): "in_flight",
    ("segmenter", "terminal_punctuation"): "terminal_punctuation",
    ("segmenter", "abbreviation_exceptions"): "abbreviation_exceptions",
    ("segmenter", "min_unit_chars"): "min_unit_chars",
    ("pilot", "sizes"): "pilot_sizes",
    ("pilot", "strategies"): "pilot_strategies",
    ("pilot", "samples_per_record"): "samples_per_record",
}

_TUPLE_FIELDS = {"abbreviation_exceptions", "pilot_sizes", "pilot_strategies"}


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


def load_run_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Defaults <- config file sections <- explicit flag overrides."""
    config = RunConfig()
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("config file must hold a JSON object")
        for section, values in data.items():
            if not isinstance(values, dict):
                raise ConfigurationError(f"config section {section!r} must be an object")
            for key, value in values.items():
                attr = _SECTION_FIELDS.get((section, key))
                if attr is None:
                    raise ConfigurationError(f"unknown config entry {section}.{key}")
                hint = _FIELD_TYPES[attr]
                if not _matches(value, hint):
                    expected = hint.__name__ if isinstance(hint, type) else hint
                    raise ConfigurationError(
                        f"config entry {section}.{key} must be {expected}, "
                        f"got {json.dumps(value)}"
                    )
                setattr(config, attr, tuple(value) if attr in _TUPLE_FIELDS else value)
    for attr, value in (overrides or {}).items():
        if value is None:
            continue
        if not hasattr(config, attr):
            raise ConfigurationError(f"unknown config override {attr!r}")
        setattr(config, attr, tuple(value) if attr in _TUPLE_FIELDS else value)
    return config


def parse_strategy_flag(raw: str) -> tuple[str, int | None]:
    """CLI spelling -> (candidate_order, enforced_n?).

    Accepts front, random, back, no-rule, enforced-front:N.
    """
    name = raw.replace("-", "_")
    if name.startswith("enforced_front"):
        parts = name.split(":")
        if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
            raise ConfigurationError(
                "enforced-front takes a positive count, e.g. enforced-front:2"
            )
        return "enforced_front", int(parts[1])
    if name in ("front", "random", "back", "no_rule"):
        return name, None
    raise ConfigurationError(f"unknown strategy {raw!r}")


def parse_mode_flag(raw: str) -> str:
    name = raw.replace("-", "_")
    if name not in ("varr", "varr_plus"):
        raise ConfigurationError(f"unknown mode {raw!r}")
    return name
