"""Verbosity-aware reduction of chain-of-thought training rationales."""

__version__ = "0.1.0"

from .corpus import Corpus, RationaleRecord, RationaleUnit, load_corpus, write_reduced
from .config import RunConfig
from .schedule import run_reduction
from .scorer import RemoteScorer, TabularModel, TabularScorer, fit_tabular_scorer
from .verbosity import VerbosityReport, evaluate_candidate, nll

__all__ = [
    "Corpus",
    "RationaleRecord",
    "RationaleUnit",
    "load_corpus",
    "write_reduced",
    "RunConfig",
    "run_reduction",
    "RemoteScorer",
    "TabularModel",
    "TabularScorer",
    "fit_tabular_scorer",
    "VerbosityReport",
    "evaluate_candidate",
    "nll",
]
