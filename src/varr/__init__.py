"""Verbosity-aware reduction of chain-of-thought training rationales."""

__version__ = "0.1.0"
