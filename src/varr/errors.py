"""Exception taxonomy shared across the package.

Exit-code mapping, applied in one place, ``cli.main`` (README, "Exit codes"):
  ScorerError (incl. TransportError, ProtocolError, OutOfVocabularyError) -> 2
  InternalInvariantError (incl. a broken law of a finished run) and any
  exception outside this taxonomy (an internal fault) -> 3
  ParseError / ValidationError / ConfigurationError, any other VarrError
  and OSError (a file that cannot be read or written) -> 1
"""


class VarrError(Exception):
    """Base class for all package errors."""


class ParseError(VarrError):
    """Malformed input file; message names the offending line."""


class ValidationError(VarrError):
    """Corpus-level rule broken (duplicate id, missing field, bad enum)."""


class ConfigurationError(VarrError):
    """Unusable configuration: unknown template, bad flag combination."""


class ScorerError(VarrError):
    """Base class for failures inside a likelihood scorer."""


class OutOfVocabularyError(ScorerError):
    """A symbol fell outside the tabular model's declared vocabulary."""

    def __init__(self, symbol: str):
        super().__init__(f"symbol not in vocabulary: {symbol!r}")


class TransportError(ScorerError):
    """Remote scorer unreachable after retries; the message ends with the
    attempt count."""

    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (after {attempts} attempt(s))")


class ProtocolError(ScorerError):
    """Remote scorer answered, but not with the documented wire format."""


class InternalInvariantError(VarrError):
    """A law the engine promises to uphold was observed broken."""
