"""Deterministic splitting of rationale text into sentence or token units.

Sentence boundaries are purely rule-based: a terminal punctuation mark,
followed by whitespace, followed by an upper-case letter or a digit,
opens a new sentence unless the word carrying the mark is a known
abbreviation ("Dr.", "e.g.", ...). No statistical boundary detection,
no language-specific morphology; the rule set is pinned and versioned so
identical inputs split identically on every platform.

Reconstruction invariant: joining the returned segments with single
spaces equals the input after collapsing all whitespace runs to single
spaces. Pathological text (no terminals at all) comes back as one
segment.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_RULE_ID = "default-v1"

# Words that end with a terminal mark without ending a sentence.
# A deliberately small, documented list; extend via SegmentationRules.
DEFAULT_ABBREVIATIONS = [
    "Dr.", "Mr.", "Mrs.", "Ms.", "Prof.", "St.", "Mt.", "No.",
    "Fig.", "Eq.", "Sec.", "approx.", "etc.", "vs.",
    "e.g.", "i.e.", "cf.",
]


@dataclass(frozen=True)
class SegmentationRules:
    terminal_punctuation: str = ".?!"
    abbreviation_exceptions: tuple[str, ...] = tuple(DEFAULT_ABBREVIATIONS)
    min_unit_chars: int = 2
    rule_id: str = DEFAULT_RULE_ID

    def __post_init__(self):
        if not self.terminal_punctuation:
            raise ValueError("terminal_punctuation must be non-empty")
        if self.min_unit_chars < 1:
            raise ValueError("min_unit_chars must be >= 1")


def normalize_whitespace(text: str) -> str:
    return " ".join(text.split())


def segment_sentences(text: str, rules: SegmentationRules | None = None) -> list[str]:
    """Split rationale text into sentence units.

    A split point is a terminal character followed by a space and then an
    upper-case letter or digit, provided the word ending in the terminal
    is not an abbreviation exception and the closing segment is at least
    ``min_unit_chars`` long. A trailing fragment shorter than the minimum
    is merged into the previous segment.
    """
    if rules is None:
        rules = SegmentationRules()
    if not text.strip():
        raise ValueError("cannot segment empty text")

    normalized = normalize_whitespace(text)
    segments: list[str] = []
    start = 0
    i = 0
    while i < len(normalized) - 1:
        ch = normalized[i]
        if ch in rules.terminal_punctuation and normalized[i + 1] == " ":
            nxt = normalized[i + 2] if i + 2 < len(normalized) else ""
            if nxt and (nxt.isupper() or nxt.isdigit()):
                word = _word_ending_at(normalized, i)
                candidate = normalized[start : i + 1]
                if (
                    word not in rules.abbreviation_exceptions
                    and len(candidate) >= rules.min_unit_chars
                ):
                    segments.append(candidate)
                    start = i + 2
                    i += 2
                    continue
        i += 1
    tail = normalized[start:]
    if tail:
        if segments and len(tail) < rules.min_unit_chars:
            segments[-1] = segments[-1] + " " + tail
        else:
            segments.append(tail)
    return segments


def _word_ending_at(text: str, index: int) -> str:
    """The whitespace-delimited word whose last character sits at ``index``."""
    begin = text.rfind(" ", 0, index)
    return text[begin + 1 : index + 1]


def segment_tokens(text: str) -> list[str]:
    """Split a sentence into token units on runs of whitespace."""
    if not text.strip():
        raise ValueError("cannot tokenize empty text")
    return text.split()
