"""Deterministic splitting of rationale text into sentence or token units.

Sentence boundaries are purely rule-based: a terminal punctuation mark,
followed by whitespace, followed by an upper-case letter or a digit,
opens a new sentence unless the word carrying the mark is a known
abbreviation ("Dr.", "e.g.", ...). No statistical boundary detection,
no language-specific morphology; the rules are pinned, and set only by
the ``segmenter`` settings, so identical inputs split identically on
every platform.

Reconstruction invariant: joining the returned segments with single
spaces equals the input after collapsing all whitespace runs to single
spaces. Pathological text (no terminals at all) comes back as one
segment, and blank text as none (``[]``).
"""

from __future__ import annotations

import re

# The default rules, which are also RunConfig's segmenter defaults.
DEFAULT_TERMINAL_PUNCTUATION = ".?!"
DEFAULT_MIN_UNIT_CHARS = 2
# Words that end with a terminal mark without ending a sentence.
# A deliberately small, documented list.
DEFAULT_ABBREVIATIONS = (
    "Dr.", "Mr.", "Mrs.", "Ms.", "Prof.", "St.", "Mt.", "No.",
    "Fig.", "Eq.", "Sec.", "approx.", "etc.", "vs.",
    "e.g.", "i.e.", "cf.",
)


def normalize_whitespace(text: str) -> str:
    return " ".join(text.split())


def segment_sentences(text: str, terminal_punctuation: str = DEFAULT_TERMINAL_PUNCTUATION,
                      abbreviation_exceptions: tuple[str, ...] = DEFAULT_ABBREVIATIONS,
                      min_unit_chars: int = DEFAULT_MIN_UNIT_CHARS) -> list[str]:
    """Split rationale text into sentence units.

    A split point is a character of ``terminal_punctuation`` followed by
    a space and then an upper-case letter or digit, provided the word
    ending in it is not one of ``abbreviation_exceptions`` and the closing
    segment is at least ``min_unit_chars`` long. A trailing fragment
    shorter than the minimum is merged into the previous segment.
    """
    normalized = normalize_whitespace(text)
    segments: list[str] = []
    start = 0
    # Each match is a terminal mark and the space after it; matches cannot
    # overlap, as the normalized text holds no two spaces in a row.
    for match in re.finditer(f"[{re.escape(terminal_punctuation)}] ", normalized):
        i = match.start()
        nxt = normalized[i + 2 : i + 3]
        if nxt and (nxt.isupper() or nxt.isdigit()):
            candidate = normalized[start : i + 1]
            if (
                _word_ending_at(normalized, i) not in abbreviation_exceptions
                and len(candidate) >= min_unit_chars
            ):
                segments.append(candidate)
                start = i + 2
    tail = normalized[start:]
    if tail:
        if segments and len(tail) < min_unit_chars:
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
    return text.split()
