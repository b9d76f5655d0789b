from hypothesis import given, settings
from hypothesis import strategies as st

from varr.segmenter import (
    DEFAULT_ABBREVIATIONS,
    DEFAULT_TERMINAL_PUNCTUATION,
    normalize_whitespace,
    segment_sentences,
    segment_tokens,
)

from .oracles import oracle_segment_sentences


def test_two_terminal_periods():
    assert segment_sentences("He bikes 40 miles. So 200 miles total.") == [
        "He bikes 40 miles.",
        "So 200 miles total.",
    ]


def test_no_terminal_single_segment():
    assert segment_sentences("x = 2") == ["x = 2"]


def test_abbreviation_exception_blocks_split():
    got = segment_sentences("Dr. Lee ran 5 km. Then rested.",
                            abbreviation_exceptions=("Dr.",))
    assert got == ["Dr. Lee ran 5 km.", "Then rested."]


def test_split_requires_upper_or_digit_after_terminal():
    assert segment_sentences("value a.b stays. and lower continues") == [
        "value a.b stays. and lower continues"
    ]
    assert segment_sentences("First part done. 2 more to go.") == [
        "First part done.",
        "2 more to go.",
    ]


def test_decimal_numbers_not_split():
    assert segment_sentences("It is 3.5 miles. Then home.") == [
        "It is 3.5 miles.",
        "Then home.",
    ]


def test_question_and_exclamation_terminals():
    assert segment_sentences("Is it so? It is! Done now.") == [
        "Is it so?",
        "It is!",
        "Done now.",
    ]


def test_short_trailing_fragment_merges():
    got = segment_sentences("A full sentence here. Ok", min_unit_chars=3)
    assert got == ["A full sentence here. Ok"]


def test_whitespace_runs_collapse():
    got = segment_sentences("One  here.   Two \t there.")
    assert got == ["One here.", "Two there."]


def test_blank_text_gives_no_segments():
    assert segment_sentences("   ") == []


text_strategy = st.text(
    alphabet=st.sampled_from(list("abcXY12 .?!\t\n")), min_size=1, max_size=80
).filter(lambda s: s.strip())


@given(text_strategy)
@settings(max_examples=200)
def test_reconstruction_invariant(text):
    segments = segment_sentences(text)
    assert " ".join(segments) == normalize_whitespace(text)


@given(text_strategy)
def test_determinism(text):
    assert segment_sentences(text) == segment_sentences(text)


# Words that end in a mark, abbreviations, non-ASCII capitals and digits
# ("É", "Σ", "Ж", "٣") and marks that a regular expression
# character class treats specially.
WORDS = st.sampled_from([
    "a", "bc", "Dr.", "e.g.", "vs.", "X.", "Élan.", "ß?", "12", "٣", "3.5",
    "no!", "ok.", "Σ", "Жe", "end.", "?", "!", ".", "…", "^", "]", "-", "x\\",
    "été;", "Q;",
])
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\n"])


@given(
    words=st.lists(st.tuples(WORDS, SEPARATORS), min_size=1, max_size=30),
    terminal_punctuation=st.sampled_from(
        [DEFAULT_TERMINAL_PUNCTUATION, ".", "!?", ".;…", "^]-\\"]),
    abbreviation_exceptions=st.sampled_from(
        [DEFAULT_ABBREVIATIONS, (), ("X.", "ok.", "^")]),
    min_unit_chars=st.integers(1, 8),
)
@settings(max_examples=300, deadline=None)
def test_regex_split_agrees_with_character_scan(words, terminal_punctuation,
                                                 abbreviation_exceptions, min_unit_chars):
    text = "".join(word + sep for word, sep in words).rstrip()
    rules = (terminal_punctuation, abbreviation_exceptions, min_unit_chars)
    assert segment_sentences(text, *rules) == oracle_segment_sentences(text, *rules)
    # a mark at the very end of the text
    text += terminal_punctuation[-1]
    assert segment_sentences(text, *rules) == oracle_segment_sentences(text, *rules)


def test_tokens_whitespace():
    assert segment_tokens("a b c") == ["a", "b", "c"]
    assert segment_tokens("a") == ["a"]
    assert " ".join(segment_tokens("a  b\tc")) == "a b c"
    assert segment_tokens(" \t ") == []
