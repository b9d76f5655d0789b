"""The committed corpora under tests/data/ are what scripts/make_fixtures.py
generates, byte for byte."""

import importlib.util
from pathlib import Path

import pytest

from .conftest import FIXTURE_CORPUS, LONG_ANSWER_CORPUS, PILOT_CORPUS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


def load_script():
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path, generator", [
    (FIXTURE_CORPUS, "reduction_records"),
    (PILOT_CORPUS, "pilot_records"),
    (LONG_ANSWER_CORPUS, "long_answer_records"),
], ids=["fixture_corpus", "pilot_synthetic", "long_answer_corpus"])
def test_committed_fixture_matches_its_generator(path, generator):
    script = load_script()
    assert script.jsonl(getattr(script, generator)()).encode("utf-8") == path.read_bytes()
