"""scripts/mutants.py's catalogue still matches the source: each mutant's
original text occurs exactly once in its module, so no mutant silently
stops applying when the code around it changes."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"


def load_script():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_original_occurs_exactly_once():
    script = load_script()
    assert script.MUTANTS
    assert script.catalogue_problems() == []
    assert all(m.original != m.mutated for m in script.MUTANTS)
