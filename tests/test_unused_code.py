"""Every module-level function and class of ``varr`` is reached by the
program, not only by its tests.

A definition in ``src/varr/*.py`` counts as used when its name is read
(as a name or an attribute) by code in ``src/varr`` outside its own
definition, in ``scripts/`` or in ``perfbench/``, or when ``varr.__all__``
exports it. Names are matched as identifiers, parsed with ``ast``.
Methods are out of scope: only the top level of each module is checked.
"""

import ast
from collections import Counter
from pathlib import Path

import varr

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "varr"

ALLOWED = {
    # ROADMAP item 1: `varr verify` will replay the trace onto the input.
    "replay_trace",
}


def names_read(tree: ast.AST) -> Counter:
    """How often each identifier is read as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_module_level_definition_is_used_outside_the_tests():
    modules = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    elsewhere = Counter()
    for directory in ("scripts", "perfbench"):
        for path in (ROOT / directory).rglob("*.py"):
            elsewhere += names_read(parse(path))
    in_package = sum((names_read(tree) for tree in modules.values()), Counter())

    unused = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            outside_itself = in_package[name] - names_read(node)[name]
            if (outside_itself or elsewhere[name] or name in varr.__all__
                    or name in ALLOWED):
                continue
            unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
