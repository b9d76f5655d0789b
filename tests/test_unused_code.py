"""Every module-level function, class and constant of ``varr``, and every
method and class attribute of its classes, is reached by the program,
not only by its tests.

A module-level definition in ``src/varr/*.py`` (a function, a class, or
a name assigned at the top level, dunders skipped) counts as used when its
name is read (as a name or an attribute) by code in ``src/varr`` outside
its own definition, in ``scripts/`` or in ``perfbench/``. The package
root re-exports nothing, so an export is no use. A method counts as
used only when its name is read as an attribute (``x.name``) there, so a
local variable of the same name does not hide it. A method also counts
as used when it overrides a method of a base class, found at run time
through the class's MRO, since the base's code calls it (argparse calls
``error``). Dunder methods are skipped. A class attribute, a plain
assignment in a class body (``ast.Assign``; dataclass and NamedTuple
fields are annotated, so they are not among them), counts as used only
when it is read as an attribute there; overriding one does not count.
So does an instance attribute, an attribute of ``self`` stored by an
assignment in a method (``self.x = ...``, also inside a tuple target).
Names are matched as identifiers, parsed with ``ast``, not by type: a
method still passes when an attribute of another object that shares its
name is read (a method ``total`` would pass on ``LogLikelihood.total``).
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "varr"

ALLOWED = {
    # ROADMAP item 1: `varr verify` will replay the trace onto the input.
    "replay_trace",
    # ROADMAP item 1: `varr verify` will read the finished run's trace.json.
    "load",
}


def names_read(tree: ast.AST) -> Counter:
    """How often each identifier is read as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def attributes_read(tree: ast.AST) -> Counter:
    """How often each identifier is read as an attribute."""
    return Counter(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(path: Path, tree: ast.Module):
    """(node, name, reader, class whose bases it may override or None) for
    each module-level function, class and non-dunder constant, and each
    non-dunder method, class attribute and instance attribute of a
    module-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    module = importlib.import_module(f"varr.{path.stem}")
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node, node.name, names_read, None
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for store in (name for target in targets for name in ast.walk(target)):
                if isinstance(store, ast.Name) and not dunder(store.id):
                    yield node, store.id, names_read, None
        if isinstance(node, ast.ClassDef):
            cls = getattr(module, node.name)
            for member in node.body:
                if isinstance(member, functions) and not dunder(member.name):
                    yield member, member.name, attributes_read, cls
                if isinstance(member, ast.Assign):
                    for target in member.targets:
                        yield member, target.id, attributes_read, None
                if isinstance(member, functions):
                    for store in instance_stores(member):
                        yield store, store.attr, attributes_read, None


def instance_stores(method: ast.AST):
    """The ``self.x`` targets of the assignments in a method, each name once."""
    seen = set()
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for store in ast.walk(target):
                    if (isinstance(store, ast.Attribute) and isinstance(store.ctx, ast.Store)
                            and isinstance(store.value, ast.Name) and store.value.id == "self"
                            and store.attr not in seen):
                        seen.add(store.attr)
                        yield store


def overrides(cls: type | None, name: str) -> bool:
    return cls is not None and any(name in vars(base) for base in cls.__mro__[1:])


def test_every_module_level_definition_is_used_outside_the_tests():
    modules = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    others = [parse(path) for directory in ("scripts", "perfbench")
              for path in (ROOT / directory).rglob("*.py")]
    # reader -> (reads in src/varr, reads in scripts/ and perfbench/)
    reads = {read: (sum(map(read, modules.values()), Counter()), sum(map(read, others), Counter()))
             for read in (names_read, attributes_read)}

    unused = []
    for path, tree in modules.items():
        for node, name, read, cls in definitions(path, tree):
            in_package, elsewhere = reads[read]
            outside_itself = in_package[name] - read(node)[name]
            if (outside_itself or elsewhere[name] or name in ALLOWED
                    or overrides(cls, name)):
                continue
            unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
