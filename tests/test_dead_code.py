"""Every definition in src/twdeg has a caller in the program itself, and
every dataclass field is read somewhere.

A module-level function, class or constant, or a non-dunder method, that
nothing in src/ or bench/ names outside its own definition serves only the
tests, or nothing; such helpers belong in tests/reference.py or nowhere.
Names count wherever the program spells them: as names, attributes and
imports, and as the dotted parts of string constants, which is how the
check registry and the benchmark's trace hooks refer to functions.  A
dataclass field that no file in src/, bench/ or tests/ reads as an
attribute is set and never used.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# definitions kept although nothing in src/ or bench/ names them
ALLOWED = {
    "atlas.LABELS": "the list of every atlas label, the vocabulary the tests iterate over",
}


def _definitions(tree: ast.Module):
    """(name, node) of the module-level functions, classes and constants,
    and of the non-dunder methods as Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item
        targets = node.targets if isinstance(node, ast.Assign) else []
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id, node


def _spellings(node) -> Counter:
    """How often each identifier is spelled inside `node`."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(sub.value.split("."))
    return names


def unnamed_definitions() -> list[str]:
    """module.name of each definition in src/twdeg that no file in src/ or
    bench/ names outside the definition itself."""
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    everywhere = sum((_spellings(tree) for tree in trees.values()), Counter())
    unnamed = []
    for path, tree in trees.items():
        if path.parent.name != "twdeg":
            continue
        for name, node in _definitions(tree):
            short = name.rsplit(".", 1)[-1]
            # a definition's own body does not count as a use of it
            if everywhere[short] - _spellings(node)[short] <= 0:
                unnamed.append(f"{path.stem}.{name}")
    return unnamed


def test_every_definition_is_named_by_the_program():
    unnamed = [name for name in unnamed_definitions() if name not in ALLOWED]
    assert unnamed == []


def test_allowlist_holds_only_unnamed_definitions():
    assert set(ALLOWED) <= set(unnamed_definitions())


def _dataclass_fields():
    """module.Class.field of each annotated field of a @dataclass class in
    src/twdeg, with the field's name."""
    for path in sorted((ROOT / "src" / "twdeg").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
            if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{path.stem}.{node.name}.{item.target.id}", item.target.id


def test_every_dataclass_field_is_read():
    files = [path for part in ("src", "bench", "tests") for path in sorted((ROOT / part).rglob("*.py"))]
    read = {sub.attr for path in files for sub in ast.walk(ast.parse(path.read_text()))
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    fields = list(_dataclass_fields())
    assert fields
    assert [name for name, field in fields if field not in read] == []
