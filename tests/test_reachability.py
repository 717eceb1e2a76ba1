"""Every module-level function and class of the package outside the oracles
is reached from the package itself: named (called, referenced or read as an
attribute) somewhere in src/nrtbounds, or exported by nrtbounds/__init__.
A helper that only tests reach belongs in the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nrtbounds"


def test_every_definition_is_reached_from_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    exported = {
        alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unreached = sorted(
        f"{name}.{node.name}"
        for name, tree in trees.items()
        if name != "oracles"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in named | exported
    )
    assert unreached == []
