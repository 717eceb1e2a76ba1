"""Every top-level definition of the package (def, class or module-level
assignment) is reached from the console script `nrtbounds.cli:main` or from
the documented API below: named (called, referenced or read as an attribute)
by a definition that is itself reached.  Names are matched by identifier
across modules, and an import does not count as a use, so neither an export
from `__init__` nor an unused import keeps a definition alive.  A helper that
only tests reach belongs in the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nrtbounds"

# Library entry points that README documents and no command calls.
API = ("varshamov", "ooa_to_net", "ordered_distance", "k_uni", "build_blocks", "build_operator")


def _defined_names(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _used_names(node) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreached_definitions() -> list[str]:
    """module.name of every top-level definition of the package that
    neither cli.main nor API reaches."""
    uses: dict[tuple[str, str], set[str]] = {}  # (module, name) -> names it uses
    roots = {"main", *API}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            names = _defined_names(node)
            for name in names:
                uses[(path.stem, name)] = _used_names(node)
            imports = isinstance(node, (ast.Import, ast.ImportFrom))
            if path.stem == "cli" and not names and not imports:
                roots |= _used_names(node)  # the `if __name__ == "__main__"` guard
    assert set(API) <= {name for _, name in uses}, "API names a definition that is gone"
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(n for (_, defined), used in uses.items() if defined == name for n in used)
    return sorted(f"{module}.{name}" for module, name in uses if name not in reached)


def test_every_definition_is_reached_from_the_package():
    assert unreached_definitions() == []

