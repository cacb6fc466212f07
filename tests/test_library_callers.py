"""No library code that only the tests use: every public module-level function
and class of ``golod_lab`` is referenced by library code other than its own
definition.  Re-exports in ``__init__.py`` do not count as callers."""

import ast
from pathlib import Path

import golod_lab

PACKAGE = Path(golod_lab.__file__).parent

# The MonomialIdeal constructor's error message tells callers to run it.
NO_LIBRARY_CALLER = {("monomial_core", "minimalize")}


def _modules():
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _references(name, tree):
    """(module, definition) pairs that module ``name`` refers to, each with
    the top-level definition the reference sits in (None outside any)."""
    aliases = {}  # local name -> (module, definition), or (module, None) for a module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    aliases[local] = (alias.name, None)
                else:
                    aliases[local] = (node.module, alias.name)
    refs = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                target = aliases.get(node.id, (name, node.id))
                if target[1] is not None:
                    refs.add((target, owner))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module, definition = aliases.get(node.value.id, (None, ""))
                if definition is None:
                    refs.add(((module, node.attr), owner))
    return refs


def test_every_public_definition_has_a_library_caller():
    modules = _modules()
    called = set()
    for name, tree in modules.items():
        for (module, definition), owner in _references(name, tree):
            if not (module == name and definition == owner):
                called.add((module, definition))
    public = {
        (name, node.name)
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert sorted(public - called - NO_LIBRARY_CALLER) == []
    assert NO_LIBRARY_CALLER <= public - called  # the allow-list holds no stale name
