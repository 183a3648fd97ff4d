"""Every name a module of the package imports is used in it.

A name counts as used when the module reads it, or lists it in `__all__`
for others to import; `from __future__` imports are skipped.
"""

import ast
from pathlib import Path

import pytest

import arraybit

MODULES = sorted(Path(arraybit.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """The names `source` imports and never reads, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from x import a, b as c, d\n__all__ = ['d']\nprint(os.path, c)\n")
    assert unused_imports(source) == ["regex", "a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path.read_text()) == []
