"""Every name a module of the package imports is used in it, every name
it lists in `__all__` it defines, and every private name it defines is
read somewhere.

An imported name counts as used when the module reads it, or lists it in
`__all__` for others to import; `from __future__` imports are skipped.  A
private name (`_name`) that a module defines, at its top level or in a
class body, counts as read when a module of the package or of `perfbench/`
reads it as a name or an attribute.
"""

import ast
from pathlib import Path

import pytest

import arraybit

MODULES = sorted(Path(arraybit.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


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


def undefined_exports(source: str) -> list:
    """The names `source` lists in `__all__` and does not bind at its top
    level, by a definition, an assignment or an import."""
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_the_check_finds_a_listed_name_left_undefined():
    source = ("from x import a\nimport os.path\n__all__ = ['a', 'os', 'b', 'C', 'f', 'gone']\n"
              "b: int = 1\nclass C:\n    pass\ndef f():\n    gone = 2\n")
    assert undefined_exports(source) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_name_a_module_exports_is_defined(path):
    assert undefined_exports(path.read_text()) == []


def unread_private_names(defining: dict, reading: list) -> list:
    """(module, name) of each private name that a source of `defining`
    (module -> source) defines and no source of `reading` reads."""
    read = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    out = []
    for module, source in defining.items():
        body = list(ast.parse(source).body)
        while body:
            node = body.pop(0)
            names = [getattr(node, "name", None)]
            if isinstance(node, ast.ClassDef):
                body += node.body
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            out += [(module, name) for name in names if name and name.startswith("_")
                    and not name.startswith("__") and name != "_" and name not in read]
    return out


def test_no_module_defines_a_private_name_nothing_reads():
    sources = {path.name: path.read_text() for path in MODULES}
    assert PERFBENCH
    reading = [*sources.values(), *(path.read_text() for path in PERFBENCH)]
    assert unread_private_names(sources, reading) == []
    # the check finds a helper left behind, and one a class keeps
    planted = {"m.py": "_KEPT = 1\ndef _left():\n    pass\nclass C:\n    def _old(self):\n"
                       "        return _KEPT\n"}
    assert unread_private_names(planted, reading + list(planted.values())) == [
        ("m.py", "_left"), ("m.py", "_old")]
