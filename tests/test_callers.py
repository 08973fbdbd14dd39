"""Static guard for "code with no caller is deleted", built on ``ast`` only.

(a) Every module-level ``def``/``class`` in ``src/strz`` is referenced by a
    name or attribute somewhere in the package (``__init__`` re-exports do
    not count), in ``demos`` or in ``bench``; string constants in ``bench``
    count too, since they name the targets a traced run patches.
(b) Every module-level import of a package module is used in that module,
    or is a name ``bench`` patches there.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "strz").glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _strings(tree: ast.AST) -> set:
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def uncalled_definitions() -> list:
    used = set()
    for path in PACKAGE + DEMOS + BENCH:
        used |= _referenced(_tree(path))
    for path in BENCH:
        used |= _strings(_tree(path))
    defined = {node.name for path in PACKAGE for node in _tree(path).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return sorted(defined - used)


def unused_imports() -> list:
    patched = set().union(*(_strings(_tree(path)) for path in BENCH))
    unused = []
    for path in PACKAGE:
        tree = _tree(path)
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = _referenced(tree) | _strings(tree)  # strings: quoted annotations
        unused += [f"{path.name}: {name}" for name in imported
                   if name not in used and name not in patched]
    return sorted(unused)


def test_every_definition_has_a_caller():
    assert uncalled_definitions() == []


def test_every_import_is_used():
    assert unused_imports() == []
