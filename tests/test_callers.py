"""Static guard for "code with no caller is deleted", built on ``ast`` only.

(a) Every module-level ``def``/``class`` in ``src/strz`` is referenced by a
    name or attribute somewhere in the package (``__init__`` re-exports do
    not count), in ``demos`` or in ``bench``; string constants in ``bench``
    count too, since they name the targets a traced run patches.
(b) Every module-level import of a package module is used in that module,
    or is a name ``bench`` patches there.
(c) Every defaulted parameter of a function or method in the package
    modules listed in DEFAULTS_CHECKED is set, by position or keyword, by
    some call in the package, ``tests``, ``demos`` or ``bench``; a ``*`` or
    ``**`` splat sets every parameter.  ``ExperimentConfig``'s accessors
    (``get_*`` and ``_raw``) are exempt: their ``default`` mirrors a config
    key that may be absent, so it is part of reading outside input.
"""
import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "strz").glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
DEFAULTS_CHECKED = ("solver", "spectral", "potentials", "groundstate", "counterexamples",
                    "exponents", "snapshot", "config", "cli")


def _accessor(cls, name: str) -> bool:
    return cls == "ExperimentConfig" and (name.startswith("get_") or name == "_raw")


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


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def unset_defaults() -> list:
    """``module.function(parameter)`` for each defaulted parameter no call sets."""
    calls = {}  # callee name -> [(positional count, keywords)]; None: a splat sets all
    for path in PACKAGE + TESTS + DEMOS + BENCH:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call) and _callee(node) is not None:
                kws = {k.arg for k in node.keywords}
                splat = None in kws or any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(_callee(node), []).append(
                    (math.inf, None) if splat else (len(node.args), kws))
    unset = []
    for name in DEFAULTS_CHECKED:
        tree = _tree(ROOT / "src" / "strz" / f"{name}.py")
        scopes = [(None, tree.body)] + [(node.name, node.body) for node in tree.body
                                        if isinstance(node, ast.ClassDef)]
        for cls, body in scopes:
            for fn in body:
                if not isinstance(fn, ast.FunctionDef) or _accessor(cls, fn.name):
                    continue
                callees = {fn.name} | ({cls} if fn.name == "__init__" else set())
                found = [c for callee in callees for c in calls.get(callee, [])]
                shift = cls is not None  # a bound call passes self implicitly
                positional = fn.args.posonlyargs + fn.args.args
                defaulted = [(i, a.arg) for i, a in enumerate(positional)
                             if i >= len(positional) - len(fn.args.defaults)]
                defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs,
                                                            fn.args.kw_defaults) if d is not None]
                for i, arg in defaulted:
                    if not any(kws is None or arg in kws or (i is not None and npos + shift > i)
                               for npos, kws in found):
                        unset.append(f"{name}.{fn.name}({arg})")
    return sorted(unset)


def test_every_definition_has_a_caller():
    assert uncalled_definitions() == []


def test_every_import_is_used():
    assert unused_imports() == []


def test_every_default_is_set_somewhere():
    assert unset_defaults() == []
