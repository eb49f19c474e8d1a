"""Every definition in the package is reached by something that runs.

A non-dunder top-level function or class of src/cusp_ledger/, or a
non-dunder method of one, must be referenced somewhere other than its own definition: in
src/, in the acceptance suite, or in an attribute path that the benchmark's
tracer wraps (perfbench/spans.py TRACED).  An import is no reference, and
__init__.py imports nothing: each name is bound once, in its module.  A
method that overrides one its class inherits from outside the package
(cli._Parser.error) is reached through the base class's own calls.  The
cli.cmd_* functions are exempt: cli.main dispatches them by name.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cusp_ledger"


def _identifiers(node: ast.AST) -> Counter:
    """Names read and attributes looked up anywhere under node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
    return out


def _definitions(tree: ast.Module):
    """(shown name, bare name, node) of each non-dunder top-level function
    or class and each non-dunder method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or _dunder(node.name):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def _dunder(name: str) -> bool:
    """Whether the interpreter, not the package, calls a def of this name
    (a method such as __eq__, or a module-level __getattr__)."""
    return name.startswith("__") and name.endswith("__")


def _overrides(module: str, shown: str) -> bool:
    """Whether the method `Class.name` of cusp_ledger.<module> overrides
    a method of a base class."""
    cls, _, name = shown.partition(".")
    owner = getattr(importlib.import_module(f"cusp_ledger.{module}"), cls)
    return bool(name) and any(name in vars(base) for base in owner.__mro__[1:])


def _traced_paths() -> Counter:
    """The names in the attribute paths of perfbench/spans.py TRACED."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    out = Counter()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            for entry in node.value.elts:
                out.update(entry.elts[2].value.split("."))
    return out


def test_every_definition_is_reached():
    trees = {path: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    in_src = sum((_identifiers(tree) for tree in trees.values()), Counter())
    traced = _traced_paths()
    assert traced, "no TRACED entries found in perfbench/spans.py"
    outside = traced + _identifiers(ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text()))
    unreached = []
    for path, tree in trees.items():
        for shown, name, node in _definitions(tree):
            if path.name == "cli.py" and name.startswith("cmd_"):
                continue
            if in_src[name] - _identifiers(node)[name] or outside[name] \
                    or _overrides(path.stem, shown):
                continue
            unreached.append(f"{path.name}: {shown}")
    assert not unreached, "unreached: " + ", ".join(unreached)


def test_package_binds_no_names_of_its_modules():
    # a name is imported from the module that defines it; the package
    # itself binds only __version__
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports
