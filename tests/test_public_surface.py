"""Every definition in the package is reached by something that runs.

A non-dunder top-level function or class of src/cusp_ledger/, or a
non-dunder method of one, must be referenced somewhere other than its own definition: in
src/, in the acceptance suite, or in an attribute path that the benchmark's
tracer wraps (perfbench/spans.py TRACED).  An import is no reference, and
__init__.py imports nothing: each name is bound once, in its module.  The
cli.cmd_* functions are exempt: cli.main dispatches them by name.

Likewise every field that a package class's __init__ assigns as
self.NAME = ... is read, as an attribute, in src/, in the acceptance suite
or in perfbench/spans.py.
"""

import ast
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
            if in_src[name] - _identifiers(node)[name] or outside[name]:
                continue
            unreached.append(f"{path.name}: {shown}")
    assert not unreached, "unreached: " + ", ".join(unreached)


def _attributes_read(path: Path) -> set[str]:
    return {sub.attr for sub in ast.walk(ast.parse(path.read_text()))
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def _init_fields(tree: ast.Module):
    """(shown name, field) of each self.NAME = ... in the __init__ of a
    top-level class."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for sub in ast.walk(item):
                    if isinstance(sub, ast.Attribute) \
                            and isinstance(sub.ctx, ast.Store) \
                            and isinstance(sub.value, ast.Name) \
                            and sub.value.id == "self":
                        yield f"{node.name}.{sub.attr}", sub.attr


def test_every_field_is_read():
    paths = sorted(PACKAGE.glob("*.py"))
    read = set().union(*map(_attributes_read, paths + [
        ROOT / "tests" / "test_acceptance.py", ROOT / "perfbench" / "spans.py"]))
    unread = [f"{path.name}: {shown}" for path in paths
              for shown, field in _init_fields(ast.parse(path.read_text()))
              if field not in read]
    assert not unread, "never read: " + ", ".join(unread)


def test_package_binds_no_names_of_its_modules():
    # a name is imported from the module that defines it; the package
    # itself binds only __version__
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports
