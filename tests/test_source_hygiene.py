"""Static checks on the package source, read with ``ast``.

The repository has no linter configured, so these two checks stand in for
the ones that keep dead code from piling up: every name a module imports is
used in that module, and every private module-level name is referenced
somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mvlidar"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in MODULES}


def imported_names(tree):
    """(name bound in the module, line) for every import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def loaded_names(tree):
    """Every name the module reads, and every attribute it reads by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def private_definitions(tree):
    """Module-level functions, classes and constants whose name starts
    with a single underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


@pytest.mark.parametrize("module", [name for name in TREES
                                    if name != "__init__.py"])
def test_every_import_is_used(module):
    tree = TREES[module]
    used = loaded_names(tree)
    unused = [f"{module}:{line} {name}"
              for name, line in imported_names(tree) if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_every_private_name_is_referenced():
    referenced = set()
    for tree in TREES.values():
        referenced |= loaded_names(tree)
        # a name another module imports is referenced there
        referenced.update(alias.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom)
                          for alias in node.names)
    unreferenced = [f"{module}:{line} {name}"
                    for module, tree in TREES.items()
                    for name, line in private_definitions(tree)
                    if name not in referenced]
    assert not unreferenced, f"private names nothing uses: {unreferenced}"


def test_the_checks_see_an_unused_import_and_an_unused_private_name():
    tree = ast.parse("from dataclasses import dataclass, field\n"
                     "_USED = 1\n_UNUSED = 2\n"
                     "@dataclass\nclass A:\n    x: int = _USED\n")
    used = loaded_names(tree)
    assert [name for name, _ in imported_names(tree)
            if name not in used] == ["field"]
    assert [name for name, _ in private_definitions(tree)
            if name not in used] == ["_UNUSED"]
