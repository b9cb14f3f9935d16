"""Static checks on the package source, read with ``ast``.

The repository has no linter configured, so these checks stand in for the
ones that keep dead code from piling up: every name a module imports is used
in that module, every private module-level name is referenced somewhere in
the package, every public one is used by the package, the demos or the
benchmark harness, and so is every public method and property of a class,
and every field of a config dataclass is read by the package. Norms, squared
norms, dot and cross products of point rows have one definition each, and so
has the merge of point clouds.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvlidar"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in MODULES}
CALLERS = {path.name: ast.parse(path.read_text(), filename=str(path))
           for directory in ("demos", "perfbench")
           for path in sorted((ROOT / directory).glob("*.py"))}

# public names that only the tests use, each kept for the reason given
UNUSED_PUBLIC_NAMES = {
    "geometry.compose": "the package exports it with RigidTransform: "
                        "transforms chain by composition",
}

# public methods and properties that only the tests read, each kept for the
# reason given
UNREAD_PUBLIC_MEMBERS = {
    "geometry.Box3D.length": "the tests measure boxes along their heading "
                             "with it, next to the width the package reads",
    "geometry.RigidTransform.from_yaw": "the tests build poses with it",
    "geometry.RigidTransform.identity": "the tests start poses from it",
    "geometry.RigidTransform.matrix": "the tests byte-compare poses with it",
}

# config fields that no code outside the class's own checks reads, each kept
# for the reason given
UNREAD_CONFIG_FIELDS = {}


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


def referenced_names(trees):
    """Every name the trees read, or import from another module."""
    referenced = set()
    for tree in trees:
        referenced |= loaded_names(tree)
        referenced.update(alias.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom)
                          for alias in node.names)
    return referenced


def private_definitions(tree):
    """Module-level functions, classes and constants whose name starts
    with a single underscore."""
    return [(name, line) for name, line in definitions(tree)
            if name.startswith("_") and not name.startswith("__")]


def public_definitions(tree):
    """Module-level functions, classes and constants not named with an
    underscore."""
    return [(name, line) for name, line in definitions(tree)
            if not name.startswith("_")]


def definitions(tree):
    """(name, line) of every module-level function, class and constant."""
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
            yield name, node.lineno


def public_members(tree):
    """(class, name) of every public method and property of the module's
    classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield node.name, item.name


def config_fields(tree):
    """(class, field) of every field of a config dataclass: a class whose
    ``__post_init__`` calls ``check_number``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(method, ast.FunctionDef)
                and method.name == "__post_init__"
                and "check_number" in loaded_names(method)
                for method in node.body):
            for item in node.body:
                if isinstance(item, ast.AnnAssign):
                    yield node.name, item.target.id


def attributes_read(node):
    """Every attribute read by name under ``node``, outside the bodies of
    ``__post_init__``."""
    if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
        return set()
    names = ({node.attr} if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load) else set())
    for child in ast.iter_child_nodes(node):
        names |= attributes_read(child)
    return names


@pytest.mark.parametrize("module", [name for name in TREES
                                    if name != "__init__.py"])
def test_every_import_is_used(module):
    tree = TREES[module]
    used = loaded_names(tree)
    unused = [f"{module}:{line} {name}"
              for name, line in imported_names(tree) if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_every_private_name_is_referenced():
    referenced = referenced_names(TREES.values())
    unreferenced = [f"{module}:{line} {name}"
                    for module, tree in TREES.items()
                    for name, line in private_definitions(tree)
                    if name not in referenced]
    assert not unreferenced, f"private names nothing uses: {unreferenced}"


def test_every_public_name_is_used():
    """A public name is used by code other than its definition: in the
    package (its re-exports in ``__init__.py`` aside), a demo or the
    benchmark harness; else it is allowed above with a reason."""
    referenced = referenced_names(
        [tree for module, tree in TREES.items() if module != "__init__.py"]
        + list(CALLERS.values()))
    unused = [f"{module[:-3]}.{name}"
              for module, tree in TREES.items() if module != "__init__.py"
              for name, _ in public_definitions(tree)
              if name not in referenced]
    assert sorted(unused) == sorted(UNUSED_PUBLIC_NAMES), \
        f"public names only the tests use: {unused}"


def test_every_public_member_is_read():
    """A public method or property is read as an attribute (a local name
    of the same spelling is not a read) in the package, a demo or the
    benchmark harness, outside ``__post_init__``; else it is allowed above
    with a reason."""
    read = set().union(*map(attributes_read,
                            list(TREES.values()) + list(CALLERS.values())))
    unread = [f"{module[:-3]}.{cls}.{name}"
              for module, tree in TREES.items()
              for cls, name in public_members(tree) if name not in read]
    assert sorted(unread) == sorted(UNREAD_PUBLIC_MEMBERS), \
        f"public methods and properties only the tests read: {unread}"


def test_every_config_field_is_read():
    """A config field that only its own range check reads sets nothing."""
    read = set().union(*map(attributes_read, TREES.values()))
    unread = [f"{cls}.{name}" for tree in TREES.values()
              for cls, name in config_fields(tree) if name not in read]
    assert sorted(unread) == sorted(UNREAD_CONFIG_FIELDS), \
        f"config fields only their checks read: {unread}"


def dotted(node) -> str:
    """``np.linalg.norm`` for the expression ``np.linalg.norm``, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id, *reversed(parts)])


def squared(node) -> bool:
    """Whether the expression is ``something ** 2``."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and constant(node.right) == 2)


def numpy_row_kernels(tree):
    """(line, call) of every numpy call that ``geometry.xyz_norms``,
    ``xyz_sq_norms``, ``xyz_dots`` or ``xyz_cross`` replaces: a norm along
    axis 1, a sum of squares along an axis (``np.sum(d ** 2, axis=1)`` or
    ``(d ** 2).sum(axis=1)``), a row-wise ``einsum`` dot and any
    ``cross``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted(node.func)
        axes = [constant(keyword.value) for keyword in node.keywords
                if keyword.arg == "axis"]
        subscripts = constant(node.args[0]) if node.args else None
        summed = (node.args[0] if name == "np.sum" and node.args
                  else node.func.value if isinstance(node.func, ast.Attribute)
                  and node.func.attr == "sum" else None)
        if (name == "np.linalg.norm" and (1 in axes or -1 in axes)
                or name == "np.einsum" and isinstance(subscripts, str)
                and subscripts.replace(" ", "") == "ij,ij->i"
                or name == "np.cross"
                or summed is not None and squared(summed) and axes):
            yield node.lineno, name or ".sum"


def constant(node):
    """The value of a literal expression such as ``-1``, else None."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def test_row_kernels_have_one_definition():
    """Norms, squared norms, dot and cross products of 3-vector rows go
    through the exact column kernels in ``geometry``, never numpy's own."""
    found = [f"{module}:{line} {name}" for module, tree in TREES.items()
             for line, name in numpy_row_kernels(tree)]
    assert not found, f"numpy row kernels outside geometry.xyz_*: {found}"


def test_the_check_sees_each_numpy_row_kernel():
    tree = ast.parse("a = np.linalg.norm(v, axis=1)\n"
                     "b = np.linalg.norm(v, axis=-1)\n"
                     "c = np.einsum('ij,ij->i', u, v)\n"
                     "d = np.cross(u, v)\n"
                     "e = np.linalg.norm(v)\n"
                     "f = np.linalg.norm(v, axis=0)\n"
                     "g = np.einsum('tij,tj->ti', r, v)\n"
                     "h = np.sum((a - b) ** 2, axis=1)\n"
                     "i = np.sum(d ** 2, axis=2) <= t\n"
                     "j = ((a - b) ** 2).sum(axis=-1)\n"
                     "k = np.sum(d ** 2)\n"
                     "m = np.sum(d ** 3, axis=1)\n"
                     "n = (d * d).sum(axis=1)\n")
    assert sorted(line for line, _ in numpy_row_kernels(tree)) == [
        1, 2, 3, 4, 8, 9, 10]


def direct_cloud_merges(tree):
    """(line, call) of every ``PointCloud(...)`` call that takes an
    ``np.concatenate`` or ``np.vstack`` call directly as an argument: a
    merge that ``PointCloud.concatenate`` replaces."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and dotted(node.func) == "PointCloud":
            for arg in [*node.args, *(keyword.value
                                      for keyword in node.keywords)]:
                if isinstance(arg, ast.Call) and dotted(arg.func) in (
                        "np.concatenate", "np.vstack"):
                    yield node.lineno, dotted(arg.func)


def test_clouds_have_one_merge():
    """Outside ``geometry``, clouds merge through ``PointCloud.concatenate``,
    which keeps their per-point attributes, never numpy's own."""
    found = [f"{module}:{line} {name}" for module, tree in TREES.items()
             if module != "geometry.py"
             for line, name in direct_cloud_merges(tree)]
    assert not found, f"cloud merges outside PointCloud.concatenate: {found}"


def test_the_check_sees_each_direct_cloud_merge():
    tree = ast.parse("a = PointCloud(np.concatenate(parts))\n"
                     "b = PointCloud(np.vstack([p, q]), timestamp_ns=t)\n"
                     "c = PointCloud(p, intensity=np.concatenate(i))\n"
                     "d = PointCloud(p)\n"
                     "e = PointCloud.concatenate(clouds)\n"
                     "f = np.concatenate(parts)\n"
                     "g = PointCloud(np.asarray(np.concatenate(parts)))\n"
                     "h = PointCloud(np.hstack([p, q]))\n")
    assert sorted(line for line, _ in direct_cloud_merges(tree)) == [1, 2, 3]


def test_the_checks_see_an_unused_import_and_an_unused_private_name():
    tree = ast.parse("from dataclasses import dataclass, field\n"
                     "_USED = 1\n_UNUSED = 2\n"
                     "@dataclass\nclass A:\n    x: int = _USED\n")
    used = loaded_names(tree)
    assert [name for name, _ in imported_names(tree)
            if name not in used] == ["field"]
    assert [name for name, _ in private_definitions(tree)
            if name not in used] == ["_UNUSED"]


def test_the_check_sees_an_unread_method_and_an_unread_property():
    tree = ast.parse("class Track:\n"
                     "    def to_box(self):\n        return self.mean\n"
                     "    def unused(self):\n        return 0\n"
                     "    @property\n    def velocity(self):\n"
                     "        return self.mean\n"
                     "    def _private(self):\n        return 1\n"
                     "def run(track):\n    return track.to_box()\n")
    assert [name for _, name in public_members(tree)
            if name not in attributes_read(tree)] == ["unused", "velocity"]


def test_a_local_name_does_not_read_a_member():
    tree = ast.parse("class Box:\n"
                     "    @property\n    def height(self):\n"
                     "        return 1.0\n"
                     "def run(box):\n    height = 2.0\n    return height\n")
    assert [name for _, name in public_members(tree)
            if name not in attributes_read(tree)] == ["height"]


def test_the_check_sees_a_config_field_only_its_check_reads():
    tree = ast.parse("class Config:\n    used: int = 0\n    unread: int = 0\n"
                     "    def __post_init__(self):\n"
                     "        check_number('unread', self.unread)\n"
                     "def run(cfg):\n    return cfg.used\n")
    assert [name for _, name in config_fields(tree)
            if name not in attributes_read(tree)] == ["unread"]
