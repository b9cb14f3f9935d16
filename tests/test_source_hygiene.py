"""Static checks on the package source, read with ``ast``.

The repository has no linter configured, so these checks stand in for the
ones that keep dead code from piling up: every name a module imports is used
in that module, every private module-level name is referenced somewhere in
the package, every public one is used by the package, the demos or the
benchmark harness, and so is every public method and property of a class,
every field of a config dataclass is read by the package, and every
defaulted parameter of a package function is passed by some call in the
package, the demos or the benchmark harness. Norms, squared
norms, dot and cross products of point rows have one definition each, and so
have the merge of point clouds and the frame clock. Each optional per-point array of a cloud has
one column in the frame container. No module imports ``scipy.sparse``.
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

# defaulted parameters that no call in the package, the demos or the
# benchmark harness passes, each kept for the reason given
UNSET_PARAMETERS = {
    "cli.main(argv)": "the tests drive the CLI through it",
    "detector.prepare_background(distance)": "hypothesis properties draw it",
    "geometry.RigidTransform.from_yaw(translation)":
        "the tests build poses with it",
    "metrics.detection_recall(cfg)":
        "the tests compare recall_and_ap with it at drawn thresholds, and "
        "the benchmark harness traces it",
    "registration.estimate_normals(min_neighbors)":
        "hypothesis properties draw it",
    "scene.look_at(roll)": "criterion 1 rolls its nodes",
    "scene.calibration_capture(max_points)":
        "criterion 1 captures 30,000 points",
}


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


def imported_modules(tree):
    """(module, line) for every module an import statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module, node.lineno
            for alias in node.names:
                yield f"{node.module}.{alias.name}", node.lineno


def scipy_sparse_imports(tree):
    return [(module, line) for module, line in imported_modules(tree)
            if module == "scipy.sparse" or module.startswith("scipy.sparse.")]


def test_no_module_imports_scipy_sparse():
    """Linked items are grouped by ``geometry.linked_groups``'s own
    union-find; nothing in the package needs ``scipy.sparse``."""
    found = [f"{module}:{line} {name}" for module, tree in TREES.items()
             for name, line in scipy_sparse_imports(tree)]
    assert not found, f"scipy.sparse imports: {found}"


def test_the_check_sees_each_scipy_sparse_import():
    tree = ast.parse("import scipy.sparse\n"
                     "from scipy.sparse.csgraph import connected_components\n"
                     "from scipy import sparse\n"
                     "from scipy.spatial import cKDTree\n"
                     "import scipy\n")
    assert sorted({line for _, line in scipy_sparse_imports(tree)}) == \
        [1, 2, 3]


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


def defaulted_parameters(tree):
    """(qualified name, name, parameter, position) of every parameter with a
    default of every function, method and nested function of the module.
    The position counts the arguments a call passes, ``self`` or ``cls``
    left out, and is None for a keyword-only parameter."""
    def visit(node, prefix, in_class):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                yield from visit(item, f"{prefix}{item.name}.", True)
            elif isinstance(item, ast.FunctionDef):
                args = item.args
                positional = args.posonlyargs + args.args
                if in_class and "staticmethod" not in map(
                        dotted, item.decorator_list):
                    positional = positional[1:]
                first = len(positional) - len(args.defaults)
                for index, arg in enumerate(positional[first:], first):
                    yield prefix + item.name, item.name, arg.arg, index
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield prefix + item.name, item.name, arg.arg, None
                yield from visit(item, f"{prefix}{item.name}.", False)
    yield from visit(tree, "", False)


def passed_arguments(trees):
    """Callee name -> what some call of that name passes: each keyword, each
    position, and ``*`` or ``**`` for an unpacked sequence or mapping."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(
                    node.func, (ast.Name, ast.Attribute)):
                name = (node.func.id if isinstance(node.func, ast.Name)
                        else node.func.attr)
                given = passed.setdefault(name, set())
                given.update(range(len(node.args)))
                given.update("*" for arg in node.args
                             if isinstance(arg, ast.Starred))
                given.update(keyword.arg or "**"
                             for keyword in node.keywords)
    return passed


def unset_parameters(trees, callers):
    """``module.function(parameter)`` of each defaulted parameter of the
    modules that no call of the function's name passes, by keyword or by
    position, in ``trees`` or ``callers``."""
    passed = passed_arguments(list(trees.values()) + list(callers))
    unset = []
    for module, tree in trees.items():
        for qualified, name, parameter, index in defaulted_parameters(tree):
            given = passed.get(name, set())
            if not ({parameter, "**"} & given
                    or index is not None and {index, "*"} & given):
                unset.append(f"{module[:-3]}.{qualified}({parameter})")
    return unset


def test_every_defaulted_parameter_is_passed():
    """A default that no caller overrides is a constant in disguise: pass
    the parameter somewhere outside the tests, make it a constant, or allow
    it above with a reason."""
    unset = unset_parameters(TREES, CALLERS.values())
    assert sorted(unset) == sorted(UNSET_PARAMETERS), \
        f"defaulted parameters no caller passes: {unset}"


def test_the_check_sees_an_unset_parameter():
    module = ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                       "class K:\n"
                       "    def m(self, x=0, y=0):\n        pass\n"
                       "    @staticmethod\n"
                       "    def s(x=0, y=0):\n        pass\n"
                       "def g(u=0, v=0):\n"
                       "    def inner(w=0):\n        pass\n"
                       "    return inner\n")
    caller = ast.parse("f(0, 1, e=5)\nk.m(1)\nK.s(1, 2)\n"
                       "g(*args)\ng(**kwargs)\n")
    assert unset_parameters({"mod.py": module}, [caller]) == [
        "mod.f(c)", "mod.f(d)", "mod.K.m(y)", "mod.g.inner(w)"]


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


def stable_argsorts(tree):
    """(line, call) of every stable argsort, such as ``np.argsort(k,
    kind="stable")`` or ``k.argsort(kind="mergesort")``, outside the body
    of a function named ``stable_order``. The check cannot see a key's
    dtype, so it sees every stable argsort; the package sorts no float
    keys stably."""
    helper = {id(node) for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef)
              and function.name == "stable_order"
              for node in ast.walk(function)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in helper:
            continue
        func = node.func
        called = (func.attr if isinstance(func, ast.Attribute)
                  else getattr(func, "id", ""))
        if called == "argsort" and any(
                keyword.arg == "kind"
                and constant(keyword.value) in ("stable", "mergesort")
                for keyword in node.keywords):
            yield node.lineno, dotted(func) or ".argsort"


def test_stable_argsorts_have_one_definition():
    """Integer keys sort stably through ``geometry.stable_order``, which
    sorts them in the narrowest unsigned dtype, never numpy's own."""
    found = [f"{module}:{line} {name}" for module, tree in TREES.items()
             for line, name in stable_argsorts(tree)]
    assert not found, f"stable argsorts outside stable_order: {found}"


def test_the_check_sees_each_stable_argsort():
    tree = ast.parse("a = np.argsort(k, kind='stable')\n"
                     "b = k.argsort(kind='stable')\n"
                     "c = numpy.argsort(k, kind='mergesort')\n"
                     "d = np.argsort(k)\n"
                     "e = np.argsort(k, kind='quicksort')\n"
                     "f = np.sort(k, kind='stable')\n"
                     "def stable_order(keys, span):\n"
                     "    return np.argsort(keys, kind='stable')\n"
                     "g = argsort(k, kind='stable')\n"
                     "h = (k + 1).argsort(kind='stable')\n")
    assert sorted(line for line, _ in stable_argsorts(tree)) == [
        1, 2, 3, 9, 10]


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


def optional_point_arrays(tree):
    """Every ``Optional[np.ndarray]`` field of the class ``PointCloud``: its
    optional per-point arrays."""
    return [item.target.id for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "PointCloud"
            for item in node.body if isinstance(item, ast.AnnAssign)
            and ast.unparse(item.annotation) == "Optional[np.ndarray]"]


def mvlc_columns(tree):
    """The cloud attribute of each row of the module's ``_COLUMNS`` table of
    (flag bit, attribute, stored type)."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "_COLUMNS"
                    for target in node.targets)
            for _, name, _ in ast.literal_eval(node.value)]


def unmatched_columns(cloud_tree, formats_tree):
    """Each optional per-point array with no column or with several, and
    each column that stores no such array."""
    arrays = optional_point_arrays(cloud_tree)
    columns = mvlc_columns(formats_tree)
    return [name for name in sorted(set(arrays) | set(columns))
            if name not in arrays or columns.count(name) != 1]


def test_every_point_array_has_one_mvlc_column():
    """``write_frame`` stores each optional per-point array of a cloud in
    one ``.mvlc`` column, so none is dropped or stored twice."""
    assert mvlc_columns(TREES["formats.py"])
    assert not unmatched_columns(TREES["geometry.py"], TREES["formats.py"])


def test_the_check_sees_a_missing_doubled_or_stray_column():
    cloud = ast.parse("class PointCloud:\n"
                      "    points: np.ndarray\n"
                      "    intensity: Optional[np.ndarray] = None\n"
                      "    ring: Optional[np.ndarray] = None\n"
                      "    source_ids: Optional[np.ndarray] = None\n"
                      "    source_node: Optional[int] = None\n")
    formats = ast.parse("_COLUMNS = ((0x1, 'intensity', '<f4'),\n"
                        "            (0x4, 'source_ids', '<u2'),\n"
                        "            (0x8, 'source_ids', '<u2'),\n"
                        "            (0x10, 'time_index', '<u2'))\n")
    assert unmatched_columns(cloud, formats) == ["ring", "source_ids",
                                                 "time_index"]


def names_in(node):
    """Every name and attribute name read under ``node``."""
    return {child.id if isinstance(child, ast.Name) else child.attr
            for child in ast.walk(node)
            if isinstance(child, (ast.Name, ast.Attribute))}


def rate_periods(tree):
    """(line, expression) of every division of ``NS`` or 1e9 by a frame
    rate (a name with ``rate`` in it) outside ``frame_times_ns``: a frame
    period that the one frame clock replaces."""
    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) \
                    and child.name == "frame_times_ns":
                continue
            if (isinstance(child, ast.BinOp)
                    and isinstance(child.op, (ast.Div, ast.FloorDiv))
                    and ("NS" in names_in(child.left)
                         or any(constant(part) == 1e9
                                for part in ast.walk(child.left)))
                    and any("rate" in name.lower()
                            for name in names_in(child.right))):
                yield child.lineno, ast.unparse(child)
            yield from visit(child)
    yield from visit(tree)


def test_frames_have_one_clock():
    """Node frames, calibration passes and simulated sessions are all timed
    by ``syncsim.frame_times_ns``, which rounds each frame's start once;
    no module turns a frame rate into a nanosecond period of its own."""
    found = [f"{module}:{line} {expression}"
             for module, tree in TREES.items()
             for line, expression in rate_periods(tree)]
    assert not found, f"frame periods outside frame_times_ns: {found}"


def test_the_check_sees_each_frame_period():
    tree = ast.parse("a = int(round(1e9 / spec.frame_rate_hz))\n"
                     "b = NS // cfg.frame_rate_hz\n"
                     "c = np.arange(n) * NS / rate\n"
                     "d = round(1_000_000_000 / (2 * frame_rate_hz))\n"
                     "e = n_frames / cfg.frame_rate_hz\n"
                     "f = stamp_ns / NS\n"
                     "g = NS / period_s\n"
                     "def frame_times_ns(count, frame_rate_hz):\n"
                     "    return np.arange(count) * NS / frame_rate_hz\n")
    assert sorted(line for line, _ in rate_periods(tree)) == [1, 2, 3, 4]
