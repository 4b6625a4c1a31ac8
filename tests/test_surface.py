"""Every name the package defines is reached by the package or the benchmark,
and every reference in ``tests/reference.py`` is reached by a test.

A top-level function or class, or a public method, that only tests call is
dead weight in ``src/syntag``: the test belongs with a reference copy in
``tests/reference.py``, or the name goes. The one declared oracle,
``crf.viterbi``, is the per-sentence reference the tests hold
``viterbi_batch`` against. The benchmark's traced predict also calls it
today; the declaration keeps it in the package once that call goes.

A name counts as reached when it appears as an ``ast.Name``, an
``ast.Attribute`` or an import alias anywhere in ``src/syntag/*.py`` or
``bench/*.py``. Attribute names are matched without their receiver, so a
definition that shares its name with an unrelated attribute (``.encode`` on
``str``, ``.values`` on ``dict``) is taken as reached: the check is a lower
bound on what is unused, not an exact count.

Likewise every parameter with a default, of a package function, method or
constructor, must be passed by some call in the package or the benchmark; a
default no caller overrides is an option nobody uses. Calls are matched by
the called name (a constructor through its class name), so this too is a
lower bound. ``TEST_ONLY`` names the few parameters only tests set.

``autodiff`` gets an exact check, because numpy shares names such as
``sum``, ``reshape`` and ``take`` with ops it could carry: each name in its
``__all__`` must be read through an import of ``autodiff`` (a bare name
imported from it, or an attribute of the module) somewhere in the package
or the benchmark, or inside ``autodiff.py`` outside the name's own
definition; and ``__all__`` must list exactly its public top-level names.

Finally, the package's structure: every import in ``src/syntag/*.py`` sits
at module level, where a reader sees it, and the graph of relative imports
between the modules has no cycle.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "syntag").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

ORACLES = frozenset({"viterbi"})  # crf: per-sentence reference for viterbi_batch
TESTS = sorted((ROOT / "tests").glob("test_*.py"))
REFERENCE = ROOT / "tests" / "reference.py"


def _definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}"


def _references(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_definition_is_reached_outside_tests():
    assert PACKAGE and BENCH
    reached = _references(PACKAGE + BENCH)
    unreached = sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE for name in _definitions(path)
        if name.rpartition(".")[2] not in reached | ORACLES)
    assert unreached == []


AUTODIFF = ROOT / "src" / "syntag" / "autodiff.py"


def _autodiff_reads(path):
    """autodiff names that ``path`` reads through an import of the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module in ("autodiff", "syntag.autodiff"):
                names[local] = alias.name
            elif alias.name == "autodiff":
                modules.add(local)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            reads.add(names[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.add(node.attr)
    return reads


def test_autodiff_exports_exactly_what_runs():
    tree = ast.parse(AUTODIFF.read_text(encoding="utf-8"))
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and node.targets[0].id == "__all__")
    public = {node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert sorted(exported) == sorted(public)
    reached = set()
    for path in PACKAGE + BENCH:
        if path != AUTODIFF:
            reached |= _autodiff_reads(path)
    for node in tree.body:  # autodiff's own reads, each outside its definition
        name = getattr(node, "name", None)
        reached |= {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and n.id != name}
    assert sorted(set(exported) - reached) == []


def test_every_reference_is_used_by_a_test():
    """A reference nothing tests against has stopped checking anything.

    Public names must be reached from a ``tests/test_*.py`` module; private
    helpers from ``tests/reference.py`` itself.
    """
    assert TESTS
    reached = _references(TESTS)
    helpers = _references([REFERENCE])
    unused = sorted(
        name for name in _definitions(REFERENCE) if "." not in name
        and name not in (helpers if name.startswith("_") else reached))
    assert unused == []


# (module, function, parameter) set only by tests: the model-level gradient
# check's problem size and step, ``check_gradients``' error floor (1.0 in the
# autodiff tests), and the CLI's argument list.
TEST_ONLY = frozenset(
    [("gradcheck", "check_model_variant", name)
     for name in ("count", "length", "hidden", "step")]
    + [("gradcheck", "check_gradients", "floor"), ("cli", "main", "argv")])


def _defaulted_parameters(path):
    """(function, parameter, positional index or None) for each default.

    A constructor is named by its class; the index counts call arguments,
    so a bound method's or constructor's first parameter is skipped.
    """
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            defs = [(node.name, node, 0)]
        elif isinstance(node, ast.ClassDef):
            defs = [(node.name if item.name == "__init__" else item.name, item,
                     0 if any(getattr(d, "id", None) == "staticmethod"
                              for d in item.decorator_list) else 1)
                    for item in node.body if isinstance(item, ast.FunctionDef)]
        else:
            continue
        for name, fn, bound in defs:
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            for index, arg in enumerate(args[first:], first):
                yield name, arg.arg, index - bound
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def _sets(call, parameter, index):
    """Whether ``call`` may pass ``parameter`` (``*``/``**`` may pass any)."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_default_is_overridden_outside_tests():
    calls = {}
    for path in PACKAGE + BENCH:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unset = sorted(
        (path.stem, name, parameter)
        for path in PACKAGE
        for name, parameter, index in _defaulted_parameters(path)
        if not any(_sets(call, parameter, index) for call in calls.get(name, ())))
    assert [u for u in unset if u not in TEST_ONLY] == []
    assert sorted(TEST_ONLY - set(unset)) == []  # each entry still test-only


def test_no_import_inside_a_function():
    inside = sorted({
        f"{path.stem}.py:{node.lineno}"
        for path in PACKAGE
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert inside == []


def _package_imports(path):
    """The sibling modules ``path`` imports relatively."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.partition(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_package_import_graph_is_acyclic():
    graph = {path.stem: _package_imports(path) for path in PACKAGE}
    assert graph["cli"]  # the parser sees the relative imports
    # Strip modules that import nothing still left; a cycle never strips.
    while leaves := [m for m, deps in graph.items() if not deps & graph.keys()]:
        for m in leaves:
            del graph[m]
    assert graph == {}
