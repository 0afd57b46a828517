"""The package exports, and its classes define, only what the program reaches.

A name exported by ``mirrorlab/__init__.py``, and every public method of a
class in the package, must be referenced somewhere in the package, the demos
or perfbench outside its own definition: as a name, an attribute, or, in
perfbench, which wraps callables by name, a string equal to it.  A
classmethod is reached only as ``Cls.name``, ``Cls`` its class or a package
subclass of it, so a same-named method of another class does not hide it (a
same-named instance method still does).  Imports and the exporting
``__init__`` do not count, and neither do the tests.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mirrorlab"
PERFBENCH = ROOT / "perfbench"
SOURCES = [PACKAGE, ROOT / "demos", PERFBENCH]
# methods kept for the tests, with the property each one checks
ALLOWED_METHODS = {
    "LegendreFamily.bregman_divergence": "the Legendre contract: a nonnegative Bregman divergence",
    "DomainSpec.lengths": "range shrinking (c7): the dual interval loses 2 |da| as a decreases",
    "LegendreFamily.domain": "range shrinking (c7): the dual map's domain at a",
    "Schedule.total_strength": "the ablation design: every schedule spends the same strength",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def _program():
    """(path, tree) for every program module: the package but its exporting
    ``__init__``, the demos and perfbench, without their tests."""
    return [(path, ast.parse(path.read_text()))
            for path in (p for source in SOURCES for p in sorted(source.rglob("*.py")))
            if path != PACKAGE / "__init__.py" and not path.name.startswith("test_")]


def _references(program):
    """name -> (owners, qualifier) of each reference to it, for every name,
    attribute and perfbench string constant: the ids of the top-level
    definition and of the method the reference sits in, and for an attribute
    ``X.name`` or ``m.X.name`` the name X it is taken on (else None)."""
    found = defaultdict(list)
    for path, tree in program:
        by_name = PERFBENCH in path.parents
        stack = [(tree, frozenset())]
        while stack:
            node, owners = stack.pop()
            if isinstance(node, ast.Name):
                found[node.id].append((owners, None))
            elif isinstance(node, ast.Attribute):
                on = node.value
                found[node.attr].append((owners, on.id if isinstance(on, ast.Name)
                                         else on.attr if isinstance(on, ast.Attribute) else None))
            elif by_name and isinstance(node, ast.Constant) and isinstance(node.value, str):
                found[node.value].append((owners, None))
            owns = node is tree or isinstance(node, ast.ClassDef)
            stack.extend((child, owners | {id(child)} if owns and isinstance(child, DEFINITIONS)
                          else owners) for child in ast.iter_child_nodes(node))
    return found


def _reached(refs, name, nodes, via=None):
    """Whether some reference to `name` lies outside every node in `nodes`
    and, when ``via`` is given, is taken on one of the names in it."""
    skip = {id(node) for node in nodes}
    return any(not owners & skip and (via is None or on in via)
               for owners, on in refs.get(name, ()))


def _unreached_exports():
    program = _program()
    refs = _references(program)
    tops = defaultdict(list)
    for _, tree in program:
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                tops[node.name].append(node)
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = {alias.asname or alias.name
               for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    return {name for name in exports if not _reached(refs, name, tops[name])}


def _subclasses(classes):
    """class name -> the names of the class and of its package subclasses."""
    children = defaultdict(set)
    for cls in classes:
        for base in cls.bases:
            children[base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)].add(
                cls.name)

    def below(name):
        return {name}.union(*(below(child) for child in children[name]))

    return {cls.name: below(cls.name) for cls in classes}


def _is_classmethod(fn):
    return any(isinstance(d, ast.Name) and d.id == "classmethod" for d in fn.decorator_list)


def _unreached_methods():
    program = _program()
    refs = _references(program)
    classes = [cls for path, tree in program if path.parent == PACKAGE
               for cls in tree.body if isinstance(cls, ast.ClassDef)]
    below = _subclasses(classes)
    return {f"{cls.name}.{fn.name}" for cls in classes for fn in cls.body
            if isinstance(fn, FUNCTIONS) and not fn.name.startswith("_")
            and not _reached(refs, fn.name, [fn], below[cls.name] if _is_classmethod(fn) else None)}


def test_every_export_is_reached_outside_the_tests():
    assert sorted(_unreached_exports()) == []


def test_every_public_method_is_reached_outside_the_tests():
    assert sorted(_unreached_methods() - set(ALLOWED_METHODS)) == []


def test_the_method_allowlist_names_only_unreached_methods():
    assert sorted(set(ALLOWED_METHODS) - _unreached_methods()) == []
