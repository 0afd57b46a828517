"""The package exports, and its classes define, only what the program reaches.

A name exported by ``mirrorlab/__init__.py``, and every public method of a
class in the package, must be referenced somewhere in the package, the demos
or perfbench outside its own definition: as a name, an attribute, or a string
equal to it (perfbench wraps callables by name).  Imports and the exporting
``__init__`` do not count, and neither do the tests.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mirrorlab"
SOURCES = [PACKAGE, ROOT / "demos", ROOT / "perfbench"]
# kept for the tests, as fixtures and as references for the package's results
ALLOWED = {"ZeroLoss", "nuclear_frobenius_ratio", "check_quadratic_commuting"}
# methods kept for the tests, with the property each one checks
ALLOWED_METHODS = {
    "LegendreFamily.bregman_divergence": "the Legendre contract: a nonnegative Bregman divergence",
    "DomainSpec.lengths": "range shrinking (c7): the dual interval loses 2 |da| as a decreases",
    "Schedule.total_strength": "the ablation design: every schedule spends the same strength",
    "LinearRegressionLoss.value_and_grad": "the block-statistics bits of value and grad",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def _program():
    """(path, tree) for every program module: the package but its exporting
    ``__init__``, the demos and perfbench, without their tests."""
    return [(path, ast.parse(path.read_text()))
            for path in (p for source in SOURCES for p in sorted(source.rglob("*.py")))
            if path != PACKAGE / "__init__.py" and not path.name.startswith("test_")]


def _references(trees):
    """name -> the owners of each reference to it, for every name, attribute
    and string constant: the ids of the top-level definition and of the
    method the reference sits in."""
    found = defaultdict(list)
    for tree in trees:
        stack = [(tree, frozenset())]
        while stack:
            node, owners = stack.pop()
            if isinstance(node, ast.Name):
                found[node.id].append(owners)
            elif isinstance(node, ast.Attribute):
                found[node.attr].append(owners)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found[node.value].append(owners)
            owns = node is tree or isinstance(node, ast.ClassDef)
            stack.extend((child, owners | {id(child)} if owns and isinstance(child, DEFINITIONS)
                          else owners) for child in ast.iter_child_nodes(node))
    return found


def _reached(refs, name, nodes):
    """Whether some reference to `name` lies outside every node in `nodes`."""
    skip = {id(node) for node in nodes}
    return any(not owners & skip for owners in refs.get(name, ()))


def _unreached_exports():
    program = [tree for _, tree in _program()]
    refs = _references(program)
    tops = defaultdict(list)
    for tree in program:
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                tops[node.name].append(node)
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = {alias.asname or alias.name
               for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    return exports, {name for name in exports if not _reached(refs, name, tops[name])}


def _unreached_methods():
    program = _program()
    refs = _references([tree for _, tree in program])
    methods = {f"{cls.name}.{fn.name}": fn
               for path, tree in program if path.parent == PACKAGE
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in cls.body
               if isinstance(fn, FUNCTIONS) and not fn.name.startswith("_")}
    return {name for name, fn in methods.items() if not _reached(refs, fn.name, [fn])}


def test_every_export_is_reached_outside_the_tests():
    exports, unreached = _unreached_exports()
    assert ALLOWED <= exports
    assert sorted(unreached - ALLOWED) == []


def test_the_allowlist_names_only_unreached_exports():
    assert sorted(ALLOWED - _unreached_exports()[1]) == []


def test_every_public_method_is_reached_outside_the_tests():
    assert sorted(_unreached_methods() - set(ALLOWED_METHODS)) == []


def test_the_method_allowlist_names_only_unreached_methods():
    assert sorted(set(ALLOWED_METHODS) - _unreached_methods()) == []
