"""The package exports only what the program reaches.

A name exported by ``mirrorlab/__init__.py`` must be referenced somewhere in
the package, the demos or perfbench outside its own definition: as a name, an
attribute, or a string equal to it (perfbench wraps callables by name).
Imports and the exporting ``__init__`` do not count, and neither do the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mirrorlab"
SOURCES = [PACKAGE, ROOT / "demos", ROOT / "perfbench"]
# kept for the tests, as fixtures and as references for the package's results
ALLOWED = {"ZeroLoss", "nuclear_frobenius_ratio", "check_quadratic_commuting"}


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _definitions(tree):
    """The module's top-level functions and classes, by name."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _references(tree, skip):
    """Every name, attribute and string constant in the tree, outside the
    nodes in ``skip`` (a set of node ids)."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _reached(tree):
    """Every name the module references outside that name's own top-level
    definition."""
    own = _definitions(tree)
    reached = _references(tree, {id(node) for node in own.values()})
    for name, node in own.items():
        reached |= _references(node, set()) - {name}
    return reached


def _unreached(exports):
    reached = set()
    for path in (p for source in SOURCES for p in sorted(source.rglob("*.py"))):
        if path != PACKAGE / "__init__.py" and not path.name.startswith("test_"):
            reached |= _reached(ast.parse(path.read_text()))
    return exports - reached


def test_every_export_is_reached_outside_the_tests():
    exports = _exports()
    assert ALLOWED <= exports
    assert sorted(_unreached(exports) - ALLOWED) == []


def test_the_allowlist_names_only_unreached_exports():
    assert sorted(ALLOWED - _unreached(_exports())) == []
