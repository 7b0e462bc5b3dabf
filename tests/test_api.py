"""No public function, class or method without a caller in the package.

Every public top-level function or class in ``src/lpvolterra`` (the
package ``__init__`` aside), and every public method of such a class, must
be referenced by name somewhere in those modules outside its own
definition: as a name, an attribute or an import.  Tests and the
``__init__`` re-exports do not count as callers.
"""

import ast
import pathlib
from collections import Counter

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "lpvolterra"


def _names(node):
    """Counter of every name, attribute and imported name under node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def _public_definitions(tree):
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    yield f"{node.name}.{sub.name}", sub


def callerless(package=PACKAGE):
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = node.name
            if everywhere[name] - _names(node)[name] <= 0:
                out.append(f"{module}: {qualname}")
    return out


def test_scan_covers_the_package():
    modules = {p.name for p in PACKAGE.glob("*.py")}
    assert {"engine.py", "trigpoly.py", "checks.py", "cli.py"} <= modules


def test_every_public_definition_has_a_caller():
    assert callerless() == []


def test_a_callerless_function_is_flagged(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def unused():\n    return unused()\n\n\n"
        "class K:\n    def m(self):\n        return used()\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("from .a import K\nK().x\n", encoding="utf-8")
    (tmp_path / "__init__.py").write_text("from .a import unused\n",
                                          encoding="utf-8")
    assert callerless(tmp_path) == ["a.py: unused", "a.py: K.m"]
