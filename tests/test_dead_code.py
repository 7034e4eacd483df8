"""Dead-code gate over src/quiverdeg, read with the stdlib ast module.

Every name a module imports is used in that module (`__init__.py` is
exempt: it imports to re-export), and every module-level `_private`
function or class is referenced somewhere in src/ outside its own
definition.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quiverdeg"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _referenced(node) -> set[str]:
    """Names read, attributes taken and names imported anywhere under node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_import_is_used():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node
        used = set()
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                used |= _referenced(node)
        unused.extend(f"{name}: {alias}" for alias in sorted(set(imported) - used))
    assert not unused, unused


def test_every_private_definition_is_referenced():
    unreferenced = []
    for name, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            elsewhere = set()
            for other_name, other in TREES.items():
                for stmt in other.body:
                    if stmt is not node:
                        elsewhere |= _referenced(stmt)
            if node.name not in elsewhere:
                unreferenced.append(f"{name}: {node.name}")
    assert not unreferenced, unreferenced
