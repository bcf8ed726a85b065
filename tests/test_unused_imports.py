"""Every name a test module imports is referenced in that module.

An import binds a name; a module that never reads the name back (as a
``Name``, including the base of an attribute chain, or in ``__all__``)
carries a dead dependency.  Two imports are exempt: ``from __future__
import ...`` (a compiler directive) and ``import repro.models``, which
is imported for its side effect of registering every model.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
SIDE_EFFECT_IMPORTS = {"repro.models"}


def _bindings(tree: ast.Module):
    """Yield ``(name, line)`` for every name an import in ``tree`` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None and alias.name in SIDE_EFFECT_IMPORTS:
                    continue
                yield alias.asname or alias.name.partition(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def _references(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return names


def _unused(tree: ast.Module) -> list[tuple[str, int]]:
    used = _references(tree)
    return [(name, line) for name, line in _bindings(tree) if name not in used]


def test_every_imported_name_is_referenced():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(TESTS.rglob("*.py"))
        for name, line in _unused(ast.parse(path.read_text(), str(path)))
    ]
    assert not offenders, "imported but never referenced:\n" + "\n".join(offenders)


def test_scan_flags_only_unreferenced_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import repro.models\n"
        "import os\n"
        "import numpy as np\n"
        "import os.path as osp\n"
        "from a import b, c as d\n"
        "__all__ = ['b']\n"
        "np.zeros(d)\n"
    )
    assert _unused(tree) == [("os", 3), ("osp", 5)]
