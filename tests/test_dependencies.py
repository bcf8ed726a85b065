"""The declared runtime dependencies are exactly the ones the package imports.

Every top-level module that ``src/repro`` imports, outside the standard
library and ``repro`` itself, must be named in ``[project].dependencies``
of ``pyproject.toml``, and every name there must be imported somewhere.
A dependency can then be neither declared without a use nor used without
being declared.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_third_party() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro"}


def declared_dependencies() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    specs = re.findall(r'"([^"]+)"', block.group(1))
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in specs
    }


def test_imports_match_declared_dependencies():
    assert imported_third_party() == declared_dependencies() == {"numpy", "scipy"}
