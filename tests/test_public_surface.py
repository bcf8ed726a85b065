"""Every public name in ``src/repro`` has a caller outside the tests.

A public (non-underscore, non-dunder) function, class or method whose
name appears nowhere in ``src/``, ``benchmarks/`` or ``examples/`` but in
its own definition is only kept alive by tests, and so leaves ``src/``.
An appearance is a ``Name`` id, an ``Attribute`` attr, or a string
argument to ``getattr``/``hasattr``/``setattr``/``patch_method`` (the
ledger patches methods by name).  Model classes registered with
``@register_model`` are reached through the registry and are exempt;
their methods are not.
"""

from __future__ import annotations

import ast
import functools
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
USER_DIRS = ("src", "benchmarks", "examples")
NAME_CALLS = {"getattr", "hasattr", "setattr", "patch_method"}

ALLOWED = {
    "per_user_metric": "statistical runner (ROADMAP) reads per-user metric vectors",
    "bootstrap_ci": "statistical runner (ROADMAP) reports confidence intervals",
    "paired_permutation_test": "statistical runner (ROADMAP) tests paired model gaps",
    "health": "observability item (ROADMAP) builds on RecommenderService.health",
}


def _appearances(tree: ast.AST):
    """Yield ``(name, line)`` for every use of a name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in NAME_CALLS:
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        yield arg.value, node.lineno


def _registered(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "register_model":
            return True
    return False


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of classes."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if isinstance(node, ast.ClassDef):
                stack.extend(node.body)
                if _registered(node):
                    continue
            yield node


@functools.cache
def _trees() -> dict[Path, ast.Module]:
    """Every ``.py`` file under ``USER_DIRS``, parsed once."""
    return {
        path: ast.parse(path.read_text(), str(path))
        for top in USER_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def _src_trees():
    return ((p, t) for p, t in _trees().items() if p.is_relative_to(SRC))


def _scan() -> list[str]:
    uses: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for path, tree in _trees().items():
        for name, line in _appearances(tree):
            uses[name].append((path, line))
    offenders = []
    for path, tree in _src_trees():
        for node in _definitions(tree):
            name = node.name
            if name.startswith("_") or name in ALLOWED:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in inside for p, line in uses.get(name, ())):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return sorted(offenders)


def test_every_public_name_has_a_non_test_caller():
    offenders = _scan()
    assert not offenders, "public names only tests use:\n" + "\n".join(offenders)


def test_allowlist_names_still_exist():
    defined = {node.name for __, tree in _src_trees() for node in _definitions(tree)}
    assert set(ALLOWED) <= defined
