"""Every public name in ``src/repro`` has a caller outside the tests.

A public (non-underscore, non-dunder) function, class or method whose
name appears nowhere in ``src/``, ``benchmarks/`` or ``examples/`` but in
its own definition is only kept alive by tests, and so leaves ``src/``.
An appearance is a ``Name`` id, an ``Attribute`` attr, or a string
argument to ``getattr``/``hasattr``/``setattr``/``patch_method`` (the
ledger patches methods by name).  Model classes registered with
``@register_model`` are reached through the registry and are exempt;
their methods are not.

The same holds one level down, for options: every defaulted parameter of
a public function, method or class ``__init__`` in the system packages
(:data:`OPTION_PACKAGES`) is passed, by keyword or position, by some
call in ``src/``, ``benchmarks/`` or ``examples/``.  An option only tests
set becomes a constant, or an ``ALLOWED_OPTIONS`` test seam with a
reason.
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


# --------------------------------------------------------------------- #
# every option has a caller that sets it
# --------------------------------------------------------------------- #
#: Packages whose public signatures the option guard reads.
OPTION_PACKAGES = (
    "runtime", "serving", "store", "retrieval", "online", "traffic", "telemetry",
)

ALLOWED_OPTIONS = {
    "build_world(telemetry=)": "test seam: test_replayed_span_exports_are_identical traces two replays",
    "run_scenario(config=)": "test seam: the durability tests replay a smaller ScenarioConfig",
}


def _call_name(func: ast.expr) -> tuple[str | None, bool]:
    """``(name, is_attribute)`` of a call target; ``None`` if unnamed."""
    if isinstance(func, ast.Name):
        return func.id, False
    if isinstance(func, ast.Attribute):
        return func.attr, True
    return None, False


def _calls(tree: ast.Module):
    """Yield ``(name, is_attribute, num_positional, keywords)`` per call.

    ``num_positional`` is ``None`` when a ``*args`` splat may fill any
    position, and ``keywords`` is ``None`` when a ``**kwargs`` splat may
    pass any keyword: the scan cannot see through either.
    ``functools.partial(f, ...)`` is a call of ``f``; ``cls(...)`` in a
    class body is a call of that class, and ``super().__init__(...)`` a
    call of each named base.
    """

    def visit(node: ast.AST, cls: ast.ClassDef | None):
        for child in ast.iter_child_nodes(node):
            yield from visit(child, child if isinstance(child, ast.ClassDef) else cls)
        if not isinstance(node, ast.Call):
            return
        func, args = node.func, list(node.args)
        if _call_name(func)[0] == "partial" and args:
            func, args = args[0], args[1:]
        positional = (
            None if any(isinstance(a, ast.Starred) for a in args) else len(args)
        )
        keywords = (
            None
            if any(kw.arg is None for kw in node.keywords)
            else {kw.arg for kw in node.keywords}
        )
        name, attribute = _call_name(func)
        if name == "cls" and cls is not None:
            yield cls.name, False, positional, keywords
        elif (
            name == "__init__"
            and attribute
            and isinstance(func.value, ast.Call)
            and _call_name(func.value.func)[0] == "super"
            and cls is not None
        ):
            for base in cls.bases:
                yield _call_name(base)[0], False, positional, keywords
        elif name is not None:
            yield name, attribute, positional, keywords

    yield from visit(tree, None)


def _option_signatures():
    """Yield ``(label, call_name, is_method, def_node, bound)`` per signature.

    Public module functions, public methods and the ``__init__`` of
    public classes in :data:`OPTION_PACKAGES`; a class's ``__init__`` is
    called by the class name.  ``bound`` says the first parameter
    (``self``/``cls``) is not passed by the caller.
    """
    for path, tree in _src_trees():
        if path.relative_to(SRC).parts[0] not in OPTION_PACKAGES:
            continue
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                yield top.name, top.name, False, top, False
            if not isinstance(top, ast.ClassDef) or top.name.startswith("_"):
                continue
            for node in top.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                if node.name == "__init__":
                    yield top.name, top.name, False, node, True
                elif not node.name.startswith("_"):
                    bound = not any(
                        getattr(d, "id", None) == "staticmethod"
                        for d in node.decorator_list
                    )
                    yield f"{top.name}.{node.name}", node.name, True, node, bound


def _defaulted(node: ast.FunctionDef, bound: bool) -> list[tuple[int | None, str]]:
    """``(position, name)`` of each defaulted parameter; the position
    counts the caller's positional arguments, ``None`` if keyword-only."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    skip = 1 if bound else 0
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [
        (None, a.arg)
        for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
        if d is not None
    ]
    return out


def _unset_options() -> set[str]:
    """``"label(param=)"`` for every option no call passes."""
    calls = defaultdict(list)
    for tree in _trees().values():
        for name, attribute, positional, keywords in _calls(tree):
            calls[name].append((attribute, positional, keywords))
    unset = set()
    for label, name, method, node, bound in _option_signatures():
        # A method is reached through an attribute (``obj.method(...)``);
        # a bare-name call of the same name is another function.
        sites = [
            (positional, keywords)
            for attribute, positional, keywords in calls.get(name, ())
            if attribute or not method
        ]
        unset.update(
            f"{label}({param}=)"
            for position, param in _defaulted(node, bound)
            if not any(
                positional is None
                or keywords is None
                or param in keywords
                or (position is not None and position < positional)
                for positional, keywords in sites
            )
        )
    return unset


def test_every_option_has_a_non_test_caller():
    offenders = sorted(_unset_options() - set(ALLOWED_OPTIONS))
    assert not offenders, "options no caller sets:\n" + "\n".join(offenders)


def test_option_allowlist_entries_are_still_unset():
    assert set(ALLOWED_OPTIONS) <= _unset_options()
