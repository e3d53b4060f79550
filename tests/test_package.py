"""The package namespace: ``__all__`` names exactly the public API."""

from __future__ import annotations

import ast
from pathlib import Path
from types import ModuleType

import f2units as f
from f2units import errors


def test_all_resolves_and_lists_every_public_name():
    assert len(set(f.__all__)) == len(f.__all__)
    missing = [name for name in f.__all__ if not hasattr(f, name)]
    assert missing == []
    # Submodules are attributes of the package once imported; of them only
    # ``errors`` is exported.
    public = {
        name
        for name, value in vars(f).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(f.__all__) == public | {"errors"}


def test_every_error_class_is_raised_or_is_a_base_of_one_that_is():
    """An exception class that no code raises, directly or through a
    subclass, is dead API: callers would catch something that never comes."""
    src = Path(f.__file__).parent
    raised = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    live = {base for name in raised if hasattr(errors, name) for base in getattr(errors, name).__mro__}
    defined = [
        node.name
        for node in ast.parse((src / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    ]
    assert [name for name in defined if getattr(errors, name) not in live] == []


def _calls(tree: ast.AST, name: str) -> list[tuple[str, int]]:
    """(enclosing class and function names, line) of each call to ``name``."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == name:
                    found.append((".".join(scope), child.lineno))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, (*scope, child.name) if named else scope)

    visit(tree, ())
    return found


def test_algebra_elements_stay_at_the_api_boundary():
    """The core works on masks: ``AlgebraElement`` is built only in
    ``algebra.py`` and by ``UnitSet.elements``, and only ``algebra.py``
    calls ``annihilator_solve``."""
    allowed = {"AlgebraElement": {"unitgroup.py": "UnitSet.elements"}, "annihilator_solve": {}}
    stray = []
    for path in sorted(Path(f.__file__).parent.glob("*.py")):
        if path.name == "algebra.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, scopes in allowed.items():
            stray += [
                f"{path.name}:{line} {name}"
                for scope, line in _calls(tree, name)
                if scopes.get(path.name) != scope
            ]
    assert stray == []


def test_each_operand_fact_is_guarded_by_one_helper():
    """Group binding, element index and containment each have one guard:
    ``GroupMismatchError`` is built only by ``groups._require_group``,
    ``NotSubsetError`` only by ``unitgroup._require_subset``, and
    ``BadIndexError`` only by ``groups._require_index`` and by
    ``algebra.coset_split`` for its index-2 subgroup and outside twist."""
    allowed = {
        "GroupMismatchError": {("groups.py", "_require_group")},
        "NotSubsetError": {("unitgroup.py", "_require_subset")},
        "BadIndexError": {("groups.py", "_require_index"), ("algebra.py", "coset_split")},
    }
    stray = []
    for path in sorted(Path(f.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, scopes in allowed.items():
            stray += [
                f"{path.name}:{line} {name}"
                for scope, line in _calls(tree, name)
                if (path.name, scope) not in scopes
            ]
    assert stray == []
