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
