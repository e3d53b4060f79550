"""The shared test instances: each builder returns a new table on each call,
and every name ``instances.py`` exports is imported by some test module."""

from __future__ import annotations

import ast
from pathlib import Path

import f2units as f
import instances as i

TESTS = Path(__file__).resolve().parent
TABLES = ("CLASSICAL_FORMS", "ODOT_FORMS", "CATALOG_FORMS", "LARGE_ODOT_FORMS")
BUILDERS = {
    **{f"{t}[{key}]": build for t in TABLES for key, build in getattr(i, t).items()},
    "catalog_form": lambda: i.catalog_form("D8", "odot"),
    "quaternion_form": lambda: i.quaternion_form(16),
    "relabelled_q32": i.relabelled_q32,
}


def test_every_builder_returns_a_new_table_on_each_call():
    """Algebra elements are bound to one table, so no two calls share one."""
    tables = {name: (build().group, build().group) for name, build in BUILDERS.items()}
    assert all(isinstance(t, f.GroupTable) for pair in tables.values() for t in pair)
    assert [name for name, (a, b) in tables.items() if a is b] == []
    mul = f.make_quaternion(8).mul
    assert i.relabel(mul, range(8)) == [list(row) for row in mul]


def test_every_exported_name_is_imported_by_a_test_module():
    """A public name of ``instances.py`` that no module in ``tests/``
    imports is a builder left unused."""
    body = ast.parse((TESTS / "instances.py").read_text(encoding="utf-8")).body
    defined = {n.name for n in body if isinstance(n, ast.FunctionDef)}
    defined |= {t.id for n in body if isinstance(n, ast.Assign) for t in n.targets}
    imported = {
        alias.name
        for path in TESTS.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "instances"
        for alias in node.names
    }
    assert sorted(n for n in defined - imported if not n.startswith("_")) == []
