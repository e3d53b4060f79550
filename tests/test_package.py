"""The package namespace: ``__all__`` names exactly the public API."""

from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType, ModuleType

import pytest

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
    ``algebra.py`` and by ``UnitSet.elements``."""
    stray = [
        f"{path.name}:{line}"
        for path in sorted(Path(f.__file__).parent.glob("*.py"))
        if path.name != "algebra.py"
        for scope, line in _calls(ast.parse(path.read_text(encoding="utf-8")), "AlgebraElement")
        if (path.name, scope) != ("unitgroup.py", "UnitSet.elements")
    ]
    assert stray == []


def test_each_operand_fact_is_guarded_by_one_helper():
    """Group binding, element index and containment each have one guard:
    ``GroupMismatchError`` is built only by ``groups._require_group``,
    ``NotSubsetError`` only by ``unitgroup._require_subset``, and
    ``BadIndexError`` only by ``groups._require_index``."""
    allowed = {
        "GroupMismatchError": {("groups.py", "_require_group")},
        "NotSubsetError": {("unitgroup.py", "_require_subset")},
        "BadIndexError": {("groups.py", "_require_index")},
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


def test_member_checks_pass_generating_sets():
    """The unitary, the central and, in an abelian group, the square-1 units
    each form a group, so a subgroup's generators decide its member checks:
    every ``_add_member_check`` call in ``decompositions`` passes
    ``gens_of(...)``, a sum of such calls, or ``w_gens``, bound only to the
    odot W's generators ``1 + v`` over its basis of W - 1, which generate W
    when their products vanish (``central_unipotent_elementary``), and to
    the classical W's transversal generators, which generate it when the
    route check passes (``unipotent_generator_route_agrees``); never a
    member list."""

    def generating(node: ast.AST) -> bool:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return generating(node.left) and generating(node.right)
        if isinstance(node, ast.Name):
            return node.id == "w_gens"
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "gens_of"

    source = Path(f.__file__).with_name("decompositions.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    bound: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            (target,) = node.targets
            value = ast.unparse(node.value)
            if isinstance(target, ast.Name):
                bound.setdefault(target.id, set()).add(value)
            elif isinstance(target, ast.Tuple):
                for i, name in enumerate(target.elts):
                    if isinstance(name, ast.Name):
                        bound.setdefault(name.id, set()).add(f"{value}[{i}]")
    assert bound["w_gens"] == {"[1 ^ v for v in vectors]", "_unipotent_basis(form)[1]"}
    assert bound["vectors"] == {"_central_unipotent_basis(form)", "_unipotent_basis(form)[0]"}
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_add_member_check"
    ]
    # The masks are the fourth argument, or the keyword ``masks``.
    masks = [
        (*node.args[3:4], *(k.value for k in node.keywords if k.arg == "masks"))
        for node in calls
    ]
    assert len(calls) == 5 and all(len(m) == 1 for m in masks)
    assert [node.lineno for node, (m,) in zip(calls, masks) if not generating(m)] == []


# Per function of ``decompositions``: the calls that list a set or estimate
# a listing, and those of them that it makes, each inside an ``if oracle:``.
GENERIC_LISTINGS = {"make_unit_set", "_span", "_require_listable"}
LISTINGS = {
    "verify_odot_decomposition": (
        GENERIC_LISTINGS | {"build_central_unipotent"},
        {"make_unit_set", "_require_listable", "build_central_unipotent"},
    ),
    "verify_inverting_decomposition": (
        GENERIC_LISTINGS | {"build_unipotent_factor", "_cofactor_sumset"},
        {"build_unipotent_factor", "_cofactor_sumset"},
    ),
    "check_conjugation_closure": (GENERIC_LISTINGS | {"build_unipotent_factor"}, set()),
}


@pytest.mark.parametrize("function", list(LISTINGS))
def test_verification_lists_w_only_for_the_oracle(function):
    """``decompositions`` imports neither ``structure_predicates`` nor
    ``is_direct``, and every call in either verification that lists a set
    or estimates a listing sits inside an ``if oracle:`` block: construct
    mode decides each W on its basis, the odot direct product on generators
    and supports and the classical H from W and L, and lists neither W nor
    G*T nor H. ``check_conjugation_closure`` lists no W."""
    source = Path(f.__file__).with_name("decompositions.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported & {"structure_predicates", "is_direct"} == set()
    (body,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    inside = {
        id(child)
        for node in ast.walk(body)
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "oracle"
        for statement in node.body
        for child in ast.walk(statement)
    }
    listing, made = LISTINGS[function]
    calls = [
        node
        for node in ast.walk(body)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in listing
    ]
    assert {node.func.id for node in calls} == made
    assert [node.lineno for node in calls if id(node) not in inside] == []


def test_decompositions_lists_no_group_by_products():
    """The pipelines never multiply a group out: ``decompositions`` neither
    imports nor names the closure ``_greedy_generators`` or its coset step
    ``_extend``."""
    source = Path(f.__file__).with_name("decompositions.py").read_text(encoding="utf-8")
    closures = {"_greedy_generators", "_extend"}
    named = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            named += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Name):
            named.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            named.append((node.attr, node.lineno))
    assert [(name, line) for name, line in named if name in closures] == []


def test_no_module_imports_dataclasses():
    """The records are plain classes: a dataclass compiles its generated
    methods at import, which every command pays."""
    stray = []
    for path in sorted(Path(f.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            stray += [
                f"{path.name}:{node.lineno}"
                for module in modules
                if module.partition(".")[0] == "dataclasses"
            ]
    assert stray == []


def test_import_loads_neither_dataclasses_nor_inspect():
    """A fresh ``import f2units`` leaves out ``dataclasses`` and the
    ``inspect`` module it pulls in."""
    code = "import sys, f2units; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(Path(f.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# The public functions that no module of the package refers to, each with
# the reason it stays public.
UNREFERENCED_PUBLIC_FUNCTIONS = {
    "build_abelian_complement": "Theorem 1's complement L of A in V_*(F2A) (acceptance, demo 03)",
    "build_normal_cofactor": "Theorem 1's cofactor H = W*L behind its premise (demo 03); "
    "the pipeline decides the premise once and lists H by the sumset alone",
    "build_torsion_complement": "the twisted decomposition's T (acceptance, demos 04 and 05)",
    "check_conjugation_closure": "Theorem 1's three conjugation identities (acceptance)",
    "find_complement": "the complement search with its containment and abelian guards, "
    "for unit sets a caller builds; the pipelines decide commutativity on A or C",
    "check_unitary_split_form": "the split-form lemma on one element (acceptance)",
    "check_unitary_quadrant_system": "the quadrant lemma on one element (acceptance, demo 05)",
    "ga_inverse": "the inverse of one element (acceptance, demo 01)",
    "ga_involute": "the involution on one element (acceptance, demo 05)",
    "parse_element": "reads back what render_element prints (demo 01)",
    "unit_subgroup_closure": "the unit subgroup that given elements generate",
    "small_catalog_groups": "the small catalog groups by name (acceptance, demo 02)",
    "commutator_subgroup": "G', which the benchmark's ingest workload computes",
}


def test_every_public_function_has_a_caller_or_a_reason():
    """A function in ``__all__`` is referred to by some module of the
    package other than ``__init__.py``, or is one of the listed names kept
    for the reason given; the list names exactly the rest."""
    referenced = set()
    for path in Path(f.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    functions = [name for name in f.__all__ if isinstance(getattr(f, name), FunctionType)]
    assert sorted(set(functions) - referenced) == sorted(UNREFERENCED_PUBLIC_FUNCTIONS)


# Every parameter with a default on a public function or class, with the
# reason it is a knob: who sets it, or what leaving it out means.
PUBLIC_DEFAULTS = {
    ("AntiAutomorphism", "name"): "the label reports show; the two involutions set theirs",
    ("CheckResult", "witness"): "a passing check has none",
    ("GroupTable", "labels"): "a table spec may omit them; g1, g2, ... stand in",
    ("GroupTable", "family"): "a table spec is family 'table'; the make_* functions set theirs",
    ("GroupTable", "name"): "the make_* functions set the display name; a table spec has none",
    ("RunConfig", "max_exhaustive_order"): "the CLI's --max-exhaustive-order",
    ("RunConfig", "workers"): "perfbench/ passes it; accepted and ignored",
    ("RunConfig", "fmt"): "the CLI's --format",
    ("RunConfig", "out"): "the CLI's --out",
    ("UnitSet", "generators"): "a listed set has none recorded until asked",
    ("enumerate_normalized_units", "max_order"): "the CLI's --max-exhaustive-order",
    ("enumerate_normalized_units", "workers"): "perfbench/ passes it; accepted and ignored",
    ("enumerate_unitary", "max_order"): "the CLI's --max-exhaustive-order",
    ("enumerate_unitary", "workers"): "perfbench/ passes it; accepted and ignored",
    ("enumerate_unitary", "support"): "the scans of V_*(F2A) in the classical pipeline",
    ("group_image", "sub"): "the image of A in the classical pipeline",
    ("main", "argv"): "tests pass the arguments; the script reads sys.argv",
    ("make_odot_form", "prefer_large_reps"): "the alternate representatives check",
    ("make_unit_set", "generators"): "closures and complements record theirs",
    ("verify_inverting_decomposition", "max_order"): "the CLI's --max-exhaustive-order",
    ("verify_inverting_decomposition", "skip_enumeration"): "the CLI's construct mode",
    ("verify_odot_decomposition", "max_order"): "the CLI's --max-exhaustive-order",
    ("verify_odot_decomposition", "skip_enumeration"): "the CLI's construct mode",
}


def test_public_defaults_are_the_listed_knobs():
    """A default that no caller changes is a knob with one setting. Each
    default on a function or non-exception class in ``__all__`` is listed
    with a one-line reason, and the list names exactly those there are."""
    found = set()
    for name in f.__all__:
        obj = getattr(f, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        if isinstance(obj, (FunctionType, type)):
            params = inspect.signature(obj).parameters.values()
            found |= {(name, p.name) for p in params if p.default is not p.empty}
    assert sorted(found) == sorted(PUBLIC_DEFAULTS)
    assert all(reason and "\n" not in reason for reason in PUBLIC_DEFAULTS.values())
