"""Pinned verification instances, so repeated runs cover the same ground.

Classical-involution instances supply the subgroup generators and twisting
element explicitly; odot instances are auto-detected from the group. Builders
return fresh tables on every call because algebra elements are bound to a
specific table object.
"""

from __future__ import annotations

from typing import Callable

from .groups import (
    GroupTable,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_inverting_extension,
    make_quaternion,
)
from .involutions import (
    InvertingExtensionForm,
    OdotForm,
    make_inverting_form,
    make_odot_form,
)


def _ext_c4xc2() -> GroupTable:
    base = make_direct_product(make_cyclic(4), make_cyclic(2))
    # the smallest-index involution of the base is the second-factor generator
    return make_inverting_extension(base, 1)


def _ext_c8() -> GroupTable:
    return make_inverting_extension(make_cyclic(8), 4)


class ClassicalEntry:
    def __init__(self, key: str, build: Callable[[], GroupTable], a_gens: tuple[int, ...], b: int):
        self.key, self.build, self.a_gens, self.b = key, build, a_gens, b

    def form(self) -> InvertingExtensionForm:
        return make_inverting_form(self.build(), self.a_gens, self.b)


class OdotEntry:
    def __init__(self, key: str, build: Callable[[], GroupTable]):
        self.key, self.build = key, build

    def form(self) -> OdotForm:
        return make_odot_form(self.build())


CLASSICAL_ENTRIES: tuple[ClassicalEntry, ...] = (
    ClassicalEntry("Q8", lambda: make_quaternion(8), (1,), 4),
    ClassicalEntry("Q16", lambda: make_quaternion(16), (1,), 8),
    ClassicalEntry("Ext(C4xC2)", _ext_c4xc2, (2, 1), 8),
    ClassicalEntry("Ext(C8)", _ext_c8, (1,), 8),
)

ODOT_ENTRIES: tuple[OdotEntry, ...] = (
    OdotEntry("D8", lambda: make_dihedral(8)),
    OdotEntry("Q8", lambda: make_quaternion(8)),
    OdotEntry("D8xC2", lambda: make_direct_product(make_dihedral(8), make_cyclic(2))),
    OdotEntry("Q8xC2", lambda: make_direct_product(make_quaternion(8), make_cyclic(2))),
    OdotEntry("D8xC4", lambda: make_direct_product(make_dihedral(8), make_cyclic(4))),
)


def catalog_groups() -> dict[str, GroupTable]:
    """Every distinct group the catalog touches, keyed by display name."""
    out: dict[str, GroupTable] = {}
    for entry in CLASSICAL_ENTRIES:
        g = entry.build()
        out.setdefault(g.name, g)
    for entry in ODOT_ENTRIES:
        g = entry.build()
        out.setdefault(g.name, g)
    return out


def small_catalog_groups() -> dict[str, GroupTable]:
    """The catalog groups of order at most 16."""
    return {k: g for k, g in catalog_groups().items() if g.order <= 16}
