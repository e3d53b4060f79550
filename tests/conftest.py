"""Shared fixtures: one table per group per session, one full scan per
order-32 instance, and a relabelled Q32 whose subgroups sit at scattered
positions.

Algebra elements are bound to a specific table object, so tests that
exchange elements must draw the group from the same fixture.
"""

from __future__ import annotations

import functools
import os
import random
import sys
from pathlib import Path

import pytest

# A test run leaves no bytecode in src/, nor do the interpreters it starts:
# a cached import would make the benchmark's setup_s time the load of that
# cache, not a fresh compile.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parents[1]))  # perfbench's inputs, by import

import f2units as f
from f2units.algebra import _span


@pytest.fixture(scope="session")
def c2():
    return f.make_cyclic(2)


@pytest.fixture(scope="session")
def c4():
    return f.make_cyclic(4)


@pytest.fixture(scope="session")
def c8():
    return f.make_cyclic(8)


@pytest.fixture(scope="session")
def d8():
    return f.make_dihedral(8)


@pytest.fixture(scope="session")
def q8():
    return f.make_quaternion(8)


@pytest.fixture(scope="session")
def q16():
    return f.make_quaternion(16)


@pytest.fixture(scope="session")
def c4xc2():
    return f.make_direct_product(f.make_cyclic(4), f.make_cyclic(2))


@pytest.fixture(scope="session")
def d8xc2(d8, c2):
    return f.make_direct_product(d8, c2)


@pytest.fixture(scope="session")
def q8xc2(q8, c2):
    return f.make_direct_product(q8, c2)


@pytest.fixture(scope="session")
def q8_form(q8):
    return f.make_inverting_form(q8, [1], 4)


@pytest.fixture(scope="session")
def q16_form(q16):
    return f.make_inverting_form(q16, [1], 8)


@pytest.fixture(scope="session")
def d8_odot_form(d8):
    return f.make_odot_form(d8)


@pytest.fixture(scope="session")
def q8_odot_form(q8):
    return f.make_odot_form(q8)


@pytest.fixture(scope="session")
def d8xc2_odot_form(d8xc2):
    return f.make_odot_form(d8xc2)


# The order-32 instances the full scan runs on: a builder and the involution.
ORDER32 = {
    "Q32": (lambda: f.make_quaternion(32), "classical"),
    "Ext(C16)": (lambda: f.make_inverting_extension(f.make_cyclic(16), 8), "classical"),
    "D8xC4": (lambda: f.make_direct_product(f.make_dihedral(8), f.make_cyclic(4)), "odot"),
}


@functools.cache
def order32_scan(key: str):
    """(group, form, V_*) for one order-32 instance, with V_* from the full
    scan at ``max_order=32``, computed once per session. The classical form
    is the detected one; all three share one table."""
    build, involution = ORDER32[key]
    g = build()
    if involution == "classical":
        form, sigma = f.detect_inverting_form(g), f.classical_involution(g)
    else:
        form = f.make_odot_form(g)
        sigma = f.odot_involution(form)
    return g, form, f.enumerate_unitary(g, sigma, max_order=32)


def relabelled_q32():
    """The detected inverting form of Q32 with every element but the identity
    moved to a seeded random index, so that its index-2 subgroup A no longer
    sits below its coset and A's positions are scattered."""
    g = f.make_quaternion(32)
    pos = [0, *random.Random(5).sample(range(1, 32), 31)]
    table = [[0] * 32 for _ in range(32)]
    for i, row in enumerate(g.mul):
        for j, v in enumerate(row):
            table[pos[i]][pos[j]] = pos[v]
    labels = [""] * 32
    for i, label in enumerate(g.labels):
        labels[pos[i]] = label
    form = f.detect_inverting_form(f.GroupTable(table, labels, name="Q32"))
    assert sorted(form.a_sub.members) != list(range(16))
    return form


def subalgebra_units(sub) -> list[int]:
    """The units of the subalgebra on a subgroup of a 2-group, ascending: its
    elements of augmentation 1, as its augmentation ideal is nilpotent."""
    return [m for m in _span(1 << i for i in sorted(sub.members)) if m.bit_count() & 1]


def central_members(g) -> set[int]:
    mul, n = g.mul, g.order
    return {c for c in range(n) if all(mul[c][x] == mul[x][c] for x in range(n))}


def conjugation_involutions(g):
    """(c, sigma) for each c with c^2 central: sigma(x) = c x^-1 c^-1 is then
    an involutory anti-automorphism, and x sigma(x) = [x, c]."""
    mul, inv, n = g.mul, g.inv, g.order
    central = central_members(g)
    for c in (c for c in range(n) if mul[c][c] in central):
        perm = tuple(mul[mul[c][inv[x]]][inv[c]] for x in range(n))
        sigma = f.AntiAutomorphism(g, perm, f"conjugation by {g.labels[c]}")
        assert f.validate_involution(sigma)
        yield c, sigma
