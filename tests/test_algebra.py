"""Group-algebra arithmetic over F2, cross-checked against naive oracles."""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import f2units as f
from f2units.algebra import _coset_parts, _inverse, _involute, _mul
from f2units.catalog import CLASSICAL_ENTRIES, ODOT_ENTRIES, catalog_groups
from f2units.errors import (
    BadCosetsError,
    GroupMismatchError,
    NotAUnitError,
    ParseError,
)
from oracles import naive_apply_perm, naive_augmentation, naive_mul

masks8 = st.integers(0, 255)


def elem(g, mask):
    return f.AlgebraElement(g, mask)


# ---------------------------------------------------------------------------
# multiplication against the oracle


def test_mul_matches_oracle_exhaustively_on_c4(c4):
    for mx in range(16):
        for my in range(16):
            got = f.ga_mul(elem(c4, mx), elem(c4, my)).mask
            assert got == naive_mul(c4, mx, my)


@settings(max_examples=300, deadline=None)
@given(masks8, masks8)
def test_mul_matches_oracle_on_q8(mx, my):
    g = f.make_quaternion(8)
    assert f.ga_mul(elem(g, mx), elem(g, my)).mask == naive_mul(g, mx, my)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_mul_matches_oracle_on_q16(mx, my):
    g = f.make_quaternion(16)
    assert f.ga_mul(elem(g, mx), elem(g, my)).mask == naive_mul(g, mx, my)


# ---------------------------------------------------------------------------
# ring axioms


@settings(max_examples=200, deadline=None)
@given(masks8, masks8, masks8)
def test_ring_axioms_on_d8(mx, my, mz):
    g = f.make_dihedral(8)
    x, y, z = elem(g, mx), elem(g, my), elem(g, mz)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (y + z) * x == y * x + z * x
    assert x + x == f.zero(g)
    assert x * f.one(g) == x
    assert f.one(g) * x == x
    assert x * f.zero(g) == f.zero(g)


@settings(max_examples=200, deadline=None)
@given(masks8, masks8)
def test_augmentation_is_a_ring_map(mx, my):
    g = f.make_dihedral(8)
    x, y = elem(g, mx), elem(g, my)
    assert f.augmentation(x) == naive_augmentation(mx)
    assert f.augmentation(x + y) == (f.augmentation(x) + f.augmentation(y)) % 2
    assert f.augmentation(x * y) == f.augmentation(x) * f.augmentation(y)


def test_constructors_and_support(q8):
    assert f.zero(q8).is_zero()
    assert f.one(q8).is_one()
    assert f.basis(q8, 3).support() == (3,)
    with pytest.raises(f.F2UnitsError):
        f.basis(q8, 99)


# ---------------------------------------------------------------------------
# inversion


def test_every_odd_mask_of_c4_inverts(c4):
    for m in range(16):
        x = elem(c4, m)
        if naive_augmentation(m) == 1:
            inv = f.ga_inverse(x)
            assert naive_mul(c4, x.mask, inv.mask) == 1
            assert naive_mul(c4, inv.mask, x.mask) == 1
        else:
            with pytest.raises(NotAUnitError):
                f.ga_inverse(x)


def test_basis_inverse_is_group_inverse(q16):
    for i in range(16):
        assert f.ga_inverse(f.basis(q16, i)).mask == 1 << q16.inv[i]


@settings(max_examples=200, deadline=None)
@given(masks8.filter(lambda m: naive_augmentation(m) == 1))
def test_inverse_roundtrip_on_q8(m):
    g = f.make_quaternion(8)
    x = elem(g, m)
    assert f.ga_mul(x, f.ga_inverse(x)).is_one()


def test_inverse_rejects_zero(q8):
    with pytest.raises(NotAUnitError):
        f.ga_inverse(f.zero(q8))


def test_inverse_refuses_outside_two_groups():
    c3 = f.GroupTable([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    # 1 + g + g^2 is normalized yet nilpotent-free and non-invertible here;
    # the repeated-squaring certificate must give up rather than loop
    with pytest.raises(NotAUnitError):
        f.ga_inverse(f.AlgebraElement(c3, 0b111))


# ---------------------------------------------------------------------------
# splits


def _split_masks(g):
    """Every mask at order 8, a seeded sample of 256 above."""
    if g.order <= 8:
        return range(1 << g.order)
    rng = random.Random(g.order)
    return [rng.getrandbits(g.order) for _ in range(256)]


@pytest.mark.parametrize("entry", CLASSICAL_ENTRIES, ids=lambda e: e.key)
def test_coset_split_roundtrip(entry):
    """Two cosets of the index-2 subgroup A, twisted by b."""
    form = entry.form()
    g, a_sub = form.group, form.a_sub
    members = a_sub.member_set()
    for m in _split_masks(g):
        x1, x2 = _coset_parts(g, m, a_sub, (0, form.b))
        assert x1 ^ _mul(g, x2, 1 << form.b) == m
        assert all(i in members for i in range(g.order) if (x1 | x2) >> i & 1)


@pytest.mark.parametrize("entry", ODOT_ENTRIES, ids=lambda e: e.key)
def test_quadrant_split_roundtrip(entry):
    """Four cosets of C, twisted by 1, a, b and ab."""
    form = entry.form()
    g, c_sub = form.group, form.c_sub
    members = c_sub.member_set()
    reps = (0, form.a, form.b, g.mul[form.a][form.b])
    for m in _split_masks(g):
        parts = _coset_parts(g, m, c_sub, reps)
        back = 0
        for part, r in zip(parts, reps):
            back ^= _mul(g, part, 1 << r)
        assert back == m
        assert all(i in members for part in parts for i in range(g.order) if part >> i & 1)


def test_coset_split_rejects_bad_subgroup(q8):
    small = f.subgroup_closure(q8, [2])  # index 4
    with pytest.raises(BadCosetsError, match="do not cover"):
        _coset_parts(q8, 1, small, (0, 4))
    a_sub = f.subgroup_closure(q8, [1])
    with pytest.raises(BadCosetsError, match="overlap"):
        _coset_parts(q8, 1, a_sub, (0, 2))  # twist inside the subgroup


def test_quadrant_split_rejects_overlapping_cosets(d8):
    c_sub = f.center(d8)
    with pytest.raises(BadCosetsError, match="overlap"):
        _coset_parts(d8, 1, c_sub, (0, 2, 4, d8.mul[2][4]))  # r2 is central: cosets collide


# ---------------------------------------------------------------------------
# rendering and parsing


def test_render_parse_roundtrip(c4):
    for m in range(16):
        x = elem(c4, m)
        assert f.parse_element(c4, f.render_element(x)) == x


def test_render_zero_and_order(q8):
    assert f.render_element(f.zero(q8)) == "0"
    x = elem(q8, 1 << 4 | 1 << 0 | 1 << 2)
    assert f.render_element(x) == "1 + a2 + b"


def test_parse_rejects_unknown_label(q8):
    with pytest.raises(ParseError):
        f.parse_element(q8, "1 + q")


def test_parse_cancels_repeats(q8):
    assert f.parse_element(q8, "a + a").is_zero()


# ---------------------------------------------------------------------------
# cross-group hygiene


@pytest.mark.parametrize("mask", [1.0, True, 1 << 8, -1], ids=repr)
def test_algebra_element_mask_is_a_non_bool_int_in_range(q8, mask):
    """A float or bool mask is refused when built, like one out of range,
    not later by the renderer."""
    with pytest.raises(ValueError, match=f"^mask {mask!r} out of range for order 8$"):
        f.AlgebraElement(q8, mask)


def test_algebra_elements_are_equal_by_table_and_mask(q8):
    x, y = f.AlgebraElement(q8, 5), f.AlgebraElement(q8, 5)
    assert x == y and hash(x) == hash(y)
    assert x != f.AlgebraElement(q8, 6)
    assert x.__eq__(5) is NotImplemented
    # equal masks on two tables built alike are still elements of two tables
    assert f.one(f.make_quaternion(8)) != f.one(f.make_quaternion(8))


@pytest.mark.parametrize(
    "change",
    [lambda x: setattr(x, "mask", 3), lambda x: delattr(x, "mask")],
    ids=["set", "delete"],
)
def test_algebra_element_fields_are_read_only(q8, change):
    x = f.AlgebraElement(q8, 5)
    with pytest.raises(AttributeError):
        change(x)
    assert x.mask == 5


@pytest.mark.parametrize(
    "copier, same_table",
    [
        (copy.copy, True),
        (copy.deepcopy, False),
        (lambda x: pickle.loads(pickle.dumps(x)), False),
    ],
    ids=["copy", "deepcopy", "pickle"],
)
def test_algebra_element_copies_are_equal(q8, copier, same_table):
    """A shallow copy keeps the table and equals the original; a deep copy
    or a pickle round trip copies the table too, so its element equals the
    element of the same mask on the copied table."""
    x = f.AlgebraElement(q8, 5)
    y = copier(x)
    assert y is not x and (y.group is q8) is same_table
    assert y == f.AlgebraElement(y.group, 5)
    assert hash(y) == hash(f.AlgebraElement(y.group, 5))
    assert (y == x) is same_table


def test_cross_group_operations_fail(q8, d8):
    with pytest.raises(GroupMismatchError):
        f.ga_mul(f.one(q8), f.one(d8))
    with pytest.raises(GroupMismatchError):
        _ = f.one(q8) + f.one(d8)


def test_involute_is_linear_and_self_inverse(q8):
    sigma = f.classical_involution(q8)
    for mx, my in [(7, 9), (128, 1), (255, 0), (100, 200)]:
        x, y = elem(q8, mx), elem(q8, my)
        assert f.ga_involute(sigma, x + y) == f.ga_involute(sigma, x) + f.ga_involute(sigma, y)
        assert f.ga_involute(sigma, f.ga_involute(sigma, x)) == x


# ---------------------------------------------------------------------------
# the mask-level core against the oracles

def _relabelled(g, seed):
    """g with every element but the identity moved to a seeded random index."""
    n = g.order
    pos = [0, *random.Random(seed).sample(range(1, n), n - 1)]
    table = [[0] * n for _ in range(n)]
    for i, row in enumerate(g.mul):
        for j, v in enumerate(row):
            table[pos[i]][pos[j]] = pos[v]
    return f.GroupTable(table, name=f"{g.name}/relabelled")


# Orders 2 and 4 fill only part of their one byte chunk, Q64 has 8 chunks, and
# the relabelled Q16 is non-abelian with its translates scattered.
CORE_GROUPS = [
    *catalog_groups().values(),
    f.make_quaternion(32),
    f.make_cyclic(2),
    f.make_cyclic(4),
    f.make_quaternion(64),
    _relabelled(f.make_quaternion(16), 3),
]


def _any_mask(g):
    return st.integers(0, (1 << g.order) - 1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CORE_GROUPS), st.data())
def test_core_mul_matches_oracle(g, data):
    x, y = data.draw(_any_mask(g)), data.draw(_any_mask(g))
    assert _mul(g, x, y) == naive_mul(g, x, y)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CORE_GROUPS), st.data())
def test_core_involute_matches_oracle(g, data):
    perm = data.draw(st.permutations(range(g.order)))
    x = data.draw(_any_mask(g))
    assert _involute(perm, x) == naive_apply_perm(perm, x)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CORE_GROUPS), st.data())
def test_core_inverse_is_two_sided(g, data):
    m = data.draw(_any_mask(g))
    x = m if naive_augmentation(m) else m ^ 1
    inv = _inverse(g, x)
    assert naive_mul(g, x, inv) == 1 == _mul(g, inv, x)


@pytest.mark.parametrize("g", CORE_GROUPS, ids=lambda g: g.name)
def test_core_mul_and_inverse_on_every_group(g):
    """Seeded masks on each group, so that every table layout is reached
    whatever the property tests above happen to sample: the top bit, the
    full mask and random ones, products against the oracle and inverses
    on both sides."""
    rng = random.Random(g.order)
    top, full = 1 << (g.order - 1), (1 << g.order) - 1
    masks = [1, top, full, top | 1, *(rng.getrandbits(g.order) for _ in range(12))]
    for x in masks:
        for y in masks:
            assert _mul(g, x, y) == naive_mul(g, x, y)
        unit = x if naive_augmentation(x) else x ^ 1
        inv = _inverse(g, unit)
        assert naive_mul(g, unit, inv) == 1 == naive_mul(g, inv, unit)


@pytest.mark.parametrize("g", CORE_GROUPS, ids=lambda g: g.name)
def test_core_inverse_rejects_augmentation_zero(g):
    for x in (0, 0b11, (1 << g.order) - 1):
        with pytest.raises(NotAUnitError):
            _inverse(g, x)


def test_core_inverse_refuses_outside_two_groups():
    c3 = f.GroupTable([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    with pytest.raises(NotAUnitError):
        _inverse(c3, 0b111)
