"""Exhaustive unit enumeration, closure, and product-structure checks."""

from __future__ import annotations

import pytest

import f2units as f
from f2units.errors import (
    GroupMismatchError,
    NotASubgroupError,
    NotAUnitError,
    NotSubsetError,
    TooLargeError,
)
from conftest import subalgebra_units
from instances import count_calls
from oracles import naive_mul, naive_structure_predicates, naive_unit_masks, naive_unitary_masks


# ---------------------------------------------------------------------------
# normalized units


@pytest.mark.parametrize("fixture", ["c2", "c4", "d8", "q8"])
def test_normalized_unit_count_is_two_to_order_minus_one(fixture, request):
    g = request.getfixturevalue(fixture)
    v = f.enumerate_normalized_units(g)
    assert v.order == 2 ** (g.order - 1)


def test_every_normalized_unit_inverts(q8):
    v = f.enumerate_normalized_units(q8)
    for m in v.masks:
        inv = f.ga_inverse(f.AlgebraElement(q8, m))
        assert naive_mul(q8, m, inv.mask) == 1


def test_unitary_scan_rejects_a_support_from_another_group(q8, d8):
    # <r> of D8 has members 0..3, which are also indices of Q8
    support = f.subgroup_closure(d8, [1])
    with pytest.raises(GroupMismatchError):
        f.enumerate_unitary(q8, f.classical_involution(q8), support=support)


def test_group_image_rejects_a_subgroup_of_another_group(q8, d8):
    with pytest.raises(GroupMismatchError):
        f.group_image(q8, f.subgroup_closure(d8, [1]))


def test_member_sets_are_built_once(c4, q8):
    v = f.enumerate_normalized_units(c4)
    assert v.mask_set() is v.mask_set()
    sub = f.subgroup_closure(q8, [1])
    assert sub.member_set() is sub.member_set()
    assert sub.member_set() == set(sub.members)


def test_unit_set_contains_and_elements(c4):
    v = f.enumerate_normalized_units(c4)
    assert f.one(c4) in v
    assert f.zero(c4) not in v
    assert len(list(v.elements())) == v.order
    assert v.mask_set() == set(v.masks)


def test_unit_set_must_contain_the_identity(q8):
    with pytest.raises(NotASubgroupError, match="^a unit set must contain the identity$"):
        f.UnitSet(q8, (3,))


def test_unit_set_rejects_an_element_of_another_group(q8, d8):
    """An element is a member only of a set in its own group; a bare mask
    carries no group and is looked up as it is."""
    image, units = f.group_image(q8), f.enumerate_normalized_units(q8)
    with pytest.raises(GroupMismatchError):
        f.AlgebraElement(d8, 1 << 3) in image
    with pytest.raises(GroupMismatchError):
        f.AlgebraElement(d8, 1) in units
    assert f.AlgebraElement(q8, 1 << 3) in image
    assert 1 << 3 in image and 1 in units and 0b11 not in image


@pytest.mark.parametrize(
    "make, expected",
    [
        pytest.param(lambda d8: 1, True, id="1"),
        pytest.param(lambda d8: 2, True, id="2"),
        pytest.param(lambda d8: "1", False, id="str"),
        pytest.param(lambda d8: b"1", False, id="bytes"),
        pytest.param(lambda d8: 1.9, False, id="float"),
        pytest.param(lambda d8: f.AlgebraElement(d8, 1), GroupMismatchError, id="other-group"),
    ],
)
def test_unit_set_looks_a_bare_argument_up_as_given(q8, d8, make, expected):
    """A bare argument is a member only if it is one of the masks as given:
    '1', b'1' and 1.9 are not the mask 1."""
    image, x = f.group_image(q8), make(d8)
    if expected is GroupMismatchError:
        with pytest.raises(GroupMismatchError):
            x in image
    else:
        assert (x in image) is expected


def test_membership_is_by_equality_as_for_range(q8):
    """UnitSet and SubgroupSet test membership by equality, as range does
    (1.0 in range(3) is True): a float or a bool equal to a member mask or
    index is a member, and one equal to none is not."""
    image, centre = f.group_image(q8), f.center(q8)  # centre: indices 0 and 2
    assert 1.0 in range(3) and True in range(3)
    assert 1.0 in image and True in image and 2.0 in image
    assert 1.5 not in image and False not in image
    assert -0.0 in centre and 2.0 in centre and False in centre
    assert True not in centre and 0.5 not in centre


# ---------------------------------------------------------------------------
# unitary units, cross-checked against the brute-force oracle


def test_unitary_q8_classical_matches_oracle(q8):
    v = f.enumerate_unitary(q8, f.classical_involution(q8))
    assert list(v.masks) == naive_unitary_masks(q8, q8.inv)
    assert v.order == 64


def test_unitary_d8_classical_matches_oracle(d8):
    v = f.enumerate_unitary(d8, f.classical_involution(d8))
    assert list(v.masks) == naive_unitary_masks(d8, d8.inv)


def test_unitary_under_twisted_involution_matches_oracle(d8, q8, d8_odot_form, q8_odot_form):
    # the dihedral group's reflections are NOT unitary here (s * s^twist =
    # s^2 * e = e != 1), so the count drops to 32; the quaternion group's
    # non-central elements all square to e, so its count stays at 64
    vd = f.enumerate_unitary(d8, f.odot_involution(d8_odot_form))
    assert list(vd.masks) == naive_unitary_masks(d8, f.odot_involution(d8_odot_form).perm)
    assert vd.order == 32
    vq = f.enumerate_unitary(q8, f.odot_involution(q8_odot_form))
    assert list(vq.masks) == naive_unitary_masks(q8, f.odot_involution(q8_odot_form).perm)
    assert vq.order == 64


def test_support_restricted_enumeration(q8):
    a_sub = f.subgroup_closure(q8, [1])
    vu = f.enumerate_unitary(q8, f.classical_involution(q8), support=a_sub)
    assert vu.order == 8
    assert all(m & ~0b1111 == 0 for m in vu.masks)


def test_support_restriction_works_inside_large_ambient():
    """The units of the subalgebra on the centre of an order-32 group are
    listed on the centre's positions alone, with no scan of the ambient."""
    big = f.make_direct_product(f.make_dihedral(8), f.make_cyclic(4))
    c_sub = f.center(big)
    units = subalgebra_units(c_sub)
    assert len(units) == 2 ** (len(c_sub.members) - 1)
    assert units == naive_unit_masks(big, c_sub.members)


# ---------------------------------------------------------------------------
# bounds and parallelism


def test_enumeration_bound_guard():
    with pytest.raises(TooLargeError):
        f.enumerate_normalized_units(f.make_quaternion(32))


def test_worker_counts_agree(d8):
    sigma = f.classical_involution(d8)
    reference = f.enumerate_unitary(d8, sigma, workers=1).masks
    for workers in (2, 3, 4, 8):
        assert f.enumerate_unitary(d8, sigma, workers=workers).masks == reference


# ---------------------------------------------------------------------------
# closures and product structure


def test_group_image_and_closure(q8):
    img = f.group_image(q8)
    assert img.order == 8
    assert all(m.bit_count() == 1 for m in img.masks)
    closed = f.unit_subgroup_closure(q8, [f.basis(q8, 1)])
    assert closed.order == 4


def test_closure_rejects_non_units(q8):
    with pytest.raises(NotAUnitError):
        f.unit_subgroup_closure(q8, [f.one(q8) + f.basis(q8, 1)])


def test_internal_semidirect_on_unitary_group(q8, q8_form):
    sigma = f.classical_involution(q8)
    v = f.enumerate_unitary(q8, sigma)
    w = f.build_unipotent_factor(q8_form)
    ell = f.build_abelian_complement(q8_form)
    h = f.build_normal_cofactor(q8_form, w, ell)
    assert f.internal_semidirect(h, w, ell)
    assert f.internal_semidirect(v, h, f.group_image(q8))


def test_internal_semidirect_requires_containment(q8, q8_form):
    w = f.build_unipotent_factor(q8_form)
    tiny = f.make_unit_set(q8, [1, 2 | 1])  # not inside w
    with pytest.raises(NotSubsetError):
        f.internal_semidirect(w, tiny, tiny)


def test_internal_direct_on_twisted_unitary_group(q8, q8_odot_form):
    v = f.enumerate_unitary(q8, f.odot_involution(q8_odot_form))
    w = f.build_central_unipotent(q8_odot_form)
    img = f.group_image(q8)
    assert f.internal_direct(v, [img, w])


def test_structure_predicates_on_elementary_abelian(q8, q8_form):
    """The reference that the classical W's elementary check is compared
    with holds on the built W."""
    w = f.build_unipotent_factor(q8_form)
    preds = naive_structure_predicates(w)
    assert preds["is_elementary_abelian_2"]
    assert preds["rank"] == 2


def _classical_unitary_q8():
    q8 = f.make_quaternion(8)
    return f.enumerate_unitary(q8, f.classical_involution(q8))


@pytest.mark.parametrize(
    "build",
    [
        lambda: f.enumerate_normalized_units(f.make_cyclic(4)),
        lambda: f.group_image(f.make_quaternion(16)),
        _classical_unitary_q8,
        lambda: f.enumerate_normalized_units(f.make_cyclic(8)),
    ],
    ids=["V(F2C4)", "group_image(Q16)", "V_*(F2Q8)", "V(F2C8)"],
)
def test_structure_predicates_exponent_beyond_two(build):
    """Off the elementary abelian branch the reference gives no rank."""
    preds = naive_structure_predicates(build())
    assert preds == {"is_elementary_abelian_2": False, "rank": None}


def test_exponent_of_a_non_unit_stops_after_the_group_order(q8):
    """The squares of the non-unit 1 + g1 give up once the order would pass
    |G| = 8, after log2(8) of them (a walk through the powers ran to 2^20
    products)."""
    from f2units import algebra

    with count_calls(algebra._mul) as calls, pytest.raises(NotAUnitError):
        algebra._squares(q8, 1 | 1 << 1)
    assert calls["_mul"] == 3


def test_canonical_generators_regenerate(q8, q8_form):
    w = f.build_unipotent_factor(q8_form)
    gens = f.canonical_generators(w)
    rebuilt = f.unit_subgroup_closure(q8, [f.AlgebraElement(q8, m) for m in gens])
    assert rebuilt.masks == w.masks


def test_find_complement_takes_unit_sets_only(c4xc2, q8):
    ambient = f.SubgroupSet.from_members(c4xc2, range(8))
    factor = f.subgroup_closure(c4xc2, [2])
    with pytest.raises(TypeError, match="group_image"):
        f.find_complement(ambient, factor)
    comp = f.find_complement(f.group_image(c4xc2, ambient), f.group_image(c4xc2, factor))
    assert comp.masks == (1, 2)

    a_sub = f.subgroup_closure(q8, [1])
    v_a = f.enumerate_unitary(q8, f.classical_involution(q8), support=a_sub)
    ell = f.find_complement(v_a, f.group_image(q8, a_sub))
    assert ell.order == 2
