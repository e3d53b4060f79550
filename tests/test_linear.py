"""The linear-algebra builders agree with element-by-element listings.

The unipotent factors, the order-2 units of the central subalgebra and the
normalized units are built from one F2 elimination routine. Each is compared
here with the listing it replaced (the naive references in ``oracles.py``)
on every catalog instance, on Q32 and on D8xC4; the routine itself is checked
against brute force on random column sets.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import f2units as f
from f2units import algebra
from f2units.algebra import _eliminate, _span
from f2units.catalog import CLASSICAL_ENTRIES, ODOT_ENTRIES, small_catalog_groups
from f2units.decompositions import (
    _central_order_2_parts,
    _central_unipotent_basis,
    _in_w,
    _require_w_module,
    _unipotent_basis,
)
from f2units.errors import NotAUnitError
from f2units.involutions import InvertingExtensionForm
from f2units.unitgroup import _ideal_powers
from conftest import relabelled_q32, subalgebra_units
from oracles import (
    bits,
    naive_basis,
    naive_ideal_powers,
    naive_central_unipotent,
    naive_mul,
    naive_unipotent_fibers,
    naive_unit_masks,
)


def _q32_form():
    return f.make_inverting_form(f.make_quaternion(32), [1], 16)


CLASSICAL_FORMS = [pytest.param(e.form, id=e.key) for e in CLASSICAL_ENTRIES] + [
    pytest.param(_q32_form, id="Q32")
]
ODOT_FORMS = [pytest.param(e.form, id=e.key) for e in ODOT_ENTRIES]


@pytest.mark.parametrize("make_form", CLASSICAL_FORMS)
def test_unipotent_factor_matches_listing_over_every_z(make_form):
    form = make_form()
    fibers = naive_unipotent_fibers(form.group, form.a_sub.members, form.b)
    w = f.build_unipotent_factor(form)
    assert w.mask_set() == set(fibers)
    rank = len(_unipotent_basis(form)[0])
    assert set(fibers.values()) == {1 << (form.a_sub.order - rank)}


@pytest.mark.parametrize(
    "make_form",
    [
        pytest.param(lambda: f.detect_inverting_form(f.make_quaternion(32)), id="Q32"),
        pytest.param(
            lambda: f.detect_inverting_form(f.make_inverting_extension(f.make_cyclic(16), 8)),
            id="Ext(C16)",
        ),
        pytest.param(lambda: f.detect_inverting_form(f.make_quaternion(64)), id="Q64"),
    ],
)
def test_membership_by_reduction_matches_the_listed_w(make_form):
    """The verification decides u in W by reducing u + 1 against the pivots
    its module check keeps. That agrees with membership in the listed W on
    every member and on 4,000 seeded masks: uniform ones, members of W, and
    members plus one group element, most of them just off W."""
    form = make_form()
    n = form.group.order
    vectors, _ = _unipotent_basis(form)
    pivots = _require_w_module(form, vectors, 1 << len(vectors))
    w = f.build_unipotent_factor(form)
    assert all(_in_w(pivots, m) for m in w.masks)
    rng = random.Random(n)
    members = [w.masks[rng.randrange(w.order)] for _ in range(3000)]
    masks = [rng.getrandbits(n) for _ in range(1000)] + members[:1000]
    masks += [m ^ 1 << rng.randrange(n) for m in members[1000:]]
    verdicts = [_in_w(pivots, m) for m in masks]
    assert verdicts == [m in w for m in masks]
    assert 1000 <= sum(verdicts) < 3000


def _d8_form_with_an_involution_as_twist():
    """A hand-built form on D8 with A = <r> and b = s, so b*b = 1, which
    make_inverting_form refuses."""
    g = f.make_dihedral(8)
    a_sub = f.subgroup_closure(g, [1])
    b = 4
    assert g.mul[b][b] == 0
    return InvertingExtensionForm(g, a_sub, b, tuple(f.coset_representatives(g, (0, 0), a_sub.members)))


def test_unipotent_fibers_when_b_squares_to_one():
    """1 + b*b = 0, so every z reaches 1, and that single fiber is the kernel."""
    form = _d8_form_with_an_involution_as_twist()
    fibers = naive_unipotent_fibers(form.group, form.a_sub.members, form.b)
    assert fibers == {1: 1 << form.a_sub.order}
    assert _unipotent_basis(form)[0] == []


def test_fibers_check_reads_the_kernel_when_b_squares_to_one():
    """W = {1}, and each fiber has 2^4 members, not the 4 of the formula."""
    report = f.verify_inverting_decomposition(_d8_form_with_an_involution_as_twist())
    checks = {c.name: c.passed for c in report.checks}
    assert report.orders["unipotent"] == 1
    assert checks["unipotent_fibers_uniform"] is checks["unipotent_order_formula"] is False


@pytest.mark.parametrize("make_form", ODOT_FORMS)
def test_central_unipotent_matches_triple_loop(make_form):
    form = make_form()
    expected = naive_central_unipotent(form.group, form.c_sub.members, form.a, form.b, form.e)
    assert f.build_central_unipotent(form).mask_set() == expected


def _odot_with_c8(make_base):
    return lambda: f.make_odot_form(f.make_direct_product(make_base(), f.make_cyclic(8)))


@pytest.mark.parametrize(
    "make_form",
    [
        *ODOT_FORMS,
        pytest.param(_odot_with_c8(lambda: f.make_dihedral(8)), id="D8xC8"),
        pytest.param(_odot_with_c8(lambda: f.make_quaternion(8)), id="Q8xC8"),
    ],
)
def test_central_unipotent_generators_generate_w(make_form):
    """The vectors v of the odot W's generators 1 + v multiply pairwise to
    0, so (1+u)(1+v) = 1+u+v and the generators generate 1 + span(v) = W:
    the evidence for W's member checks on generators. No member is listed."""
    form = make_form()
    g, vectors = form.group, _central_unipotent_basis(form)
    assert not any(algebra._mul(g, x, y) for x in vectors for y in vectors)


@pytest.mark.parametrize("make_form", ODOT_FORMS)
def test_central_order_2_units_are_one_plus_the_squaring_kernel(make_form):
    form = make_form()
    g = form.group
    units = naive_unit_masks(g, form.c_sub.members)
    listed = tuple(m for m in units if naive_mul(g, m, m) == 1)
    v_c2, _ = _central_order_2_parts(form)
    assert v_c2.masks == listed


@pytest.mark.parametrize(
    "g", list(small_catalog_groups().values()), ids=lambda g: g.name
)
def test_normalized_units_match_per_candidate_listing(g):
    assert list(f.enumerate_normalized_units(g).masks) == naive_unit_masks(g, range(g.order))


def _scan_subgroups():
    for e in CLASSICAL_ENTRIES:
        yield pytest.param(lambda e=e: e.form().a_sub, id=f"{e.key}/A")
    yield pytest.param(lambda: _q32_form().a_sub, id="Q32/A")
    # A relabelled table scatters A's positions over the group.
    yield pytest.param(lambda: relabelled_q32().a_sub, id="Q32 relabelled/A")
    for e in ODOT_ENTRIES:
        yield pytest.param(lambda e=e: e.form().c_sub, id=f"{e.key}/C")


@pytest.mark.parametrize("make_sub", list(_scan_subgroups()))
def test_supported_normalized_units_match_per_candidate_listing(make_sub):
    """The units of the subalgebra on a subgroup, listed as the odd-weight
    masks of its span (the listing the tests use for a subalgebra's units),
    are the masks that each test as a unit on their own."""
    sub = make_sub()
    assert subalgebra_units(sub) == naive_unit_masks(sub.group, sub.members)


def _check_ideal_powers(g, members, gens):
    """J^(k+1) spanned by the x + x*s over generators s gives the same
    powers, dimension by dimension and as spans, as every product of a basis
    of J^k with the 1 + h; each basis is echelon, keyed by its lowest bit."""
    powers = _ideal_powers(g, members, gens)
    expected = naive_ideal_powers(g, members)
    assert [len(p) for p in powers] == [len(p) for p in expected]
    for power, naive in zip(powers, expected):
        assert len(naive_basis([*power.values(), *naive])) == len(naive)
        assert all((col & -col).bit_length() - 1 == row for row, col in power.items())


@pytest.mark.parametrize(
    "g", list(small_catalog_groups().values()), ids=lambda g: g.name
)
def test_ideal_powers_match_all_products(g):
    _check_ideal_powers(g, range(g.order), g.greedy_generators)


@pytest.mark.parametrize("make_sub", list(_scan_subgroups()))
def test_supported_ideal_powers_match_all_products(make_sub):
    sub = make_sub()
    _check_ideal_powers(sub.group, sub.members, sub.generators)


def test_normalized_units_of_q16_make_no_products():
    """The listing ORs masks."""
    calls = 0
    code = algebra._mul.__code__

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    g = f.make_quaternion(16)
    sys.setprofile(count)
    try:
        units = f.enumerate_normalized_units(g)
    finally:
        sys.setprofile(None)
    assert (calls, units.order) == (0, 1 << 15)


def test_normalized_units_refuse_groups_that_are_not_2_groups():
    """The error names the order that is not a power of 2."""
    for g in (f.make_cyclic(3), f.make_cyclic(6), f.make_inverting_extension(f.make_cyclic(6), 3)):
        with pytest.raises(NotAUnitError, match=f"order {g.order} is not a power of 2"):
            f.enumerate_normalized_units(g)


def test_normalized_units_compute_no_ideal_powers(monkeypatch):
    """Jennings' theorem decides nilpotency from the order alone: the
    listing runs with the filtration out of reach."""
    from f2units import unitgroup

    def refuse(*args):
        raise AssertionError("the listing computed the powers of J")

    monkeypatch.setattr(unitgroup, "_ideal_powers", refuse)
    assert f.enumerate_normalized_units(f.make_quaternion(16)).order == 1 << 15


# ---------------------------------------------------------------------------
# the elimination routine against brute force


def _xor(vectors, sel: int) -> int:
    out = 0
    for k in bits(sel):
        out ^= vectors[k]
    return out


columns_st = st.lists(st.integers(0, (1 << 6) - 1), max_size=8)


@settings(max_examples=300, deadline=None)
@given(columns_st)
def test_eliminate_rank_and_kernel_match_brute_force(columns):
    pivots, kernel = _eliminate(columns)
    subsets = range(1 << len(columns))
    image = {_xor(columns, s) for s in subsets}
    relations = {s for s in subsets if _xor(columns, s) == 0}
    assert 1 << len(pivots) == len(image)
    assert sorted(_span(kernel)) == sorted(relations)
    for row, (col, sel) in pivots.items():
        assert (col & -col).bit_length() - 1 == row
        assert _xor(columns, sel) == col


@settings(max_examples=100, deadline=None)
@given(columns_st, st.data())
def test_eliminate_carries_given_selectors(columns, data):
    selectors = data.draw(st.lists(st.integers(0, 255), min_size=len(columns), max_size=len(columns)))
    _, plain = _eliminate(columns)
    _, carried = _eliminate(columns, selectors)
    assert carried == [_xor(selectors, s) for s in plain]
