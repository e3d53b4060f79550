"""Structure checks decided on generators agree with elementwise oracles.

The package decides normality, commutation and abelianness from generating
sets. Each test here recomputes the same predicate from every element with
the naive routines of ``oracles.py``, on every catalog instance of order at
most 16, and checks that the generators the package relies on really
generate their factors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import f2units as f
from f2units.catalog import CLASSICAL_ENTRIES, ODOT_ENTRIES
from f2units.errors import NotAbelianError
from f2units.groups import SubgroupSet
from f2units.unitgroup import (
    _is_abelian_units,
    canonical_generators,
    is_direct,
    normalizes,
)
from conftest import subalgebra_units
from oracles import (
    naive_canonical_generators,
    naive_commute,
    naive_mul,
    naive_normal_in,
    naive_product,
)

SMALL_CLASSICAL = [e for e in CLASSICAL_ENTRIES if e.build().order <= 16]
SMALL_ODOT = [e for e in ODOT_ENTRIES if e.build().order <= 16]


def naive_semidirect(g, ambient, n, k) -> bool:
    return (
        set(n.masks) & set(k.masks) == {1}
        and naive_product(g, n.masks, k.masks) == set(ambient.masks)
        and naive_normal_in(g, ambient.masks, n.masks)
    )


def naive_pairwise_commute(g, factors) -> bool:
    return all(
        naive_commute(g, x.masks, y.masks)
        for i, x in enumerate(factors)
        for y in factors[i + 1:]
    )


def naive_constructive_direct(g, factors) -> bool:
    """Pairwise commuting, and each factor meets the product of the others
    only in the identity."""
    if not naive_pairwise_commute(g, factors):
        return False
    for i, x in enumerate(factors):
        rest = {1}
        for j, y in enumerate(factors):
            if j != i:
                rest = naive_product(g, rest, y.masks)
        if set(x.masks) & rest != {1}:
            return False
    return True


def naive_direct(g, ambient, factors) -> bool:
    if not naive_constructive_direct(g, factors):
        return False
    total = {1}
    for x in factors:
        total = naive_product(g, total, x.masks)
    return total == set(ambient.masks)


def classical_parts(entry):
    form = entry.form()
    g = form.group
    v = f.enumerate_unitary(g, f.classical_involution(g))
    v_a = f.enumerate_unitary(g, f.classical_involution(g), support=form.a_sub)
    w = f.build_unipotent_factor(form)
    ell = f.build_abelian_complement(form)
    h = f.build_normal_cofactor(form, w, ell)
    return form, v, v_a, w, ell, h


def odot_parts(entry):
    form = entry.form()
    g = form.group
    v = f.enumerate_unitary(g, f.odot_involution(form))
    t = f.build_torsion_complement(form)
    w = f.build_central_unipotent(form)
    return form, v, t, w


@pytest.mark.parametrize("entry", SMALL_CLASSICAL, ids=lambda e: e.key)
def test_classical_checks_match_oracles(entry):
    form, v, v_a, w, ell, h = classical_parts(entry)
    g = form.group
    img = f.group_image(g)
    assert f.internal_semidirect(h, w, ell) is naive_semidirect(g, h, w, ell) is True
    assert f.internal_semidirect(v, h, img) is naive_semidirect(g, v, h, img) is True
    assert (
        normalizes(g, canonical_generators(v), h)
        is naive_normal_in(g, v.masks, h.masks)
        is True
    )
    # the roles swapped: the group image is normal in V for Q8 only
    assert f.internal_semidirect(v, img, h) is naive_semidirect(g, v, img, h)
    assert f.internal_direct(v, [h, img]) is naive_direct(g, v, [h, img])
    assert _is_abelian_units(v_a) is naive_commute(g, v_a.masks, v_a.masks) is True
    assert _is_abelian_units(v) is naive_commute(g, v.masks, v.masks) is False
    assert is_direct(g, [img, ell, w]) is naive_constructive_direct(g, [img, ell, w])


@pytest.mark.parametrize("entry", SMALL_ODOT, ids=lambda e: e.key)
def test_odot_checks_match_oracles(entry):
    form, v, t, w = odot_parts(entry)
    g = form.group
    img = f.group_image(g)
    factors = [img, t, w]
    # Every prefix, and the trivial group as a fourth factor. At Q8xC2 G is
    # not abelian and |T| = 2, so the running product grows by T's
    # generator, with G's generators as those of the subgroup it extends.
    for k in range(5):
        some = [*factors, f.make_unit_set(g, [1])][:k]
        assert is_direct(g, some) is naive_constructive_direct(g, some)
    # the dihedral-family group image lies outside the unitary group, so the
    # direct product is certified inside the product set instead
    ambient = v if set(img.masks) <= set(v.masks) else f.make_unit_set(
        g, naive_product(g, naive_product(g, img.masks, t.masks), w.masks)
    )
    assert f.internal_direct(ambient, factors) is naive_direct(g, ambient, factors) is True
    for s in (t, w):
        assert _is_abelian_units(s) is naive_commute(g, s.masks, s.masks) is True


def test_q16_false_cases():
    (entry,) = [e for e in CLASSICAL_ENTRIES if e.key == "Q16"]
    _, v, _, w, ell, h = classical_parts(entry)
    g = v.group
    img = f.group_image(g)
    # the group image is not normal in the unitary group
    assert not naive_normal_in(g, v.masks, img.masks)
    assert not f.internal_semidirect(v, img, h)
    # the group image does not commute with the unipotent factor
    assert not naive_commute(g, img.masks, w.masks)
    assert not is_direct(g, [img, ell, w])


def test_direct_needs_more_than_pairwise_trivial_intersections():
    """In C2 x C2 the subgroups <a>, <b>, <ab> commute and meet pairwise in
    the identity, yet <ab> lies inside <a><b>, so the three are not direct."""
    g = f.make_direct_product(f.make_cyclic(2), f.make_cyclic(2))
    a, b = 1, 2
    ab = g.mul[a][b]
    assert ab not in (0, a, b)
    cyclic = [f.group_image(g, SubgroupSet.from_members(g, [0, x])) for x in (a, b, ab)]
    for i, x in enumerate(cyclic):
        for y in cyclic[i + 1:]:
            assert set(x.masks) & set(y.masks) == {1}
    assert naive_pairwise_commute(g, cyclic)
    img = f.group_image(g)
    assert is_direct(g, cyclic) is naive_constructive_direct(g, cyclic) is False
    assert f.internal_direct(img, cyclic) is naive_direct(g, img, cyclic) is False
    assert is_direct(g, cyclic[:2]) is True
    assert f.internal_direct(img, cyclic[:2]) is naive_direct(g, img, cyclic[:2]) is True


def test_direct_on_zero_to_four_factors():
    """In C2^3 the subgroups <a>, <b>, <c> are direct and <abc> lies in
    their product: every prefix of [<a>, <b>, <c>, <abc>] agrees with the
    naive check, the first to fail being the fourth, once the running
    product has grown twice. No factors make the trivial group."""
    c2 = f.make_cyclic(2)
    g = f.make_direct_product(f.make_direct_product(c2, c2), c2)
    a, b, c = g.greedy_generators
    abc = g.mul[g.mul[a][b]][c]
    cyclic = [f.group_image(g, SubgroupSet.from_members(g, [0, x])) for x in (a, b, c, abc)]
    img = f.group_image(g)
    for k in range(5):
        assert is_direct(g, cyclic[:k]) is naive_constructive_direct(g, cyclic[:k]) is (k < 4)
        assert f.internal_direct(img, cyclic[:k]) is naive_direct(g, img, cyclic[:k]) is (k == 3)
    assert f.internal_direct(f.make_unit_set(g, [1]), []) is True
    assert is_direct(g, cyclic[::-1]) is naive_constructive_direct(g, cyclic[::-1]) is False


def test_complement_search_rejects_a_non_abelian_ambient(q8):
    v = f.enumerate_unitary(q8, f.classical_involution(q8))
    assert not naive_commute(q8, v.masks, v.masks)
    with pytest.raises(NotAbelianError):
        f.find_complement(v, f.group_image(q8))


def _assert_generated(s):
    g = s.group
    closure = f.unit_subgroup_closure(g, [f.AlgebraElement(g, m) for m in s.generators])
    assert closure.mask_set() == s.mask_set()


@pytest.mark.parametrize("entry", SMALL_CLASSICAL, ids=lambda e: e.key)
def test_classical_recorded_generators_generate(entry):
    form, _, _, w, ell, h = classical_parts(entry)
    g = form.group
    for s in (w, ell, h, f.group_image(g), f.group_image(g, form.a_sub)):
        _assert_generated(s)


@pytest.mark.parametrize("entry", SMALL_ODOT, ids=lambda e: e.key)
def test_odot_recorded_generators_generate(entry):
    form, _, t, w = odot_parts(entry)
    for s in (t, w, f.group_image(form.group)):
        _assert_generated(s)


def test_order32_recorded_generators_generate():
    """The constructive-only path at order 32 relies on the generators alone."""
    form = f.make_inverting_form(f.make_quaternion(32), [1], 16)
    w = f.build_unipotent_factor(form)
    ell = f.build_abelian_complement(form)
    for s in (w, ell, f.build_normal_cofactor(form, w, ell)):
        _assert_generated(s)
    (entry,) = [e for e in ODOT_ENTRIES if e.key == "D8xC4"]
    form = entry.form()
    for s in (f.build_torsion_complement(form), f.build_central_unipotent(form)):
        _assert_generated(s)


def _sets_without_recorded_generators():
    """Unit sets whose structure checks fall back to canonical_generators:
    V_* of every catalog instance of order at most 16, V_*(F2A) of the
    classical ones, and the two such sets the order-32 construction uses."""
    for entry in SMALL_CLASSICAL:
        form = entry.form()
        g = form.group
        sigma = f.classical_involution(g)
        yield f"{entry.key}/classical/V", lambda g=g, s=sigma: f.enumerate_unitary(g, s)
        yield f"{entry.key}/classical/V_A", lambda g=g, s=sigma, a=form.a_sub: (
            f.enumerate_unitary(g, s, support=a)
        )
    for entry in SMALL_ODOT:
        form = entry.form()
        yield f"{entry.key}/odot/V", lambda form=form: (
            f.enumerate_unitary(form.group, f.odot_involution(form))
        )
    q32 = f.make_inverting_form(f.make_quaternion(32), [1], 16)
    yield "Q32/v_a", lambda: f.enumerate_unitary(
        q32.group, f.classical_involution(q32.group), support=q32.a_sub
    )
    (d8xc4,) = [e.form() for e in ODOT_ENTRIES if e.key == "D8xC4"]
    yield "D8xC4/v_c2", lambda g=d8xc4.group: f.make_unit_set(
        g, (m for m in subalgebra_units(d8xc4.c_sub) if naive_mul(g, m, m) == 1)
    )


@pytest.mark.parametrize(
    "build", [pytest.param(b, id=name) for name, b in _sets_without_recorded_generators()]
)
def test_canonical_generators_match_from_scratch_greedy(build):
    s = build()
    assert s.generators is None
    assert canonical_generators(s) == naive_canonical_generators(s.group, s.masks)


# ---------------------------------------------------------------------------
# internal_semidirect and internal_direct decide "the product is the ambient
# set" by comparing orders; on random subgroups they must agree with the
# naive routines, which list every product.

SUBGROUP_GROUPS = {
    g.name: g
    for g in [
        f.make_cyclic(4),
        f.make_direct_product(f.make_cyclic(2), f.make_cyclic(2)),
        f.make_cyclic(8),
        f.make_direct_product(f.make_cyclic(4), f.make_cyclic(2)),
        *(e.build() for e in SMALL_CLASSICAL + SMALL_ODOT),
    ]
}


def _closes_within(g, gens, cap) -> bool:
    """True iff the unit group generated by gens has at most cap members."""
    seen, frontier = {1}, [1]
    while frontier:
        x = frontier.pop()
        for y in gens:
            z = naive_mul(g, x, y)
            if z not in seen:
                if len(seen) == cap:
                    return False
                seen.add(z)
                frontier.append(z)
    return True


def _random_unit(g, rng) -> int:
    """A group element (half of the draws), 1 + x + y for two group elements
    x, y, or a random augmentation-1 mask."""
    kind = rng.randrange(4)
    if kind < 2:
        return 1 << rng.randrange(g.order)
    if kind == 2:
        x, y = rng.sample(range(1, g.order), 2)
        return 1 ^ 1 << x ^ 1 << y
    m = rng.getrandbits(g.order)
    return m ^ (0 if m.bit_count() & 1 else 1)


def _random_subgroup(g, rng, cap):
    """unit_subgroup_closure of one or two random units, keeping only the
    first unit when the two generate more than cap members."""
    gens = [_random_unit(g, rng) for _ in range(rng.randint(1, 2))]
    while not _closes_within(g, gens, cap):
        gens = [_random_unit(g, rng)] if len(gens) == 1 else gens[:1]
    return f.unit_subgroup_closure(g, [f.AlgebraElement(g, m) for m in gens])


def _random_ambient(g, parts, rng):
    """The subgroup the parts generate, or, when that is large or on a coin
    flip, the whole normalized unit group (mostly false cases)."""
    gens = [m for p in parts for m in p.generators]
    if rng.random() < 0.75 and _closes_within(g, gens, 512):
        return f.unit_subgroup_closure(g, [f.AlgebraElement(g, m) for m in gens])
    return f.enumerate_normalized_units(g)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SUBGROUP_GROUPS)), st.randoms(use_true_random=False))
def test_semidirect_by_order_matches_listed_product(name, rng):
    g = SUBGROUP_GROUPS[name]
    n, k = (_random_subgroup(g, rng, 64) for _ in range(2))
    ambient = _random_ambient(g, [n, k], rng)
    assert f.internal_semidirect(ambient, n, k) is naive_semidirect(g, ambient, n, k)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SUBGROUP_GROUPS)), st.randoms(use_true_random=False))
def test_direct_by_order_matches_listed_product(name, rng):
    g = SUBGROUP_GROUPS[name]
    factors = [_random_subgroup(g, rng, 16) for _ in range(rng.randint(2, 3))]
    ambient = _random_ambient(g, factors, rng)
    assert f.internal_direct(ambient, factors) is naive_direct(g, ambient, factors)


def test_order32_cofactor_checks_by_order_match_listed_product():
    form = f.make_inverting_form(f.make_quaternion(32), [1], 16)
    g = form.group
    w = f.build_unipotent_factor(form)
    v_a = f.enumerate_unitary(g, f.classical_involution(g), max_order=32, support=form.a_sub)
    a_image = f.group_image(g, form.a_sub)
    ell = f.find_complement(v_a, a_image)
    h = f.build_normal_cofactor(form, w, ell)
    assert f.internal_semidirect(h, w, ell) is naive_semidirect(g, h, w, ell) is True
    # at Q32 the two factors commute, so H is their direct product
    assert f.internal_semidirect(h, ell, w) is naive_semidirect(g, h, ell, w) is True
    assert f.internal_direct(h, [w, ell]) is naive_direct(g, h, [w, ell]) is True
    part = f.unit_subgroup_closure(g, [f.AlgebraElement(g, ell.generators[0])])
    assert part.order < ell.order
    assert f.internal_direct(h, [w, part]) is naive_direct(g, h, [w, part]) is False
    assert f.internal_direct(v_a, [a_image, ell]) is naive_direct(g, v_a, [a_image, ell]) is True
