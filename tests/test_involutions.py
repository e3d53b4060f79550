"""Anti-automorphisms and the two decomposition-instance validators."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import f2units as f
from f2units.catalog import catalog_groups
from f2units.errors import (
    BadIndexError,
    BadOrderError,
    CenterQuotientNotKleinError,
    HypothesisViolationError,
    NotATwoGroupError,
    NotAbelianSubgroupError,
    NotInvertingError,
    WrongIndexError,
)
from instances import relabel
from oracles import naive_is_anti_involution


# ---------------------------------------------------------------------------
# the involutions themselves


def test_classical_involution_is_the_inverse_map(q8):
    sigma = f.classical_involution(q8)
    assert tuple(sigma.perm) == tuple(q8.inv)
    assert f.validate_involution(sigma)


def test_odot_fixes_center_and_twists_the_rest(d8, d8_odot_form):
    sigma = f.odot_involution(d8_odot_form)
    e = d8_odot_form.e
    central = f.center(d8).member_set()
    for g in range(d8.order):
        if g in central:
            assert sigma.perm[g] == g
        else:
            assert sigma.perm[g] == d8.mul[g][e]
    assert f.validate_involution(sigma)


def test_odot_perm_does_not_depend_on_representative_choice(d8, q8xc2):
    for g in (d8, q8xc2):
        default = f.odot_involution(f.make_odot_form(g))
        alternate = f.odot_involution(f.make_odot_form(g, prefer_large_reps=True))
        assert tuple(default.perm) == tuple(alternate.perm)


def test_identity_map_validates_only_on_abelian_groups(c4, d8):
    ident_c4 = f.AntiAutomorphism(c4, tuple(range(4)), "identity")
    assert f.validate_involution(ident_c4)
    ident_d8 = f.AntiAutomorphism(d8, tuple(range(8)), "identity")
    assert not f.validate_involution(ident_d8)


def test_non_permutation_fails_validation(c4):
    collapse = f.AntiAutomorphism(c4, (0, 0, 2, 2), "collapse")
    assert not f.validate_involution(collapse)


CATALOG_GROUPS = catalog_groups()


def _known_involutions(g):
    perms = [tuple(g.inv)]
    try:
        perms.append(tuple(f.odot_involution(f.make_odot_form(g)).perm))
    except HypothesisViolationError:
        pass
    return perms


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(CATALOG_GROUPS)),
    st.sampled_from(["random", "known", "swapped", "conjugated"]),
    st.randoms(use_true_random=False),
)
def test_generator_reversal_check_matches_all_pairs(name, kind, rng):
    """Reversal is tested on the greedy generators only; the verdict must be
    the all-pairs one. A known anti-involution conjugated by a transposition
    stays a self-inverse permutation, so it reaches the reversal test."""
    g = CATALOG_GROUPS[name]
    perm = list(rng.choice(_known_involutions(g)))
    i, j = rng.sample(range(g.order), 2)
    if kind == "random":
        rng.shuffle(perm)
    elif kind == "swapped":
        perm[i], perm[j] = perm[j], perm[i]
    elif kind == "conjugated":
        swap = list(range(g.order))
        swap[i], swap[j] = j, i
        perm = [swap[perm[swap[x]]] for x in range(g.order)]
    sigma = f.AntiAutomorphism(g, tuple(perm), kind)
    assert f.validate_involution(sigma) is naive_is_anti_involution(g, perm)


def test_generator_reversal_check_tests_every_generator():
    """x -> x^-1 on a subgroup K and x -> (x k0)^-1 off it, for a central k0
    in K, is self-inverse and reverses every product a*y with a in K. It is
    an anti-automorphism only when k0 = 1, or when K has index 2 and
    k0^2 = 1. With K generated by all greedy generators but one, a check
    that skipped that generator would accept the failing maps."""
    verdicts = set()
    for g in CATALOG_GROUPS.values():
        gens = g.greedy_generators
        central = f.center(g).member_set()
        for drop in range(len(gens)):
            k = f.subgroup_closure(g, gens[:drop] + gens[drop + 1:]).member_set()
            for k0 in sorted(k & central):
                perm = [g.inv[x] if x in k else g.inv[g.mul[x][k0]] for x in range(g.order)]
                verdict = f.validate_involution(f.AntiAutomorphism(g, tuple(perm)))
                assert verdict is naive_is_anti_involution(g, perm)
                verdicts.add(verdict)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# inverting-extension instances (abelian index-2 subgroup + order-4 twist)


def test_make_inverting_form_on_quaternion(q8, q8_form):
    assert list(q8_form.a_sub.members) == [0, 1, 2, 3]
    assert q8_form.b == 4
    assert q8_form.b_squared == 2
    assert q8_form.transversal == (0, 1)


def test_inverting_form_requires_abelian_subgroup(d8xc2):
    # the copy of the dihedral factor has index 2 but is not abelian
    with pytest.raises(NotAbelianSubgroupError):
        f.make_inverting_form(d8xc2, [2, 8], 1)


def test_inverting_form_requires_index_two(q8):
    with pytest.raises(WrongIndexError):
        f.make_inverting_form(q8, [2], 4)


def test_inverting_form_requires_order_four_twist_outside(d8, q8):
    with pytest.raises(BadOrderError):
        f.make_inverting_form(d8, [1], 4)  # reflection squares to 1
    with pytest.raises(BadOrderError):
        f.make_inverting_form(q8, [1], 1)  # twist inside the subgroup


def test_inverting_form_requires_inversion():
    c4xc4 = f.make_direct_product(f.make_cyclic(4), f.make_cyclic(4))
    # the subgroup generated by (a,1) and (1,a2) has index 2; the twist (1,a)
    # has order 4 and lies outside it, but centralizes it instead of inverting
    with pytest.raises(NotInvertingError):
        f.make_inverting_form(c4xc4, [4, 2], 1)


def test_inversion_is_tested_on_every_generator_of_a():
    """In C4xQ8, A = <(1,a), (a,1)> has index 2 and (1,b) of order 4 lies
    outside it; (1,b) inverts A's first greedy generator (1,a) but
    centralizes the second, (a,1), which the error names."""
    g = f.make_direct_product(f.make_cyclic(4), f.make_quaternion(8))
    ix = g.labels.index
    a_gens = [ix("(1,a)"), ix("(a,1)")]
    assert f.subgroup_closure(g, a_gens).generators == tuple(a_gens)
    with pytest.raises(NotInvertingError, match=r"does not invert \(a,1\)$"):
        f.make_inverting_form(g, a_gens, ix("(1,b)"))


@pytest.mark.parametrize(
    "a_gens, b",
    [([1], -4), ([1], 8), ([42], 4), ([1], True), ([True], 4), ([1.0], 4)],
    ids=["negative-b", "b-past-the-end", "a-gen-past-the-end", "bool-b", "bool-a-gen", "float-a-gen"],
)
def test_inverting_form_rejects_indices_outside_the_group(q8, a_gens, b):
    with pytest.raises(BadIndexError):
        f.make_inverting_form(q8, a_gens, b)


# (a_sub members, b, transversal) per catalog group, or the error raised.
DETECTED_CATALOG_FORMS = {
    "Q8": ((0, 1, 2, 3), 4, (0, 1)),
    "Q16": ((0, 1, 2, 3, 4, 5, 6, 7), 8, (0, 1, 2, 3)),
    "Ext(C4xC2,(1,a))": ((0, 1, 2, 3, 4, 5, 6, 7), 8, (0, 2, 4, 6)),
    "Ext(C8,a4)": ((0, 1, 2, 3, 4, 5, 6, 7), 8, (0, 1, 2, 3)),
    "D8": NotInvertingError,
    "D8xC2": NotInvertingError,
    "Q8xC2": ((0, 1, 2, 3, 4, 5, 6, 7), 8, (0, 1, 2, 3)),
    "D8xC4": NotInvertingError,
}


@pytest.mark.parametrize("name", sorted(DETECTED_CATALOG_FORMS))
def test_detect_inverting_form_on_the_catalog(name):
    g = catalog_groups()[name]
    expected = DETECTED_CATALOG_FORMS[name]
    if isinstance(expected, type):
        with pytest.raises(expected):
            f.detect_inverting_form(g)
        return
    got = f.detect_inverting_form(g)
    assert (got.a_sub.members, got.b, got.transversal) == expected
    # make_inverting_form takes the detected instance as it stands
    again = f.make_inverting_form(g, got.a_sub.members, got.b)
    assert (again.a_sub.members, again.b, again.transversal) == expected


def test_detect_inverting_form(q8, q16, d8, c8):
    got = f.detect_inverting_form(q8)
    assert len(got.a_sub.members) == 4
    assert f.element_order(q8, got.b) == 4
    got16 = f.detect_inverting_form(q16)
    assert len(got16.a_sub.members) == 8
    for g in (d8, c8):
        with pytest.raises(NotInvertingError):
            f.detect_inverting_form(g)


def test_detect_is_deterministic(q16):
    first = f.detect_inverting_form(q16)
    second = f.detect_inverting_form(q16)
    assert first.a_sub.members == second.a_sub.members
    assert first.b == second.b


# ---------------------------------------------------------------------------
# odot instances (Klein central quotient + order-2 derived subgroup)


def test_make_odot_form_on_dihedral(d8, d8_odot_form):
    form = d8_odot_form
    assert list(form.c_sub.members) == [0, 2]  # the center {1, r2}
    assert form.e == 2
    assert d8.mul[d8.mul[d8.inv[form.a]][d8.inv[form.b]]][d8.mul[form.a][form.b]] == form.e
    for g in (form.a, form.b):
        assert g not in f.center(d8).member_set()


def test_odot_form_rejects_wrong_central_quotient(c8, c4):
    for g in (c8, c4, f.make_dihedral(16)):
        with pytest.raises(CenterQuotientNotKleinError):
            f.make_odot_form(g)


def test_odot_form_on_products(d8xc2, q8xc2):
    for g in (d8xc2, q8xc2):
        form = f.make_odot_form(g)
        assert len(form.c_sub.members) == 4
        assert f.element_order(g, form.e) == 2
        assert f.validate_involution(f.odot_involution(form))


def _constructed_two_groups() -> dict:
    """Every group of order <= 64 built from cyclic, dihedral and quaternion
    factors by direct products of two factors (and of such a product with a
    cyclic factor) and by inverting extensions of the abelian ones."""
    cyclic = [f.make_cyclic(n) for n in (2, 4, 8, 16, 32, 64)]
    atoms = [*cyclic, *(m(n) for m in (f.make_dihedral, f.make_quaternion) for n in (8, 16, 32, 64))]
    pairs = [
        f.make_direct_product(x, y)
        for i, x in enumerate(atoms)
        for y in atoms[i:]
        if x.order * y.order <= 64
    ]
    triples = [f.make_direct_product(p, c) for p in pairs for c in cyclic if p.order * c.order <= 64]
    abelian = [a for a in (*cyclic, *pairs, *triples) if a.is_abelian() and a.order <= 32]
    extensions = [
        f.make_inverting_extension(a, t)
        for a in abelian
        for t in range(1, a.order)
        if a.mul[t][t] == 0
    ]
    return {g.name: g for g in (*atoms, *pairs, *triples, *extensions)}


CONSTRUCTED = _constructed_two_groups()


def _relabelled(g):
    """g with every element but the identity moved to a seeded random index."""
    pos = [0, *random.Random(g.order).sample(range(1, g.order), g.order - 1)]
    labels = [g.labels[i] for i in sorted(range(g.order), key=pos.__getitem__)]
    return f.GroupTable(relabel(g.mul, pos), labels, name=g.name)


@pytest.mark.parametrize("relabel", [False, True], ids=["built", "relabelled"])
@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_center_of_index_four_gives_the_rest_of_the_odot_bundle(name, relabel):
    """make_odot_form checks |G:Z(G)| = 4 only. Wherever that holds, every
    square is central, G' = {1, e} with e a central involution, and both
    choices of representatives give that e as their commutator."""
    g = _relabelled(CONSTRUCTED[name]) if relabel else CONSTRUCTED[name]
    c = f.center(g).member_set()
    if 4 * len(c) != g.order:
        with pytest.raises(CenterQuotientNotKleinError):
            f.make_odot_form(g)
        return
    assert all(g.mul[x][x] in c for x in range(g.order))
    comm = f.commutator_subgroup(g).members
    assert len(comm) == 2
    e = comm[1]
    assert e in c and g.mul[e][e] == 0
    assert f.make_odot_form(g).e == e
    assert f.make_odot_form(g, prefer_large_reps=True).e == e


def test_the_odot_sweep_reaches_groups_with_center_of_index_four():
    hits = [g for g in CONSTRUCTED.values() if 4 * f.center(g).order == g.order]
    assert len(CONSTRUCTED) == 131 and len(hits) == 32


def test_alternate_representatives_are_still_valid(d8):
    form = f.make_odot_form(d8, prefer_large_reps=True)
    default = f.make_odot_form(d8)
    assert form.e == default.e  # the derived-subgroup generator is unique
    assert form.a != default.a
    assert f.validate_involution(f.odot_involution(form))


def test_forms_require_a_two_group():
    """Dic3 and Q8xC3 meet every other hypothesis of their form."""
    dic3 = f.make_inverting_extension(f.make_cyclic(6), 3)
    q8xc3 = f.make_direct_product(f.make_quaternion(8), f.make_cyclic(3))
    assert issubclass(NotATwoGroupError, HypothesisViolationError)
    with pytest.raises(NotATwoGroupError, match="order 12"):
        f.make_inverting_form(dic3, [1], 6)
    with pytest.raises(NotATwoGroupError, match="order 12"):
        f.detect_inverting_form(dic3)
    with pytest.raises(NotATwoGroupError, match="order 24"):
        f.make_odot_form(q8xc3)
