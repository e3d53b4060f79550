"""Cost guards for accepting a table that do not depend on timing.

Table validation checks associativity on a greedy generating set, so its
cost is bounded by the size of that set. Inverting-form detection takes
each candidate kernel as a subgroup without closing it; it must still return
what a search by ``make_inverting_form`` over every (candidate, twisting
element) pair finds.
"""

from __future__ import annotations

import pytest

import f2units as f
from f2units import involutions
from f2units.catalog import catalog_groups
from f2units.errors import HypothesisViolationError, NotInvertingError
from f2units.involutions import _index_two_kernels
from oracles import naive_closure, naive_element_order
from perfbench.workloads import ingest_spec_texts

GUARD_BUILDS = {
    **{name: (lambda g=g: g) for name, g in catalog_groups().items()},
    "Q128": lambda: f.make_quaternion(128),
    "D256": lambda: f.make_dihedral(256),
    "Q8xC32": lambda: f.make_direct_product(f.make_quaternion(8), f.make_cyclic(32)),
}
# Every table of the ingest benchmark, up to relabelling.
INGEST_BUILDS = {
    **GUARD_BUILDS,
    "Q8xC2^3": lambda: f.make_direct_product(
        f.make_quaternion(8),
        f.make_direct_product(f.make_cyclic(2), f.make_direct_product(f.make_cyclic(2), f.make_cyclic(2))),
    ),
}


@pytest.mark.parametrize("name", sorted(GUARD_BUILDS))
def test_generating_set_is_logarithmic(name):
    g = GUARD_BUILDS[name]()
    gens = g.greedy_generators
    assert len(gens) <= g.order.bit_length() - 1
    assert naive_closure(g, gens) == list(range(g.order))


def _index_two_subgroups(g):
    """Kernels of the nonzero homomorphisms onto C2, from the table's greedy
    generators: every sign pattern on them is tried and checked on all pairs."""
    gens = g.greedy_generators
    kernels = set()
    for bits in range(1, 1 << len(gens)):
        phi = {0: 0}
        queue = [0]
        while queue:
            x = queue.pop()
            for pos, gn in enumerate(gens):
                y = g.mul[x][gn]
                if y not in phi:
                    phi[y] = phi[x] ^ (bits >> pos & 1)
                    queue.append(y)
        n = g.order
        if all(phi[g.mul[x][y]] == phi[x] ^ phi[y] for x in range(n) for y in range(n)):
            kernels.add(tuple(x for x in range(n) if phi[x] == 0))
    return sorted(kernels)


@pytest.mark.parametrize("name", sorted(INGEST_BUILDS))
def test_index_two_kernels_are_the_closed_index_two_subgroups(name):
    g = INGEST_BUILDS[name]()
    kernels = _index_two_kernels(g)
    assert [k.members for k in kernels] == _index_two_subgroups(g)
    for k in kernels:
        assert f.subgroup_closure(g, k.members).members == k.members


def _reference_search(g):
    """The first (candidate, b) that make_inverting_form accepts, in the
    canonical order; non-abelian candidates and twists of order other than
    4 are skipped up front, as make_inverting_form would reject them."""
    for members in _index_two_subgroups(g):
        if any(g.mul[x][y] != g.mul[y][x] for x in members for y in members):
            continue
        inside = set(members)
        for b in range(g.order):
            if b in inside or naive_element_order(g, b) != 4:
                continue
            try:
                form = f.make_inverting_form(g, members, b)
            except HypothesisViolationError:
                continue
            return form.a_sub.members, form.b, form.transversal
    return None


def _assert_detection_matches_the_search(g):
    want = _reference_search(g)
    if want is None:
        with pytest.raises(NotInvertingError):
            f.detect_inverting_form(g)
    else:
        form = f.detect_inverting_form(g)
        assert (form.a_sub.members, form.b, form.transversal) == want


@pytest.mark.parametrize("name", sorted(GUARD_BUILDS))
def test_detection_matches_make_inverting_form_search(name):
    _assert_detection_matches_the_search(GUARD_BUILDS[name]())


# The benchmark's ingest tables as its seeds 0, 1 and 2 relabel them.
RELABELLED = {
    f"{name}/seed{seed}": text
    for seed in range(3)
    for name, text in ingest_spec_texts(seed).items()
}


@pytest.mark.parametrize("key", sorted(RELABELLED))
def test_relabelled_ingest_tables_match_the_reference_search(key):
    g = f.parse_group_spec(RELABELLED[key])
    assert [k.members for k in _index_two_kernels(g)] == _index_two_subgroups(g)
    _assert_detection_matches_the_search(g)


@pytest.mark.parametrize(
    "key", sorted(GUARD_BUILDS) + sorted(k for k in RELABELLED if k.endswith("/seed0"))
)
def test_detection_tries_only_order_4_twists(key, monkeypatch):
    """Neither the form check nor the order walk sees a b whose order is not
    4: detection passes over those b before either is called. Each group here
    has an abelian index-2 subgroup and elements of order 4, so both are
    called."""
    g = f.parse_group_spec(RELABELLED[key]) if key in RELABELLED else GUARD_BUILDS[key]()
    seen = []
    form_at, order_of = involutions._inverting_form_at, involutions.element_order

    def checked_form_at(group, a_sub, b):
        seen.append(b)
        return form_at(group, a_sub, b)

    def checked_order(group, x):
        seen.append(x)
        return order_of(group, x)

    monkeypatch.setattr(involutions, "_inverting_form_at", checked_form_at)
    monkeypatch.setattr(involutions, "element_order", checked_order)
    try:
        f.detect_inverting_form(g)
    except HypothesisViolationError:
        pass
    assert {naive_element_order(g, b) for b in seen} == {4}


def test_groups_without_an_inverting_form():
    assert _reference_search(GUARD_BUILDS["D256"]()) is None
    assert _reference_search(GUARD_BUILDS["Q8xC32"]()) is None
