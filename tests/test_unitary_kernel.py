"""The bit-sliced unitary scan against the naive oracle, the pinned order-16
digests, and the order-32 structure it makes affordable."""

from __future__ import annotations

import hashlib
import json
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import f2units as f
from f2units import unitgroup
from f2units.algebra import _involute
from f2units.catalog import CLASSICAL_ENTRIES, ODOT_ENTRIES
from f2units.errors import HypothesisViolationError
from f2units.unitgroup import _product_is
from conftest import central_members, conjugation_involutions, order32_scan, relabelled_q32
from oracles import naive_subalgebra_unitary_masks, naive_unitary_masks

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def _instances(max_order):
    """One (group, sigma, support subgroup) param per catalog instance."""
    out = []
    for entry in CLASSICAL_ENTRIES:
        form = entry.form()
        g = form.group
        if g.order <= max_order:
            sigma = f.classical_involution(g)
            out.append(pytest.param(g, sigma, form.a_sub, id=f"{entry.key}/classical"))
    for entry in ODOT_ENTRIES:
        form = entry.form()
        g = form.group
        if g.order <= max_order:
            out.append(pytest.param(g, f.odot_involution(form), form.c_sub, id=f"{entry.key}/odot"))
    return out


@pytest.mark.parametrize("g, sigma, sub", _instances(8))
def test_full_scan_matches_naive_up_to_order_8(g, sigma, sub):
    for s in (sigma, f.classical_involution(g)):
        expected = naive_unitary_masks(g, s.perm)
        for workers in (1, 3):
            assert list(f.enumerate_unitary(g, s, workers=workers).masks) == expected


@pytest.mark.parametrize("g, sigma, sub", _instances(32))
def test_support_scan_matches_naive(g, sigma, sub):
    """Under the instance's involution and the classical one, both of which
    pass the scan's check of sigma's laws."""
    for s in {s.perm: s for s in (sigma, f.classical_involution(g))}.values():
        expected = naive_subalgebra_unitary_masks(g, s.perm, sub.members)
        assert list(f.enumerate_unitary(g, s, support=sub, workers=1).masks) == expected


@pytest.mark.parametrize("g, sigma, sub", _instances(8))
def test_every_split_matches_naive(g, sigma, sub, monkeypatch):
    """From 10 positions down the kernel puts every position on its planes
    and walks no Gray code, so every split up to order 8 is forced here:
    |L| = 0 is the walk alone, |L| = k the planes alone."""
    cases = [(None, naive_unitary_masks(g, sigma.perm), g.order)]
    cases.append((sub, naive_subalgebra_unitary_masks(g, sigma.perm, sub.members), len(sub.members)))
    for support, expected, k in cases:
        for s in range(k + 1):
            monkeypatch.setattr(unitgroup, "_low_positions", lambda _, s=s: s)
            assert list(f.enumerate_unitary(g, sigma, support=support).masks) == expected, s


# Every group of order at most 8, up to isomorphism.
_SMALL = [f.make_cyclic(n) for n in range(1, 9)] + [
    f.make_direct_product(f.make_cyclic(2), f.make_cyclic(2)),
    f.make_dihedral(6),
    f.make_direct_product(f.make_cyclic(4), f.make_cyclic(2)),
    f.make_direct_product(f.make_direct_product(f.make_cyclic(2), f.make_cyclic(2)), f.make_cyclic(2)),
    f.make_dihedral(8),
    f.make_quaternion(8),
]


def _small_involutions(g):
    """Every conjugation involution of g, the identity when g is abelian and
    the odot involution where g has an odot form."""
    sigmas = [sigma for _, sigma in conjugation_involutions(g)]
    if len(central_members(g)) == g.order:
        sigmas.append(f.AntiAutomorphism(g, tuple(range(g.order)), "identity"))
    try:
        sigmas.append(f.odot_involution(f.make_odot_form(g)))
    except HypothesisViolationError:
        pass
    return sigmas


@pytest.mark.parametrize("g", _SMALL, ids=lambda g: g.name)
def test_every_split_matches_naive_under_every_small_involution(g, monkeypatch):
    """The kernel keeps one plane per sigma-orbit of coordinates, and a
    sigma-fixed one only at the identity or at some x * sigma(x). Classical
    sigma has x * sigma(x) = 1 for every x; here x * sigma(x) = [x, c], x^2
    or x^2 e is often another sigma-fixed coordinate, whose plane must be
    kept. C1 scans one position, the one-column coordinate matrix."""
    for sigma in _small_involutions(g):
        expected = naive_unitary_masks(g, sigma.perm)
        for s in range(g.order + 1):
            monkeypatch.setattr(unitgroup, "_low_positions", lambda _, s=s: s)
            assert list(f.enumerate_unitary(g, sigma).masks) == expected, (sigma.name, s)


@pytest.mark.parametrize(
    "g, perm",
    [
        pytest.param(f.make_dihedral(8), tuple(range(8)), id="identity on D8"),
        pytest.param(f.make_cyclic(4), (0, 0, 2, 2), id="collapse on C4"),
    ],
)
def test_scan_refuses_a_map_that_is_not_an_involutory_anti_automorphism(g, perm):
    """The kernel's one plane per sigma-orbit rests on sigma's laws."""
    sigma = f.AntiAutomorphism(g, perm, "map")
    with pytest.raises(HypothesisViolationError, match="map is not an involutory anti-automorphism"):
        f.enumerate_unitary(g, sigma)


@pytest.fixture(scope="module", params=["q16", "d8xc2"])
def classical16(request):
    """An order-16 table, its classical involution and the naive unitary
    masks, listed once per module. The kernel keeps 8 of Q16's 16 planes
    and 3 of D8xC2's, where 13 of 16 coordinates are sigma-fixed and never
    an x * sigma(x)."""
    g = request.getfixturevalue(request.param)
    sigma = f.classical_involution(g)
    return g, sigma, naive_unitary_masks(g, sigma.perm)


@pytest.mark.parametrize("nlow", [4, 8, 10, 12, 16])
def test_kernel_returns_its_hits_ascending(classical16, nlow, monkeypatch):
    """The hits of each h are filed under h and come out in h order, so the
    kernel's own output is the canonical order: from 2^12 runs of 16 low
    positions down to the one run of a walk-free scan."""
    g, sigma, expected = classical16
    monkeypatch.setattr(unitgroup, "_low_positions", lambda _: nlow)
    hits = unitgroup._unitary_kernel(g, sigma.perm, tuple(range(g.order)))
    assert all(a < b for a, b in zip(hits, hits[1:]))
    assert list(hits) == expected


@pytest.fixture(scope="module")
def scattered_support():
    """Relabelled Q32, its classical involution, its index-2 subgroup A (16
    positions scattered over 0..31) and the naive unitary masks on A."""
    form = relabelled_q32()
    g, sub = form.group, form.a_sub
    sigma = f.classical_involution(g)
    return g, sigma, sub, naive_subalgebra_unitary_masks(g, sigma.perm, sub.members)


@pytest.mark.parametrize("nlow", [4, 10, 16])
def test_unitary_listing_on_scattered_positions_is_the_sorted_naive_set(
    scattered_support, nlow, monkeypatch
):
    g, sigma, sub, naive = scattered_support
    monkeypatch.setattr(unitgroup, "_low_positions", lambda _: nlow)
    listed = f.enumerate_unitary(g, sigma, support=sub).masks
    assert list(listed) == sorted(set(naive))


def test_low_positions_fill_planes_of_2_to_the_10_bits():
    assert [unitgroup._low_positions(k) for k in (1, 8, 10, 16, 20, 32)] == [1, 8, 10, 10, 10, 16]


def _pinned_order16_scans():
    """The oracle16 benchmark items, built the same way: (item, group, sigma,
    pinned summary) for each."""
    pinned = json.loads(REFERENCES.read_text())["oracle16"]
    builds = {entry.key: entry.build for entry in CLASSICAL_ENTRIES + ODOT_ENTRIES}
    assert len(pinned) == 8
    for item, ref in sorted(pinned.items()):
        key, involution = item.split("/")
        g = builds[key]()
        if involution == "classical":
            sigma = f.classical_involution(g)
        else:
            sigma = f.odot_involution(f.make_odot_form(g))
        yield item, g, sigma, ref["summary"]


def _digest(masks):
    digest = hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest()
    return {"order": len(masks), "sha256": digest}


def test_order16_scans_match_pinned_digests():
    """The oracle16 benchmark items, built the same way, against their pins."""
    for item, g, sigma, summary in _pinned_order16_scans():
        for workers in (1, 2):
            assert _digest(f.enumerate_unitary(g, sigma, workers=workers).masks) == summary, item


@pytest.mark.parametrize("nlow", [4, 6, 8])
def test_order16_scans_match_pinned_digests_where_states_repeat(nlow, monkeypatch):
    """With 2^12, 2^10 or 2^8 Gray steps and 2^|L|-bit planes, thousands of
    steps share a few plane states, so nearly every run comes from the memo:
    each state must fix the planes (both the deltas and the flips), and a
    repeat must move its state's stored run to its own h."""
    monkeypatch.setattr(unitgroup, "_low_positions", lambda _: nlow)
    for item, g, sigma, summary in _pinned_order16_scans():
        assert _digest(f.enumerate_unitary(g, sigma).masks) == summary, (item, nlow)


@pytest.mark.parametrize("key", ["D8xC2/classical", "Q32/A"])
def test_kernel_peak_stays_inside_its_estimates(key, monkeypatch):
    """The kernel's traced peak, planes, steps, memo of plane states, runs
    and hits together, stays below what the scan and hit estimates allow."""
    if key == "D8xC2/classical":
        g = f.make_direct_product(f.make_dihedral(8), f.make_cyclic(2))
        members = tuple(range(g.order))
    else:
        form = f.detect_inverting_form(f.make_quaternion(32))
        g, members = form.group, tuple(form.a_sub.members)
    sigma = f.classical_involution(g)
    estimates = []
    monkeypatch.setattr(unitgroup, "_require_memory", lambda nbytes, what: estimates.append(nbytes))
    unitgroup._require_scan_memory(g, len(members))
    unitgroup._require_hit_memory(g, sigma.perm, members)
    assert len(estimates) == 2
    tracemalloc.start()
    try:
        hits = unitgroup._unitary_kernel(g, sigma.perm, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(hits) == naive_subalgebra_unitary_masks(g, sigma.perm, members)
    assert 0 < peak < sum(estimates)


_FACTORS = {
    "C2": lambda: f.make_cyclic(2),
    "C4": lambda: f.make_cyclic(4),
    "C8": lambda: f.make_cyclic(8),
    "D8": lambda: f.make_dihedral(8),
    "Q8": lambda: f.make_quaternion(8),
}


@st.composite
def _small_products(draw):
    """A direct product of small cyclic, dihedral and quaternion groups, of
    order at most 8."""
    g = _FACTORS[draw(st.sampled_from(sorted(_FACTORS)))]()
    while g.order < 8 and draw(st.booleans()):
        fits = [k for k in sorted(_FACTORS) if int(k[1:]) * g.order <= 8]
        g = f.make_direct_product(g, _FACTORS[draw(st.sampled_from(fits))]())
    return g


@settings(max_examples=100, deadline=None)
@given(data=st.data(), g=_small_products(), workers=st.integers(1, 4))
def test_products_of_small_groups_match_naive(data, g, workers):
    sigma = f.classical_involution(g)
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    sub = f.subgroup_closure(g, gens)
    assert list(f.enumerate_unitary(g, sigma, workers=workers).masks) == naive_unitary_masks(g, g.inv)
    assert list(f.enumerate_unitary(g, sigma, workers=workers, support=sub).masks) == (
        naive_subalgebra_unitary_masks(g, g.inv, sub.members)
    )


# ---------------------------------------------------------------------------
# order 32: the full oracle, past the default bound


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: f.make_quaternion(32), id="Q32"),
        pytest.param(lambda: f.make_inverting_extension(f.make_cyclic(16), 8), id="Ext(C16)"),
    ],
)
def test_order32_classical_oracle_equals_group_times_cofactor(build, monkeypatch):
    g = build()
    form = f.detect_inverting_form(g)
    w = f.build_unipotent_factor(form)
    h = f.build_normal_cofactor(form, w, f.build_abelian_complement(form))

    def refuse(self):
        raise AssertionError("the scan started a thread")

    # The scan runs on the calling thread whatever worker count it is given.
    monkeypatch.setattr(threading.Thread, "start", refuse)
    v = f.enumerate_unitary(g, f.classical_involution(g), max_order=32, workers=2)
    assert v.order == g.order * h.order
    # G*H listed by left translation: a group element permutes the basis.
    assert v.mask_set() == {_involute(g.mul[i], m) for i in range(g.order) for m in h.masks}
    assert _product_is(v, f.group_image(g), h)


def test_order32_dihedral_gap_is_a_factor_of_four():
    _, form, v = order32_scan("D8xC4")
    predicted = f.verify_odot_decomposition(form, skip_enumeration=True).orders["expected_unitary"]
    assert (v.order, predicted) == (524_288, 2_097_152)


def test_default_bound_still_refuses_order_32():
    g = f.make_quaternion(32)
    with pytest.raises(f.TooLargeError):
        f.enumerate_unitary(g, f.classical_involution(g))
