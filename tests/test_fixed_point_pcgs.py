"""The fixed-point pcgs of the unitary group against the exhaustive scan.

``_fixed_point_pcgs`` lifts the units fixed by u -> sigma(u)^-1 along the
filtration V_k = 1 + J^k, with no scan. On every catalog group of order at
most 16 under the classical involution and (where the form exists) the odot
one, and at order 32 on Q32, Ext(C16) and D8xC4 odot, its members lie in the
scanned set, 2^len is the scan's order, and no two share a (depth, leading
row) pair. The last makes their leading terms independent, so the normal
words are distinct, and the pcgs generates a subgroup of the scan of order
2^len: the scan itself. Above order 32 no scan runs, so the lists of Q64,
Q128 and D8xC8 odot are pinned instead, and Q64's 2^len is compared with
the order that the classical construction predicts. The lift on one
flag-adapted basis of J returns, list for list, what the layered lift that
eliminated each layer against the basis of J^(k+1) returned
(``oracles.layered_fixed_point_pcgs``).
"""

from __future__ import annotations

import tracemalloc

import pytest

import f2units as f
from f2units import algebra, unitgroup
from f2units.algebra import _mul
from f2units.catalog import small_catalog_groups
from f2units.unitgroup import _fixed_point_pcgs, _ideal_powers
from instances import (
    CATALOG_FORMS, CLASSICAL_FORMS, LARGE_ODOT_FORMS, ORDER32, order32_scan, quaternion_form,
    scan_parts,
)
from oracles import layered_fixed_point_pcgs, layered_ideal_powers
from pin_reports import RUNS, expected


def _small_cases():
    for name, g in small_catalog_groups().items():
        yield pytest.param(lambda g=g: (g, f.classical_involution(g)), id=f"{name}/classical")
        try:
            form = f.make_odot_form(g)
        except f.HypothesisViolationError:
            continue
        yield pytest.param(lambda form=form: scan_parts(form)[:2], id=f"{name}/odot")


def _lowest(x: int) -> int:
    return (x & -x).bit_length() - 1


def _reduce(x: int, basis: dict) -> int:
    """x reduced against an echelon basis keyed by lowest bit: 0 exactly
    when x lies in its span."""
    while x and _lowest(x) in basis:
        x ^= basis[_lowest(x)]
    return x


def _depth_and_leading_row(powers, u: int) -> tuple[int, int]:
    """(k, row) for the unit u: 1 + u lies in powers[k] (J^(k+1)) but not in
    powers[k+1], and row is the lowest bit of 1 + u reduced below that."""
    for k, below in enumerate(powers[1:] + [{}]):
        rest = _reduce(u ^ 1, below)
        if rest:
            return k, _lowest(rest)
    raise AssertionError("1 is not a pcgs member")


def _check_against_scan(g, sigma, v):
    pcgs = _fixed_point_pcgs(g, sigma.perm, range(g.order), g.greedy_generators)
    assert set(pcgs) <= v.mask_set()
    assert 1 << len(pcgs) == v.order
    powers = _ideal_powers(g, range(g.order), g.greedy_generators)
    keys = [_depth_and_leading_row(powers, u) for u in pcgs]
    assert len(set(keys)) == len(keys)
    # Deepest first, by falling leading row within a depth.
    assert keys == sorted(keys, reverse=True)


@pytest.mark.parametrize("case", list(_small_cases()))
def test_pcgs_matches_the_scan(case):
    g, sigma = case()
    _check_against_scan(g, sigma, f.enumerate_unitary(g, sigma))


@pytest.mark.parametrize("key", list(ORDER32))
def test_pcgs_matches_the_scan_at_order_32(key):
    g, form, v = order32_scan(key)
    _check_against_scan(g, scan_parts(form)[1], v)


@pytest.mark.parametrize(
    "name, length",
    [
        pytest.param("Q64-classical-pcgs.txt", 34, id="Q64/classical"),
        pytest.param("Q128-classical-pcgs.txt", 66, id="Q128/classical"),
        pytest.param("D8xC8-odot-pcgs.txt", 37, id="D8xC8/odot"),
    ],
)
def test_pcgs_lists_above_the_scan_are_pinned(name, length):
    """Above order 32 no scan can check the pcgs, so its list is pinned in
    full: the golden file holds the masks in order, one a line."""
    text = RUNS[name]()
    assert len(text.splitlines()) == length
    assert text == expected(name)


def test_first_product_on_order_128_allocates_under_12_mb():
    """The first product on a fresh table builds its byte tables: 16 chunks
    of 256 words of 128 * 128 bits, about 9.3 MB at order 128."""
    g = f.make_quaternion(128)
    tracemalloc.start()
    try:
        _mul(g, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


def test_q64_construct_order_equals_the_pcgs_order():
    """Q64 classical construct at max_order=32 passes without listing H
    (2^28 masks), and its |G||W||L| is 2^len of the fixed-point pcgs, 2^34:
    the construction checked against the filtration at order 64."""
    form = quaternion_form(64)
    g = form.group
    report = f.verify_inverting_decomposition(form, max_order=32)
    assert report.passed
    pcgs = _fixed_point_pcgs(g, g.inv, range(g.order), g.greedy_generators)
    assert report.orders["expected_unitary"] == 1 << len(pcgs) == 1 << 34


# ---------------------------------------------------------------------------
# the flag-basis lift against the layered slow path


SLOW_PATH_FORMS = {
    **CATALOG_FORMS,
    **{f"{key}/classical": CLASSICAL_FORMS[key] for key in ("Q32", "Ext(C16)")},
    "Q64/classical": lambda: quaternion_form(64),
    "D8xC8/odot": LARGE_ODOT_FORMS["D8xC8"],
}


@pytest.mark.parametrize(
    "case",
    [pytest.param(lambda b=build: scan_parts(b()), id=key) for key, build in SLOW_PATH_FORMS.items()],
)
def test_pcgs_equals_the_layered_slow_path(case):
    """On the whole group, on the support (A for the classical forms, C for
    the odot ones) with its recorded generators, and on B = support meet
    sigma(support) as ``_require_hit_memory`` builds it: the same powers of
    J, key for key in the same order, and the same pcgs, unit for unit."""
    g, sigma, support = case()
    inside = set(support.members)
    b = f.SubgroupSet(g, tuple(x for x in support.members if sigma.perm[x] in inside))
    inputs = [
        (range(g.order), g.greedy_generators),
        (support.members, support.generators),
        (b.members, b.generators),
    ]
    for members, gens in inputs:
        powers = _ideal_powers(g, members, gens)
        assert [list(p.items()) for p in powers] == [
            list(p.items()) for p in layered_ideal_powers(g, members, gens)
        ]
        pcgs = _fixed_point_pcgs(g, sigma.perm, members, gens)
        assert pcgs == layered_fixed_point_pcgs(g, sigma.perm, members, gens)


def test_layer_eliminations_take_only_the_layer_coordinates(monkeypatch):
    """At Q64 classical the layer eliminations take 717 columns in all, one
    per candidate, where eliminating each layer's deltas together with the
    basis of J^(k+1) took 1,678; no column is a basis vector of J^(k+1)."""
    g, sigma, _ = scan_parts(quaternion_form(64))
    powers = _ideal_powers(g, range(g.order), g.greedy_generators)
    calls = []

    def record(columns, selectors=None):
        calls.append(list(columns))
        return algebra._eliminate(calls[-1], selectors)

    monkeypatch.setattr(unitgroup, "_ideal_powers", lambda *args: powers)
    monkeypatch.setattr(unitgroup, "_eliminate", record)
    pcgs = _fixed_point_pcgs(g, sigma.perm, range(g.order), g.greedy_generators)
    assert len(pcgs) == 34 and len(calls) == len(powers)
    assert sum(map(len, calls)) <= 717
    for columns, below in zip(calls, powers[1:] + [{}]):
        assert not set(columns) & set(below.values())
