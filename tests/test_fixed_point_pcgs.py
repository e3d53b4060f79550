"""The fixed-point pcgs of the unitary group against the exhaustive scan.

``_fixed_point_pcgs`` lifts the units fixed by u -> sigma(u)^-1 along the
filtration V_k = 1 + J^k, with no scan. On every catalog group of order at
most 16 under the classical involution and (where the form exists) the odot
one, and at order 32 on Q32, Ext(C16) and D8xC4 odot, its members lie in the
scanned set, 2^len is the scan's order, and no two share a (depth, leading
row) pair. The last makes their leading terms independent, so the normal
words are distinct, and the pcgs generates a subgroup of the scan of order
2^len: the scan itself.
"""

from __future__ import annotations

import pytest

import f2units as f
from f2units.catalog import small_catalog_groups
from f2units.unitgroup import _fixed_point_pcgs, _ideal_powers
from conftest import ORDER32, order32_scan


def _small_cases():
    for name, g in small_catalog_groups().items():
        yield pytest.param(lambda g=g: (g, f.classical_involution(g)), id=f"{name}/classical")
        try:
            form = f.make_odot_form(g)
        except f.HypothesisViolationError:
            continue
        yield pytest.param(lambda form=form: (form.group, f.odot_involution(form)), id=f"{name}/odot")


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
    pcgs = _fixed_point_pcgs(g, sigma.perm)
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
    classical = ORDER32[key][1] == "classical"
    _check_against_scan(g, f.classical_involution(g) if classical else f.odot_involution(form), v)
