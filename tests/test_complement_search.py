"""The complement search against the depth-first search that lists every
candidate's span, and the multiplication count of the search."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import f2units as f
from f2units import algebra, decompositions, unitgroup
from f2units.catalog import CLASSICAL_ENTRIES, ODOT_ENTRIES
from f2units.cli import main
from f2units.errors import NoComplementError
from oracles import naive_find_complement


def _classical_parts(form):
    """V_*(F2A) and the image of A: the ambient and factor of L."""
    g = form.group
    v_a = f.enumerate_unitary(g, f.classical_involution(g), support=form.a_sub)
    return v_a, f.group_image(g, form.a_sub)


def _extension_parts(base, square_label):
    g = f.make_inverting_extension(base, base.labels.index(square_label))
    return _classical_parts(f.detect_inverting_form(g))


def _c4_parts():
    c4 = f.make_cyclic(4)
    return f.group_image(c4), f.group_image(c4, f.subgroup_closure(c4, [2]))


COMPLEMENT_CASES = {
    **{f"L {e.key}": (lambda e=e: _classical_parts(e.form())) for e in CLASSICAL_ENTRIES},
    **{
        f"T {e.key}": (lambda e=e: decompositions._central_order_2_parts(e.form()))
        for e in ODOT_ENTRIES
    },
    "L Q32": lambda: _classical_parts(f.detect_inverting_form(f.make_quaternion(32))),
    "L Ext(C16)": lambda: _extension_parts(f.make_cyclic(16), "a8"),
    "L Ext(C4xC4)": lambda: _extension_parts(
        f.make_direct_product(f.make_cyclic(4), f.make_cyclic(4)), "(1,a2)"
    ),
    "L Ext(C8xC2)": lambda: _extension_parts(
        f.make_direct_product(f.make_cyclic(8), f.make_cyclic(2)), "(a4,1)"
    ),
    "C4 over {1, a2}": _c4_parts,
}


def _both_or_neither(ambient, factor):
    """The library's and the oracle's complement as (generators, masks), or
    None when both raise NoComplementError."""
    try:
        comp = f.find_complement(ambient, factor)
    except NoComplementError:
        with pytest.raises(NoComplementError):
            naive_find_complement(ambient.group, ambient.masks, factor.masks)
        return None
    expected = naive_find_complement(ambient.group, ambient.masks, factor.masks)
    assert (list(comp.generators), list(comp.masks)) == expected
    return expected


@pytest.mark.parametrize("case", list(COMPLEMENT_CASES))
def test_find_complement_matches_listing_search(case):
    found = _both_or_neither(*COMPLEMENT_CASES[case]())
    assert (found is None) == (case == "C4 over {1, a2}")


_C2 = f.make_cyclic(2)
_ABELIAN_TABLES = [
    f.make_direct_product(f.make_cyclic(4), _C2),
    f.make_direct_product(f.make_cyclic(4), f.make_cyclic(4)),
    f.make_direct_product(f.make_cyclic(8), _C2),
    f.make_direct_product(f.make_direct_product(_C2, _C2), _C2),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ABELIAN_TABLES), st.data())
def test_find_complement_matches_listing_search_on_table_subgroups(g, data):
    indices = st.integers(0, g.order - 1)
    ambient = f.subgroup_closure(g, data.draw(st.lists(indices, max_size=3)))
    members = st.sampled_from(ambient.members)
    factor = f.subgroup_closure(g, data.draw(st.lists(members, max_size=2)))
    _both_or_neither(f.group_image(g, ambient), f.group_image(g, factor))


def test_q32_construct_multiplication_count(monkeypatch, capsys):
    """One Q32 construct run makes 1,811 mask products; the search that
    listed every candidate's span made 11,329, and 1,875 remained while the
    unipotent generators were multiplied out."""
    calls = []
    mul = algebra._mul
    for module in (algebra, unitgroup, decompositions):
        monkeypatch.setattr(module, "_mul", lambda *args: calls.append(1) or mul(*args))
    args = ["--family", "quaternion", "--order", "32", "--involution", "classical"]
    assert main([*args, "--mode", "construct", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) <= 1811
