"""The conjugation identities of the classical decomposition, checked on bit
planes, against the pairwise oracle: the same witness string on every
intact instance and on inputs mutated to fail each identity."""

from __future__ import annotations

import dataclasses

import pytest

import f2units as f
from f2units.catalog import CLASSICAL_ENTRIES
from f2units.decompositions import _conjugation_witness, build_unipotent_factor
from f2units.unitgroup import enumerate_unitary, make_unit_set
from oracles import naive_conjugation_witness

FORMS = {
    **{e.key: e.form for e in CLASSICAL_ENTRIES},
    "Q32": lambda: f.detect_inverting_form(f.make_quaternion(32)),
    "Ext(C16)": lambda: f.detect_inverting_form(f.make_inverting_extension(f.make_cyclic(16), 8)),
}
MESSAGES = {
    "twist conjugation",
    "unitary conjugation",
    "twist commutation fails",
    "inverse-vs-star mismatch",
}


def _inputs(form):
    g = form.group
    v_a = enumerate_unitary(g, f.classical_involution(g), support=form.a_sub)
    return v_a, build_unipotent_factor(form).mask_set()


def _both(form, v_a, w_masks):
    """Both witnesses, asserted equal; the message kind, or None on a pass."""
    got = _conjugation_witness(form, v_a, w_masks)
    want = naive_conjugation_witness(form.group, form.b, form.transversal, v_a.masks, w_masks)
    assert got == want
    return None if got is None else got.split(" at ")[0]


@pytest.mark.parametrize("key", sorted(FORMS))
def test_witness_passes_with_the_oracle(key):
    form = FORMS[key]()
    assert _both(form, *_inputs(form)) is None


def test_witness_matches_the_oracle_on_each_failure():
    """Q16 with W missing a member, with a non-unitary member in v_a, and
    with another element as the twist: together these fail all four
    identities."""
    g = f.make_quaternion(16)
    form = f.detect_inverting_form(g)
    v_a, w_masks = _inputs(form)
    kinds = set()
    for m in sorted(w_masks - {1}):
        kinds.add(_both(form, v_a, w_masks - {m}))
    for text in ("1 + a + a2", "1 + a + b", "ab + a2b + a5b"):
        x = f.parse_element(g, text).mask
        assert x not in v_a
        kinds.add(_both(form, make_unit_set(g, (*v_a.masks, x)), w_masks))
    for b in range(g.order):
        if b != form.b:
            kinds.add(_both(dataclasses.replace(form, b=b), v_a, w_masks))
    assert kinds - {None} == MESSAGES
