"""The conjugation identities of the classical decomposition, checked on the
generators of V_*(F2A), against the pairwise oracle over every member: the
same verdict and message kind on every intact instance and on inputs mutated
to fail each identity, and the same witness string wherever the oracle's
failing x1 is a generator. The generators of A and L, which the pipeline
passes, give the verdict and message kind of the canonical generators.
The flag each x1 gets, whether it normalizes W, read off the same
conjugates, is that of ``normalizes``; construct mode decides
cofactor_semidirect on L's flags alone and calls ``normalizes`` nowhere."""

from __future__ import annotations

import pytest

import f2units as f
from f2units import decompositions, unitgroup
from f2units.decompositions import _conjugation_witness, _unipotent_basis, build_unipotent_factor
from f2units.unitgroup import (
    canonical_generators,
    enumerate_unitary,
    gens_of,
    make_unit_set,
    normalizes,
)
from instances import CLASSICAL_FORMS, quaternion_form
from oracles import naive_conjugation_witness, naive_render

# All but the extensions of C4xC4 and C8xC2, which only the pipeline test runs on.
KEYS = sorted(k for k in CLASSICAL_FORMS if k not in ("Ext(C4xC4)", "Ext(C8xC2)"))
MESSAGES = {
    "twist conjugation",
    "unitary conjugation",
    "twist commutation fails",
    "inverse-vs-star mismatch",
}


def _inputs(form):
    g = form.group
    v_a = enumerate_unitary(g, f.classical_involution(g), max_order=32, support=form.a_sub)
    return v_a, build_unipotent_factor(form).mask_set()


def _witness_x1(text: str) -> str | None:
    """The rendered x1 of a witness, or None for a twist conjugation."""
    if text.startswith("unitary conjugation"):
        return text.split(" by ", 1)[1].split(": got ", 1)[0]
    if text.startswith("twist conjugation"):
        return None
    return text.split(" at ", 1)[1]


def _both(form, v_a, w_masks):
    """The check against the oracle over every member of v_a: the same
    verdict and message kind, and the same string when the oracle's x1 is
    a generator. Against the oracle over the generators alone, always the
    same string. Returns the message kind, or None on a pass."""
    g = form.group
    gens = canonical_generators(v_a)
    got, _ = _conjugation_witness(form, gens, _unipotent_basis(form)[1], w_masks.__contains__)
    want = naive_conjugation_witness(g, form.b, form.transversal, v_a.masks, w_masks)
    on_gens = naive_conjugation_witness(g, form.b, form.transversal, gens, w_masks)
    assert got == on_gens
    assert (got is None) is (want is None)
    if got is None:
        return None
    kind = got.split(" at ")[0]
    assert kind == want.split(" at ")[0]
    x1 = _witness_x1(want)
    if x1 is None or x1 in {naive_render(g, m) for m in gens}:
        assert got == want
    return kind


@pytest.mark.parametrize("key", KEYS)
def test_witness_passes_with_the_oracle(key):
    form = CLASSICAL_FORMS[key]()
    assert _both(form, *_inputs(form)) is None


def test_witness_matches_the_oracle_on_each_failure():
    """Q16 with W missing a member, with a non-unitary member in v_a, and
    with another element as the twist: together these fail all four
    identities. On each of the 33 mutations the check and the oracle agree."""
    form = quaternion_form(16)
    g = form.group
    v_a, w_masks = _inputs(form)
    kinds = []
    for m in sorted(w_masks - {1}):
        kinds.append(_both(form, v_a, w_masks - {m}))
    for text in ("1 + a + a2", "1 + a + b", "ab + a2b + a5b"):
        x = f.parse_element(g, text).mask
        assert x not in v_a
        kinds.append(_both(form, make_unit_set(g, (*v_a.masks, x)), w_masks))
    for b in range(g.order):
        if b != form.b:
            twisted = f.InvertingExtensionForm(form.group, form.a_sub, b, form.transversal)
            kinds.append(_both(twisted, v_a, w_masks))
    assert len(kinds) == 33
    assert set(kinds) - {None} == MESSAGES


def test_a_missing_member_of_w_is_found_at_a_generator():
    """The oracle meets this missing member of W first at x1 = 1, which is
    no generator; the check, given a membership test that excludes it,
    meets it at a generator."""
    form = quaternion_form(16)
    g = form.group
    v_a, w_masks = _inputs(form)
    missing = f.parse_element(g, "1 + ab + a5b").mask
    want = naive_conjugation_witness(g, form.b, form.transversal, v_a.masks, w_masks - {missing})
    assert want == "unitary conjugation at a by 1: got 1 + ab + a5b"
    assert f.parse_element(g, "1 + a2 + a4").mask in canonical_generators(v_a)
    in_w = (w_masks - {missing}).__contains__
    got, _ = _conjugation_witness(form, canonical_generators(v_a), _unipotent_basis(form)[1], in_w)
    assert got == "unitary conjugation at a by 1 + a2 + a4: got 1 + ab + a5b"


def _pipeline_x1s(form, monkeypatch):
    """The x1 that the verification pipeline passes to the check."""
    seen = []
    check = decompositions._conjugation_witness

    def recording(form, x1s, ws, in_w):
        seen.append(x1s)
        return check(form, x1s, ws, in_w)

    monkeypatch.setattr(decompositions, "_conjugation_witness", recording)
    f.verify_inverting_decomposition(form, skip_enumeration=True)
    (x1s,) = seen
    return x1s


def _kind(witness):
    return None if witness is None else witness.split(" at ")[0]


def _same_kind(form, v_a, x1s, w_masks):
    """The message kind (None on a pass) over x1s, asserted equal to the one
    over the canonical generators of v_a."""
    in_w, ws = w_masks.__contains__, _unipotent_basis(form)[1]
    kind = _kind(_conjugation_witness(form, x1s, ws, in_w)[0])
    assert kind == _kind(_conjugation_witness(form, canonical_generators(v_a), ws, in_w)[0])
    return kind


@pytest.mark.parametrize("key", sorted(CLASSICAL_FORMS))
def test_generators_of_a_and_l_pass_with_the_scanned_generators(key, monkeypatch):
    """The pipeline's x1, the generators of A and L, generate V_*(F2A) and
    pass where its canonical generators pass."""
    form = CLASSICAL_FORMS[key]()
    g = form.group
    v_a, w_masks = _inputs(form)
    x1s = _pipeline_x1s(form, monkeypatch)
    a_image = f.group_image(g, form.a_sub)
    assert x1s == gens_of(a_image) + gens_of(f.find_complement(v_a, a_image))
    closure = f.unit_subgroup_closure(g, [f.AlgebraElement(g, m) for m in x1s])
    assert closure.mask_set() == v_a.mask_set()
    assert _same_kind(form, v_a, x1s, w_masks) is None


def test_generators_of_a_and_l_fail_with_the_scanned_generators(monkeypatch):
    """Q16 with W missing a member and with another element as the twist:
    on each of the 30 mutations the pipeline's x1, the generators of A and
    L, give the message kind of the canonical generators of V_*(F2A)."""
    form = quaternion_form(16)
    g = form.group
    v_a, w_masks = _inputs(form)
    x1s = _pipeline_x1s(form, monkeypatch)
    kinds = [_same_kind(form, v_a, x1s, w_masks - {m}) for m in sorted(w_masks - {1})]
    for b in range(g.order):
        if b != form.b:
            twisted = f.InvertingExtensionForm(g, form.a_sub, b, form.transversal)
            kinds.append(_same_kind(twisted, v_a, x1s, w_masks))
    assert len(kinds) == 30
    assert set(kinds) - {None} == MESSAGES - {"inverse-vs-star mismatch"}
    assert None in kinds


def test_decompositions_binds_no_plane_helper():
    """The bit-plane format stays inside unitgroup."""
    assert not [name for name in vars(decompositions) if "planes" in name]


# ---------------------------------------------------------------------------
# the normality flags: L normalizes W, read off the same conjugates


def _x1s_and_flags(form, w):
    """The pipeline's x1 (the generators of A's image and of L), a unit off
    A, and their flags with W's listed members as the membership test."""
    g = form.group
    v_a, _ = _inputs(form)
    a_image = f.group_image(g, form.a_sub)
    off_a = 1 | 1 << form.b | 1 << form.a_sub.generators[0]
    x1s = gens_of(a_image) + gens_of(f.find_complement(v_a, a_image)) + [off_a]
    _, flags = _conjugation_witness(form, x1s, w.generators, w.mask_set().__contains__)
    return x1s, flags


@pytest.mark.parametrize("key", KEYS)
def test_each_flag_is_the_normality_of_w_by_its_x1(key):
    """On W as built, each flag is normalizes(g, [x1], W): True for the
    units on A, which normalize W as W - 1 is an F2A-module."""
    form = CLASSICAL_FORMS[key]()
    w = build_unipotent_factor(form)
    x1s, flags = _x1s_and_flags(form, w)
    assert flags == [normalizes(form.group, [x1], w) for x1 in x1s]
    assert all(flags[:-1])


def test_each_flag_is_the_normality_of_a_replaced_w():
    """W replaced as in the semidirect tests of test_set_equality: by the
    image of <b>, which some x1 do not normalize and at which the witness
    search stops before any x1 conjugate is compared, and by <l>, l the
    first generator of Q32's complement, which every unit on A normalizes.
    The flags stay those of normalizes(g, [x1], W)."""
    form = CLASSICAL_FORMS["Q32"]()
    g = form.group
    v_a, _ = _inputs(form)
    ell = f.find_complement(v_a, f.group_image(g, form.a_sub))
    image_of_b = f.group_image(g, f.subgroup_closure(g, [form.b]))
    closure_of_l = f.unit_subgroup_closure(g, [f.AlgebraElement(g, ell.generators[0])])
    verdicts = []
    for w in (image_of_b, closure_of_l):
        x1s, flags = _x1s_and_flags(form, w)
        assert flags == [normalizes(g, [x1], w) for x1 in x1s]
        verdicts.append(all(flags[:-1]))
    assert verdicts == [False, True]


@pytest.mark.parametrize("key", KEYS)
def test_construct_mode_makes_no_normality_call(key, monkeypatch):
    """With normalizes raising, construct mode still passes: it decides
    cofactor_semidirect on W meet L and the flags of L's generators."""

    def refuse(*args):
        raise AssertionError("normalizes was called")

    monkeypatch.setattr(unitgroup, "normalizes", refuse)
    monkeypatch.setattr(decompositions, "normalizes", refuse)
    report = f.verify_inverting_decomposition(CLASSICAL_FORMS[key](), skip_enumeration=True)
    assert report.passed


def _semidirect_with_flags(form, monkeypatch, clear):
    """The cofactor_semidirect and conjugation_identities checks of a
    construct run whose flags read False at the x1 positions ``clear``
    picks out of (the number of A's generators, the number of x1)."""
    check = decompositions._conjugation_witness
    a_gens = gens_of(f.group_image(form.group, form.a_sub))

    def patched(form, x1s, ws, in_w):
        witness, flags = check(form, x1s, ws, in_w)
        off = clear(len(a_gens), len(x1s))
        return witness, [flag and i not in off for i, flag in enumerate(flags)]

    with monkeypatch.context() as patch:
        patch.setattr(decompositions, "_conjugation_witness", patched)
        report = f.verify_inverting_decomposition(form, skip_enumeration=True)
    checks = {c.name: c.passed for c in report.checks}
    return checks["cofactor_semidirect"], checks["conjugation_identities"]


@pytest.mark.parametrize("key", ["Q16", "Q32"])
def test_the_semidirect_verdict_reads_the_flags_of_l_only(key, monkeypatch):
    """False flags at every generator of A leave cofactor_semidirect
    passing; one False flag at a generator of L fails it. The conjugation
    identities pass throughout: they do not read the flags."""
    form = CLASSICAL_FORMS[key]()
    assert _semidirect_with_flags(form, monkeypatch, lambda na, n: range(na)) == (True, True)
    assert _semidirect_with_flags(form, monkeypatch, lambda na, n: {n - 1}) == (False, True)
