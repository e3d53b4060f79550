"""The complement search against the depth-first search that lists every
candidate's span and against the search that grew S*F by translates, the
pipelines' direct calls of the search against ``find_complement``, and the
multiplication count of the search."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import f2units as f
from f2units import algebra, decompositions, unitgroup
from f2units.catalog import CLASSICAL_ENTRIES, ODOT_ENTRIES
from f2units.cli import main
from f2units.errors import NoComplementError, NotAbelianError
from f2units.groups import coset_representatives
from oracles import naive_complement_search, naive_find_complement


def _classical_parts(form):
    """V_*(F2A) and the image of A: the ambient and factor of L."""
    g = form.group
    v_a = f.enumerate_unitary(g, f.classical_involution(g), support=form.a_sub)
    return v_a, f.group_image(g, form.a_sub)


def _extension_form(base, square_label):
    g = f.make_inverting_extension(base, base.labels.index(square_label))
    return f.detect_inverting_form(g)


def _c4_parts():
    c4 = f.make_cyclic(4)
    return f.group_image(c4), f.group_image(c4, f.subgroup_closure(c4, [2]))


CLASSICAL_FORMS = {
    **{e.key: e.form for e in CLASSICAL_ENTRIES},
    "Q32": lambda: f.detect_inverting_form(f.make_quaternion(32)),
    "Ext(C16)": lambda: _extension_form(f.make_cyclic(16), "a8"),
    "Ext(C4xC4)": lambda: _extension_form(
        f.make_direct_product(f.make_cyclic(4), f.make_cyclic(4)), "(1,a2)"
    ),
    "Ext(C8xC2)": lambda: _extension_form(
        f.make_direct_product(f.make_cyclic(8), f.make_cyclic(2)), "(a4,1)"
    ),
}
ODOT_FORMS = {e.key: e.form for e in ODOT_ENTRIES}
# Order-64 odot forms whose order-2 central units (4,096 of them) the search
# runs in; too large for the search that lists every candidate's span.
LARGE_ODOT_FORMS = {
    key: lambda base=base: f.make_odot_form(f.make_direct_product(base(), f.make_cyclic(8)))
    for key, base in (("D8xC8", lambda: f.make_dihedral(8)), ("Q8xC8", lambda: f.make_quaternion(8)))
}

COMPLEMENT_CASES = {
    **{f"L {key}": (lambda b=b: _classical_parts(b())) for key, b in CLASSICAL_FORMS.items()},
    **{
        f"T {key}": (lambda b=b: decompositions._central_order_2_parts(b()))
        for key, b in ODOT_FORMS.items()
    },
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


def _q32_over_its_complement():
    """V_*(F2A) of Q32 over L, whose members are not group elements: each
    product of the search takes one shift per term of a member of L."""
    ambient, a_image = _classical_parts(CLASSICAL_FORMS["Q32"]())
    return ambient, f.find_complement(ambient, a_image)


TRANSLATE_CASES = {
    **COMPLEMENT_CASES,
    **{
        f"T {key}": (lambda b=b: decompositions._central_order_2_parts(b()))
        for key, b in LARGE_ODOT_FORMS.items()
    },
    "L Q32 over its complement": _q32_over_its_complement,
}


@pytest.mark.parametrize("case", list(TRANSLATE_CASES))
def test_search_matches_the_translate_search(case):
    """S*F grown from the new span members, one batch product each, is the
    union of the translates S*F*c^i: the same candidates are accepted in the
    same order, and the same complement is found."""
    ambient, factor = TRANSLATE_CASES[case]()
    assert all(m.bit_count() > 1 for m in factor.masks[1:]) == ("over its complement" in case)
    try:
        comp = f.find_complement(ambient, factor)
    except NoComplementError:
        with pytest.raises(NoComplementError):
            naive_complement_search(ambient.group, ambient.masks, factor.masks)
        assert case == "C4 over {1, a2}"
        return
    want = naive_complement_search(ambient.group, ambient.masks, factor.masks)
    assert (list(comp.generators), list(comp.masks)) == want


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


def _record(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of its (args,
    result) pairs, appended call by call."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append((args, original(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, recording)
    return calls


# Per case: the pipeline, its form, the (ambient, factor) that
# find_complement would be given, and the public builder of the complement.
PIPELINE_CASES = {
    **{
        f"L {key}": (
            f.verify_inverting_decomposition, b, _classical_parts, f.build_abelian_complement
        )
        for key, b in CLASSICAL_FORMS.items()
    },
    **{
        f"T {key}": (
            f.verify_odot_decomposition,
            b,
            decompositions._central_order_2_parts,
            f.build_torsion_complement,
        )
        for key, b in ODOT_FORMS.items()
    },
}


@pytest.mark.parametrize("case", list(PIPELINE_CASES))
def test_pipeline_complement_equals_find_complement(case, monkeypatch):
    """The pipelines and builders decide commutativity on A or C and call
    the search directly. They search once, on the ambient set and factor
    that find_complement would be given, and find its complement: the same
    generators and masks."""
    verify, build, parts, builder = PIPELINE_CASES[case]
    form = build()
    ambient, factor = parts(form)
    want = f.find_complement(ambient, factor)
    searches = _record(monkeypatch, decompositions, "_complement_search")
    verify(form, skip_enumeration=True)
    (((got_ambient, got_factor), got),) = searches
    assert (got_ambient.masks, got_factor.masks) == (ambient.masks, factor.masks)
    assert (got.generators, got.masks) == (want.generators, want.masks)
    built = builder(form)
    assert (built.generators, built.masks) == (want.generators, want.masks)


RUNS = {
    "Q32 construct": [
        "--family", "quaternion", "--order", "32", "--involution", "classical",
        "--mode", "construct", "--format", "json",
    ],
    "catalog": ["--mode", "catalog", "--format", "json"],
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_pipelines_list_no_generators_of_a_scanned_set(run, monkeypatch, capsys):
    """No run computes canonical generators of any set: not of a scanned
    unitary group or of the listed order-2 part of V(F2C), as the pipelines
    decide commutativity on the table subgroup and take x1 from the
    generators of A and L, and not of the image of C's involutions, which
    records the table-greedy generators of its subgroup."""
    listed = [_record(monkeypatch, m, "canonical_generators") for m in (unitgroup, decompositions)]
    scans = _record(monkeypatch, decompositions, "enumerate_unitary")
    parts = _record(monkeypatch, decompositions, "_central_order_2_parts")
    main(RUNS[run])
    capsys.readouterr()
    assert scans or parts
    assert listed == [[], []]


def test_non_abelian_subgroup_raises_the_search_error():
    """A hand-built form on D8 inside D8xC2: F2[D8] is not commutative, and
    the pipeline and the builder raise find_complement's NotAbelianError
    (V_*(F2[D8]) holds D8) from the check on the subgroup."""
    g = f.make_direct_product(f.make_dihedral(8), f.make_cyclic(2))
    label = g.labels.index
    d8 = f.subgroup_closure(g, [label("(r,1)"), label("(s,1)")])
    b = label("(r,a)")
    transversal = tuple(coset_representatives(g, (0, g.mul[b][b]), d8.members))
    form = f.InvertingExtensionForm(g, d8, b, transversal)
    message = "complement search requires an abelian ambient group"
    for skip in (False, True):
        with pytest.raises(NotAbelianError, match=f"^{message}$"):
            f.verify_inverting_decomposition(form, skip_enumeration=skip)
    with pytest.raises(NotAbelianError, match=f"^{message}$"):
        f.build_abelian_complement(form)
    with pytest.raises(NotAbelianError, match=f"^{message}$"):
        f.find_complement(*_classical_parts(form))


def test_q32_construct_multiplication_count(monkeypatch, capsys):
    """One Q32 construct run makes 339 mask products and 31 batch products,
    one per member of L but the identity, as the search grows S*F; 411 mask
    products while cofactor_semidirect conjugated W's generators by L's with
    normalizes, not reading the conjugates the identities form; 475 while
    the elementary check on W took another 64 products of
    its 8 generators, where it now reads the one table of their vectors'
    64 pairwise products that the generator route takes; 702 while the
    generator route of W multiplied W out, one coset step per member, and
    1,198 while the search listed the translates
    S*F*c^i one product at a time. The search that listed every candidate's
    span made 11,329, 1,875 remained while the unipotent generators were
    multiplied out, and 1,811 while the abelian test and the conjugation
    identities read generators listed from the whole of V_*(F2A)."""
    calls = {"_mul": 0, "_products": 0}

    def counting(name):
        original = getattr(algebra, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in calls:
        counted = counting(name)
        for module in (algebra, unitgroup, decompositions):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    args = ["--family", "quaternion", "--order", "32", "--involution", "classical"]
    assert main([*args, "--mode", "construct", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls["_mul"] <= 339
    assert calls["_products"] <= 31
