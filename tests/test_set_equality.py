"""The decompositions list no product set by multiplying members. The
cofactor H is the sumset of L and W - 1, and a product of two subgroups is
compared with the scanned unitary group by orders. Each is checked here
against a listing by ``oracles.naive_product``, on the intact factors and on
mutants that keep every factor a subgroup; a guard fails when a pipeline
lists a product again. Construct mode decides the facts about H from W and
L and never lists H: each verdict is checked against the listed H, on the
intact factors and on four mutants, and a guard makes the listing raise.
Nor is W multiplied out to show that its generators generate it: that
verdict, decided on one table of the generators' products, is checked
against their closure, and the elementary and cofactor_order verdicts read
off the same table and W's basis against those that listed W."""

from __future__ import annotations

import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import f2units as f
from f2units import algebra, cli, decompositions, unitgroup
from f2units.algebra import _eliminate, _involute, _span
from f2units.catalog import CLASSICAL_ENTRIES, ODOT_ENTRIES
from f2units.errors import HypothesisViolationError
from f2units.groups import _greedy_generators
from conftest import subalgebra_units
from instances import CLASSICAL_FORMS, catalog_form, count_calls, quaternion_form, relabelled_q32
from oracles import (
    naive_cofactor_premise,
    naive_commute,
    naive_generator_route,
    naive_mul,
    naive_product,
    naive_structure_predicates,
)
from pin_reports import RUNS, expected


@pytest.mark.parametrize("key", [*CLASSICAL_FORMS, "Q32 relabelled"])
def test_cofactor_masks_are_the_sorted_sumset(key):
    """The cofactor's canonical order, from the sumset listed with W - 1
    outer, equals the sorted set of l + s whatever the table's layout."""
    form = relabelled_q32() if key == "Q32 relabelled" else CLASSICAL_FORMS[key]()
    w = f.build_unipotent_factor(form)
    ell = f.build_abelian_complement(form)
    h = f.build_normal_cofactor(form, w, ell)
    assert h.masks == tuple(sorted({l ^ 1 ^ m for l in ell.masks for m in w.masks}))


def _closure(g, gens):
    return f.unit_subgroup_closure(g, [f.AlgebraElement(g, m) for m in gens])


@pytest.mark.parametrize("key", list(CLASSICAL_FORMS))
def test_cofactor_sumset_equals_listed_product(key):
    form = CLASSICAL_FORMS[key]()
    g = form.group
    w = f.build_unipotent_factor(form)
    ell = f.build_abelian_complement(form)
    h = f.build_normal_cofactor(form, w, ell)
    assert h.mask_set() == naive_product(g, w.masks, ell.masks)
    assert h.order == w.order * ell.order


# ---------------------------------------------------------------------------
# classical: G*H = V_* by orders, on the intact factors and on mutants


def _w_submodule(form, w):
    """1 + (W - 1)J, J the augmentation ideal of F2A: a proper subgroup of W
    whose W - 1 is still an F2A-module, so the cofactor may be built on it."""
    g = form.group
    pivots, _ = _eliminate(1 ^ m for m in w.masks)
    shifts = [[g.mul[i][a] for i in range(g.order)] for a in form.a_sub.generators]
    vectors = [x ^ _involute(p, x) for x, _ in pivots.values() for p in shifts]
    return f.make_unit_set(g, (1 ^ m for m in _span(vectors)))


def _classical_mutant(form, w, ell, mutant):
    """(W, L) with at most one of them changed."""
    g = form.group
    if mutant == "L cut":
        ell = _closure(g, ell.generators[:-1])
    elif mutant == "L grown":
        sigma = f.classical_involution(g)
        v_a = f.enumerate_unitary(g, sigma, support=form.a_sub).mask_set()
        units = subalgebra_units(form.a_sub)
        ell = _closure(g, [*ell.generators, next(m for m in units if m not in v_a)])
    elif mutant == "W cut":
        w = _w_submodule(form, w)
    return w, ell


# Every unit of F2C4 is unitary, so Q8 has no "L grown" mutant.
CLASSICAL_CASES = [
    (e.key, mutant)
    for e in CLASSICAL_ENTRIES
    for mutant in ("intact", "L cut", "L grown", "W cut")
    if (e.key, mutant) != ("Q8", "L grown")
]


@pytest.mark.parametrize("key, mutant", CLASSICAL_CASES)
def test_classical_set_equality_by_orders_matches_listing(key, mutant):
    """The oracle_set_equality verdict, _product_is(v, G, H), is
    that of listing G*(W*L) and comparing it with the scan."""
    form = CLASSICAL_FORMS[key]()
    g = form.group
    w, ell = _classical_mutant(
        form, f.build_unipotent_factor(form), f.build_abelian_complement(form), mutant
    )
    h = f.build_normal_cofactor(form, w, ell)
    listed_h = naive_product(g, w.masks, ell.masks)
    assert h.mask_set() == listed_h
    v = f.enumerate_unitary(g, f.classical_involution(g))
    img = f.group_image(g)
    listed = naive_product(g, img.masks, listed_h) == v.mask_set()
    assert unitgroup._product_is(v, img, h) is listed
    assert listed is (mutant == "intact")


# ---------------------------------------------------------------------------
# odot: (G*T)*W = V_* by orders and directness on two factors at a time,
# in the report, with T or W replaced by a subgroup


def _listed_direct(g, factors):
    """Factors commuting pairwise (on generators) and each meeting the
    product of those before it, listed, only in the identity."""
    for i, x in enumerate(factors):
        if not all(naive_commute(g, x.generators, y.generators) for y in factors[i + 1 :]):
            return False
    prefix = set(factors[0].masks)
    for i in range(1, len(factors)):
        if set(factors[i].masks) & prefix != {1}:
            return False
        if i + 1 < len(factors):
            prefix = naive_product(g, prefix, factors[i].masks)
    return True


# T is trivial at D8 and Q8, so it has no "T cut" mutant there. "T grown"
# adds the commutator e, a central group element: still a subgroup of F2C.
ODOT_CASES = [
    (e.key, mutant)
    for e in ODOT_ENTRIES
    for mutant in ("intact", "T cut", "T grown", "W cut")
    if (e.key, mutant) not in (("D8", "T cut"), ("Q8", "T cut"))
]


@pytest.mark.parametrize("key, mutant", ODOT_CASES)
def test_odot_verdicts_by_orders_match_listing(key, mutant, monkeypatch):
    """The report's direct_product and oracle_set_equality (scan in bounds)
    or factors_pairwise_direct (D8xC4, construct only) against a listing of
    (G*T)*W and of the running product."""
    form = catalog_form(key, "odot")
    g = form.group
    t = f.build_torsion_complement(form)
    w = f.build_central_unipotent(form)
    if mutant == "T cut":
        t = _closure(g, t.generators[:-1])
    elif mutant == "T grown":
        t = _closure(g, [*t.generators, 1 << form.e])
    elif mutant == "W cut":
        w = _closure(g, w.generators[:-1])
        basis = decompositions._central_unipotent_basis

        def cut(arg):
            vectors = basis(arg)
            return vectors[:-1] if (arg.a, arg.b) == (form.a, form.b) else vectors

        monkeypatch.setattr(decompositions, "_central_unipotent_basis", cut)
    if mutant.startswith("T"):
        monkeypatch.setattr(decompositions, "_complement_search", lambda ambient, factor: t)
    img = f.group_image(g)
    direct = _listed_direct(g, [img, t, w])
    report = f.verify_odot_decomposition(form)
    checks = {c.name: c.passed for c in report.checks}
    assert direct is (mutant != "T grown")
    if g.order > unitgroup.DEFAULT_EXHAUSTIVE_BOUND:
        assert checks["factors_pairwise_direct"] is direct
        return
    v = f.enumerate_unitary(g, f.odot_involution(form)).mask_set()
    listed = naive_product(g, naive_product(g, img.masks, t.masks), w.masks) == v
    assert checks["oracle_set_equality"] is listed
    assert checks["direct_product"] is (set(img.masks) <= v and direct and listed)
    if mutant.endswith("cut"):
        assert not listed


@pytest.mark.parametrize("key", ["D8xC2", "Q8xC2", "D8xC4"])
def test_odot_w_basis_touching_c_is_not_direct(key, monkeypatch):
    """With 1 + e added to the first basis vector of W - 1, W - 1 no longer
    lies off C, and the report fails factors_pairwise_direct (construct) and
    direct_product (oracle, at orders within the default bound). The support
    test is stricter than the listed intersection it replaced: this W still
    commutes with G and T and meets the listed G*T only in 1, so the listed
    criterion passes, but the argument that G*T meets W trivially rests on
    every basis vector lying off C."""
    form = catalog_form(key, "odot")
    g = form.group
    basis = decompositions._central_unipotent_basis

    def touching(arg):
        vectors = basis(arg)
        if (arg.a, arg.b) != (form.a, form.b):
            return vectors
        return [vectors[0] ^ 1 ^ 1 << form.e, *vectors[1:]]

    vectors = touching(form)
    w = f.make_unit_set(g, (1 ^ m for m in _span(vectors)), [1 ^ v for v in vectors])
    assert _listed_direct(g, [f.group_image(g), f.build_torsion_complement(form), w])
    monkeypatch.setattr(decompositions, "_central_unipotent_basis", touching)
    for skip in (False, True):
        report = f.verify_odot_decomposition(form, skip_enumeration=skip)
        checks = {c.name: c.passed for c in report.checks}
        oracle = g.order <= unitgroup.DEFAULT_EXHAUSTIVE_BOUND and not skip
        assert checks["direct_product" if oracle else "factors_pairwise_direct"] is False


# ---------------------------------------------------------------------------
# the premise of the sumset


def _q8_parts():
    form = catalog_form("Q8", "classical")
    return form, f.build_unipotent_factor(form), f.build_abelian_complement(form)


def _translates(form, side):
    """1 + (1+b) F2A (``side`` right) or 1 + F2A (1+b) (left): subspaces
    closed under translation by A on that side only, as b inverts A."""
    g, b = form.group, form.b
    if side == "right":
        vectors = [1 << a | 1 << g.mul[b][a] for a in form.a_sub.members]
    else:
        vectors = [1 << a | 1 << g.mul[a][b] for a in form.a_sub.members]
    return f.make_unit_set(g, (1 ^ m for m in _span(vectors)))


@pytest.mark.parametrize(
    "case, message",
    [
        pytest.param(case, message, id=case)
        for case, message in [
            ("W not a subspace", "W - 1 is not a subspace"),
            ("W closed on the right only", "W - 1 is not a subspace closed"),
            ("W closed on the left only", "W - 1 is not a subspace closed"),
            ("L off A", "not supported on A"),
        ]
    ],
)
def test_cofactor_rejects_a_broken_premise(case, message):
    form, w, ell = _q8_parts()
    g = form.group
    if case == "W not a subspace":
        w = f.make_unit_set(g, w.masks[:-1])
    elif case == "W closed on the right only":
        w = _translates(form, "right")
    elif case == "W closed on the left only":
        w = _translates(form, "left")
    else:
        ell = f.make_unit_set(g, [1, 1 << form.b])
    with pytest.raises(HypothesisViolationError, match=message):
        f.build_normal_cofactor(form, w, ell)


def _bare_units(g, module):
    """The unit set 1 + module, for a set of vectors that holds 0."""
    return f.make_unit_set(g, (1 ^ m for m in module))


def _premise_cases():
    """The Q8 form, and (W, L) per case: the intact factors, the broken
    premises above, and sets that a check on fewer members could mistake
    for a subspace."""
    form, w, ell = _q8_parts()
    g = form.group
    module = sorted(1 ^ m for m in w.masks)
    # The mask of every element lies above each member of W - 1, which
    # lies on the coset A b, and is not one of them.
    everything = (1 << g.order) - 1
    augmentation_ideal = _span(1 | 1 << a for a in form.a_sub.members if a)
    return form, {
        "W and L": (w, ell),
        "W not a subspace": (f.make_unit_set(g, w.masks[:-1]), ell),
        "W closed on the right only": (_translates(form, "right"), ell),
        "W closed on the left only": (_translates(form, "left"), ell),
        "L off A": (w, f.make_unit_set(g, [1, 1 << form.b])),
        "|W| not a power of 2": (_bare_units(g, module + [everything]), ell),
        "independent at the powers of 2, not a subspace": (
            _bare_units(g, module[:-1] + [everything]),
            ell,
        ),
        "W - 1 carrying bit 0, closed": (_bare_units(g, augmentation_ideal), ell),
        "W - 1 carrying bit 0, not closed": (_bare_units(g, _span([module[1] | 1])), ell),
    }


def _premise_outcome(check, *args):
    try:
        return check(*args)
    except HypothesisViolationError as exc:
        return str(exc)


def _premise(form, w, ell):
    """The two halves of the cofactor premise, as ``build_normal_cofactor``
    decides them on the W it is handed: the mask of A when both hold."""
    decompositions._require_w_module(form, (1 ^ m for m in w.masks), w.order)
    return decompositions._require_on_a(form, ell)


def _same_premise(form, w, ell):
    got = _premise_outcome(_premise, form, w, ell)
    assert got == _premise_outcome(naive_cofactor_premise, form, w.masks, ell.masks)
    return got


@pytest.mark.parametrize("case", list(_premise_cases()[1]))
def test_premise_on_a_spanning_set_matches_the_member_elimination(case):
    """The premise decided on W - 1 as a spanning set and |W| raises exactly
    when the oracle's elimination of every member does, with the same
    message, and returns the mask of A otherwise."""
    form, cases = _premise_cases()
    got = _same_premise(form, *cases[case])
    assert isinstance(got, int) == (case in ("W and L", "W - 1 carrying bit 0, closed"))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["Q8", "Q16"]), st.data())
def test_premise_matches_the_member_elimination_on_random_sets(key, data):
    """Spans of a few random vectors, some with one member dropped or one
    added, as W - 1 of the Q8 or Q16 form with its own L."""
    form = CLASSICAL_FORMS[key]()
    g = form.group
    vector = st.integers(0, (1 << g.order) - 1)
    module = set(_span(data.draw(st.lists(vector, max_size=4))))
    change = data.draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop" and len(module) > 1:
        module.discard(data.draw(st.sampled_from(sorted(module - {0}))))
    elif change == "add":
        module.add(data.draw(vector))
    ell = f.build_abelian_complement(form)
    _same_premise(form, _bare_units(g, module), ell)


@pytest.mark.parametrize("skip", [False, True], ids=["verify", "construct"])
def test_classical_pipeline_decides_the_cofactor_premise_once(q16_form, skip):
    """Each half of the premise is decided once: the module check on W's
    basis right after it is computed, L on A at the cofactor step, and the
    oracle lists H by the sumset alone. ``build_normal_cofactor`` keeps both
    halves for direct callers."""
    with count_calls(decompositions._require_w_module, decompositions._require_on_a) as calls:
        assert f.verify_inverting_decomposition(q16_form, skip_enumeration=skip).passed
        assert calls == {"_require_w_module": 1, "_require_on_a": 1}
        w, ell = f.build_unipotent_factor(q16_form), f.build_abelian_complement(q16_form)
        f.build_normal_cofactor(q16_form, w, ell)
    assert calls == {"_require_w_module": 2, "_require_on_a": 2}


def test_classical_construct_spans_no_w_and_computes_no_structure_predicates(monkeypatch):
    """A Q32 construct run spans no W - 1 and passes: the module check and
    every membership test run on W's basis, the product table decides the
    elementary check, and the package has no structure predicates left to
    compute."""
    spans = []

    def counted(vectors):
        spans.append(1)
        return algebra._span(vectors)

    monkeypatch.setattr(decompositions, "_span", counted)
    assert f.verify_inverting_decomposition(CLASSICAL_FORMS["Q32"](), skip_enumeration=True).passed
    assert spans == []


# ---------------------------------------------------------------------------
# the generator route of W, decided on its generators


def _route_mutants(form, gens):
    """W's generators as built, then with the last one replaced: by b*b,
    outside W and odd, whose vector 1 + b*b still multiplies the others to
    0; by b, whose vector squares to 1 + b*b (only below order 32, where
    the closure of b and W stays small); and by the product of the first
    two, which loses rank (not at Q8, whose W has two generators)."""
    g, keep = form.group, list(gens[:-1])
    yield "as built", list(gens)
    yield "b*b", keep + [1 << form.b_squared]
    if g.order <= 16:
        yield "b", keep + [1 << form.b]
    if len(gens) > 2:
        yield "rank lost", keep + [naive_mul(g, gens[0], gens[1])]


def _w_basis(w):
    """W's basis of W - 1 and its recorded generators, as the pipeline's
    ``_unipotent_basis`` gives them."""
    pivots, _ = _eliminate(1 ^ m for m in w.masks)
    return [col for col, _ in pivots.values()], list(w.generators)


def _w_facts(form, w):
    """The route, elementary and cofactor_order verdicts as the pipeline
    decides them: on the pivots that the module check keeps, here of W's
    members, and on one table of the generators' products."""
    pivots = decompositions._require_w_module(form, (1 ^ m for m in w.masks), w.order)
    generated, elementary = decompositions._generator_facts(form.group, w.generators, pivots)
    on_a = sum(1 << i for i in form.a_sub.members)
    rank = form.a_sub.order // 2
    basis = [col for col, _ in pivots.values()]
    return generated, elementary and len(pivots) == rank, not any(x & on_a for x in basis)


def _listed_w_facts(form, w, route):
    """The same verdicts as decided before the table: ``route`` on the
    generators, structure predicates on them, and a walk over W's members."""
    preds = naive_structure_predicates(w)
    on_a = sum(1 << i for i in form.a_sub.members)
    return (
        route(form.group, w.generators, w.masks),
        preds["is_elementary_abelian_2"] and preds["rank"] == form.a_sub.order // 2,
        not any((1 ^ m) & on_a for m in w.masks),
    )


def _route_verdicts(form, reference):
    """Each mutant's route verdict on its generators, asserted equal to the
    reference's verdict on the closure of the same generators, with its
    elementary and cofactor_order verdicts equal to those listed."""
    g = form.group
    w = f.build_unipotent_factor(form)
    verdicts = {}
    for name, gens in _route_mutants(form, w.generators):
        mutant = f.make_unit_set(g, w.masks, gens)
        facts = _w_facts(form, mutant)
        assert facts == _listed_w_facts(form, mutant, reference), name
        verdicts[name] = facts[0]
    return verdicts


@pytest.mark.parametrize("key", list(CLASSICAL_FORMS))
def test_generator_route_on_generators_matches_the_closure(key):
    """W's generator route decided on the generators (vanishing pairwise
    products of their vectors, their rank) gives the verdict of the closure
    of the generators on every built W and on its mutants, and the
    elementary and cofactor_order checks read off the same table and basis
    give the verdicts of structure predicates and a walk over W."""
    verdicts = _route_verdicts(CLASSICAL_FORMS[key](), naive_generator_route)
    assert verdicts.pop("as built") and not any(verdicts.values())


def test_generator_route_on_generators_matches_the_listing_at_q64():
    """Q64's W has 2^16 members, too many for the naive closure, so the
    reference lists the group the generators generate coset by coset, with
    ``_greedy_generators``."""

    def listing(g, gens, masks):
        return _greedy_generators(partial(algebra._mul, g), 1, gens)[1] == set(masks)

    verdicts = _route_verdicts(quaternion_form(64), listing)
    assert verdicts == {"as built": True, "b*b": False, "rank lost": False}


@pytest.mark.parametrize("key", ["Q8", "Q16"])
def test_the_report_reads_the_w_facts_on_mutants(key, monkeypatch):
    """With a mutant W built, the report's route, elementary and
    cofactor_order checks are the verdicts listed for it."""
    form = CLASSICAL_FORMS[key]()
    w = f.build_unipotent_factor(form)
    for name, gens in _route_mutants(form, w.generators):
        mutant = f.make_unit_set(form.group, w.masks, gens)
        checks = _construct_checks(form, monkeypatch, w=mutant)
        names = ("unipotent_generator_route_agrees", "unipotent_elementary_abelian")
        got = (*(checks[n].passed for n in names), checks["cofactor_order"].passed)
        assert got == _listed_w_facts(form, mutant, naive_generator_route), name


def test_generator_route_on_one_plus_j(q8, q8_form):
    """1 + J, J the augmentation ideal, is the group its canonical
    generators generate, but J^2 is not 0: the closure passes it and the
    check on generators does not. The two differ only where such products
    do not vanish, as on no built W. With Q8's elements as generators, their
    vectors 1 + g span J, so the span alone would pass; they generate only
    Q8, and the products fail them. J is a two-sided ideal, so it passes the
    module check; 1 + J is not abelian and J does not lie on A b, so the
    elementary and cofactor_order checks fail, as when they were listed."""
    v = f.enumerate_normalized_units(q8)
    gens = f.canonical_generators(v)
    assert naive_generator_route(q8, gens, v.masks)
    one_plus_j = f.make_unit_set(q8, v.masks, gens)
    assert _w_facts(q8_form, one_plus_j) == (False, False, False)
    assert _listed_w_facts(q8_form, one_plus_j, naive_generator_route)[1:] == (False, False)
    elements = [1 << i for i in range(1, 8)]
    assert {1 ^ m for m in _span([1 ^ m for m in elements])} == v.mask_set()
    assert not naive_generator_route(q8, elements, v.masks)
    assert not _w_facts(q8_form, f.make_unit_set(q8, v.masks, elements))[0]


# ---------------------------------------------------------------------------
# no pipeline lists a product


def test_no_pipeline_lists_a_product(capsys):
    assert not hasattr(unitgroup, "product_masks")
    assert not hasattr(decompositions, "product_masks")
    assert not hasattr(unitgroup, "_planes_to_masks")
    catalog = cli.RunConfig(group=None, involution=None, mode="catalog", fmt="json")
    assert cli.run(catalog) == 1  # the dihedral odot instances fail by design
    capsys.readouterr()
    assert f.verify_inverting_decomposition(CLASSICAL_FORMS["Q16"]()).passed


# ---------------------------------------------------------------------------
# classical: construct mode decides H = W*L from W and L and never lists it

COFACTOR_FACTS = (
    "cofactor_order",
    "cofactor_semidirect",
    "group_meets_cofactor_trivially",
    "cofactor_members_unitary",
)


def _listed_verdicts(form, w, ell):
    """The four cofactor facts decided on H as build_normal_cofactor lists it."""
    g = form.group
    h = f.build_normal_cofactor(form, w, ell)
    return {
        "cofactor_order": h.order == w.order * ell.order,
        "cofactor_semidirect": unitgroup.internal_semidirect(h, w, ell),
        "group_meets_cofactor_trivially": f.group_image(g).mask_set() & h.mask_set() == {1},
        "cofactor_members_unitary": not unitgroup._failing_members(g, h.masks, g.inv)[0],
    }


def _construct_checks(form, monkeypatch, w=None, ell=None, v_a=None):
    """The construct-mode checks with W (its basis and generators), L or the
    scan of A's subalgebra (the only scan construct mode runs) replaced."""
    if w is not None:
        monkeypatch.setattr(decompositions, "_unipotent_basis", lambda form: _w_basis(w))
    if ell is not None:
        monkeypatch.setattr(decompositions, "_complement_search", lambda ambient, factor: ell)
    if v_a is not None:
        monkeypatch.setattr(decompositions, "enumerate_unitary", lambda *args, **kwargs: v_a)
    report = f.verify_inverting_decomposition(form, skip_enumeration=True)
    return {c.name: c for c in report.checks}


@pytest.mark.parametrize("key", [*(e.key for e in CLASSICAL_ENTRIES), "Q32", "Ext(C16)"])
def test_cofactor_facts_from_w_and_l_equal_the_listed_verdicts(key, monkeypatch):
    form = CLASSICAL_FORMS[key]()
    w, ell = f.build_unipotent_factor(form), f.build_abelian_complement(form)
    checks = _construct_checks(form, monkeypatch)
    assert {name: checks[name].passed for name in COFACTOR_FACTS} == _listed_verdicts(form, w, ell)
    assert all(checks[name].passed for name in COFACTOR_FACTS)


def test_a_non_unitary_generator_of_l_is_the_witness(monkeypatch):
    """L and the scan of A's subalgebra grown by a unit x on A that is not
    unitary: cofactor_members_unitary, run on H's generators, names x, and
    all four verdicts equal those on the listed H."""
    form = CLASSICAL_FORMS["Q16"]()
    g = form.group
    w, ell = f.build_unipotent_factor(form), f.build_abelian_complement(form)
    v_a = f.enumerate_unitary(g, f.classical_involution(g), support=form.a_sub)
    x = next(m for m in subalgebra_units(form.a_sub) if m not in v_a)
    grown = _closure(g, [*ell.generators, x])
    checks = _construct_checks(
        form, monkeypatch, ell=grown, v_a=_closure(g, [*unitgroup.gens_of(v_a), x])
    )
    assert not checks["cofactor_members_unitary"].passed
    assert checks["cofactor_members_unitary"].witness == decompositions._render(g, x)
    verdicts = {name: checks[name].passed for name in COFACTOR_FACTS}
    assert verdicts == _listed_verdicts(form, w, grown)


def test_an_l_holding_a_basis_element_of_a_meets_the_group(monkeypatch):
    """L grown by a basis element of A meets the group image outside {1}, and
    all four verdicts equal those on the listed H."""
    form = CLASSICAL_FORMS["Q16"]()
    g = form.group
    w, ell = f.build_unipotent_factor(form), f.build_abelian_complement(form)
    grown = _closure(g, [*ell.generators, 1 << form.a_sub.generators[0]])
    checks = _construct_checks(form, monkeypatch, ell=grown)
    assert not checks["group_meets_cofactor_trivially"].passed
    verdicts = {name: checks[name].passed for name in COFACTOR_FACTS}
    assert verdicts == _listed_verdicts(form, w, grown)


def _skip_module_check(monkeypatch, w):
    """Make the module check return the pivots of W - 1, whatever W is."""
    pivots, _ = _eliminate(1 ^ m for m in w.masks)
    monkeypatch.setattr(decompositions, "_require_w_module", lambda *args: pivots)


def test_an_l_generator_that_does_not_normalize_w_fails_the_semidirect_check(monkeypatch):
    """The premise makes W - 1 an F2A-module, so every unit on A normalizes
    W; only past it can an L generator fail to. W is replaced by the image
    of <b>, which two of Q32's complement generators do not normalize, and
    the module check, which the pipeline makes right after W's basis is
    computed, is skipped: it returns the pivots of W - 1, so membership is
    by their span. They do not lie on the coset A b, so cofactor_order
    fails too; both verdicts equal those on the listed sumset (the other
    two are exact only on that coset)."""
    form = CLASSICAL_FORMS["Q32"]()
    g = form.group
    ell = f.build_abelian_complement(form)
    w = f.group_image(g, f.subgroup_closure(g, [form.b]))
    assert not unitgroup.normalizes(g, ell.generators, w)
    _skip_module_check(monkeypatch, w)
    checks = _construct_checks(form, monkeypatch, w=w)
    listed = _listed_verdicts(form, w, ell)
    for name in ("cofactor_order", "cofactor_semidirect"):
        assert not checks[name].passed
        assert not listed[name]


def test_a_w_that_meets_l_fails_the_semidirect_check(monkeypatch):
    """Past the premise W can meet L too. W is replaced by the group that
    the first generator l of Q32's complement generates, and the module
    check is skipped as above: l lies in W and in L, and as L is abelian it
    normalizes W, so cofactor_semidirect fails on the intersection alone.
    It and cofactor_order equal the verdicts on the listed sumset."""
    form = CLASSICAL_FORMS["Q32"]()
    g = form.group
    ell = f.build_abelian_complement(form)
    w = _closure(g, ell.generators[:1])
    assert unitgroup.normalizes(g, ell.generators, w)
    _skip_module_check(monkeypatch, w)
    checks = _construct_checks(form, monkeypatch, w=w)
    listed = _listed_verdicts(form, w, ell)
    for name in ("cofactor_order", "cofactor_semidirect"):
        assert not checks[name].passed
        assert not listed[name]


def test_construct_mode_never_lists_the_cofactor(monkeypatch, capsys):
    """With the sumset that lists H raising, construct mode and a run past
    the exhaustive bound still finish with their golden reports. The oracle
    lists H by ``_cofactor_sumset`` alone, so that is the one to refuse."""

    def refuse(*args):
        raise AssertionError("the cofactor H was listed")

    monkeypatch.setattr(decompositions, "_cofactor_sumset", refuse)
    for name in ("Q32-construct.json", "ExtC16-construct.json"):
        assert cli.main(RUNS[name].args) == 0
        assert capsys.readouterr().out == expected(name)
    assert RUNS["Q16-verify-max8.json"]() == expected("Q16-verify-max8.json")


@pytest.mark.parametrize(
    "name", ["D8xC8-odot-construct32.json", "Q8xC8-odot-construct32.json"], ids=["D8xC8", "Q8xC8"]
)
def test_odot_construct_lists_neither_w_nor_gt(name, monkeypatch):
    """Construct mode decides W on its basis and the direct product on
    generators and supports, so with the W listing raising D8xC8 and Q8xC8
    finish with their golden reports in under a second each, the group and
    its form built (29 to 36 s and 1.9 GB on a 2-core host while W and G*T
    were listed)."""

    def refuse(*args):
        raise AssertionError("W was listed")

    monkeypatch.setattr(decompositions, "build_central_unipotent", refuse)
    start = time.perf_counter()
    text = RUNS[name]()
    assert time.perf_counter() - start < 1
    assert text == expected(name)
