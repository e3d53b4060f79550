"""Structural decompositions of the unitary groups and their certificates."""

from __future__ import annotations

import json
import random

import pytest

import f2units as f
from f2units import decompositions
from f2units.algebra import _coset_parts
from f2units.catalog import CLASSICAL_ENTRIES, ODOT_ENTRIES
from f2units.errors import GroupMismatchError, NotUnitaryError
from f2units.unitgroup import _fixed_point_pcgs, make_unit_set
from conftest import ORDER32, order32_scan
from oracles import naive_product, naive_solve


def test_check_results_compare_by_value():
    assert f.CheckResult("n", True) == f.CheckResult("n", True)
    assert f.CheckResult("n", True) != f.CheckResult("n", False)
    assert f.CheckResult("n", True).witness is None


def checks_by_name(report):
    return {c.name: c for c in report.checks}


def split(g, mask, sub, reps):
    """The parts of a mask over the right cosets sub*r, as elements."""
    return [f.AlgebraElement(g, part) for part in _coset_parts(g, mask, sub, reps)]


def assert_skipped_on_request(report):
    """Under the bound a skipped oracle is reported as skipped on request."""
    assert any("skipped on request (construct mode)" in n for n in report.notes)
    assert not any("exceeds the exhaustive bound" in n for n in report.notes)


# ---------------------------------------------------------------------------
# classical-involution pipeline


def test_unipotent_factor_q8(q8, q8_form):
    w = f.build_unipotent_factor(q8_form)
    assert w.order == 4  # 2^(|A|/2)
    sigma = f.classical_involution(q8)
    for x in w.elements():
        assert f.ga_mul(x, x).is_one()
        assert f.ga_mul(x, f.ga_involute(sigma, x)).is_one()


def test_abelian_complement_q8(q8, q8_form):
    ell = f.build_abelian_complement(q8_form)
    assert ell.order == 2
    a_img = f.group_image(q8, q8_form.a_sub)
    v_a = f.enumerate_unitary(q8, f.classical_involution(q8), support=q8_form.a_sub)
    assert naive_product(q8, a_img.masks, ell.masks) == v_a.mask_set()
    assert a_img.mask_set() & ell.mask_set() == {1}


def test_abelian_complement_pinned_ext_c4xc4(monkeypatch):
    """The complement search's result and its coset steps at Ext(C4xC4), an
    order-32 extension outside the catalog and the benchmark references. The
    7 steps list the spans of the accepted candidates, one per generator; the
    search rejects every other candidate from its powers without a step, and
    the abelian check reads A's generators, so it lists nothing (9 more
    steps while it found the generators of V(F2A))."""
    from f2units import groups, unitgroup

    c4 = f.make_cyclic(4)
    g = f.make_inverting_extension(f.make_direct_product(c4, c4), 2)
    form = f.detect_inverting_form(g)
    steps = []
    extend = groups._extend
    for module in (groups, unitgroup):
        monkeypatch.setattr(module, "_extend", lambda *args: steps.append(1) or extend(*args))
    ell = f.build_abelian_complement(form)
    assert [decompositions._render(g, m) for m in ell.generators] == [
        "1 + (1,a) + (1,a3)",
        "1 + (1,a2) + (a2,1)",
        "(1,a) + (1,a3) + (a2,1)",
        "1 + (a,1) + (a3,1)",
        "(1,a2) + (a,1) + (a3,1)",
        "1 + (1,a) + (1,a3) + (a,1) + (a3,1)",
        "1 + (a,a3) + (a3,a)",
    ]
    assert ell.order == 128
    assert len(steps) == 7


def test_conjugation_closure_q8_q16(q8_form, q16_form):
    assert f.check_conjugation_closure(q8_form)
    assert f.check_conjugation_closure(q16_form)


def test_split_form_accepts_every_unitary_element(q8, q8_form):
    v = f.enumerate_unitary(q8, f.classical_involution(q8))
    for x in v.elements():
        assert f.check_unitary_split_form(q8_form, x)


def test_split_form_rejects_non_unitary_normalized(q8, q8_form):
    v = f.enumerate_unitary(q8, f.classical_involution(q8)).mask_set()
    rejected = 0
    for m in range(1 << q8.order):
        if bin(m).count("1") % 2 == 1 and m not in v:
            if not f.check_unitary_split_form(q8_form, f.AlgebraElement(q8, m)):
                rejected += 1
    assert rejected == 64  # everything normalized outside the unitary set


def test_split_form_requires_a_unit(q8, q8_form):
    with pytest.raises(NotUnitaryError):
        f.check_unitary_split_form(q8_form, f.zero(q8))
    with pytest.raises(NotUnitaryError):
        f.check_unitary_split_form(q8_form, f.one(q8) + f.basis(q8, 1))


@pytest.mark.parametrize("make", [f.zero, f.one], ids=["zero", "one"])
def test_split_form_checks_the_group_first(q8_form, d8, make):
    """An element of another group fails on its group, whatever its augmentation."""
    with pytest.raises(GroupMismatchError):
        f.check_unitary_split_form(q8_form, make(d8))


def _lemma_sample(g, unitary, seed):
    """About 100 unitary members and 100 odd masks, by a seeded sample."""
    rng = random.Random(seed)
    masks = [rng.getrandbits(g.order) for _ in range(100)]
    odd = [m if m.bit_count() & 1 else m ^ 1 for m in masks]
    return rng.sample(sorted(unitary), min(100, len(unitary))) + odd


@pytest.mark.parametrize("entry", CLASSICAL_ENTRIES, ids=lambda e: e.key)
def test_split_form_decides_unitarity_on_catalog(entry):
    """The split-form check is true exactly on the enumerated unitary set."""
    form = entry.form()
    g = form.group
    unitary = f.enumerate_unitary(g, f.classical_involution(g)).mask_set()
    for m in _lemma_sample(g, unitary, g.order):
        got = f.check_unitary_split_form(form, f.AlgebraElement(g, m))
        assert got == (m in unitary), hex(m)


@pytest.mark.parametrize("entry", ODOT_ENTRIES, ids=lambda e: e.key)
def test_quadrant_system_decides_unitarity_on_catalog(entry):
    """The quadrant system is true exactly on the enumerated unitary set."""
    if entry.key in ORDER32:
        g, form, v = order32_scan(entry.key)
    else:
        form = entry.form()
        g = form.group
        v = f.enumerate_unitary(g, f.odot_involution(form))
    unitary = v.mask_set()
    for m in _lemma_sample(g, unitary, g.order):
        got = f.check_unitary_quadrant_system(form, f.AlgebraElement(g, m))
        assert got == (m in unitary), hex(m)


@pytest.mark.parametrize("entry", ODOT_ENTRIES, ids=lambda e: e.key)
def test_involution_image_records_the_canonical_generators(entry):
    """The image of C's involutions records the table-greedy generators of
    their subgroup: the ones ``canonical_generators`` finds by listing the
    image, so the torsion contract need not compute them."""
    form = entry.form()
    g = form.group
    _, c2_image = decompositions._central_order_2_parts(form)
    bare = make_unit_set(g, c2_image.masks)
    assert c2_image.masks == tuple(1 << c for c in form.c_sub.members if g.mul[c][c] == 0)
    assert list(c2_image.generators) == f.canonical_generators(bare)


# The lemma checks test only their independent conditions; these tests keep
# the rest exercised, on every scanned unitary element of the catalog groups
# of order <= 16 and on a seeded 500 per order-32 instance.
LEMMA_KEYS = {
    involution: [e.key for e in entries if e.key not in ORDER32]
    + [key for key, (_, kind) in ORDER32.items() if kind == involution]
    for involution, entries in (("classical", CLASSICAL_ENTRIES), ("odot", ODOT_ENTRIES))
}


def _lemma_unitary(key, involution):
    """The form for one instance and the unitary masks to recheck on it."""
    if key in ORDER32:
        _, form, v = order32_scan(key)
        return form, random.Random(32).sample(v.masks, 500)
    entries = CLASSICAL_ENTRIES if involution == "classical" else ODOT_ENTRIES
    form = next(e for e in entries if e.key == key).form()
    g = form.group
    sigma = f.classical_involution(g) if involution == "classical" else f.odot_involution(form)
    return form, f.enumerate_unitary(g, sigma).masks


@pytest.mark.parametrize("key", LEMMA_KEYS["classical"])
def test_split_form_consequences_hold_on_unitary_elements(key):
    """For unitary x, with x (or x b, when x's part on A is even) split as
    x1 + x2 b and y = x1^-1 x2: y (1+b*b) = 0, y is divisible by 1+b*b,
    y y* = 0, x1 x1* = 1 and x1 x1* (1 + y y*) = 1."""
    form, masks = _lemma_unitary(key, "classical")
    g = form.group
    sigma = f.classical_involution(g)
    one, b = f.one(g), f.basis(g, form.b)
    nb = one + f.basis(g, form.b_squared)
    for m in masks:
        x1, x2 = split(g, m, form.a_sub, (0, form.b))
        if f.augmentation(x1) == 0:
            x1, x2 = split(g, (f.AlgebraElement(g, m) * b).mask, form.a_sub, (0, form.b))
        y = f.ga_inverse(x1) * x2
        x1_norm = x1 * f.ga_involute(sigma, x1)
        y_norm = y * f.ga_involute(sigma, y)
        assert (y * nb).is_zero(), hex(m)
        assert naive_solve(g, y.mask, nb.mask)[0] is not None, hex(m)
        assert y_norm.is_zero(), hex(m)
        assert x1_norm.is_one(), hex(m)
        assert (x1_norm * (one + y_norm)).is_one(), hex(m)
    assert masks


@pytest.mark.parametrize("key", LEMMA_KEYS["odot"])
def test_quadrant_consequences_hold_on_unitary_elements(key):
    """For unitary x = x0 + x1 a + x2 b + x3 ab with x0 odd, each
    y_i = x0^-1 x_i is annihilated by 1+e and divisible by it, y_i^2 = 0,
    and x0^2 = 1."""
    form, masks = _lemma_unitary(key, "odot")
    g = form.group
    ne = f.one(g) + f.basis(g, form.e)
    reps = (0, form.a, form.b, g.mul[form.a][form.b])
    seen = 0
    for m in masks:
        x0, *parts = split(g, m, form.c_sub, reps)
        if f.augmentation(x0) == 0:
            continue
        seen += 1
        x0_inv = f.ga_inverse(x0)
        for xi in parts:
            y = x0_inv * xi
            assert (y * ne).is_zero(), hex(m)
            assert naive_solve(g, y.mask, ne.mask)[0] is not None, hex(m)
            assert (y * y).is_zero(), hex(m)
        assert (x0 * x0).is_one(), hex(m)
    assert seen


def test_verify_classical_q8_passes(q8_form):
    report = f.verify_inverting_decomposition(q8_form)
    assert report.passed
    names = checks_by_name(report)
    assert names["oracle_set_equality"].passed
    assert names["unitary_order_matches"].passed
    assert report.orders["oracle_unitary"] == 64
    assert report.orders["expected_unitary"] == 64


def test_verify_classical_skip_enumeration(q8_form):
    report = f.verify_inverting_decomposition(q8_form, skip_enumeration=True)
    assert report.passed
    names = checks_by_name(report)
    assert "oracle_set_equality" not in names
    assert "cofactor_members_unitary" in names
    assert_skipped_on_request(report)


def test_verify_degrades_over_the_bound(q16_form):
    report = f.verify_inverting_decomposition(q16_form, max_order=8)
    assert report.passed
    assert "oracle_set_equality" not in checks_by_name(report)
    assert any("exceeds the exhaustive bound" in note for note in report.notes)


def _verify_with_a_scan_missing(form, dropped, monkeypatch):
    """The classical report with the full scan of the group short of one
    member; the scan of A's subalgebra is left as it is."""
    scan = decompositions.enumerate_unitary

    def short_scan(*args, support=None, **kwargs):
        v = scan(*args, support=support, **kwargs)
        return v if support is not None else make_unit_set(v.group, set(v.masks) - {dropped})

    monkeypatch.setattr(decompositions, "enumerate_unitary", short_scan)
    return checks_by_name(f.verify_inverting_decomposition(form))


def _outside_group_and_cofactor(form):
    """A test of lying in neither the group image nor the cofactor H (the
    later checks need both inside the scan)."""
    w = f.build_unipotent_factor(form)
    h = f.build_normal_cofactor(form, w, f.build_abelian_complement(form)).mask_set()
    image = f.group_image(form.group).mask_set()
    return lambda m: m not in h and m not in image


def test_cofactor_normality_names_a_pcgs_unit_missing_from_the_scan(q16_form, monkeypatch):
    """Normality in V_* is decided on the fixed-point pcgs only once it lies
    in the scan; a pcgs unit the scan lacks fails the check and is its
    witness."""
    g = q16_form.group
    outside = _outside_group_and_cofactor(q16_form)
    pcgs = _fixed_point_pcgs(g, g.inv, range(g.order), g.greedy_generators)
    dropped = [m for m in pcgs if outside(m)][-1]
    check = _verify_with_a_scan_missing(q16_form, dropped, monkeypatch)["cofactor_normal_in_unitary"]
    assert not check.passed
    assert check.witness == decompositions._render(g, dropped)


def test_cofactor_normality_names_both_orders_when_they_differ(q16_form, monkeypatch):
    """A scan short of a unit outside the pcgs still holds the pcgs, and the
    witness gives both orders."""
    g = q16_form.group
    outside = _outside_group_and_cofactor(q16_form)
    pcgs = set(_fixed_point_pcgs(g, g.inv, range(g.order), g.greedy_generators))
    v = f.enumerate_unitary(g, f.classical_involution(g))
    dropped = next(m for m in v.masks if m not in pcgs and outside(m))
    check = _verify_with_a_scan_missing(q16_form, dropped, monkeypatch)["cofactor_normal_in_unitary"]
    assert not check.passed
    assert check.witness == "pcgs order 1024, scanned order 1023"


def test_semidirect_check_names_a_member_of_h_missing_from_the_scan(monkeypatch, capsys):
    """A scan that lacks a member of H fails group_cofactor_semidirect with
    the smallest member of H outside it, and the run exits 1, not 2; a
    member of G that the scan lacks is named only when H lies inside."""
    from f2units import cli

    scan = decompositions.enumerate_unitary
    q8 = f.make_quaternion(8)
    form = f.detect_inverting_form(q8)
    w = f.build_unipotent_factor(form)
    largest = f.build_normal_cofactor(form, w, f.build_abelian_complement(form)).masks[-1]
    check = _verify_with_a_scan_missing(form, largest, monkeypatch)["group_cofactor_semidirect"]
    assert not check.passed
    assert check.witness == decompositions._render(q8, largest)
    config = cli.RunConfig(group=q8, involution="classical", mode="verify", fmt="json")
    assert cli.run(config) == 1
    capsys.readouterr()

    a = 1 << q8.labels.index("a")
    for dropped, witness in (({a, largest}, largest), ({a}, a)):

        def short_scan(*args, support=None, dropped=dropped, **kwargs):
            v = scan(*args, support=support, **kwargs)
            return v if support is not None else make_unit_set(q8, set(v.masks) - dropped)

        monkeypatch.setattr(decompositions, "enumerate_unitary", short_scan)
        checks = checks_by_name(f.verify_inverting_decomposition(form))
        assert checks["group_cofactor_semidirect"].witness == decompositions._render(q8, witness)


# ---------------------------------------------------------------------------
# twisted-involution pipeline


def test_central_unipotent_d8(d8, d8_odot_form):
    w = f.build_central_unipotent(d8_odot_form)
    assert w.order == 8  # 2^(3|C|/2)
    sigma = f.odot_involution(d8_odot_form)
    gens = [f.basis(d8, i) for i in d8.greedy_generators]
    for x in w.elements():
        assert f.ga_mul(x, x).is_one()
        assert f.ga_mul(x, f.ga_involute(sigma, x)).is_one()
        for gen in gens:
            assert f.ga_mul(x, gen) == f.ga_mul(gen, x)


def test_torsion_complement_sizes(d8_odot_form, d8xc2_odot_form):
    assert f.build_torsion_complement(d8_odot_form).order == 1
    t = f.build_torsion_complement(d8xc2_odot_form)
    assert t.order == 2


def test_torsion_complement_pinned_d8xc8():
    """T at D8xC8 (order 64), outside the catalog and the benchmark references."""
    g = f.make_direct_product(f.make_dihedral(8), f.make_cyclic(8))
    t = f.find_complement(*decompositions._central_order_2_parts(f.make_odot_form(g)))
    assert [decompositions._render(g, m) for m in t.generators] == [
        "1 + (1,a) + (1,a5)",
        "1 + (1,a2) + (1,a6)",
        "1 + (1,a3) + (1,a7)",
        "1 + (1,a4) + (r2,1)",
        "(1,a) + (1,a5) + (r2,1)",
        "(1,a2) + (1,a6) + (r2,1)",
        "(1,a3) + (1,a7) + (r2,1)",
        "1 + (1,a) + (r2,a)",
        "1 + (1,a2) + (r2,a2)",
        "1 + (1,a3) + (r2,a3)",
    ]
    assert t.order == 1024


@pytest.mark.parametrize("fixture", ["d8", "d8xc2", "q8xc2"])
def test_quadrant_system_biconditional(fixture, request):
    """True on every unitary element, false on the other normalized units:
    all of them at order 8, a seeded sample of 2,000 at order 16."""
    g = request.getfixturevalue(fixture)
    form = f.make_odot_form(g)
    unitary = f.enumerate_unitary(g, f.odot_involution(form)).mask_set()
    others = [m for m in range(1 << g.order) if m.bit_count() & 1 and m not in unitary]
    for m in sorted(unitary):
        assert f.check_unitary_quadrant_system(form, f.AlgebraElement(g, m)), hex(m)
    for m in random.Random(16).sample(others, min(2000, len(others))):
        assert not f.check_unitary_quadrant_system(form, f.AlgebraElement(g, m)), hex(m)


def test_quadrant_components_have_even_coefficient_sum(q8, q8_odot_form):
    """For unitary x whose identity-coset component has coefficient sum 1,
    the other three quadrant components each sum to 0. (Without that
    normalization the claim is false: the basis element a is unitary and its
    whole support sits in the a-coset.)"""
    form = q8_odot_form
    sigma = f.odot_involution(form)
    seen_normalized = 0
    reps = (0, form.a, form.b, q8.mul[form.a][form.b])
    for m in f.enumerate_unitary(q8, sigma).masks:
        x0, x1, x2, x3 = split(q8, m, form.c_sub, reps)
        if f.augmentation(x0) != 1:
            continue
        seen_normalized += 1
        assert f.augmentation(x1) == 0
        assert f.augmentation(x2) == 0
        assert f.augmentation(x3) == 0
    assert seen_normalized > 0


def test_quadrant_system_requires_a_unit(q8, q8_odot_form):
    with pytest.raises(NotUnitaryError):
        f.check_unitary_quadrant_system(q8_odot_form, f.zero(q8))


@pytest.mark.parametrize("make", [f.zero, f.one], ids=["zero", "one"])
def test_quadrant_system_checks_the_group_first(q8_odot_form, d8, make):
    """An element of another group fails on its group, whatever its augmentation."""
    with pytest.raises(GroupMismatchError):
        f.check_unitary_quadrant_system(q8_odot_form, make(d8))


def test_verify_twisted_q8_passes(q8_odot_form):
    report = f.verify_odot_decomposition(q8_odot_form)
    assert report.passed
    names = checks_by_name(report)
    assert names["group_inside_unitary"].passed
    assert names["direct_product"].passed
    assert names["oracle_set_equality"].passed
    assert report.orders["oracle_unitary"] == 64


def test_verify_twisted_d8_fails_on_group_containment(d8_odot_form):
    """Reflections square to 1, not to the derived generator, so they are not
    unitary under the twisted involution and the advertised direct-product
    decomposition cannot hold; the report must say so with a witness."""
    report = f.verify_odot_decomposition(d8_odot_form)
    assert not report.passed
    names = checks_by_name(report)
    assert not names["group_inside_unitary"].passed
    assert names["group_inside_unitary"].witness == "s"
    assert not names["unitary_order_matches"].passed
    assert not names["oracle_set_equality"].passed
    # the constructed factors themselves are still internally sound
    assert names["central_unipotent_order_formula"].passed
    assert names["central_unipotent_members_central_unitary"].passed
    assert names["torsion_complement_exists"].passed
    assert report.orders["oracle_unitary"] == 32
    assert report.orders["expected_unitary"] == 64


def test_verify_twisted_skip_enumeration(q8_odot_form):
    report = f.verify_odot_decomposition(q8_odot_form, skip_enumeration=True)
    assert report.passed
    names = checks_by_name(report)
    assert "oracle_set_equality" not in names
    assert "factors_pairwise_direct" in names
    assert "torsion_members_unitary" in names
    assert_skipped_on_request(report)


@pytest.mark.parametrize("entry", ODOT_ENTRIES, ids=lambda e: e.key)
def test_alternate_representatives_give_the_same_central_unipotent(entry, monkeypatch):
    """Only W depends on the coset representatives, and the two choices give
    the same W as a set; the check reads the alternate basis of W - 1 and
    fails as soon as that basis loses a vector (its rank falls short) or has
    one swapped for a non-member of W - 1."""
    g = entry.build()
    form = f.make_odot_form(g)
    alt = f.make_odot_form(g, prefer_large_reps=True)
    assert (alt.a, alt.b) != (form.a, form.b)
    w = f.build_central_unipotent(form)
    assert f.build_central_unipotent(alt).mask_set() == w.mask_set()

    basis = decompositions._central_unipotent_basis
    outside = 1 << 1 | 1 << 2
    assert 1 ^ outside not in w
    for skip in (False, True):
        names = checks_by_name(f.verify_odot_decomposition(form, skip_enumeration=skip))
        main = names.get("oracle_set_equality") or names["factors_pairwise_direct"]
        assert names["alternate_representatives_pass"].passed == main.passed
        for corrupt in (lambda vs: vs[:-1], lambda vs: vs[:-1] + [outside]):

            def altered(arg, corrupt=corrupt):
                vectors = basis(arg)
                return corrupt(vectors) if (arg.a, arg.b) == (alt.a, alt.b) else vectors

            monkeypatch.setattr(decompositions, "_central_unipotent_basis", altered)
            got = checks_by_name(f.verify_odot_decomposition(form, skip_enumeration=skip))
            monkeypatch.undo()
            assert not got.pop("alternate_representatives_pass").passed
            assert got == {k: c for k, c in names.items() if k != "alternate_representatives_pass"}


def _count_unipotent_builds(monkeypatch):
    """Wrap both public W builders with a call counter."""
    calls = []
    for name in ("build_central_unipotent", "build_unipotent_factor"):

        def counted(form, name=name, build=getattr(decompositions, name)):
            calls.append(name)
            return build(form)

        monkeypatch.setattr(decompositions, name, counted)
    return calls


def _entry_form(entries, key):
    return next(e for e in entries if e.key == key).form()


# The form and W's builder; the order-32 forms are above the default bound.
LISTS_W = {
    "D8xC2/odot": (lambda: _entry_form(ODOT_ENTRIES, "D8xC2"), "build_central_unipotent"),
    "D8xC4/odot": (lambda: _entry_form(ODOT_ENTRIES, "D8xC4"), "build_central_unipotent"),
    "Q16/classical": (lambda: _entry_form(CLASSICAL_ENTRIES, "Q16"), "build_unipotent_factor"),
    "Q32/classical": (
        lambda: f.detect_inverting_form(f.make_quaternion(32)),
        "build_unipotent_factor",
    ),
}


@pytest.mark.parametrize("skip", [False, True], ids=["verify", "construct"])
@pytest.mark.parametrize("key", list(LISTS_W))
def test_verification_lists_its_w_once(key, skip, monkeypatch):
    """W is listed once with the oracle and never without it: its checks,
    and the odot alternate representatives', are decided on bases of W - 1.
    The order-32 forms run no oracle either way."""
    make_form, builder = LISTS_W[key]
    form = make_form()
    odot = key.endswith("/odot")
    verify = f.verify_odot_decomposition if odot else f.verify_inverting_decomposition
    calls = _count_unipotent_builds(monkeypatch)
    report = verify(form, skip_enumeration=skip)
    oracle = "oracle_unitary" in report.orders
    assert oracle is (form.group.order == 16 and not skip)
    assert calls == ([builder] if oracle else [])


# ---------------------------------------------------------------------------
# report serialization


def test_report_shape_and_determinism(q8_form):
    a = f.verify_inverting_decomposition(q8_form).to_json_dict()
    b = f.verify_inverting_decomposition(q8_form).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["schema"] == 1
    assert set(a) == {
        "schema", "kind", "group", "involution", "instance",
        "orders", "checks", "notes", "pass",
    }
    for check in a["checks"]:
        assert set(check) <= {"name", "pass", "witness"}


def test_report_carries_instance_descriptors(q8_form):
    d = f.verify_inverting_decomposition(q8_form).to_json_dict()
    inst = d["instance"]
    assert inst["subgroup"] == ["1", "a", "a2", "a3"]
    assert inst["twist"] == "b"
    assert inst["transversal"] == ["1", "a"]
    assert "complement_generators" in inst
