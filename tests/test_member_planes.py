"""The bit-plane layer against per-member oracles: the transpose, products
by a fixed multiplier, and the member checks (pass/fail and the first
failing member on every factor list, intact and with single-bit
corruptions). The verifications pass each check a generating set; the
sweeps below show that the generators give the verdict of every member,
and the mutants that the verifications read the recorded generators."""

from __future__ import annotations

import functools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import f2units as f
from f2units import algebra, cli, decompositions
from f2units.algebra import _mul, _span
from f2units.catalog import CLASSICAL_ENTRIES, ODOT_ENTRIES, catalog_groups
from f2units.decompositions import (
    DecompositionReport,
    _add_member_check,
    _render,
    build_abelian_complement,
    build_central_unipotent,
    build_normal_cofactor,
    build_torsion_complement,
    build_unipotent_factor,
)
from f2units.unitgroup import (
    _fixed_planes,
    _member_planes,
    _product_planes,
    group_image,
    make_unit_set,
)
from conftest import central_members, conjugation_involutions
from oracles import naive_first_failing_member, naive_product

ORDERS = (2, 4, 8, 16, 32, 64, 128)


@st.composite
def mask_lists(draw):
    n = draw(st.sampled_from(ORDERS))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))


@settings(max_examples=200, deadline=None)
@given(mask_lists())
def test_member_planes_transpose_the_list(case):
    n, masks = case
    planes = _member_planes(masks, n)
    assert len(planes) == n
    for i, plane in enumerate(planes):
        assert plane == sum((m >> i & 1) << k for k, m in enumerate(masks))


@pytest.mark.parametrize("n", ORDERS)
def test_member_planes_of_the_empty_list(n):
    assert _member_planes([], n) == [0] * n


def test_member_planes_of_a_long_list():
    """Planes of 9000 bits, longer than any list the checks are given."""
    rng = random.Random(3)
    masks = [rng.getrandbits(32) for _ in range(9000)]
    planes = _member_planes(masks, 32)
    for i in (0, 7, 8, 31):
        assert planes[i] == sum((m >> i & 1) << k for k, m in enumerate(masks))


def _unpack(planes, count):
    """Member k of ``planes``, read off one binary string per plane; a plane
    with a bit at or past ``count`` fails."""
    columns = [format(p, f"0{count}b")[::-1] for p in planes]
    assert all(len(c) == count for c in columns)
    return [int("".join(c[k] for c in reversed(columns)), 2) for k in range(count)]


@pytest.mark.parametrize("n", (2, 4, 8, 16, 32, 64))
@pytest.mark.parametrize("count", (1, 255, 256, 257, 513, 8195))
def test_member_planes_across_chunk_boundaries(n, count):
    """Lists of 1 to 8195 members, with masks that set the top bit, every
    bit, and both bits at every byte boundary at the first, last and some
    middle members."""
    rng = random.Random(n * count)
    masks = [rng.getrandbits(n) for _ in range(count)]
    edges = [
        1 << (n - 1),
        (1 << n) - 1,
        sum(1 << i for i in range(n) if i % 8 in (0, 7)) | 1 << (n - 1),
    ]
    for j, k in enumerate((0, 255, 256, 511, 512, count - 1)):
        if k < count:
            masks[k] = edges[j % len(edges)]
    assert _unpack(_member_planes(masks, n), count) == masks


@pytest.mark.parametrize(
    "kind", (list, set, lambda xs: (x for x in xs)), ids=("list", "set", "generator")
)
def test_make_unit_set_sorts_and_drops_duplicates(kind):
    """Unsorted input with duplicates, as a list, a set or a generator."""
    rng = random.Random(7)
    xs = [rng.randrange(1 << 16) for _ in range(3000)] + [1, 1, 0, 0]
    xs += xs[:500]
    rng.shuffle(xs)
    g = f.make_cyclic(16)
    assert make_unit_set(g, kind(xs)).masks == tuple(sorted(set(xs)))


PRODUCT_GROUPS = {
    **{name: (lambda g=g: g) for name, g in catalog_groups().items()},
    "Q32": lambda: f.make_quaternion(32),
    "Q64": lambda: f.make_quaternion(64),
}


def _read_back(planes, count):
    """The ``count`` masks whose bit planes are ``planes``, one bit at a time."""
    return [sum((p >> k & 1) << i for i, p in enumerate(planes)) for k in range(count)]


@pytest.mark.parametrize("name", sorted(PRODUCT_GROUPS))
def test_products_by_a_fixed_multiplier_match_mul(name):
    """x * y and y * x for a list of x at once, against _mul, for random and
    single-element multipliers y."""
    g = PRODUCT_GROUPS[name]()
    n = g.order
    rng = random.Random(n)
    xs = [rng.getrandbits(n) for _ in range(50)] + [0, 1, (1 << n) - 1]
    planes = _member_planes(xs, n)
    full = (1 << len(xs)) - 1
    for y in [rng.getrandbits(n) for _ in range(4)] + [0, 1, 1 << (n - 1)]:
        fixed = _fixed_planes(n, y, full)
        right = _read_back(_product_planes(g, planes, fixed), len(xs))
        left = _read_back(_product_planes(g, fixed, planes), len(xs))
        assert right == [_mul(g, x, y) for x in xs]
        assert left == [_mul(g, y, x) for x in xs]


def test_largest_listed_product_d8xc4():
    """The odot oracle comparison decides (G.T).W by orders, listing G.T
    only; at D8xC4 the product would hold |G.T||W| / |G.T meet W| =
    512 * 4096 = 2,097,152 masks."""
    (entry,) = [e for e in ODOT_ENTRIES if e.key == "D8xC4"]
    form = entry.form()
    g = form.group
    sizes = (group_image(g), build_torsion_complement(form), build_central_unipotent(form))
    assert [s.order for s in sizes] == [32, 16, 4096]
    g_image, t, w = sizes
    gt = naive_product(g, g_image.masks, t.masks)
    assert len(gt) * w.order // len(gt & w.mask_set()) == 2_097_152


def _classical_lists(form):
    """The member checks of verify_inverting_decomposition, as
    (label, masks, check keywords)."""
    g = form.group
    sigma = f.classical_involution(g)
    w = build_unipotent_factor(form)
    h = build_normal_cofactor(form, w, build_abelian_complement(form))
    return [
        ("W", w.masks, dict(sigma=sigma, square=True)),
        ("H", h.masks, dict(sigma=sigma)),
    ]


def _odot_lists(form):
    g = form.group
    sigma = f.odot_involution(form)
    gen_basis = [1 << i for i in g.greedy_generators]
    return [
        ("W", build_central_unipotent(form).masks, dict(sigma=sigma, square=True, central=gen_basis)),
        ("G", group_image(g).masks, dict(sigma=sigma)),
        ("T", build_torsion_complement(form).masks, dict(sigma=sigma)),
    ]


FORMS = {
    **{f"{e.key}/classical": e.form for e in CLASSICAL_ENTRIES},
    **{f"{e.key}/odot": e.form for e in ODOT_ENTRIES},
    "Q32/classical": lambda: f.detect_inverting_form(f.make_quaternion(32)),
    "Ext(C16)/classical": lambda: f.detect_inverting_form(
        f.make_inverting_extension(f.make_cyclic(16), 8)
    ),
}
CASES = [
    f"{key}/{label}"
    for key in FORMS
    for label in (("W", "H") if key.endswith("/classical") else ("W", "G", "T"))
]


@functools.cache
def _lists(key):
    """Built when a test asks, so that a broken builder fails that test."""
    form = FORMS[key]()
    lists = _classical_lists(form) if key.endswith("/classical") else _odot_lists(form)
    return {label: (form.group, masks, kw) for label, masks, kw in lists}


def _case(case):
    key, label = case.rsplit("/", 1)
    return _lists(key)[label]


def _plane_result(g, masks, kw):
    report = DecompositionReport("test", {}, "test", {}, {})
    _add_member_check(report, "members", g, masks, **kw)
    (check,) = report.checks
    return check.passed, check.witness


def _naive_result(g, masks, kw):
    """The per-member oracle; a member is central when it commutes with every
    element, not only with the generators the plane check is given."""
    bad = naive_first_failing_member(
        g,
        masks,
        perm=kw["sigma"].perm,
        square=kw.get("square", False),
        central=[1 << i for i in range(g.order)] if kw.get("central") else (),
    )
    return bad is None, None if bad is None else _render(g, bad)


def test_cases_include_the_large_lists():
    for case, size in (("Q32/classical/H", 8192), ("Ext(C16)/classical/H", 8192), ("D8xC4/odot/W", 4096)):
        assert len(_case(case)[1]) == size


@pytest.mark.parametrize("case", CASES)
def test_member_check_matches_naive(case):
    g, masks, kw = _case(case)
    assert _plane_result(g, masks, kw) == _naive_result(g, masks, kw)


@pytest.mark.parametrize("case", CASES)
def test_member_check_names_the_same_corrupted_member(case):
    """Flip single bits of one member, and of two members at once: the
    first failing member is the same as the oracle's."""
    g, masks, kw = _case(case)
    rng = random.Random(len(masks) * g.order)
    for flips in (1, 1, 2):
        bad = list(masks)
        for _ in range(flips):
            k = rng.randrange(len(bad))
            bad[k] ^= 1 << rng.randrange(g.order)
        assert _plane_result(g, bad, kw) == _naive_result(g, bad, kw)


def test_member_check_reports_the_lowest_failing_member():
    g = f.make_quaternion(8)
    sigma = f.classical_involution(g)
    masks = [1, 1 << 1, 0b101, 1 << 2, 0b11]  # 1, a, 1 + a2, a2, 1 + a
    assert _plane_result(g, masks, dict(sigma=sigma)) == (False, _render(g, 0b101))
    assert _plane_result(g, masks[::-1], dict(sigma=sigma)) == (False, _render(g, 0b11))


@pytest.mark.parametrize("key, witness", [("D8", "s"), ("D8xC4", "(1,a)")])
def test_group_inside_unitary_witness(key, witness):
    (entry,) = [e for e in ODOT_ENTRIES if e.key == key]
    report = f.verify_odot_decomposition(entry.form(), skip_enumeration=True)
    (check,) = [c for c in report.checks if c.name == "group_inside_unitary"]
    assert not check.passed
    assert check.witness == witness


# Library groups of order at most 32, abelian and not, for the sweep below.
SWEEP_GROUPS = {
    **catalog_groups(),
    **{
        g.name: g
        for g in [
            f.make_dihedral(16),
            f.make_dihedral(32),
            f.make_quaternion(32),
            f.make_inverting_extension(f.make_cyclic(16), 8),
            f.make_direct_product(f.make_quaternion(8), f.make_cyclic(4)),
            f.make_direct_product(f.make_dihedral(16), f.make_cyclic(2)),
            f.make_direct_product(f.make_quaternion(16), f.make_cyclic(2)),
            f.make_direct_product(f.make_cyclic(4), f.make_cyclic(4)),
        ]
    },
}


@pytest.mark.parametrize("name", sorted(SWEEP_GROUPS))
def test_group_inside_unitary_on_generators_matches_every_member(name):
    """Over every conjugation involution, the check on the greedy generators
    gives the per-member verdict and witness: it fails exactly when c is not
    central, naming the smallest failing element."""
    g = SWEEP_GROUPS[name]
    image, central = group_image(g), central_members(g)
    for c, sigma in conjugation_involutions(g):
        bad = naive_first_failing_member(g, image.masks, perm=sigma.perm)
        expected = (bad is None, None if bad is None else _render(g, bad))
        assert _plane_result(g, image.generators, dict(sigma=sigma)) == expected
        assert expected[0] == (c in central)


def _pipeline_w(key):
    """W as the verification builds it, its involution, and the keywords of
    its member check."""
    form = FORMS[key]()
    g = form.group
    if key.endswith("/classical"):
        return build_unipotent_factor(form), f.classical_involution(g), dict(square=True)
    central = [1 << i for i in g.greedy_generators]
    sigma = f.odot_involution(form)
    return build_central_unipotent(form), sigma, dict(square=True, central=central)


@pytest.mark.parametrize("key", sorted(FORMS))
def test_w_check_on_generators_matches_every_member(key):
    """The unitary, the central and, in the abelian W, the square-1 units
    each form a group, so W's recorded generators give the verdict of all
    its members: under the verification's involution and, below order 32,
    under every conjugation involution."""
    w, own, kw = _pipeline_w(key)
    g = w.group
    sigmas = [own]
    if g.order <= 16:
        sigmas += [s for _, s in conjugation_involutions(g)]
    verdicts = []
    for sigma in sigmas:
        passed, _ = _plane_result(g, w.generators, dict(sigma=sigma, **kw))
        assert passed == (naive_first_failing_member(g, w.masks, perm=sigma.perm, **kw) is None)
        verdicts.append(passed)
    assert verdicts[0]


# (form, builder in decompositions, check, label of a failing mask, factor
# of the check's keywords): T and both W are checked on their generators,
# the odot W on the generators 1 + v over the basis of W - 1 it is built from,
# the classical W on the transversal generators beside its basis.
MUTANTS = {
    "T": ("D8xC4/odot", "_complement_search", "torsion_members_unitary", "(1,a)", "T"),
    "odot-W": (
        "D8xC4/odot",
        "_central_unipotent_basis",
        "central_unipotent_members_central_unitary",
        "(1,a)",
        "W",
    ),
    "classical-W": ("Q32/classical", "_unipotent_basis", "unipotent_members_unitary", "a", "W"),
}


@pytest.mark.parametrize("case", sorted(MUTANTS))
def test_member_checks_read_the_generators(monkeypatch, case):
    """Construct mode checks T and W on their generators. With the first
    one swapped for a failing mask (for the odot W, the first basis vector
    of the main representatives for its sum with 1) and the members left
    intact, the check fails and names that mask; the members alone would
    pass."""
    key, builder, name, label, factor = MUTANTS[case]
    form = FORMS[key]()
    g = form.group
    kw = _lists(key)[factor][2]
    bad = 1 << g.labels.index(label)
    original = getattr(decompositions, builder)
    built = []

    def mutant(*args):
        s = original(*args)
        if builder == "_complement_search":
            built.append(s.masks)
            return make_unit_set(g, s.masks, generators=(bad, *s.generators[1:]))
        if builder == "_unipotent_basis":
            vectors, gens = s
            built.append([1 ^ m for m in _span(vectors)])
            return vectors, [bad, *gens[1:]]
        if (args[0].a, args[0].b) != (form.a, form.b):
            return s
        built.append([1 ^ m for m in _span(s)])
        return [1 ^ bad, *s[1:]]

    monkeypatch.setattr(decompositions, builder, mutant)
    if key.endswith("/classical"):
        report = f.verify_inverting_decomposition(form, skip_enumeration=True)
    else:
        report = f.verify_odot_decomposition(form, skip_enumeration=True)
    (check,) = [c for c in report.checks if c.name == name]
    assert (check.passed, check.witness) == (False, label)
    assert _plane_result(g, built[0], kw) == (True, None)


def test_catalog_mode_multiplication_count(capsys):
    """One catalog run makes 1,244 calls to _mul and 31 to _products: the
    classical oracle conjugates H only by the pcgs units outside it (1,481
    _mul calls while it conjugated H by every pcgs unit), the classical
    cofactor_semidirect reads L's normality of W off the conjugates that
    the conjugation identities form (1,549 _mul calls while normalizes
    formed them again), the classical oracle conjugates
    by the fixed-point pcgs of V_*, not by generators found by listing the
    scanned group again, the unipotent
    generators are read off the table, neither complement search nor the
    conjugation identities list generators of the group they run in (2,521
    _mul calls while they did), the complement search grows S*F by one
    batch product per new span member (2,076 _mul calls while it listed
    the translates S*F*c^i one product at a time), and the generator route
    of each classical W takes the pairwise products of its generators'
    vectors, not one coset step per member (1,900 _mul calls while it
    multiplied W out), and the elementary check of each reads the same
    table of products (1,871 _mul calls while it multiplied the
    generators again). The odot W is decided on its basis and the direct
    product on generators and supports (1,819 _mul calls while both were
    decided on the listed W and G*T), and the image of C's involutions
    records its table-greedy generators (1,747 _mul calls while the
    torsion contract listed canonical generators of it). The odot direct
    product reads W's centrality from the member check's planes (1,717
    _mul calls while it multiplied W's generators with G's again)."""
    calls = {algebra._mul.__code__: 0, algebra._products.__code__: 0}

    def count(frame, event, arg):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code] += 1

    config = cli.RunConfig(group=None, involution=None, mode="catalog", fmt="json")
    sys.setprofile(count)
    try:
        status = cli.run(config)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert status == 1  # the dihedral odot instances fail by design
    assert calls[algebra._mul.__code__] <= 1_244
    assert calls[algebra._products.__code__] <= 31
