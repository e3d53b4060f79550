"""Group tables: constructors, validation, and structure queries."""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from functools import partial
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import f2units as f
from f2units.algebra import _mul
from f2units.errors import (
    BadIndexError,
    BadSquareElementError,
    GroupMismatchError,
    GroupAxiomViolationError,
    NoComplementError,
    NotAbelianError,
    NotASubgroupError,
    NotSubsetError,
    ParseError,
    UnsupportedOrderError,
)
from f2units.catalog import catalog_groups
from f2units.groups import _extend, _greedy_generators
from f2units.unitgroup import normalizes
from perfbench.workloads import ingest_spec_texts
from instances import relabel
from oracles import (
    naive_canonical_generators,
    naive_center,
    naive_closure,
    naive_commutator_subgroup,
    naive_element_order,
    naive_group_axioms,
    naive_normal_in,
    naive_unit_closure,
)

ALL_SMALL = ["c2", "c4", "c8", "d8", "q8", "q16", "c4xc2", "d8xc2", "q8xc2"]


@pytest.fixture(params=ALL_SMALL)
def any_group(request):
    return request.getfixturevalue(request.param)


def order_fingerprint(g):
    """How many elements have each order: a cheap family fingerprint."""
    return Counter(f.element_order(g, x) for x in range(g.order))


# ---------------------------------------------------------------------------
# constructors


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_cyclic_basics(n):
    g = f.make_cyclic(n)
    assert g.order == n
    assert g.label(0) == "1"
    assert len(set(g.labels)) == n
    if n > 1:
        assert f.element_order(g, 1) == n
    assert g.is_abelian()
    assert g.is_two_group()


def test_dihedral_relations(d8):
    r, s = 1, 4
    assert f.element_order(d8, r) == 4
    assert f.element_order(d8, s) == 2
    # s r s^-1 = r^-1
    assert d8.conjugate(s, r) == d8.inv[r]
    assert order_fingerprint(d8) == {1: 1, 2: 5, 4: 2}
    assert not d8.is_abelian()


def test_quaternion_relations(q8, q16):
    a, b = 1, 4
    assert f.element_order(q8, a) == 4
    assert f.element_order(q8, b) == 4
    assert q8.mul[b][b] == q8.mul[a][a]  # b^2 = a^2
    assert q8.conjugate(b, a) == q8.inv[a]
    assert order_fingerprint(q8) == {1: 1, 2: 1, 4: 6}

    a, b = 1, 8
    assert f.element_order(q16, a) == 8
    assert f.element_order(q16, b) == 4
    assert q16.mul[b][b] == 4  # b^2 = a^4
    assert q16.conjugate(b, a) == q16.inv[a]
    # the unique involution sits in the center
    assert f.center(q16).members == (0, 4)


def test_direct_product_structure(d8, c2, d8xc2):
    assert d8xc2.order == 16
    # factor copies commute with each other elementwise
    for x in range(d8.order):
        for y in range(c2.order):
            left = d8xc2.mul[x * 2][y]
            right = d8xc2.mul[y][x * 2]
            assert left == right == x * 2 + y
    assert f.make_direct_product(f.make_cyclic(4), f.make_cyclic(2)).is_abelian()
    assert not d8xc2.is_abelian()


def test_inverting_extension_matches_quaternion_shape():
    g = f.make_inverting_extension(f.make_cyclic(4), 2)
    assert g.order == 8
    assert order_fingerprint(g) == {1: 1, 2: 1, 4: 6}
    a, b = 1, 4
    assert g.mul[b][b] == 2  # b^2 = the chosen square element
    assert g.conjugate(b, a) == g.inv[a]


@pytest.mark.parametrize(
    "t, why",
    [(0, "identity"), (1, "involution"), (9, "9"), (1.0, "1.0"), (True, "True")],
    ids=repr,
)
def test_inverting_extension_rejects_bad_square_element(t, why):
    """The identity, an element of order 4, and an index that is out of
    range or not a non-bool int."""
    with pytest.raises(BadSquareElementError, match=why):
        f.make_inverting_extension(f.make_cyclic(4), t)


@pytest.mark.parametrize(
    "make, n",
    [
        (f.make_cyclic, 0),
        (f.make_cyclic, True),
        (f.make_cyclic, 2.0),
        (f.make_dihedral, 5),
        (f.make_dihedral, 8.0),
        (f.make_quaternion, 12),
        (f.make_quaternion, 8.0),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_family_constructors_reject_bad_orders(make, n):
    """A bool would build a group named after it and a float would fail
    inside the table build: both are unsupported orders, named by repr."""
    with pytest.raises(UnsupportedOrderError, match=f"got {n!r}$"):
        make(n)


@pytest.mark.parametrize("n", (8, 16, 32, 64))
def test_quaternion_is_the_inverting_extension_of_a_cyclic_group(n):
    assert f.make_quaternion(n).mul == f.make_inverting_extension(f.make_cyclic(n // 2), n // 4).mul


@pytest.mark.parametrize("n", (4, 6, 8, 16, 32, 64))
def test_dihedral_table_matches_the_closed_form(n):
    """r^i at i and r^i s at m + i: r^i r^j = r^(i+j), r^i . r^j s = r^(i+j) s,
    r^i s . r^j = r^(i-j) s and r^i s . r^j s = r^(i-j)."""
    m = n // 2
    mul = f.make_dihedral(n).mul
    for i in range(m):
        for j in range(m):
            assert mul[i][j] == (i + j) % m
            assert mul[i][m + j] == m + (i + j) % m
            assert mul[m + i][j] == m + (i - j) % m
            assert mul[m + i][m + j] == (i - j) % m


# ---------------------------------------------------------------------------
# table validation


def test_validation_rejects_missing_inverse():
    with pytest.raises(GroupAxiomViolationError):
        f.GroupTable([[0, 1], [1, 1]])


def test_validation_rejects_broken_associativity():
    mul = [list(row) for row in f.make_cyclic(4).mul]
    mul[2][3] = 3  # was 1; keeps the identity row/column intact
    with pytest.raises(GroupAxiomViolationError) as exc:
        f.GroupTable(mul)
    assert exc.value.witness is not None


def test_validation_rejects_bad_shape_and_range():
    with pytest.raises(GroupAxiomViolationError):
        f.GroupTable([[0, 1], [1]])
    with pytest.raises(GroupAxiomViolationError):
        f.GroupTable([[0, 1], [1, 7]])


def test_validation_rejects_wrong_identity():
    # row 0 must reproduce the column index
    with pytest.raises(GroupAxiomViolationError):
        f.GroupTable([[1, 0], [0, 1]])


_C2 = [[0, 1], [1, 0]]
_KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


@pytest.mark.parametrize(
    "labels",
    [["1", "1"], ["1", "0"], ["1", ""], ["1", "a+b"], ["1", " a"], ["1", "a\t"], ["1", 2]],
    ids=["duplicate", "zero", "empty", "plus", "leading-space", "trailing-tab", "not-a-string"],
)
def test_validation_rejects_labels_that_do_not_parse_back(labels):
    with pytest.raises(GroupAxiomViolationError):
        f.GroupTable(_C2, labels=labels)


def test_duplicate_labels_no_longer_make_witnesses_ambiguous():
    # the non-identity element used to render as "1" and parse back as the identity
    with pytest.raises(GroupAxiomViolationError):
        f.GroupTable(_C2, labels=["1", "1"])
    g = f.GroupTable(_C2, labels=["1", "t"])
    assert f.parse_element(g, f.render_element(f.AlgebraElement(g, 2))).mask == 2


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([[[0]], _C2, _KLEIN]).flatmap(
        lambda mul: st.tuples(
            st.just(mul),
            st.lists(st.text(alphabet="ab01+ \t", max_size=3), min_size=len(mul), max_size=len(mul)),
        )
    )
)
def test_accepted_labels_round_trip_through_render_and_parse(table_and_labels):
    mul, labels = table_and_labels
    try:
        g = f.GroupTable(mul, labels=labels)
    except GroupAxiomViolationError:
        return
    for m in range(1 << g.order):
        x = f.AlgebraElement(g, m)
        assert f.parse_element(g, f.render_element(x)).mask == m


# Light's associativity test accepts exactly the tables the cubic check does.

EQUALITY_TABLES = {
    **{name: g.mul for name, g in catalog_groups().items()},
    "Q32": f.make_quaternion(32).mul,
    "Q64": f.make_quaternion(64).mul,
    "Ext(C16)": f.make_inverting_extension(f.make_cyclic(16), 8).mul,
}


def _assert_same_verdict(mul):
    """GroupTable and the cubic oracle accept the same table, with the same
    inverses; a rejection for associativity names a triple that fails, and
    any other rejection has the oracle's message and witness."""
    try:
        want = naive_group_axioms(mul)
    except GroupAxiomViolationError as exc:
        want = None
        want_error = (str(exc), exc.witness)
    try:
        got = f.GroupTable(mul).inv
    except GroupAxiomViolationError as exc:
        got = None
        if str(exc).startswith("associativity"):
            i, j, k = exc.witness
            assert mul[mul[i][j]][k] != mul[i][mul[j][k]]
        else:
            assert (str(exc), exc.witness) == want_error
    assert got == want


def _relabel(mul, rng):
    """Move every non-identity element to a random index."""
    rest = list(range(1, len(mul)))
    rng.shuffle(rest)
    return relabel(mul, [0] + rest)


def _random_loop(n, rng):
    """A random Latin square of order n whose row and column 0 are the identity."""
    mul = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(mul[i][:j]) | {mul[r][j] for r in range(i)}
        choices = [v for v in range(n) if v not in used]
        rng.shuffle(choices)
        for v in choices:
            mul[i][j] = v
            if fill(k + 1):
                return True
        mul[i][j] = None
        return False

    assert fill(0)
    return mul


def _octonion_loop():
    """The Moufang loop of the unit octonions: index 2*i + s is (-1)^s e_i."""
    signed = {}
    for a, b, c in [(1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5)]:
        for x, y, z in [(a, b, c), (b, c, a), (c, a, b)]:
            signed[x, y] = (z, 0)
            signed[y, x] = (z, 1)
    for i in range(8):
        signed[0, i] = signed[i, 0] = (i, 0)
    for i in range(1, 8):
        signed[i, i] = (0, 1)
    return [
        [2 * signed[x // 2, y // 2][0] + (x % 2 ^ y % 2 ^ signed[x // 2, y // 2][1]) for y in range(16)]
        for x in range(16)
    ]


@pytest.mark.parametrize("name", sorted(EQUALITY_TABLES))
def test_light_test_accepts_every_known_group(name):
    _assert_same_verdict(EQUALITY_TABLES[name])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(EQUALITY_TABLES)), st.randoms(use_true_random=False))
def test_light_test_matches_cubic_check_on_relabellings(name, rng):
    _assert_same_verdict(_relabel(EQUALITY_TABLES[name], rng))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(EQUALITY_TABLES)), st.booleans(), st.data())
def test_light_test_matches_cubic_check_on_corruptions(name, relabel, data):
    mul = [list(row) for row in EQUALITY_TABLES[name]]
    if relabel:
        mul = _relabel(mul, data.draw(st.randoms(use_true_random=False)))
    n = len(mul)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    mul[i][j] = data.draw(st.integers(0, n - 1).filter(lambda v: v != mul[i][j]))
    _assert_same_verdict(mul)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(EQUALITY_TABLES)), st.data())
def test_table_checks_name_the_cubic_checks_witness(name, data):
    """Entries out of range (-1 or n) and extra zeros in a row: the first
    zero of a row need not be the two-sided inverse."""
    mul = [list(row) for row in EQUALITY_TABLES[name]]
    n = len(mul)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        mul[i][j] = data.draw(st.sampled_from([-1, 0, n, mul[j][i]]))
    _assert_same_verdict(mul)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_light_test_matches_cubic_check_on_random_loops(n, rng):
    _assert_same_verdict(_random_loop(n, rng))


def test_octonion_moufang_loop_is_rejected_for_associativity():
    mul = _octonion_loop()
    n = len(mul)
    assert all(sorted(row) == list(range(n)) for row in mul)
    assert all(sorted(col) == list(range(n)) for col in zip(*mul))
    assert mul[0] == list(range(n)) and [row[0] for row in mul] == list(range(n))
    assert all(mul[x][x ^ (x > 1)] == 0 == mul[x ^ (x > 1)][x] for x in range(n))
    with pytest.raises(GroupAxiomViolationError, match="associativity") as exc:
        f.GroupTable(mul)
    i, j, k = exc.value.witness
    assert mul[mul[i][j]][k] != mul[i][mul[j][k]]
    _assert_same_verdict(mul)


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_relabelled_octonion_loop_is_rejected(rng):
    mul = _relabel(_octonion_loop(), rng)
    with pytest.raises(GroupAxiomViolationError, match="associativity"):
        f.GroupTable(mul)
    _assert_same_verdict(mul)


# Every catalog table and every ingest table of the benchmark (seed 1).
CORRUPTION_TABLES = {
    **{name: g.mul for name, g in catalog_groups().items()},
    **{name: json.loads(text)["table"] for name, text in ingest_spec_texts(1).items()},
}
NOT_INTEGERS = "a multiplication table must be a list of rows of integers"


def _one_entry_corruptions(mul):
    """Copies of mul with one entry v replaced by float(v), bool(v) (for v in
    {0, 1}), -1, n or "0": at the identity's row and column, at the last
    entry, at one in the middle and at the inverse's zero of the last row."""
    n = len(mul)
    spots = {(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1), (n // 2, n // 3)}
    spots.add((n - 1, list(mul[n - 1]).index(0)))
    for i, j in sorted(spots):
        v = mul[i][j]
        for bad in [float(v), *([bool(v)] if v in (0, 1) else []), -1, n, "0"]:
            out = [list(row) for row in mul]
            out[i][j] = bad
            yield (i, j, bad), out


@pytest.mark.parametrize("name", sorted(CORRUPTION_TABLES))
def test_one_bad_entry_keeps_the_error_message_and_witness(name):
    """A float, a bool or a string hidden among the ints is a ParseError with
    no witness, whatever else the table holds; an int out of range is the
    cubic check's error, with its message and witness."""
    for (i, j, bad), mul in _one_entry_corruptions(CORRUPTION_TABLES[name]):
        if type(bad) is int:
            _assert_same_verdict(mul)
            continue
        with pytest.raises(ParseError) as exc:
            f.GroupTable(mul)
        assert (type(exc.value), str(exc.value)) == (ParseError, NOT_INTEGERS), (i, j, bad)
        assert getattr(exc.value, "witness", None) is None


def test_two_group_predicate():
    assert f.make_cyclic(8).is_two_group()
    c3 = f.GroupTable([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert not c3.is_two_group()


# ---------------------------------------------------------------------------
# structure queries, cross-checked against the naive oracles


def test_center_matches_oracle(any_group):
    assert list(f.center(any_group).members) == naive_center(any_group)


def test_commutator_subgroup_matches_oracle(any_group):
    got = list(f.commutator_subgroup(any_group).members)
    assert got == naive_commutator_subgroup(any_group)


def _assert_center_and_derived_match_oracles(mul):
    g = f.GroupTable(mul)
    assert list(f.center(g).members) == naive_center(g)
    assert list(f.commutator_subgroup(g).members) == naive_commutator_subgroup(g)


def _unitriangular_4x4():
    """The upper unitriangular 4x4 matrices over F2, of order 64 and class 3.

    Its derived subgroup has order 8, while the commutators of a generating
    set can span a non-normal subgroup of order 4: their conjugates are
    needed. Matrix index k holds entry (i, j) above the diagonal in bit k.
    """
    cells = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    mats = [
        [[int(i == j or (i, j) in cells and bits >> cells.index((i, j)) & 1) for j in range(4)] for i in range(4)]
        for bits in range(64)
    ]

    def index(x, y):
        return sum((sum(x[i][k] & y[k][j] for k in range(4)) & 1) << b for b, (i, j) in enumerate(cells))

    return [[index(x, y) for y in mats] for x in mats]


# The group tables of the ingest benchmark, orders 64 to 256, and UT4(F2).
RELABELLED_TABLES = {
    "Q8xC2^3": lambda: f.make_direct_product(
        f.make_quaternion(8),
        f.make_direct_product(f.make_cyclic(2), f.make_direct_product(f.make_cyclic(2), f.make_cyclic(2))),
    ).mul,
    "Q128": lambda: f.make_quaternion(128).mul,
    "D256": lambda: f.make_dihedral(256).mul,
    "Q8xC32": lambda: f.make_direct_product(f.make_quaternion(8), f.make_cyclic(32)).mul,
    "UT4(F2)": _unitriangular_4x4,
}


@pytest.mark.parametrize("name", [*sorted(catalog_groups()), "Q32"])
def test_generator_center_and_derived_subgroup_on_catalog_groups(name):
    """Both are decided on the greedy generators; the oracles test all pairs."""
    mul = f.make_quaternion(32).mul if name == "Q32" else catalog_groups()[name].mul
    _assert_center_and_derived_match_oracles(mul)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(RELABELLED_TABLES))
def test_generator_center_and_derived_subgroup_on_relabelled_tables(name, seed):
    """A relabelling changes the greedy generators but not the answer."""
    _assert_center_and_derived_match_oracles(_relabel(RELABELLED_TABLES[name](), random.Random(seed)))


def test_element_orders_match_oracle(any_group):
    for x in range(any_group.order):
        assert f.element_order(any_group, x) == naive_element_order(any_group, x)


def test_closure_matches_oracle(d8, q16):
    for g, gens in [(d8, [1]), (d8, [2, 4]), (q16, [2]), (q16, [8])]:
        assert list(f.subgroup_closure(g, gens).members) == naive_closure(g, gens)


# Q8 lays out a^i at i and a^i b at 4 + i: <a> = {0..3}, Z(Q8) = {0, 2}.
@pytest.mark.parametrize(
    "call",
    [
        lambda g, i: f.subgroup_closure(g, [i]),
        lambda g, i: f.SubgroupSet.from_members(g, [0, i]),
        lambda g, i: f.element_order(g, i),
        lambda g, i: f.basis(g, i),
        lambda g, i: f.coset_representatives(g, [0, i], range(8)),
        lambda g, i: f.coset_representatives(g, [0, 2], [0, i]),
        lambda g, i: f.make_inverting_form(g, [i], 4),
        lambda g, i: f.make_inverting_form(g, [1], i),
        lambda g, i: g.label(i),
        lambda g, i: g.conjugate(i, 1),
        lambda g, i: g.conjugate(1, i),
    ],
    ids=[
        "subgroup_closure",
        "from_members",
        "element_order",
        "basis",
        "coset_representatives-member",
        "coset_representatives-within",
        "make_inverting_form-a",
        "make_inverting_form-b",
        "label",
        "conjugate-g",
        "conjugate-x",
    ],
)
@pytest.mark.parametrize("index", [99, -1, 1.0, True, "1"], ids=repr)
def test_bad_element_index_is_an_error(q8, call, index):
    """An index is a non-bool int in range(order): a negative one would wrap
    round, a bool or a float would be taken for an int, and one past the end
    would be an IndexError from the table."""
    with pytest.raises(BadIndexError, match=f"element index {index!r} out of range for order 8"):
        call(q8, index)


def test_subgroup_set_validation(q8):
    with pytest.raises(NotASubgroupError):
        f.SubgroupSet.from_members(q8, [0, 1])
    s = f.SubgroupSet.from_members(q8, [0, 1, 2, 3])
    assert s.is_abelian()
    assert list(s.labels()) == ["1", "a", "a2", "a3"]


def _group_generators(g):
    return [1 << x for x in g.greedy_generators]


def test_normality(d8):
    whole = f.group_image(d8)
    rotations = f.group_image(d8, f.subgroup_closure(d8, [1]))
    reflection = f.group_image(d8, f.subgroup_closure(d8, [4]))
    for sub, normal in ((rotations, True), (reflection, False)):
        assert normalizes(d8, _group_generators(d8), sub) is normal
    assert f.internal_semidirect(whole, rotations, reflection)
    assert not f.internal_semidirect(whole, reflection, rotations)


def test_normality_rejects_a_subgroup_of_another_group(q8, d8):
    # <r> of D8 has members 0..3, which are also indices of Q8
    rotations = f.group_image(d8, f.subgroup_closure(d8, [1]))
    with pytest.raises(GroupMismatchError, match="^the normal part belongs"):
        f.internal_semidirect(f.group_image(q8), rotations, f.group_image(q8, f.center(q8)))


def test_normality_of_each_cyclic_subgroup_matches_the_oracle(any_group):
    g = any_group
    everything = [1 << x for x in range(g.order)]
    for x in range(g.order):
        sub = f.group_image(g, f.subgroup_closure(g, [x]))
        normal = normalizes(g, _group_generators(g), sub)
        assert normal is naive_normal_in(g, everything, sub.masks)


@pytest.mark.parametrize("g", list(catalog_groups().values()), ids=lambda g: g.name)
def test_normality_with_conjugators_from_the_subgroup_matches_the_oracle(g):
    """normalizes skips a conjugator that lies in the subgroup, which
    normalizes it. With the members of each cyclic subgroup interleaved
    with the group's generators, the conjugators still generate the group,
    and the verdict is still the oracle's."""
    everything = [1 << x for x in range(g.order)]
    for x in range(g.order):
        sub = f.group_image(g, f.subgroup_closure(g, [x]))
        mixed = [a for pair in zip_longest(sub.masks, _group_generators(g)) for a in pair if a]
        normal = normalizes(g, mixed, sub)
        assert normal is naive_normal_in(g, everything, sub.masks)


def test_coset_representatives_partition_by_each_cyclic_subgroup(any_group):
    """One smallest-index representative per right coset, and the cosets
    tile the group."""
    g = any_group
    for x in range(g.order):
        sub = f.subgroup_closure(g, [x])
        reps = f.coset_representatives(g, sub.members, range(g.order))
        cosets = [{g.mul[h][r] for h in sub.members} for r in reps]
        assert len(reps) * sub.order == g.order
        assert set().union(*cosets) == set(range(g.order))
        assert all(r == min(c) for r, c in zip(reps, cosets))


# Each former group-check site, fed one operand bound to a second Q8: the
# same name and table, built separately, so a different group.
GROUP_BOUND_OPERANDS = {
    "ga_add": lambda g, h: f.ga_add(f.one(g), f.one(h)),
    "ga_mul": lambda g, h: f.ga_mul(f.one(g), f.one(h)),
    "ga_involute": lambda g, h: f.ga_involute(f.classical_involution(h), f.one(g)),
    "check_unitary_split_form": lambda g, h: f.check_unitary_split_form(
        f.make_inverting_form(g, [1], 4), f.one(h)
    ),
    "check_unitary_quadrant_system": lambda g, h: f.check_unitary_quadrant_system(
        f.make_odot_form(g), f.one(h)
    ),
    "UnitSet.__contains__": lambda g, h: f.one(h) in f.group_image(g),
    "group_image": lambda g, h: f.group_image(g, f.center(h)),
    "enumerate_unitary": lambda g, h: f.enumerate_unitary(g, f.classical_involution(h)),
    "unit_subgroup_closure": lambda g, h: f.unit_subgroup_closure(g, [f.one(h)]),
    "internal_semidirect": lambda g, h: f.internal_semidirect(
        f.group_image(g), f.group_image(g, f.center(g)), f.group_image(h, f.center(h))
    ),
    "internal_direct": lambda g, h: f.internal_direct(f.group_image(g), [f.group_image(h)]),
    "find_complement": lambda g, h: f.find_complement(
        f.group_image(g, f.center(g)), f.group_image(h, f.center(h))
    ),
}


@pytest.mark.parametrize("site", sorted(GROUP_BOUND_OPERANDS))
def test_operand_from_another_group_table_is_a_mismatch(q8, site):
    other = f.make_quaternion(8)
    assert (other.name, other.mul) == (q8.name, q8.mul)
    with pytest.raises(GroupMismatchError, match="belongs to a different group table$"):
        GROUP_BOUND_OPERANDS[site](q8, other)


def test_find_complement_requires_containment(c4xc2):
    """A factor outside the ambient set is not contained in it."""
    ambient = f.group_image(c4xc2, f.subgroup_closure(c4xc2, [2]))  # <(a,1)>
    factor = f.group_image(c4xc2, f.subgroup_closure(c4xc2, [1]))  # <(1,a)>
    with pytest.raises(NotSubsetError, match="the factor is not contained"):
        f.find_complement(ambient, factor)


def test_coset_representatives_partition(d8):
    rotations = f.subgroup_closure(d8, [1])
    reps = f.coset_representatives(d8, rotations.members, range(d8.order))
    assert reps == [0, 4]
    seen = set()
    for rep in reps:
        seen.update(d8.mul[x][rep] for x in rotations.members)
    assert seen == set(range(8))


# ---------------------------------------------------------------------------
# abelian complements


def test_complement_in_direct_product(c4xc2):
    ambient = f.group_image(c4xc2)
    factor = f.group_image(c4xc2, f.subgroup_closure(c4xc2, [2]))  # the order-4 factor copy
    comp = f.find_complement(ambient, factor)
    assert comp.masks == (1, 2)


def test_complement_is_canonical_smallest(c4xc2):
    ambient = f.group_image(c4xc2)
    factor = f.group_image(c4xc2, f.subgroup_closure(c4xc2, [1]))  # the order-2 factor copy
    comp = f.find_complement(ambient, factor)
    # a complement of order 4 generated from the smallest possible index
    assert comp.generators[0] == 1 << 2
    assert comp.order == 4
    assert comp.mask_set() & {1, 2} == {1}


def test_no_complement_for_non_direct_factor(c4):
    ambient = f.group_image(c4)
    factor = f.group_image(c4, f.subgroup_closure(c4, [2]))  # {1, a2} is not a direct factor of C4
    with pytest.raises(NoComplementError):
        f.find_complement(ambient, factor)


def test_complement_requires_abelian_ambient(d8):
    ambient = f.group_image(d8)
    factor = f.group_image(d8, f.subgroup_closure(d8, [2]))
    with pytest.raises(NotAbelianError):
        f.find_complement(ambient, factor)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 4, 8, 16]), st.data())
def test_cyclic_subgroup_closure_is_a_subgroup(n, data):
    g = f.make_cyclic(n)
    gens = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    s = f.subgroup_closure(g, gens)
    members = set(s.members)
    assert 0 in members
    for x in members:
        assert g.inv[x] in members
        for y in members:
            assert g.mul[x][y] in members
    assert n % len(members) == 0


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 4, 8]), st.sampled_from([4, 8, 16]))
def test_product_order_histogram_is_componentwise_lcm(nc, nd):
    g1 = f.make_cyclic(nc)
    g2 = f.make_dihedral(nd) if nd > 2 else f.make_cyclic(nd)
    prod = f.make_direct_product(g1, g2)
    assert prod.order == g1.order * g2.order
    for x in range(g1.order):
        for y in range(g2.order):
            ox = f.element_order(g1, x)
            oy = f.element_order(g2, y)
            lcm = ox * oy // math.gcd(ox, oy)
            assert f.element_order(prod, x * g2.order + y) == lcm


# ---------------------------------------------------------------------------
# one subgroup builder: _greedy_generators and its coset step _extend, against
# the fixed-point closures and the from-scratch greedy of oracles.py

CATALOG = catalog_groups()
ABELIAN_TABLES = {
    g.name: g
    for g in [
        f.make_cyclic(8),
        f.make_direct_product(f.make_cyclic(4), f.make_cyclic(2)),
        f.make_direct_product(f.make_cyclic(4), f.make_cyclic(4)),
        f.make_direct_product(f.make_cyclic(2), f.make_direct_product(f.make_cyclic(2), f.make_cyclic(2))),
    ]
}
# V(F2[G]) for the two non-abelian groups of order 8 and two abelian ones.
ABELIAN_UNIT_GROUPS = ["C8", "C4xC2"]
UNIT_GROUPS = {
    g.name: (g, f.enumerate_normalized_units(g).masks)
    for g in [
        f.make_quaternion(8), f.make_dihedral(8), *(ABELIAN_TABLES[k] for k in ABELIAN_UNIT_GROUPS)
    ]
}


def _table_mul(g):
    return lambda x, y: g.mul[x][y]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CATALOG)), st.data())
def test_greedy_generators_match_naive_closure_on_catalog_tables(name, data):
    g = CATALOG[name]
    cands = data.draw(st.lists(st.integers(0, g.order - 1), max_size=6))
    _, span = _greedy_generators(_table_mul(g), 0, cands)
    assert sorted(span) == naive_closure(g, cands)
    # As elements of F2[G] the indices are the masks 1 << i, in the same order.
    gens, _ = _greedy_generators(_table_mul(g), 0, sorted(cands))
    assert [1 << x for x in gens] == naive_canonical_generators(g, [1 << x for x in cands])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["Q8", "D8"]), st.data())
def test_greedy_generators_match_naive_closure_on_unit_groups(name, data):
    g, masks = UNIT_GROUPS[name]
    cands = data.draw(st.lists(st.sampled_from(masks), max_size=5))
    _, span = _greedy_generators(partial(_mul, g), 1, cands)
    assert span == naive_unit_closure(g, cands)
    gens, _ = _greedy_generators(partial(_mul, g), 1, sorted(cands))
    assert gens == naive_canonical_generators(g, cands)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(ABELIAN_TABLES)), st.data())
def test_extend_without_generators_in_abelian_tables(name, data):
    g = ABELIAN_TABLES[name]
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=2))
    c = data.draw(st.integers(0, g.order - 1))
    span = naive_closure(g, gens)
    assert sorted(_extend(_table_mul(g), span, (), c)) == naive_closure(g, gens + [c])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ABELIAN_UNIT_GROUPS), st.data())
def test_extend_without_generators_in_abelian_unit_groups(name, data):
    g, masks = UNIT_GROUPS[name]
    gens = data.draw(st.lists(st.sampled_from(masks), max_size=2))
    c = data.draw(st.sampled_from(masks))
    span = naive_unit_closure(g, gens)
    assert _extend(partial(_mul, g), span, (), c) == naive_unit_closure(g, gens + [c])


def _pairwise_abelian(g, members) -> bool:
    return all(g.mul[x][y] == g.mul[y][x] for x in members for y in members)


@pytest.mark.parametrize("g", [*CATALOG.values(), *ABELIAN_TABLES.values()], ids=lambda g: g.name)
def test_table_is_abelian_matches_pairwise(g):
    assert g.is_abelian() is _pairwise_abelian(g, range(g.order))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CATALOG)), st.data())
def test_subgroup_set_is_abelian_matches_pairwise_on_any_members(name, data):
    """Random member sets, most of them not subgroups: their members lie in
    the span of the generators drawn from them, so the answer is exact."""
    g = CATALOG[name]
    members = data.draw(st.sets(st.integers(0, g.order - 1), max_size=6))
    s = f.SubgroupSet(g, tuple(sorted(members)))
    assert s.is_abelian() is _pairwise_abelian(g, members)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(CATALOG)), st.data())
def test_is_normal_matches_pairwise_conjugation(name, data):
    g = CATALOG[name]
    s = f.subgroup_closure(g, data.draw(st.lists(st.integers(0, g.order - 1), max_size=3)))
    pairwise = all(g.conjugate(x, h) in s for x in range(g.order) for h in s.members)
    image = f.group_image(g, s)
    assert normalizes(g, _group_generators(g), image) is pairwise


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CATALOG)), st.data())
def test_from_members_accepts_exactly_the_subgroups(name, data):
    """Validation compares the members with their span; the oracle closes
    them by the fixed point."""
    g = CATALOG[name]
    members = {0} | data.draw(st.sets(st.integers(0, g.order - 1), max_size=6))
    if data.draw(st.booleans()):  # about half of the draws are subgroups
        members = set(naive_closure(g, members))
    if naive_closure(g, members) == sorted(members):
        assert f.SubgroupSet.from_members(g, members).members == tuple(sorted(members))
    else:
        with pytest.raises(NotASubgroupError):
            f.SubgroupSet.from_members(g, members)
