"""Finite groups as explicit multiplication tables.

Element 0 is always the identity. Constructors emit a documented canonical
element ordering (base-subgroup elements first, then their coset, in
generator-word order) so downstream reports are reproducible.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Callable, Collection, Iterable, Sequence

from .errors import (
    BadIndexError,
    BadSquareElementError,
    GroupAxiomViolationError,
    GroupMismatchError,
    NotAbelianError,
    NotASubgroupError,
    ParseError,
    UnsupportedOrderError,
)


def _is_int(x) -> bool:
    """True for an int that is not a bool: floats and booleans are not indices."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_index(g: GroupTable, i) -> int:
    """i itself when it indexes an element of g: an int, not a bool, in
    range(g.order). Else BadIndexError, as negative indices would wrap."""
    if not (_is_int(i) and 0 <= i < g.order):
        raise BadIndexError(f"element index {i!r} out of range for order {g.order}")
    return i


def _require_group(g: GroupTable, other: GroupTable, what: str) -> None:
    """GroupMismatchError unless ``other`` is the table g itself: equal
    tables built twice are still different groups."""
    if other is not g:
        raise GroupMismatchError(f"{what} belongs to a different group table")


class GroupTable:
    """A finite group given by its full multiplication table.

    Attributes:
        order: number of elements.
        mul: tuple of tuples, ``mul[i][j]`` = index of the product.
        inv: tuple of inverse indices.
        labels: display string per element; ``labels[0] == "1"``.
        greedy_generators: ``_greedy_generators`` over the ascending indices,
            found while validating the table; at most log2(order) elements.
            They are the table's one generating set: the structure checks on
            the table are decided on them.
        family: constructor family name ("cyclic", "dihedral", ...).
        name: short display name ("Q8", "D8xC2", ...).
    """

    def __init__(
        self,
        mul: Sequence[Sequence[int]],
        labels: Sequence[str] | None = None,
        family: str = "table",
        name: str | None = None,
    ):
        try:
            table = tuple(tuple(row) for row in mul)
            types = set().union(*[map(type, row) for row in table])  # one pass
        except TypeError:
            types = {object}  # not rows of entries
        if not all(issubclass(t, int) and t is not bool for t in types):
            raise ParseError("a multiplication table must be a list of rows of integers")
        self.inv, self.greedy_generators = _validate_table(table)
        self.order = len(table)
        self.mul = table
        self.labels = tuple(labels) if labels is not None else tuple(
            "1" if i == 0 else f"g{i}" for i in range(self.order)
        )
        if len(self.labels) != self.order:
            raise GroupAxiomViolationError(
                f"{len(self.labels)} labels for order {self.order}"
            )
        _check_labels(self.labels)
        self.family = family
        self.name = name or f"G{self.order}"
        self._conv_tables: list[list[int]] | None = None  # lazy, see algebra

    def label(self, i: int) -> str:
        return self.labels[_require_index(self, i)]

    def is_abelian(self) -> bool:
        return _generators_commute(self.mul, self.greedy_generators)

    def is_two_group(self) -> bool:
        return self.order & (self.order - 1) == 0

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1, for element indices g and x."""
        g, x = _require_index(self, g), _require_index(self, x)
        return self.mul[self.mul[g][x]][self.inv[g]]

    def __repr__(self) -> str:
        return f"GroupTable({self.name}, order={self.order})"


def _check_labels(labels: Sequence[str]) -> None:
    """Reject labels that render_element -> parse_element would not round
    trip: parsing splits on '+', strips each term and reads '0' as zero, so
    labels must be distinct, non-empty, stripped strings other than '0'."""
    for i, lab in enumerate(labels):
        if not isinstance(lab, str) or lab in ("", "0") or "+" in lab or lab != lab.strip():
            raise GroupAxiomViolationError(f"label {lab!r} does not parse back", witness=(i,))
    if len(set(labels)) < len(labels):
        raise GroupAxiomViolationError("two elements share a label")


def _validate_table(
    mul: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Check all group axioms; return the inverse array and the generators.

    Lengths and entries are checked as two sets; only a table that fails is
    walked row by row, to name the witness an entry-by-entry check would.
    Associativity is checked by Light's test (Clifford & Preston, 1961): for
    each greedy generator ``a``, ``(x*a)*y == x*(a*y)`` for all ``x``, ``y``.
    The elements that pass are closed under products and the coset step
    forms every element as a product of generators, so the whole table
    passes. There are at most log2(n) generators: O(log(n) n^2).
    """
    n = len(mul)
    if n == 0:
        raise GroupAxiomViolationError("empty table")
    if set(map(len, mul)) != {n} or not set().union(*mul) <= set(range(n)):
        for i, row in enumerate(mul):  # the first bad row names the witness
            if len(row) != n:
                raise GroupAxiomViolationError(f"row {i} has length {len(row)}, want {n}")
            if min(row) < 0 or max(row) >= n:
                j, v = next((j, v) for j, v in enumerate(row) if not 0 <= v < n)
                raise GroupAxiomViolationError(
                    f"entry mul[{i}][{j}] = {v} out of range", witness=(i, j, v)
                )
    for i in range(n):
        if mul[0][i] != i or mul[i][0] != i:
            raise GroupAxiomViolationError(
                f"element 0 is not an identity at {i}", witness=(0, i, mul[0][i])
            )
    inv = []
    for i, row in enumerate(mul):
        # The first zero of the row is the inverse when it is two-sided; a
        # table not yet known to be a group may hold more zeros, so search on.
        try:
            j = row.index(0)
        except ValueError:
            j = None
        if j is None or mul[j][i] != 0:
            j = next((j for j in range(n) if row[j] == 0 and mul[j][i] == 0), None)
        if j is None:
            raise GroupAxiomViolationError(f"element {i} has no inverse", witness=(i,))
        inv.append(j)
    gens, _ = _greedy_generators(lambda u, v: mul[u][v], 0, range(n))
    for a in gens:
        row_a = mul[a]
        compose = itemgetter(*row_a)  # row x -> the row of x*(a*y) over y
        for x in range(n):
            row_xa = mul[mul[x][a]]
            if row_xa != compose(mul[x]):
                y = next(y for y in range(n) if row_xa[y] != mul[x][row_a[y]])
                raise GroupAxiomViolationError(
                    f"associativity fails at ({x},{a},{y})", witness=(x, a, y)
                )
    return tuple(inv), tuple(gens)


def _generators_commute(mul: Sequence[Sequence[int]], gens: Sequence[int]) -> bool:
    """True iff the generators commute pairwise, so their span is abelian."""
    return all(mul[a][b] == mul[b][a] for a, b in combinations(gens, 2))


class SubgroupSet:
    """A subgroup as a sorted tuple of element indices."""

    def __init__(self, group: GroupTable, members: tuple[int, ...]):
        self.group, self.members = group, members

    @staticmethod
    def from_members(group: GroupTable, members: Iterable[int]) -> SubgroupSet:
        ms = tuple(sorted({_require_index(group, x) for x in members}))
        if 0 not in ms:
            raise NotASubgroupError("member set does not contain the identity")
        # A finite set is a subgroup exactly when it is the span of its members.
        escaped = _greedy_generators(lambda x, y: group.mul[x][y], 0, ms)[1].difference(ms)
        if escaped:
            raise NotASubgroupError(f"not closed: element {min(escaped)} is a product of members")
        return SubgroupSet(group, ms)

    @property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def member_set(self) -> frozenset[int]:
        return self._member_set

    def __contains__(self, x: int) -> bool:
        """Membership by equality, as for ``range``: 1.0 and True are the index 1."""
        return x in self.member_set()

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The greedy generators over the ascending members."""
        mul = self.group.mul
        gens, _ = _greedy_generators(lambda x, y: mul[x][y], 0, self.members)
        return tuple(gens)

    def is_abelian(self) -> bool:
        """Exact even on members that are not a subgroup: they lie in the span."""
        return _generators_commute(self.group.mul, self.generators)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.group.labels[i] for i in self.members)


# ---------------------------------------------------------------------------
# constructors


def make_cyclic(n: int) -> GroupTable:
    """Cyclic group of order n, generator at index 1."""
    if not (_is_int(n) and n >= 1):
        raise UnsupportedOrderError(f"cyclic order must be an int >= 1, got {n!r}")
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["1"] + ["a" if i == 1 else f"a{i}" for i in range(1, n)]
    return GroupTable(mul, labels, family="cyclic", name=f"C{n}")


def _inverting_table(
    amul: Sequence[Sequence[int]], ainv: Sequence[int], t: int
) -> list[list[int]]:
    """The table of abelian A extended by b with b^2 = t and b^-1 a b = a^-1:
    A at 0..|A|-1, then a_i*b at |A| + i."""
    na = len(amul)
    mul = [[0] * (2 * na) for _ in range(2 * na)]
    for i in range(na):
        for j in range(na):
            k = amul[i][ainv[j]]
            mul[i][j] = amul[i][j]
            mul[i][na + j] = na + amul[i][j]
            mul[na + i][j] = na + k
            mul[na + i][na + j] = amul[k][t]
    return mul


def make_dihedral(n: int) -> GroupTable:
    """Dihedral group of order n (n even, n >= 4): rotations first, then
    reflections; the inverting extension of C(n/2) with b^2 = 1."""
    if not (_is_int(n) and n >= 4 and n % 2 == 0):
        raise UnsupportedOrderError(f"dihedral order must be an even int >= 4, got {n!r}")
    m = n // 2
    cyc = [[(i + j) % m for j in range(m)] for i in range(m)]
    mul = _inverting_table(cyc, [-i % m for i in range(m)], 0)
    labels = ["1"] + ["r" if i == 1 else f"r{i}" for i in range(1, m)]
    labels += ["s"] + ["rs" if i == 1 else f"r{i}s" for i in range(1, m)]
    return GroupTable(mul, labels, family="dihedral", name=f"D{n}")


def make_quaternion(n: int) -> GroupTable:
    """Generalized quaternion group of order n (a power of 2, n >= 8).

    Index layout: a^i at i for i < n/2, then a^i*b at n/2 + i, with
    b^2 = a^(n/4) and b^-1 a b = a^-1.
    """
    if not (_is_int(n) and n >= 8 and n & (n - 1) == 0):
        raise UnsupportedOrderError(f"quaternion order must be a power of 2 and >= 8, got {n!r}")
    m = n // 2
    cyc = [[(i + j) % m for j in range(m)] for i in range(m)]
    mul = _inverting_table(cyc, [-i % m for i in range(m)], m // 2)
    labels = ["1"] + ["a" if i == 1 else f"a{i}" for i in range(1, m)]
    labels += ["b"] + ["ab" if i == 1 else f"a{i}b" for i in range(1, m)]
    return GroupTable(mul, labels, family="quaternion", name=f"Q{n}")


def make_direct_product(g1: GroupTable, g2: GroupTable) -> GroupTable:
    """Componentwise product; index of (x, y) is x*|g2| + y."""
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    mul = [[0] * n for _ in range(n)]
    for x1 in range(n1):
        for y1 in range(n2):
            i = x1 * n2 + y1
            row1 = g1.mul[x1]
            row2 = g2.mul[y1]
            for x2 in range(n1):
                base = row1[x2] * n2
                for y2 in range(n2):
                    mul[i][x2 * n2 + y2] = base + row2[y2]
    labels = [
        f"({g1.labels[x]},{g2.labels[y]})" for x in range(n1) for y in range(n2)
    ]
    labels[0] = "1"
    return GroupTable(mul, labels, family="direct_product", name=f"{g1.name}x{g2.name}")


def make_inverting_extension(a_group: GroupTable, t: int) -> GroupTable:
    """Extend abelian A by an element b with b^2 = t and b^-1 a b = a^-1.

    Index layout: A at 0..|A|-1 (same order as a_group), then a_i*b at
    |A| + i. b itself sits at index |A| and has order exactly 4.
    """
    if not a_group.is_abelian():
        raise NotAbelianError("inverting extension needs an abelian base")
    na = a_group.order
    if not (_is_int(t) and 0 < t < na):
        raise BadSquareElementError(f"square element index {t!r} out of range or identity")
    if a_group.mul[t][t] != 0:
        raise BadSquareElementError(f"square element {a_group.labels[t]} is not an involution")
    mul = _inverting_table(a_group.mul, a_group.inv, t)
    labels = list(a_group.labels) + [
        "b" if i == 0 else f"{a_group.labels[i]}*b" for i in range(na)
    ]
    return GroupTable(
        mul, labels, family="inverting_extension", name=f"Ext({a_group.name},{a_group.labels[t]})"
    )


# ---------------------------------------------------------------------------
# subgroup machinery


def _extend(
    mul_fn: Callable[[int, int], int], span: Collection[int], gens: Sequence[int], x: int
) -> set[int]:
    """The subgroup generated by the subgroup ``span`` and x, as a union of
    right cosets span*r: Dimino's coset step (Butler, Fundamental Algorithms
    for Permutation Groups, 1991). Each representative times each of
    ``gens`` (span's generators) and x lands in a listed coset or starts a
    new one, listed once. In an abelian group x alone permutes the cosets,
    so ``gens`` may be empty."""
    old = list(span)
    grown = set(old)
    grown.update(mul_fn(h, x) for h in old)
    reps = [x]
    for r in reps:
        for s in (*gens, x):
            y = mul_fn(r, s)
            if y not in grown:
                reps.append(y)
                grown.update(mul_fn(h, y) for h in old)
    return grown


def _greedy_generators(
    mul_fn: Callable[[int, int], int], identity: int, candidates: Iterable[int]
) -> tuple[list[int], set[int]]:
    """The subgroup the candidates generate and its greedy generators: each
    candidate outside the span so far is one, and ``_extend`` grows the span
    by it, at least doubling it, so a group of order n gets log2(n) at most."""
    gens: list[int] = []
    span = {identity}
    for x in candidates:
        if x not in span:
            span = _extend(mul_fn, span, gens, x)
            gens.append(x)
    return gens, span


def subgroup_closure(g: GroupTable, gens: Iterable[int]) -> SubgroupSet:
    """Smallest subgroup containing gens."""
    gens = [_require_index(g, i) for i in gens]
    _, members = _greedy_generators(lambda x, y: g.mul[x][y], 0, gens)
    return SubgroupSet(g, tuple(sorted(members)))


def center(g: GroupTable) -> SubgroupSet:
    """The elements that commute with every generator, hence with everything."""
    mul = g.mul
    gens = g.greedy_generators
    members = tuple(x for x in range(g.order) if all(mul[x][a] == mul[a][x] for a in gens))
    return SubgroupSet(g, members)


def commutator_subgroup(g: GroupTable) -> SubgroupSet:
    """The derived subgroup, as the normal closure of the commutators of
    generator pairs: modulo that closure the generators commute."""
    mul = g.mul
    inv = g.inv
    gens = g.greedy_generators
    comms = {mul[mul[inv[a]][inv[b]]][mul[a][b]] for a in gens for b in gens}
    return subgroup_closure(g, {mul[mul[x][c]][inv[x]] for x in range(g.order) for c in comms})


def element_order(g: GroupTable, x: int) -> int:
    _require_index(g, x)
    k = 1
    y = x
    while y != 0:
        y = g.mul[y][x]
        k += 1
    return k


def coset_representatives(
    g: GroupTable, sub_members: Iterable[int], within: Iterable[int]
) -> list[int]:
    """Smallest-index representatives of the right cosets of a subgroup."""
    sub = [_require_index(g, h) for h in sub_members]
    covered: set[int] = set()
    reps = []
    for x in sorted(_require_index(g, x) for x in within):
        if x in covered:
            continue
        reps.append(x)
        covered.update(g.mul[h][x] for h in sub)
    return reps
