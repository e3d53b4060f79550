"""Arithmetic of the group algebra over the two-element field.

An element is a subset of the group, stored as an integer bitmask: bit i set
means basis element i has coefficient 1. Addition is XOR; multiplication is
convolution through the group table. The tables cached on the group map each
byte of x to its images under all n right translations at once, packed in
one word, so a product costs one lookup per byte of x and one shift per
term of y (see ``_conv_tables``).

The arithmetic core works on bare masks: ``_mul``, ``_products`` (one
mask times many, x's translates looked up once), ``_squares``, ``_inverse``
and ``_involute``. Every loop that multiplies single masks
calls it directly; the member checks and the scan multiply on bit planes
instead (see ``unitgroup``); ``_coset_parts`` and ``_render`` split and
print masks.
``AlgebraElement`` is the API wrapper: the public ``ga_*`` functions and
``render_element`` check their operands' group, call the core, and wrap
the result.
"""

from __future__ import annotations

from functools import partial, reduce
from typing import Iterable, Sequence

from .errors import BadCosetsError, NotAUnitError, ParseError
from .groups import GroupTable, SubgroupSet, _is_int, _require_group, _require_index


class AlgebraElement:
    """A sum of group elements with coefficients in the two-element field.

    Read-only and hashable; two elements are equal when they are bound to the
    same table object and have the same mask.
    """

    def __init__(self, group: GroupTable, mask: int):
        if not (_is_int(mask) and 0 <= mask < (1 << group.order)):
            raise ValueError(f"mask {mask!r} out of range for order {group.order}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.group is other.group and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.group, self.mask))

    def support(self) -> tuple[int, ...]:
        """Indices of the group elements with coefficient 1."""
        return tuple(i for i in range(self.group.order) if (self.mask >> i) & 1)

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        return ga_add(self, other)

    def __mul__(self, other: AlgebraElement) -> AlgebraElement:
        return ga_mul(self, other)

    def is_zero(self) -> bool:
        return self.mask == 0

    def is_one(self) -> bool:
        return self.mask == 1

    def __repr__(self) -> str:
        return f"AlgebraElement({self.group.name}, {render_element(self)!r})"


def zero(group: GroupTable) -> AlgebraElement:
    return AlgebraElement(group, 0)


def one(group: GroupTable) -> AlgebraElement:
    return AlgebraElement(group, 1)


def basis(group: GroupTable, i: int) -> AlgebraElement:
    """The group element at index i, viewed in the algebra."""
    return AlgebraElement(group, 1 << _require_index(group, i))


def _same_group(x: AlgebraElement, y: AlgebraElement) -> GroupTable:
    _require_group(x.group, y.group, "the second operand")
    return x.group


def ga_add(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(_same_group(x, y), x.mask ^ y.mask)


def _conv_tables(g: GroupTable) -> list[list[int]]:
    """tables[c][v]: the byte v at chunk c under every right translation at once.

    Basis element i moves under right multiplication by g_j to i*g_j, so the
    word images[i] = sum over j of 2^(i*g_j + n j) holds all n translates of
    i, the one by g_j in bits n j .. n j + n - 1. Right translation is linear,
    so the byte v at chunk c maps to the XOR of the images of its set bits:
    ``_span`` of the (at most 8) images of the chunk.
    """
    tabs = g._conv_tables
    if tabs is None:
        n = g.order
        images = [sum(1 << (k + n * j) for j, k in enumerate(row)) for row in g.mul]
        tabs = [_span(images[c : c + 8]) for c in range(0, n, 8)]
        g._conv_tables = tabs
    return tabs


def _translates(g: GroupTable, x: int) -> int:
    """The word whose bits n j .. n j + n - 1 hold x*g_j, by one lookup per
    byte of x (see ``_conv_tables``): the lookup loop that ``_mul`` and
    ``_products`` share. It reads the cached tables itself, so that a
    product makes no more calls than with the loop inline."""
    tabs = g._conv_tables or _conv_tables(g)
    moved = 0
    c = 0
    while x:
        byte = x & 0xFF
        if byte:
            moved ^= tabs[c][byte]
        x >>= 8
        c += 1
    return moved


def _mul(g: GroupTable, x: int, y: int) -> int:
    """The product of two masks.

    x*y is the sum of x*g_j over the support of y, so it is the XOR of
    ``_translates(g, x) >> n j`` over that support, cut to its low n bits:
    the shift brings x*g_j down to bits 0 .. n - 1, and whatever it brings
    above them is masked off.
    """
    moved = _translates(g, x)
    n = g.order
    acc = 0
    while y:
        j = (y & -y).bit_length() - 1
        y &= y - 1
        acc ^= moved >> (n * j)
    return acc & ((1 << n) - 1)


def _products(g: GroupTable, x: int, ys: Iterable[int]) -> list[int]:
    """x*y for every y in ys, as ``_mul`` computes it, with x's translates
    looked up once: each product then costs one shift per term of y."""
    moved = _translates(g, x)
    n = g.order
    full = (1 << n) - 1
    out = []
    for y in ys:
        acc = 0
        while y:
            j = (y & -y).bit_length() - 1
            y &= y - 1
            acc ^= moved >> (n * j)
        out.append(acc & full)
    return out


def _involute(perm, x: int) -> int:
    """Move the weight at each g of the mask to perm[g]."""
    out = 0
    while x:
        i = (x & -x).bit_length() - 1
        x &= x - 1
        out |= 1 << perm[i]
    return out


def _squares(g: GroupTable, x: int) -> list[int]:
    """The powers x^(2^i) that fall short of 1, by repeated squaring.

    A unit x = 1 + j of a 2-group algebra, with j in the augmentation ideal
    J, has x^(2^i) = 1 + j^(2^i), and J^|G| = 0 (its powers shrink
    strictly, and dim J = |G| - 1). So a square still short of 1 once
    2^i >= |G| means x is not a unit (this also flags non-2-groups fed in
    as raw tables).
    """
    squares = []
    while x != 1:
        if 1 << len(squares) >= g.order:
            raise NotAUnitError("repeated squaring never reached 1: not a unit")
        squares.append(x)
        x = _mul(g, x, x)
    return squares


def _inverse(g: GroupTable, x: int) -> int:
    """Invert a normalized mask: if x^(2^k) = 1, the inverse x^(2^k - 1) is
    the product of the squares x^(2^i), i < k (see ``_squares``)."""
    if x.bit_count() & 1 == 0:
        raise NotAUnitError("augmentation 0: not a unit")
    return reduce(partial(_mul, g), _squares(g, x) or [1])


def ga_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    g = _same_group(x, y)
    return AlgebraElement(g, _mul(g, x.mask, y.mask))


def augmentation(x: AlgebraElement) -> int:
    """Sum of the coefficients in the two-element field: 0 or 1."""
    return x.mask.bit_count() & 1


def ga_involute(sigma, x: AlgebraElement) -> AlgebraElement:
    """Apply an anti-automorphism coefficientwise: the weight at g moves to sigma(g)."""
    _require_group(x.group, sigma.group, "the involution")
    return AlgebraElement(x.group, _involute(sigma.perm, x.mask))


def ga_inverse(x: AlgebraElement) -> AlgebraElement:
    """Inverse of a unit; NotAUnitError otherwise (see _inverse)."""
    return AlgebraElement(x.group, _inverse(x.group, x.mask))


def _eliminate(
    columns: Iterable[int], selectors: Sequence[int] | None = None
) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Gaussian elimination over F2, lowest set bit first.

    Column j carries a selector (default 1 << j) that takes the same XORs.
    A column that survives reduction becomes the pivot at its lowest bit;
    one that vanishes puts its selector into the kernel. Returns
    (pivots: row -> (column, selector), kernel selectors in column order).
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for j, col in enumerate(columns):
        sel = 1 << j if selectors is None else selectors[j]
        while col:
            row = (col & -col).bit_length() - 1
            if row not in pivots:
                pivots[row] = (col, sel)
                break
            pcol, psel = pivots[row]
            col ^= pcol
            sel ^= psel
        else:
            kernel.append(sel)
    return pivots, kernel


def _span(basis: Iterable[int]) -> list[int]:
    """Every XOR of basis vectors; entry v takes those at the set bits of v."""
    span = [0]
    for v in basis:
        span += [m ^ v for m in span]
    return span


def _coset_parts(g: GroupTable, mask: int, sub: SubgroupSet, reps: Sequence[int]) -> list[int]:
    """Split a mask over the right cosets sub*r, r in reps: part k lies on
    sub, and the mask is the sum of part k times reps[k]. Raises
    BadCosetsError unless the cosets partition the group."""
    where: dict[int, tuple[int, int]] = {}
    for k, r in enumerate(reps):
        for c in sub.members:
            el = g.mul[c][r]
            if el in where:
                raise BadCosetsError(f"cosets overlap at element {g.labels[el]}")
            where[el] = (k, c)
    if len(where) != g.order:
        raise BadCosetsError("cosets do not cover the group")
    parts = [0] * len(reps)
    while mask:
        i = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        k, c = where[i]
        parts[k] |= 1 << c
    return parts


# ---------------------------------------------------------------------------
# text rendering


def _render(g: GroupTable, mask: int) -> str:
    """Canonical display of a mask: labels of the support joined by ' + ', or '0'."""
    return " + ".join(g.labels[i] for i in range(g.order) if mask >> i & 1) or "0"


def render_element(x: AlgebraElement) -> str:
    """Canonical display of an element (see _render)."""
    return _render(x.group, x.mask)


def parse_element(group: GroupTable, text: str) -> AlgebraElement:
    """Inverse of render_element; accepts any order and repeated terms (which cancel)."""
    s = text.strip()
    if s == "0":
        return zero(group)
    index = {lab: i for i, lab in enumerate(group.labels)}
    m = 0
    for term in s.split("+"):
        lab = term.strip()
        if lab not in index:
            raise ParseError(f"unknown element label {lab!r} for group {group.name}")
        m ^= 1 << index[lab]
    return AlgebraElement(group, m)
