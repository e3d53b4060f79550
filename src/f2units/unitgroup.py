"""Normalized units of the group algebra and subgroup structure checks.

The unit group of F2[G] for a 2-group G consists of exactly the elements with
augmentation 1. Enumeration walks all such bitmasks (the top bit is parity-
corrected, the rest are free), optionally in parallel over contiguous chunks;
a final sort restores the canonical ascending-mask order, so output is
identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import AlgebraElement, ga_inverse, ga_mul
from .errors import (
    GroupMismatchError,
    NotAbelianError,
    NotASubgroupError,
    NotAUnitError,
    NotSubsetError,
    ParseError,
    TooLargeError,
)
from .groups import GroupTable, SubgroupSet, complement_generators, find_complement_subgroup
from .involutions import AntiAutomorphism

DEFAULT_EXHAUSTIVE_BOUND = 16
THREADS_ENV_VAR = "F2UNITS_THREADS"


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else the environment variable, else the CPU count."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ParseError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class UnitSet:
    """A set of units, stored as sorted bitmasks (the canonical order).

    Closure is maintained by the operations that build UnitSets, not
    revalidated on construction; every member must have augmentation 1 and
    the identity must be present.
    """

    group: GroupTable
    masks: tuple[int, ...]
    sigma: AntiAutomorphism | None = None
    generators: tuple[int, ...] | None = None

    def __post_init__(self):
        if 1 not in self.masks:
            raise NotASubgroupError("a unit set must contain the identity")

    @property
    def order(self) -> int:
        return len(self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def mask_set(self) -> frozenset[int]:
        return frozenset(self.masks)

    def __contains__(self, x) -> bool:
        m = x.mask if isinstance(x, AlgebraElement) else int(x)
        return m in self.mask_set()

    def elements(self) -> Iterator[AlgebraElement]:
        for m in self.masks:
            yield AlgebraElement(self.group, m)


def make_unit_set(
    group: GroupTable,
    masks: Iterable[int],
    sigma: AntiAutomorphism | None = None,
    generators: Sequence[int] | None = None,
) -> UnitSet:
    return UnitSet(
        group,
        tuple(sorted(set(masks))),
        sigma,
        tuple(generators) if generators is not None else None,
    )


def group_image(g: GroupTable, sub: SubgroupSet | None = None) -> UnitSet:
    """The group (or a subgroup) embedded in the unit group as basis vectors."""
    ids = sub.members if sub is not None else range(g.order)
    return make_unit_set(g, (1 << i for i in ids), generators=tuple(1 << i for i in ids))


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _support_spread(members: Sequence[int]) -> list[list[int]]:
    """Byte tables mapping packed candidate bits onto support positions."""
    k = len(members)
    tables = []
    for c in range(0, k, 8):
        width = min(8, k - c)
        arr = [0] * 256
        for v in range(1, 1 << width):
            low = v & -v
            arr[v] = arr[v ^ low] | (1 << members[c + low.bit_length() - 1])
        tables.append(arr)
    return tables


def _candidate_masks(members: Sequence[int], lo: int, hi: int) -> Iterator[int]:
    """Augmentation-1 masks over the support, for packed prefixes in [lo, hi)."""
    k = len(members)
    spread = _support_spread(members)
    top = 1 << members[k - 1]
    nchunks = len(spread)
    for v in range(lo, hi):
        m = 0
        x = v
        c = 0
        while x:
            byte = x & 0xFF
            if byte:
                m |= spread[c][byte]
            x >>= 8
            c += 1
        if bin(v).count("1") & 1:
            yield m
        else:
            yield m | top


def _check_bound(k: int, max_order: int) -> None:
    if k > max_order:
        raise TooLargeError(
            f"exhaustive enumeration over {k} free coefficient positions exceeds "
            f"the bound {max_order}; raise the bound explicitly to override"
        )


def _scan(
    g: GroupTable,
    members: Sequence[int],
    keep: Callable[[int], bool],
    workers: int | None,
) -> list[int]:
    total = 1 << (len(members) - 1)
    nworkers = min(resolve_workers(workers), total)
    if nworkers <= 1 or total < 1 << 10:
        return sorted(m for m in _candidate_masks(members, 0, total) if keep(m))

    step = (total + nworkers - 1) // nworkers
    ranges = [(i, min(i + step, total)) for i in range(0, total, step)]

    def work(bounds: tuple[int, int]) -> list[int]:
        lo, hi = bounds
        return [m for m in _candidate_masks(members, lo, hi) if keep(m)]

    with ThreadPoolExecutor(max_workers=nworkers) as pool:
        chunks = list(pool.map(work, ranges))
    found = [m for chunk in chunks for m in chunk]
    found.sort()
    return found


def enumerate_normalized_units(
    g: GroupTable,
    max_order: int = DEFAULT_EXHAUSTIVE_BOUND,
    workers: int | None = None,
    support: SubgroupSet | None = None,
) -> UnitSet:
    """All augmentation-1 elements, each verified invertible.

    With ``support`` the enumeration runs inside the subalgebra spanned by a
    subgroup; the bound applies to the number of free coefficient positions.
    """
    members = tuple(support.members) if support is not None else tuple(range(g.order))
    _check_bound(len(members), max_order)

    def keep(m: int) -> bool:
        ga_inverse(AlgebraElement(g, m))  # raises if not a unit
        return True

    return make_unit_set(g, _scan(g, members, keep, workers))


def enumerate_unitary(
    g: GroupTable,
    sigma: AntiAutomorphism,
    max_order: int = DEFAULT_EXHAUSTIVE_BOUND,
    workers: int | None = None,
    support: SubgroupSet | None = None,
) -> UnitSet:
    """All normalized units u with u * sigma(u) = 1, in canonical order."""
    if sigma.group is not g:
        raise GroupMismatchError("involution belongs to a different group")
    members = tuple(support.members) if support is not None else tuple(range(g.order))
    _check_bound(len(members), max_order)
    perm = sigma.perm

    def keep(m: int) -> bool:
        x = m
        im = 0
        while x:
            i = (x & -x).bit_length() - 1
            x &= x - 1
            im |= 1 << perm[i]
        return ga_mul(AlgebraElement(g, m), AlgebraElement(g, im)).mask == 1

    return make_unit_set(g, _scan(g, members, keep, workers), sigma=sigma)


# ---------------------------------------------------------------------------
# closure and structure


def unit_subgroup_closure(
    g: GroupTable, gens: Iterable[AlgebraElement], sigma: AntiAutomorphism | None = None
) -> UnitSet:
    """Smallest multiplicatively closed set of units containing gens."""
    gen_masks = []
    for x in gens:
        if x.group is not g:
            raise GroupMismatchError("generator from a different group")
        ga_inverse(x)  # NotAUnitError on a non-unit generator
        gen_masks.append(x.mask)
    seen = {1}
    queue = [1]
    while queue:
        m = queue.pop()
        xm = AlgebraElement(g, m)
        for gn in gen_masks:
            y = ga_mul(xm, AlgebraElement(g, gn)).mask
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return make_unit_set(g, seen, sigma=sigma, generators=gen_masks)


def product_masks(g: GroupTable, left: Iterable[int], right: Iterable[int]) -> frozenset[int]:
    """The set of pairwise products of two mask collections."""
    rights = [AlgebraElement(g, m) for m in right]
    out = set()
    for lm in left:
        le = AlgebraElement(g, lm)
        for re in rights:
            out.add(ga_mul(le, re).mask)
    return frozenset(out)


def _require_subset(ambient: UnitSet, part: UnitSet, name: str) -> None:
    if part.group is not ambient.group:
        raise GroupMismatchError(f"{name} lives in a different group")
    if not part.mask_set() <= ambient.mask_set():
        raise NotSubsetError(f"{name} is not contained in the ambient unit set")


def internal_semidirect(ambient: UnitSet, n: UnitSet, k: UnitSet) -> bool:
    """True iff n is normal in ambient, meets k trivially, and n*k = ambient.

    Once n*k = ambient, the generators of n and k generate the ambient group,
    so normality is decided by conjugating n's generators by them.
    """
    _require_subset(ambient, n, "the normal part")
    _require_subset(ambient, k, "the complement part")
    g = ambient.group
    if n.mask_set() & k.mask_set() != {1}:
        return False
    if product_masks(g, n.masks, k.masks) != ambient.mask_set():
        return False
    return normalizes(g, gens_of(n) + gens_of(k), n)


def product_of(g: GroupTable, factors: Sequence[UnitSet]) -> frozenset[int]:
    """The set of products f0*f1*...*fk, one member from each factor in turn."""
    total = factors[0].mask_set()
    for f in factors[1:]:
        total = product_masks(g, total, f.masks)
    return total


def is_direct(g: GroupTable, factors: Sequence[UnitSet]) -> bool:
    """True iff the subgroups generate their internal direct product.

    They must commute pairwise (decided on generators) and each must meet the
    product of the factors before it only in the identity; for pairwise
    commuting subgroups this is the standard criterion. The last factor is
    never multiplied into the running product.
    """
    gens = [gens_of(f) for f in factors]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if not commute(g, gens[i], gens[j]):
                return False
    prefix = factors[0].mask_set()
    for i in range(1, len(factors)):
        if factors[i].mask_set() & prefix != {1}:
            return False
        if i + 1 < len(factors):
            prefix = product_masks(g, prefix, factors[i].masks)
    return True


def internal_direct(ambient: UnitSet, factors: Sequence[UnitSet]) -> bool:
    """True iff the factors form a direct product (see is_direct) whose
    product is the ambient set."""
    for i, f in enumerate(factors):
        _require_subset(ambient, f, f"factor {i}")
    g = ambient.group
    return is_direct(g, factors) and product_of(g, factors) == ambient.mask_set()


def _is_abelian_units(s: UnitSet) -> bool:
    gens = gens_of(s)
    return commute(s.group, gens, gens)


def _element_order_in_units(g: GroupTable, m: int) -> int:
    order = 1
    cur = AlgebraElement(g, m)
    x = cur
    while cur.mask != 1:
        cur = ga_mul(cur, x)
        order += 1
        if order > 1 << 20:
            raise NotAUnitError("order computation runaway: not a unit")
    return order


def structure_predicates(s: UnitSet) -> dict:
    """Shape fingerprint: elementary-abelian flag, rank, exponent.

    Abelianness and exponent 2 are decided from the generators (sound:
    commuting involutions generate an elementary abelian group).
    """
    g = s.group
    gens = gens_of(s)
    abelian = commute(g, gens, gens)
    squares_one = all(ga_mul(AlgebraElement(g, m), AlgebraElement(g, m)).mask == 1 for m in gens)
    elementary = abelian and squares_one
    rank = s.order.bit_length() - 1 if elementary else None
    if elementary:
        exponent = 1 if s.order == 1 else 2
    else:
        exponent = max(_element_order_in_units(g, m) for m in s.masks)
    return {"is_elementary_abelian_2": elementary, "rank": rank, "exponent": exponent}


def elements_of_order_dividing_2(v: UnitSet) -> UnitSet:
    """Subgroup of self-inverse members of an abelian unit set."""
    if not _is_abelian_units(v):
        raise NotAbelianError("order-dividing-2 subgroup requires an abelian ambient")
    g = v.group
    kept = [m for m in v.masks if ga_mul(AlgebraElement(g, m), AlgebraElement(g, m)).mask == 1]
    return make_unit_set(g, kept, sigma=v.sigma)


def canonical_generators(s: UnitSet) -> list[int]:
    """Greedy generating set over the canonical member order (deterministic)."""
    g = s.group
    span = {1}
    gens: list[int] = []
    for m in s.masks:
        if m in span:
            continue
        gens.append(m)
        span = set(
            unit_subgroup_closure(g, [AlgebraElement(g, x) for x in gens]).masks
        )
    return gens


def gens_of(s: UnitSet) -> list[int]:
    """The recorded generators of s, else its canonical generating set."""
    return list(s.generators) if s.generators is not None else canonical_generators(s)


def commute(g: GroupTable, xs: Sequence[int], ys: Sequence[int]) -> bool:
    """True iff every mask in xs commutes with every mask in ys.

    Applied to generating sets this decides whether the generated subgroups
    commute elementwise.
    """
    els = [AlgebraElement(g, m) for m in ys]
    for xm in xs:
        x = AlgebraElement(g, xm)
        if any(ga_mul(x, y).mask != ga_mul(y, x).mask for y in els):
            return False
    return True


def normalizes(g: GroupTable, conj_gens: Sequence[int], sub: UnitSet) -> bool:
    """True iff a*n*a^-1 lies in sub for every a in conj_gens and every
    generator n of sub.

    In a finite group this means every a maps sub into, hence onto, itself,
    so the whole group generated by conj_gens normalizes sub.
    """
    sub_set = sub.mask_set()
    ns = [AlgebraElement(g, m) for m in gens_of(sub)]
    for am in conj_gens:
        a = AlgebraElement(g, am)
        a_inv = ga_inverse(a)
        if any(ga_mul(ga_mul(a, n), a_inv).mask not in sub_set for n in ns):
            return False
    return True


def find_complement(ambient: UnitSet | SubgroupSet, factor: UnitSet | SubgroupSet):
    """Complement of a direct factor; dispatches on the carrier type.

    The ambient must be abelian; the result is canonical (lexicographically
    smallest generator sequence over the canonical member order).
    """
    if isinstance(ambient, SubgroupSet) and isinstance(factor, SubgroupSet):
        return find_complement_subgroup(ambient, factor)
    if not isinstance(ambient, UnitSet) or not isinstance(factor, UnitSet):
        raise TypeError("ambient and factor must both be UnitSet or both SubgroupSet")
    if factor.group is not ambient.group:
        raise GroupMismatchError("factor lives in a different group")
    if not _is_abelian_units(ambient):
        raise NotAbelianError("complement search requires an abelian ambient group")
    g = ambient.group

    def mul_fn(x: int, y: int) -> int:
        return ga_mul(AlgebraElement(g, x), AlgebraElement(g, y)).mask

    gens, members = complement_generators(ambient.masks, mul_fn, 1, factor.masks)
    return make_unit_set(g, members, sigma=ambient.sigma, generators=gens)
