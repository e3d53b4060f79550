"""Unit groups of the group algebra and subgroup structure checks.

The unit group of F2[G] for a 2-group G consists of exactly the elements with
augmentation 1, as the augmentation ideal J is nilpotent exactly when G is a
2-group (Jennings 1941).

- ``enumerate_normalized_units`` checks that the order is a power of 2 and
  lists the augmentation-1 elements in ascending order by one
  comprehension, one parity block of low masks per high mask.
- ``_ideal_powers`` computes the Jennings filtration V_k = 1 + J^k from the
  generators of G, and ``_fixed_point_pcgs`` lifts the units fixed by
  u -> sigma(u)^-1 along it, one layer at a time on one basis of J adapted
  to it: a pcgs of the unitary group found with no scan, on which the
  classical oracle decides normality.
- ``enumerate_unitary`` solves u * sigma(u) = 1 with a bit-sliced kernel:
  the coefficients split into low positions L and high positions H,
  u = h + l, and one AND of int bit planes tests every l at once, while h
  walks a Gray code; ``_low_positions`` picks |L|. sigma fixes
  u * sigma(u), so one plane per sigma-orbit of coordinates is kept. The
  planes are a function of a small state int, and each distinct state is
  ANDed and listed once. The hits of each h are filed under h, so they come
  out ascending with no sort. It still evaluates the defining equation at
  every element of the (sub)algebra and uses no structural input, so it
  stays an independent oracle for the decompositions.

The same int bit planes serve the member checks of the decompositions, and
only this module knows their format. ``_member_planes`` transposes a list of
masks (generating sets: short), one plane per position, one bit per member.
``_product_planes`` is the one multiply on planes: u * v for every pair of
members at the same bit. ``_failing_members`` is the one member test
(u * perm(u) = 1, u * u = 1, commutation with a group element, by
permuting planes), for the decompositions' member checks; the kernel
builds its starting planes with ``_product_planes`` too. No plane is
read back into masks, and no product of subgroups is listed pairwise
(``_product_is``, ``is_direct``). Structure checks work on generators; a set
without recorded generators computes its canonical ones once, by listing
it, and caches them. No pipeline does that: its sets record their
generators, and the callers of ``_complement_search`` decide commutativity
on a table subgroup. The public ``find_complement`` and
``check_conjugation_closure`` alone list generators of a scanned set.

Every listing, every scan and its hits are first estimated in bytes
(``_require_listable``, ``_require_scan_memory``, ``_require_hit_memory``),
and one above the fixed memory budget is a TooLargeError, so that a raised
bound ends in exit 2 and not in a process the kernel kills.

Both listings run on the calling thread (the kernel's big-int loop holds the
GIL, so a second thread gained nothing); ``workers`` is accepted and ignored.
"""

from __future__ import annotations

from functools import cached_property, partial, reduce
from itertools import chain, combinations
from math import prod
from operator import itemgetter, or_
from typing import Iterable, Iterator, Sequence

from .algebra import (
    AlgebraElement, _eliminate, _involute, _inverse, _mul, _products, _span, _translates
)
from .errors import (
    HypothesisViolationError,
    NoComplementError,
    NotAbelianError,
    NotASubgroupError,
    NotAUnitError,
    NotSubsetError,
    TooLargeError,
)
from .groups import GroupTable, SubgroupSet, _extend, _greedy_generators, _require_group
from .involutions import AntiAutomorphism, validate_involution

DEFAULT_EXHAUSTIVE_BOUND = 16
_NOT_ABELIAN = "complement search requires an abelian ambient group"


class UnitSet:
    """A subgroup of the unit group, as sorted bitmasks (the canonical order).

    Closure is maintained by the operations that build UnitSets, not
    revalidated on construction; every member must have augmentation 1, the
    identity must be present, and recorded ``generators`` generate the set.
    Since every UnitSet is a subgroup, a product of two of them is compared
    with a group by orders rather than listed (``_product_is``).
    """

    def __init__(
        self, group: GroupTable, masks: tuple[int, ...], generators: tuple[int, ...] | None = None
    ):
        if 1 not in masks:
            raise NotASubgroupError("a unit set must contain the identity")
        self.group, self.masks, self.generators = group, masks, generators

    @property
    def order(self) -> int:
        return len(self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def _mask_set(self) -> frozenset[int]:
        return frozenset(self.masks)

    @cached_property
    def _canonical_generators(self) -> tuple[int, ...]:
        gens, _ = _greedy_generators(partial(_mul, self.group), 1, self.masks)
        for m in gens:
            _inverse(self.group, m)  # NotAUnitError on a non-unit member
        return tuple(gens)

    def mask_set(self) -> frozenset[int]:
        return self._mask_set

    def __contains__(self, x) -> bool:
        """An element of this group, or a mask. Membership is by equality, as
        for ``range`` (``1.0 in range(3)`` is True): 1.0 and True are the mask 1."""
        if isinstance(x, AlgebraElement):
            _require_group(self.group, x.group, "the element")
            x = x.mask
        return x in self.mask_set()

    def elements(self) -> Iterator[AlgebraElement]:
        for m in self.masks:
            yield AlgebraElement(self.group, m)


def make_unit_set(
    group: GroupTable, masks: Iterable[int], generators: Sequence[int] | None = None
) -> UnitSet:
    """The UnitSet of ``masks`` in canonical order, duplicates dropped.

    The masks are sorted as given and then deduplicated in order: timsort
    takes linear time on a list that is already ascending (the sumset of
    ``build_normal_cofactor`` is one), where a set first would scatter it.
    Both exhaustive listings come out ascending and skip it. The builders
    that still need it list in another order: closures
    (``unit_subgroup_closure``, ``find_complement``), G*T by left
    translation, spans 1 + span(vectors), and the cofactor's sumset, which
    is ascending only where A sits below its coset.
    """
    gens = tuple(generators) if generators is not None else None
    return UnitSet(group, tuple(dict.fromkeys(sorted(masks))), gens)


def group_image(g: GroupTable, sub: SubgroupSet | None = None) -> UnitSet:
    """The group (or a subgroup) as basis vectors, with its greedy generators."""
    if sub is not None:
        _require_group(g, sub.group, "the subgroup")
    ids = sub.members if sub is not None else range(g.order)
    gens = sub.generators if sub is not None else g.greedy_generators
    return make_unit_set(g, (1 << i for i in ids), generators=[1 << i for i in gens])


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _require_within(count: int, max_order: int, what: str) -> None:
    """TooLargeError when ``what``, a count of free coefficient positions,
    is above the bound."""
    if count > max_order:
        raise TooLargeError(
            f"{what} is {count}, above the bound {max_order}; "
            "raise the bound explicitly to override"
        )


# Bytes a listing or a scan may take; there is no option to raise it.
_MEMORY_BUDGET = 2 << 30


def _require_memory(nbytes: int, what: str) -> None:
    """TooLargeError when ``what`` is estimated at more than the memory
    budget: a listing or a scan that large would be killed, not finish."""
    if nbytes > _MEMORY_BUDGET:
        raise TooLargeError(
            f"{what} would take about {nbytes:,} bytes, "
            f"above the memory budget of {_MEMORY_BUDGET:,} bytes"
        )


def _require_listable(g: GroupTable, count: int, what: str) -> None:
    """``_require_memory`` for ``count`` masks of g listed as a UnitSet:
    96 bytes of int object and containers per mask, plus its n bits
    (building one and its member set peaks at 101, 105 and 113 bytes a mask
    at orders 32, 64 and 128)."""
    _require_memory(count * (96 + g.order // 8), f"listing {what} ({count:,} masks)")


def _require_scan_memory(g: GroupTable, k: int) -> None:
    """``_require_memory`` for what ``_unitary_kernel`` allocates to scan k
    positions of g: its planes, 2^|L| bits each (|L| indicator planes, at
    most n each of products, start and running planes, and two per
    coordinate and high position for the steps), the 2^|L| low masks, the
    2^|H| runs and the memo of at most 2^|H| plane states (a dict slot and a
    state int of at most n(|L|+1) bits each): an upper bound, as the kernel
    keeps a plane for one coordinate per sigma-orbit. The hits are in
    ``_require_hit_memory``."""
    nlow = _low_positions(k)
    nhigh = k - nlow
    n = g.order
    planes = (2 * n * nhigh + 3 * n + nlow) * ((1 << nlow) // 8 + 32)
    memo = 96 + n * (nlow + 1) // 8 + 32
    nbytes = planes + (1 << nlow) * (n // 8 + 40) + (1 << nhigh) * (8 + memo)
    _require_memory(nbytes, f"the scan of {k} positions")


def _require_hit_memory(g: GroupTable, perm: Sequence[int], members: Sequence[int]) -> None:
    """``_require_memory`` for the hits of a scan of A = ``members``, masks as
    in ``_require_listable``, counted only when 2^(k-1) might not fit: a hit u
    has sigma(u) = u^-1 in F2A, so the hits are V_* of F2B, B = A meet sigma(A)
    (a subgroup sigma maps onto itself), and B's pcgs counts them in a 2-group.
    The kernel's memo maps a plane state to the run of its first h, the list
    filed under that h, so it adds no slot per hit to the 96 bytes."""
    per_mask = 96 + g.order // 8
    hits = 1 << (len(members) - 1)
    if per_mask * hits > _MEMORY_BUDGET and g.is_two_group():
        inside = set(members)
        b = SubgroupSet(g, tuple(x for x in members if perm[x] in inside))
        hits = 1 << len(_fixed_point_pcgs(g, perm, b.members, b.generators))
    _require_memory(per_mask * hits, f"the scan's hits ({hits:,} masks)")


def enumerate_normalized_units(
    g: GroupTable,
    max_order: int = DEFAULT_EXHAUSTIVE_BOUND,
    workers: int | None = None,
) -> UnitSet:
    """All augmentation-1 elements of F2[G], each a unit.

    The augmentation ideal J is nilpotent exactly when G is a 2-group
    (Jennings, Trans. AMS 50, 1941), and once J^t = 0, 1 + j has inverse
    1 + j + ... + j^(t-1). That holds when |G| is a power of 2; else
    NotAUnitError names the order. The masks are listed ascending, so the
    UnitSet is built with no sort. ``workers`` is accepted and ignored.
    """
    n = g.order
    _require_within(n, max_order, "the number of free coefficient positions")
    if n & (n - 1):
        raise NotAUnitError(f"augmentation ideal not nilpotent: order {n} is not a power of 2")
    _require_listable(g, 1 << (n - 1), "the normalized units")
    # Two half-size spans, the high one outer, list the masks in ascending
    # order; each high mask takes the low masks that make the augmentation 1.
    half = n // 2
    low, high = _span(1 << c for c in range(half)), _span(1 << c for c in range(half, n))
    completing = [[m for m in low if m.bit_count() & 1 != p] for p in (0, 1)]
    return UnitSet(g, tuple([h | m for h in high for m in completing[h.bit_count() & 1]]))


def _indicator_planes(nbits: int) -> list[int]:
    """Plane j has bit l set exactly when bit j of l is set, for l < 2**nbits."""
    size = 1 << nbits
    planes = []
    for j in range(nbits):
        run = 1 << j
        plane = ((1 << run) - 1) << run
        width = 2 * run
        while width < size:
            plane |= plane << width
            width *= 2
        planes.append(plane)
    return planes


def _member_planes(masks: Sequence[int], n: int) -> list[int]:
    """Transpose a member list into n bit planes, one step per set bit of
    each mask: bit k of plane i is bit i of masks[k]."""
    planes = [0] * n
    for k, m in enumerate(masks):
        while m:
            low = m & -m
            planes[low.bit_length() - 1] |= 1 << k
            m ^= low
    return planes


def _permuted_planes(perm: Sequence[int], planes: Sequence[int]) -> list[int]:
    """Planes of perm(u) for every member u: plane j moves to perm[j]."""
    out = [0] * len(planes)
    for j, p in enumerate(planes):
        out[perm[j]] = p
    return out


def _product_planes(g: GroupTable, left: Sequence[int], right: Sequence[int]) -> list[int]:
    """Coefficient planes of u * v for every pair of members at the same
    bit of ``left`` and ``right``.

    Coefficient c of u * v is the sum of u_i v_j over the pairs with
    i * j = c, so plane c is the XOR of L_i & R_j over those pairs of
    positions whose planes are not 0.
    """
    mul = g.mul
    right_live = [(j, q) for j, q in enumerate(right) if q]
    out = [0] * g.order
    for i, p in enumerate(left):
        if p:
            row = mul[i]
            for j, q in right_live:
                out[row[j]] ^= p & q
    return out


def _failing_members(
    g: GroupTable,
    masks: Sequence[int],
    perm: Sequence[int],
    square: bool = False,
    central: Iterable[int] = (),
) -> tuple[int, int]:
    """The members that fail a check, then those that fail to commute, one bit
    each: bit k is set when u = masks[k] has u * perm(u) != 1, u * u != 1
    (``square``) or u * y != y * u for some group element y in ``central``,
    the last also in the second int; each test runs on whole-list planes."""
    mul, inv = g.mul, g.inv
    u = _member_planes(masks, g.order)
    products = [_product_planes(g, u, _permuted_planes(perm, u))]
    if square:
        products.append(_product_planes(g, u, u))
    # u * y = y * u exactly when u = y^-1 * u * y: planes i and y*i*y^-1 agree.
    noncentral = 0
    for y in central:
        row, y_inv = mul[y], inv[y]
        for i, p in enumerate(u):
            noncentral |= p ^ u[mul[row[i]][y_inv]]
    # A product is 1 where plane 0 is set and every other plane is clear.
    full = (1 << len(masks)) - 1
    bad = noncentral
    for planes in products:
        bad |= reduce(or_, planes[1:], planes[0] ^ full)
    return bad, noncentral


def _low_positions(k: int) -> int:
    """How many of the k scanned positions the kernel puts on its planes.

    A Gray step costs one big-int op per kept plane, and up to about 2^10 bits
    interpreter overhead, not width, sets the cost of one. So the planes take
    at least 10 positions (all of them when k <= 10, which leaves no walk),
    and the 2^(k-|L|) steps shrink at no cost per step. Set-up grows with
    2^|L|, and so does the AND and listing of each distinct plane state; past
    2^10 bits an op costs in proportion to its word count, so from k = 20 on
    the split stays even.
    """
    return max(k // 2, min(k, 10))


def _unitary_kernel(
    g: GroupTable, perm: Sequence[int], members: Sequence[int]
) -> tuple[int, ...]:
    """Bit-sliced solver of u * sigma(u) = 1 over the span of ``members``.

    Write u = h + l with l on the first ``_low_positions(k)`` positions L and
    h on the rest, H. Coordinate c of u * sigma(u) is
    (h sigma(h))_c + (l sigma(l))_c + (h sigma(l) + l sigma(h))_c, and for a
    fixed h the bracket is linear in l. A plane is one int with one bit per
    value of l, so each coordinate condition is evaluated for every l at
    once. h walks the Gray code, so each step flips one position i of h and
    XORs position i's delta planes into the running planes: 2^|H| steps of
    one op per kept coordinate on 2^|L|-bit planes.

    The planes of h are start[c] + sum over i in h of delta_i[c], plus
    ``full`` where the flips of h sigma(h) sum to 1 at c. delta_i is the sum
    of the ind[a] its code names, so the XOR of the codes and flips, the
    state, fixes the planes and the low parts of the hits. So only a new
    state ANDs its planes and lists its hits; the memo keeps that run, and
    a repeat XORs the two h masks into it.

    perm must be an involutory anti-automorphism: then w = u * sigma(u) has
    sigma(w) = sigma(sigma(u)) * sigma(u) = w, so w_c = w_sigma(c), and a
    plane is kept for c < sigma(c), the identity and each x * sigma(x). At
    any other sigma-fixed c the pairs (x, y), (y, x) with x * sigma(y) = c
    cancel and no x has x * sigma(x) = c, so w_c = 0 for every u, its
    target. Every dropped condition is implied by a kept one.

    Returns every solution in ascending order. A new state's hits are found
    top-down and reversed, and a repeat's XOR keeps their order. The run of
    each h is filed under h, whose bit i stands for high[i], and the runs are
    joined in h order. That is ascending and free of duplicates because
    ``members`` ascend, so h orders like its mask and every high position
    lies above every low one, and ``spread`` keeps the order of l.
    """
    k = len(members)
    nlow = _low_positions(k)
    low, high = members[:nlow], members[nlow:]
    full = (1 << (1 << nlow)) - 1
    ind = _indicator_planes(nlow)

    # at[i][j] is the coordinate x * sigma(y) for x = members[i], y = members[j].
    cols = [perm[y] for y in members]
    take = itemgetter(*cols) if k > 1 else lambda row: (row[cols[0]],)
    at = [take(g.mul[x]) for x in members]
    diagonal = (row[i] for i, row in enumerate(at))
    kept = sorted({0, *diagonal, *(c for c in chain.from_iterable(at) if c < perm[c])})
    # Kept coordinates first; the dropped share the slot past them, read by no step.
    slot = [len(kept)] * g.order
    for i, c in enumerate(kept):
        slot[c] = i

    # At h = 0, bit l of start[c] says coordinate c of l sigma(l) equals that
    # of the identity. The running planes keep that meaning for every h.
    low_planes = [0] * g.order
    for x, p in zip(low, ind):
        low_planes[x] = p
    prod = _product_planes(g, low_planes, _permuted_planes(perm, low_planes))
    start = [prod[c] if c == 0 else prod[c] ^ full for c in kept]

    # Flipping position i of h adds the delta planes of the cross term (taken
    # for every l at once) and complements the planes of the coordinates at
    # which h sigma(h) changes: g_i sigma(g_i) plus the cross terms of g_i with
    # the other positions in h. Bit nkept + c * nlow + a of code says ind[a]
    # enters delta plane c. Summed over h, the dropped slot's bits of code and
    # flips are sums of kept ones (w_c = w_sigma(c)): they split no state.
    nkept = len(kept)
    steps = []
    for i in range(nlow, k):
        row = at[i]
        delta = [0] * (nkept + 1)
        code = 0
        for a in range(nlow):
            for c in (slot[row[a]], slot[at[a][i]]):
                delta[c] ^= ind[a]
                code ^= 1 << nkept + c * nlow + a
        square = 1 << slot[row[i]]
        cross = [(1 << slot[row[j]]) ^ (1 << slot[at[j][i]]) for j in range(nlow, k)]
        steps.append((1 << members[i], code, square, cross, [(d, d ^ full) for d in delta[:-1]]))

    spread = _span(1 << x for x in low)
    highs = sum(1 << x for x in high)

    planes = list(start)
    h = hmask = state = 0
    memo: dict[int, Sequence[int]] = {}
    runs: list[Sequence[int]] = [()] * (1 << len(high))
    for t in range(1 << len(high)):
        if t:
            i = (t & -t).bit_length() - 1
            bit, code, square, cross, deltas = steps[i]
            changed = square
            rest = h
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                changed ^= cross[j]
            for c, pair in enumerate(deltas):
                planes[c] ^= pair[changed >> c & 1]
            h ^= 1 << i
            hmask ^= bit
            state ^= code ^ changed
        run = memo.get(state)
        if run is None:
            alive = full
            for p in planes:
                alive &= p
                if not alive:
                    break
            run = []
            while alive:
                top = alive.bit_length() - 1
                alive ^= 1 << top
                run.append(hmask | spread[top])
            run.reverse()
            memo[state] = runs[h] = run or ()
        elif run:
            shift = hmask ^ (run[0] & highs)
            runs[h] = [shift ^ m for m in run]
    return tuple(chain.from_iterable(runs))


def enumerate_unitary(
    g: GroupTable,
    sigma: AntiAutomorphism,
    max_order: int = DEFAULT_EXHAUSTIVE_BOUND,
    workers: int | None = None,
    support: SubgroupSet | None = None,
) -> UnitSet:
    """All normalized units u with u * sigma(u) = 1, in canonical order.

    Every element of the (sub)algebra is tested against the defining
    equation; augmentation 1 follows from it, so no parity filter is needed.
    The kernel tests one coordinate per sigma-orbit, so a sigma failing
    ``validate_involution`` is a HypothesisViolationError. Its hits come
    ascending, so the UnitSet is built with no sort. ``workers`` is accepted
    and ignored.
    """
    _require_group(g, sigma.group, "the involution")
    if not validate_involution(sigma):
        raise HypothesisViolationError(f"{sigma.name} is not an involutory anti-automorphism")
    if support is not None:
        _require_group(g, support.group, "the support subgroup")
    members = tuple(support.members) if support is not None else tuple(range(g.order))
    _require_within(len(members), max_order, "the number of free coefficient positions")
    _require_scan_memory(g, len(members))
    _require_hit_memory(g, sigma.perm, members)
    return UnitSet(g, _unitary_kernel(g, sigma.perm, members))


# ---------------------------------------------------------------------------
# the Jennings filtration


def _ideal_powers(g: GroupTable, members: Sequence[int], gens: Sequence[int]) -> list[dict]:
    """Echelon bases of J, J^2, ... up to the last nonzero power, keyed by
    pivot row (lowest bit), for the augmentation ideal J of the (sub)algebra
    on ``members``, whose group ``gens`` generate.

    As 1 + gh = g(1+h) + (1+g), J is the sum of the F2G(1+s), so J^(k+1) is
    spanned by the x + x*s over a basis x of J^k. x's translates are looked
    up once (``_translates``), and x*s is read off them at bit n*s for every
    s. The powers fall to 0 exactly for a 2-group (Jennings 1941); a power
    that stops shrinking is not 0, and NotAUnitError is raised.
    """
    n, full = g.order, (1 << g.order) - 1
    pivots, _ = _eliminate(1 ^ 1 << h for h in members if h)
    powers = []
    while pivots:
        powers.append({row: col for row, (col, _) in pivots.items()})
        moved = ((x, _translates(g, x)) for x in powers[-1].values())
        pivots, _ = _eliminate(x ^ (t >> n * s) & full for x, t in moved for s in gens)
        if len(pivots) == len(powers[-1]):
            raise NotAUnitError(f"augmentation ideal not nilpotent: dim J^t stays {len(pivots)}")
    return powers


def _set_bits(x: int) -> Iterator[int]:
    """The positions of the set bits of x, lowest first."""
    while x:
        yield (x & -x).bit_length() - 1
        x &= x - 1


def _fixed_point_pcgs(
    g: GroupTable, perm: Sequence[int], members: Sequence[int], gens: Sequence[int]
) -> list[int]:
    """An induced pcgs of V_* = {u : u sigma(u) = 1} in F2B, B = ``members``
    the subgroup that ``gens`` generate, sigma moving the weight at each g to
    perm[g] and B onto itself: units whose leading terms on the filtration
    are independent, so that the normal words are distinct and |V_*| = 2^len.

    V_* is the fixed group of the automorphism tau(u) = sigma(u)^-1 of V.
    Let P_k hold the units fixed by tau modulo V_k: P_1 = V, and P_k = V_*
    once J^k = 0. On P_k, delta(y) = 1 + sigma(y) y modulo J^(k+1) lies in
    the layer J^k / J^(k+1), central in V / V_(k+1), so delta is additive
    with kernel P_(k+1). The pcgs of P_k and the layer units 1 + b generate it
    modulo V_(k+1); one elimination of their deltas gives the kernel as
    products of a candidate and earlier pivots. The candidates go deepest
    first, by falling leading row within a depth, so each product keeps its
    candidate's depth and leading row (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, ch. 8).

    One echelon basis of J serves every layer: row r holds the vector of the
    deepest power J^d with pivot row r, so the rows with d > k span J^(k+1).
    Each 1 + sigma(y) y is reduced against it once, by mask, into
    coordinates, and layer k eliminates only their bits at the rows with
    d = k, its image in J^k / J^(k+1). The pivots are independent there, so
    a kernel selector, its column and the earlier pivots that sum to it, is
    the unique one that eliminating the deltas with the basis of J^(k+1)
    also finds; each word is read off the selector's set bits.
    """
    mul = partial(_mul, g)
    powers = _ideal_powers(g, members, gens)
    flag = {row: col for basis in powers for row, col in basis.items()}
    coords: dict[int, int] = {}
    pcgs: list[int] = []
    for basis, below in zip(powers, powers[1:] + [{}]):
        rows = sorted(basis.keys() - below.keys(), reverse=True)
        candidates = [1 ^ basis[row] for row in rows] + pcgs
        for y in candidates:
            if y not in coords:
                x, c = 1 ^ mul(_involute(perm, y), y), 0
                while x:
                    row = (x & -x).bit_length() - 1
                    x, c = x ^ flag[row], c | 1 << row
                coords[y] = c
        layer = sum(1 << row for row in rows)
        _, kernel = _eliminate(coords[y] & layer for y in candidates)
        pcgs = [reduce(mul, (candidates[i] for i in _set_bits(sel))) for sel in kernel]
    return pcgs


# ---------------------------------------------------------------------------
# closure and structure


def unit_subgroup_closure(g: GroupTable, gens: Iterable[AlgebraElement]) -> UnitSet:
    """The unit subgroup that gens generate, recorded as its generators."""
    gen_masks = []
    for x in gens:
        _require_group(g, x.group, "the generator")
        _inverse(g, x.mask)  # NotAUnitError on a non-unit generator
        gen_masks.append(x.mask)
    _, span = _greedy_generators(partial(_mul, g), 1, gen_masks)
    return make_unit_set(g, span, generators=gen_masks)


def _require_subset(ambient: UnitSet, part: UnitSet, name: str) -> None:
    """The one containment check: GroupMismatchError unless part is bound
    to ambient's group, NotSubsetError unless its masks lie in ambient."""
    _require_group(ambient.group, part.group, name)
    if not part.mask_set() <= ambient.mask_set():
        raise NotSubsetError(f"{name} is not contained in the ambient unit set")


def _product_is(v: UnitSet, x: UnitSet, y: UnitSet) -> bool:
    """True iff x*y = v as sets, for subgroups x, y, v of the unit group, by
    orders: if x and y lie in v, so does x*y, which has |x||y| / |x meet y|
    members; conversely x*y = v puts x and y in v."""
    xs, ys, vs = x.mask_set(), y.mask_set(), v.mask_set()
    return xs <= vs and ys <= vs and x.order * y.order == v.order * len(xs & ys)


def internal_semidirect(ambient: UnitSet, n: UnitSet, k: UnitSet) -> bool:
    """True iff n is normal in ambient, meets k trivially, and n*k = ambient.

    Decided without listing n*k: once n and k lie in ambient and meet only in
    the identity, n*k lies in ambient and has |n||k| members, so it is ambient
    exactly when |n||k| = |ambient| (``_product_is`` with |n meet k| = 1). n is
    a subgroup, so it normalizes itself, and only the generators of k are
    conjugated.
    """
    _require_subset(ambient, n, "the normal part")
    _require_subset(ambient, k, "the complement part")
    if n.mask_set() & k.mask_set() != {1} or n.order * k.order != ambient.order:
        return False
    return normalizes(ambient.group, gens_of(k), n)


def is_direct(g: GroupTable, factors: Sequence[UnitSet]) -> bool:
    """True iff the subgroups generate their internal direct product.

    They must commute pairwise (decided on generators) and each must meet the
    product P of the factors before it only in the identity; for pairwise
    commuting subgroups this is the standard criterion. As P*F = <P, F>,
    ``_extend`` grows P by the generators of F, except for the last factor.
    No factors make the trivial group.
    """
    gens = [gens_of(f) for f in factors]
    if not all(commute(g, a, b) for a, b in combinations(gens, 2)):
        return False
    if not factors:
        return True
    prefix, prefix_gens = factors[0].mask_set(), gens[0]
    for i in range(1, len(factors)):
        if factors[i].mask_set() & prefix != {1}:
            return False
        if i + 1 < len(factors):
            for x in gens[i]:
                if x not in prefix:
                    prefix = _extend(partial(_mul, g), prefix, prefix_gens, x)
                    prefix_gens.append(x)
    return True


def internal_direct(ambient: UnitSet, factors: Sequence[UnitSet]) -> bool:
    """True iff the factors form a direct product (see is_direct) whose
    product is the ambient set: a direct product of subgroups of ambient has
    the product of their orders as its order, so it is ambient exactly when
    that equals |ambient|."""
    for i, f in enumerate(factors):
        _require_subset(ambient, f, f"factor {i}")
    return prod(f.order for f in factors) == ambient.order and is_direct(ambient.group, factors)


def _is_abelian_units(s: UnitSet) -> bool:
    """True iff the generators of s commute pairwise, each pair tested once."""
    mul = partial(_mul, s.group)
    return all(mul(x, y) == mul(y, x) for x, y in combinations(gens_of(s), 2))


def canonical_generators(s: UnitSet) -> list[int]:
    """``_greedy_generators`` over the canonical member order (deterministic),
    computed once per set.

    A non-unit member lies in no span of units, so a non-unit becomes a
    generator, and the check on the generators raises NotAUnitError.
    """
    return list(s._canonical_generators)


def gens_of(s: UnitSet) -> list[int]:
    """The recorded generators of s, else its canonical generating set."""
    return list(s.generators) if s.generators is not None else canonical_generators(s)


def commute(g: GroupTable, xs: Sequence[int], ys: Sequence[int]) -> bool:
    """True iff every mask in xs commutes with every mask in ys.

    Applied to generating sets this decides whether the generated subgroups
    commute elementwise.
    """
    return all(_mul(g, x, y) == _mul(g, y, x) for x in xs for y in ys)


def normalizes(g: GroupTable, conj_gens: Sequence[int], n: UnitSet) -> bool:
    """True iff a*m*a^-1 lies in n for every a in conj_gens and every
    generator m of n: then each a maps the finite n into, hence onto,
    itself, and the group that conj_gens generate normalizes n. n is a
    subgroup (a UnitSet is closed), so a member of n normalizes it and is
    not conjugated."""
    members, ms = n.mask_set(), gens_of(n)
    for a in conj_gens:
        if a in members:
            continue
        a_inv = _inverse(g, a)
        if any(_mul(g, _mul(g, a, m), a_inv) not in members for m in ms):
            return False
    return True


def find_complement(ambient: UnitSet, factor: UnitSet) -> UnitSet:
    """Complement of the direct factor ``factor`` in the abelian ``ambient``.

    Generators are chosen by depth-first search in the canonical member
    order with strictly increasing positions, so the first complement found
    has the lexicographically smallest generator sequence. A candidate c
    extends the span S when <S, c> meets the factor F only in {1}. The
    search carries the subgroup S*F and decides that from the powers of c
    alone: c is skipped when it lies in S*F, and otherwise accepted exactly
    when the first power c^j in S*F lies in S. (If c^j = s*f, then f lies in
    <S, c> and F. Conversely, when c^j lies in S, an element s*c^i of <S, c>
    with 0 <= i < j that lies in F puts c^i in S*F, so i = 0 and s lies in
    S and F.) Then <S, c> is the union of the j cosets S*c^i. A span that
    meets F only in {1} never outgrows |ambient| / |F|, as <S, c>*F lies in
    the ambient group, so the order needs no test of its own. Only accepted
    spans are listed, by ``_extend(mul, span, (), c)`` as the group is
    abelian. <S, c>*F is S*F and the products s*F of the new members s of
    <S, c>, one ``_products`` call each; it is the union of the translates
    S*F*c^i, and these products are new, as <S, c> meets F only in {1}. A
    table subgroup goes in through ``group_image``, whose masks ``1 << i``
    sort like the indices and make each product one shift; any factor takes
    the same path. Raises NotSubsetError when the factor does not lie in the
    ambient set, NotAbelianError when the ambient set's generators do not
    commute, and NoComplementError when the factor is not a direct factor.

    The decompositions call the search behind these guards,
    ``_complement_search``, and decide commutativity on A or C instead.
    """
    if not isinstance(ambient, UnitSet) or not isinstance(factor, UnitSet):
        raise TypeError("find_complement takes UnitSets; map a SubgroupSet through group_image")
    _require_subset(ambient, factor, "the factor")
    if not _is_abelian_units(ambient):
        raise NotAbelianError(_NOT_ABELIAN)
    return _complement_search(ambient, factor)


def _complement_search(ambient: UnitSet, factor: UnitSet) -> UnitSet:
    """``find_complement`` without its guards: the caller knows the factor
    lies in ``ambient`` and that ``ambient`` is abelian.

    S*F grows by one batch product per new member s of <S, c>, which lists
    s*F: |<S, c>*F| - |S*F| products in all, each a new member of S*F. The
    only other products are the powers of the candidates and the coset
    steps of ``_extend``."""
    g = ambient.group
    mul = partial(_mul, g)
    ids = ambient.masks
    factor_set = factor.mask_set()
    if ambient.order % len(factor_set):
        raise NoComplementError("factor order does not divide ambient order")
    target = ambient.order // len(factor_set)

    def dfs(
        span: set[int], span_factor: set[int], gens: list[int], start: int
    ) -> UnitSet | None:
        if len(span) == target:
            return make_unit_set(g, span, generators=gens)
        for idx in range(start, len(ids)):
            c = ids[idx]
            powers = []
            power = c
            while power not in span_factor:
                powers.append(power)
                power = mul(power, c)
            if not powers or power not in span:
                continue
            grown = _extend(mul, span, (), c)
            grown_factor = set(span_factor)
            for s in grown - span:
                grown_factor.update(_products(g, s, factor.masks))
            found = dfs(grown, grown_factor, gens + [c], idx + 1)
            if found is not None:
                return found
        return None

    found = dfs({1}, set(factor_set), [], 0)
    if found is None:
        raise NoComplementError(
            f"no complement of a factor of order {len(factor_set)} "
            f"in an ambient group of order {ambient.order}"
        )
    return found
