"""Independent reference implementations used to cross-check the library.

Everything here recomputes results straight from a group's raw
multiplication table with deliberately naive algorithms (double loops,
fixed-point closures). No code is shared with the package internals beyond
the table itself, so agreement between the two is meaningful evidence.
The exception is the slow path of the fixed-point pcgs
(``layered_fixed_point_pcgs`` and ``layered_ideal_powers``): a layered lift
on the package's arithmetic core, which the flag-basis lift must match list
for list.
Masks follow the same convention as the library: bit i of an integer mask
is the coefficient of the group element with index i.
"""

from __future__ import annotations

from functools import partial, reduce

from f2units.algebra import _eliminate, _involute, _mul
from f2units.errors import (
    GroupAxiomViolationError,
    HypothesisViolationError,
    NoComplementError,
    NotAUnitError,
)


def bits(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def naive_mul(g, mx: int, my: int) -> int:
    """Convolution over F2 by the double loop over both supports."""
    out = 0
    for i in bits(mx):
        row = g.mul[i]
        for j in bits(my):
            out ^= 1 << row[j]
    return out


def naive_apply_perm(perm, mask: int) -> int:
    out = 0
    for i in bits(mask):
        out |= 1 << perm[i]
    return out


def naive_augmentation(mask: int) -> int:
    return bin(mask).count("1") & 1


def naive_normalized_masks(g) -> list[int]:
    """All odd-coefficient-sum masks; practical only for small orders."""
    return [m for m in range(1 << g.order) if naive_augmentation(m) == 1]


def naive_unitary_masks(g, perm) -> list[int]:
    """Brute-force the unitary set: u normalized with u * u^sigma = 1."""
    hits = []
    for m in naive_normalized_masks(g):
        if naive_mul(g, m, naive_apply_perm(perm, m)) == 1:
            hits.append(m)
    return hits


def naive_subalgebra_unitary_masks(g, perm, members) -> list[int]:
    """The unitary masks supported on the given element indices, by trying
    every subset of them."""
    ids = sorted(members)
    hits = []
    for sel in range(1 << len(ids)):
        m = sum(1 << ids[b] for b in bits(sel))
        if naive_augmentation(m) == 1 and naive_mul(g, m, naive_apply_perm(perm, m)) == 1:
            hits.append(m)
    return sorted(hits)


def naive_center(g) -> list[int]:
    n = g.order
    return [x for x in range(n) if all(g.mul[x][y] == g.mul[y][x] for y in range(n))]


def naive_closure(g, gens) -> list[int]:
    """Fixed-point subgroup closure: keep multiplying until nothing new."""
    members = {0}
    members.update(gens)
    members.update(g.inv[x] for x in gens)
    changed = True
    while changed:
        changed = False
        for x in sorted(members):
            for y in sorted(members):
                z = g.mul[x][y]
                if z not in members:
                    members.add(z)
                    changed = True
    return sorted(members)


def naive_unit_closure(g, gens) -> set[int]:
    """Fixed-point closure of unit masks: keep multiplying every member by
    every generator until nothing new appears."""
    members = {1}
    changed = True
    while changed:
        changed = False
        for x in sorted(members):
            for y in gens:
                z = naive_mul(g, x, y)
                if z not in members:
                    members.add(z)
                    changed = True
    return members


def naive_generator_route(g, gens, masks) -> bool:
    """The generator route of a unipotent factor as the classical pipeline
    first decided it: the closure of the generators is the given set."""
    return naive_unit_closure(g, gens) == set(masks)


def naive_canonical_generators(g, masks) -> list[int]:
    """Greedy generators over the ascending masks: each mask outside the span
    of the generators so far is added, and the span is recomputed from
    scratch."""
    span = {1}
    gens: list[int] = []
    for m in sorted(masks):
        if m not in span:
            gens.append(m)
            span = naive_unit_closure(g, gens)
    return gens


def naive_structure_predicates(s) -> dict:
    """The elementary-abelian flag of a unit set, and its rank when it is
    elementary abelian, as the package once decided them: its recorded
    generators, else its naive canonical ones, commute pairwise and square
    to 1."""
    g = s.group
    gens = s.generators if s.generators is not None else naive_canonical_generators(g, s.masks)
    elementary = naive_commute(g, gens, gens) and all(naive_mul(g, m, m) == 1 for m in gens)
    rank = s.order.bit_length() - 1 if elementary else None
    return {"is_elementary_abelian_2": elementary, "rank": rank}


def naive_commutator_subgroup(g) -> list[int]:
    n = g.order
    comms = set()
    for x in range(n):
        for y in range(n):
            comms.add(g.mul[g.mul[g.inv[x]][g.inv[y]]][g.mul[x][y]])
    return naive_closure(g, comms)


def naive_element_order(g, x: int) -> int:
    k, acc = 1, x
    while acc != 0:
        acc = g.mul[acc][x]
        k += 1
    return k


def naive_product(g, xs, ys) -> set[int]:
    """All pairwise products, by the double loop."""
    return {naive_mul(g, x, y) for x in xs for y in ys}


def naive_commute(g, xs, ys) -> bool:
    """Every member of xs commutes with every member of ys."""
    return all(naive_mul(g, x, y) == naive_mul(g, y, x) for x in xs for y in ys)


def naive_first_failing_member(g, masks, perm=None, square=False, central=()) -> int | None:
    """The first mask that does not square to 1 (``square``), does not
    satisfy u * perm(u) = 1 (``perm``) or does not commute with every mask in
    ``central``, tested one member at a time; None when all pass."""
    for m in masks:
        if square and naive_mul(g, m, m) != 1:
            return m
        if perm is not None and naive_mul(g, m, naive_apply_perm(perm, m)) != 1:
            return m
        if not naive_commute(g, [m], central):
            return m
    return None


def naive_is_anti_involution(g, perm) -> bool:
    """A self-inverse permutation with perm(x*y) = perm(y)*perm(x) for all
    pairs x, y."""
    n = g.order
    if sorted(perm) != list(range(n)) or any(perm[perm[i]] != i for i in range(n)):
        return False
    return all(
        perm[g.mul[x][y]] == g.mul[perm[y]][perm[x]] for x in range(n) for y in range(n)
    )


def naive_normal_in(g, ambient, sub) -> bool:
    """aN = Na as sets, for every a in the ambient group.

    Both cosets are constant on each left coset of N: if aN = Na, then for
    a' = an we get a'N = aN and Na' = (Na)n = (aN)n = aN. So every member of
    N is tested against the first ambient member of each left coset.
    """
    sub = list(sub)
    covered: set[int] = set()
    for a in sorted(ambient):
        if a in covered:
            continue
        left = {naive_mul(g, a, n) for n in sub}
        if left != {naive_mul(g, n, a) for n in sub}:
            return False
        covered |= left
    return True


def naive_unipotent_fibers(g, a_members, b: int) -> dict[int, int]:
    """The masks 1 + (1+b*b) z b, listed over every z on the given members,
    with the number of z reaching each one."""
    nb = 1 ^ 1 << g.mul[b][b]
    ids = sorted(a_members)
    fibers: dict[int, int] = {}
    for sel in range(1 << len(ids)):
        z = sum(1 << ids[k] for k in bits(sel))
        m = 1 ^ naive_mul(g, naive_mul(g, nb, z), 1 << b)
        fibers[m] = fibers.get(m, 0) + 1
    return fibers


def naive_central_unipotent(g, c_members, a: int, b: int, e: int) -> set[int]:
    """1 + x1 a + x2 b + x3 ab over every triple of members of the ideal
    (1+e) F2C, the ideal itself listed as the images of every mask on C."""
    ids = sorted(c_members)
    ideal = {
        naive_mul(g, 1 | 1 << e, sum(1 << ids[k] for k in bits(sel)))
        for sel in range(1 << len(ids))
    }
    shifted = [[naive_mul(g, x, 1 << c) for x in ideal] for c in (a, b, g.mul[a][b])]
    return {1 ^ x1 ^ x2 ^ x3 for x1 in shifted[0] for x2 in shifted[1] for x3 in shifted[2]}


def naive_basis(vectors) -> list[int]:
    """A basis of the span, by elimination on the highest set bit."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return list(pivots.values())


def naive_ideal_powers(g, members) -> list[list[int]]:
    """Bases of J, J^2, ... up to the last nonzero power, J the augmentation
    ideal of the subalgebra on the members: J^(t+1) from every product of a
    basis vector of J^t with a spanning vector 1 + h of J. NotAUnitError
    when a power stops shrinking."""
    ideal = [1 ^ 1 << h for h in members if h]
    power, powers = naive_basis(ideal), []
    while power:
        powers.append(power)
        power = naive_basis(naive_mul(g, x, y) for x in power for y in ideal)
        if len(power) == len(powers[-1]):
            raise NotAUnitError("augmentation ideal not nilpotent")
    return powers


def naive_unit_masks(g, members) -> list[int]:
    """The augmentation-1 masks on the given members that are units, each
    tested on its own: some repeated square reaches 1."""
    ids = sorted(members)
    units = []
    for sel in range(1 << len(ids)):
        m = sum(1 << ids[k] for k in bits(sel))
        if naive_augmentation(m) == 0:
            continue
        s = m
        for _ in range(g.order + 2):
            s = naive_mul(g, s, s)
            if s == 1:
                units.append(m)
                break
    return units


def naive_solve(g, target: int, w: int) -> tuple[int | None, int]:
    """(z, rank): a z with w * z = target, the free coordinates zero, or None,
    and the rank of multiplication by w, by elimination on naive columns."""
    pivots: dict[int, tuple[int, int]] = {}
    for j in range(g.order):
        col = naive_mul(g, w, 1 << j)
        sel = 1 << j
        while col:
            row = (col & -col).bit_length() - 1
            if row in pivots:
                pcol, psel = pivots[row]
                col ^= pcol
                sel ^= psel
            else:
                pivots[row] = (col, sel)
                break
    t, z = target, 0
    while t:
        row = (t & -t).bit_length() - 1
        if row not in pivots:
            return None, len(pivots)
        pcol, psel = pivots[row]
        t ^= pcol
        z ^= psel
    return z, len(pivots)


def naive_group_axioms(mul) -> tuple[int, ...]:
    """Check all group axioms exhaustively; return the inverse array.

    Associativity is tested on all n^3 triples.
    """
    n = len(mul)
    if n == 0:
        raise GroupAxiomViolationError("empty table")
    for i, row in enumerate(mul):
        if len(row) != n:
            raise GroupAxiomViolationError(f"row {i} has length {len(row)}, want {n}")
        for j, v in enumerate(row):
            if not 0 <= v < n:
                raise GroupAxiomViolationError(
                    f"entry mul[{i}][{j}] = {v} out of range", witness=(i, j, v)
                )
    for i in range(n):
        if mul[0][i] != i or mul[i][0] != i:
            raise GroupAxiomViolationError(
                f"element 0 is not an identity at {i}", witness=(0, i, mul[0][i])
            )
    inv = []
    for i in range(n):
        found = None
        for j in range(n):
            if mul[i][j] == 0 and mul[j][i] == 0:
                found = j
                break
        if found is None:
            raise GroupAxiomViolationError(f"element {i} has no inverse", witness=(i,))
        inv.append(found)
    for i in range(n):
        for j in range(n):
            ij = mul[i][j]
            for k in range(n):
                if mul[ij][k] != mul[i][mul[j][k]]:
                    raise GroupAxiomViolationError(
                        f"associativity fails at ({i},{j},{k})", witness=(i, j, k)
                    )
    return tuple(inv)


def naive_render(g, mask: int) -> str:
    return " + ".join(g.labels[i] for i in bits(mask)) or "0"


def naive_inverse(g, x: int) -> int:
    """The power x^(k-1) for the first k with x^k = 1. A unit 1 + j of a
    2-group algebra has x^n = 1 + j^n = 1 at the group order n."""
    power = x
    for _ in range(g.order):
        nxt = naive_mul(g, power, x)
        if nxt == 1:
            return power
        power = nxt
    raise NotAUnitError(f"no power of {x:#x} is 1")


def naive_conjugation_witness(g, b: int, transversal, v_a, w_masks) -> str | None:
    """The conjugation identities of the classical decomposition, one
    (g_i, x1) pair at a time, g_i outer; the first failure's message, or None.

    With w_i = 1 + (1+b^2) g_i b: b w_i b^-1 is the generator at the
    representative of g_i^-1's coset of {1, b^2}; x1 w_i x1^-1 is
    1 + (1+b^2) x1^2 g_i b, inside W; and b x1^-1 = x1 b = b x1*, where * is
    inversion on the group elements.
    """
    bsq = g.mul[b][b]
    nb = 1 ^ 1 << bsq
    b_el = 1 << b

    def generator(gi):
        return 1 ^ naive_mul(g, naive_mul(g, nb, 1 << gi), b_el)

    rep_of = {}
    for rep in transversal:
        rep_of[rep] = rep_of[g.mul[bsq][rep]] = rep
    inverses = [naive_inverse(g, x1) for x1 in v_a]
    for gi in transversal:
        w_i = generator(gi)
        conj_b = naive_mul(g, naive_mul(g, b_el, w_i), 1 << g.inv[b])
        if conj_b != generator(rep_of[g.inv[gi]]) or conj_b not in w_masks:
            return f"twist conjugation at {g.labels[gi]}: got {naive_render(g, conj_b)}"
        for x1, x1_inv in zip(v_a, inverses):
            conj = naive_mul(g, naive_mul(g, x1, w_i), x1_inv)
            square = naive_mul(g, x1, x1)
            pred = 1 ^ naive_mul(g, naive_mul(g, naive_mul(g, nb, square), 1 << gi), b_el)
            if conj != pred or conj not in w_masks:
                return (
                    f"unitary conjugation at {g.labels[gi]} by "
                    f"{naive_render(g, x1)}: got {naive_render(g, conj)}"
                )
            left = naive_mul(g, b_el, x1_inv)
            if left != naive_mul(g, x1, b_el):
                return f"twist commutation fails at {naive_render(g, x1)}"
            if left != naive_mul(g, b_el, naive_apply_perm(g.inv, x1)):
                return f"inverse-vs-star mismatch at {naive_render(g, x1)}"
    return None


def naive_find_complement(g, ambient, factor) -> tuple[list[int], list[int]]:
    """The first complement of ``factor`` in the abelian ``ambient`` (both
    mask lists) found by depth-first search over the ascending members with
    strictly increasing positions; returns (generators, sorted masks).
    Every candidate's span <S, c> is listed, as the union of the cosets
    S*c^i, and the branch is cut when the span outgrows |ambient| / |factor|
    or meets the factor beyond the identity."""
    ids = sorted(ambient)
    factor_set = set(factor)
    if len(ids) % len(factor_set):
        raise NoComplementError("factor order does not divide ambient order")
    target = len(ids) // len(factor_set)

    def dfs(span, gens, start):
        if len(span) == target:
            return gens, sorted(span)
        for idx in range(start, len(ids)):
            c = ids[idx]
            if c in span or c in factor_set:
                continue
            grown = set(span)
            power = c
            while power not in span:
                grown.update(naive_mul(g, s, power) for s in span)
                power = naive_mul(g, power, c)
            if len(grown) > target or any(x in factor_set for x in grown if x != 1):
                continue
            found = dfs(grown, gens + [c], idx + 1)
            if found is not None:
                return found
        return None

    found = dfs({1}, [], 0)
    if found is None:
        raise NoComplementError("no complement")
    return found


def naive_complement_search(g, ambient, factor) -> tuple[list[int], list[int]]:
    """The first complement of ``factor`` in the abelian ``ambient`` (both
    mask lists), by the search ``find_complement`` makes, with S*F carried
    as ``find_complement`` once carried it: grown by the translates
    S*F*c^i of each accepted candidate c, over its powers c^i short of S*F.
    The span <S, c> is the union of the cosets S*c^i over the same powers.
    Returns (generators, sorted masks)."""
    ids = sorted(ambient)
    factor_set = frozenset(factor)
    if len(ids) % len(factor_set):
        raise NoComplementError("factor order does not divide ambient order")
    target = len(ids) // len(factor_set)

    def dfs(span, span_factor, gens, start):
        if len(span) == target:
            return gens, sorted(span)
        for idx in range(start, len(ids)):
            c = ids[idx]
            powers = []
            power = c
            while power not in span_factor:
                powers.append(power)
                power = naive_mul(g, power, c)
            if not powers or power not in span:
                continue
            grown_factor = span_factor | {naive_mul(g, x, p) for x in span_factor for p in powers}
            grown = span | {naive_mul(g, s, p) for s in span for p in powers}
            found = dfs(grown, grown_factor, gens + [c], idx + 1)
            if found is not None:
                return found
        return None

    found = dfs({1}, factor_set, [], 0)
    if found is None:
        raise NoComplementError("no complement")
    return found


def naive_cofactor_premise(form, w_masks, ell_masks) -> int:
    """The premise of the classical cofactor H = W*L, decided as
    ``build_normal_cofactor`` once decided it, by eliminating every member
    of W - 1: a subspace exactly when it has 2^rank members, closed under
    translation by A when the translates of its basis by each generator of
    A, on either side, raise no rank. Then L must lie on A. Returns the mask
    of A, or raises HypothesisViolationError with the library's messages."""
    g = form.group
    module = [1 ^ m for m in w_masks]
    basis = naive_basis(module)
    shifts = [p for a in form.a_sub.generators for p in (g.mul[a], [r[a] for r in g.mul])]
    moved = naive_basis(basis + [naive_apply_perm(p, x) for p in shifts for x in basis])
    if len(module) != 1 << len(basis) or len(moved) != len(basis):
        raise HypothesisViolationError("W - 1 is not a subspace closed under translation by A")
    on_a = sum(1 << i for i in form.a_sub.members)
    if any(m & ~on_a for m in ell_masks):
        raise HypothesisViolationError("the complement is not supported on A")
    return on_a


def layered_ideal_powers(g, members, gens) -> list[dict]:
    """Echelon bases of J, J^2, ... keyed by pivot row, each x*s formed by
    moving the bits of x one at a time: ``unitgroup._ideal_powers`` reads
    x*s off x's translates instead and must give ``_eliminate`` the same
    columns in the same order."""
    shifts = [[g.mul[i][s] for i in range(g.order)] for s in gens]
    pivots, _ = _eliminate(1 ^ 1 << h for h in members if h)
    powers = []
    while pivots:
        powers.append({row: col for row, (col, _) in pivots.items()})
        pivots, _ = _eliminate(x ^ _involute(s, x) for x in powers[-1].values() for s in shifts)
        if len(pivots) == len(powers[-1]):
            raise NotAUnitError(f"augmentation ideal not nilpotent: dim J^t stays {len(pivots)}")
    return powers


def layered_fixed_point_pcgs(g, perm, members, gens) -> list[int]:
    """The fixed-point pcgs by the layered lift: each layer eliminates the
    basis of J^(k+1) together with the deltas of its candidates, with
    selectors, and reads each word by testing every candidate against the
    kernel selector. ``unitgroup._fixed_point_pcgs`` lifts on one
    flag-adapted basis of J and must return the same list."""
    mul = partial(_mul, g)
    powers = layered_ideal_powers(g, members, gens)
    pcgs: list[int] = []
    delta: dict[int, int] = {}
    for basis, below in zip(powers, powers[1:] + [{}]):
        layer = [basis[row] for row in sorted(basis.keys() - below.keys(), reverse=True)]
        candidates = [1 ^ b for b in layer] + pcgs
        for y in candidates:
            if y not in delta:
                delta[y] = 1 ^ mul(_involute(perm, y), y)
        deltas = [delta[y] for y in candidates]
        selectors = [0] * len(below) + [1 << i for i in range(len(candidates))]
        _, kernel = _eliminate([*below.values(), *deltas], selectors)
        words = ([c for i, c in enumerate(candidates) if sel >> i & 1] for sel in kernel)
        pcgs = [reduce(mul, word) for word in words]
    return pcgs
