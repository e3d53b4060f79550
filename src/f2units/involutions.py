"""Order-2 anti-automorphisms of a group and the hypothesis bundles they need.

Two involutions are provided: the classical one (every group element goes to
its inverse) and the "odot" one (central elements are fixed, everything else
is multiplied by the commutator generator). The odot map is only an
anti-automorphism under specific structural hypotheses, so it is constructible
only through a validated OdotForm.
"""

from __future__ import annotations

from .errors import (
    BadOrderError,
    CenterQuotientNotKleinError,
    HypothesisViolationError,
    NotATwoGroupError,
    NotAbelianSubgroupError,
    NotInvertingError,
    WrongIndexError,
)
from .groups import (
    GroupTable,
    SubgroupSet,
    _require_index,
    center,
    coset_representatives,
    element_order,
    subgroup_closure,
)


class AntiAutomorphism:
    """A permutation of group elements intended to reverse products.

    Use validate_involution to check the defining laws; the module's own
    constructors only emit maps that pass it.
    """

    def __init__(self, group: GroupTable, perm: tuple[int, ...], name: str = "sigma"):
        self.group, self.perm, self.name = group, perm, name

    def __call__(self, i: int) -> int:
        return self.perm[i]


def classical_involution(g: GroupTable) -> AntiAutomorphism:
    """The map sending every group element to its inverse."""
    return AntiAutomorphism(g, g.inv, name="classical")


def validate_involution(sigma: AntiAutomorphism) -> bool:
    """True iff sigma is self-inverse and reverses every product.

    Reversal, sigma(a*y) = sigma(y)*sigma(a) for all y, is tested for the
    greedy generators a only: they generate the group, and the a that pass
    are closed under products, as sigma(a*b*y) = sigma(y)*sigma(b)*sigma(a)
    and the test for a at y = b gives sigma(b)*sigma(a) = sigma(a*b).
    """
    g = sigma.group
    perm = sigma.perm
    n = g.order
    if len(perm) != n or sorted(perm) != list(range(n)):
        return False
    if any(perm[perm[i]] != i for i in range(n)):
        return False
    mul = g.mul
    return all(
        perm[mul[a][y]] == mul[perm[y]][perm[a]] for a in g.greedy_generators for y in range(n)
    )


def _require_two_group(g: GroupTable) -> None:
    if not g.is_two_group():
        raise NotATwoGroupError(f"the group has order {g.order}, which is not a power of 2")


# ---------------------------------------------------------------------------
# hypothesis bundle: abelian index-2 subgroup inverted by an order-4 element


class InvertingExtensionForm:
    """A group with an abelian index-2 subgroup A and b of order 4 inverting A.

    ``transversal`` holds the smallest-index representatives of the cosets of
    the two-element subgroup generated by b*b inside A; there are |A|/2 of
    them and downstream reports record the choice.
    """

    def __init__(
        self, group: GroupTable, a_sub: SubgroupSet, b: int, transversal: tuple[int, ...]
    ):
        self.group, self.a_sub, self.b, self.transversal = group, a_sub, b, transversal

    @property
    def b_squared(self) -> int:
        g = self.group
        return g.mul[self.b][self.b]


def make_inverting_form(
    g: GroupTable, a_gens, b: int
) -> InvertingExtensionForm:
    """Validate the hypotheses and fix the coset transversal, or raise."""
    _require_two_group(g)
    a_gens = list(a_gens)
    for i in [b, *a_gens]:
        _require_index(g, i)
    a_sub = subgroup_closure(g, a_gens)
    if not a_sub.is_abelian():
        raise NotAbelianSubgroupError("the designated subgroup is not abelian")
    if 2 * a_sub.order != g.order:
        raise WrongIndexError(
            f"subgroup has index {g.order // a_sub.order}, need index 2"
        )
    return _inverting_form_at(g, a_sub, b)


def _inverting_form_at(
    g: GroupTable, a_sub: SubgroupSet, b: int
) -> InvertingExtensionForm:
    """Check that b lies outside a_sub, has order 4 and inverts a_sub.

    Inversion is tested on the generators of a_sub only: on an abelian A,
    conjugation by b and inversion are both homomorphisms, so the members
    on which they agree form a subgroup.
    """
    if b in a_sub:
        raise BadOrderError("the twisting element must lie outside the subgroup")
    order = element_order(g, b)
    if order != 4:
        raise BadOrderError(f"the twisting element has order {order}, need 4")
    binv = g.inv[b]
    for a in a_sub.generators:
        if g.mul[g.mul[binv][a]][b] != g.inv[a]:
            raise NotInvertingError(
                f"conjugation by the twisting element does not invert {g.labels[a]}"
            )
    bsq = g.mul[b][b]
    transversal = tuple(coset_representatives(g, (0, bsq), a_sub.members))
    return InvertingExtensionForm(g, a_sub, b, transversal)


def _index_two_kernels(g: GroupTable) -> list[SubgroupSet]:
    """Every index-2 subgroup, in ascending order of the member tuples.

    Index-2 subgroups are the kernels of the nonzero linear functionals on
    the quotient by the subgroup generated by squares, which holds every
    commutator: x^-1 y^-1 x y = (x^-1)^2 (x y^-1)^2 y^2. That quotient is
    elementary abelian, so each kernel is already a subgroup, and is taken
    as one without a closure.
    """
    n_sub = subgroup_closure(g, {g.mul[x][x] for x in range(g.order)})
    # Coordinates on the quotient: each element outside the span so far adds
    # a basis vector, and the span doubles by multiplying with it.
    vec = dict.fromkeys(n_sub.members, 0)
    dim = 0
    for x in range(g.order):
        if x not in vec:
            for y, v in list(vec.items()):
                vec[g.mul[y][x]] = v | 1 << dim
            dim += 1
    candidates = {
        tuple(x for x in range(g.order) if not (f & vec[x]).bit_count() & 1)
        for f in range(1, 1 << dim)
    }
    return [SubgroupSet(g, members) for members in sorted(candidates)]


def detect_inverting_form(g: GroupTable) -> InvertingExtensionForm:
    """Search the group for a valid (subgroup, twisting element) pair.

    Candidates are the abelian index-2 subgroups, tried in a fixed canonical
    order so detection is deterministic. Only the b with b^2 != 1 = b^4 are
    tried: ``_inverting_form_at`` rejects every other order as the twist's.
    """
    _require_two_group(g)
    candidates = _index_two_kernels(g)
    if not candidates:
        raise WrongIndexError("no index-2 subgroup: the group is generated by squares")
    twists = [b for b, row in enumerate(g.mul) if row[b] and not g.mul[row[b]][row[b]]]
    for a_sub in candidates:
        if not a_sub.is_abelian():
            continue
        for b in twists:
            try:
                return _inverting_form_at(g, a_sub, b)
            except HypothesisViolationError:
                continue
    raise NotInvertingError(
        "no abelian index-2 subgroup inverted by an order-4 element was found"
    )


# ---------------------------------------------------------------------------
# hypothesis bundle: center of index 4 with Klein quotient, commutator order 2


class OdotForm:
    """A group whose center C has Klein quotient and whose commutator
    subgroup is {1, e}; a and b are representatives of the two independent
    nontrivial cosets of C."""

    def __init__(self, group: GroupTable, c_sub: SubgroupSet, a: int, b: int, e: int):
        self.group, self.c_sub, self.a, self.b, self.e = group, c_sub, a, b, e


def make_odot_form(g: GroupTable, prefer_large_reps: bool = False) -> OdotForm:
    """Auto-detect the center, pick coset reps a and b, and set e = [a, b].

    The one hypothesis checked is |G:C| = 4 for the center C; the rest
    follows. G/C of order 4 cannot be cyclic (G would be abelian), so it is
    Klein: every square is central and G' <= C. Commutators are then
    bilinear, so G' = <[a, b]> for any a, b in distinct nontrivial cosets,
    and [a, b]^2 = [a^2, b] = 1, while [a, b] != 1 as G is not abelian.

    With prefer_large_reps the largest-index representatives are chosen
    instead of the smallest; the decomposition is verified for both choices
    since neither is canonical.
    """
    _require_two_group(g)
    c_sub = center(g)
    c_members = c_sub.member_set()
    if 4 * c_sub.order != g.order:
        raise CenterQuotientNotKleinError(f"center has index {g.order // c_sub.order}, need 4")
    outside = [x for x in range(g.order) if x not in c_members]
    if prefer_large_reps:
        outside = outside[::-1]
    a = outside[0]
    coset_a = {g.mul[c][a] for c in c_members}
    b = next(x for x in outside if x not in coset_a)
    e = g.mul[g.mul[g.inv[a]][g.inv[b]]][g.mul[a][b]]
    return OdotForm(g, c_sub, a, b, e)


def odot_involution(form: OdotForm) -> AntiAutomorphism:
    """Fix central elements; multiply every other element by the commutator
    generator. An anti-automorphism of order 2 under the form's hypotheses."""
    g = form.group
    c_members = form.c_sub.member_set()
    e = form.e
    perm = tuple(i if i in c_members else g.mul[i][e] for i in range(g.order))
    sigma = AntiAutomorphism(g, perm, name="odot")
    if not validate_involution(sigma):
        raise HypothesisViolationError(
            "constructed map fails the anti-automorphism laws"
        )
    return sigma
