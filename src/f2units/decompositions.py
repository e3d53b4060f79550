"""Structural decompositions of the unitary subgroups, built and certified.

Two pipelines, one per involution:

* classical, on a group with an abelian index-2 subgroup A inverted by an
  order-4 element b: the unitary group is the semidirect product of the group
  image and a normal cofactor H, itself the semidirect product of a unipotent
  factor {1 + (1+b*b) z b} and a complement of A's image inside the unitary
  group of the subalgebra on A.

* odot, on a group whose center C has Klein quotient and commutator {1, e}:
  the unitary group is the direct product of the group image, a torsion
  complement inside the order-2 part of the central subalgebra's unit group,
  and a central unipotent factor {1 + x1 a + x2 b + x3 ab} with coordinates
  in the ideal (1+e) F2C.

Every identity the structural argument rests on is rechecked here; normality,
commutation and the conjugation identities are decided on generators, which
is sound for finite groups. The unitary elements form a group, as do the
central ones and, in an abelian group, those squaring to 1; so G, T, H and
each W are checked on their generators, the first failing one the witness, by
``_failing_members`` from ``unitgroup``, which alone knows its bit-plane
format. The per-element lemma checks split with ``_coset_parts`` and decide
on masks by their independent conditions; their docstrings prove the rest.
Each W is decided on its basis of W - 1, membership by reduction, and one
table of its generators' products; the classical H = W*L from W and L, and
G x T x W on generators and supports. No group is listed by multiplying
members, and W, H and G*T are listed only for the oracle, which compares
their products with the enumerated unitary group by orders (``_product_is``).
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

from .algebra import (
    AlgebraElement,
    _coset_parts,
    _eliminate,
    _involute,
    _inverse,
    _mul,
    _render,
    _span,
    augmentation,
)
from .errors import HypothesisViolationError, NoComplementError, NotAbelianError, NotUnitaryError
from .groups import SubgroupSet, _require_group, coset_representatives
from .involutions import (
    InvertingExtensionForm,
    OdotForm,
    classical_involution,
    make_odot_form,
    odot_involution,
)
from .unitgroup import (
    _NOT_ABELIAN,
    DEFAULT_EXHAUSTIVE_BOUND,
    UnitSet,
    _complement_search,
    _failing_members,
    _fixed_point_pcgs,
    _product_is,
    _require_listable,
    _require_scan_memory,
    canonical_generators,
    enumerate_unitary,
    gens_of,
    group_image,
    internal_direct,
    internal_semidirect,
    make_unit_set,
    normalizes,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    witness: str | None = None


class DecompositionReport:
    """Outcome of one decomposition verification.

    ``orders`` holds the group order, each factor order, the product-formula
    prediction for the unitary group, and the enumerated order when the
    exhaustive pass ran. ``instance`` records every non-canonical choice
    (transversal, complement generators, coset representatives).
    """

    def __init__(self, kind: str, group: dict, involution: str, instance: dict, orders: dict):
        self.kind, self.group, self.involution = kind, group, involution
        self.instance, self.orders = instance, orders
        self.checks: list[CheckResult] = []
        self.notes: list[str] = []

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, witness: str | None = None) -> None:
        self.checks.append(CheckResult(name, bool(passed), witness))

    def to_json_dict(self) -> dict:
        checks = []
        for c in self.checks:
            entry: dict = {"name": c.name, "pass": c.passed}
            if c.witness is not None:
                entry["witness"] = c.witness
            checks.append(entry)
        return {
            "schema": 1,
            "kind": self.kind,
            "group": self.group,
            "involution": self.involution,
            "instance": self.instance,
            "orders": self.orders,
            "checks": checks,
            "notes": list(self.notes),
            "pass": self.passed,
        }


def _group_descriptor(g) -> dict:
    return {"family": g.family, "order": g.order, "spec": g.name}


def _add_member_check(
    report: DecompositionReport, name: str, g, masks, sigma, square=False, central=()
) -> int:
    """Add check ``name``: every mask squares to 1 (``square``), is unitary
    under ``sigma`` and commutes with each mask in ``central``; else the first
    failing member (see ``_failing_members``) is the witness. Returns the
    members that fail to commute, one bit each."""
    bad, noncentral = _failing_members(g, masks, sigma.perm, square, central)
    first = (bad & -bad).bit_length() - 1
    report.add(name, not bad, _render(g, masks[first]) if bad else None)
    return noncentral


def _add_oracle_skip_note(report: DecompositionReport, g, max_order: int) -> None:
    if g.order > max_order:
        reason = "group order exceeds the exhaustive bound"
    else:
        reason = "exhaustive enumeration skipped on request (construct mode)"
    report.notes.append(
        f"{reason}: oracle set equality skipped; "
        "constructive checks above verify the factors directly"
    )


# ---------------------------------------------------------------------------
# classical involution: unipotent factor, abelian complement, normal cofactor


# Echelon columns keyed by their lowest bit, as ``_eliminate`` returns them.
Pivots = dict[int, tuple[int, int]]


def _unipotent_basis(form: InvertingExtensionForm) -> tuple[list[int], list[int]]:
    """A basis of W - 1, the echelon image of A's basis under
    z -> (1+b*b) z b, and W's generators 1 + (1+b*b) g_i b over the
    transversal: the image route and the generator route, which the
    verification compares."""
    gens = [_unipotent_generator(form, gi) for gi in form.transversal]
    pivots, _ = _eliminate(1 ^ _unipotent_generator(form, a) for a in form.a_sub.members)
    return [col for col, _ in pivots.values()], gens


def build_unipotent_factor(form: InvertingExtensionForm) -> UnitSet:
    """All elements 1 + (1+b*b) z b, z over the subalgebra on A: one plus the
    span of ``_unipotent_basis``, with its transversal generators. The
    verification lists it only for the oracle."""
    vectors, gens = _unipotent_basis(form)
    _require_listable(form.group, 1 << len(vectors), "the unipotent factor W")
    return make_unit_set(form.group, (1 ^ m for m in _span(vectors)), generators=gens)


def _in_w(pivots: Pivots, u: int) -> bool:
    """u lies in W = 1 + span exactly when u + 1 reduces to 0 against the
    pivots of W - 1: each step clears the lowest bit, if a pivot holds it."""
    x = u ^ 1
    while x and (x & -x).bit_length() - 1 in pivots:
        x ^= pivots[(x & -x).bit_length() - 1][0]
    return not x


def _generator_facts(g, gens: Sequence[int], pivots: Pivots) -> tuple[bool, bool]:
    """(generated, elementary) for W's generators w_i, W - 1 the span of
    ``pivots``, read off one table of products x_i x_j, x_i = w_i - 1.

    generated: when every x_i x_j is 0, so is every product in the span,
    (1+u)(1+v) = 1+u+v, and the w_i generate exactly 1 + span(x_i): W when
    each w_i lies in W and the x_i have W's rank. The products are
    computed, not assumed from (1+b*b)^2 = 0, as this is the evidence for
    W's member checks on generators. They vanish on every W that
    ``_unipotent_basis`` gives, so there the verdict is that of listing
    the group the generators generate; 1 + J, generated by its canonical
    generators with J^2 != 0, fails.

    elementary: w_i w_j - w_j w_i = x_i x_j - x_j x_i and w_i^2 - 1 = x_i^2,
    so the w_i are commuting involutions, which generate an elementary
    abelian group, when the table is symmetric with a zero diagonal.
    """
    xs = [1 ^ m for m in gens]
    table = [[_mul(g, x, y) for y in xs] for x in xs]
    spans = all(_in_w(pivots, m) for m in gens) and len(_eliminate(xs)[0]) == len(pivots)
    symmetric = [list(col) for col in zip(*table)] == table
    elementary = symmetric and not any(row[i] for i, row in enumerate(table))
    return spans and not any(chain.from_iterable(table)), elementary


def _unipotent_generator(form: InvertingExtensionForm, gi: int) -> int:
    """1 + (1+b*b) g_i b, read off the table: (1+b*b) g_i b is the sum of the
    two group elements g_i b and b*b g_i b, distinct as b*b is not 1."""
    mul, b = form.group.mul, form.b
    return 1 ^ 1 << mul[gi][b] ^ 1 << mul[mul[form.b_squared][gi]][b]


def _abelian_complement(ambient: UnitSet, factor: UnitSet, sub: SubgroupSet) -> UnitSet:
    """``find_complement(ambient, factor)`` for an ambient group inside the
    subalgebra on the table subgroup ``sub``, which holds the factor. That
    subalgebra is commutative when ``sub`` is abelian, so ``sub``'s
    generators decide commutativity and nothing is listed from ``ambient``.
    Else NotAbelianError, as from ``find_complement``: A lies in V_*(F2A)."""
    if not sub.is_abelian():
        raise NotAbelianError(_NOT_ABELIAN)
    return _complement_search(ambient, factor)


def build_abelian_complement(form: InvertingExtensionForm) -> UnitSet:
    """Canonical complement of A's image inside the unitary group on A."""
    g = form.group
    v_a = enumerate_unitary(g, classical_involution(g), support=form.a_sub)
    return _abelian_complement(v_a, group_image(g, form.a_sub), form.a_sub)


def _require_w_module(form: InvertingExtensionForm, vectors: Iterable[int], order: int) -> Pivots:
    """The echelon pivots of W - 1 (see ``_in_w``), for a W of ``order``
    members whose W - 1 lies in the span of ``vectors``;
    HypothesisViolationError unless W - 1 is that span, |W| = 2^rank, and
    left and right translation (g.mul[a] and column a) by each generator a
    of A maps it into itself: no product."""
    g = form.group
    shifts = [p for a in form.a_sub.generators for p in (g.mul[a], [r[a] for r in g.mul])]
    pivots, _ = _eliminate(vectors)
    basis = [col for col, _ in pivots.values()]
    moved, _ = _eliminate(basis + [_involute(p, x) for p in shifts for x in basis])
    if order != 1 << len(pivots) or len(moved) != len(pivots):
        raise HypothesisViolationError("W - 1 is not a subspace closed under translation by A")
    return pivots


def _require_on_a(form: InvertingExtensionForm, ell: UnitSet) -> int:
    """The mask of A; HypothesisViolationError unless L lies on A."""
    on_a = sum(1 << i for i in form.a_sub.members)
    if any(m & ~on_a for m in ell.masks):
        raise HypothesisViolationError("the complement is not supported on A")
    return on_a


def build_normal_cofactor(form: InvertingExtensionForm, w: UnitSet, ell: UnitSet) -> UnitSet:
    """H = W*L, listed as the sumset {l + s : l in L, s in W - 1}:
    W - 1 = (1+b*b) F2A b is a two-sided F2A-module, as b normalizes A and
    b*b lies in A: (1+b*b) z b a = (1+b*b) (z a') b with a' = b a b^-1. For
    l in L, inside V(F2A), (1 + s) l = l + s l and s -> s l permutes W - 1,
    so W l = l + (W - 1). HypothesisViolationError unless that premise holds
    (``_require_w_module`` on W's members, once H's size is estimated, and
    ``_require_on_a``). The oracle of ``verify_inverting_decomposition``,
    which decides it on W's basis, lists H by ``_cofactor_sumset`` alone.

    The sumset is listed with s outer, over the ascending W - 1, and l inner,
    over the ascending L. W - 1 lies on the coset A b and L on A, so when A
    sits below its coset, as make_quaternion and make_inverting_extension
    lay it out, l + s orders by s first and the list is already ascending:
    ``make_unit_set`` sorts it in linear time. A relabelled table only costs
    a fuller sort.
    """
    _require_listable(form.group, w.order * ell.order, "the cofactor H = W*L")
    _require_w_module(form, (1 ^ m for m in w.masks), w.order)
    _require_on_a(form, ell)
    return _cofactor_sumset(form, w, ell)


def _cofactor_sumset(form: InvertingExtensionForm, w: UnitSet, ell: UnitSet) -> UnitSet:
    """``build_normal_cofactor`` once its premise is decided."""
    _require_listable(form.group, w.order * ell.order, "the cofactor H = W*L")
    gens = tuple(w.generators or ()) + tuple(ell.generators or ())
    masks = (l ^ 1 ^ m for m in w.masks for l in ell.masks)
    return make_unit_set(form.group, masks, generators=gens)


def _conjugation_witness(
    form: InvertingExtensionForm, x1s: Sequence[int], ws: Sequence[int], in_w: Callable[[int], bool]
) -> tuple[str | None, list[bool]]:
    """Check the three conjugation identities: the witness of the first
    failure, else None, and per x1 whether it normalizes W.

    ``ws`` are W's generators from ``_unipotent_basis``, w_i = 1 + (1+b*b)
    g_i b over the transversal elements g_i. Conjugating w_i by b gives the
    generator at g_i's inverse, which is the generator at the representative
    of its coset, as (1+b*b) b*b = 1+b*b; conjugating by a unitary x1 of the
    subalgebra on A gives 1 + (1+b*b) x1^2 g_i b, inside W (as ``in_w``
    tells); and b x1^{-1} = x1 b = b x1*.

    x1 runs over ``x1s`` only, a generating set of V_*(F2A): the pipeline
    passes the generators of A's image and of L, which generate it once
    ``abelian_complement_contract`` holds, and ``check_conjugation_closure``
    the canonical generators of the scanned group. That suffices, as the
    subalgebra on A is commutative and holds b*b: if the identities hold for
    x1 and y1, then b (x1 y1)^{-1} = y1 b x1^{-1} = x1 y1 b, and
    x1 y1 w_i (x1 y1)^{-1} = 1 + x1 (1+b*b) y1^2 g_i b x1^{-1}
    = 1 + (1+b*b) (x1 y1)^2 g_i b; (x1 y1)* = y1* x1* = (x1 y1)^{-1}; and
    inverses are positive powers. The witness is the first failing
    (g_i, x1) pair, g_i outer. The w_i generate W, so x1 normalizes W when
    its conjugates of them lie in W; each is formed once, before the search.
    """
    g = form.group
    nb = 1 ^ (1 << form.b_squared)
    b_el = 1 << form.b
    b_inv = 1 << g.inv[form.b]
    perm = classical_involution(g).perm

    # Per x1: (1+b*b) x1^2, x1 w_i x1^-1 and whether each lies in W, and
    # the first failing twist identity, which does not depend on g_i.
    xs = []
    for x1 in x1s:
        x1_inv = _inverse(g, x1)
        left = _mul(g, b_el, x1_inv)
        if left != _mul(g, x1, b_el):
            twist = f"twist commutation fails at {_render(g, x1)}"
        elif left != _mul(g, b_el, _involute(perm, x1)):
            twist = f"inverse-vs-star mismatch at {_render(g, x1)}"
        else:
            twist = None
        conjs = [_mul(g, _mul(g, x1, w_i), x1_inv) for w_i in ws]
        xs.append((x1, _mul(g, nb, _mul(g, x1, x1)), conjs, list(map(in_w, conjs)), twist))
    normal = [all(inside) for *_, inside, _ in xs]

    for i, (gi, w_i) in enumerate(zip(form.transversal, ws)):
        conj_b = _mul(g, _mul(g, b_el, w_i), b_inv)
        if conj_b != _unipotent_generator(form, g.inv[gi]) or not in_w(conj_b):
            return f"twist conjugation at {g.labels[gi]}: got {_render(g, conj_b)}", normal
        gi_b = 1 << g.mul[gi][form.b]
        for x1, nb_sq, conjs, inside, twist in xs:
            if conjs[i] != 1 ^ _mul(g, nb_sq, gi_b) or not inside[i]:
                return (
                    f"unitary conjugation at {g.labels[gi]} by "
                    f"{_render(g, x1)}: got {_render(g, conjs[i])}"
                ), normal
            if twist is not None:
                return twist, normal
    return None, normal


def check_conjugation_closure(form: InvertingExtensionForm) -> bool:
    """True iff all three conjugation identities hold for every pair."""
    g = form.group
    v_a = enumerate_unitary(g, classical_involution(g), support=form.a_sub)
    vectors, ws = _unipotent_basis(form)
    pivots = _require_w_module(form, vectors, 1 << len(vectors))
    witness, _ = _conjugation_witness(form, canonical_generators(v_a), ws, partial(_in_w, pivots))
    return witness is None


def check_unitary_split_form(form: InvertingExtensionForm, x: AlgebraElement) -> bool:
    """Decide unitarity of one element by the split form x = x1 (1 + y b).

    x = x1 + x2 b with x1, x2 on A, and augmentation 1 makes exactly one
    part odd; when it is x2, the parts swap, as b is unitary, x b = x2 b*b +
    x1 b and (x2 b*b)(x2 b*b)* = x2 x2*. Of the lemma's conditions, with y =
    x1^-1 x2, this tests x2 (1+b*b) = 0 and x1 x1* = 1. The rest follow: b*b
    is a central involution (the form's b lies outside A and has order 4), so
    it pairs off the basis and ker(1+b*b) = im(1+b*b); x1 is a unit of the
    commutative F2A, so y (1+b*b) = 0, y = z (1+b*b) is divisible by 1+b*b,
    y y* = z z* (1+b*b)^2 = 0 and x1 x1* (1 + y y*) = x1 x1*. A hand-built
    form with b*b = 1 (the linear-algebra tests' D8 form) is outside this
    proof and never passed here. NotUnitaryError when x is not a unit.
    """
    g = form.group
    _require_group(g, x.group, "the element")
    if augmentation(x) == 0:
        raise NotUnitaryError("element has augmentation 0")
    x1, x2 = _coset_parts(g, x.mask, form.a_sub, (0, form.b))
    if x2.bit_count() & 1:
        x1, x2 = x2, x1
    perm = classical_involution(g).perm
    return not _mul(g, x2, 1 ^ 1 << form.b_squared) and _mul(g, x1, _involute(perm, x1)) == 1


def verify_inverting_decomposition(
    form: InvertingExtensionForm,
    max_order: int = DEFAULT_EXHAUSTIVE_BOUND,
    skip_enumeration: bool = False,
) -> DecompositionReport:
    """Build the factors, check every structural claim, compare with the oracle.

    Groups larger than ``max_order`` get the constructive checks only
    (factors verified internally, every constructed element confirmed
    unitary); raise ``max_order`` to run the full oracle on them. W is
    decided on its basis of W - 1, membership by reduction (``_in_w``), and
    H = W*L from W and L, its unitarity on its generators; W and H are
    listed only for the oracle. A scan above ``max_order`` positions, or a
    listing or scan estimated above the memory budget, is a TooLargeError;
    the oracle's scan is estimated before anything is listed.
    """
    if not isinstance(form, InvertingExtensionForm):
        raise TypeError(
            "expected the form object from make_inverting_form or "
            f"detect_inverting_form, got {type(form).__name__}"
        )
    g = form.group
    sigma = classical_involution(g)
    a_order = form.a_sub.order
    report = DecompositionReport(
        kind="inverting_extension",
        group=_group_descriptor(g),
        involution="classical",
        instance={
            "subgroup": list(form.a_sub.labels()),
            "twist": g.labels[form.b],
            "twist_square": g.labels[form.b_squared],
            "transversal": [g.labels[i] for i in form.transversal],
        },
        orders={},
    )

    oracle = g.order <= max_order and not skip_enumeration
    if oracle:  # refuse a scan that cannot fit before anything is listed
        _require_scan_memory(g, g.order)
    # Before any product (tables of 4 n^3 bytes): A's scan refuses n >= 128.
    v_a = enumerate_unitary(g, sigma, max_order=max_order, support=form.a_sub)
    vectors, w_gens = _unipotent_basis(form)
    pivots = _require_w_module(form, vectors, 1 << len(vectors))
    in_w = partial(_in_w, pivots)
    rank = len(pivots)
    w_order = 1 << rank
    generated, elementary = _generator_facts(g, w_gens, pivots)
    # (1+b*b)^2 = 0, so the image (1+b*b) F2A b has dimension at most |A|/2.
    expected_w = 1 << (a_order // 2)
    report.add("unipotent_order_formula", w_order == expected_w)
    report.add("unipotent_generator_route_agrees", generated)
    # Each fiber is a coset of the kernel, of dimension |A| - log2|W|.
    report.add("unipotent_fibers_uniform", 1 << (a_order - rank) == expected_w)
    report.add("unipotent_elementary_abelian", elementary and rank == a_order // 2)
    # The unitary elements, and in the abelian W those squaring to 1, form
    # groups, and W is the group its generators generate (route check above).
    _add_member_check(report, "unipotent_members_unitary", g, w_gens, sigma, square=True)

    a_image = group_image(g, form.a_sub)
    try:
        ell = _abelian_complement(v_a, a_image, form.a_sub)
    except NoComplementError as exc:
        report.add("abelian_complement_exists", False, str(exc))
        report.orders = {
            "group": g.order,
            "unipotent": w_order,
            "unitary_on_subalgebra": v_a.order,
        }
        return report
    report.add("abelian_complement_exists", True)
    report.instance["complement_generators"] = [_render(g, m) for m in (ell.generators or ())]
    report.add("abelian_complement_contract", internal_direct(v_a, [a_image, ell]))

    # H = W*L is decided from W and L; only the oracle lists it. L lies on A,
    # so with W - 1, the span of its basis, on the coset A b the sums l + s
    # are distinct, and a basis element lies in H only if it lies in L.
    on_a = _require_on_a(form, ell)
    report.add("cofactor_order", not any(x & on_a for x in vectors))
    # A and L generate V_*(F2A) when the contract above holds; else the
    # report fails on it. L normalizes W when its generators' flags hold.
    a_gens = gens_of(a_image)
    witness, normal = _conjugation_witness(form, a_gens + gens_of(ell), w_gens, in_w)
    meets_trivially = [m for m in ell.masks if in_w(m)] == [1]
    report.add("cofactor_semidirect", meets_trivially and all(normal[len(a_gens):]))
    report.add("conjugation_identities", witness is None, witness)

    report.add("group_meets_cofactor_trivially", a_image.mask_set() & ell.mask_set() == {1})

    expected = g.order * w_order * ell.order
    report.orders = {
        "group": g.order,
        "unipotent": w_order,
        "complement": ell.order,
        "cofactor": w_order * ell.order,
        "expected_unitary": expected,
    }

    if oracle:
        h = _cofactor_sumset(form, build_unipotent_factor(form), ell)  # premise decided above
        g_image = group_image(g)
        v = enumerate_unitary(g, sigma, max_order=max_order)
        report.orders["oracle_unitary"] = v.order
        report.add("unitary_order_matches", v.order == expected)
        report.add("oracle_set_equality", _product_is(v, g_image, h))
        # The pcgs generates V_*, so it generates v once it lies in v and
        # their orders agree; else the first unit outside v is the witness.
        pcgs = _fixed_point_pcgs(g, sigma.perm, range(g.order), g.greedy_generators)
        bad = [_render(g, m) for m in pcgs if m not in v.mask_set()]
        if 1 << len(pcgs) != v.order:
            bad.append(f"pcgs order {1 << len(pcgs)}, scanned order {v.order}")
        normal = not bad and normalizes(g, pcgs, h)
        report.add("cofactor_normal_in_unitary", normal, bad[0] if bad else None)
        # The smallest member of H, else of G, outside v is the witness.
        outside = next((m for m in chain(h.masks, g_image.masks) if m not in v), None)
        semidirect = outside is None and internal_semidirect(v, h, g_image)
        report.add("group_cofactor_semidirect", semidirect, outside and _render(g, outside))
    else:
        report.notes.append(
            "cofactor normality checked through the complement generators "
            "(the unipotent factor normalizes itself)"
        )
        _add_oracle_skip_note(report, g, max_order)
        # V_* is a group, so H lies in it when its generators do.
        _add_member_check(report, "cofactor_members_unitary", g, w_gens + gens_of(ell), sigma)
    return report


# ---------------------------------------------------------------------------
# odot involution: torsion complement and central unipotent factor


def _ideal_basis(form: OdotForm) -> list[int]:
    """F2-basis of the ideal (1+e) F2C: (1+e)c = c + ec over representatives
    c of the cosets of {1, e} in C."""
    g, e = form.group, form.e
    reps = coset_representatives(g, (0, e), form.c_sub.members)
    return [1 << c | 1 << g.mul[e][c] for c in reps]


def _central_unipotent_basis(form: OdotForm) -> list[int]:
    """A basis of W - 1: the ideal's basis times a, b and ab."""
    g = form.group
    cosets = (1 << form.a, 1 << form.b, 1 << g.mul[form.a][form.b])
    return [_mul(g, beta, c) for beta in _ideal_basis(form) for c in cosets]


def build_central_unipotent(form: OdotForm) -> UnitSet:
    """All elements 1 + x1 a + x2 b + x3 ab with coordinates in (1+e) F2C:
    one plus the span of ``_central_unipotent_basis``. The verification
    lists it only for the oracle."""
    vectors = _central_unipotent_basis(form)
    _require_listable(form.group, 1 << len(vectors), "the unipotent factor W")
    masks = (1 ^ m for m in _span(vectors))
    return make_unit_set(form.group, masks, generators=[1 ^ v for v in vectors])


def build_torsion_complement(form: OdotForm) -> UnitSet:
    """Canonical complement of C's involution subgroup inside the order-2
    part of the central subalgebra's unit group."""
    return _abelian_complement(*_central_order_2_parts(form), form.c_sub)


def _central_order_2_parts(form: OdotForm) -> tuple[UnitSet, UnitSet]:
    """The order-2 part of V(F2C) and the image of C's involutions in it,
    with their table-greedy generators.

    Squaring is linear on the commutative algebra F2C, so the order-2 units
    are 1 + ker(x -> x^2) on the augmentation ideal, whose basis is the 1 + c.
    The estimate counts the listing three times: the complement search that
    both callers run next keeps S*F at each depth, at most as many masks as
    the listing at the deepest and fewer than that at all the others.
    """
    g = form.group
    nontrivial = [c for c in form.c_sub.members if c]
    squares = [1 ^ (1 << g.mul[c][c]) for c in nontrivial]
    _, kernel = _eliminate(squares, [1 ^ (1 << c) for c in nontrivial])
    what = "the order-2 central units and the S*F of their complement search"
    _require_listable(g, 3 << len(kernel), what)
    v_c2 = make_unit_set(g, (1 ^ k for k in _span(kernel)))
    involutions = tuple(c for c in form.c_sub.members if g.mul[c][c] == 0)
    return v_c2, group_image(g, SubgroupSet(g, involutions))


def check_unitary_quadrant_system(form: OdotForm, x: AlgebraElement) -> bool:
    """Decide unitarity of one normalized element: split x over the four
    cosets of the center C and return the four unitarity equations.

    The lemma's other conditions, for x = x0 (1 + y1 a + y2 b + y3 ab) with
    x0 a unit, follow. As e is a central involution, ker(1+e) = im(1+e) = I
    = (1+e) F2C, the kernel of F2C -> F2[C/<e>], a local ring whose units
    are its odd elements. Modulo I, equations 2-4 give x1 (x0^2 + x2^2 b*b)
    = 0 and x2 (x0^2 + x1^2 a*a) = 0; were x1 or x2 a unit there, the
    augmentations of these or of equation 1 would read 1 = 0. So both are
    non-units, their cofactors above are units, and x1, x2 and x3 = x0^-1 x1
    x2 lie in I. Each y_i = x0^-1 x_i then lies in I, so is annihilated by
    and divisible by 1+e and squares to 0, and equation 1 gives x0^2 = 1.
    The proof needs the hypotheses that ``make_odot_form`` checks.
    """
    g = form.group
    _require_group(g, x.group, "the element")
    if augmentation(x) == 0:
        raise NotUnitaryError("element has augmentation 0")
    a, b, e = form.a, form.b, form.e
    mul = partial(_mul, g)
    ne = 1 ^ (1 << e)
    asq = 1 << g.mul[a][a]
    bsq = 1 << g.mul[b][b]
    x0, x1, x2, x3 = _coset_parts(g, x.mask, form.c_sub, (0, a, b, g.mul[a][b]))
    # The four equations' left sides, on central masks.
    return (
        mul(x0, x0)
        ^ mul(mul(mul(x1, x1), asq) ^ mul(mul(x2, x2), bsq), 1 << e)
        ^ mul(mul(mul(x3, x3), asq), bsq),
        mul(mul(x0, x1) ^ mul(mul(x2, x3), bsq), ne),
        mul(mul(x0, x2) ^ mul(mul(x1, x3), asq), ne),
        mul(mul(x0, x3) ^ mul(x1, x2), ne),
    ) == (1, 0, 0, 0)


def verify_odot_decomposition(
    form: OdotForm,
    max_order: int = DEFAULT_EXHAUSTIVE_BOUND,
    skip_enumeration: bool = False,
) -> DecompositionReport:
    """Build the torsion and central unipotent factors, certify the direct
    product, compare with the enumerated unitary group when in bounds.

    W is decided on its basis of W - 1 and G x T x W on generators and
    supports; W and G*T are listed only for the oracle. A listing or scan
    estimated above the memory budget is a TooLargeError.
    """
    if not isinstance(form, OdotForm):
        raise TypeError(
            f"expected the form object from make_odot_form, got {type(form).__name__}"
        )
    g = form.group
    sigma = odot_involution(form)
    report = DecompositionReport(
        kind="odot",
        group=_group_descriptor(g),
        involution="odot",
        instance={
            "center": list(form.c_sub.labels()),
            "rep_a": g.labels[form.a],
            "rep_b": g.labels[form.b],
            "commutator": g.labels[form.e],
        },
        orders={},
    )

    dim = 3 * form.c_sub.order // 2
    oracle = g.order <= max_order and not skip_enumeration
    if oracle:  # refuse a scan that cannot fit before anything is listed
        _require_scan_memory(g, g.order)
    # Before any product (tables of 4 n^3 bytes): of dim >= |C|/2, it refuses n >= 256.
    v_c2, c2_image = _central_order_2_parts(form)
    vectors = _central_unipotent_basis(form)
    rank = len(_eliminate(vectors)[0])
    w_order = 1 << rank
    report.add("central_unipotent_order_formula", rank == dim)
    # When every v_i v_j is 0 (computed, not assumed: W's checks rest on it),
    # (1+u)(1+v) = 1+u+v on the span, and the 1 + v_i generate 1 + span: W.
    zero_table = not any(_mul(g, x, y) for x in vectors for y in vectors)
    report.add("central_unipotent_elementary", zero_table and rank == dim)
    # Central exactly when it commutes with each element of a generating set.
    # The unitary, the central and the square-1 units of the abelian W form
    # groups, and W is the group its generators generate (the check above).
    w_gens = [1 ^ v for v in vectors]
    gen_basis = [1 << i for i in g.greedy_generators]
    noncentral = _add_member_check(
        report, "central_unipotent_members_central_unitary", g, w_gens,
        sigma, square=True, central=gen_basis,
    )

    # The decomposition needs the group inside the unitary set, which holds
    # exactly when every non-central element squares to the commutator
    # generator; checked from the tables rather than assumed. The g with
    # g sigma(g) = 1 form a group, so G's greedy generators decide it, and
    # the smallest failing element, outside the span of the smaller ones,
    # is the first failing generator: the witness.
    g_image = group_image(g)
    _add_member_check(report, "group_inside_unitary", g, gens_of(g_image), sigma)

    try:
        t = _abelian_complement(v_c2, c2_image, form.c_sub)
    except NoComplementError as exc:
        report.add("torsion_complement_exists", False, str(exc))
        report.orders = {"group": g.order, "central_unipotent": w_order}
        return report
    report.add("torsion_complement_exists", True)
    report.instance["torsion_generators"] = [_render(g, m) for m in (t.generators or ())]
    report.add("torsion_complement_contract", internal_direct(v_c2, [c2_image, t]))
    meets_trivially = t.mask_set() & g_image.mask_set() == {1}
    report.add("torsion_outside_group", meets_trivially)

    expected = g.order * t.order * w_order
    report.orders = {
        "group": g.order,
        "torsion_complement": t.order,
        "central_unipotent": w_order,
        "central_units_order_2": v_c2.order,
        "expected_unitary": expected,
    }

    # G x T x W: the contract puts T in V(F2C)[2], so T is central; G meets
    # T trivially (above); W commutes with G, as the member check found on
    # generators; and G*T meets W only in 1 when W - 1 lies off C, as g t
    # lies on the coset g C and 1 + x, x != 0 off C, on C and another coset.
    on_c = sum(1 << c for c in form.c_sub.members)
    off_c = not any(v & on_c for v in vectors)
    direct = meets_trivially and off_c and not noncentral
    if oracle:
        w = build_central_unipotent(form)
        # G*T by left translation, which permutes the basis; a subgroup, as T is central.
        _require_listable(g, g.order * t.order, "G*T")
        gt_masks = (_involute(g.mul[i], m) for i in range(g.order) for m in t.masks)
        gt = make_unit_set(g, gt_masks, generators=gens_of(g_image) + gens_of(t))
        v = enumerate_unitary(g, sigma, max_order=max_order)
        report.orders["oracle_unitary"] = v.order
        report.add("unitary_order_matches", v.order == expected)
        factors_ok = _product_is(v, gt, w)
        if g_image.mask_set() <= v.mask_set():
            # factors_ok puts G*T and W, so each factor, inside v.
            report.add("direct_product", direct and factors_ok)
        else:
            report.add(
                "direct_product", False, "group image is not inside the unitary set"
            )
        report.add("oracle_set_equality", factors_ok)
    else:
        _add_oracle_skip_note(report, g, max_order)
        factors_ok = direct
        report.add("factors_pairwise_direct", factors_ok)
        # V_* is a group, so T lies in it when its generators do.
        _add_member_check(report, "torsion_members_unitary", g, gens_of(t), sigma)

    # Only W depends on the coset representatives, and (1+e) F2C is stable
    # under C, so the other representatives must give the same W as a set:
    # exactly when their basis has rank 3|C|/2 and adds none to W's.
    alt = make_odot_form(g, prefer_large_reps=True)
    if (alt.a, alt.b) != (form.a, form.b):
        alt_basis = _central_unipotent_basis(alt)
        report.instance["alternate_reps"] = {
            "rep_a": g.labels[alt.a],
            "rep_b": g.labels[alt.b],
        }
        joint = len(_eliminate(vectors + alt_basis)[0])
        alt_ok = len(_eliminate(alt_basis)[0]) == dim and joint == rank
        report.add("alternate_representatives_pass", factors_ok and alt_ok)
    return report
