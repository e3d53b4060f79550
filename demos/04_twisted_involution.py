"""A second involution: fix the center, twist everything else.

When the central quotient G/Z(G) is Klein-four and the derived subgroup is
{1, e}, the map sending central g to itself and non-central g to g*e
extends to an involution of the group algebra. For the quaternion group
the unitary subgroup under this twist decomposes as a direct product

  V = image(G) x T x W

with W the central unipotent factor {1 + x1*a + x2*b + x3*ab} (each xi
ranging over the principal ideal (1+e)F2[Z(G)]) and T a complement of the
image of Z(G)[2] inside the order-two units of F2[Z(G)].
"""

from __future__ import annotations

import f2units as f


def main() -> None:
    g = f.make_quaternion(8)
    form = f.make_odot_form(g)
    print(f"group: {g.name}; center {form.c_sub.labels()}; twist element e = {g.label(form.e)}")
    sigma = f.odot_involution(form)
    pairs = ", ".join(f"{g.label(i)}->{g.label(sigma.perm[i])}" for i in range(g.order))
    print(f"involution on the group: {pairs}")
    print()

    w = f.build_central_unipotent(form)
    t_sub = f.build_torsion_complement(form)
    print(f"|W| = {w.order}  (formula: 2^(3|C|/2) = {2 ** (3 * len(form.c_sub.members) // 2)})")
    print(f"|T| = {t_sub.order}")
    every_central = all(
        f.ga_mul(x, f.basis(g, i)) == f.ga_mul(f.basis(g, i), x)
        for x in w.elements() for i in g.greedy_generators
    )
    print(f"every W member commutes with the group generators: {every_central}")
    print()

    v = f.enumerate_unitary(g, sigma)
    print(f"enumerated unitary subgroup: {v.order} elements")
    print(f"|G| * |T| * |W| = {g.order * t_sub.order * w.order}")
    print(f"V = G x T x W (internal direct product): "
          f"{f.internal_direct(v, [f.group_image(g), t_sub, w])}")
    print()

    report = f.verify_odot_decomposition(form)
    print(f"full verification report: {'PASS' if report.passed else 'FAIL'}")
    for check in report.checks:
        print(f"  {'ok  ' if check.passed else 'FAIL'} {check.name}")


if __name__ == "__main__":
    main()
