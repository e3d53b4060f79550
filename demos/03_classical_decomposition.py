"""Rebuild a classical unitary subgroup from structure instead of scanning.

For a group with an abelian index-2 subgroup A inverted by an outside
element b of order 4, the unitary subgroup under g -> g^-1 splits as
G semidirect H, where H itself is W semidirect L:

  W — unipotent factor: all 1 + (1 + b^2) z b with z over F2[A]; an
      elementary abelian 2-group of order 2^(|A|/2),
  L — a complement of the image of A inside the unitary units of F2[A].

The demo builds the factors, verifies the internal product structure, and
then checks the construction against the exhaustive enumeration V without
listing G * H: H is normal in V and meets G trivially, so G * H = V exactly
when |G| * |H| = |V|.
"""

from __future__ import annotations

import f2units as f


def main() -> None:
    g = f.make_quaternion(16)
    form = f.make_inverting_form(g, a_gens=[1], b=8)
    print(f"group: {g.name}; abelian subgroup {form.a_sub.labels()}")
    print(f"twist b = {g.label(form.b)} with b^2 = {g.label(form.b_squared)}")
    print()

    w = f.build_unipotent_factor(form)
    ell = f.build_abelian_complement(form)
    h = f.build_normal_cofactor(form, w, ell)
    print(f"|W| = {w.order}  (formula: 2^(|A|/2) = {2 ** (len(form.a_sub.members) // 2)})")
    print(f"|L| = {ell.order}")
    print(f"|H| = |W| * |L| = {h.order}")
    # A group in which every element squares to 1 is elementary abelian.
    elementary = all((x * x).is_one() for x in w.elements())
    print(f"W is elementary abelian: {elementary}")
    print(f"H = W semidirect L: {f.internal_semidirect(h, w, ell)}")
    print()

    sigma = f.classical_involution(g)
    v = f.enumerate_unitary(g, sigma)
    print(f"|G| * |H| = {g.order * h.order}")
    print(f"enumerated unitary subgroup: |V| = {v.order} elements")
    print(f"V = G semidirect H: {f.internal_semidirect(v, h, f.group_image(g))}")
    print()

    report = f.verify_inverting_decomposition(form)
    print(f"full verification report: {'PASS' if report.passed else 'FAIL'}")
    for check in report.checks:
        print(f"  {'ok  ' if check.passed else 'FAIL'} {check.name}")


if __name__ == "__main__":
    main()
