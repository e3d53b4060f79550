"""Enumerate normalized units and unitary subgroups exhaustively.

Over F2 and a 2-group of order n, the normalized units (coefficient sum 1)
always number 2^(n-1). Fixing an order-two anti-automorphism sigma of the
group, the unitary elements u with u * u^sigma = 1 form a subgroup; this
demo counts both by scanning every candidate bitmask.
"""

from __future__ import annotations

import f2units as f


def main() -> None:
    print(f"{'group':>10} | {'|G|':>4} | {'|V|':>6} | {'|V| == 2^(|G|-1)':>16}")
    print("-" * 48)
    for name, g in f.small_catalog_groups().items():
        v = f.enumerate_normalized_units(g)
        print(f"{name:>10} | {g.order:>4} | {v.order:>6} | {v.order == 2**(g.order-1)!s:>16}")
    print()

    q8 = f.make_quaternion(8)
    sigma = f.classical_involution(q8)
    v_star = f.enumerate_unitary(q8, sigma)
    print(f"unitary subgroup of F2[{q8.name}] under g -> g^-1: {v_star.order} elements")
    print("canonical generators:")
    for mask in f.canonical_generators(v_star):
        print(f"  {f.render_element(f.AlgebraElement(q8, mask))}")
    print()

    # restricting the support to a subgroup enumerates the subalgebra's units
    a_sub = f.subgroup_closure(q8, [1])
    v_a = f.enumerate_unitary(q8, sigma, support=a_sub)
    print(f"unitary units supported on the cyclic subgroup {a_sub.labels()}: {v_a.order}")

    # every scan returns its masks in the canonical ascending order
    print(f"masks in ascending order: {list(v_star.masks) == sorted(v_star.masks)}")


if __name__ == "__main__":
    main()
