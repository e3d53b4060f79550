"""Build a group algebra over F2 and do arithmetic in it.

A finite 2-group is held as an explicit multiplication table; an algebra
element is a bitmask over the group's elements (bit i = coefficient of
element i). Addition is XOR; multiplication is table-driven convolution.
"""

from __future__ import annotations

from collections import Counter

import f2units as f


def main() -> None:
    g = f.make_quaternion(8)
    print(f"group: {g.name}, order {g.order}, labels {g.labels}")
    orders = Counter(f.element_order(g, x) for x in range(g.order))
    print(f"orders of elements: {dict(sorted(orders.items()))}")
    print(f"center: {f.center(g).labels()}")
    print()

    a = f.basis(g, 1)
    b = f.basis(g, 4)
    x = f.one(g) + a + b
    print(f"x       = {f.render_element(x)}")
    print(f"x + x   = {f.render_element(x + x)}   (characteristic two)")
    print(f"a * b   = {f.render_element(f.ga_mul(a, b))}")
    print(f"b * a   = {f.render_element(f.ga_mul(b, a))}   (noncommutative)")
    print(f"x^2     = {f.render_element(f.ga_mul(x, x))}")
    print()

    inv = f.ga_inverse(x)
    print(f"x^-1    = {f.render_element(inv)}")
    print(f"x * x^-1 = {f.render_element(f.ga_mul(x, inv))}")
    print()

    y = f.parse_element(g, "1 + a + a3 + b")
    print(f"parsed '1 + a + a3 + b' -> coefficient sum {f.augmentation(y)}")
    print("elements with even coefficient sum are never invertible here:")
    try:
        f.ga_inverse(f.one(g) + a)
    except f.errors.NotAUnitError as exc:
        print(f"  ga_inverse(1 + a) raised NotAUnitError: {exc}")


if __name__ == "__main__":
    main()
