"""Past the exhaustive bound: constructive verification at order 32.

An order-32 group algebra has 2^31 normalized units — too many to scan by
default, so enumeration raises TooLargeError and the verifier falls back
to constructive checks: build the factors, verify every constructed
element is unitary, and certify the product structure directly. With
max_order=32 the full oracle runs as well: the bit-sliced unitary scan
covers all 2^32 elements in seconds, and the whole verification of Q32
with the oracle takes under a minute, most of it spent finding generators
of the enumerated group.
"""

from __future__ import annotations

import time

import f2units as f


def main() -> None:
    g = f.make_quaternion(32)
    print(f"group: {g.name}, order {g.order}; "
          f"candidate space if enumerated: 2^{g.order - 1} masks")
    try:
        f.enumerate_normalized_units(g)
    except f.errors.TooLargeError as exc:
        print(f"enumerate_normalized_units: TooLargeError: {exc}")
    print()

    t0 = time.monotonic()
    form = f.make_inverting_form(g, a_gens=[1], b=16)
    report = f.verify_inverting_decomposition(form)
    elapsed = time.monotonic() - t0
    print(f"constructive verification: {'PASS' if report.passed else 'FAIL'} "
          f"in {elapsed:.1f}s")
    print(f"orders: {report.orders}")
    for check in report.checks:
        print(f"  {'ok  ' if check.passed else 'FAIL'} {check.name}")
    for note in report.notes:
        print(f"  note: {note}")
    print()

    # the same degradation applies to the twisted involution at order 32
    d8xc4 = f.make_direct_product(f.make_dihedral(8), f.make_cyclic(4))
    t0 = time.monotonic()
    report2 = f.verify_odot_decomposition(f.make_odot_form(d8xc4))
    elapsed = time.monotonic() - t0
    print(f"{d8xc4.name} twisted-involution verification: "
          f"{'PASS' if report2.passed else 'FAIL'} in {elapsed:.1f}s")
    print("(the dihedral-family containment failure of demo 05 persists here:")
    print(" the center has order-4 elements g with g * g^twist = g^2 != 1)")
    for check in report2.checks:
        if not check.passed:
            witness = f" (witness: {check.witness})" if check.witness else ""
            print(f"  FAIL {check.name}{witness}")


if __name__ == "__main__":
    main()
