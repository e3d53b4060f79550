"""Acceptance gate: the nine numbered checks this build must satisfy.

Each test covers one numbered criterion, prints a single summary line, and
enforces the stated time budget. Criteria are asserted as stated even where
the build's own enumeration contradicts the expected value: the dihedral
branch of the twisted-involution decomposition (criteria 4, 5, and half of
8) fails because non-central reflections and order-4 central elements are
not unitary under that involution, and the corresponding tests fail with
the measured counts and witnesses rather than being weakened to pass.
"""

from __future__ import annotations

import json
import random
import time

import f2units as f
from f2units.catalog import CLASSICAL_ENTRIES, ODOT_ENTRIES, small_catalog_groups
from oracles import naive_product


def emit(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_normalized_unit_counts():
    """|V(F2 G)| = 2^(|G|-1) for every catalog group of order <= 16, with
    every member passing the inversion check; well under a minute total."""
    t0 = time.monotonic()
    counts = {}
    for name, g in small_catalog_groups().items():
        v = f.enumerate_normalized_units(g)
        assert v.order == 2 ** (g.order - 1), (
            f"{name}: expected {2 ** (g.order - 1)} normalized units, got {v.order}"
        )
        for x in v.elements():
            assert f.ga_mul(x, f.ga_inverse(x)).is_one(), (
                f"{name}: {f.render_element(x)} failed the inversion check"
            )
        counts[name] = v.order
    elapsed = time.monotonic() - t0
    emit(1, True, f"counts {counts} in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_02_quaternion_classical_oracle_equivalence():
    """The order-8 quaternion unitary group under the classical involution:
    exactly 64 elements, equal as a set to image(G)*W*L with |W| = 4 and
    |L| = 2; under one second."""
    t0 = time.monotonic()
    g = f.make_quaternion(8)
    form = f.make_inverting_form(g, [1], 4)
    v = f.enumerate_unitary(g, f.classical_involution(g))
    assert v.order == 64, f"expected 64 unitary elements, got {v.order}"
    w = f.build_unipotent_factor(form)
    ell = f.build_abelian_complement(form)
    assert w.order == 4, f"|W| = {w.order}, expected 4"
    assert ell.order == 2, f"|L| = {ell.order}, expected 2"
    product = naive_product(g, f.group_image(g).masks, naive_product(g, w.masks, ell.masks))
    assert product == v.mask_set(), "constructed product differs from enumeration"
    elapsed = time.monotonic() - t0
    emit(2, True, f"64 = 8*4*2, exact set equality in {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_03_order16_classical_oracle_equivalence():
    """Both order-16 classical instances: constructed decomposition equals
    the enumerated unitary group over 2^15 candidates; |W| = 2^(|A|/2);
    under 30 seconds each."""
    details = []
    for entry in CLASSICAL_ENTRIES:
        if entry.key == "Q8":
            continue
        t0 = time.monotonic()
        form = entry.form()
        report = f.verify_inverting_decomposition(form)
        elapsed = time.monotonic() - t0
        names = {c.name: c.passed for c in report.checks}
        assert report.passed, (
            f"{entry.key}: failing checks "
            f"{[n for n, ok in names.items() if not ok]}"
        )
        assert names["oracle_set_equality"], f"{entry.key}: set equality failed"
        half = len(form.a_sub.members) // 2
        assert report.orders["unipotent"] == 2 ** half, (
            f"{entry.key}: |W| = {report.orders['unipotent']}, expected {2 ** half}"
        )
        assert elapsed < 30.0, f"{entry.key}: {elapsed:.1f}s exceeds the 30s budget"
        details.append(f"{entry.key} {report.orders['oracle_unitary']} in {elapsed:.1f}s")
    emit(3, True, "; ".join(details))


def test_criterion_04_order8_twisted_oracle_equivalence():
    """Twisted involution on both order-8 instances: exactly 64 unitary
    elements each, equal to image(G)*T*W with T trivial and |W| = 8; under
    one second each. The dihedral half of this claim is contradicted by
    direct enumeration (reflections are not unitary), and fails here."""
    failures = []
    summaries = []
    for key, build in [("D8", f.make_dihedral), ("Q8", f.make_quaternion)]:
        t0 = time.monotonic()
        g = build(8)
        form = f.make_odot_form(g)
        v = f.enumerate_unitary(g, f.odot_involution(form))
        w = f.build_central_unipotent(form)
        t_sub = f.build_torsion_complement(form)
        product = naive_product(
            g, f.group_image(g).masks, naive_product(g, t_sub.masks, w.masks)
        )
        elapsed = time.monotonic() - t0
        summaries.append(f"{key}: |V|={v.order}, |T|={t_sub.order}, |W|={w.order}")
        if t_sub.order != 1:
            failures.append(f"{key}: T has order {t_sub.order}, expected trivial")
        if w.order != 8:
            failures.append(f"{key}: |W| = {w.order}, expected 8")
        if v.order != 64:
            failures.append(
                f"{key}: expected 64 unitary elements, enumeration finds {v.order}"
            )
        if product != v.mask_set():
            failures.append(
                f"{key}: image(G)*T*W (size {len(product)}) differs from the "
                f"enumerated unitary set (size {v.order})"
            )
        if elapsed >= 1.0:
            failures.append(f"{key}: {elapsed:.2f}s exceeds the 1s budget")
    emit(4, not failures, "; ".join(summaries))
    assert not failures, "; ".join(failures)


def test_criterion_05_order16_twisted_oracle_equivalence():
    """Twisted involution on the dihedral-by-cyclic product of order 16:
    2048 = 16*2*64 unitary elements with exact set equality; under 30
    seconds. Contradicted by direct enumeration (1024), and fails here."""
    t0 = time.monotonic()
    g = f.make_direct_product(f.make_dihedral(8), f.make_cyclic(2))
    form = f.make_odot_form(g)
    v = f.enumerate_unitary(g, f.odot_involution(form))
    w = f.build_central_unipotent(form)
    t_sub = f.build_torsion_complement(form)
    product = naive_product(
        g, f.group_image(g).masks, naive_product(g, t_sub.masks, w.masks)
    )
    elapsed = time.monotonic() - t0
    failures = []
    if t_sub.order != 2:
        failures.append(f"|T| = {t_sub.order}, expected 2")
    if w.order != 64:
        failures.append(f"|W| = {w.order}, expected 64")
    if v.order != 2048:
        failures.append(f"expected 2048 unitary elements, enumeration finds {v.order}")
    if product != v.mask_set():
        failures.append(
            f"image(G)*T*W (size {len(product)}) differs from the enumerated set "
            f"(size {v.order})"
        )
    if elapsed >= 30.0:
        failures.append(f"{elapsed:.1f}s exceeds the 30s budget")
    emit(5, not failures, f"|V|={v.order}, |T|={t_sub.order}, |W|={w.order} in {elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_06_proof_identity_suites():
    """Conjugation identities on all transversal/unitary pairs for both
    quaternion instances; the split-form certificate on all 64 unitary
    elements of the order-8 instance; the quadrant-system biconditional on
    all 128 normalized units of both order-8 twisted instances; < 10 s."""
    t0 = time.monotonic()

    q8 = f.make_quaternion(8)
    q8_form = f.make_inverting_form(q8, [1], 4)
    q16 = f.make_quaternion(16)
    q16_form = f.make_inverting_form(q16, [1], 8)
    assert f.check_conjugation_closure(q8_form), "conjugation identities fail on Q8"
    assert f.check_conjugation_closure(q16_form), "conjugation identities fail on Q16"

    v = f.enumerate_unitary(q8, f.classical_involution(q8))
    assert v.order == 64
    for x in v.elements():
        assert f.check_unitary_split_form(q8_form, x), (
            f"split-form certificate fails on {f.render_element(x)}"
        )

    for build in (f.make_dihedral, f.make_quaternion):
        g = build(8)
        form = f.make_odot_form(g)
        unitary = f.enumerate_unitary(g, f.odot_involution(form)).mask_set()
        for m in range(1 << g.order):
            if bin(m).count("1") % 2 == 0:
                continue
            got = f.check_unitary_quadrant_system(form, f.AlgebraElement(g, m))
            assert got == (m in unitary), (
                f"{g.name}: quadrant-system biconditional fails on mask {m:#x}"
            )

    elapsed = time.monotonic() - t0
    emit(6, True, f"all identity suites exact in {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_07_involution_axiom_suite():
    """Additivity, anti-multiplicativity, and self-inverseness of every
    catalog involution: 1000 seeded random pairs per instance, exhaustive
    over all pairs at order 8."""
    rng = random.Random(20260818)

    def axioms_hold(g, sigma, mu, mv):
        u, v = f.AlgebraElement(g, mu), f.AlgebraElement(g, mv)
        su, sv = f.ga_involute(sigma, u), f.ga_involute(sigma, v)
        if f.ga_involute(sigma, u + v) != su + sv:
            return "additivity"
        if f.ga_involute(sigma, f.ga_mul(u, v)) != f.ga_mul(sv, su):
            return "anti-multiplicativity"
        if f.ga_involute(sigma, su) != u:
            return "self-inverseness"
        return None

    instances = []
    for entry in CLASSICAL_ENTRIES:
        form = entry.form()
        instances.append((f"{entry.key}/classical", form.group,
                          f.classical_involution(form.group)))
    for entry in ODOT_ENTRIES:
        form = entry.form()
        instances.append((f"{entry.key}/odot", form.group, f.odot_involution(form)))

    checked = {}
    for name, g, sigma in instances:
        n = g.order
        if n == 8:
            pairs = ((mu, mv) for mu in range(256) for mv in range(256))
            total = 65536
        else:
            pairs = ((rng.getrandbits(n), rng.getrandbits(n)) for _ in range(1000))
            total = 1000
        for mu, mv in pairs:
            violated = axioms_hold(g, sigma, mu, mv)
            assert violated is None, (
                f"{name}: {violated} fails on masks {mu:#x}, {mv:#x}"
            )
        checked[name] = total
    emit(7, True, f"{sum(checked.values())} pairs across {len(checked)} instances")


def test_criterion_08_order32_constructive_checks():
    """Order-32 instances without full enumeration: instance validation,
    every constructed factor element verified unitary, internal semidirect/
    direct checks, and the factor-order formulas 2^(|A|/2) and 2^(3|C|/2);
    under a minute combined. The twisted half fails here: the product's
    order-4 central elements are not unitary under the twisted involution."""
    failures = []
    t0 = time.monotonic()

    q32 = f.make_quaternion(32)
    report1 = f.verify_inverting_decomposition(f.make_inverting_form(q32, [1], 16))
    names1 = {c.name: c for c in report1.checks}
    if report1.orders["unipotent"] != 2**8:
        failures.append(f"|W| = {report1.orders['unipotent']}, expected 256")
    for needed in ("unipotent_members_unitary", "cofactor_members_unitary",
                   "cofactor_semidirect", "group_meets_cofactor_trivially"):
        if not names1[needed].passed:
            failures.append(f"order-32 classical: {needed} failed")
    if not report1.passed:
        failures.append("order-32 classical: report failed overall")

    d8xc4 = f.make_direct_product(f.make_dihedral(8), f.make_cyclic(4))
    report2 = f.verify_odot_decomposition(f.make_odot_form(d8xc4))
    names2 = {c.name: c for c in report2.checks}
    if report2.orders["central_unipotent"] != 2**12:
        failures.append(
            f"|W| = {report2.orders['central_unipotent']}, expected 4096"
        )
    for needed in ("central_unipotent_members_central_unitary",
                   "torsion_members_unitary", "factors_pairwise_direct",
                   "group_inside_unitary"):
        if not names2[needed].passed:
            witness = names2[needed].witness
            failures.append(
                f"order-32 twisted: {needed} failed"
                + (f" (witness {witness})" if witness else "")
            )
    if not report2.passed:
        failures.append("order-32 twisted: report failed overall")

    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"{elapsed:.1f}s exceeds the 60s budget")
    emit(8, not failures, f"both instances checked in {elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_09_reports_byte_identical_across_workers(tmp_path):
    """The criterion-2 verification re-run with 1, 4, and 8 workers yields
    byte-identical JSON reports."""
    outputs = []
    for workers in ("1", "4", "8"):
        out = tmp_path / f"report_w{workers}.json"
        code = f.main([
            "--family", "quaternion", "--order", "8",
            "--involution", "classical", "--threads", workers,
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2], "reports differ across workers"
    report = json.loads(outputs[0])
    assert report["orders"]["oracle_unitary"] == 64
    emit(9, True, f"{len(outputs[0])} bytes, identical across 1/4/8 workers")
