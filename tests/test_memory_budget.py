"""The memory budget: every listing and every scan is estimated in bytes
before it is made, and one above the budget is a TooLargeError (exit 2),
not a process the kernel kills. No test here allocates for real: the
listings and the kernel raise if they are called."""

from __future__ import annotations

import json
import time

import pytest

import f2units as f
from f2units import algebra, decompositions, unitgroup
from f2units.cli import main
from instances import catalog_form, quaternion_form, scan_parts

BUDGET = "above the memory budget of 2,147,483,648 bytes"


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return refuse


D8XC16 = {"family": "direct_product", "params": {"factors": [
    {"family": "dihedral", "params": {"order": 8}},
    {"family": "cyclic", "params": {"order": 16}},
]}}


@pytest.mark.parametrize(
    "args, what",
    [
        pytest.param(
            ["--family", "quaternion", "--order", "128", "--involution", "classical",
             "--mode", "construct"],
            "the scan of 64 positions",
            id="Q128/construct",
        ),
        pytest.param(
            ["--family", "quaternion", "--order", "64", "--involution", "classical",
             "--mode", "verify"],
            "the scan of 64 positions",
            id="Q64/verify",
        ),
        pytest.param(
            ["--group", "{d8xc16}", "--involution", "odot", "--mode", "construct"],
            "listing the order-2 central units and the S*F of their complement "
            "search (50,331,648 masks)",
            id="D8xC16/odot/construct",
        ),
    ],
)
def test_run_above_the_memory_budget_exits_two(args, what, tmp_path, monkeypatch, capsys):
    """With the bound raised to 64, Q128 classical construct listed W's 2^32
    masks (the kernel's OOM killer ended it at 7.7 GB, exit -9, with no
    error line); it lists no W now, and would scan A's 64 positions on
    2^32-bit planes, as Q64 verify would scan its group's 64. Neither W
    builder runs, and each refusal comes within a second.
    D8xC16 odot construct lists no W (2^48 masks), but the order-2 central
    units are 2^24 masks, and the complement search then keeps S*F at each
    depth beside them (3.23 GB peak on a 2-core host while only the listing
    was estimated).
    Each is refused by its estimate before anything is listed or searched."""
    spec = tmp_path / "d8xc16.json"
    spec.write_text(json.dumps(D8XC16))
    for module, name in (
        (decompositions, "_span"),
        (decompositions, "make_unit_set"),
        (decompositions, "build_unipotent_factor"),
        (decompositions, "build_central_unipotent"),
        (decompositions, "_complement_search"),
        (unitgroup, "_span"),
        (unitgroup, "_unitary_kernel"),
    ):
        monkeypatch.setattr(module, name, _refuse(f"{module.__name__}.{name}"))
    start = time.perf_counter()
    code = main([*(a.format(d8xc16=spec) for a in args), "--max-exhaustive-order", "64"])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith(f"error: TooLargeError: {what} would take about ")
    assert line.endswith(BUDGET)


D8XC128 = {"family": "direct_product", "params": {"factors": [
    {"family": "dihedral", "params": {"order": 8}},
    {"family": "cyclic", "params": {"order": 128}},
]}}


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["--family", "quaternion", "--order", "1024", "--involution", "classical"],
                     id="Q1024/classical"),
        pytest.param(["--group", "{d8xc128}", "--involution", "odot"], id="D8xC128/odot"),
    ],
)
def test_a_run_refused_at_order_1024_takes_no_product(args, tmp_path, monkeypatch, capsys):
    """The product tables of an order-n group take about 4 n^3 bytes, 4.3 GB
    at order 1024, and nothing estimates them. Each pipeline's first
    refusal, A's scan or the order-2 central units, comes before its first
    product, so these runs exit 2 within a second and build no table."""
    spec = tmp_path / "d8xc128.json"
    spec.write_text(json.dumps(D8XC128))
    monkeypatch.setattr(algebra, "_conv_tables", _refuse("algebra._conv_tables"))
    start = time.perf_counter()
    code = main([a.format(d8xc128=spec) for a in args])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: TooLargeError: ") and err.count("\n") == 1


def test_normal_cofactor_estimates_h_before_its_premise(monkeypatch):
    """``build_normal_cofactor`` decides its premise by a reduction per member
    of W, 0.32 s for Q64's 2^16, so H = W*L is estimated first: with 2^12
    masks on A for L, H's 2^28 masks are refused before W is read."""
    form = quaternion_form(64)
    g = form.group
    w = f.build_unipotent_factor(form)
    a_basis = [1 ^ 1 << a for a in form.a_sub.members[1:13]]
    ell = unitgroup.make_unit_set(g, (1 ^ m for m in unitgroup._span(a_basis)))
    for name in ("_require_w_module", "_require_on_a"):
        monkeypatch.setattr(decompositions, name, _refuse(f"decompositions.{name}"))
    with pytest.raises(f.TooLargeError, match=r"^listing the cofactor H = W\*L \(268,435,456 masks\)"):
        f.build_normal_cofactor(form, w, ell)


def _record_estimates(monkeypatch):
    """Wrap ``_require_listable`` in both modules; returns the list of its
    (what, count) pairs, appended call by call."""
    estimates = []
    estimate = unitgroup._require_listable

    def record(g, count, what):
        estimates.append((what, count))
        estimate(g, count, what)

    for module in (unitgroup, decompositions):
        monkeypatch.setattr(module, "_require_listable", record)
    return estimates


ORDER_2 = "the order-2 central units and the S*F of their complement search"


def test_each_listing_is_estimated_at_its_size(monkeypatch):
    """Each listing of the pipelines and of the normalized units is
    estimated first, at the number of masks it then lists; the order-2
    central units at three times that, as the complement search keeps S*F
    at each depth beside them. The odot oracle lists W and G*T after them."""
    estimates = _record_estimates(monkeypatch)
    classical = f.verify_inverting_decomposition(catalog_form("Q16", "classical")).orders
    odot = f.verify_odot_decomposition(catalog_form("D8xC2", "odot")).orders
    units = f.enumerate_normalized_units(f.make_quaternion(8))
    assert estimates == [
        ("the unipotent factor W", classical["unipotent"]),
        ("the cofactor H = W*L", classical["cofactor"]),
        (ORDER_2, 3 * odot["central_units_order_2"]),
        ("the unipotent factor W", odot["central_unipotent"]),
        ("G*T", odot["group"] * odot["torsion_complement"]),
        ("the normalized units", units.order),
    ]


@pytest.mark.parametrize("key", ["D8xC2", "Q8xC2", "D8xC4"])
def test_odot_lists_w_and_gt_only_for_the_oracle(key, monkeypatch):
    """Construct mode estimates only the order-2 central units (with their
    complement search); the oracle branch lists W and G*T, once each."""
    form = catalog_form(key, "odot")
    estimates = _record_estimates(monkeypatch)
    construct = f.verify_odot_decomposition(form, skip_enumeration=True).orders
    order_2 = (ORDER_2, 3 * construct["central_units_order_2"])
    assert estimates == [order_2]
    estimates.clear()
    orders = f.verify_odot_decomposition(form, max_order=32).orders
    assert estimates == [
        order_2,
        ("the unipotent factor W", orders["central_unipotent"]),
        ("G*T", orders["group"] * orders["torsion_complement"]),
    ]


def test_largest_scan_in_use_fits_and_the_next_does_not():
    """Q64's A, 32 positions, is the largest scan a pipeline runs, and it
    fits; 64 positions would take 2^32-bit planes, so the estimate is over
    the budget by far."""
    g = f.make_quaternion(64)
    unitgroup._require_scan_memory(g, 32)
    with pytest.raises(f.TooLargeError, match=f"^the scan of 64 positions .*{BUDGET}$"):
        unitgroup._require_scan_memory(g, 64)


C2 = {"family": "cyclic", "params": {"order": 2}}
EXT_C2_5 = {"family": "inverting_extension", "params": {"base": {
    "family": "direct_product", "params": {"factors": [C2] * 5},
}}}


def test_scan_hits_above_the_memory_budget_exit_two(tmp_path, monkeypatch, capsys):
    """Ext(C2^5, (1,a)), order 64, meets Theorem 1's hypothesis with A = C2^5.
    On an elementary abelian A the classical involution fixes F2A, so
    u sigma(u) = u^2 is the augmentation and all 2^31 normalized units of F2A
    are hits: the scan of A raised MemoryError under a 3 GB cap after 41 s,
    and was killed without one. A's pcgs counts them before the scan."""
    spec = tmp_path / "ext.json"
    spec.write_text(json.dumps(EXT_C2_5))
    monkeypatch.setattr(unitgroup, "_unitary_kernel", _refuse("unitgroup._unitary_kernel"))
    start = time.perf_counter()
    code = main(["--group", str(spec), "--involution", "classical", "--mode", "construct",
                 "--max-exhaustive-order", "32"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line == (
        "error: TooLargeError: the scan's hits (2,147,483,648 masks) would take about "
        f"223,338,299,392 bytes, {BUDGET}"
    )
    assert elapsed < 1


def test_scans_that_fit_at_worst_count_no_hits(monkeypatch):
    """At most 2^(k-1) hits fit the budget for every k <= 16, so those scans,
    every benchmark scan among them, compute no pcgs."""
    monkeypatch.setattr(unitgroup, "_fixed_point_pcgs", _refuse("unitgroup._fixed_point_pcgs"))
    g = f.make_quaternion(16)
    assert f.enumerate_unitary(g, f.classical_involution(g)).order == 1 << 10
    q32 = catalog_form("Q32", "classical")
    assert f.verify_inverting_decomposition(q32, skip_enumeration=True).passed


def _hit_count_cases():
    g, classical, a_sub = scan_parts(catalog_form("Q16", "classical"))
    yield pytest.param(g, classical, None, id="Q16/G")
    yield pytest.param(g, classical, a_sub, id="Q16/A")
    g, sigma, _ = scan_parts(catalog_form("D8xC2", "odot"))
    yield pytest.param(g, sigma, None, id="D8xC2/odot/G")
    subs = {f.subgroup_closure(g, [x, y]).members for x in range(g.order) for y in range(x)}
    for members in sorted(subs, key=lambda m: (len(m), m)):
        label = ",".join(g.labels[i] for i in members)
        yield pytest.param(g, sigma, f.SubgroupSet(g, members), id=f"D8xC2/odot/{{{label}}}")


@pytest.mark.parametrize("g, sigma, support", _hit_count_cases())
def test_hit_count_is_the_scans_order(g, sigma, support, monkeypatch):
    """With no budget every scan is counted, and the count is what the scan
    finds, also on a support A that sigma does not map onto itself (the odot
    sigma moves a non-central x to x*e): the hits then lie on A meet sigma(A),
    and a count on the filtration of A alone is short on 8 of the subgroups of
    D8xC2 that one or two elements generate."""
    v = f.enumerate_unitary(g, sigma, support=support)
    members = support.members if support is not None else range(g.order)
    monkeypatch.setattr(unitgroup, "_MEMORY_BUDGET", 0)
    with pytest.raises(f.TooLargeError, match=rf"^the scan's hits \({v.order:,} masks\)"):
        unitgroup._require_hit_memory(g, sigma.perm, tuple(members))
