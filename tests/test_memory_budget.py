"""The memory budget: every listing and every scan is estimated in bytes
before it is made, and one above the budget is a TooLargeError (exit 2),
not a process the kernel kills. No test here allocates for real: the
listings and the kernel raise if they are called."""

from __future__ import annotations

import json

import pytest

import f2units as f
from f2units import decompositions, unitgroup
from f2units.catalog import ODOT_ENTRIES
from f2units.cli import main

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
            "listing the unipotent factor W (4,294,967,296 masks)",
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
    """With the bound raised to 64, Q128 classical construct lists W's 2^32
    masks (the kernel's OOM killer ended it at 7.7 GB, exit -9, with no
    error line), and Q64 verify would scan 64 positions on 2^32-bit planes.
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
        (decompositions, "_complement_search"),
        (unitgroup, "_span"),
        (unitgroup, "_unitary_kernel"),
    ):
        monkeypatch.setattr(module, name, _refuse(f"{module.__name__}.{name}"))
    code = main([*(a.format(d8xc16=spec) for a in args), "--max-exhaustive-order", "64"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith(f"error: TooLargeError: {what} would take about ")
    assert line.endswith(BUDGET)


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
    classical = f.verify_inverting_decomposition(
        f.make_inverting_form(f.make_quaternion(16), [1], 8)
    ).orders
    odot = f.verify_odot_decomposition(
        f.make_odot_form(f.make_direct_product(f.make_dihedral(8), f.make_cyclic(2)))
    ).orders
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
    form = next(e for e in ODOT_ENTRIES if e.key == key).form()
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
