"""The memory budget: every listing and every scan is estimated in bytes
before it is made, and one above the budget is a TooLargeError (exit 2),
not a process the kernel kills. No test here allocates for real: the
listings and the kernel raise if they are called."""

from __future__ import annotations

import pytest

import f2units as f
from f2units import decompositions, unitgroup
from f2units.cli import main

BUDGET = "above the memory budget of 2,147,483,648 bytes"


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return refuse


@pytest.mark.parametrize(
    "args, what",
    [
        pytest.param(
            ["--family", "quaternion", "--order", "128", "--mode", "construct"],
            "listing the unipotent factor W (4,294,967,296 masks)",
            id="Q128/construct",
        ),
        pytest.param(
            ["--family", "quaternion", "--order", "64", "--mode", "verify"],
            "the scan of 64 positions",
            id="Q64/verify",
        ),
    ],
)
def test_run_above_the_memory_budget_exits_two(args, what, monkeypatch, capsys):
    """With the bound raised to 64, Q128 classical construct lists W's 2^32
    masks (the kernel's OOM killer ended it at 7.7 GB, exit -9, with no
    error line), and Q64 verify would scan 64 positions on 2^32-bit planes.
    Each is refused by its estimate before anything is listed or scanned."""
    for module, name in (
        (decompositions, "_span"),
        (decompositions, "make_unit_set"),
        (unitgroup, "_span"),
        (unitgroup, "_unitary_kernel"),
    ):
        monkeypatch.setattr(module, name, _refuse(f"{module.__name__}.{name}"))
    code = main([*args, "--involution", "classical", "--max-exhaustive-order", "64"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith(f"error: TooLargeError: {what} would take about ")
    assert line.endswith(BUDGET)


def test_each_listing_is_estimated_at_its_size(monkeypatch):
    """Each listing of the pipelines and of the normalized units is
    estimated first, at the number of masks it then lists."""
    estimates = []
    estimate = unitgroup._require_listable

    def record(g, count, what):
        estimates.append((what, count))
        estimate(g, count, what)

    for module in (unitgroup, decompositions):
        monkeypatch.setattr(module, "_require_listable", record)
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
        ("the unipotent factor W", odot["central_unipotent"]),
        ("the order-2 central units", odot["central_units_order_2"]),
        ("G*T", odot["group"] * odot["torsion_complement"]),
        ("the normalized units", units.order),
    ]


def test_largest_scan_in_use_fits_and_the_next_does_not():
    """Q64's A, 32 positions, is the largest scan a pipeline runs, and it
    fits; 64 positions would take 2^32-bit planes, so the estimate is over
    the budget by far."""
    g = f.make_quaternion(64)
    unitgroup._require_scan_memory(g, 32)
    with pytest.raises(f.TooLargeError, match=f"^the scan of 64 positions .*{BUDGET}$"):
        unitgroup._require_scan_memory(g, 64)
