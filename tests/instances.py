"""The shared test instances, each defined here once: the classical forms of
Theorem 1 (the catalog's, Q32 and three extensions), the odot forms of the
catalog and past it, the (group, involution) an instance is scanned under,
the order-32 scans, one relabelling of a table, and one call counter.

Plain builders, no pytest: every builder returns a fresh table on each call,
as algebra elements are bound to one table. ``order32_scan`` is the one
cached instance.
"""

from __future__ import annotations

import contextlib
import functools
import random
import sys

import f2units as f
from f2units.catalog import CLASSICAL_ENTRIES, ODOT_ENTRIES


def _extension_form(base, label):
    """The detected inverting form of ``base`` extended by an element that
    inverts it and squares to the element labelled ``label``."""
    return f.detect_inverting_form(f.make_inverting_extension(base, base.labels.index(label)))


def quaternion_form(order):
    """The detected inverting form of the quaternion group of ``order``."""
    return f.detect_inverting_form(f.make_quaternion(order))


def _cyclic_product(m, n):
    return f.make_direct_product(f.make_cyclic(m), f.make_cyclic(n))


# Theorem 1's forms: the catalog's, then four past it.
CLASSICAL_FORMS = {
    **{e.key: e.form for e in CLASSICAL_ENTRIES},
    "Q32": lambda: quaternion_form(32),
    "Ext(C16)": lambda: _extension_form(f.make_cyclic(16), "a8"),
    "Ext(C4xC4)": lambda: _extension_form(_cyclic_product(4, 4), "(1,a2)"),
    "Ext(C8xC2)": lambda: _extension_form(_cyclic_product(8, 2), "(a4,1)"),
}
ODOT_FORMS = {e.key: e.form for e in ODOT_ENTRIES}
# Every catalog instance, keyed "key/involution".
CATALOG_FORMS = {
    **{f"{e.key}/classical": e.form for e in CLASSICAL_ENTRIES},
    **{f"{e.key}/odot": e.form for e in ODOT_ENTRIES},
}
# Order-64 odot forms past the catalog, D8xC8 and Q8xC8: W has 2^24 members.
LARGE_ODOT_FORMS = {
    f"{base}xC8": lambda make=make: f.make_odot_form(f.make_direct_product(make(8), f.make_cyclic(8)))
    for base, make in (("D8", f.make_dihedral), ("Q8", f.make_quaternion))
}


def catalog_form(key, involution):
    """The form of ``key`` under ``involution`` ("classical" or "odot"): a
    catalog instance, or Q32 or an extension past it."""
    return (CLASSICAL_FORMS if involution == "classical" else ODOT_FORMS)[key]()


def scan_parts(form):
    """(group, sigma, support) of a form: the classical involution and A of
    an inverting form, the odot involution and C of an odot form."""
    g = form.group
    if isinstance(form, f.OdotForm):
        return g, f.odot_involution(form), form.c_sub
    return g, f.classical_involution(g), form.a_sub


# The order-32 instances the full scan runs on, and their involutions.
ORDER32 = {"Q32": "classical", "Ext(C16)": "classical", "D8xC4": "odot"}


@functools.cache
def order32_scan(key: str):
    """(group, form, V_*) for one order-32 instance, with V_* from the full
    scan at ``max_order=32``, computed once per session. The classical form
    is the detected one; all three share one table."""
    form = catalog_form(key, ORDER32[key])
    g, sigma, _ = scan_parts(form)
    return g, form, f.enumerate_unitary(g, sigma, max_order=32)


def relabel(mul, pos):
    """The table ``mul`` with element i moved to index pos[i]."""
    out = [[0] * len(mul) for _ in mul]
    for i, row in enumerate(mul):
        for j, v in enumerate(row):
            out[pos[i]][pos[j]] = pos[v]
    return out


def relabelled_q32():
    """The detected inverting form of Q32 with every element but the identity
    moved to a seeded random index, so that its index-2 subgroup A no longer
    sits below its coset and A's positions are scattered."""
    g = f.make_quaternion(32)
    pos = [0, *random.Random(5).sample(range(1, 32), 31)]
    labels = [g.labels[i] for i in sorted(range(32), key=pos.__getitem__)]
    form = f.detect_inverting_form(f.GroupTable(relabel(g.mul, pos), labels, name="Q32"))
    assert sorted(form.a_sub.members) != list(range(16))
    return form


@contextlib.contextmanager
def count_calls(*functions):
    """Count the calls of each function while the block runs, keyed by its
    name. Calls are told apart by code object, so a call counts however it
    is reached: through any module's name for the function, a local alias
    or a ``functools.partial``. Each resumption of a generator would count
    as a call, so count plain functions only."""
    codes = {fn.__code__: fn.__name__ for fn in functions}
    calls = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)
