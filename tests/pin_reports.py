"""The golden reports: the exact bytes of every pinned output, one file each
in ``tests/reports/``.

``RUNS`` maps each file name to the run that produces it, so the arguments of
a pinned run are written here and nowhere else. A test that pins a report
produces it (under its own patches, where it has any) and asserts
``produced == expected(name)``, so a failure prints a line diff.

Rewrite every golden file from the current source, and print the name of
each file that changed:

    python tests/pin_reports.py

A change to ``catalog.json`` or to the Q32 or Ext(C16) construct file also
moves a digest in ``perfbench/references.json``; only a benchmark change
edits that file (``tests/test_reports.py`` ties the two together).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import f2units as f  # noqa: E402
from f2units import cli  # noqa: E402
from f2units.unitgroup import _fixed_point_pcgs  # noqa: E402
from instances import CLASSICAL_FORMS, LARGE_ODOT_FORMS, quaternion_form, scan_parts  # noqa: E402

REPORTS = Path(__file__).resolve().parent / "reports"


class Cli:
    """One command-line run; calling it returns what the run prints."""

    def __init__(self, *args: str):
        self.args = list(args)

    def __call__(self) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(self.args)
        return out.getvalue()


def _json(report) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)


def _q16_past_the_bound() -> str:
    return _json(f.verify_inverting_decomposition(CLASSICAL_FORMS["Q16"](), max_order=8))


def _odot_construct(key):
    """The odot construct report of ``LARGE_ODOT_FORMS[key]`` at
    max_order=32, where W has 2^24 members."""

    def run() -> str:
        form = LARGE_ODOT_FORMS[key]()
        return _json(f.verify_odot_decomposition(form, max_order=32, skip_enumeration=True))

    return run


def _pcgs(build):
    """The fixed-point pcgs of the whole group under the involution of the
    form ``build()``, one mask a line in order."""

    def run() -> str:
        g, sigma, _ = scan_parts(build())
        pcgs = _fixed_point_pcgs(g, sigma.perm, range(g.order), g.greedy_generators)
        return "".join(f"{mask}\n" for mask in pcgs)

    return run


def _classical_construct(family, order):
    return Cli("--family", family, "--order", order, "--involution", "classical",
               "--mode", "construct", "--format", "json")


RUNS = {
    "catalog.json": Cli("--mode", "catalog", "--format", "json"),
    "catalog.txt": Cli("--mode", "catalog", "--format", "text"),
    "Q16-classical-enumerate.json": Cli(
        "--family", "quaternion", "--order", "16", "--involution", "classical",
        "--mode", "enumerate", "--format", "json",
    ),
    "D8-odot-verify.json": Cli(
        "--family", "dihedral", "--order", "8", "--involution", "odot",
        "--mode", "verify", "--format", "json",
    ),
    "Q32-construct.json": _classical_construct("quaternion", "32"),
    "ExtC16-construct.json": _classical_construct("inverting_extension", "32"),
    "Q16-verify-max8.json": _q16_past_the_bound,
    "D8xC8-odot-construct32.json": _odot_construct("D8xC8"),
    "Q8xC8-odot-construct32.json": _odot_construct("Q8xC8"),
    "Q64-classical-pcgs.txt": _pcgs(lambda: quaternion_form(64)),
    "Q128-classical-pcgs.txt": _pcgs(lambda: quaternion_form(128)),
    "D8xC8-odot-pcgs.txt": _pcgs(LARGE_ODOT_FORMS["D8xC8"]),
}


def expected(name: str) -> str:
    """The golden bytes of ``name``, with no newline translation."""
    return (REPORTS / name).read_bytes().decode()


def main() -> None:
    for name, run in RUNS.items():
        data = run().encode()
        path = REPORTS / name
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
            print(name)


if __name__ == "__main__":
    main()
