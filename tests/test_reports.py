"""The golden reports in ``tests/reports/``: exactly the files that
``pin_reports.RUNS`` names, and the same bytes that the benchmark references
pin for the reports they share."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from pin_reports import REPORTS, RUNS

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"

# Each benchmark reference whose report has a golden file: (workload, item) -> file.
TIED = {
    ("catalog", "catalog"): "catalog.json",
    ("construct32", "Q32"): "Q32-construct.json",
    ("construct32", "Ext(C16)"): "ExtC16-construct.json",
}


def test_golden_files_are_exactly_the_registry():
    """No orphan golden file, and no registry entry without its file."""
    assert sorted(path.name for path in REPORTS.iterdir()) == sorted(RUNS)


@pytest.mark.parametrize("entry", list(TIED), ids="/".join)
def test_benchmark_references_pin_the_golden_bytes(entry):
    workload, item = entry
    summary = json.loads(REFERENCES.read_text())[workload][item]["summary"]
    data = (REPORTS / TIED[entry]).read_bytes()
    golden = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    pinned = {key: summary[key] for key in golden}
    assert pinned == golden, (
        f"perfbench/references.json {workload}/{item} pins {pinned}; "
        f"tests/reports/{TIED[entry]} has {golden}"
    )
