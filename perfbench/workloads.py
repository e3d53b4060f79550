"""The benchmark's workloads: how each builds its inputs, runs, and is checked.

A workload is a list of items. One pass runs every item once, in order, as a
closed loop with a single caller. Each item returns an output; ``summarize``
reduces it to a small JSON value that must equal the value pinned in
``references.json`` for that item.

Every item builds its own group tables, because a user's command does too:
reusing tables across passes would let a table-level cache fill in the first
pass and hide its cost from the median pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def masks_digest(masks) -> dict:
    return {"order": len(masks), "sha256": sha256_text(",".join(map(str, masks)))}


def run_cli(f2, config) -> tuple[int, str]:
    """Run the package's command-line entry point, capturing its report."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = f2.cli.run(config)
    return code, buf.getvalue()


# Every call is single-threaded. The host's two vCPUs change speed
# independently, so work spread over threads cannot be put on the host-speed
# scale, and today's GIL-bound scan threads gain nothing anyway.
WORKERS = 1


@dataclass
class Item:
    name: str
    call: Callable[[], object]


@dataclass
class Workload:
    name: str
    why: str
    items: Callable  # (f2, seed) -> list[Item]
    summarize: Callable  # output -> JSON value compared with the reference
    report_of: Callable | None = None  # output -> full JSON report, for diagnostics


# ---------------------------------------------------------------------------
# catalog: the command users run


def _catalog_items(f2, seed):
    def call():
        return run_cli(f2, f2.cli.RunConfig(group=None, involution=None, mode="catalog", fmt="json", workers=WORKERS))

    return [Item("catalog", call)]


def _cli_summary(output) -> dict:
    code, text = output
    return {"exit_code": code, "sha256": sha256_text(text), "bytes": len(text.encode())}


def _cli_report(output):
    return json.loads(output[1])


# ---------------------------------------------------------------------------
# oracle16 and units16: the exhaustive scans on the order-16 catalog groups

ORDER16 = ("Q16", "Ext(C4xC2)", "Ext(C8)", "D8xC2", "Q8xC2")
ODOT16 = ("Ext(C4xC2)", "D8xC2", "Q8xC2")


def _catalog_build(f2, key: str):
    for entry in f2.catalog.CLASSICAL_ENTRIES + f2.catalog.ODOT_ENTRIES:
        if entry.key == key:
            return entry.build
    raise KeyError(key)


def _oracle16_items(f2, seed):
    def scan(key, involution):
        build = _catalog_build(f2, key)

        def call():
            g = build()
            if involution == "classical":
                sigma = f2.involutions.classical_involution(g)
            else:
                sigma = f2.involutions.odot_involution(f2.involutions.make_odot_form(g))
            return f2.unitgroup.enumerate_unitary(g, sigma, workers=WORKERS).masks

        return Item(f"{key}/{involution}", call)

    return [scan(k, "classical") for k in ORDER16] + [scan(k, "odot") for k in ODOT16]


def _units16_items(f2, seed):
    def scan(key):
        build = _catalog_build(f2, key)

        def call():
            return f2.unitgroup.enumerate_normalized_units(build(), workers=WORKERS).masks

        return Item(f"{key}/units", call)

    return [scan(k) for k in ORDER16]


# ---------------------------------------------------------------------------
# construct32: constructive-only checks at order 32, outside the catalog


def _construct32_items(f2, seed):
    groups = f2.groups
    builds = {
        "Q32": lambda: groups.make_quaternion(32),
        "Ext(C16)": lambda: groups.make_inverting_extension(groups.make_cyclic(16), 8),
    }

    def item(key, build):
        def call():
            config = f2.cli.RunConfig(
                group=build(), involution="classical", mode="construct", fmt="json", workers=WORKERS
            )
            return run_cli(f2, config)

        return Item(key, call)

    return [item(k, b) for k, b in builds.items()]


# ---------------------------------------------------------------------------
# ingest: JSON table specs, relabelled by the seed, through parsing and
# hypothesis detection (no algebra)


def _cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)], ["1"] + [f"a^{i}" for i in range(1, n)]


def _dihedral(n):
    m = n // 2
    mul = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            mul[i][j] = (i + j) % m
            mul[i][m + j] = m + (i + j) % m
            mul[m + i][j] = m + (i - j) % m
            mul[m + i][m + j] = (i - j) % m
    labels = ["1"] + [f"r^{i}" for i in range(1, m)] + [f"r^{i}s" for i in range(m)]
    return mul, labels


def _quaternion(n):
    m = n // 2
    half = m // 2
    mul = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            mul[i][j] = (i + j) % m
            mul[i][m + j] = m + (i + j) % m
            mul[m + i][j] = m + (i - j) % m
            mul[m + i][m + j] = (i - j + half) % m
    labels = ["1"] + [f"a^{i}" for i in range(1, m)] + [f"a^{i}b" for i in range(m)]
    return mul, labels


def _direct(first, second):
    (m1, l1), (m2, l2) = first, second
    n2 = len(m2)
    mul = [
        [m1[x1][x2] * n2 + m2[y1][y2] for x2 in range(len(m1)) for y2 in range(n2)]
        for x1 in range(len(m1))
        for y1 in range(n2)
    ]
    labels = [f"({a},{b})" for a in l1 for b in l2]
    labels[0] = "1"
    return mul, labels


INGEST_SPECS: dict[str, Callable] = {
    "Q8xC2^3": lambda: _direct(_quaternion(8), _direct(_cyclic(2), _direct(_cyclic(2), _cyclic(2)))),
    "Q128": lambda: _quaternion(128),
    "D256": lambda: _dihedral(256),
    "Q8xC32": lambda: _direct(_quaternion(8), _cyclic(32)),
}


def relabel(table, labels, rng: random.Random):
    """Move every non-identity element to a random index; labels move with it."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    pos = [0] + rest
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(table):
        new_row = out[pos[i]]
        for j, v in enumerate(row):
            new_row[pos[j]] = pos[v]
    new_labels = [""] * n
    for i, lab in enumerate(labels):
        new_labels[pos[i]] = lab
    return out, new_labels


def ingest_spec_texts(seed: int, names=tuple(INGEST_SPECS)) -> dict[str, str]:
    rng = random.Random(seed)
    texts = {}
    for name in names:
        table, labels = relabel(*INGEST_SPECS[name](), rng)
        texts[name] = json.dumps({"table": table, "labels": labels})
    return texts


def ingest_fields(f2, text: str) -> dict:
    """The parsed group's invariants: the same for every relabelling."""
    g = f2.cli.parse_group_spec(text)
    groups, involutions = f2.groups, f2.involutions
    fields: dict = {
        "order": g.order,
        "center": sorted(groups.center(g).labels()),
        "commutator": sorted(groups.commutator_subgroup(g).labels()),
    }
    try:
        form = involutions.detect_inverting_form(g)
        fields["inverting"] = {
            "subgroup_order": form.a_sub.order,
            "twist_order": groups.element_order(g, form.b),
            "twist_square": g.labels[form.b_squared],
        }
    except f2.errors.HypothesisViolationError as exc:
        fields["inverting"] = type(exc).__name__
    try:
        form = involutions.make_odot_form(g)
        fields["odot"] = {
            "center_order": form.c_sub.order,
            "commutator": g.labels[form.e],
        }
    except f2.errors.HypothesisViolationError as exc:
        fields["odot"] = type(exc).__name__
    return fields


def _ingest_items(f2, seed):
    texts = ingest_spec_texts(seed)
    return [Item(name, lambda text=text: ingest_fields(f2, text)) for name, text in texts.items()]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "catalog",
            "the catalog command users run; about 90% pairwise normality and commutation checks",
            _catalog_items,
            _cli_summary,
            _cli_report,
        ),
        Workload(
            "oracle16",
            "exhaustive unitary scans on the order-16 catalog groups: the quadratic test a bit-sliced scan targets",
            _oracle16_items,
            masks_digest,
        ),
        Workload(
            "units16",
            "exhaustive normalized-unit scans on the same groups: same scan layer, a test that is not quadratic",
            _units16_items,
            masks_digest,
        ),
        Workload(
            "construct32",
            "constructive-only checks at order 32: the large-cofactor branch and the largest product sets",
            _construct32_items,
            _cli_summary,
            _cli_report,
        ),
        Workload(
            "ingest",
            "seed-relabelled JSON tables of order 64 to 256: O(n^3) table validation and hypothesis detection, no algebra",
            _ingest_items,
            lambda fields: fields,
        ),
    )
}


# ---------------------------------------------------------------------------
# the reference gate


def json_diff(expected, actual, path: str = "", limit: int = 3) -> list[str]:
    """Up to ``limit`` paths at which two JSON values differ."""
    if type(expected) is not type(actual):
        return [f"{path or '.'}: {expected!r} != {actual!r}"]
    if isinstance(expected, dict):
        out = []
        for key in sorted(set(expected) | set(actual), key=str):
            if key not in expected or key not in actual:
                out.append(f"{path}.{key}: present on one side only")
            else:
                out += json_diff(expected[key], actual[key], f"{path}.{key}", limit - len(out))
            if len(out) >= limit:
                break
        return out[:limit]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += json_diff(e, a, f"{path}[{i}]", limit - len(out))
            if len(out) >= limit:
                break
        return out[:limit]
    return [] if expected == actual else [f"{path or '.'}: {expected!r} != {actual!r}"]


def gate(workload: Workload, reference: dict, item: str, output, summary) -> str | None:
    """None when an output and its summary match the pinned reference, else why not."""
    ref = reference.get(item)
    if ref is None:
        return f"no reference pinned for {workload.name}/{item}"
    if summary == ref["summary"]:
        return None
    problems = json_diff(ref["summary"], summary)
    if workload.report_of is not None and "report" in ref:
        try:
            problems += json_diff(ref["report"], workload.report_of(output))
        except ValueError as exc:
            problems.append(f"report is not JSON: {exc}")
    return f"{workload.name}/{item}: " + "; ".join(problems)
