"""Benchmark of the f2units package: end-to-end metrics, or per-layer metrics
from a traced pass.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --pin        # rewrite references.json (see README)

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's settings, environment and per-item times. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# The run writes no bytecode, so that set-up costs the same in every run of a
# checkout and the checkout is left as it was found.
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
PACKAGE = "f2units"
MODULES = ("errors", "groups", "algebra", "involutions", "unitgroup", "decompositions", "catalog", "cli")
TRACED_MODULES = ("groups", "algebra", "involutions", "unitgroup", "decompositions", "cli")
SETUP_REPEATS = 9

from hostspeed import PROBE_REF_S, HostSpeed  # noqa: E402
from tracer import Record, Tracer  # noqa: E402
from workloads import WORKERS, WORKLOADS, gate  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]

SCANS = ("unitgroup.enumerate_unitary", "unitgroup.enumerate_normalized_units")
PER_LAYER = (
    [
        ("algebra.ga_mul.calls", "count"),
        ("algebra.ga_mul.self_s", "s"),
        ("algebra.ga_mul.us_per_call.o8", "us"),
        ("algebra.ga_mul.us_per_call.o16", "us"),
        ("algebra.ga_mul.us_per_call.o32", "us"),
        ("algebra.ga_inverse.calls", "count"),
        ("algebra.ga_inverse.self_s", "s"),
        ("algebra.annihilator_solve.calls", "count"),
        ("algebra.annihilator_solve.self_s", "s"),
        ("algebra.ga_involute.calls", "count"),
    ]
    + [
        (f"{scan}.{stat}", unit)
        for scan in SCANS
        for stat, unit in (
            ("calls", "count"),
            ("total_s", "s"),
            ("candidates", "count"),
            ("hits", "count"),
            ("ns_per_candidate", "ns"),
            ("hit_ratio", "ratio"),
        )
    ]
    + [
        ("unitgroup.product_masks.calls", "count"),
        ("unitgroup.product_masks.pairs", "count"),
        ("unitgroup.product_masks.self_s", "s"),
        ("unitgroup.internal_semidirect.total_s", "s"),
        ("unitgroup.internal_direct.total_s", "s"),
        ("unitgroup.unit_subgroup_closure.total_s", "s"),
        ("unitgroup.find_complement.total_s", "s"),
        ("unitgroup.structure_predicates.total_s", "s"),
        ("unitgroup.canonical_generators.total_s", "s"),
        ("decompositions.verify_inverting_decomposition.total_s", "s"),
        ("decompositions.verify_inverting_decomposition.self_s", "s"),
        ("decompositions.verify_odot_decomposition.total_s", "s"),
        ("decompositions.verify_odot_decomposition.self_s", "s"),
        ("decompositions.verify_max_s", "s"),
        ("decompositions.build_normal_cofactor.total_s", "s"),
        ("decompositions.build_central_unipotent.total_s", "s"),
        ("decompositions.build_torsion_complement.total_s", "s"),
        ("groups.GroupTable.init_s", "s"),
        ("groups.complement_generators.total_s", "s"),
        ("groups.center.total_s", "s"),
        ("groups.commutator_subgroup.total_s", "s"),
        ("involutions.detect_inverting_form.total_s", "s"),
        ("involutions.make_odot_form.total_s", "s"),
        ("cli.run.self_s", "s"),
        ("cli.report_bytes", "bytes"),
        ("trace.overhead_pct", "%"),
    ]
)

TIMING_POLICY = (
    "no warm-up pass is discarded: each item runs on a fresh import and builds "
    "its own tables, as a new command does; passes repeat until --seconds "
    "elapse; every time is scaled to the reference host speed (hostspeed.py); "
    "pass and set-up times are medians over the run"
)


# ---------------------------------------------------------------------------
# set-up


def load_package() -> SimpleNamespace:
    """Import the package afresh, so that every set-up pays the import."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(
        **{name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    )


def set_up(workload, seed: int):
    """Import the package and build the workload's items; returns (items, (start, end)).

    The previous import is collected first, outside the timing, so that peak
    memory does not grow with the number of set-ups in a run.
    """
    gc.collect()
    t0 = time.perf_counter()
    items = workload.items(load_package(), seed)
    return items, (t0, time.perf_counter())


# ---------------------------------------------------------------------------
# passes


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.report_bytes = 0


def run_item(workload, item, reference, tally: Tally) -> tuple[float, float]:
    """Run one item and check its output; returns the call's (start, end)."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        output = item.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        tally.failures.append(f"{workload.name}/{item.name}: {type(exc).__name__}: {exc}")
        return t0, time.perf_counter()
    span = (t0, time.perf_counter())
    summary = workload.summarize(output)
    tally.report_bytes += summary.get("bytes", 0)
    problem = gate(workload, reference, item.name, output, summary)
    if problem is not None:
        tally.failures.append(problem)
    return span


def run_passes(workload, seed: int, reference, tally: Tally, seconds: float, speed: HostSpeed):
    """Passes until ``seconds`` have elapsed, at least one.

    Every item runs on a freshly set-up package, as a new command would, so
    set-up is sampled all through the run; SETUP_REPEATS more set-ups follow
    the last pass. The host's speed is probed before every set-up and at the
    end. Returns (last items, [[(item name, span)] per pass], set-up spans).
    """
    speed.sample()
    items, span = set_up(workload, seed)
    setups = [span]
    passes: list[list[tuple[str, tuple[float, float]]]] = []
    start = time.perf_counter()
    while True:
        spans = []
        for index in range(len(items)):
            if passes or index:
                speed.sample()
                items, span = set_up(workload, seed)
                setups.append(span)
            spans.append((items[index].name, run_item(workload, items[index], reference, tally)))
        passes.append(spans)
        if time.perf_counter() - start >= seconds:
            break
    for _ in range(SETUP_REPEATS):
        speed.sample()
        items, span = set_up(workload, seed)
        setups.append(span)
    speed.sample()
    return items, passes, setups


# ---------------------------------------------------------------------------
# tracing


def _count_scan(name):
    def observe(counters, args, result):
        g, support = args["g"], args.get("support")
        k = len(support.members) if support is not None else g.order
        counters[name + ".candidates"] = counters.get(name + ".candidates", 0) + (1 << (k - 1))
        counters[name + ".hits"] = counters.get(name + ".hits", 0) + result.order

    return observe


def _count_pairs(counters, args, result):
    key = "unitgroup.product_masks.pairs"
    counters[key] = counters.get(key, 0) + len(args["left"]) * len(args["right"])


def make_tracer() -> Tracer:
    observers = {name: _count_scan(name) for name in SCANS}
    observers["unitgroup.product_masks"] = _count_pairs
    return Tracer(
        PACKAGE,
        TRACED_MODULES,
        observers=observers,
        split={"algebra.ga_mul": lambda args: args[0].group.order},
    )


def layer_values(records: dict[str, Record], counters: dict, overhead_pct: float, report_bytes: int):
    def rec(name) -> Record:
        return records.get(name, Record())

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    v: dict[str, float] = {}
    mul = {int(k.rsplit("@", 1)[1]): r for k, r in records.items() if k.startswith("algebra.ga_mul@")}
    v["algebra.ga_mul.calls"] = sum(r.calls for r in mul.values())
    v["algebra.ga_mul.self_s"] = sum(r.self_s for r in mul.values())
    for order in (8, 16, 32):
        r = mul.get(order, Record())
        v[f"algebra.ga_mul.us_per_call.o{order}"] = ratio(r.self_s, r.calls, 1e6)
    for name in ("algebra.ga_inverse", "algebra.annihilator_solve"):
        v[name + ".calls"] = rec(name).calls
        v[name + ".self_s"] = rec(name).self_s
    v["algebra.ga_involute.calls"] = rec("algebra.ga_involute").calls
    for name in SCANS:
        r = rec(name)
        cands = counters.get(name + ".candidates", 0)
        hits = counters.get(name + ".hits", 0)
        v[name + ".calls"] = r.calls
        v[name + ".total_s"] = r.total_s
        v[name + ".candidates"] = cands
        v[name + ".hits"] = hits
        v[name + ".ns_per_candidate"] = ratio(r.total_s, cands, 1e9)
        v[name + ".hit_ratio"] = ratio(hits, cands)
    pm = rec("unitgroup.product_masks")
    v["unitgroup.product_masks.calls"] = pm.calls
    v["unitgroup.product_masks.pairs"] = counters.get("unitgroup.product_masks.pairs", 0)
    v["unitgroup.product_masks.self_s"] = pm.self_s
    verifies = ("decompositions.verify_inverting_decomposition", "decompositions.verify_odot_decomposition")
    for name in verifies:
        v[name + ".self_s"] = rec(name).self_s
    v["decompositions.verify_max_s"] = max(rec(name).max_s for name in verifies)
    v["groups.GroupTable.init_s"] = rec("groups.GroupTable.init").total_s
    v["cli.run.self_s"] = rec("cli.run").self_s
    v["cli.report_bytes"] = report_bytes
    v["trace.overhead_pct"] = overhead_pct
    for name, _ in PER_LAYER:
        if name not in v and name.endswith(".total_s"):
            v[name] = rec(name[: -len(".total_s")]).total_s
    return v


# ---------------------------------------------------------------------------
# environment record


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "git_sha": git_sha(),
        "src_lines": src_lines(),
    }


# ---------------------------------------------------------------------------
# commands


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def benchmark(args) -> int:
    workload = WORKLOADS[args.workload]
    reference = load_references().get(workload.name, {})
    tally = Tally()
    speed = HostSpeed()
    speed.start_periodic()
    try:
        items, passes, setups = run_passes(workload, args.seed, reference, tally, args.seconds, speed)
    finally:
        speed.stop_periodic()
    per_item: dict[str, list[float]] = {}
    for spans in passes:
        for name, span in spans:
            per_item.setdefault(name, []).append(speed.scaled(*span))
    walls = [sum(speed.scaled(*span) for _, span in spans) for spans in passes]
    raw_walls = [sum(t1 - t0 for _, (t0, t1) in spans) for spans in passes]
    setup_times = [speed.scaled(*span) for span in setups]
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": WORKERS,
        "timing": TIMING_POLICY,
        **environment(),
        "host_speed_median": statistics.median(PROBE_REF_S / d for _, d in speed.samples),
        "host_speed_probes": len(speed.samples),
        "setup_s": setup_times,
        "setup_raw_s": [t1 - t0 for t0, t1 in setups],
        "pass_s": walls,
        "pass_raw_s": raw_walls,
        "item_s": per_item,
    }
    if args.trace:
        tally.report_bytes = 0
        tracer = make_tracer()
        spans = []
        speed.sample()
        with tracer:
            for item in items:
                spans.append(run_item(workload, item, reference, tally))
                speed.sample()  # between items, so no probe lands inside a span
        records = tracer.records()
        traced_wall = sum(speed.scaled(*span) for span in spans)
        overhead = (traced_wall / statistics.median(walls) - 1.0) * 100.0
        values = layer_values(records, tracer.counters(), overhead, tally.report_bytes)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        record["traced_wall_s"] = traced_wall
        record["spans"] = {
            k: {"calls": r.calls, "total_s": r.total_s, "self_s": r.self_s, "max_s": r.max_s}
            for k, r in sorted(records.items(), key=lambda kv: -kv[1].self_s)
        }
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    failed = len(tally.failures)
    record["failed_share"] = failed / tally.attempted
    record["failures"] = tally.failures[:20]
    for problem in tally.failures[:20]:
        print("FAILED " + problem, file=sys.stderr)
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": tally.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def pin(args) -> int:
    """Run one pass of each workload and write its outputs as the references."""
    references = load_references() if REFERENCES.exists() else {}
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        workload = WORKLOADS[name]
        f2 = load_package()
        pinned = {}
        for item in workload.items(f2, args.seed):
            output = item.call()
            entry = {"summary": workload.summarize(output)}
            if workload.report_of is not None:
                entry["report"] = workload.report_of(output)
            pinned[item.name] = entry
        references[name] = pinned
        print(f"pinned {name}: {', '.join(pinned)}", file=sys.stderr)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="test the reference gates, then exit")
    parser.add_argument("--pin", action="store_true", help="rewrite references.json from this commit")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        load_package()
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE} from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.self_check:
        from selfcheck import self_check

        return self_check(sys.modules[__name__])
    if args.pin:
        return pin(args)
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
