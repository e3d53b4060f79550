"""Fast self-check of the harness: ``python3 perfbench/run.py --self-check``.

Each workload's reference gate must accept a correct output and report a
deliberately corrupted one. Correct outputs come from a real run where that
is cheap (one scan, two small ingest specs) and otherwise from the report
pinned in references.json, re-serialized the way the command writes it. It
also checks that two seeds give the same ingest fields, that traced call
counts repeat exactly and every wrapper is removed afterwards, the
host-speed scaling on fixed probe times, and that BENCHMARK.json names the
metrics the harness prints.
"""

from __future__ import annotations

import copy
import json
import sys

from hostspeed import PROBE_REF_S, HostSpeed
from workloads import WORKLOADS, gate, ingest_fields, ingest_spec_texts


def _cli_text(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


class _Checker:
    def __init__(self):
        self.failed = 0

    def expect(self, label: str, ok: bool, detail: str = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f"  [{detail}]" if detail else ""))
        if not ok:
            self.failed += 1

    def gate_case(self, refs, workload: str, item: str, output, should_pass: bool, label: str):
        wl = WORKLOADS[workload]
        problem = gate(wl, refs[workload], item, output, wl.summarize(output))
        self.expect(f"{workload}/{item}: {label}", (problem is None) == should_pass, problem or "")


def _flip_one_mask(masks):
    out = list(masks)
    out[1] ^= 1 << 3
    return tuple(out)


def _real_item(f2, workload: str, item: str):
    return next(i for i in WORKLOADS[workload].items(f2, 0) if i.name == item).call()


def self_check(run) -> int:
    refs = run.load_references()
    f2 = run.load_package()
    c = _Checker()

    ref = refs["catalog"]["catalog"]
    text = _cli_text(ref["report"])
    code = ref["summary"]["exit_code"]
    c.gate_case(refs, "catalog", "catalog", (code, text), True, "pinned report passes")
    bad = copy.deepcopy(ref["report"])
    bad["reports"][4]["orders"]["oracle_unitary"] += 1
    c.gate_case(refs, "catalog", "catalog", (code, _cli_text(bad)), False, "one changed order is reported")
    c.gate_case(refs, "catalog", "catalog", (2, text), False, "exit code 2 is reported")

    for workload, item in (("oracle16", "D8xC2/odot"), ("units16", "D8xC2/units")):
        masks = _real_item(f2, workload, item)
        c.gate_case(refs, workload, item, masks, True, "real scan passes")
        c.gate_case(refs, workload, item, _flip_one_mask(masks), False, "one flipped mask is reported")

    ref = refs["construct32"]["Q32"]
    c.gate_case(refs, "construct32", "Q32", (0, _cli_text(ref["report"])), True, "pinned report passes")
    bad = copy.deepcopy(ref["report"])
    bad["checks"][0]["pass"] = False
    c.gate_case(refs, "construct32", "Q32", (0, _cli_text(bad)), False, "one flipped check is reported")

    names = ("Q8xC2^3", "Q128")
    texts = [ingest_spec_texts(seed, names) for seed in (0, 1)]
    for name in names:
        c.expect(f"ingest/{name}: seeds 0 and 1 relabel differently", texts[0][name] != texts[1][name])
        fields = [ingest_fields(f2, t[name]) for t in texts]
        c.expect(f"ingest/{name}: seeds 0 and 1 give the same fields", fields[0] == fields[1])
        c.gate_case(refs, "ingest", name, fields[1], True, "seed 1 passes")
        bad = copy.deepcopy(fields[1])
        bad["center"] = bad["center"][1:]
        c.gate_case(refs, "ingest", name, bad, False, "a dropped centre element is reported")

    counts = []
    originals = {name: getattr(f2.unitgroup, name) for name in dir(f2.unitgroup)}
    for _ in range(2):
        tracer = run.make_tracer()
        with tracer:
            _real_item(f2, "oracle16", "D8xC2/odot")
        counts.append(({k: r.calls for k, r in tracer.records().items()}, tracer.counters()))
    c.expect("traced counts repeat exactly across two runs", counts[0] == counts[1])
    c.expect(
        "traced scan counts candidates and hits",
        counts[0][1].get("unitgroup.enumerate_unitary.hits") == 1024
        and counts[0][1].get("unitgroup.enumerate_unitary.candidates") == 1 << 15,
    )
    c.expect(
        "every wrapper is removed",
        all(getattr(f2.unitgroup, name) is obj for name, obj in originals.items())
        and "__wrapped__" not in vars(f2.groups.GroupTable.__init__),
    )

    speed = HostSpeed()
    speed.samples = [(0.0, 2 * PROBE_REF_S), (0.5, 0.004), (1.0, PROBE_REF_S)]
    c.expect(
        "host-speed scaling: probes inside an interval are removed, neighbours averaged",
        abs(speed.scaled(0.1, 0.9) - (0.8 - 0.004) * (0.5 + PROBE_REF_S / 0.004 + 1.0) / 3) < 1e-12,
    )

    bench = run.ROOT / "BENCHMARK.json"
    if bench.exists():
        spec = json.loads(bench.read_text())
        c.expect(
            "BENCHMARK.json lists the harness's workloads and metrics",
            [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
            and [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
            and [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER,
        )

    print(f"self-check: {c.failed} failed", file=sys.stderr)
    return 1 if c.failed else 0
