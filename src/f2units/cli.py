"""Command-line front end: group ingestion, verification runs, reports.

Exit codes: 0 all checks passed, 1 at least one check failed (the report
carries witnesses), 2 invalid input (bad group spec, violated hypothesis,
bad flags) or a report that cannot be written. JSON output is byte-stable
across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import _render
from .catalog import CLASSICAL_ENTRIES, ODOT_ENTRIES
from .decompositions import (
    DecompositionReport,
    _group_descriptor,
    verify_inverting_decomposition,
    verify_odot_decomposition,
)
from .errors import F2UnitsError, ParseError, UnsupportedOrderError
from .groups import (
    GroupTable,
    _is_int,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_inverting_extension,
    make_quaternion,
)
from .involutions import (
    _require_two_group,
    classical_involution,
    detect_inverting_form,
    make_odot_form,
    odot_involution,
)
from .unitgroup import (
    DEFAULT_EXHAUSTIVE_BOUND,
    canonical_generators,
    enumerate_normalized_units,
    enumerate_unitary,
)


class RunConfig:
    def __init__(
        self,
        group: GroupTable | None,
        involution: str | None,
        mode: str,
        max_exhaustive_order: int = DEFAULT_EXHAUSTIVE_BOUND,
        workers: int | None = None,  # accepted for compatibility; ignored
        fmt: str = "text",
        out: str | None = None,
    ):
        self.group, self.involution, self.mode = group, involution, mode
        self.max_exhaustive_order, self.fmt, self.out = max_exhaustive_order, fmt, out


# ---------------------------------------------------------------------------
# group-spec ingestion


# The largest group a family spec may build. A table costs O(n^2) memory
# (order 1024 takes about 50 MB and 0.5 s, order 2048 about 180 MB and 2 s),
# so a larger order is refused before anything is built.
MAX_FAMILY_ORDER = 1024


def _require_order(n: int) -> None:
    if n > MAX_FAMILY_ORDER:
        raise UnsupportedOrderError(
            f"group order {n} exceeds the limit {MAX_FAMILY_ORDER} for a family spec"
        )


def _order_param(family: str, params: dict) -> int:
    order = params.get("order")
    if not _is_int(order):
        raise ParseError(f"family {family!r} needs an integer 'order' parameter")
    _require_order(order)
    return order


# The families built from an order alone, and the params each family takes:
# any other key is a ParseError that names it.
_ORDER_FAMILIES = {"cyclic": make_cyclic, "dihedral": make_dihedral, "quaternion": make_quaternion}
_FAMILY_KEYS = {
    **dict.fromkeys(_ORDER_FAMILIES, {"order"}),
    "direct_product": {"factors"},
    "inverting_extension": {"base", "order", "square_element"},
}


def _require_keys(where: str, spec: dict, allowed: set[str]) -> None:
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ParseError(f"unknown key {unknown[0]!r} in {where}")


def _build_family(family: str, params: dict) -> GroupTable:
    if family not in _FAMILY_KEYS:
        raise ParseError(f"unknown family {family!r}")
    _require_keys(f"the {family} params", params, _FAMILY_KEYS[family])
    if family in _ORDER_FAMILIES:
        return _ORDER_FAMILIES[family](_order_param(family, params))
    if family == "direct_product":
        factors = params.get("factors")
        if not isinstance(factors, list) or len(factors) < 2:
            raise ParseError("direct_product needs a list of at least two factor specs")
        gs = [_from_spec_dict(f) for f in factors]
        out = gs[0]
        for nxt in gs[1:]:
            _require_order(out.order * nxt.order)
            out = make_direct_product(out, nxt)
        return out
    if family == "inverting_extension":
        if "base" in params and "order" in params:
            raise ParseError("inverting_extension takes 'base' or 'order', not both")
        if "base" in params:
            base = _from_spec_dict(params["base"])
        elif "order" in params:
            order = _order_param(family, params)
            if order % 2:
                raise UnsupportedOrderError(f"inverting_extension order must be even, got {order}")
            base = make_cyclic(order // 2)
        else:
            raise ParseError("inverting_extension needs a base spec or an order")
        label = params.get("square_element")
        if label is None:
            t = next((i for i in range(1, base.order) if base.mul[i][i] == 0), None)
            if t is None:
                raise ParseError("base group has no involution to square onto")
        else:
            try:
                t = base.labels.index(str(label))
            except ValueError:
                raise ParseError(f"unknown element label {label!r} in the base group")
        _require_order(2 * base.order)
        return make_inverting_extension(base, t)


def _from_spec_dict(spec: dict) -> GroupTable:
    if not isinstance(spec, dict):
        raise ParseError("group spec must be a JSON object")
    if "table" in spec:
        _require_keys("a table spec", spec, {"table", "labels"})
        labels = spec.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(x, str) for x in labels)
        ):
            raise ParseError("'labels' must be a list of strings")
        return GroupTable(spec["table"], labels=labels, family="table")
    if "family" in spec:
        _require_keys("a family spec", spec, {"family", "params"})
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ParseError("'params' must be a JSON object")
        return _build_family(str(spec["family"]), params)
    raise ParseError("group spec needs either a 'table' or a 'family' key")


def parse_group_spec(text: str) -> GroupTable:
    """Parse a JSON group spec: {'family':..., 'params':...} or {'table': ...}."""
    try:
        spec = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("group spec is nested too deeply") from None
    try:
        return _from_spec_dict(spec)
    except RecursionError:
        raise ParseError("group spec is nested too deeply") from None


def _resolve_group(args) -> GroupTable | None:
    """The group the flags name; a flag the run would ignore is a ParseError."""
    family_flags = any(x is not None for x in (args.family, args.order, args.square_element))
    if args.group is not None and family_flags:
        raise ParseError("--group takes no --family, --order or --square-element")
    if args.square_element is not None and args.family != "inverting_extension":
        raise ParseError("--square-element needs --family inverting_extension")
    if args.order is not None and args.family is None:
        raise ParseError("--order needs --family")
    if args.group:
        try:
            text = Path(args.group).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"group spec is not UTF-8 text: {exc}") from None
        return parse_group_spec(text)
    if args.family:
        if args.order is None:
            raise ParseError("--family requires --order")
        params: dict = {"order": args.order}
        if args.square_element is not None:
            params["square_element"] = args.square_element
        return _build_family(args.family, params)
    return None


# ---------------------------------------------------------------------------
# modes


def _enumerate_payload(config: RunConfig) -> dict:
    g = config.group
    _require_two_group(g)
    v = enumerate_normalized_units(g, max_order=config.max_exhaustive_order)
    payload = {
        "schema": 1,
        "mode": "enumerate",
        "group": _group_descriptor(g),
        "orders": {"normalized_units": v.order},
        "generators": {"normalized_units": [_render(g, m) for m in canonical_generators(v)]},
        "pass": True,
    }
    if config.involution:
        sigma = _make_sigma(g, config.involution)
        vu = enumerate_unitary(g, sigma, max_order=config.max_exhaustive_order)
        payload["involution"] = config.involution
        payload["orders"]["unitary"] = vu.order
        payload["generators"]["unitary"] = [_render(g, m) for m in canonical_generators(vu)]
    return payload


def _make_sigma(g: GroupTable, name: str):
    if name == "classical":
        return classical_involution(g)
    if name == "odot":
        return odot_involution(make_odot_form(g))
    raise ParseError(f"unknown involution {name!r}")


def _verify_report(config: RunConfig, skip_enumeration: bool) -> DecompositionReport:
    pipelines = {
        "classical": (detect_inverting_form, verify_inverting_decomposition),
        "odot": (make_odot_form, verify_odot_decomposition),
    }
    if config.involution not in pipelines:
        raise ParseError("verify/construct modes need --involution classical or odot")
    make_form, verify = pipelines[config.involution]
    return verify(
        make_form(config.group),
        max_order=config.max_exhaustive_order,
        skip_enumeration=skip_enumeration,
    )


def _catalog_payload(config: RunConfig) -> dict:
    runs = [(e, verify_inverting_decomposition) for e in CLASSICAL_ENTRIES]
    runs += [(e, verify_odot_decomposition) for e in ODOT_ENTRIES]
    rows = []
    for entry, verify in runs:
        report = verify(entry.form(), max_order=config.max_exhaustive_order)
        rows.append(report.to_json_dict())
    return {
        "schema": 1,
        "mode": "catalog",
        "reports": rows,
        "pass": all(r["pass"] for r in rows),
    }


# ---------------------------------------------------------------------------
# rendering


def _check_line(check: dict, indent: str) -> str:
    """One check's marker and name, with its witness when it has one."""
    mark = "ok" if check["pass"] else "FAIL"
    suffix = f"  witness: {check['witness']}" if "witness" in check else ""
    return f"{indent}{mark:4} {check['name']}{suffix}"


def _render_text(payload: dict) -> str:
    lines: list[str] = []
    if payload.get("mode") == "catalog":
        for row in payload["reports"]:
            verdict = "PASS" if row["pass"] else "FAIL"
            orders = row.get("orders", {})
            parts = ", ".join(f"{k}={v}" for k, v in sorted(orders.items()))
            lines.append(f"[{verdict}] {row['group']['spec']} ({row['involution']}): {parts}")
            lines.extend(_check_line(check, "    ") for check in row["checks"])
        lines.append("overall: " + ("PASS" if payload["pass"] else "FAIL"))
        return "\n".join(lines) + "\n"
    if payload.get("mode") == "enumerate":
        grp = payload["group"]
        lines.append(f"group {grp['spec']} (order {grp['order']})")
        for key, val in sorted(payload["orders"].items()):
            lines.append(f"  |{key}| = {val}")
        for key, gens in sorted(payload.get("generators", {}).items()):
            lines.append(f"  {key} generators:")
            for s in gens:
                lines.append(f"    {s}")
        return "\n".join(lines) + "\n"
    grp = payload["group"]
    lines.append(
        f"{payload['kind']} decomposition of {grp['spec']} "
        f"(order {grp['order']}) under {payload['involution']}"
    )
    for key, val in sorted(payload["orders"].items()):
        lines.append(f"  {key} = {val}")
    lines.extend(_check_line(check, "  ") for check in payload["checks"])
    for note in payload.get("notes", []):
        lines.append(f"  note: {note}")
    lines.append("overall: " + ("PASS" if payload["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"


def _emit(payload: dict, config: RunConfig) -> None:
    if config.fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _render_text(payload)
    if config.out:
        Path(config.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def run(config: RunConfig) -> int:
    """Execute one mode and emit its report; returns the process exit code."""
    try:
        if config.max_exhaustive_order < 0:
            raise ParseError(f"the exhaustive bound {config.max_exhaustive_order} is negative")
        if config.mode == "catalog":
            if config.group is not None or config.involution:
                raise ParseError("catalog mode takes no group and no involution")
            payload = _catalog_payload(config)
        elif config.mode == "enumerate":
            if config.group is None:
                raise ParseError("enumerate mode needs a group")
            payload = _enumerate_payload(config)
        elif config.mode in ("verify", "construct"):
            if config.group is None:
                raise ParseError(f"{config.mode} mode needs a group")
            report = _verify_report(config, skip_enumeration=config.mode == "construct")
            payload = {"mode": config.mode, **report.to_json_dict()}
        else:
            raise ParseError(f"unknown mode {config.mode!r}")
    except F2UnitsError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    try:
        _emit(payload, config)
    except (OSError, UnicodeEncodeError) as exc:  # or a stdout that cannot encode it
        sys.stderr.write(f"error: cannot write report: {exc}\n")
        return 2
    return 0 if payload["pass"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f2units",
        description=(
            "Unitary subgroups of group algebras over the two-element field: "
            "exhaustive enumeration and structural decomposition checks"
        ),
    )
    parser.add_argument("--group", help="path to a JSON group spec")
    parser.add_argument(
        "--family",
        choices=["cyclic", "dihedral", "quaternion", "inverting_extension"],
        help="built-in group family (a direct product takes a --group spec)",
    )
    parser.add_argument("--order", type=int, help="group order for --family")
    parser.add_argument(
        "--square-element",
        help="label of the base-group element the twist squares to (inverting_extension)",
    )
    parser.add_argument("--involution", choices=["classical", "odot"])
    parser.add_argument(
        "--mode",
        choices=["enumerate", "construct", "verify", "catalog"],
        default="verify",
    )
    parser.add_argument(
        "--max-exhaustive-order",
        type=int,
        default=DEFAULT_EXHAUSTIVE_BOUND,
        help="largest support size enumerated exhaustively (default 16)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility; ignored",
    )
    parser.add_argument("--format", choices=["json", "text"], default="text")
    parser.add_argument("--out", help="write the report here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        group = _resolve_group(args)
    except F2UnitsError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: cannot read group spec: {exc}\n")
        return 2
    config = RunConfig(
        group=group,
        involution=args.involution,
        mode=args.mode,
        max_exhaustive_order=args.max_exhaustive_order,
        fmt=args.format,
        out=args.out,
    )
    return run(config)
