"""Command-line front end: spec ingestion, modes, exit codes, determinism."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import f2units as f
from f2units.cli import MAX_FAMILY_ORDER, RunConfig, _build_parser, main, parse_group_spec, run
from f2units.errors import GroupAxiomViolationError, ParseError


ROOT = Path(__file__).resolve().parents[1]
REFERENCES = ROOT / "perfbench" / "references.json"


def reference_sha256(workload, item):
    """The pinned sha256 of one report in the benchmark references."""
    refs = json.loads(REFERENCES.read_text())
    return refs[workload][item]["summary"]["sha256"]


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out.read_text() if out.exists() else None


# ---------------------------------------------------------------------------
# group-spec ingestion


def test_parse_family_spec():
    g = parse_group_spec('{"family":"quaternion","params":{"order":8}}')
    assert g.order == 8
    assert Counter(f.element_order(g, x) for x in range(g.order)) == {1: 1, 2: 1, 4: 6}


def test_parse_table_spec():
    g = parse_group_spec('{"table":[[0,1],[1,0]]}')
    assert g.order == 2


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_group_spec("{not json")
    with pytest.raises(ParseError):
        parse_group_spec('"just a string"')
    with pytest.raises(ParseError):
        parse_group_spec("{}")


@pytest.mark.parametrize(
    "spec",
    [
        '{"family": "quaternion", "params": {"order": 8.9}}',
        '{"family": "quaternion", "params": {"order": 8.0}}',
        '{"family": "cyclic", "params": {"order": true}}',
        '{"table": [[0, 1.7], [true, 0]]}',
        '{"table": [[0, 1], [1, 0.0]]}',
        '{"table": ["01", "10"]}',
    ],
)
def test_parse_rejects_numbers_that_are_not_integers(spec):
    """Floats, booleans and digit strings are not truncated to an order or index."""
    with pytest.raises(ParseError):
        parse_group_spec(spec)


def test_parse_rejects_axiom_violations():
    with pytest.raises(GroupAxiomViolationError):
        parse_group_spec('{"table":[[0,1],[1,1]]}')


# ---------------------------------------------------------------------------
# exit codes


def test_verify_pass_exits_zero(tmp_path):
    code, text = run_cli(
        ["--family", "quaternion", "--order", "8",
         "--involution", "classical", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    report = json.loads(text)
    assert report["pass"] is True
    assert report["orders"]["oracle_unitary"] == 64


def test_failed_check_exits_one(tmp_path):
    code, text = run_cli(
        ["--family", "dihedral", "--order", "8",
         "--involution", "odot", "--format", "json"],
        tmp_path,
    )
    assert code == 1
    report = json.loads(text)
    assert report["pass"] is False
    failing = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "group_inside_unitary" in failing


def test_invalid_input_exits_two(capsys):
    assert main(["--family", "cyclic", "--order", "8", "--involution", "odot"]) == 2
    assert "CenterQuotientNotKlein" in capsys.readouterr().err
    assert main(["--family", "cyclic"]) == 2  # missing --order
    assert main(["--group", "/nonexistent/path.json"]) == 2


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_out_path_exits_two(where, tmp_path, capsys):
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code = main(["--family", "quaternion", "--order", "8", "--involution", "classical",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write report: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


ALPHA_SPEC = {"table": [[0, 1], [1, 0]], "labels": ["1", "\u03b1"]}


def _run_alpha_report(tmp_path, env, *args, flags=()):
    """Run a text report that renders the label \u03b1, with ``env`` added to
    the environment and ``flags`` passed to the interpreter."""
    spec = tmp_path / "alpha.json"
    spec.write_text(json.dumps(ALPHA_SPEC, ensure_ascii=False), encoding="utf-8")
    return subprocess.run(
        [sys.executable, *flags, "-m", "f2units", "--group", str(spec),
         "--mode", "enumerate", "--format", "text", *args],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env),
        capture_output=True, timeout=120,
    )


def test_stdout_that_cannot_encode_the_report_exits_two(tmp_path):
    proc = _run_alpha_report(tmp_path, {"PYTHONIOENCODING": "ascii"})
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("error: cannot write report: ") and err.count("\n") == 1
    assert proc.stdout == b""


def test_out_is_written_as_utf8_under_an_ascii_locale(tmp_path):
    out = tmp_path / "out.txt"
    env = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = _run_alpha_report(tmp_path, env, "--out", str(out), flags=("-X", "utf8=0"))
    assert proc.returncode == 0, proc.stderr.decode()
    assert out.read_text(encoding="utf-8").splitlines()[-1] == "    \u03b1"


def test_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "f2units",
         "--family", "quaternion", "--order", "8", "--involution", "classical"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("overall: PASS")


def _d8_times_cyclic(m):
    return {"family": "direct_product", "params": {"factors": [
        {"family": "dihedral", "params": {"order": 8}},
        {"family": "cyclic", "params": {"order": m}},
    ]}}


CAPPED_SPECS = {"d8xc8": _d8_times_cyclic(8), "d8xc128": _d8_times_cyclic(128)}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def _run_capped(args, tmp_path, mode="construct"):
    """Run ``mode`` on ``args`` under a 3 GB address-space cap; ``{d8xc8}``
    and ``{d8xc128}`` in ``args`` name spec files of those groups."""
    paths = {}
    for name, spec in CAPPED_SPECS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "f2units", *(a.format(**paths) for a in args), "--mode", mode],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=20,
        preexec_fn=_limit_address_space,
    )


def test_a_large_unipotent_factor_is_never_listed(tmp_path):
    """W has 2^32 members at Q128 classical and 2^24 at D8xC8 odot; listing
    it ran out of memory (a MemoryError traceback, exit 1). Construct mode
    now decides W on its basis and lists it at no bound: Q128 stops at the
    scan of A's 64 positions, above the default bound, and D8xC8 reports,
    failing by design, as it does with the bound raised to 32. The address
    space is capped so that a regression fails here instead of filling the
    host's memory."""
    q128 = _run_capped(
        ["--family", "quaternion", "--order", "128", "--involution", "classical"], tmp_path
    )
    assert q128.returncode == 2, q128.stderr
    assert q128.stderr.startswith(
        "error: TooLargeError: the number of free coefficient positions is 64, "
    )
    assert "Traceback" not in q128.stderr
    d8xc8 = ["--group", "{d8xc8}", "--involution", "odot"]
    default = _run_capped(d8xc8, tmp_path)
    raised = _run_capped([*d8xc8, "--max-exhaustive-order", "32"], tmp_path)
    assert (default.returncode, default.stderr) == (1, "")
    assert default.stdout == raised.stdout
    assert default.stdout.rstrip().endswith("overall: FAIL")


@pytest.mark.parametrize(
    "args, what",
    [
        pytest.param(
            ["--family", "quaternion", "--order", "1024", "--involution", "classical"],
            "the number of free coefficient positions is 512, above the bound 16; ",
            id="Q1024/classical",
        ),
        pytest.param(
            ["--group", "{d8xc128}", "--involution", "odot"],
            "listing the order-2 central units and the S*F of their complement search ",
            id="D8xC128/odot",
        ),
    ],
)
def test_an_order_1024_verify_run_exits_two_before_any_product(args, what, tmp_path):
    """At order 1024 the product tables take about 4 n^3 bytes, 4.3 GB, so
    the first product of W's basis or generators ran out of memory under the
    cap (a MemoryError traceback, exit 1). A's scan and the estimate of the
    order-2 central units now come first, and refuse these runs at the
    default bound in verify mode."""
    proc = _run_capped(args, tmp_path, mode="verify")
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"error: TooLargeError: {what}")


# Specs with a key the parser does not use, each mapped to that key: a
# misspelt parameter, an extra top-level key, and an extension given both a
# base and an order. Each built a group and exited 0.
UNUSED_KEYS = {
    '{"family": "inverting_extension", "params": {"order": 16, "square_elemnt": "a2"}}': "square_elemnt",
    '{"family": "quaternion", "params": {"order": 8}, "extra": 1}': "extra",
    '{"family": "inverting_extension", "params": {"base": {"family": "cyclic", "params": {"order": 8}},'
    ' "order": 16}}': "base",
}


@pytest.mark.parametrize(
    "spec",
    [
        '{"table": [["a"]]}',
        '{"table": 5}',
        '{"table": [[0, 1], [1, 0]], "labels": 5}',
        '{"family": "cyclic"}',
        '{"family": "cyclic", "params": [8]}',
        '{"family": "quaternion", "params": {"order": "eight"}}',
        '{"table": [[Infinity]]}',
        '{"family": "cyclic", "params": {"order": 1e400}}',
        pytest.param('{"family": "cyclic", "params": {"order": 1%s}}' % ("0" * 5000), id="5001-digits"),
        pytest.param("[" * 100000, id="deeply-nested"),
        pytest.param(b'\xff{"family": "cyclic"}', id="not-utf8"),
        '{"family": "quaternion", "params": {"order": 8.9}}',
        '{"family": "cyclic", "params": {"order": true}}',
        '{"table": [[0, 1.7], [true, 0]]}',
        '{"table": ["01", "10"]}',
        '{"table": [[0, 1], [1, 0]], "labels": ["1", "1"]}',
        '{"table": [[0, 1], [1, 0]], "labels": ["1", "0"]}',
        '{"table": [[0, 1], [1, 0]], "labels": ["1", "a + b"]}',
        '{"table": [[0, 1], [1, 0]], "labels": ["1", " a"]}',
        *UNUSED_KEYS,
    ],
)
def test_malformed_spec_exits_two(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(spec if isinstance(spec, bytes) else spec.encode())
    assert main(["--group", str(path), "--involution", "classical"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("spec, key", UNUSED_KEYS.items())
def test_unused_spec_key_is_a_parse_error_naming_it(spec, key):
    with pytest.raises(ParseError, match=repr(key)):
        parse_group_spec(spec)


_C2 = {"family": "cyclic", "params": {"order": 2}}


@pytest.mark.parametrize(
    "spec, name",
    [
        ({"table": [[0, 1], [1, 0]], "labels": ["1", "t"]}, "G2"),
        ({"family": "direct_product", "params": {"factors": [_C2, _C2]}}, "C2xC2"),
        ({"family": "inverting_extension", "params": {"order": 16, "square_element": "a4"}}, "Ext(C8,a4)"),
        ({"family": "inverting_extension", "params": {"base": _C2, "square_element": "a"}}, "Ext(C2,a)"),
    ],
)
def test_specs_with_the_accepted_keys_build(spec, name):
    assert parse_group_spec(json.dumps(spec)).name == name


Q8XC3 = {"family": "direct_product", "params": {"factors": [
    {"family": "quaternion", "params": {"order": 8}},
    {"family": "cyclic", "params": {"order": 3}},
]}}


@pytest.mark.parametrize("mode", ["enumerate", "verify", "construct"])
@pytest.mark.parametrize(
    "group_args, involution, order",
    [
        (["--family", "inverting_extension", "--order", "12"], "classical", 12),
        (Q8XC3, "odot", 24),
    ],
    ids=["Dic3-classical", "Q8xC3-odot"],
)
def test_groups_that_are_not_2_groups_exit_two(group_args, involution, order, mode, tmp_path, capsys):
    if isinstance(group_args, dict):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(group_args))
        group_args = ["--group", str(path)]
    assert main([*group_args, "--involution", involution, "--mode", mode]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NotATwoGroupError: ") and err.count("\n") == 1
    assert f"order {order}" in err


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "quaternion", "--order", "8", "--square-element", "zz"],
        ["--square-element", "a2"],
        ["--order", "8"],
        ["--group", "SPEC", "--family", "quaternion"],
        ["--group", "SPEC", "--order", "8"],
        ["--group", "SPEC", "--square-element", "a2"],
        ["--mode", "catalog", "--group", "SPEC"],
        ["--mode", "catalog", "--family", "quaternion"],
        ["--mode", "catalog", "--order", "8"],
        ["--mode", "catalog", "--square-element", "a2"],
        ["--mode", "catalog", "--involution", "odot"],
    ],
    ids=[
        "square-element-without-inverting-extension",
        "square-element-alone",
        "order-alone",
        "group-with-family",
        "group-with-order",
        "group-with-square-element",
        "catalog-with-group",
        "catalog-with-family",
        "catalog-with-order",
        "catalog-with-square-element",
        "catalog-with-involution",
    ],
)
def test_flags_the_run_would_ignore_exit_two(args, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"family": "quaternion", "params": {"order": 8}}')
    args = [str(spec) if a == "SPEC" else a for a in args]
    mode = [] if "--mode" in args else ["--involution", "classical"]
    assert main([*args, *mode]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "group, involution",
    [("Q8", None), (None, "odot"), ("Q8", "classical")],
    ids=["group", "involution", "both"],
)
def test_library_catalog_run_rejects_a_group_or_an_involution(group, involution, q8, capsys):
    config = RunConfig(group=q8 if group else None, involution=involution, mode="catalog")
    assert run(config) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ParseError: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "family, order",
    [
        ("dihedral", "5"),
        ("quaternion", "12"),
        ("cyclic", "0"),
        ("cyclic", "100000000"),
        ("inverting_extension", "2048"),
        ("inverting_extension", "9"),
    ],
)
def test_unsupported_family_order_exits_two(family, order, capsys):
    assert main(["--family", family, "--order", order, "--involution", "classical"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: UnsupportedOrderError: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_direct_product_is_not_a_family_flag(capsys):
    """A direct product needs its factors, which only a JSON spec carries:
    as a --family choice it is invalid, with exit 2 and no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["--family", "direct_product", "--order", "8", "--involution", "classical"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --family: invalid choice: 'direct_product'" in err
    assert "Traceback" not in err


def _c(n):
    return {"family": "cyclic", "params": {"order": n}}


def _product(factors):
    return {"family": "direct_product", "params": {"factors": factors}}


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param({"family": "dihedral", "params": {"order": 100_000_000}}, id="D100000000"),
        pytest.param(_c(MAX_FAMILY_ORDER + 1), id="past-the-cap"),
        pytest.param(_product([_c(2)] * 30), id="C2^30"),
        pytest.param(_product([_c(2), _product([_c(32), _c(32)])]), id="C2x(C32xC32)"),
        pytest.param(
            {"family": "inverting_extension", "params": {"base": _c(MAX_FAMILY_ORDER)}},
            id="Ext(C1024)",
        ),
    ],
)
def test_family_spec_past_the_order_cap_exits_two(spec, tmp_path, capsys):
    """Every built order, intermediate products included, is checked before
    its O(n^2) table is built."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["--group", str(path), "--involution", "classical"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: UnsupportedOrderError: ") and err.count("\n") == 1
    assert f"exceeds the limit {MAX_FAMILY_ORDER}" in err


def test_family_spec_at_the_order_cap_builds():
    assert parse_group_spec(json.dumps(_product([_c(32), _c(32)]))).order == MAX_FAMILY_ORDER


# ---------------------------------------------------------------------------
# modes


def test_enumerate_mode(tmp_path):
    code, text = run_cli(
        ["--family", "quaternion", "--order", "8",
         "--involution", "classical", "--mode", "enumerate", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["orders"]["normalized_units"] == 128
    assert payload["orders"]["unitary"] == 64
    assert payload["mode"] == "enumerate"


def test_construct_mode_skips_enumeration(tmp_path):
    code, text = run_cli(
        ["--family", "quaternion", "--order", "8",
         "--involution", "classical", "--mode", "construct", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    report = json.loads(text)
    assert "oracle_unitary" not in report["orders"]
    assert report["pass"] is True


def test_max_exhaustive_order_alone_decides_the_oracle(tmp_path, capsys):
    """There is no flag that forces the oracle: --force-enumeration is an
    unknown option (exit 2, no traceback), and the bound decides whether
    the oracle runs."""
    with pytest.raises(SystemExit) as exc:
        main(["--family", "quaternion", "--order", "8", "--involution", "classical",
              "--force-enumeration"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "unrecognized arguments: --force-enumeration" in err
    assert "Traceback" not in err

    q16 = ["--family", "quaternion", "--order", "16", "--involution", "classical",
           "--format", "json"]
    code, text = run_cli([*q16, "--max-exhaustive-order", "8"], tmp_path, "bound8.json")
    report = json.loads(text)
    assert code == 0
    assert "oracle_unitary" not in report["orders"]
    assert "oracle_set_equality" not in {c["name"] for c in report["checks"]}
    assert any(n.startswith("group order exceeds the exhaustive bound") for n in report["notes"])

    code, text = run_cli(q16, tmp_path, "default.json")
    report = json.loads(text)
    assert code == 0
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    assert checks["oracle_set_equality"] is True
    assert not any("exceeds" in n for n in report["notes"])


@pytest.mark.parametrize("mode", ["verify", "construct", "enumerate", "catalog"])
def test_a_negative_bound_is_refused_before_any_work(mode, tmp_path, capsys, monkeypatch):
    """A negative --max-exhaustive-order is invalid input in every mode:
    exit 2 with one ParseError line, before any pipeline or scan starts.
    Bound 0 is no ParseError: verify and construct pass on Q8 odot, where
    it skips the oracle, and enumerate and catalog refuse their first scan."""
    args = [] if mode == "catalog" else [
        "--family", "quaternion", "--order", "8", "--involution", "odot"]

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    with monkeypatch.context() as patched:
        for name in ("verify_inverting_decomposition", "verify_odot_decomposition",
                     "enumerate_normalized_units"):
            patched.setattr(f"f2units.cli.{name}", refuse)
        code, text = run_cli([*args, "--mode", mode, "--max-exhaustive-order", "-5"], tmp_path)
    assert (code, text) == (2, None)
    assert capsys.readouterr().err == (
        "error: ParseError: the exhaustive bound -5 is negative\n"
    )

    code, text = run_cli([*args, "--mode", mode, "--max-exhaustive-order", "0"], tmp_path)
    err = capsys.readouterr().err
    if mode in ("verify", "construct"):
        assert (code, err) == (0, "")
        assert "group order exceeds the exhaustive bound" in text
    else:
        assert (code, text) == (2, None)
        assert err.startswith("error: TooLargeError: ")
        assert err.endswith("above the bound 0; raise the bound explicitly to override\n")


def test_readme_cli_section_documents_exactly_the_parser_flags():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser_flags = {
        opt for action in _build_parser()._actions
        for opt in action.option_strings if opt.startswith("--")
    }
    assert documented == parser_flags


def test_catalog_mode_covers_all_instances(tmp_path):
    code, text = run_cli(["--mode", "catalog", "--format", "json"], tmp_path)
    assert code == 1  # the dihedral-family rows fail honestly
    payload = json.loads(text)
    assert payload["pass"] is False
    assert len(payload["reports"]) == 9
    verdicts = {
        (r["group"]["spec"], r["involution"]): r["pass"] for r in payload["reports"]
    }
    assert verdicts[("Q8", "classical")] is True
    assert verdicts[("Q16", "classical")] is True
    assert verdicts[("Q8", "odot")] is True
    assert verdicts[("D8", "odot")] is False
    assert verdicts[("D8xC2", "odot")] is False
    assert hashlib.sha256(text.encode()).hexdigest() == reference_sha256("catalog", "catalog")


def test_library_catalog_run_accepts_workers(capsys):
    """The benchmark's call: ``workers`` is accepted and changes nothing."""
    config = RunConfig(group=None, involution=None, mode="catalog", fmt="json", workers=1)
    assert run(config) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == reference_sha256("catalog", "catalog")


def test_catalog_text_prints_every_check_with_its_witness(tmp_path):
    _, text = run_cli(["--mode", "catalog", "--format", "json"], tmp_path)
    code, rendered = run_cli(["--mode", "catalog", "--format", "text"], tmp_path, "out.txt")
    assert code == 1
    lines = iter(rendered.splitlines())
    witnesses = 0
    for row in json.loads(text)["reports"]:
        header = next(lines)
        verdict = "PASS" if row["pass"] else "FAIL"
        assert header.startswith(f"[{verdict}] {row['group']['spec']} ({row['involution']}): ")
        for check in row["checks"]:
            mark, name, *rest = next(lines).split(maxsplit=2)
            assert (mark, name) == ("ok" if check["pass"] else "FAIL", check["name"])
            if "witness" in check:
                witnesses += 1
                assert rest == [f"witness: {check['witness']}"]
            else:
                assert rest == []
    assert witnesses > 0
    assert list(lines) == ["overall: FAIL"]


def test_catalog_builds_algebra_elements_only_at_the_boundary(monkeypatch, tmp_path):
    """Inner loops, the lemma checks and report rendering work on bare
    masks: a catalog run builds no AlgebraElement at all."""
    built = 0
    init = f.AlgebraElement.__init__

    def counting(self, group, mask):
        nonlocal built
        built += 1
        init(self, group, mask)

    monkeypatch.setattr(f.AlgebraElement, "__init__", counting)
    code, _ = run_cli(["--mode", "catalog", "--format", "json"], tmp_path)
    assert code == 1
    assert built == 0


@pytest.mark.parametrize(
    "key, family", [("Q32", "quaternion"), ("Ext(C16)", "inverting_extension")]
)
def test_order32_construct_reports_match_references(key, family, tmp_path):
    code, text = run_cli(
        ["--family", family, "--order", "32", "--involution", "classical",
         "--mode", "construct", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == reference_sha256("construct32", key)


@pytest.mark.parametrize(
    "args, digest",
    [
        pytest.param(
            ["--mode", "catalog", "--format", "text"],
            "fc539fdee98d592ac994f48b7e68d04c0357949ad2a8ceae25a0d33afa0432bf",
            id="catalog-text",
        ),
        pytest.param(
            ["--family", "quaternion", "--order", "16", "--involution", "classical",
             "--mode", "enumerate", "--format", "json"],
            "54850bc48d18b6b712bbcd1f06a419cb29b7f0dbb2033499bb1944e2a4706037",
            id="Q16-classical-enumerate",
        ),
        pytest.param(
            ["--family", "dihedral", "--order", "8", "--involution", "odot",
             "--mode", "verify", "--format", "json"],
            "4bdf793c95e501c06d67c24bee09a093c3f3deb12e2b6647fe8f285470b026b5",
            id="D8-odot-verify",
        ),
    ],
)
def test_report_matches_its_pinned_sha256(args, digest, capsys):
    main(args)
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_text_and_json_verdicts_agree(tmp_path):
    _, json_text = run_cli(
        ["--family", "dihedral", "--order", "8",
         "--involution", "odot", "--format", "json"],
        tmp_path, "a.json",
    )
    _, plain = run_cli(
        ["--family", "dihedral", "--order", "8",
         "--involution", "odot", "--format", "text"],
        tmp_path, "a.txt",
    )
    report = json.loads(json_text)
    for check in report["checks"]:
        marker = "ok   " + check["name"] if check["pass"] else "FAIL " + check["name"]
        assert marker in plain


# ---------------------------------------------------------------------------
# determinism


def test_reports_are_byte_identical_across_workers(tmp_path):
    outputs = []
    for workers in ("1", "4", "8"):
        _, text = run_cli(
            ["--family", "quaternion", "--order", "8",
             "--involution", "classical", "--threads", workers, "--format", "json"],
            tmp_path, f"w{workers}.json",
        )
        outputs.append(text)
    assert outputs[0] == outputs[1] == outputs[2]


def test_repeat_runs_are_byte_identical(tmp_path):
    args = ["--family", "dihedral", "--order", "8",
            "--involution", "odot", "--format", "json"]
    _, first = run_cli(args, tmp_path, "r1.json")
    _, second = run_cli(args, tmp_path, "r2.json")
    assert first == second


# ---------------------------------------------------------------------------
# fuzz: malformed specs never escape the exit-code contract

# Group orders stay at 16 or below, so integers are small even in arbitrary
# JSON: a well-formed spec of a large group is valid input, and its tables
# take O(n^2) memory and O(n^3) validation.
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.sampled_from([float("inf"), float("-inf"), float("nan"), 2.5, -0.0])
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)


# JSON numbers that are neither an order nor a table index; an integral
# float such as 4.0 is one of them.
_NOT_INT = st.booleans() | st.floats(-1, 17)


def _mostly(valid, other=_JSON):
    """Draws from ``valid`` three times in four, else from ``other`` (any JSON value)."""
    return st.integers(0, 3).flatmap(lambda k: other if k == 0 else valid)


_FAMILY = st.sampled_from(
    ["cyclic", "dihedral", "quaternion", "direct_product", "inverting_extension", "bogus"]
)


def _family_spec(orders, factor):
    params = st.fixed_dictionaries(
        {},
        optional={
            "order": _mostly(_mostly(st.sampled_from(orders), _NOT_INT)),
            "factors": _mostly(st.lists(factor, min_size=1, max_size=2)),
            "base": _mostly(factor),
            "square_element": _mostly(st.sampled_from(["1", "a", "a2", "r2", "b", "zz"])),
        },
    )
    return st.fixed_dictionaries({"family": _mostly(_FAMILY)}, optional={"params": _mostly(params)})


_SMALL_TABLES = [
    [[0]],
    [[0, 1], [1, 0]],
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
]
_TABLE_SPEC = st.fixed_dictionaries(
    {
        "table": _mostly(
            st.sampled_from(_SMALL_TABLES)
            | st.lists(st.lists(st.integers(-1, 4) | _NOT_INT, max_size=4), max_size=4)
        )
    },
    optional={"labels": _mostly(st.lists(st.text(max_size=2), max_size=4))},
)
# Factors and bases have order at most 4, so products and extensions stay
# at order 16 or below.
_FACTOR = _TABLE_SPEC | st.fixed_dictionaries(
    {
        "family": _mostly(_FAMILY),
        "params": _mostly(
            st.fixed_dictionaries(
                {"order": _mostly(_mostly(st.sampled_from([0, 1, 2, 3, 4]), _NOT_INT))}
            )
        ),
    }
)
_SPEC = _mostly(_family_spec([0, 1, 2, 3, 4, 6, 8, 12, 16], _FACTOR) | _TABLE_SPEC)


@settings(max_examples=150, deadline=None)
@given(
    spec=_SPEC,
    mode=st.sampled_from(["enumerate", "verify", "construct"]),
    involution=st.sampled_from([None, "classical", "odot"]),
)
def test_fuzzed_specs_keep_exit_code_contract(spec, mode, involution, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps(spec))
    args = ["--group", str(path), "--mode", mode, "--out", str(path.with_suffix(".out"))]
    if involution is not None:
        args += ["--involution", involution]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
