from __future__ import annotations

import json

import pytest

from dividing_lines.classify import ClassifyParams
from dividing_lines.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, EXIT_USAGE, run_cli

OUTPUT = {"out", "output", "subcommand"}
CLASSIFY_FLAGS = {"r", "s", "eps", "kmax", "exact_limit", "distinct_coords",
                  "min_ladder", "min_ip_dim", "min_chain"}
GENERATOR_FLAGS = {"kind", "n", "k", "rows", "cols", "model", "p", "bound", "seed", "m", "L"}


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(tmp_path, capsys):
    p = tmp_path / "t.csv"
    p.write_text("0,1\n1,0\n")
    code, out, _ = run(capsys, "validate", "--input", str(p))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["valid"] and doc["n_rows"] == 2
    assert doc["provenance"]["tool"] == "dividing-lines"


def test_validate_ragged_csv(tmp_path, capsys):
    p = tmp_path / "t.csv"
    p.write_text("0,1\n1\n")
    code, _, err = run(capsys, "validate", "--input", str(p))
    assert code == EXIT_INVALID
    assert err.strip()


def test_validate_missing_file(tmp_path, capsys):
    code, _, _ = run(capsys, "validate", "--input", str(tmp_path / "absent.csv"))
    assert code == EXIT_INVALID


def test_usage_errors(tmp_path, capsys):
    p = tmp_path / "t.csv"
    p.write_text("0,1\n")
    assert run(capsys, "analyze", "--input", str(p), "--s", "2", "--r", "1")[0] == EXIT_USAGE
    assert run(capsys, "analyze", "--no-such-flag")[0] == EXIT_USAGE
    assert run(capsys, "no-such-command")[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE


def test_budget_exit(tmp_path, capsys):
    p = tmp_path / "t.csv"
    p.write_text("\n".join(",".join("1" for _ in range(3)) for _ in range(40)) + "\n")
    code, _, _ = run(capsys, "talagrand", "--input", str(p), "--kmax", "3")
    assert code == EXIT_BUDGET


def test_generate_analyze_validate_pipeline(tmp_path, capsys):
    table = tmp_path / "t.json"
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "generate", "--kind", "half_graph", "--n", "5", "--out", str(table)
    )
    assert code == EXIT_OK
    code, _, _ = run(
        capsys, "analyze", "--input", str(table), "--out", str(report)
    )
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["ladder"]["length"] == 5
    assert doc["schema"] == "dl-report/1"
    code, out, _ = run(
        capsys, "analyze", "--input", str(table), "--validate-report", str(report)
    )
    assert code == EXIT_OK
    assert json.loads(out)["revalidated"] is True


def test_analyze_text_output(tmp_path, capsys):
    table = tmp_path / "t.json"
    run(capsys, "generate", "--kind", "half_graph", "--n", "3", "--out", str(table))
    code, out, _ = run(capsys, "analyze", "--input", str(table), "--output", "text")
    assert code == EXIT_OK
    assert "ladder:" in out and "{" not in out.splitlines()[0]


def test_analyze_chain_longer_than_recursion_limit(tmp_path, capsys):
    # row 0 rises by 1/1100 per column: a strict chain through all 1100 columns
    p = tmp_path / "t.csv"
    p.write_text(",".join(str(j / 1100) for j in range(1100)) + "\n" + ",".join("0" * 1100) + "\n")
    code, out, err = run(capsys, "analyze", "--input", str(p), "--s", "0.2", "--r", "0.8",
                         "--eps", "0.0004", "--kmax", "1")
    assert code == EXIT_OK, err
    doc = json.loads(out)
    assert doc["strict_chain"]["m"] == 1100 and not doc["errors"]


def test_generate_cantor_with_target(tmp_path, capsys):
    table = tmp_path / "c.json"
    target = tmp_path / "target.json"
    code, _, _ = run(
        capsys, "generate", "--kind", "cantor_example", "--m", "2", "--L", "4",
        "--out", str(table), "--target-out", str(target),
    )
    assert code == EXIT_OK
    doc = json.loads(table.read_text())
    assert len(doc["entries"]) == 16
    tgt = json.loads(target.read_text())["target"]
    assert len(tgt) == 16 and set(tgt) <= {0.0, 1.0}


def test_talagrand_exact_and_mc(tmp_path, capsys):
    table = tmp_path / "t.json"
    run(capsys, "generate", "--kind", "half_graph", "--n", "4", "--out", str(table))
    code, out, _ = run(capsys, "talagrand", "--input", str(table), "--kmax", "2")
    assert code == EXIT_OK
    exact = json.loads(out)
    assert [r["k"] for r in exact["reports"]] == [1, 2]
    code, out, _ = run(
        capsys, "talagrand", "--input", str(table), "--kmax", "1",
        "--mc-samples", "500", "--seed", "11",
    )
    assert code == EXIT_OK
    mc = json.loads(out)
    assert mc["reports"][0]["mode"] == "mc"
    assert mc["reports"][0]["samples"] == 500


def test_dichotomy_scan_cli(capsys):
    code, out, _ = run(
        capsys, "dichotomy-scan", "--kind", "random_table", "--rows", "4",
        "--cols", "4", "--trials", "5", "--seed", "2",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["trials"] == 5
    assert len(doc["trial_digests"]) == 5


def test_mazur_cli(tmp_path, capsys):
    table = tmp_path / "t.json"
    target = tmp_path / "tgt.json"
    run(capsys, "generate", "--kind", "half_graph", "--n", "4", "--out", str(table))
    target.write_text(json.dumps({"target": [1.0, 1.0, 1.0, 0.0]}))
    code, out, _ = run(
        capsys, "mazur", "--table", str(table), "--cols", "1,2,3", "--target", str(target)
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["weights"]) == 3
    assert doc["achieved"] >= 0.0


def test_reports_byte_identical_across_runs(tmp_path, capsys):
    table = tmp_path / "t.json"
    report = tmp_path / "r.json"
    outs = []
    for _ in range(2):
        run(capsys, "generate", "--kind", "random_table", "--rows", "5", "--cols", "5",
            "--seed", "13", "--out", str(table))
        run(capsys, "analyze", "--input", str(table), "--out", str(report))
        outs.append((table.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]


@pytest.fixture
def half_graph_file(tmp_path, capsys):
    table = tmp_path / "t.json"
    run(capsys, "generate", "--kind", "half_graph", "--n", "4", "--out", str(table))
    return str(table)


@pytest.mark.parametrize("subcommand, flag", [
    ("talagrand", "--eps"),
    ("talagrand", "--exact-limit"),
    ("talagrand", "--min-ladder"),
    ("talagrand", "--min-ip-dim"),
    ("talagrand", "--min-chain"),
    ("analyze", "--seed"),
    ("analyze", "--mc-samples"),
    ("dichotomy-scan", "--mc-samples"),
])
def test_unread_flags_are_rejected(half_graph_file, capsys, subcommand, flag):
    if subcommand == "dichotomy-scan":
        required = ["--kind", "half_graph", "--trials", "1"]
    else:
        required = ["--input", half_graph_file]
    code, _, err = run(capsys, subcommand, *required, flag, "5")
    assert code == EXIT_USAGE
    assert err.startswith("usage error: unrecognized arguments: ") and flag in err


@pytest.mark.parametrize("argv, flags", [
    (["analyze"], {"input", "format", "validate_report"} | CLASSIFY_FLAGS),
    (["talagrand"], {"input", "format", "r", "s", "kmax", "distinct_coords", "seed",
                     "mc_samples"}),
    (["dichotomy-scan", "--kind", "half_graph", "--trials", "1"],
     GENERATOR_FLAGS | CLASSIFY_FLAGS | {"trials"}),
], ids=["analyze", "talagrand", "dichotomy-scan"])
def test_provenance_echoes_only_read_flags(half_graph_file, capsys, argv, flags):
    if argv[0] != "dichotomy-scan":
        argv = argv + ["--input", half_graph_file]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert set(json.loads(out)["provenance"]["parameters"]) == flags | OUTPUT


def test_analyze_defaults_are_classify_params(half_graph_file, capsys):
    code, out, _ = run(capsys, "analyze", "--input", half_graph_file)
    assert code == EXIT_OK
    assert json.loads(out)["parameters"] == ClassifyParams().to_dict()


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "TABLE", "--eps", "0"],
    ["analyze", "--input", "TABLE", "--kmax", "0"],
    ["analyze", "--input", "TABLE", "--exact-limit", "-1"],
    ["analyze", "--input", "TABLE", "--min-ladder", "-1"],
    ["analyze", "--input", "TABLE", "--min-ip-dim", "-2"],
    ["analyze", "--input", "TABLE", "--min-chain", "0"],
    ["talagrand", "--input", "TABLE", "--kmax", "0"],
    ["talagrand", "--input", "TABLE", "--kmax", "1", "--mc-samples", "-5", "--seed", "1"],
    ["talagrand", "--input", "TABLE", "--mc-samples", "10", "--kmax", "400"],
    ["talagrand", "--input", "TABLE", "--mc-samples", "10", "--kmax", "0"],
    ["dichotomy-scan", "--kind", "half_graph", "--trials", "1", "--s", "2", "--r", "1"],
    ["dichotomy-scan", "--kind", "half_graph", "--trials", "-1"],
    ["dichotomy-scan", "--kind", "half_graph", "--n", "4", "--trials", "1",
     "--exact-limit", "-1"],
    ["generate", "--kind", "random_table", "--p", "2"],
], ids=["eps", "analyze-kmax", "analyze-exact-limit", "min-ladder", "min-ip-dim", "min-chain",
        "talagrand-kmax", "mc-samples", "mc-kmax-past-float", "mc-kmax", "thresholds",
        "trials", "scan-exact-limit", "p"])
def test_bad_parameter_values_are_usage_errors(half_graph_file, capsys, argv):
    argv = [half_graph_file if a == "TABLE" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("usage error:")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("flag", ["--validate-report", "--target"])
def test_malformed_json_is_invalid_input(half_graph_file, tmp_path, capsys, flag):
    bad = tmp_path / "bad.json"
    bad.write_text('{"target": [1.0,')
    if flag == "--validate-report":
        argv = ["analyze", "--input", half_graph_file, "--validate-report", str(bad)]
    else:
        argv = ["mazur", "--table", half_graph_file, "--cols", "1,2", "--target", str(bad)]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_INVALID
    assert err.startswith("JSONDecodeError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("content", [
    '{"ladder": {"witness": {"kind": "zzz"}}}',
    "[1, 2]",
    '{"ladder": {"witness": {"kind": "ladder"}}}',
    None,
    '{"ladder": {"witness": {"kind": "ladder", "rows": [0.5, 1], "cols": [0, 1],'
    ' "s": 0.0, "r": 1.0}}}',
    '{"shattering_primal": {"witness": {"kind": "shatter", "cols": [0], "s": 0.0,'
    ' "r": 1.0, "selector": {"0": 1.5, "1": 0}}}}',
    '{"ladder": {"witness": {"kind": ["ladder"]}}}',
    '{"shattering_primal": {"witness": {"kind": "shatter", "cols": [0], "s": 0.0,'
    ' "r": 1.0, "selector": [1, 2]}}}',
    '{"shattering_primal": {"witness": {"kind": "shatter", "cols": [0], "s": 0.0,'
    ' "r": 1.0, "selector": null}}}',
    '{"alternation_ii": {"witness": {"kind": "alternation", "variant": "ii",'
    ' "pairs": [[0]], "eps": 1.0}}}',
    '{"alternation_ii": {"witness": {"kind": "alternation", "variant": "ii",'
    ' "pairs": [[0, 1, 2]], "eps": 1.0}}}',
    '{"alternation_iii": {"witness": {"kind": "alternation", "variant": "iv",'
    ' "pairs": [[0, 0]], "eps": 1.0}}}',
    '{"ladder": {"witness": {"kind": "ladder", "rows": [0, 1], "cols": [0, 1],'
    ' "s": "a", "r": "b"}}}',
    '{"shattering_primal": {"witness": {"kind": "shatter", "cols": [0], "s": "a",'
    ' "r": "b", "selector": {"0": 0, "1": 1}}}}',
    '{"alternation_ii": {"witness": {"kind": "alternation", "variant": "ii",'
    ' "pairs": [[0, 0]], "eps": true}}}',
], ids=["unknown-kind", "list", "missing-fields", "directory", "float-row", "float-selector-row",
        "list-kind", "list-selector", "null-selector", "short-pair", "long-pair",
        "unknown-variant", "string-ladder-thresholds", "string-shatter-thresholds",
        "bool-eps"])
def test_bad_validate_report_is_invalid_input(half_graph_file, tmp_path, capsys, content):
    report = tmp_path / "report"
    if content is None:
        report.mkdir()
    else:
        report.write_text(content)
    argv = ["analyze", "--input", half_graph_file, "--validate-report", str(report)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("content, error", [
    ('{"values": [1.0, 1.0, 1.0, 0.0]}', "ParseError"),
    ("[1.0, NaN, 1.0, 0.0]", "BoundViolation"),
    ('{"target": [1.0, 1.0, Infinity, 0.0]}', "BoundViolation"),
    ('{"target": [1, 2]}', "ShapeMismatch"),
    ('"abc"', "ParseError"),
], ids=["no-target-key", "nan", "infinity", "wrong-length", "non-numeric"])
def test_bad_mazur_target_is_invalid_input(half_graph_file, tmp_path, capsys, content, error):
    target = tmp_path / "tgt.json"
    target.write_text(content)
    argv = ["mazur", "--table", half_graph_file, "--cols", "1,2,3", "--target", str(target)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID
    assert err.startswith(f"{error}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out == ""
