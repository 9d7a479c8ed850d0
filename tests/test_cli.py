"""Configuration, verdict reporting, and the command-line entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eulerfourier.config import (
    KIND_DEFAULTS,
    KINDS,
    parse_config,
    read_config_file,
)
from eulerfourier.cli import main
from eulerfourier.reporting import (
    Verdict,
    config_hash,
    load_verdicts,
    render_verdict_line,
    validate_verdict_file,
    write_curve,
    write_verdicts,
)


# ----------------------------------------------------------------------
# config


def test_defaults_exist_for_every_kind():
    for kind in KINDS:
        cfg = parse_config(kind=kind)
        assert cfg.kind == kind
        assert cfg.options == dict(KIND_DEFAULTS[kind])


def test_unknown_keys_are_rejected_with_suggestions():
    with pytest.raises(ValueError, match="valid keys"):
        parse_config(kind="lp-inspect", overrides={"bogus": "1"})


def test_kind_alias():
    cfg = parse_config(kind="validate-inequalities")
    assert cfg.kind == "validate"


def test_config_file_merging(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "kind = linear-decay\n"
        "dim = 2\n"
        "sigma1 = 1.0\n"
        "t_end = 5e3  # trailing comment\n"
    )
    cfg = parse_config(path=path, overrides={"sigma": "0.5"}, seed=7)
    assert cfg.kind == "linear-decay"
    assert cfg.options["dim"] == 2
    assert cfg.options["sigma1"] == 1.0
    assert cfg.options["t_end"] == 5e3
    assert cfg.options["sigma"] == 0.5
    assert cfg.seed == 7

    raw = read_config_file(path)
    assert raw["kind"] == "linear-decay"


def test_hash_ignores_output_location_but_not_seed():
    a = parse_config(kind="lp-inspect", out_dir="here")
    b = parse_config(kind="lp-inspect", out_dir="there")
    c = parse_config(kind="lp-inspect", seed=99)
    assert a.digest == b.digest
    assert a.digest != c.digest
    assert a.digest == config_hash(a.canonical_text())


def test_domain_validation_messages_name_the_interval():
    with pytest.raises(ValueError, match=r"\(-1.5, 1.5\]"):
        parse_config(kind="linear-decay", overrides={"sigma1": "4"})
    with pytest.raises(ValueError, match="power of two"):
        parse_config(kind="simulate", overrides={"npts": "300"})
    with pytest.raises(ValueError, match="eta"):
        parse_config(kind="lyapunov", overrides={"eta": "1.5"})
    with pytest.raises(ValueError, match="t_start"):
        parse_config(kind="linear-decay", overrides={"t_start": "100", "t_end": "10"})


# ----------------------------------------------------------------------
# verdicts and curves


def test_verdict_constructors():
    v = Verdict.from_comparison("rate", predicted=-0.75, measured=-0.76, tolerance=0.05)
    assert v.passed
    assert not Verdict.from_comparison("rate", -0.75, -0.95, 0.05).passed

    b = Verdict.from_bound("ratio", measured=1.2, bound=16.0)
    assert b.passed and b.tolerance == 0.0
    assert not Verdict.from_bound("ratio", 17.0, 16.0).passed

    f = Verdict.from_floor("margin", measured=0.4, floor=0.1)
    assert f.passed and f.extras["direction"] == "floor"
    assert not Verdict.from_floor("margin", 0.05, 0.1).passed


def test_verdict_json_line_is_stable_and_schema_valid(tmp_path):
    v = Verdict.from_comparison("rate", -0.75, -0.76, 0.05, window=(1e2, 1e4))
    line = render_verdict_line(v)
    d = json.loads(line)
    assert d["schema"] == "verdict-v1"
    assert set(d) >= {"schema", "name", "predicted", "measured", "tolerance", "pass"}
    assert render_verdict_line(v) == line  # deterministic

    path = tmp_path / "verdicts.jsonl"
    write_verdicts(path, [v, Verdict.from_bound("b", 1.0, 2.0)])
    validate_verdict_file(path)
    back = load_verdicts(path)
    assert len(back) == 2 and back[0]["name"] == "rate"


def test_validate_verdict_file_rejects_corruption(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    write_verdicts(path, [Verdict.from_bound("ok", 1.0, 2.0)])
    text = path.read_text().replace('"pass":true', '"pass":"yes"')
    path.write_text(text)
    with pytest.raises(Exception):
        validate_verdict_file(path)


def test_write_curve_layout(tmp_path):
    path = write_curve(tmp_path / "c.csv", [0.0, 1.0], [2.0, 3.0],
                       meta={"kind": "demo"}, columns=("t", "norm"))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and "kind = demo" in lines[0]
    assert lines[1] == "t,norm"
    assert lines[2].startswith("0.0,")


# ----------------------------------------------------------------------
# end-to-end CLI


def _run_main(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


FAST_LP = ["lp-inspect", "--set", "radii=2000", "--set", "trials=20"]


def test_lp_inspect_run_and_artifacts(tmp_path, capsys):
    code, out = _run_main(FAST_LP, tmp_path, "lp")
    assert code == 0
    assert (out / "verdicts.jsonl").exists()
    assert (out / "run_record.json").exists()
    assert (out / "summary.txt").exists()
    record = json.loads((out / "run_record.json").read_text())
    assert record["schema"] == "run-record-v1"
    assert record["n_fail"] == 0
    printed = capsys.readouterr().out
    assert "[PASS]" in printed and "[FAIL]" not in printed


def test_rerun_is_byte_identical(tmp_path):
    _, first = _run_main(FAST_LP, tmp_path, "a")
    _, second = _run_main(FAST_LP, tmp_path, "b")
    assert (first / "verdicts.jsonl").read_bytes() == (second / "verdicts.jsonl").read_bytes()
    for csv in sorted((first / "curves").glob("*.csv")):
        twin = second / "curves" / csv.name
        assert csv.read_bytes() == twin.read_bytes()


def test_validate_subcommand(tmp_path):
    code, out = _run_main(["validate", "--set", "trials=10"], tmp_path, "v")
    assert code == 0
    names = [v["name"] for v in load_verdicts(out / "verdicts.jsonl")]
    assert any("bernstein" in n for n in names)
    assert any("product" in n for n in names)
    assert any("commutator" in n for n in names)


def test_simulate_subcommand(tmp_path):
    code, out = _run_main(
        ["simulate", "--set", "npts=256", "--set", "t_end=0.5", "--set", "length=12.566370614359172"],
        tmp_path, "sim",
    )
    assert code == 0
    names = [v["name"] for v in load_verdicts(out / "verdicts.jsonl")]
    assert "mass-drift" in names
    assert (out / "curves" / "critical_norm.csv").exists()


def test_invalid_config_exits_2_with_error_record(tmp_path):
    out = tmp_path / "bad"
    code = main(["linear-decay", "--set", "sigma1=9", "--out", str(out)])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["schema"] == "error-v1"
    assert "sigma1" in err["message"]


def test_env_var_sets_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("EULERFOURIER_OUT", str(tmp_path / "envout"))
    code = main(FAST_LP)
    assert code == 0
    assert (tmp_path / "envout" / "verdicts.jsonl").exists()


def test_strict_mode_promotes_notes_to_failures(tmp_path):
    # simulate with checkpointing produces an informational note
    args = ["simulate", "--set", "npts=256", "--set", "t_end=0.2",
            "--set", "length=12.566370614359172", "--strict"]
    code, out = _run_main(args, tmp_path, "strict")
    verdicts = load_verdicts(out / "verdicts.jsonl")
    strict_rows = [v for v in verdicts if v["name"].startswith("strict-warning")]
    if strict_rows:  # only when the runner produced notes
        assert code == 1
        assert all(not v["pass"] for v in strict_rows)
    else:
        assert code == 0


def test_sweep_runs_configs_in_parallel(tmp_path):
    cfg1 = tmp_path / "one.cfg"
    cfg1.write_text("kind = lp-inspect\nradii = 1500\ntrials = 10\n")
    cfg2 = tmp_path / "two.cfg"
    cfg2.write_text("kind = validate\ntrials = 8\n")
    out = tmp_path / "sweepout"
    code = main(["sweep", str(cfg1), str(cfg2), "--jobs", "2", "--out", str(out)])
    assert code == 0
    assert (out / "one" / "verdicts.jsonl").exists()
    assert (out / "two" / "verdicts.jsonl").exists()
    summary = [json.loads(l) for l in (out / "sweep_summary.jsonl").read_text().splitlines()]
    assert {row["name"] for row in summary} == {"sweep:one", "sweep:two"}
    assert all(row["pass"] for row in summary)


def test_sweep_isolates_failing_configs(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text("kind = lp-inspect\nradii = 1500\ntrials = 10\n")
    typo = tmp_path / "typo.cfg"
    typo.write_text("kind = lp-inspect\nradiii = 1500\n")
    raises = tmp_path / "raises.cfg"  # parses, then the run rejects the band
    raises.write_text("kind = simulate\nnpts = 64\nt_end = 0.01\n")
    out = tmp_path / "sweepout"
    code = main(["sweep", str(good), str(typo), str(raises), "--jobs", "2",
                 "--out", str(out)])
    assert code == 2
    assert (out / "good" / "verdicts.jsonl").exists()
    typo_err = json.loads((out / "typo" / "error.json").read_text())
    assert typo_err["schema"] == "error-v1" and "radiii" in typo_err["message"]
    run_err = json.loads((out / "raises" / "error.json").read_text())
    assert run_err["kind"] == "simulate" and run_err["error"] == "ValueError"
    rows = {row["name"]: row for row in load_verdicts(out / "sweep_summary.jsonl")}
    assert set(rows) == {"sweep:good", "sweep:typo", "sweep:raises"}
    assert rows["sweep:good"]["pass"]
    assert not rows["sweep:typo"]["pass"] and not rows["sweep:raises"]["pass"]
    assert rows["sweep:raises"]["config_hash"] == run_err["config_hash"]


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "eulerfourier.cli", "--help"],
        capture_output=True, text=True,
    )
    # module execution works even if the entry point shim is absent
    assert proc.returncode == 0 or "usage" in (proc.stdout + proc.stderr).lower()
