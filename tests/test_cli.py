"""Configuration, verdict reporting, and the command-line entry point."""

import functools
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eulerfourier.config import (
    KIND_DEFAULTS,
    KIND_MODULES,
    KINDS,
    _parse_scalar,
    parse_config,
    read_config_file,
    validate_config,
)
from eulerfourier import cli, reporting
from eulerfourier.cli import main, run
from eulerfourier.reporting import (
    SCHEMA_VERSION,
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
    with pytest.raises(ValueError, match="sample_stride"):
        parse_config(kind="simulate", overrides={"sample_stride": "0"})
    with pytest.raises(ValueError, match="snapshot_stride"):
        parse_config(kind="simulate", overrides={"snapshot_stride": "-1"})
    with pytest.raises(ValueError, match="snapshot_stride"):
        parse_config(kind="damped-mode", overrides={"source": "box", "t_start": "2",
                                                    "snapshot_stride": "0"})
    # simulate reads snapshot_stride 0 as "the final state only"
    parse_config(kind="simulate", overrides={"snapshot_stride": "0"})


def test_an_option_value_must_fit_the_type_of_its_default():
    for kind, key, value, wording in [
        ("linear-decay", "with_u", "maybe", "true or false"),
        ("linear-decay", "with_u", "1", "true or false"),
        ("linear-decay", "nodes_per_octave", "12.7", "an integer"),
        ("validate", "trials", "abc", "an integer"),
        ("validate", "trials", True, "an integer"),
        ("simulate", "t_end", "soon", "a number"),
        ("simulate", "t_end", False, "a number"),
        ("damped-mode", "source", 1, "a string"),
    ]:
        with pytest.raises(ValueError, match=f"option {key} of {kind} takes {wording}"):
            parse_config(kind=kind, overrides={key: value})
    # a float option keeps an int as given, so no accepted config changes its digest
    cfg = parse_config(kind="simulate", overrides={"t_end": "2", "checkpoint": "off"})
    assert cfg.options["t_end"] == 2 and type(cfg.options["t_end"]) is int
    assert cfg.options["checkpoint"] is False
    assert "t_end = 2\n" in cfg.canonical_text()


def test_a_mistyped_set_value_exits_2_with_error_record(tmp_path):
    for kind, pair in [("validate", "trials=abc"), ("linear-decay", "with_u=maybe"),
                       ("linear-decay", "nodes_per_octave=12.7")]:
        out = tmp_path / pair.partition("=")[0]
        assert main([kind, "--set", pair, "--out", str(out)]) == 2, pair
        err = json.loads((out / "error.json").read_text())
        assert err["schema"] == "error-v1" and pair.partition("=")[0] in err["message"]
    # a sweep member too: the others run, the mistyped one leaves its error record
    good = tmp_path / "good.cfg"
    good.write_text("kind = lp-inspect\nradii = 1500\ntrials = 10\n")
    mistyped = tmp_path / "mistyped.cfg"
    mistyped.write_text("kind = validate\ntrials = abc\n")
    out = tmp_path / "sweepout"
    assert main(["sweep", str(good), str(mistyped), "--jobs", "2", "--out", str(out)]) == 2
    assert (out / "good" / "verdicts.jsonl").exists()
    err = json.loads((out / "mistyped" / "error.json").read_text())
    assert err["schema"] == "error-v1" and "trials" in err["message"]


def test_a_non_finite_number_exits_2_with_error_record(tmp_path):
    for kind, pair in [("simulate", "dt=nan"), ("simulate", "amplitude=inf"),
                       ("simulate", "t_end=-inf"), ("linear-decay", "sigma1=NaN")]:
        key = pair.partition("=")[0]
        with pytest.raises(ValueError, match=f"option {key} of {kind} takes a finite number"):
            parse_config(kind=kind, overrides={key: pair.partition("=")[2]})
        out = tmp_path / key
        assert main([kind, "--set", pair, "--out", str(out)]) == 2, pair
        err = json.loads((out / "error.json").read_text())
        assert err["schema"] == "error-v1" and key in err["message"]
    # from a config file too
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("kind = validate\nbudget = nan\n")
    with pytest.raises(ValueError, match="option budget of validate takes a finite number"):
        parse_config(path=cfg)


def test_the_seed_must_be_a_non_negative_integer(tmp_path):
    for value in ["2.7", "true", "1e400", "-3", "abc", 2.7, True, -1, math.inf, math.nan]:
        with pytest.raises(ValueError, match="seed takes a non-negative integer"):
            parse_config(kind="lp-inspect", overrides={"seed": value})
    with pytest.raises(ValueError, match="seed"):
        parse_config(kind="lp-inspect", seed=-3)
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("kind = lp-inspect\nseed = 2.7\n")
    with pytest.raises(ValueError, match="seed"):
        parse_config(path=cfg)
    # from the command line: exit 2 and an error record naming the seed
    for i, args in enumerate([["--set", "seed=1e400"], ["--set", "seed=2.7"],
                              ["--set", "seed=true"], ["--seed", "-3"], ["--seed", "abc"]]):
        out = tmp_path / f"cli{i}"
        assert main(["lp-inspect", *args, "--out", str(out)]) == 2, args
        assert "seed" in json.loads((out / "error.json").read_text())["message"]
    # a sweep member too
    good = tmp_path / "good.cfg"
    good.write_text("kind = lp-inspect\nradii = 1500\ntrials = 10\nseed = 3\n")
    out = tmp_path / "sweepout"
    assert main(["sweep", str(good), str(cfg), "--out", str(out)]) == 2
    assert (out / "good" / "verdicts.jsonl").exists()
    assert "seed" in json.loads((out / "seed" / "error.json").read_text())["message"]
    # valid seeds keep their config digests, given as an int or as text
    assert parse_config(kind="lp-inspect").digest == "327242a2a028d495"
    assert parse_config(kind="lp-inspect", seed=7).digest == "abcb350701df7f09"
    assert parse_config(kind="lp-inspect", seed="7").digest == "abcb350701df7f09"
    assert parse_config(kind="validate", overrides={"seed": "12"}).digest == "553a4d0ae9b908bb"


#: option values of every sort: random strings, numbers of any type, NaN,
#: +-inf, zero, negative and huge ones, as Python values and as text
_OPTION_VALUES = st.one_of(
    st.text(max_size=8), st.integers(), st.floats(), st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5, 2.7, 10**400, -10**400,
                     1e308, "nan", "-inf", "1e400", "-3", "2.7", "0", "true", "", "abc"]),
)


@st.composite
def _option_draws(draw):
    """A kind, one of its keys or ``seed``, and a value."""
    kind = draw(st.sampled_from(KINDS))
    key = draw(st.sampled_from(sorted(KIND_DEFAULTS[kind]) + ["seed"]))
    return kind, key, draw(_OPTION_VALUES)


@settings(max_examples=200, deadline=None)
@example(draw=("lp-inspect", "seed", math.inf))
@example(draw=("validate", "seed", 2.7))
@example(draw=("linear-decay", "amplitude", 10**400))
@given(draw=_option_draws())
def test_an_option_value_parses_as_given_or_is_a_configuration_error(draw):
    # every draw either parses to a valid config holding the value as given
    # (text parsed as on the command line), or raises the ValueError of exit 2
    kind, key, value = draw
    try:
        cfg = parse_config(kind=kind, overrides={key: value})
    except ValueError:
        return
    validate_config(cfg)
    given = _parse_scalar(value) if isinstance(value, str) else value
    got = cfg.seed if key == "seed" else cfg.options[key]
    assert got == given and type(got) is type(given)


@settings(max_examples=3, deadline=None)
@example(draw=("simulate", "seed", "1e400"))
@given(draw=_option_draws())
def test_a_drawn_configuration_error_exits_2_with_error_record(draw, tmp_path_factory):
    kind, key, value = draw
    text = value if isinstance(value, str) else repr(value)
    assume("\x00" not in text)
    try:
        parse_config(kind=kind, overrides={key: text})
        assume(False)
    except ValueError:
        pass
    out = tmp_path_factory.mktemp("drawn")
    src = str(Path(reporting.__file__).parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "eulerfourier.cli", kind, "--set",
                           f"{key}={text}", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert json.loads((out / "error.json").read_text())["schema"] == "error-v1"


def test_box_damped_mode_needs_t_start_below_half_the_box():
    # the default t_start = 1e2 lies beyond L/2 = 8 pi of the default box
    with pytest.raises(ValueError, match=r"L/2 = 25\.13"):
        parse_config(kind="damped-mode", overrides={"source": "box"})
    parse_config(kind="damped-mode", overrides={"source": "box", "t_start": "25"})
    parse_config(kind="damped-mode")  # the quadrature has no box
    # decay-fit: the window must end by L/2 = 32 pi, and t_end = 0 means L/2
    with pytest.raises(ValueError, match=r"L/2 = 100\.53"):
        parse_config(kind="decay-fit", overrides={"npts": "256", "t_end": "200"})
    with pytest.raises(ValueError, match=r"L/2 = 100\.53"):
        parse_config(kind="decay-fit", overrides={"t_start": "150"})
    with pytest.raises(ValueError, match="t_start"):
        parse_config(kind="decay-fit", overrides={"t_start": "60", "t_end": "50"})
    parse_config(kind="decay-fit", overrides={"t_end": str(32.0 * np.pi)})
    parse_config(kind="decay-fit")


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
    write_verdicts(path, [Verdict.from_bound("ok", 1.0, 2.0), Verdict.from_bound("bad", 3.0, 2.0)])
    first, second = path.read_text().splitlines()
    # two faults in one line: the message names the line, the first key that
    # breaks its rule in the schema's key order, and the rule
    second = second.replace('"pass":false', '"pass":"no"').replace('"name":"bad"', '"name":7')
    renamed = second.replace('"name":7', '"name":"bad"')
    for lines, message in [
        ([first, second], "verdict line 2 fails verdict-v1: "
                          "key 'name' must be a non-empty string, got 7"),
        ([first, renamed], "verdict line 2 fails verdict-v1: "
                           "key 'pass' must be true or false, got 'no'"),
        ([first, "[1]"], "verdict line 2 fails verdict-v1: "
                         "a line must be a JSON object, got [1]"),
        ([first.replace(',"tolerance":0.0', "")], "verdict line 1 fails verdict-v1: "
                                                  "key 'tolerance' is required"),
    ]:
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError) as got:
            validate_verdict_file(path)
        assert str(got.value) == message


def test_a_failing_verdict_check_loads_no_jsonschema(tmp_path):
    # the check is the package's own; jsonschema is only the tests' oracle
    path = tmp_path / "verdicts.jsonl"
    path.write_text('{"schema":"verdict-v1","name":7}\n')
    script = f"""
import json, sys
from eulerfourier.reporting import validate_verdict_file
try:
    validate_verdict_file({str(path)!r})
except ValueError as exc:
    print(json.dumps([str(exc), sorted(m for m in sys.modules if m.startswith("jsonschema"))]))
"""
    message, loaded = _loaded_modules(script)
    assert "key 'name' must be a non-empty string" in message
    assert loaded == []


VERDICT_KEYS = ("schema", "name", "predicted", "measured", "tolerance", "pass")


@functools.cache
def _schema_validator():
    import jsonschema

    schema = json.loads((Path(reporting.__file__).parent / "schemas"
                         / f"{SCHEMA_VERSION}.json").read_text())
    return jsonschema.validators.validator_for(schema)(schema)


def _assert_plain_check_agrees(validator, record, path):
    """The plain check and jsonschema accept the same record, the file check
    raises exactly when jsonschema rejects it, and the key it names is one
    that jsonschema faults (none for a line that is not an object)."""
    record = json.loads(json.dumps(record))  # as loaded from a verdict file
    valid = validator.is_valid(record)
    assert (reporting._violation(record) is None) == valid
    path.write_text(json.dumps(record) + "\n")
    if valid:
        validate_verdict_file(path)
        return
    with pytest.raises(ValueError, match="fails verdict-v1") as got:
        validate_verdict_file(path)
    faulted = set()
    for error in validator.iter_errors(record):
        if error.path:
            faulted.add(error.path[0])
        elif error.validator == "required":
            faulted |= {key for key in error.validator_value if key not in record}
        else:
            faulted.add(None)
    named = re.search(r"key '(\w+)'", str(got.value))
    assert (named and named.group(1)) in faulted


_GOOD = {"schema": "verdict-v1", "name": "n", "predicted": 1.0, "measured": 0.5,
         "tolerance": 0.0, "pass": True}


@pytest.mark.parametrize("record", [
    _GOOD,
    _GOOD | {"predicted": 2, "measured": -3, "tolerance": 1},
    _GOOD | {"predicted": True},
    _GOOD | {"measured": False},
    _GOOD | {"tolerance": True},
    _GOOD | {"pass": 1},
    _GOOD | {"pass": 0.0},
    _GOOD | {"predicted": "inf", "measured": "nan"},
    _GOOD | {"predicted": float("inf"), "measured": float("nan")},
    _GOOD | {"tolerance": "inf"},
    _GOOD | {"tolerance": float("inf")},
    _GOOD | {"tolerance": float("nan")},
    _GOOD | {"tolerance": float("-inf")},
    _GOOD | {"tolerance": -1e-300},
    _GOOD | {"tolerance": -0.0},
    _GOOD | {"name": ""},
    _GOOD | {"name": 7},
    _GOOD | {"schema": "verdict-v2"},
    _GOOD | {"predicted": None},
    _GOOD | {"measured": [1.0]},
    _GOOD | {"extra": None, "window": [1, 2], "note": {"a": 1}},
    *({k: v for k, v in _GOOD.items() if k != key} for key in VERDICT_KEYS),
    [], [_GOOD], "verdict-v1", 3, 2.5, True, None,
])
def test_plain_verdict_check_agrees_with_jsonschema_on_cases(record, tmp_path):
    _assert_plain_check_agrees(_schema_validator(), record, tmp_path / "v.jsonl")


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from(["", "inf", "-inf", "nan", "verdict-v1", "n"]), st.text(max_size=3),
)
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=2),
                         st.dictionaries(st.text(max_size=2), _JSON_SCALARS, max_size=2))


@st.composite
def _verdict_lines(draw):
    """Mostly verdict-v1 records with a few fields dropped, replaced or added;
    sometimes a line that is not an object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON_VALUES)
    record = {
        "schema": "verdict-v1",
        "name": draw(st.text(min_size=1, max_size=4)),
        "predicted": draw(st.one_of(st.floats(), st.integers(), st.sampled_from(["inf", "nan"]))),
        "measured": draw(st.one_of(st.floats(), st.integers(), st.sampled_from(["-inf", "x"]))),
        "tolerance": draw(st.one_of(st.floats(min_value=0.0), st.integers(min_value=0))),
        "pass": draw(st.booleans()),
    }
    for key in draw(st.lists(st.sampled_from(VERDICT_KEYS), max_size=2)):
        record[key] = draw(_JSON_VALUES)
    for key in draw(st.lists(st.sampled_from(VERDICT_KEYS), max_size=1)):
        record.pop(key, None)
    record |= draw(st.dictionaries(st.text(max_size=3), _JSON_VALUES, max_size=2))
    return record


@settings(max_examples=300, deadline=None)
@given(record=_verdict_lines())
def test_plain_verdict_check_agrees_with_jsonschema(record, tmp_path_factory):
    _assert_plain_check_agrees(_schema_validator(), record,
                               tmp_path_factory.getbasetemp() / "agreement.jsonl")


#: a small config of every kind, and of damped-mode from a box, for the import budget
_SMALL_RUNS = [
    ("lp-inspect", {"trials": 2, "radii": 100}),
    ("validate", {"npts": 32, "trials": 2}),
    ("linear-decay", {"nodes_per_octave": 12, "t_end": 1e3}),
    ("simulate", {"npts": 128, "t_end": 0.1}),
    ("decay-fit", {"npts": 256, "t_end": 20.0}),
    ("lyapunov", {"t_end": 0.0015, "j_lo": -1, "j_hi": 1}),
    ("damped-mode", {"t_end": 1e3}),
    ("damped-mode", {"source": "box", "npts": 16, "length": 4.0 * np.pi, "t_start": 1.0,
                     "sample_stride": 1, "snapshot_stride": 1}),
]


def _loaded_modules(script: str, *args: str) -> list:
    """What ``script``, run in a fresh interpreter with ``args`` in ``sys.argv``,
    prints as JSON: the sorted lazily loaded modules it holds."""
    src = str(Path(reporting.__file__).parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_run_imports_no_unneeded_lazy_module(tmp_path):
    # import cost belongs to set-up: parse_config loads exactly the modules that
    # importing the run's KIND_MODULES entry loads, and the run nothing more;
    # scipy, jsonschema and numpy's lazily loaded fft and random are tracked;
    # checking presence, not a time, keeps the guard free of timing noise
    loaded = ("sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')"
              " or m.startswith(('numpy.fft', 'numpy.random')))")
    reference = f"""
import importlib, json, sys
for module in sys.argv[1:]:
    importlib.import_module(module)
print(json.dumps({loaded}))
"""
    script = f"""
import json, sys
from eulerfourier import cli
from eulerfourier.config import parse_config
cfg = parse_config(kind=sys.argv[1], overrides=json.loads(sys.argv[2]), out_dir=sys.argv[3])
parsed = {loaded}
cli.run(cfg)
print(json.dumps([parsed, {loaded}]))
"""
    entries = list(set(KIND_MODULES.values()))
    runs = [(kind, overrides, parse_config(kind=kind, overrides=overrides).modules)
            for kind, overrides in _SMALL_RUNS]
    assert {kind for kind, _, _ in runs} == set(KINDS)
    assert {modules for _, _, modules in runs} == set(KIND_MODULES.values())
    outs = [tmp_path / f"{i}-{kind}" for i, (kind, _, _) in enumerate(runs)]
    # the fresh interpreters are independent: at most one per core at a time
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        references = [pool.submit(_loaded_modules, reference, *entry) for entry in entries]
        loads = [pool.submit(_loaded_modules, script, kind, json.dumps(overrides), str(out))
                 for (kind, overrides, _), out in zip(runs, outs)]
    expected = {entry: future.result() for entry, future in zip(entries, references)}
    assert expected[()] == []
    for (kind, _, modules), out, future in zip(runs, outs, loads):
        parsed, ran = future.result()
        assert parsed == expected[modules], kind
        assert ran == parsed, kind
        assert (out / "verdicts.jsonl").exists()


def test_a_missing_scipy_module_fails_at_parse_time(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)  # import raises
    with pytest.raises(ImportError):
        parse_config(kind="simulate")
    with pytest.raises(ImportError):
        parse_config(kind="damped-mode", overrides={"source": "box", "t_start": "2"})
    assert main(["simulate", "--out", str(tmp_path / "simulate")]) == 2
    assert (tmp_path / "simulate" / "error.json").exists()
    parse_config(kind="lp-inspect")
    parse_config(kind="linear-decay")
    parse_config(kind="damped-mode")


def test_lp_inspect_and_validate_run_without_scipy(tmp_path, monkeypatch):
    # the grid transforms are numpy's: neither kind imports scipy
    monkeypatch.setitem(sys.modules, "scipy", None)  # import raises
    monkeypatch.setitem(sys.modules, "scipy.fft", None)
    for kind, overrides in [r for r in _SMALL_RUNS if r[0] in ("lp-inspect", "validate")]:
        record = run(parse_config(kind=kind, overrides=overrides, out_dir=tmp_path / kind))
        assert record.n_pass + record.n_fail > 0, kind


def test_write_curve_layout(tmp_path):
    path = write_curve(tmp_path / "c.csv", [0.0, 1.0], [2.0, 3.0],
                       meta={"kind": "demo"})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and "kind = demo" in lines[0]
    assert lines[1] == "t,value"
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


def test_damped_mode_box_run_stops_at_half_the_box(tmp_path):
    # t_end stays at its default 1e4; the fit window, and so the run, ends at L/2
    length = 8.0 * np.pi
    args = ["damped-mode", "--set", "source=box", "--set", "npts=32",
            "--set", f"length={length!r}", "--set", "t_start=1",
            "--set", "sample_stride=1", "--set", "snapshot_stride=1"]
    code, out = _run_main(args, tmp_path, "dm")
    assert code in (0, 1)  # verdicts on so coarse a grid may fail; the run must not
    lines = (out / "curves" / "u_neg_sup.csv").read_text().splitlines()
    assert float(lines[-1].split(",")[0]) == pytest.approx(length / 2.0, rel=1e-12)


def test_lyapunov_subcommand_splits_shells_at_j0(tmp_path):
    # j0 = 0: the low functional covers j <= 0 and the high one j >= -1
    args = ["lyapunov", "--set", "t_end=0.0015", "--set", "j_lo=-2", "--set", "j_hi=1"]
    code, out = _run_main(args, tmp_path, "lyap")
    assert code == 0
    names = [v["name"] for v in load_verdicts(out / "verdicts.jsonl")]
    assert names == [
        "lyapunov-low-j-2", "lyapunov-low-j-1", "lyapunov-low-j0",
        "lyapunov-high-j-1", "lyapunov-high-j0", "lyapunov-high-j1",
    ]


@pytest.mark.parametrize("j_lo, j_hi", [(8, 9), (-9, -8)])
def test_a_shell_range_missing_every_resolved_shell_exits_2(tmp_path, j_lo, j_hi):
    # the default grid resolves shells -3 to 4; an empty audit is an error, not a pass
    args = ["lyapunov", "--set", "t_end=0.0015", "--set", f"j_lo={j_lo}",
            "--set", f"j_hi={j_hi}"]
    code, out = _run_main(args, tmp_path, "lyap")
    assert code == 2
    assert not (out / "verdicts.jsonl").exists()
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValueError"
    assert all(word in err["message"] for word in ("j_lo", "j_hi", "-3", "4"))


@pytest.mark.parametrize("kind, overrides", [
    ("linear-decay", {"nodes_per_octave": 12, "t_end": 1e3}),
    ("damped-mode", {"t_end": 1e3}),
])
def test_a_linear_run_from_t_start_0_writes_verdicts(tmp_path, kind, overrides):
    # the quadrature's time ladder starts at 1 when the fit window starts at 0
    sets = [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value}")]
    code, out = _run_main([kind, "--set", "t_start=0", *sets], tmp_path, kind)
    assert code in (0, 1)
    assert load_verdicts(out / "verdicts.jsonl")


def test_invalid_config_exits_2_with_error_record(tmp_path):
    out = tmp_path / "bad"
    code = main(["linear-decay", "--set", "sigma1=9", "--out", str(out)])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["schema"] == "error-v1"
    assert "sigma1" in err["message"]


def test_a_set_flag_without_a_value_exits_2_with_error_record(tmp_path):
    out = tmp_path / "noeq"
    assert main(["lp-inspect", "--set", "trials", "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["schema"] == "error-v1" and "key=value" in err["message"]


def test_an_out_path_naming_a_file_exits_2_and_says_no_record_was_written(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for args in (FAST_LP, ["lp-inspect", "--set", "trials=0"], ["sweep", "a.cfg"]):
        assert main([*args, "--out", str(taken)]) == 2, args
        assert "no error.json could be written" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


def test_a_run_clears_an_earlier_runs_artifacts(tmp_path):
    # a failed run, then a passing one into the same directory: no stale
    # error.json or curve; files the package does not write stay
    out = tmp_path / "again"
    (out / "curves").mkdir(parents=True)
    (out / "curves" / "old.csv").write_text("t,v\n")
    (out / "notes.md").write_text("mine\n")
    assert main(["lp-inspect", "--set", "trials=0", "--out", str(out)]) == 2
    assert (out / "error.json").exists() and not (out / "curves" / "old.csv").exists()
    assert main([*FAST_LP, "--out", str(out)]) == 0
    assert not (out / "error.json").exists()
    assert sorted(p.name for p in out.rglob("*")) == sorted(
        ["curves", "partition_residual.csv", "notes.md", "run_record.json", "summary.txt",
         "verdicts.jsonl"])
    # and a failed run leaves no verdicts of the passing one beside its error record
    assert main(["lp-inspect", "--set", "radii=-1", "--out", str(out)]) == 2
    assert sorted(p.name for p in out.rglob("*")) == ["curves", "error.json", "notes.md"]

    # a sweep root too: a colliding sweep, a passing one, then a colliding one
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, second = tmp_path / "a" / "x.cfg", tmp_path / "b" / "x.cfg"
    first.write_text("kind = lp-inspect\nradii = 1500\ntrials = 10\n")
    second.write_text("kind = lp-inspect\nradii = 1500\ntrials = 10\n")
    root = tmp_path / "sweepout"
    assert main(["sweep", str(first), str(second), "--out", str(root)]) == 2
    assert main(["sweep", str(first), "--out", str(root)]) == 0
    assert not (root / "error.json").exists() and (root / "sweep_summary.jsonl").exists()
    assert main(["sweep", str(first), str(second), "--out", str(root)]) == 2
    assert (root / "error.json").exists() and not (root / "sweep_summary.jsonl").exists()


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


def test_any_exception_from_parsing_exits_2_with_error_record(tmp_path, monkeypatch):
    # not only ValueError, OSError and ImportError: anything parse_config raises
    def broken(**kwargs):
        raise RuntimeError("parser broke")

    monkeypatch.setattr(cli, "parse_config", broken)
    out = tmp_path / "single"
    assert main(["lp-inspect", "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["schema"] == "error-v1" and err["error"] == "RuntimeError"
    cfg = tmp_path / "member.cfg"
    cfg.write_text("kind = lp-inspect\nradii = 1500\ntrials = 10\n")
    out = tmp_path / "sweepout"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 2
    err = json.loads((out / "member" / "error.json").read_text())
    assert err["schema"] == "error-v1" and "parser broke" in err["message"]
    assert not load_verdicts(out / "sweep_summary.jsonl")[0]["pass"]


def test_sweep_rejects_configs_whose_stems_collide(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, second = tmp_path / "a" / "x.cfg", tmp_path / "b" / "x.cfg"
    first.write_text("kind = lp-inspect\nradii = 1500\ntrials = 10\n")
    second.write_text("kind = validate\ntrials = 8\n")
    out = tmp_path / "sweepout"
    assert main(["sweep", str(first), str(second), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["schema"] == "error-v1"
    assert str(first) in err["message"] and str(second) in err["message"]
    assert not (out / "x").exists() and not (out / "sweep_summary.jsonl").exists()


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "eulerfourier.cli", "--help"],
        capture_output=True, text=True,
    )
    # module execution works even if the entry point shim is absent
    assert proc.returncode == 0 or "usage" in (proc.stdout + proc.stderr).lower()
