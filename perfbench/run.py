"""Benchmark of the eulerfourier CLI: end-to-end cost and per-layer timing.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload box-3d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One operation is one experiment, run through the public
``eulerfourier.cli.run(parse_config(...))`` path in a fresh interpreter
(``perfbench/child.py``).  Operations run one at a time, each after the
previous one ended (a closed loop with one client), until ``--seconds``
have passed.  Every operation passes the correctness gate or counts as
failed: it must not raise, every verdict must pass, and every verdict's
``measured`` value must stay within 1e-6 of the reference recorded in
``perfbench/references`` relative to max(|reference|, |predicted|).

With ``--trace 0`` the last line of the output reports the medians over
the run's operations of ``wall_s``, ``cpu_s``, ``peak_rss_mb`` and
``setup_s``.  With ``--trace 1`` the operations alternate between
untraced and traced ones, and the last line reports the per-layer
metrics of the traced ones (see ``perfbench/spans.py``) plus
``trace.overhead_s``, the traced minus the untraced median wall time.
Either way every layer span that must fire on the workload is checked
to have recorded calls, and the run exits 1 if one did not.

``--seed`` picks, per operation, the CLI seed from the recorded
reference pool, so the same seed gives the same inputs.  The children run
with one BLAS/OpenMP thread unless ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` or ``MKL_NUM_THREADS`` is set.  See
``perfbench/README.md`` for why each workload is there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references"
WORK = ROOT / ".bench_build" / "perfbench"

#: name -> (CLI kind, option overrides); the reasons are in README.md
WORKLOADS = {
    "linear-quadrature": ("linear-decay", {"nodes_per_octave": 12, "t_end": 1e3}),
    "box-3d": ("simulate", {"dim": 3, "npts": 64, "length": 16.0 * math.pi, "t_end": 0.8}),
    "lyapunov-audit": ("lyapunov", {"t_end": 0.0015}),
    "inequality-harness": ("validate", {"dim": 2, "npts": 64, "length": 16.0 * math.pi,
                                        "trials": 30}),
}

DRIFT_TOL = 1e-6
OP_TIMEOUT_S = 150
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: per-layer metrics derived from call arguments and array sizes, not timed
COMPUTED = {"grid.fft_points", "grid.fft_mb", "linear.mode_evals", "solver.steps",
            "lyapunov.snapshots", "inequalities.trials", "reporting.bytes_written"}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, a crashed child)."""


def child_env() -> dict:
    """Environment of a child: the sources on the path, one BLAS thread by default."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    return env


def run_child(request: dict) -> dict:
    """Run child.py on ``request``; return the result file it wrote."""
    env = child_env()
    request = {"src": str(SRC), **request}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(request)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # the child is killed and reaped by run()
        raise BenchError(f"child ran longer than {OP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()}")
    with open(request["result"]) as fh:
        return json.load(fh)


def environment(tmp: Path) -> dict:
    """Versions, BLAS, cores and thread settings; also warms the bytecode cache."""
    env = run_child({"environment": True, "trace": 0, "result": str(tmp / "env.json")})
    try:
        # the ceiling keeps git from reading a repository above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    env["commit"] = commit
    env["nproc"] = len(os.sched_getaffinity(0))
    env.update({var: child_env()[var] for var in THREAD_VARS})
    return env


def load_reference(workload: str) -> dict[int, list[dict]]:
    path = REFERENCES / f"{workload}.json"
    data = json.loads(path.read_text())
    kind, overrides = WORKLOADS[workload]
    if data["kind"] != kind or data["overrides"] != overrides:
        raise BenchError(f"{path} was recorded for another configuration; record it again")
    return {int(seed): verdicts for seed, verdicts in data["verdicts"].items()}


def drift(measured, reference, predicted) -> float:
    """Relative move of a verdict's measured value against its reference."""
    if measured == reference:
        return 0.0
    if not all(isinstance(v, (int, float)) for v in (measured, reference, predicted)):
        return math.inf  # non-finite values are serialized as strings
    scale = max(abs(reference), abs(predicted))
    return abs(measured - reference) / scale if scale > 0 else math.inf


def gate(verdicts: list[dict], reference: list[dict]) -> tuple[list[str], float]:
    """Failure reasons of one operation and its largest verdict drift."""
    problems = [f"verdict {v['name']} failed" for v in verdicts if not v["pass"]]
    if [v["name"] for v in verdicts] != [r["name"] for r in reference]:
        return problems + ["verdict names differ from the reference"], math.inf
    worst = max((drift(v["measured"], r["measured"], v["predicted"])
                 for v, r in zip(verdicts, reference)), default=0.0)
    if worst > DRIFT_TOL:
        problems.append(f"measured values drifted by {worst:.3g} relative")
    return problems, worst


def run_op(workload: str, cli_seed: int, traced: bool, tmp: Path) -> dict:
    """One experiment in a fresh interpreter; its output is removed afterwards."""
    kind, overrides = WORKLOADS[workload]
    out = Path(tempfile.mkdtemp(prefix="op-", dir=tmp))
    try:
        result = run_child({"kind": kind, "overrides": overrides, "seed": cli_seed,
                            "out": str(out), "result": str(tmp / "op.json"),
                            "trace": int(traced)})
        vpath = out / "verdicts.jsonl"
        result["verdicts"] = ([json.loads(line) for line in vpath.read_text().splitlines()]
                              if result["error"] is None else [])
        result["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    result.update(workload=workload, cli_seed=cli_seed, traced=traced)
    return result


def layer_metrics(op: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced operation, as (value, unit)."""
    trace = op["trace"]
    spans, layers, counts = trace["spans"], trace["layers"], trace["counts"]

    def span(target, i):
        return spans[target][i]

    def layer(name, i):
        return layers[name][i]

    fft_calls = layer("grid", 0)
    fft_s = layer("grid", 1)
    mode_evals = counts.get("linear.mode_evals", 0)
    quad_s = span("linear:semigroup_besov_decay", 1)
    steps = span("solver:Stepper.step_hat", 0)
    step_s = span("solver:Stepper.step_hat", 1)
    return {
        "config.parse_s": (span("config:parse_config", 1), "s"),
        "grid.fft_calls": (fft_calls, "count"),
        "grid.fft_s": (fft_s, "s"),
        "grid.fft_us": (1e6 * fft_s / fft_calls if fft_calls else 0.0, "us"),
        "grid.fft_points": (counts.get("grid.fft_points", 0), "count"),
        "grid.fft_mb": (counts.get("grid.fft_bytes", 0) / 1e6, "MB"),
        "littlewood.calls": (layer("littlewood", 0), "count"),
        "littlewood.busy_s": (layer("littlewood", 1), "s"),
        "littlewood.self_s": (layer("littlewood", 2), "s"),
        "randfields.draws": (layer("randfields", 0), "count"),
        "randfields.busy_s": (layer("randfields", 1), "s"),
        "linear.quadrature_calls": (span("linear:semigroup_besov_decay", 0), "count"),
        "linear.quadrature_s": (quad_s, "s"),
        "linear.mode_evals": (mode_evals, "count"),
        "linear.mode_evals_per_s": (mode_evals / quad_s if quad_s else 0.0, "1/s"),
        "solver.setup_s": (span("solver:Stepper.__init__", 1), "s"),
        "solver.steps": (steps, "count"),
        "solver.step_s": (step_s, "s"),
        "solver.step_ms": (1e3 * step_s / steps if steps else 0.0, "ms"),
        "solver.integrate_self_s": (span("solver:integrate", 2), "s"),
        "solver.nonlinear_rhs_calls": (span("solver:nonlinear_rhs", 0), "count"),
        "solver.nonlinear_rhs_s": (span("solver:nonlinear_rhs", 1), "s"),
        "solver.checkpoint_s": (span("solver:save_checkpoint", 1), "s"),
        "inequalities.trials": (counts.get("inequalities.trials", 0), "count"),
        "inequalities.busy_s": (layer("inequalities", 1), "s"),
        "inequalities.self_s": (layer("inequalities", 2), "s"),
        "lyapunov.residual_calls": (span("lyapunov:lyapunov_residual", 0), "count"),
        "lyapunov.snapshots": (counts.get("lyapunov.snapshots", 0), "count"),
        "lyapunov.residual_s": (span("lyapunov:lyapunov_residual", 1), "s"),
        "lyapunov.self_s": (layer("lyapunov", 2), "s"),
        "decay.initial_data_s": (span("decay:generate_initial_data", 1), "s"),
        "decay.fit_calls": (span("decay:fit_rate", 0), "count"),
        "decay.busy_s": (layer("decay", 1), "s"),
        "reporting.emit_s": (layer("reporting", 1), "s"),
        "reporting.bytes_written": (op["bytes_written"], "bytes"),
    }


def silent_spans(workload: str, op: dict) -> list[str]:
    """Span targets that must fire on ``workload`` but recorded no call."""
    spans = op["trace"]["spans"]
    return [target for target, _, _, must in SPANS
            if workload in must and spans[target][0] == 0]


def median_metrics(samples: list[dict[str, tuple[float, str]]]) -> dict:
    return {name: {"value": statistics.median(s[name][0] for s in samples), "unit": unit}
            for name, (_, unit) in samples[0].items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """Closed loop of operations for ``seconds``; returns the run summary."""
    reference = load_reference(workload)
    pool = sorted(reference)
    rng = random.Random(f"{workload}:{seed}")
    ops: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    # start another operation while it is expected to end no later than half
    # an operation past the deadline, so a run lasts about ``seconds``
    while (not ops or (trace and len(ops) < 2)
           or time.perf_counter() - start + statistics.median(durations) / 2 < seconds):
        cli_seed = rng.choice(pool)
        began = time.perf_counter()
        op = run_op(workload, cli_seed, traced=trace and len(ops) % 2 == 1, tmp=tmp)
        durations.append(time.perf_counter() - began)
        op["problems"], op["drift"] = gate(op["verdicts"], reference[cli_seed])
        if op["error"] is not None:
            op["problems"].insert(0, f"run raised {op['error']}")
        ops.append(op)
        print(f"{workload} op {len(ops)}: cli seed {cli_seed}, traced {int(op['traced'])}, "
              f"wall {op['wall_s']:.3f} s, cpu {op['cpu_s']:.3f} s, setup {op['setup_s']:.3f} s, "
              f"rss {op['peak_rss_mb']:.1f} MB, drift {op['drift']:.3g}", flush=True)

    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    summary = {
        "workload": workload,
        "attempted": len(ops),
        "failed": sum(bool(op["problems"]) for op in ops),
        "max_drift": max(op["drift"] for op in ops),
        "problems": sorted({p for op in ops for p in op["problems"]}),
        "silent_spans": sorted({t for op in traced for t in silent_spans(workload, op)}),
        "untraced": untraced,
    }
    if trace:
        metrics = median_metrics([layer_metrics(op) for op in traced])
        overhead = (statistics.median(op["wall_s"] for op in traced)
                    - statistics.median(op["wall_s"] for op in untraced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = median_metrics([{name: (op[name], unit) for name, unit in END_TO_END.items()}
                                  for op in untraced])
    summary["metrics"] = metrics
    return summary


def print_summary(s: dict) -> None:
    print(f"{s['workload']}: {s['failed']}/{s['attempted']} operations failed, "
          f"largest verdict drift {s['max_drift']:.3g} (gate {DRIFT_TOL:g})")
    for problem in s["problems"]:
        print(f"  FAILED: {problem}")
    walls = [op["wall_s"] for op in s["untraced"]]
    if len(walls) >= 2:
        q1, q2, q3 = statistics.quantiles(walls, n=4)
        print(f"  untraced wall_s over {len(walls)} operations: min {min(walls):.4g}, "
              f"quartiles {q1:.4g} / {q2:.4g} / {q3:.4g} s")
    for name, m in s["metrics"].items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}{label}")
    for target in s["silent_spans"]:
        print(f"  SPAN CHECK: {target} recorded no call on {s['workload']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eulerfourier" / "__init__.py").is_file():
        print(f"no eulerfourier sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        env = environment(tmp)
        print("environment: " + json.dumps(env, sort_keys=True))
        summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace), tmp)
                     for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for s in summaries:
        print_summary(s)
    if any(s["silent_spans"] for s in summaries):
        print("span coverage check failed: a layer span recorded no call", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
