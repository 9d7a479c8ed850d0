"""Command-line driver: experiment registry, persistence, report emission.

Every subcommand resolves to one experiment runner that returns verdict
records and named curves; this module owns directory layout, JSONL/CSV
emission, schema validation, the run record with timestamps, and exit
codes (0 iff all verdicts pass, 2 on errors, with a machine-readable
``error.json``).  Verdict files are byte-identical across reruns of the
same configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import KINDS, RunConfig, parse_config
from .grid import PeriodicGrid
from .littlewood import LittlewoodPaley, build_cutoffs
from .reporting import (
    RunRecord,
    Verdict,
    validate_verdict_file,
    write_curve,
    write_error_record,
    write_verdicts,
)

ENV_OUT_DIR = "EULERFOURIER_OUT"

#: runner result: (verdicts, {curve name: (times, values, meta)}, notes)
RunnerResult = tuple[list[Verdict], dict, list[str]]


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _slug(text: str) -> str:
    return (
        text.replace(" ", "_").replace("/", "-").replace("-", "m")
        if text.startswith("-")
        else text.replace(" ", "_").replace("/", "-")
    )


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------
def _run_lp_inspect(cfg: RunConfig) -> RunnerResult:
    opts = cfg.options
    grid = PeriodicGrid(dim=int(opts["dim"]), npts=int(opts["npts"]),
                        length=float(opts["length"]))
    lp = LittlewoodPaley(grid)
    cutoffs = lp.cutoffs
    rng = np.random.default_rng(cfg.seed)

    radii = np.geomspace(1e-3, 1e3, int(opts["radii"]))
    js = np.arange(-14, 15)
    partition = np.zeros_like(radii)
    for j in js:
        partition += cutoffs.phi(radii * 2.0 ** (-float(j)))
    residual = np.abs(partition - 1.0)

    lo, hi = lp.covered_band
    band_mask = (grid.kmag >= lo) & (grid.kmag <= hi)

    def covered_field() -> np.ndarray:
        """Random field supported where the shells tile unity exactly."""
        return grid.inverse(grid.forward(rng.standard_normal(grid.shape)) * band_mask)

    tele_worst = 0.0
    disjoint_worst = 0.0
    for _ in range(int(opts["trials"])):
        f = covered_field()
        f = f - grid.mean(f)
        norm = grid.l2_norm(f)
        total = np.zeros_like(f)
        for j in lp.shells:
            total += lp.block(f, j)
        tele_worst = max(tele_worst, grid.l2_norm(total - f) / norm)
    probe = covered_field()
    pnorm = grid.l2_norm(probe)
    for j in lp.shells:
        bj = lp.block(probe, j)
        for jp in lp.shells:
            if abs(j - jp) >= 2:
                disjoint_worst = max(disjoint_worst, grid.l2_norm(lp.block(bj, jp)) / pnorm)

    verdicts = [
        Verdict.from_bound("partition-residual", float(residual.max()),
                           float(opts["partition_tol"]), radii=int(opts["radii"])),
        Verdict.from_bound("telescoping-residual", tele_worst,
                           float(opts["telescope_tol"]), trials=int(opts["trials"])),
        Verdict.from_bound("shell-disjointness", disjoint_worst,
                           float(opts["disjoint_tol"])),
    ]
    curves = {"partition_residual": (radii, residual,
                                     {"x": "radius", "what": "abs(sum_j phi - 1)"})}
    return verdicts, curves, []


def _run_validate(cfg: RunConfig) -> RunnerResult:
    from . import inequalities as ineq

    opts = cfg.options
    grid = PeriodicGrid(dim=int(opts["dim"]), npts=int(opts["npts"]),
                        length=float(opts["length"]))
    lp = LittlewoodPaley(grid)
    trials = int(opts["trials"])
    budget = float(opts["budget"])
    verdicts: list[Verdict] = []

    rng = np.random.default_rng(cfg.seed)
    ball = ineq.check_bernstein(lp, rng, trials=trials, k=1, support="ball")
    verdicts.append(Verdict.from_bound("bernstein-ball-k1", ball.worst_ratio,
                                       ball.budget, trials=trials))
    for k in (1, 2):
        rng = np.random.default_rng(cfg.seed + k)
        rep = ineq.check_bernstein(lp, rng, trials=trials, k=k, support="annulus")
        verdicts.append(Verdict.from_bound(f"bernstein-annulus-k{k}-upper",
                                           rep.worst_ratio, (8.0 / 3.0) ** k))
        verdicts.append(Verdict.from_floor(f"bernstein-annulus-k{k}-lower",
                                           rep.extras["min_ratio"], 0.75**k))
    rng = np.random.default_rng(cfg.seed + 10)
    interp = ineq.check_interpolation(lp, rng, trials=trials, budget=budget)
    verdicts.append(Verdict.from_bound("interpolation", interp.worst_ratio,
                                       interp.budget,
                                       base_budget=interp.extras["base_budget"]))
    for i, variant in enumerate(ineq.PRODUCT_VARIANTS):
        rng = np.random.default_rng(cfg.seed + 20 + i)
        rep = ineq.check_product(lp, rng, trials=trials, variant=variant, budget=budget)
        verdicts.append(Verdict.from_bound(f"product-{variant}", rep.worst_ratio,
                                           rep.budget))
    rng = np.random.default_rng(cfg.seed + 30)
    comm = ineq.check_commutator(lp, rng, trials=trials, budget=budget)
    verdicts.append(Verdict.from_bound("commutator", comm.worst_ratio, comm.budget,
                                       worst_shell=comm.extras["worst_shell_ratio"]))
    return verdicts, {}, []


def _decay_targets(cfg: RunConfig):
    from .decay import RateTarget

    opts = cfg.options
    targets = [RateTarget(sigma=float(opts["sigma"]), component="state",
                          tolerance=float(opts.get("tolerance_state", opts.get("tolerance", 0.05))))]
    if opts.get("with_u") and int(opts["dim"]) >= 2:
        targets.append(RateTarget(sigma=float(opts["sigma_u"]), component="u",
                                  tolerance=float(opts["tolerance_u"])))
    return targets


def _verdicts_from_decay_report(report, neg_bound: float) -> list[Verdict]:
    verdicts = [
        Verdict.from_comparison(v.name, v.predicted, v.fitted, v.tolerance,
                                ci=v.ci, sigma=v.sigma, component=v.component,
                                window=list(v.window))
        for v in report.verdicts
    ]
    verdicts.append(Verdict.from_bound("neg-norm-ratio", report.neg_norm_ratio,
                                       neg_bound, delta0=report.delta0, x0=report.x0))
    return verdicts


def _run_linear_decay(cfg: RunConfig) -> RunnerResult:
    from .decay import InitialDataSpec, run_decay_experiment

    opts = cfg.options
    spec = InitialDataSpec(sigma1=float(opts["sigma1"]), dim=int(opts["dim"]),
                           amplitude=float(opts["amplitude"]), seed=cfg.seed)
    window = (float(opts["t_start"]), float(opts["t_end"]))
    report = run_decay_experiment(
        spec, _decay_targets(cfg), "linear-quadrature", window=window,
        nodes_per_octave=int(opts["nodes_per_octave"]),
    )
    verdicts = _verdicts_from_decay_report(report, float(opts["neg_ratio_bound"]))
    curves = {
        _slug(name): (t, v, {"window": list(window), "mode": report.mode})
        for name, (t, v) in report.curves.items()
    }
    return verdicts, curves, []


def _box_pieces(cfg: RunConfig):
    from .decay import InitialDataSpec, generate_initial_data

    opts = cfg.options
    grid = PeriodicGrid(dim=int(opts["dim"]), npts=int(opts["npts"]),
                        length=float(opts["length"]))
    lp = LittlewoodPaley(grid)
    spec = InitialDataSpec(sigma1=float(opts["sigma1"]), dim=int(opts["dim"]),
                           amplitude=float(opts["amplitude"]), seed=cfg.seed)
    state0 = generate_initial_data(spec, grid, lp=lp)
    return grid, lp, spec, state0


def _run_simulate(cfg: RunConfig) -> RunnerResult:
    from .solver import SolverConfig, integrate, save_checkpoint

    opts = cfg.options
    grid, lp, spec, state0 = _box_pieces(cfg)
    sc = SolverConfig(
        dt=float(opts["dt"]) or None,
        t_end=float(opts["t_end"]),
        sample_stride=int(opts["sample_stride"]),
        # stride 0 means "endpoints only"; integrate always keeps the final state
        snapshot_stride=int(opts["snapshot_stride"]) or 10**9,
    )
    traj = integrate(grid, state0, sc, lp=lp)
    times = traj.series.times

    drift = float(np.max(np.abs(np.asarray(traj.mean_a) - traj.mean_a[0])))
    finite = bool(np.all(np.isfinite(traj.series.norms)))
    floor = min(1.0 + traj.snapshots[-1].a.min(), 1.0 + traj.snapshots[-1].theta.min())
    verdicts = [
        Verdict.from_bound("mass-drift", drift, float(opts["mass_tol"])),
        Verdict.from_bound("nonfinite-samples", 0.0 if finite else 1.0, 0.0),
        Verdict.from_floor("final-positivity-margin", floor, sc.positivity_floor),
    ]
    crit = traj.series.critical(lp.split)
    curves = {
        "critical_norm": (times, crit, {"what": "hybrid critical norm"}),
        "max_speed": (times, np.asarray(traj.max_speed), {}),
        "mean_density": (times, np.asarray(traj.mean_a), {}),
    }
    notes: list[str] = []
    if opts.get("checkpoint", True):
        path = cfg.out_dir / "final_state"
        save_checkpoint(path, grid, traj.snapshots[-1], float(times[-1]),
                        meta={"kind": cfg.kind, "config": cfg.digest})
        notes.append(f"checkpoint written: {path}.npz (+ .txt sidecar)")
    return verdicts, curves, notes


def _run_decay_fit(cfg: RunConfig) -> RunnerResult:
    from .decay import RateTarget, run_decay_experiment
    from .solver import SolverConfig, integrate

    opts = cfg.options
    grid, lp, spec, state0 = _box_pieces(cfg)
    t_end = float(opts["t_end"]) or grid.length / 2.0
    window = (float(opts["t_start"]), t_end)
    sc = SolverConfig(t_end=t_end, sample_stride=int(opts["sample_stride"]),
                      epsilon0=None)
    traj = integrate(grid, state0, sc, lp=lp)
    targets = [RateTarget(sigma=float(opts["sigma"]), component="state",
                          tolerance=float(opts["tolerance"]))]
    report = run_decay_experiment(spec, targets, "nonlinear-box",
                                  trajectory=traj, window=window)
    verdicts = _verdicts_from_decay_report(report, 4.0)
    curves = {
        _slug(name): (t, v, {"window": list(window), "mode": report.mode})
        for name, (t, v) in report.curves.items()
    }
    return verdicts, curves, []


def _run_lyapunov(cfg: RunConfig) -> RunnerResult:
    from .lyapunov import lyapunov_residual
    from .solver import SolverConfig, integrate

    opts = cfg.options
    grid, lp, spec, state0 = _box_pieces(cfg)
    sc = SolverConfig(dt=float(opts["dt"]) or None, t_end=float(opts["t_end"]),
                      sample_stride=1, snapshot_stride=1, epsilon0=None)
    traj = integrate(grid, state0, sc, lp=lp)
    eta = float(opts["eta"])
    budget = float(opts["budget"])
    verdicts: list[Verdict] = []
    curves: dict = {}
    j0 = lp.split.j0
    for regime in ("low", "high"):
        for j in range(int(opts["j_lo"]), int(opts["j_hi"]) + 1):
            if j not in lp.shells:
                continue
            # each functional is coercive only on its own side of the split
            if (regime == "low" and j > j0) or (regime == "high" and j < j0 - 1):
                continue
            res = lyapunov_residual(traj, j, regime=regime, eta=eta,
                                    budget=budget, lp=lp)
            worst = float(np.max(res.ratio)) if res.ratio.size else 0.0
            verdicts.append(
                Verdict.from_bound(
                    f"lyapunov-{regime}-j{j}", worst, budget,
                    coercivity_margin=res.coercivity_margin,
                    n_dropped=res.n_dropped,
                    worst_dissipation_ratio=float(np.max(res.dissipation_ratio))
                    if res.dissipation_ratio.size else 0.0,
                )
            )
            curves[f"energy_{regime}_j{j}"] = (
                res.times, res.energy, {"regime": regime, "shell": j, "eta": eta})
    return verdicts, curves, []


def _run_damped_mode(cfg: RunConfig) -> RunnerResult:
    from .decay import damped_mode_check

    opts = cfg.options
    sigma1 = float(opts["sigma1"])
    window = (float(opts["t_start"]), float(opts["t_end"]))
    if opts["source"] == "linear":
        from .linear import saturating_profile, semigroup_besov_decay

        times = np.concatenate([[0.0], np.geomspace(min(1.0, window[0]),
                                                    window[1] * 1.0000001, 160)])
        profile = saturating_profile(sigma1, int(opts["dim"]),
                                     scale=float(opts["amplitude"]))
        run = semigroup_besov_decay(profile, int(opts["dim"]), sigma1, times)
    else:
        from .solver import SolverConfig, integrate

        grid, lp, spec, state0 = _box_pieces(cfg)
        sc = SolverConfig(t_end=window[1], sample_stride=int(opts["sample_stride"]),
                          snapshot_stride=int(opts["snapshot_stride"]), epsilon0=None)
        run = integrate(grid, state0, sc, lp=lp)
        box = grid.length
        if window[1] > box / 2.0:
            window = (window[0], box / 2.0)
    rep = damped_mode_check(run, sigma1, sigma=float(opts["sigma"]),
                            window=window, tolerance=float(opts["tolerance"]))
    verdicts = [
        Verdict.from_bound("u-neg-sup-exponent", rep.neg_fit.exponent,
                           -0.5 + float(opts["tolerance"]), ci=rep.neg_fit.ci),
        Verdict.from_comparison("u-enhanced-exponent", rep.sigma_predicted,
                                rep.sigma_fit.exponent, float(opts["tolerance"]),
                                ci=rep.sigma_fit.ci, sigma=rep.sigma),
        Verdict.from_bound("duhamel-convolution-constant",
                           rep.convolution_constant, 3.0),
    ]
    if rep.duhamel_rel_error is not None:
        verdicts.append(Verdict.from_bound("duhamel-reconstruction",
                                           rep.duhamel_rel_error, rep.duhamel_rtol))
    notes = [rep.note] if rep.out_of_theorem else []
    curves = {
        _slug(name): (t, v, {"sigma1": sigma1})
        for name, (t, v) in rep.curves.items()
    }
    return verdicts, curves, notes


RUNNERS = {
    "lp-inspect": _run_lp_inspect,
    "validate": _run_validate,
    "linear-decay": _run_linear_decay,
    "simulate": _run_simulate,
    "decay-fit": _run_decay_fit,
    "lyapunov": _run_lyapunov,
    "damped-mode": _run_damped_mode,
}


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------
def run(cfg: RunConfig, strict: bool = False) -> RunRecord:
    """Execute one experiment and persist its reports.

    Writes ``verdicts.jsonl`` (schema-validated, deterministic),
    ``curves/*.csv``, a human-readable ``summary.txt`` and
    ``run_record.json`` (timestamps live only there).
    """
    started = _now()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    verdicts, curves, notes = RUNNERS[cfg.kind](cfg)
    if strict:
        for i, note in enumerate([n for n in notes if n]):
            verdicts.append(Verdict(f"strict-warning-{i}", 0.0, 1.0, 0.0, False,
                                    {"note": note}))

    artifacts: list[str] = []
    vpath = write_verdicts(out / "verdicts.jsonl", verdicts)
    validate_verdict_file(vpath)
    artifacts.append(str(vpath))
    for name, (times, values, meta) in curves.items():
        meta = {"config": cfg.digest, "kind": cfg.kind} | dict(meta)
        artifacts.append(str(write_curve(out / "curves" / f"{name}.csv",
                                         times, values, meta)))

    n_pass = sum(v.passed for v in verdicts)
    n_fail = len(verdicts) - n_pass
    lines = [f"{cfg.kind} run {cfg.digest}: {n_pass} passed, {n_fail} failed"]
    lines += [_format_verdict(v) for v in verdicts]
    lines += [f"note: {n}" for n in notes if n]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    artifacts.append(str(out / "summary.txt"))

    record = RunRecord(kind=cfg.kind, config_hash=cfg.digest, started_at=started,
                       finished_at=_now(), artifacts=artifacts,
                       n_pass=n_pass, n_fail=n_fail, notes=[n for n in notes if n])
    record.write(out / "run_record.json")
    return record


def _format_verdict(v: Verdict) -> str:
    mark = "PASS" if v.passed else "FAIL"
    if v.tolerance > 0:
        return (f"[{mark}] {v.name}: measured {v.measured:+.6g} vs "
                f"predicted {v.predicted:+.6g} (tol {v.tolerance:g})")
    direction = "<=" if v.extras.get("direction") != "floor" else ">="
    return f"[{mark}] {v.name}: measured {v.measured:.6g} {direction} {v.predicted:.6g}"


def _resolve_out(flag_value, cfg_default: str = "runs") -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_OUT_DIR)
    return Path(env) if env else Path(cfg_default)


def _parse_set_flags(pairs: list[str] | None) -> dict:
    from .config import _parse_scalar

    overrides: dict = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = _parse_scalar(value)
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerfourier",
        description="Numerical laboratory for decay rates of the damped "
                    "compressible Euler-Fourier system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None,
                       help="key = value configuration file")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--out", type=Path, default=None,
                       help=f"output directory (default: ${ENV_OUT_DIR} or ./runs)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                       help="override one config option (repeatable)")
        p.add_argument("--strict", action="store_true",
                       help="treat warnings (e.g. out-of-theorem labels) as failures")

    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        common(p)

    p = sub.add_parser("sweep", help="run several config files concurrently")
    p.add_argument("configs", nargs="+", type=Path, help="config files, one per run")
    p.add_argument("--jobs", type=int, default=1, help="worker threads")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--strict", action="store_true")
    return parser


def _guarded_run(out_dir: Path, strict: bool, label: str, **parse_kw) -> tuple:
    """Parse and run one configuration; a failure leaves ``error.json``.

    Returns ``(record, kind, config_hash)``; ``record`` is None when the
    configuration did not parse (``label`` stands in for the kind) or the
    run raised.
    """
    try:
        cfg = parse_config(out_dir=out_dir, **parse_kw)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        write_error_record(out_dir / "error.json", label, "unparsed", exc)
        return None, label, "unparsed"
    try:
        return run(cfg, strict=strict), cfg.kind, cfg.digest
    except Exception as exc:  # noqa: BLE001 - module errors become error records
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        write_error_record(cfg.out_dir / "error.json", cfg.kind, cfg.digest, exc)
        return None, cfg.kind, cfg.digest


def _run_sweep(args) -> int:
    """Run every config in its own directory, isolated from the others.

    A config that fails to parse or raises gets its ``error.json`` and a
    failed ``sweep_summary.jsonl`` row with measured = inf.  Exit code 2
    if any config errored, else 1 if any verdict failed, else 0.
    """
    out_root = _resolve_out(args.out)
    out_root.mkdir(parents=True, exist_ok=True)

    def work(path: Path) -> tuple:
        return _guarded_run(out_root / path.stem, args.strict, "unparsed", path=path)

    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        results = list(pool.map(work, args.configs))

    summary = [
        Verdict.from_bound(f"sweep:{path.stem}",
                           float("inf") if rec is None else rec.n_fail, 0.0,
                           kind=kind, config_hash=digest)
        for path, (rec, kind, digest) in zip(args.configs, results)
    ]
    write_verdicts(out_root / "sweep_summary.jsonl", summary)
    for line in (_format_verdict(v) for v in summary):
        print(line)
    if any(rec is None for rec, _, _ in results):
        return 2
    return 0 if all(v.passed for v in summary) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "sweep":
        return _run_sweep(args)

    out_dir = _resolve_out(args.out)
    record, _, _ = _guarded_run(out_dir, args.strict, args.command, kind=args.command,
                                path=args.config, overrides=_parse_set_flags(args.set),
                                seed=args.seed)
    if record is None:
        return 2
    print((out_dir / "summary.txt").read_text(), end="")
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
