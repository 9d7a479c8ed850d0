"""Command-line driver: experiment registry, persistence, report emission.

Every subcommand resolves to one experiment runner that builds the
inputs of its checks and returns what they return, one
:class:`~eulerfourier.reporting.Outcome` of verdicts, named curves and
notes.  The module that measures a quantity also decides its pass rule:
all seven runners only collect the verdicts their checks return, and this
module makes none beyond the sweep rows and the ``--strict`` warnings.
It owns directory layout, the ``simulate`` checkpoint, JSONL/CSV
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
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import KINDS, RunConfig, parse_config
from .grid import PeriodicGrid
from .littlewood import FrequencySplit, LittlewoodPaley
from .reporting import (
    Outcome,
    RunRecord,
    Verdict,
    validate_verdict_file,
    write_curve,
    write_error_record,
    write_verdicts,
)

ENV_OUT_DIR = "EULERFOURIER_OUT"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------
def _run_lp_inspect(cfg: RunConfig) -> Outcome:
    from .inequalities import check_partition

    opts = cfg.options
    grid = PeriodicGrid(dim=int(opts["dim"]), npts=int(opts["npts"]),
                        length=float(opts["length"]))
    return check_partition(LittlewoodPaley(grid), np.random.default_rng(cfg.seed),
                           radii=int(opts["radii"]), trials=int(opts["trials"]),
                           partition_tol=float(opts["partition_tol"]),
                           telescope_tol=float(opts["telescope_tol"]),
                           disjoint_tol=float(opts["disjoint_tol"]))


def _run_validate(cfg: RunConfig) -> Outcome:
    from . import inequalities as ineq

    opts = cfg.options
    grid = PeriodicGrid(dim=int(opts["dim"]), npts=int(opts["npts"]),
                        length=float(opts["length"]))
    lp = LittlewoodPaley(grid)
    trials = int(opts["trials"])
    budget = float(opts["budget"])

    def rng(offset: int) -> np.random.Generator:
        return np.random.default_rng(cfg.seed + offset)

    held = [lp.shell_multiplier(j) for j in lp.shells]  # laid out once for every check
    verdicts = ineq.check_bernstein(lp, rng(0), trials=trials, k=1, support="ball")
    for k in (1, 2):
        verdicts += ineq.check_bernstein(lp, rng(k), trials=trials, k=k, support="annulus")
    verdicts += ineq.check_interpolation(lp, rng(10), trials=trials, budget=budget)
    for i, variant in enumerate(ineq.PRODUCT_VARIANTS):
        verdicts += ineq.check_product(lp, rng(20 + i), trials=trials, variant=variant,
                                       budget=budget)
    verdicts += ineq.check_commutator(lp, rng(30), trials=trials, budget=budget)
    return Outcome(verdicts)


def _decay_targets(cfg: RunConfig):
    from .decay import RateTarget

    opts = cfg.options
    targets = [RateTarget(sigma=float(opts["sigma"]), component="state",
                          tolerance=float(opts["tolerance_state"]))]
    if opts.get("with_u"):
        targets.append(RateTarget(sigma=float(opts["sigma_u"]), component="u",
                                  tolerance=float(opts["tolerance_u"])))
    return targets


def _run_linear_decay(cfg: RunConfig) -> Outcome:
    from .decay import InitialDataSpec, run_decay_experiment

    opts = cfg.options
    spec = InitialDataSpec(sigma1=float(opts["sigma1"]), dim=int(opts["dim"]),
                           amplitude=float(opts["amplitude"]), seed=cfg.seed)
    return run_decay_experiment(
        spec, _decay_targets(cfg), "linear-quadrature",
        window=(float(opts["t_start"]), float(opts["t_end"])),
        nodes_per_octave=int(opts["nodes_per_octave"]),
        neg_ratio_bound=float(opts["neg_ratio_bound"]),
    )


def _box_pieces(cfg: RunConfig):
    from .decay import InitialDataSpec, generate_initial_data

    opts = cfg.options
    grid = PeriodicGrid(dim=int(opts["dim"]), npts=int(opts["npts"]),
                        length=float(opts["length"]))
    lp = LittlewoodPaley(grid)
    spec = InitialDataSpec(sigma1=float(opts["sigma1"]), dim=int(opts["dim"]),
                           amplitude=float(opts["amplitude"]), seed=cfg.seed)
    return grid, lp, spec, lambda: generate_initial_data(spec, grid, lp=lp)


def _run_simulate(cfg: RunConfig) -> Outcome:
    from .solver import SolverConfig, check_trajectory, integrate, save_checkpoint

    opts = cfg.options
    grid, lp, spec, initial = _box_pieces(cfg)
    sc = SolverConfig(
        dt=float(opts["dt"]) or None,
        t_end=float(opts["t_end"]),
        sample_stride=int(opts["sample_stride"]),
        # stride 0 keeps the final state only
        snapshot_stride=int(opts["snapshot_stride"]) or None,
    )
    traj = integrate(grid, initial(), sc, lp=lp)
    outcome = check_trajectory(traj, float(opts["mass_tol"]))
    if not opts.get("checkpoint", True):
        return outcome
    path = cfg.out_dir / "final_state"
    save_checkpoint(path, grid, traj.snapshots[-1], float(traj.series.times[-1]),
                    meta={"kind": cfg.kind, "config": cfg.digest})
    return replace(outcome, notes=[f"checkpoint written: {path}.npz (+ .txt sidecar)"])


def _run_decay_fit(cfg: RunConfig) -> Outcome:
    from .decay import RateTarget, run_decay_experiment
    from .solver import SolverConfig, integrate

    opts = cfg.options
    grid, lp, spec, initial = _box_pieces(cfg)
    t_end = float(opts["t_end"]) or grid.length / 2.0
    window = (float(opts["t_start"]), t_end)
    sc = SolverConfig(t_end=t_end, sample_stride=int(opts["sample_stride"]),
                      epsilon0=None)
    traj = integrate(grid, initial(), sc, lp=lp)
    targets = [RateTarget(sigma=float(opts["sigma"]), component="state",
                          tolerance=float(opts["tolerance"]))]
    return run_decay_experiment(spec, targets, "nonlinear-box", trajectory=traj, window=window)


def _run_lyapunov(cfg: RunConfig) -> Outcome:
    from .lyapunov import lyapunov_residual
    from .solver import SolverConfig, integrate

    opts = cfg.options
    grid, lp, spec, initial = _box_pieces(cfg)
    j_lo, j_hi = int(opts["j_lo"]), int(opts["j_hi"])
    shells = [j for j in range(j_lo, j_hi + 1) if j in lp.shells]
    if not shells:
        raise ValueError(f"no shell in [j_lo, j_hi] = [{j_lo}, {j_hi}] is resolved; "
                         f"this grid resolves shells {lp.j_min} to {lp.j_max}")
    sc = SolverConfig(dt=float(opts["dt"]) or None, t_end=float(opts["t_end"]),
                      sample_stride=1, snapshot_stride=1, epsilon0=None)
    traj = integrate(grid, initial(), sc, lp=lp)
    eta = float(opts["eta"])
    # each functional is coercive only on its own side of the split
    pairs = [(regime, j) for regime in ("low", "high")
             for j in FrequencySplit().select(shells, regime)]
    results = lyapunov_residual(traj, pairs, eta=eta, budget=float(opts["budget"]), lp=lp)
    curves = {f"energy_{r.regime}_j{r.j}":
              (r.times, r.energy, {"regime": r.regime, "shell": r.j, "eta": eta}) for r in results}
    return Outcome([r.verdict for r in results], curves)


def _run_damped_mode(cfg: RunConfig) -> Outcome:
    from .decay import _default_linear_times, damped_mode_check

    opts = cfg.options
    sigma1 = float(opts["sigma1"])
    window = (float(opts["t_start"]), float(opts["t_end"]))
    if opts["source"] == "linear":
        from .linear import saturating_profile, semigroup_besov_decay

        profile = saturating_profile(sigma1, int(opts["dim"]),
                                     scale=float(opts["amplitude"]))
        run = semigroup_besov_decay(profile, int(opts["dim"]), _default_linear_times(window))
    else:
        from .solver import SolverConfig, integrate

        grid, lp, spec, initial = _box_pieces(cfg)
        # the fit window ends at L/2; integrating past it is wasted work
        window = (window[0], min(window[1], grid.length / 2.0))
        sc = SolverConfig(t_end=window[1], sample_stride=int(opts["sample_stride"]),
                          snapshot_stride=int(opts["snapshot_stride"]), epsilon0=None)
        run = integrate(grid, initial(), sc, lp=lp)
    return damped_mode_check(run, sigma1, sigma=float(opts["sigma"]),
                             window=window, tolerance=float(opts["tolerance"]))


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
    _clear_artifacts(out)
    outcome = RUNNERS[cfg.kind](cfg)
    verdicts, notes = list(outcome.verdicts), list(outcome.notes)
    if strict:
        for i, note in enumerate(notes):
            verdicts.append(Verdict(f"strict-warning-{i}", 0.0, 1.0, 0.0, False,
                                    {"note": note}))

    artifacts: list[str] = []
    vpath = write_verdicts(out / "verdicts.jsonl", verdicts)
    validate_verdict_file(vpath)
    artifacts.append(str(vpath))
    for name, (times, values, meta) in outcome.curves.items():
        meta = {"config": cfg.digest, "kind": cfg.kind} | dict(meta)
        artifacts.append(str(write_curve(out / "curves" / f"{name}.csv",
                                         times, values, meta)))

    n_pass = sum(v.passed for v in verdicts)
    n_fail = len(verdicts) - n_pass
    lines = [f"{cfg.kind} run {cfg.digest}: {n_pass} passed, {n_fail} failed"]
    lines += [_format_verdict(v) for v in verdicts]
    lines += [f"note: {n}" for n in notes]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    artifacts.append(str(out / "summary.txt"))

    record = RunRecord(kind=cfg.kind, config_hash=cfg.digest, started_at=started,
                       finished_at=_now(), artifacts=artifacts,
                       n_pass=n_pass, n_fail=n_fail, notes=notes)
    record.write(out / "run_record.json")
    return record


def _clear_artifacts(out: Path) -> None:
    """Remove what an earlier run wrote into ``out`` (its error record, verdicts,
    summary, run record and curves), so no stale file sits beside this run's."""
    names = ("error.json", "verdicts.jsonl", "summary.txt", "run_record.json")
    for path in [out / name for name in names] + sorted(out.glob("curves/*.csv")):
        path.unlink(missing_ok=True)


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
            raise ValueError(f"--set expects key=value, got {pair!r}")
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
        p.add_argument("--seed", default=None, help="master RNG seed, a non-negative integer")
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


def _record_error(out_dir: Path, kind: str, digest: str, exc: BaseException) -> None:
    """Leave ``error.json`` as the one run artifact in ``out_dir``, or say on stderr
    that it could not be written."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _clear_artifacts(out_dir)
        write_error_record(out_dir / "error.json", kind, digest, exc)
    except OSError as why:
        print(f"no error.json could be written in {out_dir}: {why}", file=sys.stderr)


def _guarded_run(out_dir: Path, strict: bool, label: str, parse) -> tuple:
    """Parse (``parse()`` returns the :class:`RunConfig`) and run one configuration;
    a failure leaves ``error.json``.

    Returns ``(record, kind, config_hash)``; ``record`` is None when the
    configuration did not parse (``label`` stands in for the kind) or the
    run raised.
    """
    try:
        cfg = parse()
    except (ValueError, OSError, ImportError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        _record_error(out_dir, label, "unparsed", exc)
        return None, label, "unparsed"
    try:
        return run(cfg, strict=strict), cfg.kind, cfg.digest
    except Exception as exc:  # noqa: BLE001 - module errors become error records
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        _record_error(cfg.out_dir, cfg.kind, cfg.digest, exc)
        return None, cfg.kind, cfg.digest


def _run_sweep(args) -> int:
    """Run every config in its own directory, isolated from the others.

    A config that fails to parse or raises gets its ``error.json`` and a
    failed ``sweep_summary.jsonl`` row with measured = inf.  Exit code 2
    if any config errored, else 1 if any verdict failed, else 0.  Configs
    whose file stems collide would share a directory, so none runs: the
    sweep root gets an ``error.json`` naming both and the exit code is 2.
    """
    out_root = _resolve_out(args.out)
    try:
        out_root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"no error.json could be written in {out_root}: {exc}", file=sys.stderr)
        return 2
    for name in ("error.json", "sweep_summary.jsonl"):  # an earlier sweep's records
        (out_root / name).unlink(missing_ok=True)
    seen: dict[str, Path] = {}
    for path in args.configs:
        if path.stem in seen:
            exc = ValueError(f"configs {seen[path.stem]} and {path} share the stem "
                             f"{path.stem!r}, so both would run in {out_root / path.stem}")
            print(f"configuration error: {exc}", file=sys.stderr)
            _record_error(out_root, "sweep", "unparsed", exc)
            return 2
        seen[path.stem] = path

    def work(path: Path) -> tuple:
        out = out_root / path.stem
        return _guarded_run(out, args.strict, "unparsed",
                            lambda: parse_config(out_dir=out, path=path))

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
    record, _, _ = _guarded_run(out_dir, args.strict, args.command, lambda: parse_config(
        out_dir=out_dir, kind=args.command, path=args.config,
        overrides=_parse_set_flags(args.set), seed=args.seed))
    if record is None:
        return 2
    print((out_dir / "summary.txt").read_text(), end="")
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
