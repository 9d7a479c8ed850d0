"""Acceptance battery: one test per numbered criterion, one verdict line each.

Every test prints a single ``[PASS]``/``[FAIL]`` line with the measured
numbers (visible with ``pytest -s``, or in the captured output on failure)
and then asserts, so ``pytest -v tests/test_acceptance.py`` reads as a
checklist.  Budget for the whole file is a couple of minutes; the rate
matrix in criterion 2 dominates.
"""

import json
from pathlib import Path

import numpy as np

from eulerfourier import cli
from eulerfourier.decay import (
    InitialDataSpec,
    RateTarget,
    damped_mode_check,
    generate_initial_data,
    run_decay_experiment,
    semigroup_besov_decay,
    time_weighted_functionals,
)
from eulerfourier.grid import PeriodicGrid, StateFields
from eulerfourier.inequalities import (
    RING_INNER,
    RING_OUTER,
    check_bernstein,
    check_commutator,
    check_interpolation,
    check_product,
)
from eulerfourier.linear import mode_propagator, saturating_profile
from eulerfourier.littlewood import LittlewoodPaley, build_cutoffs
from eulerfourier.lyapunov import coercivity_margin, shell_functionals
from eulerfourier.randfields import random_field
from eulerfourier.solver import SolverConfig, integrate

GRID = PeriodicGrid(dim=1, npts=256, length=16 * np.pi)
LP = LittlewoodPaley(GRID)

FIT_WINDOW = (1e2, 1e4)
LONG_TIMES = np.concatenate([[0.0], np.geomspace(1.0, 1e4 * 1.0000001, 160)])


def _report(num: int, detail: str, passed: bool) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. classical three-dimensional rates at sigma = 0


def test_criterion_1_classical_rates():
    spec = InitialDataSpec(sigma1=1.5, dim=3, amplitude=1.0)
    report = run_decay_experiment(
        spec,
        [RateTarget(0.0, "state", tolerance=0.05),
         RateTarget(0.0, "u", tolerance=0.10)],
        "linear-quadrature",
        window=FIT_WINDOW,
    )
    rates = report.verdicts[:-1]  # the last one is the neg-norm-ratio bound
    bits = ", ".join(
        f"{v.extras['component']}: fitted {v.measured:+.4f} vs {v.predicted:+.4f} "
        f"(tol {v.tolerance})"
        for v in rates
    )
    _report(1, bits, all(v.passed for v in rates))


# ---------------------------------------------------------------------------
# 2. rate matrix over (d, sigma1, sigma)

# one row per (dim, sigma1) run; sigma grid chosen inside the admissible
# ranges (-sigma1, d/2] for the state and (-sigma1, d/2 - 1] for u
RATE_MATRIX = [
    (1, 0.5, [("state", 0.0), ("state", 0.5)]),
    (1, -0.25, [("state", 0.375), ("state", 0.5)]),
    (2, 1.0, [("state", 0.0), ("state", 1.0), ("u", 0.0), ("u", -0.5)]),
    (2, 0.5, [("state", 0.0), ("state", 1.0), ("u", 0.0), ("u", -0.25)]),
    (3, 1.5, [("state", 0.0), ("state", 1.5), ("u", 0.0), ("u", 0.5)]),
    (3, 1.0, [("state", 0.0), ("state", 1.5), ("u", 0.0), ("u", 0.5)]),
]


def test_criterion_2_rate_matrix():
    n_verdicts = 0
    worst = 0.0
    worst_neg = 0.0
    all_passed = True
    for dim, sigma1, cells in RATE_MATRIX:
        targets = [
            RateTarget(sigma, comp, tolerance=0.05 if comp == "state" else 0.10)
            for comp, sigma in cells
        ]
        report = run_decay_experiment(
            InitialDataSpec(sigma1=sigma1, dim=dim, amplitude=1.0),
            targets,
            "linear-quadrature",
            window=FIT_WINDOW,
        )
        *rates, neg = report.verdicts
        assert neg.name == "neg-norm-ratio"
        for v in rates:
            n_verdicts += 1
            worst = max(worst, abs(v.measured - v.predicted))
        worst_neg = max(worst_neg, neg.measured)
        all_passed = all_passed and all(v.passed for v in report.verdicts)
    _report(
        2,
        f"{n_verdicts} verdicts over {len(RATE_MATRIX)} (d, sigma1) runs, "
        f"worst |fitted - predicted| = {worst:.4f}, worst neg-norm ratio "
        f"{worst_neg:.3f} (need <= 4)",
        all_passed and n_verdicts == 20,
    )


# ---------------------------------------------------------------------------
# 3. velocity enhancement at the borderline index


def test_criterion_3_velocity_enhancement():
    profile = saturating_profile(1.0, 2)
    curve = semigroup_besov_decay(profile, 2, LONG_TIMES, nodes_per_octave=32)
    rep = damped_mode_check(curve, 1.0, window=FIT_WINDOW)
    neg = {v.name: v for v in rep.verdicts}["u-neg-sup-exponent"]
    u_exp, neg_passed = neg.measured, neg.passed

    state_sup = curve.series.besov(-1.0, np.inf)
    times = curve.series.times
    mask = (times >= FIT_WINDOW[0]) & (times <= FIT_WINDOW[1])
    ratio = float(state_sup[mask].max() / state_sup[mask].min())

    _report(
        3,
        f"u sup-norm exponent {u_exp:+.4f} (need <= -0.45), "
        f"state sup-norm max/min = {ratio:.4f} (need <= 4)",
        neg_passed and u_exp <= -0.45 and ratio <= 4.0,
    )


# ---------------------------------------------------------------------------
# 4. partition of unity, telescoping, shell disjointness


def test_criterion_4_partition_identities():
    cutoffs = build_cutoffs()
    radii = np.geomspace(1e-3, 1e3, 10000)
    total = np.zeros_like(radii)
    for j in range(-14, 15):
        total += cutoffs.phi(radii * 2.0 ** (-j))
    partition_err = float(np.max(np.abs(total - 1.0)))

    rng = np.random.default_rng(404)
    lo, hi = LP.covered_band
    telescope_err = 0.0
    for _ in range(100):
        fhat = GRID.forward(rng.standard_normal(GRID.shape))
        fhat[(GRID.kmag < lo) | (GRID.kmag > hi)] = 0.0
        f = GRID.inverse(fhat)
        recon = np.zeros_like(f)
        for j in LP.shells:
            recon += LP.block(f, j)
        telescope_err = max(telescope_err, float(np.max(np.abs(recon - (f - GRID.mean(f))))))

    mults = {j: LP.shell_multiplier(j) for j in LP.shells}
    overlap = max(
        float(np.max(mults[j] * mults[jp]))
        for j in LP.shells
        for jp in LP.shells
        if abs(j - jp) >= 2
    )

    _report(
        4,
        f"partition residual {partition_err:.2e} (<= 1e-12), "
        f"telescoping {telescope_err:.2e} (<= 1e-10), "
        f"far-shell overlap {overlap:.2e} (<= 1e-12)",
        partition_err <= 1e-12 and telescope_err <= 1e-10 and overlap <= 1e-12,
    )


# ---------------------------------------------------------------------------
# 5. shell-energy equivalences and dissipation coercivity

ETA = 0.1
N_STATES = 1000
SLACK = 1e-12


def _shell_localized_states(j: int, n: int, seed: int, scale: float = 0.25):
    """n random states supported on dyadic shell j, max-norm <= scale.

    scale = 0.25 keeps 1 + a inside [3/4, 5/4], well within the positivity
    window the weighted high-frequency energy assumes.
    """
    rng = np.random.default_rng(seed)
    ring = (0.75 * 2.0 ** j, (8.0 / 3.0) * 2.0 ** j)
    states = []
    for _ in range(n):
        fields = []
        for _c in range(3):
            f = random_field(GRID, rng, band=ring, annulus_shell=j, lp=LP)
            m = float(np.max(np.abs(f)))
            fields.append(f * (scale / m) if m > 0 else f)
        states.append(StateFields(np.stack(fields)))  # a, u_1, theta
    return states


def _stack(states):
    """The states as one ``(d + 2, n, *grid)`` stack."""
    return StateFields(np.stack([st.data for st in states], axis=1))


def _block_sq(st: StateFields, j: int):
    aj = GRID.l2_norm(LP.block(st.a, j)) ** 2
    uj = GRID.l2_norm(LP.block(st.u[0], j)) ** 2
    tj = GRID.l2_norm(LP.block(st.theta, j)) ** 2
    return aj, uj, tj


def test_criterion_5_functional_equivalence():
    # low regime: E1 pinched between (1/2 -+ eta/2) q, D1 >= margin * target
    e1_viol = d1_viol = 0.0
    for j in range(-4, 1):
        margin = coercivity_margin(j, ETA, "low")
        states = _shell_localized_states(j, N_STATES, seed=100 + j)
        for st, e1, d1 in zip(states, *shell_functionals(LP, _stack(states), j, ETA, "low")):
            aj, uj, tj = _block_sq(st, j)
            q = aj + uj + tj
            e1_viol = max(e1_viol,
                          (0.5 - ETA / 2) * q - e1 - SLACK * q,
                          e1 - (0.5 + ETA / 2) * q - SLACK * q)
            target = 4.0 ** j * (aj + tj) + uj
            d1_viol = max(d1_viol, margin * target - d1 - SLACK * target)

    # high regime: two-sided equivalence constants must stay in [1/8, 8]
    r_e2 = []
    r_d2 = []
    for j in range(0, 3):
        states = _shell_localized_states(j, N_STATES, seed=200 + j)
        for st, e2, d2 in zip(states, *shell_functionals(LP, _stack(states), j, ETA, "high")):
            aj, uj, tj = _block_sq(st, j)
            r_e2.append(e2 / (aj + uj + tj))
            r_d2.append(d2 / (aj + uj + 4.0 ** j * tj))
    lo = min(min(r_e2), min(r_d2))
    hi = max(max(r_e2), max(r_d2))

    _report(
        5,
        f"low-regime violations: energy {e1_viol:.2e}, dissipation {d1_viol:.2e} "
        f"(both <= 0 up to 1e-12 slack); high-regime constants in "
        f"[{lo:.4f}, {hi:.4f}] (need within [1/8, 8])",
        e1_viol <= 0.0 and d1_viol <= 0.0 and lo >= 1.0 / 8.0 and hi <= 8.0,
    )


# ---------------------------------------------------------------------------
# 6. inequality harness: Bernstein, interpolation, product, commutator


def test_criterion_6_inequality_budgets():
    eps = 1e-12
    checks = []

    for k in (1, 2):
        upper, lower = check_bernstein(LP, np.random.default_rng(60 + k),
                                       trials=100, k=k, support="annulus")
        lo, hi = lower.measured, upper.measured
        ok = hi <= RING_OUTER ** k + eps and lo >= RING_INNER ** k - eps
        checks.append((f"annulus k={k} ratios [{lo:.3f}, {hi:.3f}]", ok))

    (rep,) = check_bernstein(LP, np.random.default_rng(63), trials=100, k=1, support="ball")
    checks.append((f"ball worst {rep.measured:.3f}/{rep.predicted}", rep.passed))

    (rep,) = check_interpolation(LP, np.random.default_rng(64), trials=100)
    checks.append((f"interpolation worst {rep.measured:.3f}/{rep.predicted}", rep.passed))

    for i, (variant, s1, s2) in enumerate(
        [("algebra", 0.5, None), ("summed", 0.25, 0.25), ("mixed", 0.5, -0.25)]
    ):
        (rep,) = check_product(LP, np.random.default_rng(65 + i),
                               trials=100, s1=s1, s2=s2, variant=variant)
        checks.append((f"product[{variant}] worst {rep.measured:.3f}/{rep.predicted}",
                       rep.passed))

    (rep,) = check_commutator(LP, np.random.default_rng(68), trials=100, s=0.0)
    checks.append((f"commutator worst {rep.measured:.3f}/{rep.predicted}", rep.passed))

    _report(6, "; ".join(d for d, _ in checks), all(ok for _, ok in checks))


# ---------------------------------------------------------------------------
# 7. nonlinear box runs against the exact mode-wise linear flow

BOX_GRID = PeriodicGrid(dim=1, npts=512, length=32 * np.pi)
BOX_LP = LittlewoodPaley(BOX_GRID)


def _linear_final(state0: StateFields, t: float):
    """Exact linear evolution, mode by mode, on the box lattice."""
    k = BOX_GRID.wavenumbers[0]
    hats = np.array([
        BOX_GRID.forward(state0.a),
        BOX_GRID.forward(state0.u[0]),
        BOX_GRID.forward(state0.theta),
    ])
    out = np.empty_like(hats)
    for i, ki in enumerate(k):
        out[:, i] = mode_propagator(np.array([ki]), t) @ hats[:, i]
    return tuple(BOX_GRID.inverse(row) for row in out)


def _state_l2_diff(x: StateFields, y: StateFields) -> float:
    return float(np.sqrt(
        BOX_GRID.l2_norm(x.a - y.a) ** 2
        + BOX_GRID.l2_norm(x.u[0] - y.u[0]) ** 2
        + BOX_GRID.l2_norm(x.theta - y.theta) ** 2
    ))


def _box_run(amplitude: float, t_end: float, dt: float):
    spec = InitialDataSpec(sigma1=0.5, dim=1, amplitude=amplitude, seed=42)
    state0 = generate_initial_data(spec, BOX_GRID, BOX_LP)
    cfg = SolverConfig(dt=dt, t_end=t_end, sample_stride=10 ** 9, snapshot_stride=1)
    traj = integrate(BOX_GRID, state0, cfg)
    return state0, traj


def test_criterion_7_nonlinear_box():
    devs = {}
    drift = 0.0
    for amp in (1e-3, 1e-4):
        state0, traj = _box_run(amp, t_end=5.0, dt=2e-3)
        lin_a, lin_u, lin_theta = _linear_final(state0, traj.series.times[-1])
        fin = traj.snapshots[-1]
        devs[amp] = np.sqrt(
            BOX_GRID.l2_norm(fin.a - lin_a) ** 2
            + BOX_GRID.l2_norm(fin.u[0] - lin_u) ** 2
            + BOX_GRID.l2_norm(fin.theta - lin_theta) ** 2
        )
        drift = max(drift, abs(BOX_GRID.mean(fin.a) - BOX_GRID.mean(state0.a)))
    ratio = float(devs[1e-3] / devs[1e-4])

    # step halving: second-order stepper should shrink the defect 4x
    finals = [
        _box_run(1e-2, t_end=0.5, dt=dt)[1].snapshots[-1]
        for dt in (2e-3, 1e-3, 5e-4)
    ]
    richardson = _state_l2_diff(finals[0], finals[1]) / _state_l2_diff(finals[1], finals[2])

    _report(
        7,
        f"deviation ratio {ratio:.2f} (need in [50, 200]), "
        f"mass drift {drift:.1e} (<= 1e-10), "
        f"step-halving ratio {richardson:.3f} (need in [3.5, 4.5])",
        50.0 <= ratio <= 200.0 and drift <= 1e-10 and 3.5 <= richardson <= 4.5,
    )


# ---------------------------------------------------------------------------
# 8. time-weighted energy growth


def test_criterion_8_time_weighted_growth():
    profile = saturating_profile(0.5, 1)
    curve = semigroup_besov_decay(profile, 1, LONG_TIMES, nodes_per_octave=32)
    growth, low_bound = time_weighted_functionals(curve, 2.0, 0.5, fit_window=FIT_WINDOW).verdicts
    _report(
        8,
        f"weighted-norm growth {growth.measured:.4f} vs predicted {growth.predicted} "
        f"(tol {growth.tolerance:g}, window {growth.extras['window_decades']:.2f} decades), "
        f"low-norm bound ratio {low_bound.measured:.4f} (<= {low_bound.predicted:g})",
        growth.passed and low_bound.passed,
    )


# ---------------------------------------------------------------------------
# 9. bit-for-bit reproducibility of verdict artifacts


def _run_cli_twice(args, tmp_path: Path, stem: str):
    outs = []
    for i in (1, 2):
        out = tmp_path / f"{stem}{i}"
        rc = cli.main(args + ["--out", str(out)])
        assert rc == 0, f"{stem} run {i} exited {rc}"
        outs.append(out)
    return outs


def test_criterion_9_reproducible_verdicts(tmp_path):
    identical = []
    for stem, args in [
        ("lp", ["lp-inspect", "--seed", "0"]),
        ("val", ["validate", "--seed", "0", "--set", "trials=25"]),
    ]:
        first, second = _run_cli_twice(args, tmp_path, stem)
        files = sorted(p.relative_to(first) for p in first.rglob("*")
                       if p.is_file() and p.name != "run_record.json")
        assert files, f"{stem}: no artifacts produced"
        same = all(
            (first / rel).read_bytes() == (second / rel).read_bytes() for rel in files
        )
        n_lines = len((first / "verdicts.jsonl").read_text().splitlines())
        # verdict files must parse and carry no volatile fields
        for line in (first / "verdicts.jsonl").read_text().splitlines():
            row = json.loads(line)
            assert row["schema"] == "verdict-v1"
        identical.append((stem, same, len(files), n_lines))

    detail = ", ".join(
        f"{stem}: {n_files} artifacts / {n_v} verdicts byte-identical={same}"
        for stem, same, n_files, n_v in identical
    )
    _report(9, detail, all(same for _, same, _, _ in identical))
