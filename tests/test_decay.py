"""Decay-rate machinery: fits, data generation, Duhamel, weighted norms."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerfourier.decay import (
    InitialDataSpec,
    RateTarget,
    convolution_bound_constant,
    damped_mode_check,
    duhamel_reconstruction,
    fit_rate,
    generate_initial_data,
    run_decay_experiment,
    time_weighted_functionals,
    velocity_enhancement_in_range,
)
from eulerfourier.grid import PeriodicGrid
from eulerfourier.linear import saturating_profile, semigroup_besov_decay
from eulerfourier.littlewood import LittlewoodPaley, ShellSeries
from eulerfourier.solver import SolverConfig, integrate


def _linear_curve(sigma1, dim, t_end, n_times=120, nodes=24, band=(1e-4, 1.0)):
    """Saturating-profile semigroup curve, the small-scale workhorse here."""
    times = np.concatenate([[0.0], np.geomspace(1.0, t_end * 1.0000001, n_times)])
    prof = saturating_profile(sigma1, dim, band=band)
    return semigroup_besov_decay(prof, dim, times, nodes_per_octave=nodes)


# ----------------------------------------------------------------------
# rate fitting


def test_fit_rate_recovers_exact_power_law():
    t = np.geomspace(1.0, 1e4, 200)
    fit = fit_rate(t, (1.0 + t) ** -0.75)
    assert abs(fit.exponent + 0.75) < 1e-10
    assert fit.ci < 1e-9
    assert fit.n_samples == 200


def test_fit_rate_on_constant_series():
    t = np.geomspace(1.0, 100.0, 50)
    fit = fit_rate(t, np.ones_like(t))
    assert abs(fit.exponent) < 1e-12


def test_fit_rate_sees_through_modulation():
    t = np.geomspace(10.0, 1e4, 300)
    vals = (1.0 + t) ** -0.75 * (1.0 + 0.05 * np.sin(np.log(t)))
    fit = fit_rate(t, vals)
    assert abs(fit.exponent + 0.75) < 0.05
    assert fit.ci > 0.0


def test_fit_rate_windowing_and_errors():
    t = np.geomspace(1.0, 1e4, 100)
    vals = (1.0 + t) ** -1.0
    fit = fit_rate(t, vals, window=(50.0, 5000.0))
    assert fit.window[0] >= 50.0 and fit.window[1] <= 5000.0
    assert fit.n_samples < 100

    with pytest.raises(ValueError, match="samples"):
        fit_rate(t, vals, window=(1e5, 1e6))
    with pytest.raises(ValueError, match="positive"):
        fit_rate(t, np.zeros_like(t))


@settings(max_examples=15, deadline=None)
@given(p=st.floats(min_value=0.1, max_value=3.0))
def test_fit_rate_is_exact_for_any_exponent(p):
    t = np.geomspace(1.0, 1e3, 80)
    fit = fit_rate(t, (1.0 + t) ** -p)
    assert np.isclose(fit.exponent, -p, atol=1e-9), f"p={p}: got {fit.exponent}"


# ----------------------------------------------------------------------
# initial data


def test_initial_data_spec_validation():
    with pytest.raises(ValueError, match="dim"):
        InitialDataSpec(sigma1=0.5, dim=4)
    with pytest.raises(ValueError, match="sigma1"):
        InitialDataSpec(sigma1=2.0, dim=1)  # above d/2
    with pytest.raises(ValueError, match="sigma1"):
        InitialDataSpec(sigma1=-0.5, dim=1)  # at/below -d/2
    with pytest.raises(ValueError, match="amplitude"):
        InitialDataSpec(sigma1=0.5, dim=1, amplitude=-1.0)
    with pytest.raises(ValueError, match="band"):
        InitialDataSpec(sigma1=0.5, dim=1, band=(1.0, 0.5))


def test_velocity_enhancement_predicate():
    assert not velocity_enhancement_in_range(1, 0.5)
    assert velocity_enhancement_in_range(2, 1.0)
    assert not velocity_enhancement_in_range(2, -0.4)


def test_generated_data_is_normalized_and_uniform():
    grid = PeriodicGrid(dim=1, npts=1024, length=64.0 * np.pi)
    lp = LittlewoodPaley(grid)
    spec = InitialDataSpec(sigma1=0.5, dim=1, amplitude=1e-3, seed=3)
    state = generate_initial_data(spec, grid, lp)

    series = ShellSeries.of_hats(lp, grid.forward(state.data, band=True))
    assert np.isclose(series.delta0(spec.sigma1), 1e-3, rtol=1e-10)
    comp = dict(zip(series.shells, series.composite()[:, 0]))

    # weighted low shells sit within a factor two of each other
    weighted = [
        2.0 ** (-j * spec.sigma1) * comp[j]
        for j in lp.shells
        if j <= 0 and comp[j] > 0 and 0.75 * 2.0**j >= 2.0 * np.pi / grid.length
    ]
    assert max(weighted) / min(weighted) <= 2.0

    assert abs(grid.mean(state.a)) < 1e-15


def test_generated_data_holds_one_state_at_a_time():
    # at 32**3 (>= ROW_POINTS) the state is scaled in place and its shell norms
    # read its band transform, made one field at a time: the traced peak reads
    # 2.99 physical states (3.08 when the norms read the full layout, one
    # field at a time, and 4.08 when they transformed the whole state at once
    # and the scaling made a second state)
    grid = PeriodicGrid(dim=3, npts=32, length=8.0 * np.pi)
    lp = LittlewoodPaley(grid)
    spec = InitialDataSpec(sigma1=0.5, dim=3, amplitude=1e-2, seed=0)
    state_nbytes = 8 * (grid.dim + 2) * grid.npts**grid.dim
    np.random.default_rng(0)  # numpy imports numpy.random on first use: not while traced
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        state = generate_initial_data(spec, grid, lp)
        peak = (tracemalloc.get_traced_memory()[1] - base) / state_nbytes
    finally:
        tracemalloc.stop()
    assert peak <= 3.3, f"{peak:.2f} physical states"
    series = ShellSeries.of_hats(lp, grid.forward(state.data, band=True))
    assert np.isclose(series.delta0(spec.sigma1), 1e-2, rtol=1e-10)


def test_generated_data_zero_amplitude_and_bad_band():
    grid = PeriodicGrid(dim=1, npts=256, length=16.0 * np.pi)
    zero = generate_initial_data(InitialDataSpec(sigma1=0.5, dim=1, amplitude=0.0), grid)
    assert np.max(np.abs(zero.data)) == 0.0

    with pytest.raises(ValueError, match="band"):
        generate_initial_data(
            InitialDataSpec(sigma1=0.5, dim=1, band=(1e-3, 1e3)), grid
        )  # top of band beyond the dealiased lattice


def test_rate_target_validation_and_prediction():
    t = RateTarget(sigma=0.0)
    assert t.predicted_exponent(1.5) == -0.75
    t.validate(3, 1.5)

    tu = RateTarget(sigma=0.0, component="u")
    assert tu.predicted_exponent(1.5) == -1.25
    tu.validate(3, 1.5)
    with pytest.raises(ValueError, match=r"d >= 2"):
        tu.validate(1, 0.5)
    with pytest.raises(ValueError, match="sigma"):
        RateTarget(sigma=-0.5).validate(1, 0.5)  # sigma = -sigma1 is excluded
    with pytest.raises(ValueError, match="sigma"):
        RateTarget(sigma=1.0).validate(1, 0.5)  # above d/2


# ----------------------------------------------------------------------
# linear-quadrature experiments (small, fast versions)


def test_linear_decay_small_case():
    spec = InitialDataSpec(sigma1=0.5, dim=1, amplitude=1.0)
    report = run_decay_experiment(
        spec,
        [RateTarget(sigma=0.5, tolerance=0.05)],
        window=(1e2, 1e4),
        nodes_per_octave=32,
    )
    assert all(v.passed for v in report.verdicts), [v.__dict__ for v in report.verdicts]
    v, neg = report.verdicts
    assert np.isclose(v.predicted, -0.5, atol=1e-12)
    assert abs(v.measured - v.predicted) < 0.05
    assert neg.extras["delta0"] > 0.0
    assert neg.name == "neg-norm-ratio" and neg.measured < 4.0
    assert "neg_sup" in report.curves
    assert report.curves["neg_sup"][2] == {"window": [1e2, 1e4], "mode": "linear-quadrature"}


def test_linear_decay_exponent_is_amplitude_invariant():
    # The semigroup is linear: rescaling the data cannot move the exponent.
    kw = dict(window=(1e1, 1e3), nodes_per_octave=24)
    fits = []
    for amp in (1.0, 7.3):
        spec = InitialDataSpec(sigma1=0.5, dim=1, amplitude=amp)
        report = run_decay_experiment(spec, [RateTarget(sigma=0.5)], **kw)
        fits.append(report.verdicts[0].measured)
    assert abs(fits[0] - fits[1]) < 1e-9


def test_linear_decay_exponent_stable_under_node_doubling():
    spec = InitialDataSpec(sigma1=0.5, dim=1, amplitude=1.0)
    kw = dict(window=(1e1, 1e3))
    coarse = run_decay_experiment(spec, [RateTarget(sigma=0.5)], nodes_per_octave=24, **kw)
    fine = run_decay_experiment(spec, [RateTarget(sigma=0.5)], nodes_per_octave=48, **kw)
    assert abs(coarse.verdicts[0].measured - fine.verdicts[0].measured) < 0.01


def test_box_experiment_rejects_window_beyond_horizon():
    grid = PeriodicGrid(dim=1, npts=256, length=16.0 * np.pi)
    spec = InitialDataSpec(sigma1=0.5, dim=1, amplitude=1e-3)
    traj = integrate(grid, generate_initial_data(spec, grid), SolverConfig(t_end=0.5))
    with pytest.raises(ValueError, match="horizon"):
        run_decay_experiment(
            spec, [RateTarget(sigma=0.5)], mode="nonlinear-box",
            window=(1.0, 100.0), trajectory=traj,
        )
    with pytest.raises(ValueError, match="trajectory"):
        run_decay_experiment(spec, [RateTarget(sigma=0.5)], mode="nonlinear-box",
                             window=(1.0, 10.0))


# ----------------------------------------------------------------------
# damped-mode diagnostics


def _tiny_trajectory(eps=1e-4, n_steps=20, dt=1e-3):
    grid = PeriodicGrid(dim=2, npts=32, length=2.0 * np.pi)
    xs = grid.coordinates()
    from eulerfourier.grid import StateFields

    state = StateFields.zeros(grid)
    state.u[0] = eps * np.sin(xs[1])  # transverse shear mode
    cfg = SolverConfig(dt=dt, t_end=n_steps * dt, sample_stride=1,
                       snapshot_stride=1, epsilon0=None)
    return integrate(grid, state, cfg)


def test_duhamel_reconstruction_is_exact_for_pure_friction():
    # For data whose nonlinearity vanishes identically the velocity is
    # exactly e^{-t} u0 and the reconstruction error is pure roundoff.
    traj = _tiny_trajectory(eps=1e-12)
    err, h_max = duhamel_reconstruction(traj)
    assert err < 1e-10
    assert np.isclose(h_max, 1e-3)


def _longitudinal_trajectory(eps, n_steps, dt):
    # u parallel to its own gradient: the advection term actually fires
    grid = PeriodicGrid(dim=1, npts=64, length=2.0 * np.pi)
    (x,) = grid.coordinates()
    from eulerfourier.grid import StateFields

    state = StateFields.zeros(grid)
    state.u[0] = eps * np.sin(x)
    cfg = SolverConfig(dt=dt, t_end=n_steps * dt, sample_stride=1,
                       snapshot_stride=1, epsilon0=None)
    return integrate(grid, state, cfg)


def test_duhamel_reconstruction_is_second_order():
    errs = {}
    for dt, n in [(2e-3, 10), (1e-3, 20)]:
        errs[dt] = duhamel_reconstruction(_longitudinal_trajectory(0.05, n, dt))[0]
    ratio = errs[2e-3] / errs[1e-3]
    assert 3.5 < ratio < 4.5, f"Duhamel error ratio {ratio}"


def test_duhamel_needs_enough_snapshots():
    traj = _tiny_trajectory(n_steps=3)
    trimmed = type(traj)(
        grid=traj.grid, config=traj.config, dt=traj.dt, series=traj.series,
        mean_a=traj.mean_a, max_speed=traj.max_speed,
        snapshot_times=traj.snapshot_times[:3], snapshots=traj.snapshots[:3],
    )
    with pytest.raises(ValueError, match="snapshots"):
        duhamel_reconstruction(trimmed)


def test_convolution_bound_constant_is_small():
    c = convolution_bound_constant()
    assert 1.0 < c < 1.2
    assert c <= 3.0


def test_damped_mode_check_on_linear_curve():
    curve = _linear_curve(sigma1=1.0, dim=2, t_end=1e4, nodes=32)
    out = damped_mode_check(curve, 1.0, window=(1e2, 1e4), tolerance=0.10)
    assert out.notes == []  # inside the theorem's range
    verdicts = {v.name: v for v in out.verdicts}
    neg = verdicts["u-neg-sup-exponent"]
    assert neg.passed and neg.measured <= -0.45
    enhanced = verdicts["u-enhanced-exponent"]
    assert enhanced.passed and abs(enhanced.measured - enhanced.predicted) < 0.10
    assert "duhamel-reconstruction" not in verdicts  # no trajectory, nothing to reconstruct
    assert all(v.passed for v in out.verdicts)


def test_damped_mode_check_flags_out_of_theorem_range():
    curve = _linear_curve(sigma1=-0.4, dim=2, t_end=1e3)
    out = damped_mode_check(curve, -0.4, window=(1e1, 1e3))
    (note,) = out.notes
    assert "sigma1" in note


# ----------------------------------------------------------------------
# time-weighted functionals


def test_time_weighted_functional_growth_matches_prediction():
    curve = _linear_curve(sigma1=0.5, dim=1, t_end=1e4)
    report = time_weighted_functionals(curve, m_exp=2.0, sigma1=0.5, fit_window=(1e2, 1e4))
    growth, low_bound = report.verdicts
    assert growth.name == "time-weighted-growth"
    assert np.isclose(growth.predicted, 2.0 - 0.5, atol=1e-12)
    times, x_m, meta = report.curves["x_m"]
    assert growth.measured == fit_rate(times, x_m, (1e2, 1e4)).exponent
    assert meta == {"sigma1": 0.5, "m_exp": 2.0}
    assert abs(growth.measured - growth.predicted) < 0.1
    assert growth.passed
    assert growth.extras["window_decades"] >= 1.0
    assert low_bound.name == "time-weighted-low-bound"
    assert low_bound.passed and low_bound.measured < 4.0
    assert np.all(np.diff(x_m) >= -1e-12)  # running sups/integrals grow


def test_time_weighted_functional_rejects_small_m():
    curve = _linear_curve(sigma1=0.5, dim=1, t_end=1e2, n_times=40)
    with pytest.raises(ValueError, match="admissibility"):
        time_weighted_functionals(curve, m_exp=1.2, sigma1=0.5)
