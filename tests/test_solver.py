"""Pseudo-spectral time stepping: accuracy, invariants, and guard rails."""

import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

from eulerfourier.decay import InitialDataSpec, generate_initial_data
from eulerfourier.grid import PeriodicGrid, StateFields
from eulerfourier.linear import expm_stack, mode_propagator, reduced_symbol
from eulerfourier.littlewood import LittlewoodPaley, ShellSeries
from eulerfourier.solver import (
    POSITIVITY_FLOOR,
    NonFinite,
    PositivityViolation,
    SolverConfig,
    Stepper,
    TrajectoryRecord,
    _phi_tables,
    check_trajectory,
    cfl_check,
    integrate,
    linear_rhs,
    load_checkpoint,
    nonlinear_rhs,
    positivity_margin,
    save_checkpoint,
)

GRID = PeriodicGrid(dim=1, npts=128, length=2.0 * np.pi)


def _single_mode_state(grid, eps, k=3.0):
    (x,) = grid.coordinates()
    state = StateFields.zeros(grid)
    state.u[0] = eps * np.sin(k * x)
    return state


def _exact_linear_mode(grid, eps, k, t, velocity):
    """Evolve u0 = eps v sin(k.x) with the exact Fourier-mode propagator of
    the full (d+2) symbol; k is an integer wave vector (the box is 2 pi)."""
    d = grid.dim
    k = np.asarray(k, dtype=float)
    x = grid.coordinates()
    phase = sum(km * xm for km, xm in zip(k, x))
    coeff = np.zeros(d + 2, dtype=complex)
    coeff[1 : d + 1] = eps * np.asarray(velocity) / 2.0j  # sin = (e^i - e^-i)/2i
    fields = np.zeros((d + 2,) + grid.shape)
    for sign in (+1.0, -1.0):
        amp = mode_propagator(sign * k, t) @ (sign * coeff)
        fields += np.real(amp[(slice(None),) + (None,) * d] * np.exp(1j * sign * phase))
    return StateFields(fields)


def _augmented(mats, h):
    """The 9x9 blocks [[hM, I, 0], [0, 0, I], [0, 0, 0]] of _phi_tables."""
    big = np.zeros((len(mats), 9, 9), dtype=complex)
    big[:, :3, :3] = h * mats
    big[:, :3, 3:6] = np.eye(3)
    big[:, 3:6, 6:] = np.eye(3)
    return big


RADII = np.concatenate([[0.0], np.geomspace(1e-3, 150.0, 700)])


@pytest.mark.parametrize("h", [1e-3, 0.05])
def test_phi_blocks_match_scipy(h):
    # steps this small need at most a few squarings: measured 5e-14
    big = _augmented(reduced_symbol(RADII), h)
    got, want = expm_stack(big), expm(big)
    scale = np.maximum(np.abs(want).max(axis=(1, 2)), 1.0)
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-12 * scale)


@pytest.mark.parametrize("h", [1e-3, 0.05])
def test_phi_blocks_satisfy_the_phi_identities(h):
    # M f1 = e0 - I and M f2 = f1/h - I, with f_k = h phi_k(hM) read off
    # the top block row of exp(C)
    m = reduced_symbol(RADII)
    top = expm_stack(_augmented(m, h))[:, :3]
    e0, f1, f2 = top[:, :, :3], h * top[:, :, 3:6], h * top[:, :, 6:]
    eye = np.eye(3)
    mnorm = np.abs(m).max(axis=(1, 2))
    for lhs, rhs, f in ((m @ f1, e0 - eye, f1), (m @ f2, f1 / h - eye, f2)):
        err = np.abs(lhs - rhs).max(axis=(1, 2))
        scale = np.maximum(mnorm * np.abs(f).max(axis=(1, 2)), 1.0)
        assert np.all(err <= 1e-13 * scale)  # measured 6e-16 of scale


def test_phi_blocks_are_independent_of_the_rest_of_the_stack():
    # 701 blocks of 9x9 span two kernel blocks
    big = _augmented(reduced_symbol(RADII), 0.05)
    whole = expm_stack(big)
    for i in range(0, len(big), 37):
        assert np.array_equal(expm_stack(big[i : i + 1])[0], whole[i])


def test_linear_rhs_of_density_mode():
    (x,) = GRID.coordinates()
    state = StateFields.zeros(GRID)
    k = 2.0
    state.a[...] = 0.01 * np.cos(k * x)
    rhs = linear_rhs(GRID, state)
    assert np.max(np.abs(rhs.a)) < 1e-14  # no velocity yet
    assert np.max(np.abs(rhs.u[0] - 0.01 * k * np.sin(k * x))) < 1e-12
    assert np.max(np.abs(rhs.theta)) < 1e-14


def test_nonlinear_rhs_reduces_to_linear_at_zero_amplitude():
    state = StateFields.zeros(GRID)
    rhs = nonlinear_rhs(GRID, state)
    assert np.max(np.abs(rhs.data)) == 0.0


@pytest.mark.parametrize("npts", [8, 64])
def test_nonlinear_rhs_closed_form(npts):
    # a = 0, u = eps sin x, theta = eps cos x: the pressure gradient and the
    # damping cancel, u u_x = (eps^2/2) sin 2x and div(theta u) = eps^2 cos 2x
    grid = PeriodicGrid(dim=1, npts=npts, length=2.0 * np.pi)
    (x,) = grid.coordinates()
    eps = 0.3
    state = StateFields.zeros(grid)
    state.u[0] = eps * np.sin(x)
    state.theta[...] = eps * np.cos(x)
    rhs = nonlinear_rhs(grid, state)
    assert np.max(np.abs(rhs.a + eps * np.cos(x))) < 1e-13
    assert np.max(np.abs(rhs.u[0] + 0.5 * eps**2 * np.sin(2.0 * x))) < 1e-13
    assert np.max(np.abs(rhs.theta + 2.0 * eps * np.cos(x) + eps**2 * np.cos(2.0 * x))) < 1e-13


@pytest.mark.parametrize("k,w", [((1,), (1.0,)), ((1, 1), (1.0, 0.5))])
def test_nonlinear_rhs_closed_form_with_density(k, w):
    # a = eps cos s, u = eps sin(2s) w, theta = eps cos 3s along s = k.x, so every
    # derivative is k times d/ds: the quotient terms ((theta - a)/(1 + a)) grad a
    # and (a/(1 + a)) Lap theta are nonzero, and w not parallel to k gives u a
    # transverse part.  1/(1 + a) has Fourier coefficients of size (eps/2)^|m|:
    # past the 2/3 rule's 21 modes, below rounding.  The gap reads 6.2e-14 in
    # d = 1 and 4.0e-13 in d = 2; flipping the sign of either quotient term, or
    # dropping its 1/(1 + a), moves it by O(eps^2)
    grid = PeriodicGrid(dim=len(k), npts=64, length=2.0 * np.pi)
    s = sum(km * xm for km, xm in zip(k, grid.coordinates())) + np.zeros(grid.shape)
    eps, kw, kk = 0.3, float(np.dot(k, w)), float(np.dot(k, k))
    a, da = eps * np.cos(s), -eps * np.sin(s)
    g, dg = eps * np.sin(2.0 * s), 2.0 * eps * np.cos(2.0 * s)
    th, dth = eps * np.cos(3.0 * s), -3.0 * eps * np.sin(3.0 * s)
    d2th = -9.0 * th
    q = (th - a) / (1.0 + a)
    expected = [-kw * ((1.0 + a) * dg + da * g)]
    expected += [-km * da - wm * g - km * dth - kw * g * dg * wm - q * km * da
                 for km, wm in zip(k, w)]
    expected += [-kw * dg + kk * d2th - kw * (dth * g + th * dg) - a / (1.0 + a) * kk * d2th]

    rhs = nonlinear_rhs(grid, StateFields(np.stack([a, *(wm * g for wm in w), th])))
    assert np.max(np.abs(rhs.data - np.stack(expected))) < 1e-12


@pytest.mark.parametrize("dim,npts", [(1, 64), (2, 16), (3, 8)])
def test_nonlinear_rhs_linearises_to_linear_rhs(dim, npts):
    # the remainder is quadratic and beyond, so the gap to eps * linear_rhs
    # falls a hundredfold when eps falls tenfold
    grid = PeriodicGrid(dim=dim, npts=npts, length=2.0 * np.pi)
    rng = np.random.default_rng(40 + dim)
    fields = [grid.inverse(grid.forward(rng.standard_normal(grid.shape), band=True))
              for _ in range(dim + 2)]
    state = StateFields(np.stack(fields))
    lin = linear_rhs(grid, state)

    def gap(eps):
        rhs = nonlinear_rhs(grid, StateFields(eps * state.data))
        return max(np.max(np.abs(f - eps * g)) for f, g in zip(rhs.data, lin.data))

    ratio = gap(1e-2) / gap(1e-3)
    assert 90.0 < ratio < 110.0, f"gap ratio {ratio}"


# oblique integer wave vectors and velocities not parallel to them, so the
# stepper's transverse branch carries part of the data
LINEAR_MODES = {
    1: (128, (3,), (1.0,)),
    2: (16, (2, 1), (0.6, -0.8)),
    3: (8, (2, 1, -1), (0.3, -0.5, 0.8)),
}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_small_amplitude_run_tracks_exact_linear_solution(dim):
    npts, k, velocity = LINEAR_MODES[dim]
    grid = PeriodicGrid(dim=dim, npts=npts, length=2.0 * np.pi)
    eps, t_end = 1e-4, 0.5
    x = grid.coordinates()
    state0 = StateFields.zeros(grid)
    state0.u[:] = eps * np.multiply.outer(velocity, np.sin(sum(km * xm for km, xm in zip(k, x))))
    traj = integrate(
        grid, state0,
        SolverConfig(dt=1e-3, t_end=t_end, sample_stride=10**9, snapshot_stride=1),
    )
    final = traj.snapshots[-1]
    assert np.isclose(traj.snapshot_times[-1], t_end)
    exact = _exact_linear_mode(grid, eps, k, t_end, velocity)
    err = max(np.max(np.abs(g - w)) for g, w in zip(final.data, exact.data))
    scale = max(np.max(np.abs(w)) for w in exact.data)
    # the quadratic terms contribute O(eps) relative (measured 3e-5, 6e-6, 2e-6);
    # a slip in the u_par/u_perp split would be an O(1) error
    assert err < 2e-4 * scale, f"relative error {err / scale:.3g}"


@pytest.mark.parametrize("dim", [2, 3])
def test_run_is_equivariant_under_axis_reversal(dim):
    # reversing the axes maps x_m to x_{d-1-m}, so u_m becomes u_{d-1-m}
    grid = PeriodicGrid(dim=dim, npts={2: 32, 3: 16}[dim], length=2.0 * np.pi)
    state0 = _varying_state(grid, 1e-2)

    def reversed_state(s):
        return StateFields(np.stack([s.a.T, *(c.T for c in s.u[::-1]), s.theta.T]))

    cfg = SolverConfig(dt=2e-3, t_end=0.05, epsilon0=None, sample_stride=10**9, snapshot_stride=1)
    straight = integrate(grid, state0, cfg).snapshots[-1]
    mirrored = reversed_state(integrate(grid, reversed_state(state0), cfg).snapshots[-1])
    scale = max(np.max(np.abs(f)) for f in straight.data)
    for f, g in zip(straight.data, mirrored.data):
        assert np.max(np.abs(f - g)) <= 1e-12 * scale  # measured 8e-16 (d = 2), 6e-16 (d = 3)


def test_mass_is_conserved():
    rng = np.random.default_rng(11)
    state0 = StateFields.zeros(GRID)
    fhat = GRID.forward(rng.standard_normal(GRID.shape))
    fhat[GRID.kmag > 8.0] = 0.0
    state0.a[...] = 1e-2 * GRID.inverse(fhat)
    state0.a[...] -= GRID.mean(state0.a)
    state0.u[0] = 1e-2 * GRID.inverse(fhat * np.exp(1j))
    traj = integrate(GRID, state0, SolverConfig(dt=2e-3, t_end=0.2))
    assert np.max(np.abs(traj.mean_a - traj.mean_a[0])) < 1e-13


def _varying_state(grid, eps):
    """Smooth data that varies along every axis, in every component."""
    x = grid.coordinates()
    d = grid.dim
    state = StateFields.zeros(grid)
    state.a[...] = eps * math.prod(np.cos(xm) for xm in x)
    for m in range(d):
        state.u[m] = eps * np.sin(2.0 * x[m]) * np.cos(x[(m + 1) % d])
    state.theta[...] = eps * np.sin(sum(x))
    return state


# the 128**2 case lies at ROW_POINTS, where real fields take the real-to-complex FFTs
@pytest.mark.parametrize("dim, npts", [pytest.param(1, 128, id="1"), pytest.param(2, 32, id="2"),
                                       pytest.param(3, 16, id="3"), (2, 128)])
def test_second_order_in_time(dim, npts):
    # Halving dt must cut the error by about four.
    grid = PeriodicGrid(dim=dim, npts=npts, length=2.0 * np.pi)
    state0 = _varying_state(grid, 1e-2)
    # epsilon0=None: on the unit-period box the d = 3 data's critical norm
    # exceeds the smallness gate, which the time accuracy does not depend on
    cfg = lambda dt: SolverConfig(dt=dt, t_end=0.08, epsilon0=None,
                                  sample_stride=10**9, snapshot_stride=1)
    runs = {dt: integrate(grid, state0, cfg(dt)).snapshots[-1] for dt in (4e-3, 2e-3, 1e-3)}
    err = {}
    for dt in (4e-3, 2e-3):
        err[dt] = max(
            np.max(np.abs(g - r))
            for g, r in zip(runs[dt].data, runs[1e-3].data)
        )
    ratio = err[4e-3] / err[2e-3]
    # reference itself has error, so the ideal 4 is slightly biased upward
    assert 3.2 < ratio < 6.0, f"convergence ratio {ratio}"


def test_dealiased_run_stays_band_limited():
    state0 = _single_mode_state(GRID, 5e-2, 4.0)
    traj = integrate(
        GRID, state0,
        SolverConfig(dt=2e-3, t_end=0.3, sample_stride=10**9, snapshot_stride=1),
    )
    final = traj.snapshots[-1]
    for f in final.data:
        fhat = GRID.forward(f)
        assert np.max(np.abs(fhat[~GRID.dealias_mask])) < 1e-16


def test_sampling_and_time_grid_contract():
    state0 = _single_mode_state(GRID, 1e-3, 2.0)
    traj = integrate(GRID, state0, SolverConfig(dt=1e-3, t_end=0.05, sample_stride=5))
    assert np.isclose(traj.series.times[-1], 0.05)
    assert np.isclose(traj.series.times[0], 0.0)
    steps = np.diff(traj.series.times)
    assert np.allclose(steps[:-1], 5e-3)  # every 5th step, last interval may be shorter
    assert traj.dt == pytest.approx(1e-3)
    assert set(traj.series.shells) == set(LittlewoodPaley(GRID).shells)
    # no snapshot_stride: the final state is the one snapshot
    assert traj.snapshot_times == [traj.series.times[-1]] == [pytest.approx(0.05)]
    assert len(traj.snapshots) == 1
    # a stride below 1 fails at construction, not at the first sample
    for stride in (0, -1):
        with pytest.raises(ValueError, match="snapshot_stride"):
            SolverConfig(snapshot_stride=stride)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_step_settings_fail_at_construction(value):
    # integrate counts its steps from t_end and dt, so a NaN or an infinity must not
    # get that far ("cannot convert float NaN to integer", OverflowError)
    for key in ("t_end", "dt"):
        with pytest.raises(ValueError, match=key):
            SolverConfig(**{key: value})


def test_admissibility_gates():
    state = StateFields.zeros(GRID)
    state.a[...] = -0.95
    with pytest.raises(PositivityViolation):
        integrate(GRID, state, SolverConfig(dt=1e-3, t_end=0.01))

    bad = StateFields.zeros(GRID)
    bad.theta[0] = np.nan
    with pytest.raises(NonFinite):
        integrate(GRID, bad, SolverConfig(dt=1e-3, t_end=0.01))

    big = _single_mode_state(GRID, 2.0, 2.0)
    with pytest.raises(ValueError, match="epsilon0"):
        integrate(GRID, big, SolverConfig(dt=1e-3, t_end=0.01, epsilon0=0.5))
    # the bypass advertised in the message must actually work
    integrate(GRID, big, SolverConfig(dt=1e-4, t_end=0.001, epsilon0=None))


def test_nan_in_any_component_stops_the_run_at_that_step(monkeypatch):
    # a NaN in one deep mode of u_2 must be caught at the step it appears
    # (t = 3 dt), before the nonlinear terms spread it to other components
    grid = PeriodicGrid(dim=2, npts=16, length=2.0 * np.pi)
    x, y = grid.coordinates()
    state0 = StateFields.zeros(grid)
    state0.u[0] = 1e-3 * np.sin(x) * np.cos(2.0 * y)
    step_hat = Stepper.step_hat
    calls = []

    def poisoned(self, hats):
        out = step_hat(self, hats)
        calls.append(None)
        if len(calls) == 3:
            out[2] = out[2].copy()
            out[2][5, 7] = np.nan
        return out

    monkeypatch.setattr(Stepper, "step_hat", poisoned)
    with pytest.raises(NonFinite, match=r"t=0\.003$"):
        integrate(grid, state0, SolverConfig(dt=1e-3, t_end=0.01, sample_stride=10**9))


def test_a_dip_below_the_positivity_floor_between_samples_stops_the_run():
    # an outflow from x = 0 takes 1 + a from 0.12 to 0.096 and the pressure
    # refills it: below the floor for t in [0.175, 0.565], back above it by
    # t = 0.8.  The samples at t = 0 and t = 0.8 alone pass; each step checks
    # its input, so the run stops at the first state under the floor
    grid = PeriodicGrid(dim=1, npts=64, length=2.0 * np.pi)
    (x,) = grid.coordinates()
    state0 = StateFields.zeros(grid)
    state0.a[:] = -0.88 * np.cos(x)
    state0.u[0] = 1.8 * np.sin(x)
    dt, n_steps = 5e-4, 1600
    stepper, hats, margins = Stepper(grid, dt), grid.forward(state0.data, band=True), []
    for _ in range(n_steps):
        hats = stepper.step_hat(hats)
        margins.append(stepper.margin)
    final = positivity_margin(StateFields(grid.inverse(hats)))
    assert margins[0] >= POSITIVITY_FLOOR and final >= POSITIVITY_FLOOR
    first = next(i for i, m in enumerate(margins) if m < POSITIVITY_FLOOR)
    assert min(margins) < 0.097 and first == 350

    cfg = SolverConfig(dt=dt, t_end=n_steps * dt, epsilon0=None, sample_stride=10**9)
    with pytest.raises(PositivityViolation, match=r"t=0\.175$"):
        integrate(grid, state0, cfg)


def test_positivity_margin_is_the_least_of_one_plus_a_and_theta(rng):
    # one state, a chunk of states, and NaN in either field, which the margin carries
    for shape in ((3,) + GRID.shape, (3, 4) + GRID.shape):
        for nan_at in (None, 0, -1):
            data = 0.5 * rng.standard_normal(shape)
            if nan_at is not None:
                data[nan_at].flat[5] = np.nan
            state = StateFields(data)
            if nan_at is not None:
                assert np.isnan(positivity_margin(state))
                continue
            want = min(1.0 + state.a.min(), 1.0 + state.theta.min())
            assert np.float64(positivity_margin(state)).tobytes() == np.float64(want).tobytes()
            # rounding is monotone: min fl(1 + a) = fl(1 + min a)
            least = min(np.min(1.0 + state.a), np.min(1.0 + state.theta))
            assert positivity_margin(state) == least


def test_a_nan_in_theta_alone_fails_every_positivity_guard():
    # a = 0 and one NaN in theta: the margin must not read 1 + min a = 1
    state = StateFields.zeros(GRID)
    state.theta[5] = np.nan
    record = _hand_built_record()
    record.snapshots[-1].theta[5] = np.nan
    outcome = check_trajectory(record, mass_tol=1e-10)
    assert [v.name for v in outcome.verdicts if not v.passed] == ["final-positivity-margin"]
    for guard in (cfl_check, nonlinear_rhs):
        with pytest.raises(PositivityViolation):
            guard(GRID, state)
    with pytest.raises(NonFinite):  # integrate checks finiteness first
        integrate(GRID, state, SolverConfig(dt=1e-3, t_end=2e-3, epsilon0=None))


def _hand_built_record(mean_a=(0.0, 0.0, 0.0), nan_norm=False, least_a=0.0):
    """A three-sample record on GRID: flat means, unit shell norms, zero final state."""
    times = np.array([0.0, 0.5, 1.0])
    norms = np.ones((2, 3, times.size))
    if nan_norm:
        norms[1, 2, 1] = np.nan
    final = StateFields.zeros(GRID)
    final.a[7] = least_a
    return TrajectoryRecord(
        grid=GRID, config=SolverConfig(), dt=0.5,
        series=ShellSeries(times, (0, 1), GRID.dim, norms),
        mean_a=np.asarray(mean_a), max_speed=np.ones(times.size),
        snapshot_times=[1.0], snapshots=[final],
    )


@pytest.mark.parametrize("fault, record", [
    (None, _hand_built_record()),
    ("mass-drift", _hand_built_record(mean_a=(0.0, 1e-9, 0.0))),
    ("nonfinite-samples", _hand_built_record(nan_norm=True)),
    ("final-positivity-margin", _hand_built_record(least_a=POSITIVITY_FLOOR - 1.0 - 0.05)),
])
def test_check_trajectory_fails_exactly_the_faulty_verdict(fault, record):
    outcome = check_trajectory(record, mass_tol=1e-10)
    names = ["mass-drift", "nonfinite-samples", "final-positivity-margin"]
    assert [v.name for v in outcome.verdicts] == names
    assert [v.name for v in outcome.verdicts if not v.passed] == ([fault] if fault else [])
    assert list(outcome.curves) == ["critical_norm", "max_speed", "mean_density"]
    times, mean_a, meta = outcome.curves["mean_density"]
    assert np.array_equal(times, record.series.times) and np.array_equal(mean_a, record.mean_a)
    assert outcome.curves["critical_norm"][2] == {"what": "hybrid critical norm"}
    assert outcome.notes == []


def test_cfl_check_and_nonlinear_rhs_need_both_fields_positive():
    for field in ("a", "theta"):
        state = _single_mode_state(GRID, 1e-3)
        getattr(state, field)[7] = -1.0
        with pytest.raises(PositivityViolation):
            cfl_check(GRID, state)
        with pytest.raises(PositivityViolation):
            nonlinear_rhs(GRID, state)


def test_dt_above_cfl_bound_is_rejected():
    state = _single_mode_state(GRID, 1e-3, 2.0)
    bound = cfl_check(GRID, state)
    with pytest.raises(ValueError, match="advective"):
        integrate(GRID, state, SolverConfig(dt=2.0 * bound, t_end=1.0))


def _critical(lp, state):
    return ShellSeries.of_hats(lp, lp.grid.forward(state.data, band=True)).critical()[0]


def test_critical_norm_zero_state():
    lp = LittlewoodPaley(GRID)
    assert _critical(lp, StateFields.zeros(GRID)) == 0.0
    assert _critical(lp, _single_mode_state(GRID, 1e-3, 2.0)) > 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_critical_norm_gate_bounds_the_composite_critical_norm(dim):
    # the epsilon0 gate used to sum per-field Besov norms; ShellSeries.critical,
    # the gate now, takes the ell^2 composite of the same shells, so
    # ell^2 <= ell^1 <= sqrt(d+2) ell^2 and every datum the old gate admitted
    # is still admitted
    grid = PeriodicGrid(dim=dim, npts=128 if dim == 1 else 32, length=8.0 * np.pi)
    lp = LittlewoodPaley(grid)
    rng = np.random.default_rng(20 + dim)
    for _ in range(4):
        fields = rng.standard_normal((dim + 2,) + grid.shape) * rng.uniform(1e-4, 1.0, dim + 2)[
            (slice(None),) + (None,) * dim]
        state = StateFields(fields)
        per_field = sum(lp.besov_norm(f, dim / 2.0, regime="low")
                        + lp.besov_norm(f, dim / 2.0 + 1.0, regime="high") for f in fields)
        composite = _critical(lp, state)
        assert composite <= per_field <= np.sqrt(dim + 2) * composite


def test_epsilon0_gate_is_the_critical_curve_at_t0():
    # band-limited data: the gate reads the value that the run's critical curve starts from
    grid = PeriodicGrid(dim=2, npts=32, length=2.0 * np.pi)
    lp = LittlewoodPaley(grid)
    state0 = _varying_state(grid, 1e-3)
    cfg = lambda eps0: SolverConfig(dt=1e-3, t_end=2e-3, epsilon0=eps0)
    critical = integrate(grid, state0, cfg(None), lp=lp).series.critical()[0]
    assert critical > 0.0
    integrate(grid, state0, cfg(critical * (1.0 + 1e-12)), lp=lp)
    with pytest.raises(ValueError, match="epsilon0"):
        integrate(grid, state0, cfg(critical * (1.0 - 1e-12)), lp=lp)


def test_epsilon0_is_the_start_of_the_critical_curve_exactly():
    # white noise fills every mode, and at N = 32, L = 1 the top shell (j = 5,
    # |k| up to 85, |m| up to 13) reaches past the band (|m| <= 10): a gate on
    # the full layout read 0.20582 here, above the curve's start 0.20263
    grid = PeriodicGrid(dim=1, npts=32, length=1.0)
    lp = LittlewoodPaley(grid)
    state0 = StateFields(1e-3 * np.random.default_rng(0).standard_normal((3,) + grid.shape))
    cfg = lambda eps0: SolverConfig(t_end=1e-3, epsilon0=eps0)
    start = integrate(grid, state0, cfg(None), lp=lp).series.critical()[0]
    assert lp.j_max == 5 and np.isclose(start, 0.20263, rtol=1e-4)
    integrate(grid, state0, cfg(start), lp=lp)
    with pytest.raises(ValueError, match="epsilon0"):
        integrate(grid, state0, cfg(np.nextafter(start, 0.0)), lp=lp)


def test_a_box_run_never_forms_the_full_layout_radius_index(monkeypatch):
    # the initial data's delta0, the epsilon0 gate and every sample reduce band stacks
    layouts = []
    radius_index = PeriodicGrid.radius_index

    def logged(self, band):
        layouts.append(band)
        return radius_index(self, band)

    monkeypatch.setattr(PeriodicGrid, "radius_index", logged)
    grid = PeriodicGrid(dim=3, npts=16, length=4.0 * np.pi)
    lp = LittlewoodPaley(grid)
    state0 = generate_initial_data(InitialDataSpec(sigma1=0.5, dim=3, amplitude=1e-3), grid, lp)
    integrate(grid, state0, SolverConfig(t_end=2e-2, epsilon0=0.5), lp=lp)
    assert layouts and all(layouts), layouts


def _full_tables(grid, dt):
    """The stepper's tables and unit wave vectors on the full layout, over all of its radii."""
    r_unique, idx = np.unique(np.round(grid.kmag, 12), return_inverse=True)
    perp = tuple(complex(t.flat[0]) for t in _phi_tables(np.array([[[-1.0 + 0j]]]), dt))
    with np.errstate(invalid="ignore", divide="ignore"):
        unit_k = [np.where(grid.kmag > 0, k / grid.kmag, 0.0) for k in grid.wavenumbers]
    return idx.reshape(grid.shape), _phi_tables(reduced_symbol(r_unique), dt), perp, unit_k


def _reference_step(grid, tables, hats):
    """The ETDRK2 step on the full layout, with every stage, gradient and table
    product a fresh array, as the stepper was first written; the input is left intact."""
    d = grid.dim
    idx, (e0, f1, f2), perp, unit_k = tables

    def remainder(h):
        fields = grid.inverse(h)
        a, u, theta = fields[0], fields[1:-1], fields[-1]
        grads = [[grid.inverse(grid.derivative_hat(c, n)) for c in h[: d + 1]] for n in range(d)]
        lap_th = grid.inverse(-(grid.kmag**2) * h[-1])
        one_a = 1.0 + a
        q, s = (theta - a) / one_a, a / one_a
        out = np.zeros(h.shape, dtype=complex)
        for m in range(d):
            out[0] -= grid.derivative_hat(grid.forward(a * u[m]), m)
        for m in range(d):
            adv = sum(u[n] * grads[n][1 + m] for n in range(d))
            out[1 + m] = grid.forward(-adv - q * grads[m][0])
        for m in range(d):
            out[-1] -= grid.derivative_hat(grid.forward(theta * u[m]), m)
        out[-1] += grid.forward(-s * lap_th)
        return np.where(grid.dealias_mask, out, 0.0)

    def table(tab, h, scalar):
        t = lambda i, j: tab[:, i, j][idx]
        upar = sum(k * um for k, um in zip(unit_k, h[1:-1]))
        out = np.empty_like(h)
        out[0] = t(0, 0) * h[0] + t(0, 1) * upar + t(0, 2) * h[-1]
        p2 = t(1, 0) * h[0] + t(1, 1) * upar + t(1, 2) * h[-1]
        out[-1] = t(2, 0) * h[0] + t(2, 1) * upar + t(2, 2) * h[-1]
        for m, (k, um) in enumerate(zip(unit_k, h[1:-1])):
            out[1 + m] = k * p2 + scalar * (um - k * upar)
        return out

    (s0, s1, s2), n0 = perp, remainder(hats)
    mid = table(e0, hats, s0) + table(f1, n0, s1)
    return mid + table(f2, remainder(mid) - n0, s2)


@pytest.mark.parametrize("dim, npts", [(1, 64), (2, 32), (3, 16), (3, 32)],
                         ids=["1", "2", "3", "3-32"])
def test_step_in_place_equals_the_fresh_array_step_bit_for_bit(dim, npts):
    # the band step, with tables over the band radii only, against the
    # full-layout oracle with tables over every radius; 32**3 (>= ROW_POINTS)
    # transforms a stack one field at a time
    grid = PeriodicGrid(dim=dim, npts=npts, length=8.0 * np.pi)
    rng = np.random.default_rng(dim)
    full = grid.forward(1e-2 * rng.standard_normal((dim + 2,) + grid.shape))
    full = np.where(grid.dealias_mask, full, 0.0)
    hats = grid.to_band(full)
    stepper, tables = Stepper(grid, 0.1), _full_tables(grid, 0.1)
    for _ in range(2):
        full = _reference_step(grid, tables, full)
        hats = stepper.step_hat(hats)
        assert hats.tobytes() == grid.to_band(full).tobytes()  # signed zeros included
        assert np.all(full[:, ~grid.dealias_mask] == 0.0)


def _step_peak(npts):
    """Traced peak of one 3-D step above its input, in full-layout complex state stacks."""
    grid = PeriodicGrid(dim=3, npts=npts, length=2.0 * np.pi)
    hats = grid.forward(_varying_state(grid, 1e-2).data, band=True)
    full_nbytes = hats.itemsize * len(hats) * grid.npts**grid.dim
    stepper = Stepper(grid, 1e-3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        stepper.step_hat(hats)
        return (tracemalloc.get_traced_memory()[1] - base) / full_nbytes
    finally:
        tracemalloc.stop()


def test_step_peak_memory_and_integrate_leaves_state0_intact():
    # the step works on band stacks, reuses its input's buffer, forms one
    # gradient and one table row at a time, and its remainder holds u with
    # [a, theta], then u with q alone; at 16**3: 1.56 now, 2.16 when the remainder
    # held the whole physical state, 3.5 on the full layout, 6.2 when every
    # stage and gradient was a fresh array
    peak = _step_peak(16)
    assert peak <= 1.6, f"{peak:.2f} full-layout stacks"

    grid = PeriodicGrid(dim=3, npts=16, length=2.0 * np.pi)
    state0 = _varying_state(grid, 1e-2)
    before = state0.data.tobytes()
    integrate(grid, state0, SolverConfig(dt=1e-3, t_end=3e-3, epsilon0=None, snapshot_stride=1))
    assert state0.data.tobytes() == before


def test_step_peak_memory_at_32_cubed():
    # at 32**3 (>= ROW_POINTS) stacks are transformed one field at a time, real
    # fields by real-to-complex FFTs: 1.40 full-layout stacks now, 1.42 on the
    # complex FFTs, 1.72 when the remainder held the whole physical state and
    # the stepper its unit wave vectors
    peak = _step_peak(32)
    assert peak <= 1.5, f"{peak:.2f} full-layout stacks"


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments on the caller's stack")
def test_integrate_frees_a_temporary_initial_state_before_the_first_step(monkeypatch):
    # the runners call integrate(grid, initial(), ...): once the band stack
    # exists nothing keeps the physical initial state alive through the steps
    grid = PeriodicGrid(dim=2, npts=16, length=2.0 * np.pi)
    made, alive = [], []

    def initial():
        state = _varying_state(grid, 1e-2)
        made.append(weakref.ref(state.data))
        return state

    step_hat = Stepper.step_hat

    def watched(self, hats):
        alive.append(made[0]() is not None)
        return step_hat(self, hats)

    monkeypatch.setattr(Stepper, "step_hat", watched)
    integrate(grid, initial(), SolverConfig(dt=1e-3, t_end=2e-3, epsilon0=None))
    assert alive == [False, False]


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments on the caller's stack")
def test_sample_0_holds_no_more_than_a_later_sample():
    # integrate takes the step bound from state0 and drops it before sample 0,
    # so the first sample holds the band stack alone, as every later one does.
    # Traced peaks at 32**3, in MB: 3.11 for sample 0 and 3.27 for each later
    # sample (which also holds the stepper's tables); 4.42 for sample 0 while
    # state0 was held through it
    grid = PeriodicGrid(dim=3, npts=32, length=2.0 * np.pi)
    peaks = []

    def hook(frame, event, arg):
        code = frame.f_code
        if (code.co_name, code.co_filename) != ("sample", integrate.__code__.co_filename):
            return
        if event == "call":
            tracemalloc.reset_peak()
        elif event == "return":
            peaks.append(tracemalloc.get_traced_memory()[1])

    tracemalloc.start()
    sys.setprofile(hook)
    try:
        integrate(grid, _varying_state(grid, 1e-2),
                  SolverConfig(dt=1e-3, t_end=3e-3, epsilon0=10.0))
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    assert len(peaks) == 4 and peaks[0] <= min(peaks[1:]), peaks


def test_shell_tables_are_kept_by_radius_and_a_sample_stays_small():
    # the shell tables live over the grid's distinct radii and no one holds a
    # laid-out multiplier, so after a run the shell calculus holds no array of
    # the grid's full layout
    grid = PeriodicGrid(dim=3, npts=16, length=2.0 * np.pi)
    lp = LittlewoodPaley(grid)
    integrate(grid, _varying_state(grid, 1e-2),
              SolverConfig(dt=1e-3, t_end=2e-3, epsilon0=10.0), lp=lp)
    assert len(lp._phi_cache) == len(lp.shells)
    assert all(t.shape == grid.radii[0].shape for t in lp._phi_cache.values())
    assert not any(isinstance(v, np.ndarray) for v in vars(lp).values())
    assert len(lp._laid_out) == 0
    # nor does the grid: |k| and the radius index of the full layout are formed on access
    assert len(grid._held) == 0 and grid.radius_index(True).shape == grid.band_shape

    # a sample reduces the band stack, zero-filling its real squares; in
    # full-layout complex state stacks, its peak reads 0.80 (0.84 for the first
    # sample, which builds the tables) at 32**3, the same as when it reduced one
    # field at a time, and read 1.30 (1.74) when each sample zero-filled the band
    # into a complex stack
    grid = PeriodicGrid(dim=3, npts=32, length=2.0 * np.pi)
    state0 = _varying_state(grid, 1e-2)
    full_nbytes = 16 * len(state0.data) * grid.npts**grid.dim
    peaks, held_at = [], []

    def hook(frame, event, arg):
        code = frame.f_code
        if (code.co_name, code.co_filename) != ("sample", integrate.__code__.co_filename):
            return
        if event == "call":
            held_at.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        elif event == "return":
            peaks.append((tracemalloc.get_traced_memory()[1] - held_at[-1]) / full_nbytes)

    tracemalloc.start()
    sys.setprofile(hook)
    try:
        integrate(grid, state0, SolverConfig(dt=1e-3, t_end=2e-3, epsilon0=None))
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    assert len(peaks) == 3 and max(peaks) <= 1.15, peaks
    assert max(peaks[1:]) <= 1.0, peaks


def test_integrate_transforms_the_initial_and_final_states_once(monkeypatch):
    # one forward transform serves the epsilon0 gate and the run, and the
    # last sample's physical state is the final snapshot
    log = []
    for cls, name in ((PeriodicGrid, "forward"), (PeriodicGrid, "inverse"), (Stepper, "step_hat")):
        def logged(self, arg, _fn=getattr(cls, name), _name=name, **band):
            log.append(_name)
            out = _fn(self, arg, **band)
            log.append(f"/{_name}")
            return out
        monkeypatch.setattr(cls, name, logged)
    grid = PeriodicGrid(dim=2, npts=16, length=2.0 * np.pi)
    traj = integrate(grid, _varying_state(grid, 1e-3),
                     SolverConfig(dt=1e-3, t_end=3e-3, epsilon0=0.5, snapshot_stride=10**9))
    assert traj.snapshot_times == [0.0, traj.series.times[-1]]
    first, last = log.index("step_hat"), len(log) - log[::-1].index("/step_hat")
    assert log[:first].count("forward") == 1
    assert log[last:] == ["inverse", "/inverse"]


def test_checkpoint_roundtrip(tmp_path):
    state = _single_mode_state(GRID, 1e-3, 2.0)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, GRID, state, t=1.25, meta={"label": "unit"})
    grid2, state2, t2, meta = load_checkpoint(path)
    assert (grid2.dim, grid2.npts, grid2.length) == (GRID.dim, GRID.npts, GRID.length)
    assert t2 == 1.25
    assert meta["label"] == "unit"
    assert np.array_equal(state.data, state2.data)
