"""Pseudo-spectral time stepping: accuracy, invariants, and guard rails."""

import numpy as np
import pytest

from eulerfourier.grid import PeriodicGrid, StateFields
from eulerfourier.linear import mode_propagator
from eulerfourier.littlewood import LittlewoodPaley
from eulerfourier.solver import (
    NonFinite,
    PositivityViolation,
    SolverConfig,
    cfl_check,
    critical_norm,
    integrate,
    linear_rhs,
    load_checkpoint,
    nonlinear_rhs,
    save_checkpoint,
)

GRID = PeriodicGrid(dim=1, npts=128, length=2.0 * np.pi)


def _single_mode_state(grid, eps, k=3.0):
    (x,) = grid.coordinates()
    state = StateFields.zeros(grid)
    state.u[0] = eps * np.sin(k * x)
    return state


def _exact_linear_mode(grid, eps, k, t):
    """Evolve u0 = eps sin(kx) with the exact Fourier-mode propagator."""
    out = {}
    for sign in (+1.0, -1.0):
        coeff = np.array([0.0, sign * eps / 2.0j, 0.0])  # sin = (e^i - e^-i)/2i
        out[sign] = mode_propagator(np.array([sign * k]), t) @ coeff
    (x,) = grid.coordinates()
    fields = []
    for comp in range(3):
        f = out[+1.0][comp] * np.exp(1j * k * x) + out[-1.0][comp] * np.exp(-1j * k * x)
        fields.append(np.real(f))
    return StateFields(a=fields[0], u=np.stack([fields[1]]), theta=fields[2])


def test_linear_rhs_of_density_mode():
    (x,) = GRID.coordinates()
    state = StateFields.zeros(GRID)
    k = 2.0
    state.a = 0.01 * np.cos(k * x)
    rhs = linear_rhs(GRID, state)
    assert np.max(np.abs(rhs.a)) < 1e-14  # no velocity yet
    assert np.max(np.abs(rhs.u[0] - 0.01 * k * np.sin(k * x))) < 1e-12
    assert np.max(np.abs(rhs.theta)) < 1e-14


def test_nonlinear_rhs_reduces_to_linear_at_zero_amplitude():
    state = StateFields.zeros(GRID)
    rhs = nonlinear_rhs(GRID, state)
    assert rhs.max_abs() == 0.0


def test_small_amplitude_run_tracks_exact_linear_solution():
    eps, k, t_end = 1e-4, 3.0, 0.5
    state0 = _single_mode_state(GRID, eps, k)
    traj = integrate(
        GRID, state0,
        SolverConfig(dt=1e-3, t_end=t_end, sample_stride=10**9, snapshot_stride=1),
    )
    final = traj.snapshots[-1]
    assert np.isclose(traj.snapshot_times[-1], t_end)
    exact = _exact_linear_mode(GRID, eps, k, t_end)
    for got, want in zip(final.components(), exact.components()):
        # quadratic nonlinearity contributes O(eps^2); time error O(dt^2 eps)
        assert np.max(np.abs(got - want)) < 5e-8


def test_mass_is_conserved():
    rng = np.random.default_rng(11)
    state0 = StateFields.zeros(GRID)
    fhat = GRID.forward(rng.standard_normal(GRID.shape))
    fhat[GRID.kmag > 8.0] = 0.0
    state0.a = 1e-2 * GRID.inverse(fhat)
    state0.a -= GRID.mean(state0.a)
    state0.u[0] = 1e-2 * GRID.inverse(fhat * np.exp(1j))
    traj = integrate(GRID, state0, SolverConfig(dt=2e-3, t_end=0.2))
    assert np.max(np.abs(traj.mean_a - traj.mean_a[0])) < 1e-13


def test_second_order_in_time():
    # Halving dt must cut the error by about four.
    state0 = _single_mode_state(GRID, 1e-2, 2.0)
    cfg = lambda dt: SolverConfig(dt=dt, t_end=0.08, sample_stride=10**9, snapshot_stride=1)
    runs = {dt: integrate(GRID, state0, cfg(dt)).snapshots[-1] for dt in (4e-3, 2e-3, 1e-3)}
    err = {}
    for dt in (4e-3, 2e-3):
        err[dt] = max(
            np.max(np.abs(g - r))
            for g, r in zip(runs[dt].components(), runs[1e-3].components())
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
    for f in final.components():
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


def test_admissibility_gates():
    state = StateFields.zeros(GRID)
    state.a = np.full(GRID.shape, -0.95)
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


def test_dt_above_cfl_bound_is_rejected():
    state = _single_mode_state(GRID, 1e-3, 2.0)
    bound = cfl_check(GRID, state)
    with pytest.raises(ValueError, match="advective"):
        integrate(GRID, state, SolverConfig(dt=2.0 * bound, t_end=1.0))


def test_critical_norm_zero_state():
    lp = LittlewoodPaley(GRID)
    assert critical_norm(lp, StateFields.zeros(GRID)) == 0.0
    assert critical_norm(lp, _single_mode_state(GRID, 1e-3, 2.0)) > 0.0


def test_checkpoint_roundtrip(tmp_path):
    state = _single_mode_state(GRID, 1e-3, 2.0)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, GRID, state, t=1.25, meta={"label": "unit"})
    grid2, state2, t2, meta = load_checkpoint(path)
    assert (grid2.dim, grid2.npts, grid2.length) == (GRID.dim, GRID.npts, GRID.length)
    assert t2 == 1.25
    assert meta["label"] == "unit"
    for f, g in zip(state.components(), state2.components()):
        assert np.array_equal(f, g)
