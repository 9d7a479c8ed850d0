"""Per-shell energy functionals, coercivity margins, and the residual check."""

import dataclasses
import math

import numpy as np
import pytest

from eulerfourier.grid import PeriodicGrid, StateFields
from eulerfourier.littlewood import LittlewoodPaley, ShellSeries
from eulerfourier.lyapunov import (
    DEFAULT_ETA,
    StrideTooCoarse,
    _ChunkTerms,
    coercivity_margin,
    commutator_remainders,
    lyapunov_residual,
    shell_functionals,
)
from eulerfourier.randfields import ball_field
from eulerfourier.solver import (
    PositivityViolation,
    SolverConfig,
    TrajectoryRecord,
    integrate,
    linear_rhs,
    nonlinear_rhs,
)

GRID = PeriodicGrid(dim=1, npts=256, length=8.0 * np.pi)
LP = LittlewoodPaley(GRID)


def _mode_state(component, k, amp=1e-2):
    (x,) = GRID.coordinates()
    state = StateFields.zeros(GRID)
    f = amp * np.cos(k * x)
    if component == "a":
        state.a[...] = f
    elif component == "u":
        state.u[0] = f
    else:
        state.theta[...] = f
    return state


def test_functionals_vanish_on_zero_state():
    zero = StateFields.zeros(GRID)
    for j in (-1, 0, 2):
        assert shell_functionals(LP, zero, j, DEFAULT_ETA, "low") == (0.0, 0.0)
        assert shell_functionals(LP, zero, j, DEFAULT_ETA, "high") == (0.0, 0.0)


def test_low_functionals_on_single_component_modes():
    k, j = 1.0, 0  # mode lands in shells {-1, 0}
    eta = 0.1
    a_state = _mode_state("a", k)
    a_j = GRID.l2_norm(LP.block(a_state.a, j))
    e1, d1 = shell_functionals(LP, a_state, j, eta, "low")
    assert np.isclose(e1, 0.5 * a_j**2, rtol=1e-12)
    assert np.isclose(d1, eta * k**2 * a_j**2, rtol=1e-12)

    th_state = _mode_state("theta", k)
    th_j = GRID.l2_norm(LP.block(th_state.theta, j))
    e1, d1 = shell_functionals(LP, th_state, j, eta, "low")
    assert np.isclose(e1, 0.5 * th_j**2, rtol=1e-12)
    assert np.isclose(d1, k**2 * th_j**2, rtol=1e-12)

    u_state = _mode_state("u", k)
    u_j = GRID.l2_norm(LP.block(u_state.u[0], j))
    e1, d1 = shell_functionals(LP, u_state, j, eta, "low")
    assert np.isclose(e1, 0.5 * u_j**2, rtol=1e-12)
    # 1d velocity is all divergence: D1 = (1 - eta k^2) |u_j|^2
    assert np.isclose(d1, (1.0 - eta * k**2) * u_j**2, rtol=1e-12)


def test_high_functionals_on_single_component_modes():
    k, j, eta = 2.0, 1, 0.1
    beta = eta * 2.0 ** (-2 * j)
    u_state = _mode_state("u", k)
    u_j = GRID.l2_norm(LP.block(u_state.u[0], j))
    e2, d2 = shell_functionals(LP, u_state, j, eta, "high")
    assert np.isclose(e2, 0.5 * u_j**2, rtol=1e-12)
    assert np.isclose(d2, (1.0 - beta * k**2) * u_j**2, rtol=1e-12)

    th_state = _mode_state("theta", k)
    th_j = GRID.l2_norm(LP.block(th_state.theta, j))
    e2, d2 = shell_functionals(LP, th_state, j, eta, "high")
    assert np.isclose(e2, 0.5 * th_j**2, rtol=1e-12)
    assert np.isclose(d2, k**2 * th_j**2, rtol=1e-12)


def test_energy_weight_uses_unfiltered_state():
    # With a nonzero background the density term carries (1+theta)/(1+a)^2.
    k, j = 1.0, 0
    state = _mode_state("a", k, amp=5e-2)
    weight = (1.0 + state.theta) / (1.0 + state.a) ** 2
    a_j = LP.block(state.a, j)
    expected = 0.5 * GRID.cell_volume * np.sum(weight * a_j * a_j)
    e2, _ = shell_functionals(LP, state, j, DEFAULT_ETA, "high")
    assert np.isclose(e2, expected, rtol=1e-12)


@pytest.mark.parametrize("dim, npts", [(1, 64), (2, 32)])
def test_low_energy_falls_at_the_dissipation_rate_along_the_linear_flow(dim, npts):
    # in the low regime (weight 1) the chain rule along T = linear_rhs gives
    #   dE_j/dt = <a_j, T_a,j> + <u_j, T_u,j> + <theta_j, T_theta,j>
    #             + eta (<grad T_a,j, u_j> + <grad a_j, T_u,j>) = -D_j
    # exactly: measured to 5.4e-15 of D_j.  E_j is quadratic, so its centered
    # difference (E_j(s + T) - E_j(s - T)) / 2 is the same rate.  theta follows a,
    # so <grad theta_j, grad a_j> is not small; halving it in D_j moves D_j by
    # 5e-4 or more of itself, and so does each mutant of D_j and E_j tried
    eta = DEFAULT_ETA
    grid = PeriodicGrid(dim=dim, npts=npts, length=16.0 * np.pi)
    lp = LittlewoodPaley(grid)
    rng = np.random.default_rng(dim)
    fhat = grid.forward(rng.standard_normal((dim + 2,) + grid.shape))
    state = StateFields(grid.inverse(np.where(grid.dealias_mask, fhat, 0.0)))
    state.u[...] *= 0.1
    state.theta[...] = 0.6 * state.a + 0.4 * state.theta
    tend = linear_rhs(grid, state)

    def inner(f, g):
        return float(np.sum(f * g) * grid.cell_volume)

    for j in lp.shells:
        s_j, t_j = ([lp.block(f, j) for f in fields.data] for fields in (state, tend))
        rate = sum(inner(f, g) for f, g in zip(s_j, t_j))
        rate += eta * sum(inner(g, u) for g, u in zip(grid.gradient(t_j[0]), s_j[1:-1]))
        rate += eta * sum(inner(g, u) for g, u in zip(grid.gradient(s_j[0]), t_j[1:-1]))
        _, dissipation = shell_functionals(lp, state, j, eta, "low")
        assert dissipation > 0.0
        assert abs(rate + dissipation) <= 1e-12 * dissipation, (j, rate, dissipation)
        e_plus, e_minus = (shell_functionals(lp, StateFields(state.data + sign * tend.data),
                                             j, eta, "low")[0] for sign in (1.0, -1.0))
        assert abs((e_plus - e_minus) / 2.0 - rate) <= 1e-12 * dissipation, j


def test_eta_range_is_validated():
    state = _mode_state("a", 1.0)
    with pytest.raises(ValueError, match="eta1"):
        shell_functionals(LP, state, 0, 1.5, "low")
    with pytest.raises(ValueError, match="eta2"):
        shell_functionals(LP, state, 0, 0.0, "high")
    with pytest.raises(ValueError, match="regime"):
        shell_functionals(LP, state, 0, DEFAULT_ETA, "middle")


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("regime", ["low", "high"])
def test_a_stack_of_states_gives_each_states_values_bit_for_bit(dim, regime, rng):
    grid = PeriodicGrid(dim=dim, npts=64 if dim == 1 else 32, length=8.0 * np.pi)
    lp = LittlewoodPaley(grid)
    states = [StateFields(0.05 * np.stack([ball_field(grid, rng, scale_j=1)
                                           for _ in range(dim + 2)])) for _ in range(3)]
    stack = StateFields(np.stack([s.data for s in states], axis=1))  # (d + 2, 3, *grid)
    for j in lp.shells:
        energy, dissipation = shell_functionals(lp, stack, j, DEFAULT_ETA, regime)
        assert energy.shape == dissipation.shape == (len(states),)
        for k, state in enumerate(states):
            one = shell_functionals(lp, state, j, DEFAULT_ETA, regime)
            assert (energy[k], dissipation[k]) == one
    r1, r2, r3 = commutator_remainders(lp, stack, 0)
    for k, state in enumerate(states):
        one = commutator_remainders(lp, state, 0)
        assert np.array_equal(r1[k], one[0]) and np.array_equal(r3[k], one[2])
        assert all(np.array_equal(c[k], c1) for c, c1 in zip(r2, one[1]))


def test_low_energy_equivalence_on_far_low_shells(rng):
    # For j <= -2 the cross term is bounded by eta * (8/3) 2^j algebraically,
    # so E1 is pinned to the quadratic shell norm with that margin.
    eta = 0.1
    grid = PeriodicGrid(dim=1, npts=256, length=64.0 * np.pi)
    lp = LittlewoodPaley(grid)
    for j in (-3, -2):
        slack = eta * (8.0 / 3.0) * 2.0**j
        for _ in range(25):
            state = StateFields.zeros(grid)
            state.a[...] = ball_field(grid, rng, scale_j=j, cutoffs=lp.cutoffs)
            state.u[0] = ball_field(grid, rng, scale_j=j, cutoffs=lp.cutoffs)
            state.theta[...] = ball_field(grid, rng, scale_j=j, cutoffs=lp.cutoffs)
            q = 0.5 * sum(
                grid.l2_norm(lp.block(f, j)) ** 2 for f in state.data
            )
            if q == 0.0:
                continue
            e1, _ = shell_functionals(lp, state, j, eta, "low")
            assert (1.0 - slack) * q - 1e-12 <= e1 <= (1.0 + slack) * q + 1e-12


def test_coercivity_margins_by_regime():
    # Low-frequency form is coercive only up to the split, high-frequency
    # from just below it; the margins are strictly positive there.
    for j in (-4, -2, 0):
        m = coercivity_margin(j, eta=0.1, regime="low")
        assert 0.0 < m <= 1.0
    for j in (-1, 0, 2, 4):
        m = coercivity_margin(j, eta=0.1, regime="high")
        assert 0.0 < m <= 1.0
    with pytest.raises(ValueError, match="coercivity"):
        coercivity_margin(2, eta=0.1, regime="low")
    with pytest.raises(ValueError, match="regime"):
        coercivity_margin(0, eta=0.1, regime="middle")


def _margin_by_generalized_eigh(j, eta, regime, samples=257):
    """The margin one generalized ``scipy.linalg.eigh`` per radius at a time."""
    from scipy.linalg import eigh

    if regime == "low":
        beta, target = eta, np.array([4.0**j, 1.0, 4.0**j])
    else:
        beta, target = eta * 2.0 ** (-2 * j), np.array([1.0, 1.0, 4.0**j])
    margin = 1.0
    for r in np.linspace(0.75 * 2.0**j, (8.0 / 3.0) * 2.0**j, samples):
        f = np.array([[beta * r * r, -beta * r / 2.0, -beta * r * r / 2.0],
                      [-beta * r / 2.0, 1.0 - beta * r * r, 0.0],
                      [-beta * r * r / 2.0, 0.0, r * r]])
        margin = min(margin, float(eigh(f, np.diag(target), eigvals_only=True)[0]))
    return margin


@pytest.mark.parametrize("regime", ["low", "high"])
def test_coercivity_margin_equals_generalized_eigh_loop(regime):
    for eta in (0.01, 0.05, 0.1, 0.2, 0.5):
        for j in range(-6, 8):
            want = _margin_by_generalized_eigh(j, eta, regime)
            if want <= 0.0:
                with pytest.raises(ValueError, match="coercivity"):
                    coercivity_margin(j, eta, regime)
            else:
                assert coercivity_margin(j, eta, regime) == want


#: eta of each regime's sharp-coercivity checks: the low form at eta = 0.1 is
#: coercive only up to j = 0, at 1e-3 up to j = 3
SHARP_ETA = {"low": 1e-3, "high": DEFAULT_ETA}


def _paper_forms(r, j, eta, regime):
    """D and Q of one wave vector of radius r, as forms F and G in (|a|, |u|, |theta|),
    with the phases that make both cross terms of D negative (the paper's forms)."""
    if regime == "low":
        beta, target = eta, [4.0**j, 1.0, 4.0**j]
    else:
        beta, target = eta * 2.0 ** (-2 * j), [1.0, 1.0, 4.0**j]
    f = np.array([[beta * r * r, -beta * r / 2.0, -beta * r * r / 2.0],
                  [-beta * r / 2.0, 1.0 - beta * r * r, 0.0],
                  [-beta * r * r / 2.0, 0.0, r * r]])
    return f, np.diag(target)


@pytest.mark.parametrize("regime", ["low", "high"])
def test_the_functionals_meet_the_generalized_eigenvalues_sharply(regime):
    # D_j and Q_j read from the code (shell_functionals and _ChunkTerms.target),
    # not from a restated F.  The worst radius of shell j is its inner edge
    # 3/4 2^j, where phi_j vanishes; the next lattice radius r (spacing 1/8)
    # carries a single wave vector with amplitudes from a generalized eigenvector
    # v of F against G: a = v_a cos rx, u = v_u sin rx, theta = -v_theta cos rx
    # give <grad a, u> and <grad theta, grad a> the signs of F, so D_j / Q_j is
    # the eigenvalue (measured to 1e-15; phi_j(r) is 7e-7 at j = 3)
    from scipy.linalg import eigh

    grid = PeriodicGrid(dim=1, npts=512, length=16.0 * np.pi)
    lp = LittlewoodPaley(grid)
    (x,) = grid.coordinates()
    eta = SHARP_ETA[regime]
    for j in (1, 2, 3):
        r = 0.75 * 2.0**j + 2.0 * np.pi / grid.length
        lams, vecs = eigh(*_paper_forms(r, j, eta, regime))
        for lam, (va, vu, vth) in zip(lams, 1e-2 * vecs.T):
            state = StateFields(np.stack([va * np.cos(r * x), vu * np.sin(r * x),
                                          -vth * np.cos(r * x)]))
            _, dissipation = shell_functionals(lp, state, j, eta, regime)
            target = _ChunkTerms(lp, state).target(j, regime)
            assert dissipation / target == pytest.approx(lam, rel=1e-12, abs=0.0), (j, lam)
        # the state of the least eigenvalue is a shell-j state: D_j >= margin Q_j
        assert 0.0 < coercivity_margin(j, eta, regime) <= lams[0]


@pytest.mark.parametrize("regime", ["low", "high"])
def test_random_shell_states_satisfy_the_coercivity_margin(regime):
    # D_j >= margin Q_j for every state whose block is on shell j, the
    # transverse velocity included (d = 2)
    grid = PeriodicGrid(dim=2, npts=128, length=4.0 * np.pi)
    lp = LittlewoodPaley(grid)
    eta = SHARP_ETA[regime]
    chunk = StateFields(1e-2 * np.random.default_rng(7).standard_normal((4, 6) + grid.shape))
    for j in (1, 2, 3):
        _, dissipation = shell_functionals(lp, chunk, j, eta, regime)
        target = _ChunkTerms(lp, chunk).target(j, regime)
        assert np.all(target > 0.0)
        assert np.all(dissipation >= coercivity_margin(j, eta, regime) * target), j


def test_commutators_vanish_for_constant_coefficients(rng):
    # Uniform a and u make every commutator coefficient constant; a varying
    # temperature keeps the Delta-theta remainder from being trivially zero.
    state = StateFields.zeros(GRID)
    state.a[...] = np.full(GRID.shape, 0.05)
    state.u[0] = np.full(GRID.shape, 0.1)
    fhat = GRID.forward(rng.standard_normal(GRID.shape))
    fhat[GRID.kmag > 4.0] = 0.0
    state.theta[...] = 0.1 * GRID.inverse(fhat)
    r1, r2, r3 = commutator_remainders(LP, state, j=0)
    assert GRID.l2_norm(r1) < 1e-13
    assert max(GRID.l2_norm(c) for c in r2) < 1e-13
    assert GRID.l2_norm(r3) < 1e-13


def test_commutators_are_nonzero_for_varying_coefficients(rng):
    state = StateFields.zeros(GRID)
    fhat = GRID.forward(rng.standard_normal(GRID.shape))
    fhat[GRID.kmag > 4.0] = 0.0
    state.a[...] = 0.1 * GRID.inverse(fhat)
    state.u[0] = 0.1 * GRID.inverse(fhat * np.exp(0.5j))
    state.theta[...] = 0.1 * GRID.inverse(fhat * np.exp(1.0j))
    r1, _, _ = commutator_remainders(LP, state, j=0)
    assert GRID.l2_norm(r1) > 1e-8


def _small_run(amplitude, dim=1, npts=512):
    grid = PeriodicGrid(dim=dim, npts=npts, length=8.0 * np.pi)
    rng = np.random.default_rng(21)
    state = StateFields.zeros(grid)
    state.a[...] = amplitude * ball_field(grid, rng, scale_j=4)
    for m in range(dim):
        state.u[m] = amplitude * ball_field(grid, rng, scale_j=4)
    state.theta[...] = amplitude * ball_field(grid, rng, scale_j=4)
    cfg = SolverConfig(dt=5e-5, t_end=7.5e-4, sample_stride=1,
                       snapshot_stride=1, epsilon0=None)
    return integrate(grid, state, cfg)


@pytest.mark.parametrize("amplitude", [1e-4, 0.05])
def test_residual_inequality_holds_along_runs(amplitude):
    traj = _small_run(amplitude)
    pairs = [("low", 0), ("low", -1), ("high", 2), ("high", 0)]
    for (regime, j), series in zip(pairs, lyapunov_residual(traj, pairs)):
        assert (series.regime, series.j) == (regime, j)
        assert series.verdict.passed, (
            f"{regime} shell {j} at amplitude {amplitude}: "
            f"worst ratio {np.max(series.ratio)}"
        )
        assert series.coercivity_margin > 0.0


def test_residual_is_vacuous_on_spectrally_empty_shells():
    # data band-limited far below shell 3: that shell only ever holds the
    # solve's roundoff, and the residual must report vacuous passes there
    # instead of differencing noise against a tiny nonlinear bound
    grid = PeriodicGrid(dim=1, npts=512, length=8.0 * np.pi)
    rng = np.random.default_rng(33)
    state = StateFields.zeros(grid)
    state.a[...] = 1e-3 * ball_field(grid, rng, scale_j=0)
    state.u[0] = 1e-3 * ball_field(grid, rng, scale_j=0)
    state.theta[...] = 1e-3 * ball_field(grid, rng, scale_j=0)
    cfg = SolverConfig(dt=5e-5, t_end=7.5e-4, sample_stride=1,
                       snapshot_stride=1, epsilon0=None)
    traj = integrate(grid, state, cfg)
    (series,) = lyapunov_residual(traj, [("high", 3)])
    assert series.verdict.passed
    assert np.all(series.ratio == 0.0), "empty shell must pass vacuously"


def test_residual_requires_enough_snapshots():
    traj = _small_run(1e-4)
    starved = TrajectoryRecord(
        grid=traj.grid, config=traj.config, dt=traj.dt, series=traj.series,
        mean_a=traj.mean_a, max_speed=traj.max_speed,
        snapshot_times=traj.snapshot_times[:4], snapshots=traj.snapshots[:4],
    )
    with pytest.raises(StrideTooCoarse, match="five snapshots"):
        lyapunov_residual(starved, [("low", 0)])


def test_residual_rejects_coarse_sampling():
    # A fast oscillation sampled at a tenth of its period leaves the centered
    # difference with more error than dissipation at every snapshot.
    grid = PeriodicGrid(dim=1, npts=64, length=2.0 * np.pi)
    (x,) = grid.coordinates()
    times = 0.1 * np.arange(10)
    snaps = []
    for t in times:
        s = StateFields.zeros(grid)
        s.a[...] = 0.1 * (1.0 + 0.5 * np.sin(20.0 * t)) * np.cos(5.0 * x)
        snaps.append(s)
    shells = tuple(LittlewoodPaley(grid).shells)
    traj = TrajectoryRecord(
        grid=grid, config=SolverConfig(dt=0.1, t_end=1.0), dt=0.1,
        series=ShellSeries(times, shells, 1, np.zeros((len(shells), 3, times.size))),
        mean_a=np.zeros_like(times), max_speed=np.zeros_like(times),
        snapshot_times=list(times), snapshots=snaps,
    )
    with pytest.raises(StrideTooCoarse, match="differencing error"):
        lyapunov_residual(traj, [("high", 2)])


def test_multi_shell_pass_equals_single_pair_calls():
    # one pass over the snapshots must give exactly what one call per pair gives
    traj = _small_run(0.05)
    pairs = [("low", 0), ("low", -1), ("high", 0), ("high", 2)]
    together = lyapunov_residual(traj, pairs)
    for pair, joint in zip(pairs, together):
        (alone,) = lyapunov_residual(traj, [pair])
        assert (joint.regime, joint.j) == pair
        for name in ("times", "energy", "dEdt", "target", "dissipation", "nl_bound",
                     "lhs", "ratio", "dissipation_ratio", "fd_error"):
            assert np.array_equal(getattr(joint, name), getattr(alone, name)), name
        assert joint.n_dropped == alone.n_dropped


def test_tendency_is_formed_once_per_snapshot(monkeypatch):
    traj = _small_run(1e-4)
    calls = []

    def counted(grid, state):
        calls.append(state)
        return nonlinear_rhs(grid, state)

    monkeypatch.setattr("eulerfourier.lyapunov.nonlinear_rhs", counted)
    for high in ([0], [0, 1, 2]):
        calls.clear()
        lyapunov_residual(traj, [("low", 0)] + [("high", j) for j in high])
        # one call per chunk of snapshots, whose rows are the snapshots
        assert sum(len(state.a) for state in calls) == len(traj.snapshots)


SERIES_FIELDS = ("times", "energy", "dEdt", "target", "dissipation", "nl_bound",
                 "lhs", "ratio", "dissipation_ratio", "fd_error")


@pytest.mark.parametrize("dim, npts", [(1, 512), (2, 64)])
def test_chunk_size_does_not_change_the_audit(dim, npts, monkeypatch):
    traj = _small_run(0.05, dim, npts)
    pairs = [("low", 0), ("high", 0), ("high", 1)]
    points = math.prod(traj.grid.shape)
    runs = []
    for rows in (1, 3, len(traj.snapshots)):
        monkeypatch.setattr("eulerfourier.lyapunov.CHUNK_POINTS", rows * points)
        runs.append(lyapunov_residual(traj, pairs))
    for run in runs[1:]:
        for first, other in zip(runs[0], run):
            for name in SERIES_FIELDS:
                assert np.array_equal(getattr(first, name), getattr(other, name)), name
            assert first.n_dropped == other.n_dropped


def test_positivity_violation_in_one_snapshot_of_a_chunk_raises(monkeypatch):
    traj = _small_run(1e-4)
    snaps = [StateFields(s.data.copy()) for s in traj.snapshots]
    snaps[4].a[7] = -1.5  # the middle row of the chunk of snapshots 3 to 5
    monkeypatch.setattr("eulerfourier.lyapunov.CHUNK_POINTS", 3 * traj.grid.npts)
    with pytest.raises(PositivityViolation):
        lyapunov_residual(dataclasses.replace(traj, snapshots=snaps), [("high", 0)])
