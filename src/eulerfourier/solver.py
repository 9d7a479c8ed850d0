"""Pseudo-spectral exponential integrator for the damped Euler-Fourier system.

The evolved unknowns are the density perturbation a = rho - 1, the
velocity u and the temperature perturbation theta = T - 1:

    da/dt     = -div((1 + a) u)
    du_m/dt   = -d_m a - u_m - d_m theta - (u . grad) u_m
                - ((theta - a) / (1 + a)) d_m a
    dtheta/dt = -div u + Lap theta - div(theta u) - (a/(1+a)) Lap theta

The linear part is integrated exactly mode by mode (its stiff heat and
damping scales therefore impose no step restriction); the quadratic and
quotient remainders are advanced with a two-stage exponential
Runge-Kutta correction (ETDRK2).  Per mode the linear symbol splits into
a longitudinal 3x3 block depending only on |k| plus pure damping of the
transverse velocity, so the propagator and both phi-function tables are
built once per distinct radius from a single augmented-block matrix
exponential (scaling-and-squaring Pade), never by diagonalisation.

The continuity equation is advanced in divergence form, so the mean of
the density is conserved to rounding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from .grid import PeriodicGrid, StateFields
from .linear import reduced_symbol
from .littlewood import LittlewoodPaley, ShellSeries
from .reporting import config_hash


class PositivityViolation(RuntimeError):
    """Density or temperature dipped below the configured floor."""


class NonFinite(RuntimeError):
    """A field stopped being finite during time integration."""


@dataclass
class SolverConfig:
    """Time-stepping parameters.

    ``dt=None`` selects the largest step allowed by :func:`cfl_check`.
    ``epsilon0`` bounds the smallness proxy of the initial data (the
    critical norm whose smallness the decay theory requires); ``None``
    skips that gate.  ``positivity_floor`` is the least admissible value
    of 1 + a and 1 + theta.
    """

    dt: float | None = None
    t_end: float = 1.0
    cfl_safety: float = 0.4
    positivity_floor: float = 0.1
    epsilon0: float | None = 0.5
    dealias: bool = True
    sample_stride: int = 1
    snapshot_stride: int | None = None

    def __post_init__(self) -> None:
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 < self.positivity_floor < 1:
            raise ValueError("positivity_floor must lie in (0, 1)")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


def cfl_check(grid: PeriodicGrid, state: StateFields, cfl_safety: float = 0.4) -> float:
    """Largest admissible explicit step for the advective/acoustic part.

    The exactly-integrated linear part contributes no restriction; the
    bound is grid spacing over the maximal local signal speed, the sound
    speed sqrt(1 + theta) plus the flow speed |u|.  At the zero state
    this reduces to cfl_safety * dx (unit sound speed).
    """
    if not 0 < cfl_safety <= 1:
        raise ValueError("cfl_safety must lie in (0, 1]")
    one_theta = 1.0 + state.theta
    if np.min(one_theta) <= 0:
        raise PositivityViolation("temperature must stay positive for a wave speed")
    speed = np.sqrt(one_theta) + np.sqrt(sum(um**2 for um in state.u))
    return float(cfl_safety * grid.spacing / np.max(speed))


# ----------------------------------------------------------------------
def _phi_tables(mats: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(hM), h*phi1(hM), h*phi2(hM) for a stack of small matrices.

    Uses the augmented block matrix

        C = [[hM, I, 0], [0, 0, I], [0, 0, 0]]

    whose exponential carries exp(hM), phi1(hM) and phi2(hM) in its top
    block row; this stays well conditioned where hM is singular, which
    the symbol always is at the origin.

    The exponential stays on scipy's expm, not :func:`linear.expm_stack`
    (which agrees with it to 1e-13 on these blocks): the Lyapunov
    residuals of ``perfbench``'s lyapunov-audit workload move by more
    than its 1e-6 drift gate when these tables change by one ulp, so
    the switch waits for references recorded with the new kernel.
    """
    n = mats.shape[-1]
    stack = mats.reshape(-1, n, n)
    m = stack.shape[0]
    eye = np.broadcast_to(np.eye(n), (m, n, n))
    big = np.zeros((m, 3 * n, 3 * n), dtype=complex)
    big[:, :n, :n] = h * stack
    big[:, :n, n : 2 * n] = eye
    big[:, n : 2 * n, 2 * n :] = eye
    ebig = expm(big)
    shape = mats.shape
    e0 = ebig[:, :n, :n].reshape(shape)
    f1 = (h * ebig[:, :n, n : 2 * n]).reshape(shape)
    f2 = (h * ebig[:, :n, 2 * n :]).reshape(shape)
    return e0, f1, f2


class Stepper:
    """ETDRK2 stepper with cached per-radius propagator tables."""

    def __init__(self, grid: PeriodicGrid, dt: float, dealias: bool = True):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.grid = grid
        self.dt = dt
        self.dealias = dealias

        kmag = grid.kmag
        r_unique, idx = np.unique(np.round(kmag, 12), return_inverse=True)
        self._idx = idx.reshape(grid.shape)
        e0, f1, f2 = _phi_tables(reduced_symbol(r_unique), dt)
        self._e0, self._f1, self._f2 = e0, f1, f2

        # transverse velocity: scalar damping with the same phi calculus
        e0t, f1t, f2t = _phi_tables(np.array([[[-1.0 + 0j]]]), dt)
        self._perp = (complex(e0t[0, 0, 0]), complex(f1t[0, 0, 0]), complex(f2t[0, 0, 0]))

        with np.errstate(invalid="ignore", divide="ignore"):
            self._unit_k = [np.where(kmag > 0, km / kmag, 0.0) for km in grid.wavenumbers]
            for m, km in enumerate(grid.wavenumbers):
                self._unit_k[m] = np.broadcast_to(self._unit_k[m], grid.shape)

    # -- spectral packing ------------------------------------------------
    def _to_hat(self, state: StateFields) -> list[np.ndarray]:
        g = self.grid
        hats = [g.forward(c) for c in state.components()]
        if self.dealias:
            hats = [g.dealias(h) for h in hats]
        return hats

    def _to_state(self, hats: list[np.ndarray]) -> StateFields:
        g = self.grid
        d = g.dim
        return StateFields(
            a=g.inverse(hats[0]),
            u=np.stack([g.inverse(hats[1 + m]) for m in range(d)]),
            theta=g.inverse(hats[d + 1]),
        )

    def _apply_table(self, table: np.ndarray, hats: list[np.ndarray], scalar: complex) -> list[np.ndarray]:
        """Apply a per-radius 3x3 table to (a, u_par, theta); damp u_perp."""
        d = self.grid.dim
        ah, th = hats[0], hats[d + 1]
        uh = hats[1 : d + 1]
        upar = sum(self._unit_k[m] * uh[m] for m in range(d))
        uperp = [uh[m] - self._unit_k[m] * upar for m in range(d)]

        t = table[self._idx]  # (*shape, 3, 3)
        a2 = t[..., 0, 0] * ah + t[..., 0, 1] * upar + t[..., 0, 2] * th
        p2 = t[..., 1, 0] * ah + t[..., 1, 1] * upar + t[..., 1, 2] * th
        t2 = t[..., 2, 0] * ah + t[..., 2, 1] * upar + t[..., 2, 2] * th
        out_u = [self._unit_k[m] * p2 + scalar * uperp[m] for m in range(d)]
        return [a2, *out_u, t2]

    # -- physics ---------------------------------------------------------
    def _nonlinear_hat(self, hats: list[np.ndarray]) -> list[np.ndarray]:
        """Spectral nonlinear remainder (full tendency minus linear part)."""
        g = self.grid
        d = g.dim
        ah, th = hats[0], hats[d + 1]
        uh = hats[1 : d + 1]

        a = g.inverse(ah)
        theta = g.inverse(th)
        u = [g.inverse(uh[m]) for m in range(d)]
        grad_a = [g.inverse(g.derivative_hat(ah, m)) for m in range(d)]
        grad_th = [g.inverse(g.derivative_hat(th, m)) for m in range(d)]
        grad_u = [[g.inverse(g.derivative_hat(uh[m], n)) for n in range(d)] for m in range(d)]
        lap_th = g.inverse(-(g.kmag**2) * th)

        one_a = 1.0 + a
        q = (theta - a) / one_a
        s = a / one_a

        # continuity: -div(a u), kept in divergence form
        na = np.zeros(g.shape, dtype=complex)
        for m in range(d):
            na -= g.derivative_hat(g.forward(a * u[m]), m)

        nu = []
        for m in range(d):
            adv = sum(u[n] * grad_u[m][n] for n in range(d))
            nu.append(g.forward(-adv - q * grad_a[m]))

        transport = np.zeros(g.shape, dtype=complex)
        for m in range(d):
            transport -= g.derivative_hat(g.forward(theta * u[m]), m)
        nth = transport + g.forward(-s * lap_th)

        out = [na, *nu, nth]
        if self.dealias:
            out = [g.dealias(h) for h in out]
        return out

    def step_hat(self, hats: list[np.ndarray]) -> list[np.ndarray]:
        """One ETDRK2 step on spectral components."""
        n0 = self._nonlinear_hat(hats)
        e0, f1, f2 = self._e0, self._f1, self._f2
        s0, s1, s2 = self._perp

        lin = self._apply_table(e0, hats, s0)
        kick = self._apply_table(f1, n0, s1)
        mid = [lin[i] + kick[i] for i in range(len(hats))]

        n1 = self._nonlinear_hat(mid)
        dn = [n1[i] - n0[i] for i in range(len(hats))]
        corr = self._apply_table(f2, dn, s2)
        return [mid[i] + corr[i] for i in range(len(hats))]

    def step(self, state: StateFields) -> StateFields:
        return self._to_state(self.step_hat(self._to_hat(state)))


# ----------------------------------------------------------------------
def linear_rhs(grid: PeriodicGrid, state: StateFields) -> StateFields:
    """Tendency of the linearised system."""
    div_u = grid.divergence(state.u)
    grad_a = grid.gradient(state.a)
    grad_th = grid.gradient(state.theta)
    du = np.stack([-grad_a[m] - state.u[m] - grad_th[m] for m in range(grid.dim)])
    return StateFields(a=-div_u, u=du, theta=-div_u + grid.laplacian(state.theta))


def nonlinear_rhs(grid: PeriodicGrid, state: StateFields, dealias: bool = True) -> StateFields:
    """Full tendency of the nonlinear system (linear part included)."""
    d = grid.dim
    a, u, theta = state.a, state.u, state.theta
    one_a = 1.0 + a
    if np.min(one_a) <= 0:
        raise PositivityViolation("1 + a must stay positive to form quotients")

    def maybe(fh):
        return grid.dealias(fh) if dealias else fh

    grad_a = [grid.inverse(grid.derivative_hat(grid.forward(a), m)) for m in range(d)]
    grad_th = [grid.inverse(grid.derivative_hat(grid.forward(theta), m)) for m in range(d)]
    uh = [grid.forward(u[m]) for m in range(d)]
    div_u = grid.inverse(sum(grid.derivative_hat(uh[m], m) for m in range(d)))
    lap_th = grid.laplacian(theta)

    # continuity in divergence form: -div((1 + a) u)
    da_hat = np.zeros(grid.shape, dtype=complex)
    for m in range(d):
        da_hat -= grid.derivative_hat(maybe(grid.forward(one_a * u[m])), m)
    da = grid.inverse(da_hat)

    q = (theta - a) / one_a
    du = []
    for m in range(d):
        adv = sum(u[n] * grid.inverse(grid.derivative_hat(uh[m], n)) for n in range(d))
        rhs = -grad_a[m] - u[m] - grad_th[m] - adv - q * grad_a[m]
        du.append(grid.inverse(maybe(grid.forward(rhs))))

    dth = -(1.0 + theta) * div_u - sum(u[m] * grad_th[m] for m in range(d)) + lap_th / one_a
    dth = grid.inverse(maybe(grid.forward(dth)))
    return StateFields(a=da, u=np.stack(du), theta=dth)


# ----------------------------------------------------------------------
@dataclass
class TrajectoryRecord:
    """Sampled output of :func:`integrate`."""

    grid: PeriodicGrid
    config: SolverConfig
    dt: float
    series: ShellSeries
    mean_a: np.ndarray
    max_speed: np.ndarray
    snapshot_times: list[float]
    snapshots: list[StateFields]


def _check_admissible(
    grid: PeriodicGrid, state: StateFields, config: SolverConfig, lp: LittlewoodPaley
) -> None:
    if not state.is_finite():
        raise NonFinite("initial data contains non-finite values")
    floor = config.positivity_floor
    if np.min(1.0 + state.a) < floor or np.min(1.0 + state.theta) < floor:
        raise PositivityViolation(
            f"initial density/temperature below positivity floor {floor}"
        )
    if config.epsilon0 is not None:
        size = critical_norm(lp, state)
        if size > config.epsilon0:
            raise ValueError(
                f"initial data critical norm {size:.3e} exceeds epsilon0 "
                f"{config.epsilon0:.3e}; pass epsilon0=None to bypass"
            )


def critical_norm(lp: LittlewoodPaley, state: StateFields) -> float:
    """Smallness proxy: critical-regularity norm of the data.

    Low frequencies are measured at regularity d/2, high frequencies at
    d/2 + 1, each summed over the d + 2 scalar fields (a, each u_m, theta).
    This makes the ``epsilon0`` gate the stricter of the two critical
    norms of the same shells: :meth:`ShellSeries.critical`, which takes
    the ell^2 composite over components shell by shell, is at most this
    value, and this value is at most sqrt(d + 2) times it.
    """
    d = lp.grid.dim
    total = 0.0
    for fld in (state.a, *list(state.u), state.theta):
        total += lp.besov_norm(fld, d / 2.0, regime="low")
        total += lp.besov_norm(fld, d / 2.0 + 1.0, regime="high")
    return total


def integrate(
    grid: PeriodicGrid,
    state0: StateFields,
    config: SolverConfig,
    lp: LittlewoodPaley | None = None,
) -> TrajectoryRecord:
    """March the system to ``config.t_end`` recording shell norms.

    Every step checks all spectral components for finiteness and raises
    :class:`NonFinite` with the failure time.  Diagnostics are sampled
    every ``sample_stride`` steps: per-shell L^2
    norms of each component (the raw material of every Besov-type
    functional downstream), the density mean and the maximum signal
    speed.  Full snapshots are kept every ``snapshot_stride`` samples
    when requested.
    """
    if lp is None:
        lp = LittlewoodPaley(grid)
    _check_admissible(grid, state0, config, lp)

    bound = cfl_check(grid, state0, config.cfl_safety)
    dt = config.dt if config.dt is not None else bound
    if dt > bound * (1.0 + 1e-12):
        raise ValueError(f"dt={dt:g} exceeds the advective bound {bound:g}")
    n_steps = max(1, int(np.ceil(config.t_end / dt - 1e-12)))
    dt = config.t_end / n_steps

    stepper = Stepper(grid, dt, dealias=config.dealias)
    hats = stepper._to_hat(state0)

    times: list[float] = []
    shell_rows: list[list[tuple]] = []  # per sample: (a, u, theta) norms per shell
    mean_a: list[float] = []
    max_speed: list[float] = []
    snap_times: list[float] = []
    snaps: list[StateFields] = []

    d = grid.dim

    def sample(i_sample: int, t: float, hats_now: list[np.ndarray]) -> None:
        times.append(t)
        rows = []
        for j in lp.shells:
            mult = lp.shell_multiplier(j)
            rows.append((
                grid.l2_norm_hat(hats_now[0] * mult),
                float(np.sqrt(sum(grid.l2_norm_hat(hats_now[1 + m] * mult) ** 2 for m in range(d)))),
                grid.l2_norm_hat(hats_now[d + 1] * mult),
            ))
        shell_rows.append(rows)
        mean_a.append(float(np.real(hats_now[0].flat[0])))
        state = stepper._to_state(hats_now)
        if np.min(1.0 + state.a) < config.positivity_floor or np.min(
            1.0 + state.theta
        ) < config.positivity_floor:
            raise PositivityViolation(f"positivity floor crossed at t={t:g}")
        max_speed.append(float(np.max(np.sqrt(np.abs(1.0 + state.theta)) + np.sqrt(sum(um**2 for um in state.u)))))
        if config.snapshot_stride is not None and i_sample % config.snapshot_stride == 0:
            snap_times.append(t)
            snaps.append(state.copy())

    sample(0, 0.0, hats)
    i_sample = 1
    for i_step in range(1, n_steps + 1):
        hats = stepper.step_hat(hats)
        # a NaN or inf anywhere in a component makes its sum non-finite
        if not all(np.isfinite(np.sum(h)) for h in hats):
            raise NonFinite(f"solution lost finiteness at t={i_step * dt:g}")
        if i_step % config.sample_stride == 0 or i_step == n_steps:
            sample(i_sample, i_step * dt, hats)
            i_sample += 1

    # when snapshots are requested at all, the final state is always kept:
    # downstream checks (positivity margin, checkpointing, Duhamel) need it
    if config.snapshot_stride is not None and (
        not snap_times or snap_times[-1] != times[-1]
    ):
        snap_times.append(times[-1])
        snaps.append(stepper._to_state(hats).copy())

    norms = np.array(shell_rows).transpose(1, 2, 0).copy()  # (shells, 3, times)
    return TrajectoryRecord(
        grid=grid,
        config=config,
        dt=dt,
        series=ShellSeries(np.asarray(times), tuple(lp.shells), d, norms),
        mean_a=np.asarray(mean_a),
        max_speed=np.asarray(max_speed),
        snapshot_times=snap_times,
        snapshots=snaps,
    )


# ----------------------------------------------------------------------

def save_checkpoint(
    path: str | Path, grid: PeriodicGrid, state: StateFields, t: float, meta: dict | None = None
) -> None:
    """Binary array dump plus a text sidecar describing it."""
    path = Path(path)
    np.savez(path.with_suffix(".npz"), a=state.a, u=state.u, theta=state.theta)
    meta = dict(meta or {})
    meta.update(
        {
            "dim": grid.dim,
            "npts": grid.npts,
            "length": grid.length,
            "time": t,
            "format": "eulerfourier-checkpoint-v1",
        }
    )
    meta["digest"] = config_hash(json.dumps(meta, sort_keys=True, separators=(",", ":")))
    lines = [f"{k} = {meta[k]}" for k in sorted(meta)]
    path.with_suffix(".txt").write_text("\n".join(lines) + "\n")


def load_checkpoint(path: str | Path) -> tuple[PeriodicGrid, StateFields, float, dict]:
    path = Path(path)
    meta: dict = {}
    for line in path.with_suffix(".txt").read_text().splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            meta[k.strip()] = v.strip()
    grid = PeriodicGrid(int(meta["dim"]), int(meta["npts"]), float(meta["length"]))
    with np.load(path.with_suffix(".npz")) as data:
        state = StateFields(a=data["a"], u=data["u"], theta=data["theta"])
    return grid, state, float(meta["time"]), meta
