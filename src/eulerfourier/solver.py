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

A state is one ``(d + 2, *grid.shape)`` stack [a, u_1, ..., u_d, theta]:
physical in :class:`~eulerfourier.grid.StateFields`, whose a, u and theta
are views of it, and in the solver the grid's band layout (the modes the
2/3 rule keeps), so one ``forward(..., band=True)`` or ``inverse`` call maps
a state across.  The quadratic and quotient terms are formed in one place,
:func:`_remainder_hat`.  The stepper advances it, and :func:`nonlinear_rhs`
(the full tendency that the Lyapunov and Duhamel checks read) is the linear
symbol plus the same remainder; :func:`linear_rhs` is a physical-space oracle.

A step's working set is three band stacks, about (2/3)**d of a full one
each: its input (reused for N(mid) - N(input)), N(input) and the midpoint,
which it returns.  The remainder holds u with [a, theta] for the flux rows,
then u with q = (theta - a)/(1 + a) alone for the momentum rows, one gradient
at a time; the tables form k/|k| and add into the midpoint row by row.  A
sample zero-fills only the band stack's squares, so its norms sum as before.

The continuity equation is advanced in divergence form, so the mean of
the density is conserved to rounding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import PeriodicGrid, StateFields
from .linear import reduced_symbol
from .littlewood import LittlewoodPaley, ShellSeries
from .reporting import Outcome, Verdict, config_hash


#: fraction of the advective bound that :func:`cfl_check` admits as a step
CFL_SAFETY = 0.4

#: least admissible value of 1 + a and 1 + theta
POSITIVITY_FLOOR = 0.1


class PositivityViolation(RuntimeError):
    """Density or temperature dipped below ``POSITIVITY_FLOOR``."""


class NonFinite(RuntimeError):
    """A field stopped being finite during time integration."""


def positivity_margin(state: StateFields) -> float:
    """How far a state or chunk is from vacuum: the least of 1 + a and 1 + theta
    (1 + the least a or theta, bit for bit as rounding is monotone), NaN if either holds one."""
    return float(np.minimum(1.0 + state.a.min(), 1.0 + state.theta.min()))


def check_trajectory(traj: TrajectoryRecord, mass_tol: float) -> Outcome:
    """A run's own health: ``mass-drift`` (the density mean's largest change,
    at most ``mass_tol``), ``nonfinite-samples`` (every sampled shell norm
    finite) and ``final-positivity-margin`` (the final state at least
    ``POSITIVITY_FLOOR``), with the critical-norm, signal-speed and
    density-mean curves."""
    times = traj.series.times
    drift = float(np.max(np.abs(traj.mean_a - traj.mean_a[0])))
    finite = bool(np.all(np.isfinite(traj.series.norms)))
    verdicts = [
        Verdict.from_bound("mass-drift", drift, mass_tol),
        Verdict.from_bound("nonfinite-samples", 0.0 if finite else 1.0, 0.0),
        Verdict.from_floor("final-positivity-margin", positivity_margin(traj.snapshots[-1]),
                           POSITIVITY_FLOOR),
    ]
    curves = {
        "critical_norm": (times, traj.series.critical(), {"what": "hybrid critical norm"}),
        "max_speed": (times, traj.max_speed, {}),
        "mean_density": (times, traj.mean_a, {}),
    }
    return Outcome(verdicts, curves)


@dataclass
class SolverConfig:
    """Time-stepping parameters.

    ``dt=None`` selects the largest step allowed by :func:`cfl_check`.
    ``epsilon0`` bounds the critical norm of the initial data whose
    smallness the decay theory requires, :meth:`ShellSeries.critical` at
    t = 0, where the run's critical curve starts; ``None`` skips that
    gate.  ``snapshot_stride=None`` keeps the final state only, as a
    one-element ``snapshots`` list.
    """

    dt: float | None = None
    t_end: float = 1.0
    epsilon0: float | None = 0.5
    sample_stride: int = 1
    snapshot_stride: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.t_end < np.inf:  # NaN and inf too: integrate counts steps from them
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.dt is not None and not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        if self.snapshot_stride is not None and self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1, or None for the final state only")


def cfl_check(grid: PeriodicGrid, state: StateFields) -> float:
    """Largest admissible explicit step for the advective/acoustic part.

    The exactly-integrated linear part contributes no restriction; the
    bound is grid spacing over the maximal local signal speed, the sound
    speed sqrt(1 + theta) plus the flow speed |u|.  At the zero state
    this reduces to ``CFL_SAFETY * dx`` (unit sound speed).
    """
    if not positivity_margin(state) > 0:
        raise PositivityViolation("density and temperature must stay positive for a wave speed")
    return CFL_SAFETY * grid.spacing / _max_speed(state)


def _max_speed(state: StateFields) -> float:
    """Maximal local signal speed sqrt(1 + theta) + |u|."""
    return float(np.max(np.sqrt(1.0 + state.theta) + np.sqrt(sum(um**2 for um in state.u))))


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
    ``scipy.linalg`` is imported here, so importing this module loads
    numpy only.
    """
    from scipy.linalg import expm

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
    e0 = ebig[:, :n, :n].reshape(shape).copy()  # a copy: a view would hold all of ebig
    f1 = (h * ebig[:, :n, n : 2 * n]).reshape(shape)
    f2 = (h * ebig[:, :n, 2 * n :]).reshape(shape)
    return e0, f1, f2


def _remainder_hat(
    grid: PeriodicGrid, hats: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Spectral nonlinear remainder (tendency minus linear part) and the input's positivity margin.

    The one place the quadratic and quotient terms are formed: -div(a u),
    -(u . grad) u - ((theta - a)/(1 + a)) grad a, and
    -div(theta u) - (a/(1 + a)) Lap theta, each kept on the 2/3-rule band.
    ``hats`` and the result are band stacks, the result written into ``out`` when given.
    """
    d = grid.dim
    u = grid.inverse(hats[1:-1])
    a, theta = fields = grid.inverse(hats[:: d + 1])
    margin = 1.0 + float(fields.min())  # positivity_margin, as rounding is monotone

    out = np.empty_like(hats) if out is None else out
    out[...] = 0.0
    # continuity: -div(a u), kept in divergence form
    for m in range(d):
        out[0] -= grid.derivative_hat(grid.forward(a * u[m], band=True), m)
    for m in range(d):
        out[-1] -= grid.derivative_hat(grid.forward(theta * u[m], band=True), m)

    # in place over [a, theta]: q = (theta - a)/(1 + a), then -a/(1 + a)
    one_a = 1.0 + a
    np.divide(np.subtract(theta, a, out=theta), one_a, out=theta)
    np.negative(np.divide(a, one_a, out=a), out=a)
    del one_a
    lap = grid.inverse(-(grid.band_kmag**2) * hats[-1])
    lap *= a
    out[-1] += grid.forward(lap, band=True)
    q = theta.copy()  # so that [a, theta] is freed
    del a, theta, fields, lap

    for m in range(d):
        adv = np.zeros_like(q)  # one gradient live at a time: -sum_n u_n d_n u_m - q d_m a
        for n in range(d):
            adv += u[n] * grid.inverse(grid.derivative_hat(hats[1 + m], n))
        np.negative(adv, out=adv)
        adv -= q * grid.inverse(grid.derivative_hat(hats[0], m))
        out[1 + m] = grid.forward(adv, band=True)
    return out, margin


class Stepper:
    """ETDRK2 stepper on band stacks, with propagator tables cached per band radius."""

    def __init__(self, grid: PeriodicGrid, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.grid = grid

        r_unique, idx = np.unique(np.round(grid.band_kmag, 12), return_inverse=True)
        self._idx = idx.reshape(grid.band_shape)
        self._e0, self._f1, self._f2 = _phi_tables(reduced_symbol(r_unique), dt)

        # transverse velocity: scalar damping with the same phi calculus
        e0t, f1t, f2t = _phi_tables(np.array([[[-1.0 + 0j]]]), dt)
        self._perp = (complex(e0t[0, 0, 0]), complex(f1t[0, 0, 0]), complex(f2t[0, 0, 0]))

    def _apply_table(self, table: np.ndarray, hats: np.ndarray, scalar: complex,
                     out: np.ndarray, add: bool = True) -> None:
        """Apply a per-radius 3x3 table to (a, u_par, theta) and damp u_perp,
        adding the result into ``out`` (storing it, if not ``add``) one row at a time."""
        put = (lambda row, value: np.add(out[row], value, out=out[row])) if add else out.__setitem__
        ah, uh, th = hats[0], hats[1:-1], hats[-1]
        kmag = self.grid.band_kmag
        unit_k = [np.divide(km, kmag, out=np.zeros(kmag.shape), where=kmag > 0)
                  for km in self.grid.band_wavenumbers]
        upar = sum(k * um for k, um in zip(unit_k, uh))

        # one gather per entry: a gathered (*shape, 3, 3) block is read with strides
        def t(i: int, j: int) -> np.ndarray:
            return table[:, i, j][self._idx]

        put(0, t(0, 0) * ah + t(0, 1) * upar + t(0, 2) * th)
        p2 = t(1, 0) * ah + t(1, 1) * upar + t(1, 2) * th
        put(-1, t(2, 0) * ah + t(2, 1) * upar + t(2, 2) * th)
        for m, (k, um) in enumerate(zip(unit_k, uh)):
            put(1 + m, k * p2 + scalar * (um - k * upar))

    def step_hat(self, hats: np.ndarray) -> np.ndarray:
        """One ETDRK2 step on a band stack, which it consumes: its buffer
        is reused for N(mid) - N(hats).  Sets ``margin`` to the input's positivity margin."""
        n0, self.margin = _remainder_hat(self.grid, hats)
        e0, f1, f2 = self._e0, self._f1, self._f2
        s0, s1, s2 = self._perp

        mid = np.empty_like(hats)
        self._apply_table(e0, hats, s0, mid, add=False)
        self._apply_table(f1, n0, s1, mid)

        dn = _remainder_hat(self.grid, mid, out=hats)[0]
        dn -= n0
        del n0
        self._apply_table(f2, dn, s2, mid)
        return mid


# ----------------------------------------------------------------------
def linear_rhs(grid: PeriodicGrid, state: StateFields) -> StateFields:
    """Tendency of the linearised system, in physical space (a test oracle)."""
    div_u = grid.divergence(state.u)
    grad_a = grid.gradient(state.a)
    grad_th = grid.gradient(state.theta)
    return StateFields(np.stack([-div_u, *(-grad_a - state.u - grad_th),
                                 -div_u + grid.laplacian(state.theta)]))


def nonlinear_rhs(grid: PeriodicGrid, state: StateFields) -> StateFields:
    """Full tendency of the nonlinear system (linear part included).

    The state enters as its band layout, the linear symbol is applied mode
    by mode and the remainder is the stepper's own :func:`_remainder_hat`,
    so this is the band-limited tendency the integrator advances.
    """
    if not positivity_margin(state) > 0:
        raise PositivityViolation("1 + a and 1 + theta must stay positive to form quotients")
    d = grid.dim
    hats = grid.forward(state.data, band=True)
    out = _remainder_hat(grid, hats)[0]
    ah, uh, th = hats[0], hats[1:-1], hats[-1]
    div_u = sum(grid.derivative_hat(uh[m], m) for m in range(d))
    out[0] -= div_u
    for m in range(d):
        out[1 + m] += -grid.derivative_hat(ah, m) - uh[m] - grid.derivative_hat(th, m)
    out[-1] += -div_u - grid.band_kmag**2 * th
    return StateFields(grid.inverse(out))


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


def _check_admissible(state: StateFields) -> None:
    if not np.all(np.isfinite(state.data)):
        raise NonFinite("initial data contains non-finite values")
    if not positivity_margin(state) >= POSITIVITY_FLOOR:
        raise PositivityViolation(
            f"initial density/temperature below positivity floor {POSITIVITY_FLOOR}"
        )


def integrate(
    grid: PeriodicGrid,
    state0: StateFields,
    config: SolverConfig,
    lp: LittlewoodPaley | None = None,
) -> TrajectoryRecord:
    """March the system to ``config.t_end`` recording shell norms.

    ``state0`` is transformed once, to the band, and the ``epsilon0`` gate reads
    sample 0's critical norm before any propagator table is built.  Every step
    checks all spectral components for finiteness and its input for the
    positivity floor, raising :class:`NonFinite` or :class:`PositivityViolation`
    with the failure time.  Diagnostics are sampled every ``sample_stride`` steps:
    per-shell L^2 norms of each component (the raw material of every Besov-type
    functional downstream), the density mean and the maximum signal speed.  Full
    snapshots are kept every ``snapshot_stride`` samples, and the final state
    always.  ``state0`` is left unchanged and dropped before sample 0, so a
    temporary passed in is freed before the first sample (CPython 3.11+).
    """
    if lp is None:
        lp = LittlewoodPaley(grid)
    _check_admissible(state0)
    hats = grid.forward(state0.data, band=True)

    times: list[float] = []
    shell_rows: list[np.ndarray] = []  # per sample: (shells, 3, 1) norms
    mean_a: list[float] = []
    max_speed: list[float] = []
    snap_times: list[float] = []
    snaps: list[StateFields] = []

    def sample(i_sample: int, t: float, hats_now: np.ndarray, final: bool = False) -> None:
        times.append(t)
        shell_rows.append(ShellSeries.of_hats(lp, hats_now).norms)
        mean_a.append(float(np.real(hats_now[0].flat[0])))
        state = StateFields(grid.inverse(hats_now))
        if not positivity_margin(state) >= POSITIVITY_FLOOR:
            raise PositivityViolation(f"positivity floor crossed at t={t:g}")
        max_speed.append(_max_speed(state))
        # the final state is always kept: downstream checks (positivity
        # margin, checkpointing, Duhamel) need it
        stride = config.snapshot_stride
        if final or (stride is not None and i_sample % stride == 0):
            snap_times.append(t)
            snaps.append(state)

    def series(norms: np.ndarray) -> ShellSeries:  # (shells, 3, samples so far)
        return ShellSeries(np.asarray(times), tuple(lp.shells), grid.dim, norms)

    bound = cfl_check(grid, state0)
    del state0  # the band stack is all the run reads of it, from sample 0 on
    sample(0, 0.0, hats)
    if config.epsilon0 is not None:
        size = float(series(shell_rows[0]).critical()[0])
        if not size <= config.epsilon0:
            raise ValueError(
                f"initial data critical norm {size:.3e} exceeds epsilon0 "
                f"{config.epsilon0:.3e}; pass epsilon0=None to bypass"
            )

    dt = config.dt if config.dt is not None else bound
    if dt > bound * (1.0 + 1e-12):
        raise ValueError(f"dt={dt:g} exceeds the advective bound {bound:g}")
    n_steps = max(1, int(np.ceil(config.t_end / dt - 1e-12)))
    dt = config.t_end / n_steps

    stepper = Stepper(grid, dt)
    i_sample = 1
    for i_step in range(1, n_steps + 1):
        hats = stepper.step_hat(hats)
        if not stepper.margin >= POSITIVITY_FLOOR:  # every step's input, sampled or not
            raise PositivityViolation(f"positivity floor crossed at t={(i_step - 1) * dt:g}")
        # a NaN or inf anywhere in a component makes its sum non-finite
        if not np.isfinite(np.sum(hats)):
            raise NonFinite(f"solution lost finiteness at t={i_step * dt:g}")
        if i_step % config.sample_stride == 0 or i_step == n_steps:
            sample(i_sample, i_step * dt, hats, final=i_step == n_steps)
            i_sample += 1

    return TrajectoryRecord(
        grid=grid,
        config=config,
        dt=dt,
        series=series(np.concatenate(shell_rows, axis=2)),
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
        state = StateFields(np.concatenate([data["a"][None], data["u"], data["theta"][None]]))
    return grid, state, float(meta["time"]), meta
