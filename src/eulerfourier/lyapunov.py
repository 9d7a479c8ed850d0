"""Per-shell energy/dissipation functionals and the differential inequality check.

Two families of functionals are evaluated on shell-filtered states.  Below
the frequency threshold the mixed term ``eta1 * <grad a_j, u_j>`` carries a
fixed weight and extracts density dissipation from the damping; above it the
density energy is weighted by ``(1+theta)/(1+a)**2`` (the entropic weight
that symmetrises the variable sound speed) and the mixed term is scaled by
``eta2 * 2**(-2j)`` so it stays subordinate on small scales.

The headline diagnostic, :func:`lyapunov_residual`, differentiates the
energy functional along stored solver snapshots and checks that

    d/dt E_j + c * Q_j  <=  budget * (nonlinear norm products)

where ``Q_j`` is the target dissipation quadratic form of the regime and
``c`` is half the worst-phase coercivity margin of ``D_j`` against ``Q_j``.
Everything on both sides is computed from the same snapshot data, so the
check probes the trajectory itself, not the solver internals.  The pass
rule lives in one place, :attr:`LyapunovResidualSeries.verdict`: the
worst ratio of the left side to the nonlinear products is at most
``budget``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .grid import PeriodicGrid, StateFields, alias_free_product
from .littlewood import LittlewoodPaley
from .reporting import Verdict
from .solver import PositivityViolation, TrajectoryRecord, nonlinear_rhs

__all__ = [
    "StrideTooCoarse",
    "LyapunovResidualSeries",
    "low_freq_functionals",
    "high_freq_functionals",
    "commutator_remainders",
    "coercivity_margin",
    "lyapunov_residual",
]

DEFAULT_ETA = 0.1
RESIDUAL_BUDGET = 16.0

# relative share of the dissipation that the centered-difference error may
# consume before a sample is discarded as unreliable
FD_ERROR_SHARE = 0.1

# shell dissipation below this fraction of the state's squared L2 size is
# roundoff: double precision puts the noise floor near 1e-32 of the state
# scale, and any shell carrying real content sits many orders above 1e-24.
# Such samples pass vacuously instead of dividing noise by noise.
VACUOUS_SHARE = 1e-24


class StrideTooCoarse(RuntimeError):
    """Snapshot spacing too large for trustworthy time differencing."""


# ----------------------------------------------------------------------
# quadrature helpers


def _inner(grid: PeriodicGrid, f: np.ndarray, g: np.ndarray) -> float:
    return float(np.sum(f * g) * grid.cell_volume)


def _sq(grid: PeriodicGrid, f: np.ndarray) -> float:
    return float(np.sum(f * f) * grid.cell_volume)


def _vec_sq(grid: PeriodicGrid, vec) -> float:
    return float(sum(_sq(grid, comp) for comp in vec))


def _check_positive(state: StateFields) -> None:
    if np.min(state.a) <= -1.0 or np.min(state.theta) <= -1.0:
        raise PositivityViolation("density or temperature lost positivity")


# ----------------------------------------------------------------------
# functionals


def _shell_functionals(
    lp: LittlewoodPaley, state: StateFields, j: int, beta: float, weight
) -> tuple[float, float]:
    """Energy and dissipation of shell ``j``: mixed weight ``beta`` and
    density weight ``weight`` (a scalar or a pointwise field)."""
    grid = lp.grid
    a_j = lp.block(state.a, j)
    u_j = [lp.block(comp, j) for comp in state.u]
    th_j = lp.block(state.theta, j)
    grad_a = grid.gradient(a_j)
    grad_th = grid.gradient(th_j)

    cross_au = sum(_inner(grid, ga, uc) for ga, uc in zip(grad_a, u_j))
    energy = 0.5 * (
        _inner(grid, weight, a_j * a_j) + _vec_sq(grid, u_j) + _sq(grid, th_j)
    )
    energy += beta * cross_au

    div_u = grid.divergence(np.stack(u_j))
    cross_tha = sum(_inner(grid, gt, ga) for gt, ga in zip(grad_th, grad_a))
    dissipation = (
        _vec_sq(grid, u_j)
        + _vec_sq(grid, grad_th)
        + beta * _vec_sq(grid, grad_a)
        - beta * _sq(grid, div_u)
        + beta * cross_au
        + beta * cross_tha
    )
    return energy, dissipation


def low_freq_functionals(
    lp: LittlewoodPaley, state: StateFields, j: int, eta1: float = DEFAULT_ETA
) -> tuple[float, float]:
    """Energy and dissipation of shell ``j`` with the fixed mixed weight.

    Returns ``(E1, D1)`` where

        E1 = 1/2 ||(a_j, u_j, th_j)||^2 + eta1 <grad a_j, u_j>
        D1 = ||u_j||^2 + ||grad th_j||^2 + eta1 ||grad a_j||^2
             - eta1 ||div u_j||^2 + eta1 <u_j, grad a_j>
             + eta1 <grad th_j, grad a_j>
    """
    if not 0.0 < eta1 < 1.0:
        raise ValueError("eta1 must lie in (0, 1)")
    return _shell_functionals(lp, state, j, eta1, 1.0)


def high_freq_functionals(
    lp: LittlewoodPaley, state: StateFields, j: int, eta2: float = DEFAULT_ETA
) -> tuple[float, float]:
    """Energy and dissipation of shell ``j`` with the entropic weight.

    The density term of the energy carries the pointwise weight
    ``(1+theta)/(1+a)**2`` evaluated on the unfiltered state, and every
    mixed/auxiliary term is scaled by ``eta2 * 2**(-2j)``.
    """
    if not 0.0 < eta2 < 1.0:
        raise ValueError("eta2 must lie in (0, 1)")
    _check_positive(state)
    weight = (1.0 + state.theta) / (1.0 + state.a) ** 2
    return _shell_functionals(lp, state, j, eta2 * 2.0 ** (-2 * j), weight)


# ----------------------------------------------------------------------
# commutator remainders


def commutator_remainders(
    lp: LittlewoodPaley, state: StateFields, j: int
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Remainder fields measuring how far shell filtering is from commuting
    with multiplication by the solution-dependent coefficients.

    With ``[P_j, f] g = P_j(f g) - f P_j(g)`` (both products alias-free on a
    refined grid):

        R1 = -[P_j, 1+a] div u - sum_m [P_j, u_m] d_m a
        R2_m = -sum_n [P_j, u_n] d_n u_m - [P_j, (1+theta)/(1+a)] d_m a
        R3 = [P_j, a/(1+a)] lap theta
    """
    _check_positive(state)
    grid = lp.grid
    fine = grid.refine(2)
    d = grid.dim

    def commutator(f: np.ndarray, g: np.ndarray) -> np.ndarray:
        first = lp.block(alias_free_product(grid, fine, f, g), j)
        second = alias_free_product(grid, fine, f, lp.block(g, j))
        return first - second

    div_u = grid.divergence(state.u)
    grad_a = grid.gradient(state.a)
    ratio_v = (1.0 + state.theta) / (1.0 + state.a)
    ratio_s = state.a / (1.0 + state.a)

    r1 = -commutator(state.a, div_u)
    for m in range(d):
        r1 -= commutator(state.u[m], grad_a[m])

    r2 = []
    for m in range(d):
        comp = -commutator(ratio_v, grad_a[m])
        grad_um = grid.gradient(state.u[m])
        for n in range(d):
            comp -= commutator(state.u[n], grad_um[n])
        r2.append(comp)

    r3 = commutator(ratio_s, grid.laplacian(state.theta))
    return r1, r2, r3


# ----------------------------------------------------------------------
# coercivity margins


def coercivity_margin(j: int, eta: float = DEFAULT_ETA, regime: str = "low", samples: int = 257) -> float:
    """Worst-phase lower bound of D_j against the regime's target form.

    For a single wavevector of radius ``r`` the dissipation, minimised
    over all relative phases of the mode amplitudes ``(|a|, |u_par|,
    |theta|)``, is the quadratic form

        F(r) = [[b r^2, -b r/2, -b r^2/2],
                [-b r/2, 1 - b r^2, 0],
                [-b r^2/2, 0, r^2]]

    with ``b = eta`` (low) or ``b = eta * 2**(-2j)`` (high); the transverse
    velocity enters both sides with coefficient one.  The returned margin is
    the minimum over the shell's support of the smallest generalized
    eigenvalue of ``F`` against the target ``diag(4^j, 1, 4^j)`` (low) or
    ``diag(1, 1, 4^j)`` (high), capped at one.  Since both forms are
    diagonal over wavevectors, ``D_j >= margin * Q_j`` holds for every state
    supported on the shell.
    """
    if regime == "low":
        beta = eta
        target = np.array([4.0**j, 1.0, 4.0**j])
    elif regime == "high":
        beta = eta * 2.0 ** (-2 * j)
        target = np.array([1.0, 1.0, 4.0**j])
    else:
        raise ValueError(f"unknown regime {regime!r}")

    radii = np.linspace(0.75 * 2.0**j, (8.0 / 3.0) * 2.0**j, samples)
    margin = 1.0
    g = np.diag(target)
    for r in radii:
        f = np.array(
            [
                [beta * r * r, -beta * r / 2.0, -beta * r * r / 2.0],
                [-beta * r / 2.0, 1.0 - beta * r * r, 0.0],
                [-beta * r * r / 2.0, 0.0, r * r],
            ]
        )
        margin = min(margin, float(eigh(f, g, eigvals_only=True)[0]))
    if margin <= 0.0:
        raise ValueError(
            f"dissipation form loses coercivity at shell {j} (eta={eta}); reduce eta"
        )
    return margin


# ----------------------------------------------------------------------
# the differential inequality along a trajectory


@dataclass
class LyapunovResidualSeries:
    """Outcome of the per-shell differential inequality check."""

    j: int
    regime: str
    eta: float
    coercivity_margin: float
    c: float
    budget: float
    times: np.ndarray
    energy: np.ndarray
    dEdt: np.ndarray
    target: np.ndarray
    dissipation: np.ndarray
    nl_bound: np.ndarray
    lhs: np.ndarray
    ratio: np.ndarray
    dissipation_ratio: np.ndarray
    fd_error: np.ndarray
    n_dropped: int

    @property
    def verdict(self) -> Verdict:
        """``lyapunov-<regime>-j<j>``: the worst ratio against the budget."""
        return Verdict.from_bound(
            f"lyapunov-{self.regime}-j{self.j}", float(np.max(self.ratio)), self.budget,
            coercivity_margin=self.coercivity_margin,
            n_dropped=self.n_dropped,
            worst_dissipation_ratio=float(np.max(self.dissipation_ratio)),
        )


def _shell_norm(lp: LittlewoodPaley, f: np.ndarray, j: int) -> float:
    return lp.shell_l2_hat(lp.grid.forward(f), j)


def _shell_vec_norm(lp: LittlewoodPaley, vec, j: int) -> float:
    return math.sqrt(sum(_shell_norm(lp, comp, j) ** 2 for comp in vec))


def _shell_grad_norm(lp: LittlewoodPaley, f: np.ndarray, j: int) -> float:
    return math.sqrt(_vec_sq(lp.grid, lp.grid.gradient(lp.block(f, j))))


def _sup(grid: PeriodicGrid, f: np.ndarray) -> float:
    return float(np.max(np.abs(f)))


def _dealiased(grid: PeriodicGrid, f: np.ndarray) -> np.ndarray:
    return grid.inverse(grid.dealias(grid.forward(f)))


def _products(grid: PeriodicGrid, state: StateFields):
    """Dealiased a u, (u . grad) u, ((theta - a)/(1 + a)) grad a and u theta."""
    d = grid.dim
    a, u, th = state.a, state.u, state.theta
    au = [_dealiased(grid, a * u[m]) for m in range(d)]
    adv = []
    for m in range(d):
        grad_um = grid.gradient(u[m])
        adv.append(_dealiased(grid, sum(u[n] * grad_um[n] for n in range(d))))
    grad_a = grid.gradient(a)
    coef_bad = (th - a) / (1.0 + a)
    bad = [_dealiased(grid, coef_bad * grad_a[m]) for m in range(d)]
    uth = [_dealiased(grid, u[m] * th) for m in range(d)]
    return au, adv, bad, uth


def _low_nl_bound(lp: LittlewoodPaley, state: StateFields, j: int, eta: float) -> float:
    """Right side of the low-shell inequality: the four norm products."""
    grid = lp.grid
    d = grid.dim
    a, u, th = state.a, state.u, state.theta

    au, adv, bad, uth = _products(grid, state)
    ratio_s = a / (1.0 + a)
    grad_th = grid.gradient(th)
    sflux = [_dealiased(grid, ratio_s * grad_th[m]) for m in range(d)]
    grad_s = grid.gradient(ratio_s)
    gcoef = _dealiased(grid, sum(grad_s[m] * grad_th[m] for m in range(d)))

    na_j = _shell_grad_norm(lp, a, j)
    u_j = _shell_vec_norm(lp, u, j)
    th_j = _shell_norm(lp, th, j)
    th_grad_j = _shell_grad_norm(lp, th, j)

    term1 = (1.0 + 4.0**j * eta) * _shell_vec_norm(lp, au, j) * math.hypot(na_j, u_j)
    term2 = (
        (1.0 + eta)
        * math.hypot(_shell_vec_norm(lp, adv, j), _shell_vec_norm(lp, bad, j))
        * math.hypot(u_j, na_j)
    )
    term3 = math.hypot(_shell_vec_norm(lp, uth, j), _shell_vec_norm(lp, sflux, j)) * th_grad_j
    term4 = _shell_norm(lp, gcoef, j) * th_j
    return term1 + term2 + term3 + term4


def _high_nl_bound(lp: LittlewoodPaley, state: StateFields, j: int, eta: float) -> float:
    """Right side of the high-shell inequality, sup-norm coefficients and all."""
    grid = lp.grid
    d = grid.dim
    a, u, th = state.a, state.u, state.theta
    beta = eta * 2.0 ** (-2 * j)

    weight = (1.0 + th) / (1.0 + a) ** 2
    ratio_v = (1.0 + th) / (1.0 + a)
    ratio_s = a / (1.0 + a)

    tend = nonlinear_rhs(grid, state)
    dt_weight = tend.theta / (1.0 + a) ** 2 - 2.0 * (1.0 + th) / (1.0 + a) ** 3 * tend.a

    grad_w = grid.gradient(weight)
    div_u = grid.divergence(u)
    div_wu = weight * div_u + sum(grad_w[m] * u[m] for m in range(d))
    grad_v = grid.gradient(ratio_v)
    grad_s = grid.gradient(ratio_s)

    a_j = _shell_norm(lp, a, j)
    u_j = _shell_vec_norm(lp, u, j)
    th_j = _shell_norm(lp, th, j)
    th_grad_j = _shell_grad_norm(lp, th, j)
    a_grad_j = _shell_grad_norm(lp, a, j)
    divu_j = grid.l2_norm(grid.divergence(np.stack([lp.block(c, j) for c in u])))

    au, adv, bad, uth = _products(grid, state)
    div_au = grid.divergence(np.stack(au))

    r1, r2, r3 = commutator_remainders(lp, state, j)
    r1_n = grid.l2_norm(r1)
    r2_n = math.sqrt(sum(grid.l2_norm(c) ** 2 for c in r2))
    r3_n = grid.l2_norm(r3)

    grad_v_sup = _sup(grid, np.sqrt(sum(g * g for g in grad_v)))
    grad_s_sup = _sup(grid, np.sqrt(sum(g * g for g in grad_s)))

    total = 0.5 * _sup(grid, dt_weight) * a_j**2
    total += grad_v_sup * u_j * a_j
    total += 0.5 * _sup(grid, div_wu) * a_j**2
    total += 0.5 * _sup(grid, div_u) * u_j**2
    total += _shell_vec_norm(lp, uth, j) * th_grad_j
    total += grad_s_sup * th_grad_j * th_j
    total += _sup(grid, ratio_s) * th_grad_j**2
    total += r1_n * _sup(grid, weight) * a_j + r2_n * u_j + r3_n * th_j
    total += beta * _shell_norm(lp, div_au, j) * divu_j
    total += beta * _shell_vec_norm(lp, adv, j) * a_grad_j
    total += beta * _shell_vec_norm(lp, bad, j) * a_grad_j
    return total


def lyapunov_residual(
    trajectory: TrajectoryRecord,
    j: int,
    regime: str = "low",
    eta: float = DEFAULT_ETA,
    budget: float = RESIDUAL_BUDGET,
    lp: LittlewoodPaley | None = None,
) -> LyapunovResidualSeries:
    """Check ``d/dt E_j + c Q_j <= budget * NL_j`` along stored snapshots.

    ``E_j`` is differentiated by centered differences; samples whose
    third-derivative error estimate exceeds a tenth of the dissipation are
    dropped, and if none survive the stride is declared too coarse.  ``c``
    is half the coercivity margin so that a failure signals a genuine
    violation rather than margin exhaustion.  A sample with zero nonlinear
    bound passes when the left side is within differencing error of zero
    (covers the zero trajectory, where every term vanishes).
    """
    if regime not in ("low", "high"):
        raise ValueError(f"unknown regime {regime!r}")
    snaps = trajectory.snapshots
    times = np.asarray(trajectory.snapshot_times, dtype=float)
    if len(snaps) < 5:
        raise StrideTooCoarse(
            "need at least five snapshots for centered differencing"
        )
    steps = np.diff(times)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=1e-8, atol=0.0):
        raise ValueError("snapshots must be uniformly spaced in time")

    if lp is None:
        lp = LittlewoodPaley(trajectory.grid)
    margin = coercivity_margin(j, eta, regime)
    c = 0.5 * margin

    n = len(snaps)
    energy = np.empty(n)
    dissipation = np.empty(n)
    target = np.empty(n)
    nl = np.empty(n)
    low = regime == "low"
    functionals = low_freq_functionals if low else high_freq_functionals
    nl_bound = _low_nl_bound if low else _high_nl_bound
    for i, state in enumerate(snaps):
        energy[i], dissipation[i] = functionals(lp, state, j, eta)
        nl[i] = nl_bound(lp, state, j, eta)
        a_j = _shell_norm(lp, state.a, j)
        th_j = _shell_norm(lp, state.theta, j)
        u_j = _shell_vec_norm(lp, state.u, j)
        if low:
            target[i] = 4.0**j * (a_j**2 + th_j**2) + u_j**2
        else:
            target[i] = a_j**2 + u_j**2 + 4.0**j * th_j**2

    # centered first derivative and a third-derivative error estimate;
    # both need two neighbours, so the usable window is [2, n-3]
    idx = np.arange(2, n - 2)
    dEdt = (energy[idx + 1] - energy[idx - 1]) / (2.0 * h)
    third = (
        energy[idx + 2] - 2.0 * energy[idx + 1] + 2.0 * energy[idx - 1] - energy[idx - 2]
    ) / (2.0 * h**3)
    fd_err = h * h * np.abs(third) / 6.0

    # samples where the shell holds nothing but the solve's own roundoff are
    # vacuous passes.  The floor must be set by the whole state: a shell that
    # is uniformly noise would always clear a floor taken from its own series,
    # and its energy then fluctuates at scales unrelated to the dynamics.
    grid = lp.grid
    state_scale = max(
        grid.l2_norm(s.a) ** 2
        + sum(grid.l2_norm(c) ** 2 for c in s.u)
        + grid.l2_norm(s.theta) ** 2
        for s in snaps
    )
    floor = VACUOUS_SHARE * state_scale
    vacuous = dissipation[idx] <= floor
    keep = vacuous | (fd_err <= FD_ERROR_SHARE * dissipation[idx])
    n_dropped = int(np.sum(~keep))
    if not np.any(keep):
        raise StrideTooCoarse(
            f"differencing error exceeds {FD_ERROR_SHARE:.0%} of the dissipation "
            "at every snapshot; store snapshots more often"
        )
    sel = idx[keep]
    vacuous = vacuous[keep]
    dEdt = dEdt[keep]
    fd_err = fd_err[keep]

    lhs = dEdt + c * target[sel]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            nl[sel] > 0.0,
            lhs / np.where(nl[sel] > 0.0, nl[sel], 1.0),
            np.where(lhs <= fd_err, 0.0, np.inf),
        )
        ratio = np.where(vacuous, 0.0, ratio)
        diss_ratio = np.where(
            dissipation[sel] > floor,
            lhs / np.where(dissipation[sel] > floor, dissipation[sel], 1.0),
            0.0,
        )

    return LyapunovResidualSeries(
        j=j,
        regime=regime,
        eta=eta,
        coercivity_margin=margin,
        c=c,
        budget=budget,
        times=times[sel],
        energy=energy[sel],
        dEdt=dEdt,
        target=target[sel],
        dissipation=dissipation[sel],
        nl_bound=nl[sel],
        lhs=lhs,
        ratio=ratio,
        dissipation_ratio=diss_ratio,
        fd_error=fd_err,
        n_dropped=n_dropped,
    )
