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

One pass over the snapshots serves every (regime, shell) pair.  The
snapshots are taken in chunks, stacked row by row so that every transform
acts on the whole chunk in one call.  The terms that do not depend on the
shell (transforms, products, the tendency, sup norms, commutator factors)
are formed once per chunk, and each shell adds only its ``P_j`` work.
Every value is bit for bit what one snapshot at a time gives, whatever the
chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .grid import PeriodicGrid, StateFields
from .littlewood import LittlewoodPaley, ell2, square
from .reporting import Verdict
from .solver import PositivityViolation, TrajectoryRecord, nonlinear_rhs, positivity_margin

__all__ = [
    "StrideTooCoarse",
    "LyapunovResidualSeries",
    "shell_functionals",
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

# grid points per stacked field of a chunk of snapshots, which bounds the
# audit's working set (about 430 bytes per point).  At 2**14 the 31 snapshots
# of a 512-point run are one chunk: no faster than two, and about 4 MB more
# peak resident memory.
CHUNK_POINTS = 2**13

# radii per shell at which the coercivity margin is sampled
MARGIN_SAMPLES = 257


class StrideTooCoarse(RuntimeError):
    """Snapshot spacing too large for trustworthy time differencing."""


# ----------------------------------------------------------------------
# quadrature helpers: one value per row of a stack


def _inner(grid: PeriodicGrid, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.sum(f * g, axis=grid.axes) * grid.cell_volume


def _sq(grid: PeriodicGrid, f: np.ndarray) -> np.ndarray:
    return np.sum(f * f, axis=grid.axes) * grid.cell_volume


def _vec_sq(grid: PeriodicGrid, vec) -> np.ndarray:
    return sum(_sq(grid, comp) for comp in vec)


# Python's ``math.hypot`` may round unlike numpy's, so it is taken sample by
# sample, as ``square`` takes x ** 2: no value depends on being computed in a stack.
def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.array([math.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())])


def _dealiased(grid: PeriodicGrid, f: np.ndarray) -> np.ndarray:
    return grid.inverse(grid.forward(f, band=True))


def _check_positive(state: StateFields) -> None:
    if not positivity_margin(state) > 0.0:
        raise PositivityViolation("density or temperature lost positivity")


# ----------------------------------------------------------------------
# the terms of a chunk of snapshots


class _ChunkTerms:
    """The terms of a chunk of snapshots, each formed once on first use.

    The state is one state or a ``(d + 2, k, *grid)`` chunk: every field is a
    stack with one row per snapshot and every per-shell quantity has one value
    per snapshot (a float for one state).
    The shell-independent products, fluxes and commutator remainders are kept
    only as their norms on ``shells``, and the blocks only for the last shell
    asked for, so that a chunk holds few fields at a time.
    """

    def __init__(self, lp: LittlewoodPaley, state: StateFields, shells=(), high_shells=()):
        self.lp, self.grid, self.state = lp, lp.grid, state
        self.shells, self.high_shells = sorted(shells), sorted(high_shells)
        self._blocks: tuple = (None, ())

    @cached_property
    def hats(self) -> np.ndarray:
        """Hats of a, u_1, ..., u_d and theta, stacked along the first axis."""
        return self.grid.forward(self.state.data)

    def shell(self, j: int) -> tuple:
        """Blocks a_j, u_j, theta_j with grad a_j, grad theta_j and div u_j."""
        if self._blocks[0] != j:
            grid = self.grid
            blocks = grid.inverse(self.lp.block_hat(self.hats, j))
            grad_a, grad_th = grid.gradient(blocks[[0, -1]]).swapaxes(0, 1)
            self._blocks = (j, (blocks[0], blocks[1:-1], blocks[-1], grad_a, grad_th,
                                grid.divergence(blocks[1:-1])))
        return self._blocks[1]

    @cached_property
    def coef(self) -> SimpleNamespace:
        """grad a, grad u_m, div u, ratio_s = a/(1+a), grad ratio_s, ratio_v = (1+theta)/(1+a)."""
        grid, a, u, th = self.grid, self.state.a, self.state.u, self.state.theta
        ratio_s = a / (1.0 + a)
        return SimpleNamespace(
            grad_a=grid.gradient(a), grad_u=grid.gradient(u).swapaxes(0, 1),
            div_u=grid.divergence(u), ratio_s=ratio_s, grad_s=grid.gradient(ratio_s),
            ratio_v=(1.0 + th) / (1.0 + a))

    @cached_property
    def weight(self):
        """Entropic weight (1+theta)/(1+a)**2 of the unfiltered state."""
        _check_positive(self.state)
        return (1.0 + self.state.theta) / (1.0 + self.state.a) ** 2

    @cached_property
    def products(self) -> dict[int, tuple]:
        """Shell norms of the dealiased a u, (u.grad) u, ((theta-a)/(1+a)) grad a
        and u theta, and of div(a u), on every shell of ``shells``."""
        grid, lp, d, k = self.grid, self.lp, self.grid.dim, self.coef
        a, u, th = self.state.a, self.state.u, self.state.theta
        coef_bad = (th - a) / (1.0 + a)
        smooth = _dealiased(grid, np.stack([
            *(a * u[m] for m in range(d)),
            *(sum(u[n] * k.grad_u[m][n] for n in range(d)) for m in range(d)),
            *(coef_bad * k.grad_a[m] for m in range(d)),
            *(u[m] * th for m in range(d)),
        ]))
        groups = np.split(grid.forward(smooth), 4)
        div_au = grid.forward(grid.divergence(smooth[:d]))
        return {j: (*(ell2(lp.shell_l2_hat(g, j)) for g in groups), lp.shell_l2_hat(div_au, j))
                for j in self.shells}

    @cached_property
    def low_fluxes(self) -> dict[int, tuple]:
        """Shell norms of the dealiased (a/(1+a)) grad theta and
        grad(a/(1+a)) . grad theta on every shell of ``shells``."""
        grid, lp, d, k = self.grid, self.lp, self.grid.dim, self.coef
        grad_th = grid.gradient(self.state.theta)
        hats = grid.forward(_dealiased(grid, np.stack([
            *(k.ratio_s * grad_th[m] for m in range(d)),
            sum(k.grad_s[m] * grad_th[m] for m in range(d)),
        ])))
        return {j: (ell2(lp.shell_l2_hat(hats[:d], j)), lp.shell_l2_hat(hats[d], j))
                for j in self.shells}

    @cached_property
    def high_sups(self):
        """Sup norms of d/dt weight (along the tendency), |grad ratio_v|,
        div(weight u), div u, |grad ratio_s|, ratio_s and weight."""
        grid, d, k = self.grid, self.grid.dim, self.coef
        a, u, th = self.state.a, self.state.u, self.state.theta
        weight = self.weight
        tend = nonlinear_rhs(grid, self.state)
        dt_weight = tend.theta / (1.0 + a) ** 2 - 2.0 * (1.0 + th) / (1.0 + a) ** 3 * tend.a
        grad_w = grid.gradient(weight)
        div_wu = weight * k.div_u + sum(grad_w[m] * u[m] for m in range(d))
        grad_v = grid.gradient(k.ratio_v)
        fields = (dt_weight, np.sqrt(sum(g * g for g in grad_v)), div_wu, k.div_u,
                  np.sqrt(sum(g * g for g in k.grad_s)), k.ratio_s, weight)
        return tuple(grid.lp_norm(f, np.inf) for f in fields)

    def remainder_fields(self, shells) -> dict[int, tuple]:
        """Commutator remainders (R1, [R2_m], R3) of every shell in ``shells``."""
        _check_positive(self.state)
        grid, d, k, state = self.grid, self.grid.dim, self.coef, self.state

        def subtract(total, f, g):
            for r, c in zip(total, self.lp.commutators(f, g, shells)):
                r -= c

        r1 = [-c for c in self.lp.commutators(state.a, k.div_u, shells)]
        for m in range(d):
            subtract(r1, state.u[m], k.grad_a[m])
        r2 = []
        for m in range(d):
            r2.append([-c for c in self.lp.commutators(k.ratio_v, k.grad_a[m], shells)])
            for n in range(d):
                subtract(r2[m], state.u[n], k.grad_u[m][n])
        r3 = self.lp.commutators(k.ratio_s, grid.laplacian(state.theta), shells)
        return {j: (r1[i], [comp[i] for comp in r2], r3[i]) for i, j in enumerate(shells)}

    @cached_property
    def remainders(self) -> dict[int, tuple]:
        """L^2 norms of R1, of (R2_m) over m and of R3 on every shell of ``high_shells``."""
        grid = self.grid
        return {j: (grid.l2_norm(r1), ell2([grid.l2_norm(c) for c in r2]), grid.l2_norm(r3))
                for j, (r1, r2, r3) in self.remainder_fields(self.high_shells).items()}

    # ------------------------------------------------------------------
    # per-shell work

    def functionals(self, j: int, eta: float, regime: str) -> tuple[np.ndarray, np.ndarray]:
        """Energy and dissipation of shell ``j`` (see :func:`shell_functionals`)."""
        grid = self.grid
        if regime not in ("low", "high"):
            raise ValueError(f"unknown regime {regime!r}")
        low = regime == "low"
        if not 0.0 < eta < 1.0:
            raise ValueError(f"eta{1 if low else 2} must lie in (0, 1)")
        beta = eta if low else eta * 2.0 ** (-2 * j)
        weight = 1.0 if low else self.weight
        a_j, u_j, th_j, grad_a, grad_th, div_u = self.shell(j)

        cross_au = sum(_inner(grid, ga, uc) for ga, uc in zip(grad_a, u_j))
        energy = 0.5 * (
            _inner(grid, weight, a_j * a_j) + _vec_sq(grid, u_j) + _sq(grid, th_j)
        )
        energy += beta * cross_au

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

    def target(self, j: int, regime: str) -> np.ndarray:
        """The regime's target dissipation form Q_j."""
        a_j, u_j, th_j = (square(n) for n in self.lp.state_l2_hat(self.hats, j))
        if regime == "low":
            return 4.0**j * (a_j + th_j) + u_j
        return a_j + u_j + 4.0**j * th_j

    def low_bound(self, j: int, eta: float) -> np.ndarray:
        """Right side of the low-shell inequality: the four norm products."""
        au, adv, bad, uth, _ = self.products[j]
        sflux, gcoef = self.low_fluxes[j]
        _, u_j, th_j = self.lp.state_l2_hat(self.hats, j)
        _, _, _, grad_a, grad_th, _ = self.shell(j)
        na_j = np.sqrt(_vec_sq(self.grid, grad_a))
        th_grad_j = np.sqrt(_vec_sq(self.grid, grad_th))

        term1 = (1.0 + 4.0**j * eta) * au * _hypot(na_j, u_j)
        term2 = (1.0 + eta) * _hypot(adv, bad) * _hypot(u_j, na_j)
        term3 = _hypot(uth, sflux) * th_grad_j
        term4 = gcoef * th_j
        return term1 + term2 + term3 + term4

    def high_bound(self, j: int, eta: float) -> np.ndarray:
        """Right side of the high-shell inequality, sup-norm coefficients and all."""
        grid = self.grid
        beta = eta * 2.0 ** (-2 * j)
        dtw_sup, grad_v_sup, div_wu_sup, div_u_sup, grad_s_sup, ratio_s_sup, weight_sup = (
            self.high_sups)
        a_j, u_j, th_j = self.lp.state_l2_hat(self.hats, j)
        _, _, _, grad_a, grad_th, div_u = self.shell(j)
        th_grad_j = np.sqrt(_vec_sq(grid, grad_th))
        a_grad_j = np.sqrt(_vec_sq(grid, grad_a))
        divu_j = grid.l2_norm(div_u)
        _, adv, bad, uth, div_au = self.products[j]
        r1_n, r2_n, r3_n = self.remainders[j]

        total = 0.5 * dtw_sup * square(a_j)
        total += grad_v_sup * u_j * a_j
        total += 0.5 * div_wu_sup * square(a_j)
        total += 0.5 * div_u_sup * square(u_j)
        total += uth * th_grad_j
        total += grad_s_sup * th_grad_j * th_j
        total += ratio_s_sup * square(th_grad_j)
        total += r1_n * weight_sup * a_j + r2_n * u_j + r3_n * th_j
        total += beta * div_au * divu_j
        total += beta * adv * a_grad_j
        total += beta * bad * a_grad_j
        return total


# ----------------------------------------------------------------------
# functionals and commutators of a state or a stack of states


def shell_functionals(lp: LittlewoodPaley, state: StateFields, j: int, eta: float, regime: str):
    """Energy and dissipation ``(E_j, D_j)`` of shell ``j`` in the ``"low"`` or
    ``"high"`` regime.

    ``state`` is one state or a ``(d + 2, *rows, *grid)`` stack of states;
    each value is then a float or one value per state, the same bit for bit.
    The low regime carries the fixed mixed weight ``eta``:

        E1 = 1/2 ||(a_j, u_j, th_j)||^2 + eta <grad a_j, u_j>
        D1 = ||u_j||^2 + ||grad th_j||^2 + eta ||grad a_j||^2
             - eta ||div u_j||^2 + eta <u_j, grad a_j>
             + eta <grad th_j, grad a_j>

    The high regime weights the density term of the energy by the pointwise
    entropic weight ``(1+theta)/(1+a)**2`` of the unfiltered state, and every
    mixed/auxiliary term by ``eta * 2**(-2j)`` in place of ``eta``.
    """
    return _ChunkTerms(lp, state).functionals(j, eta, regime)


def commutator_remainders(
    lp: LittlewoodPaley, state: StateFields, j: int
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Remainder fields measuring how far shell filtering is from commuting
    with multiplication by the solution-dependent coefficients.

    With ``[P_j, f] g = P_j(f g) - f P_j(g)`` (both products alias-free on the
    2x grid, :meth:`LittlewoodPaley.commutators`):

        R1 = -[P_j, 1+a] div u - sum_m [P_j, u_m] d_m a
        R2_m = -sum_n [P_j, u_n] d_n u_m - [P_j, (1+theta)/(1+a)] d_m a
        R3 = [P_j, a/(1+a)] lap theta

    ``state`` is one state or a stack of states, as for
    :func:`shell_functionals`.
    """
    return _ChunkTerms(lp, state).remainder_fields([j])[j]


# ----------------------------------------------------------------------
# coercivity margins


def coercivity_margin(j: int, eta: float = DEFAULT_ETA, regime: str = "low") -> float:
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
    eigenvalue of ``F`` against the target ``G = diag(4^j, 1, 4^j)`` (low) or
    ``diag(1, 1, 4^j)`` (high), capped at one.  Since both forms are
    diagonal over wavevectors, ``D_j >= margin * Q_j`` holds for every state
    supported on the shell.

    ``G`` is diagonal, so the generalized eigenvalues are the ordinary ones
    of ``G^-1/2 F G^-1/2``; its entries are powers of four, so that scaling
    is by powers of two and exact.  The ``MARGIN_SAMPLES`` scaled forms are
    solved as one ``(MARGIN_SAMPLES, 3, 3)`` stack.
    """
    if regime == "low":
        beta = eta
        target = np.array([4.0**j, 1.0, 4.0**j])
    elif regime == "high":
        beta = eta * 2.0 ** (-2 * j)
        target = np.array([1.0, 1.0, 4.0**j])
    else:
        raise ValueError(f"unknown regime {regime!r}")

    r = np.linspace(0.75 * 2.0**j, (8.0 / 3.0) * 2.0**j, MARGIN_SAMPLES)
    f = np.zeros((MARGIN_SAMPLES, 3, 3))
    f[:, 0, 0] = beta * r * r
    f[:, 0, 1] = f[:, 1, 0] = -beta * r / 2.0
    f[:, 0, 2] = f[:, 2, 0] = -beta * r * r / 2.0
    f[:, 1, 1] = 1.0 - beta * r * r
    f[:, 2, 2] = r * r
    scaled = f / np.sqrt(np.outer(target, target))
    margin = min(1.0, float(np.linalg.eigvalsh(scaled)[:, 0].min()))
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


def lyapunov_residual(
    trajectory: TrajectoryRecord,
    pairs,
    eta: float = DEFAULT_ETA,
    budget: float = RESIDUAL_BUDGET,
    lp: LittlewoodPaley | None = None,
) -> list[LyapunovResidualSeries]:
    """Check ``d/dt E_j + c Q_j <= budget * NL_j`` along stored snapshots.

    ``pairs`` is a sequence of ``(regime, j)``; one series per pair comes
    back in that order.  The snapshots are walked once for all pairs, in
    chunks of at most ``CHUNK_POINTS`` grid points per stacked field, and
    only one chunk's terms are held at a time.
    ``E_j`` is differentiated by centered differences; samples whose
    third-derivative error estimate exceeds a tenth of the dissipation are
    dropped, and if none survive the stride is declared too coarse.  ``c``
    is half the coercivity margin so that a failure signals a genuine
    violation rather than margin exhaustion.  A sample with zero nonlinear
    bound passes when the left side is within differencing error of zero
    (covers the zero trajectory, where every term vanishes).
    """
    pairs = list(pairs)
    for regime, _ in pairs:
        if regime not in ("low", "high"):
            raise ValueError(f"unknown regime {regime!r}")
    snaps = trajectory.snapshots
    times = np.asarray(trajectory.snapshot_times, dtype=float)
    if len(snaps) < 5:
        raise StrideTooCoarse("need at least five snapshots for centered differencing")
    steps = np.diff(times)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=1e-8, atol=0.0):
        raise ValueError("snapshots must be uniformly spaced in time")

    if lp is None:
        lp = LittlewoodPaley(trajectory.grid)
    grid = lp.grid
    held = grid.radius_index(False)  # every chunk lays out its shells from one index
    margins = [coercivity_margin(j, eta, regime) for regime, j in pairs]
    high_shells = sorted({j for regime, j in pairs if regime == "high"})

    n = len(snaps)
    energy, dissipation, target, nl = (np.empty((len(pairs), n)) for _ in range(4))
    chunk_size = max(1, CHUNK_POINTS // math.prod(grid.shape))
    # pairs grouped by shell, as a chunk keeps the blocks of one shell at a time
    by_shell = sorted(range(len(pairs)), key=lambda k: pairs[k][1])
    for start in range(0, n, chunk_size):
        rows = slice(start, start + chunk_size)
        chunk = StateFields(np.stack([s.data for s in snaps[rows]], axis=1))
        terms = _ChunkTerms(lp, chunk, {j for _, j in pairs}, high_shells)
        for k in by_shell:
            regime, j = pairs[k]
            energy[k, rows], dissipation[k, rows] = terms.functionals(j, eta, regime)
            nl[k, rows] = terms.low_bound(j, eta) if regime == "low" else terms.high_bound(j, eta)
            target[k, rows] = terms.target(j, regime)
    scales = [grid.l2_norm(state.a) ** 2 + sum(grid.l2_norm(c) ** 2 for c in state.u)
              + grid.l2_norm(state.theta) ** 2 for state in snaps]

    # samples where the shell holds nothing but the solve's own roundoff are
    # vacuous passes.  The floor must be set by the whole state: a shell that
    # is uniformly noise would always clear a floor taken from its own series,
    # and its energy then fluctuates at scales unrelated to the dynamics.
    floor = VACUOUS_SHARE * max(scales)
    # centered first derivative and a third-derivative error estimate;
    # both need two neighbours, so the usable window is [2, n-3]
    idx = np.arange(2, n - 2)
    series = []
    for k, (regime, j) in enumerate(pairs):
        e = energy[k]
        dEdt = (e[idx + 1] - e[idx - 1]) / (2.0 * h)
        third = (e[idx + 2] - 2.0 * e[idx + 1] + 2.0 * e[idx - 1] - e[idx - 2]) / (2.0 * h**3)
        fd_err = h * h * np.abs(third) / 6.0

        vacuous = dissipation[k, idx] <= floor
        keep = vacuous | (fd_err <= FD_ERROR_SHARE * dissipation[k, idx])
        if not np.any(keep):
            raise StrideTooCoarse(
                f"differencing error exceeds {FD_ERROR_SHARE:.0%} of the dissipation "
                "at every snapshot; store snapshots more often"
            )
        sel = idx[keep]
        vacuous, dEdt, fd_err = vacuous[keep], dEdt[keep], fd_err[keep]
        diss, nl_k = dissipation[k, sel], nl[k, sel]

        c = 0.5 * margins[k]
        lhs = dEdt + c * target[k, sel]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(nl_k > 0.0, lhs / np.where(nl_k > 0.0, nl_k, 1.0),
                             np.where(lhs <= fd_err, 0.0, np.inf))
            ratio = np.where(vacuous, 0.0, ratio)
            diss_ratio = np.where(diss > floor, lhs / np.where(diss > floor, diss, 1.0), 0.0)

        series.append(LyapunovResidualSeries(
            j=j, regime=regime, eta=eta, coercivity_margin=margins[k], c=c, budget=budget,
            times=times[sel], energy=e[sel], dEdt=dEdt, target=target[k, sel],
            dissipation=diss, nl_bound=nl_k, lhs=lhs, ratio=ratio,
            dissipation_ratio=diss_ratio, fd_error=fd_err, n_dropped=int(np.sum(~keep)),
        ))
    return series
