"""Littlewood-Paley decomposition and Besov-type norms on the grid.

The radial low-pass profile chi is 1 on |xi| <= 3/4, 0 on |xi| >= 4/3 and
descends smoothly in between; the shell profile is

    phi(xi) = chi(xi/2) - chi(xi),

supported on the annulus 3/4 <= |xi| <= 8/3.  Because phi is an exact
difference of two evaluations of the same chi, the dyadic partition of
unity sum_j phi(2^-j r) telescopes to one in floating point, independent
of how accurately the descent profile was tabulated.

The descent is built by integrating the compactly supported bump
exp(-sharpness/(1-x^2)) on (-1, 1) with the trapezoid rule and
interpolating the normalised cumulative integral with the monotone cubic
of Fritsch and Carlson (SIAM J. Numer. Anal. 17, 1980; PCHIP), which
preserves the 0 <= chi <= 1 and monotonicity constraints exactly.  Both are
in this module and follow scipy's formulas and operation order
(``cumulative_trapezoid``, ``PchipInterpolator``), so the tabulated cutoffs
equal scipy's bit for bit and do not depend on the installed scipy version.

:class:`ShellSeries` holds sampled shell norms of the state and is the one
place where they are reduced to Besov, Chemin-Lerner, critical and delta0
norms, for solver trajectories and semigroup quadratures alike.  Component
norms combine into one by :func:`ell2`, and the commutators [P_j, f] g
multiply through the grid's alias-free :meth:`~eulerfourier.grid.PeriodicGrid.times`.
Shell tables are kept by radius (``grid.radii``), laid out per call and shared while held,
so a band stack's shell norms equal its zero-filled full layout's bit for bit.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .grid import PeriodicGrid

#: inner/outer edges of the chi descent, fixed by the decomposition.
CHI_FLAT = 0.75
CHI_ZERO = 4.0 / 3.0


def square(x) -> np.ndarray:
    """``x ** 2`` value by value in Python floats, whose power may round unlike
    numpy's: no value depends on being computed in a stack."""
    x = np.asarray(x)
    return np.array([v**2 for v in x.ravel().tolist()]).reshape(x.shape)


def ell2(norms) -> np.ndarray:
    """The ell^2 of component norms, one value per row: squared by :func:`square`."""
    return np.sqrt(sum(square(n) for n in norms))


def ell_r(rows: np.ndarray, r: float) -> np.ndarray:
    """The ell^r over shells, the leading axis of ``rows``: one value per later index."""
    if rows.shape[0] == 0:
        return np.zeros(rows.shape[1:])
    if r == np.inf:
        return rows.max(axis=0)
    # cumsum adds shell by shell, where sum() of 8 or more terms is pairwise
    return np.cumsum(rows**r, axis=0)[-1] ** (1.0 / r)


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Running trapezoid integral of ``y`` over the 1-D abscissae ``x`` along
    ``axis``, starting at 0 (scipy's ``cumulative_trapezoid(..., initial=0)``)."""
    y = np.moveaxis(np.asarray(y, dtype=float), axis, -1)
    steps = np.cumsum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    return np.moveaxis(np.concatenate([np.zeros(y.shape[:-1] + (1,)), steps], axis=-1), -1, axis)


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    """One-sided three-point end derivative, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@dataclass(frozen=True, eq=False)
class MonotoneCubic:
    """Piecewise cubic Hermite interpolant with PCHIP derivatives.

    Derivatives, coefficients and evaluation order are scipy's
    (``PchipInterpolator._find_derivatives``, ``CubicHermiteSpline``, the
    compiled ``PPoly`` evaluation), so values are equal to scipy's bit for
    bit.  Intervals are closed on the left, the last one on both sides;
    outside ``[knots[0], knots[-1]]`` the value is NaN.
    """

    knots: np.ndarray
    coef: np.ndarray  # (4, intervals), highest power first

    @classmethod
    def through(cls, x: np.ndarray, y: np.ndarray) -> MonotoneCubic:
        """Interpolant of the values ``y`` at increasing knots ``x`` (at least 3)."""
        h = np.diff(x)
        m = np.diff(y) / h
        # interior: weighted harmonic mean of the adjacent slopes, 0 at an
        # extremum or next to a flat interval
        sign = np.sign(m)
        flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        dy = np.zeros_like(y)
        dy[1:-1][~flat] = 1.0 / whmean[~flat]
        dy[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        dy[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (dy[:-1] + dy[1:] - 2 * m) / h
        return cls(x, np.stack([t / h, (m - dy[:-1]) / h - t, dy[:-1], y[:-1]]))

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        x = self.knots
        i = np.clip(np.searchsorted(x, v, side="right") - 1, 0, len(x) - 2)
        s = v - x[i]
        c0, c1, c2, c3 = self.coef[:, i]
        out = ((c3 + c2 * s) + c1 * (s * s)) + c0 * ((s * s) * s)
        return np.where((v >= x[0]) & (v <= x[-1]), out, np.nan)


@dataclass(frozen=True)
class DyadicCutoffs:
    """Tabulated smooth radial cutoff pair (chi, phi)."""

    sharpness: float
    samples: int
    _step: MonotoneCubic = field(repr=False)  # in-package PCHIP: scipy's formula, any scipy version

    def chi(self, r) -> np.ndarray:
        """Low-pass profile; accepts scalars or arrays of radii >= 0."""
        r = np.asarray(r, dtype=float)
        out = np.ones_like(r)
        out[r >= CHI_ZERO] = 0.0
        mid = (r > CHI_FLAT) & (r < CHI_ZERO)
        if np.any(mid):
            x = 2.0 * (r[mid] - CHI_FLAT) / (CHI_ZERO - CHI_FLAT) - 1.0
            out[mid] = 1.0 - self._step(x)
        return out

    def phi(self, r) -> np.ndarray:
        """Shell profile chi(r/2) - chi(r), supported on [3/4, 8/3]."""
        r = np.asarray(r, dtype=float)
        return self.chi(r / 2.0) - self.chi(r)


def build_cutoffs(sharpness: float = 1.0, samples: int = 4097) -> DyadicCutoffs:
    """Construct the cutoff pair from the integrated-bump smooth step.

    Raises ValueError if the constructed chi violates its support or
    monotonicity constraints beyond 1e-10 (it cannot, short of a broken
    interpolation, but the contract is checked rather than assumed).
    """
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    if samples < 33:
        raise ValueError("samples too few to tabulate the descent")
    x = np.linspace(-1.0, 1.0, samples)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        bump = np.exp(-sharpness / (1.0 - x**2))
    bump[0] = bump[-1] = 0.0
    cum = cumulative_trapezoid(bump, x)
    cum /= cum[-1]
    step = MonotoneCubic.through(x, cum)

    cuts = DyadicCutoffs(sharpness=sharpness, samples=samples, _step=step)

    # contract checks
    rr = np.linspace(0.0, 3.0, 2001)
    c = cuts.chi(rr)
    if np.any(c[rr <= CHI_FLAT] < 1.0 - 1e-10) or np.any(np.abs(c[rr >= CHI_ZERO]) > 1e-10):
        raise ValueError("chi violates its support constraints")
    if np.any(np.diff(c) > 1e-10) or np.any(c < -1e-10) or np.any(c > 1.0 + 1e-10):
        raise ValueError("chi violates monotonicity or range constraints")
    return cuts


@dataclass(frozen=True)
class FrequencySplit:
    """Threshold separating the low and high frequency regimes.

    Low-frequency sums run over shells j <= j0, high-frequency sums over
    j >= j0 - 1; the two deliberately overlap on {j0 - 1, j0}.
    """

    j0: int = 0

    def select(self, shells, regime: str) -> list[int]:
        """Shells of one regime: ``"all"``, ``"low"`` or ``"high"``."""
        if regime == "all":
            return list(shells)
        if regime == "low":
            return [j for j in shells if j <= self.j0]
        if regime == "high":
            return [j for j in shells if j >= self.j0 - 1]
        raise ValueError(f"regime must be 'all', 'low' or 'high', got {regime!r}")


class LittlewoodPaley:
    """Dyadic shell calculus bound to one grid.

    Norms are L^2 on each shell (the critical L^2 framework); the low and
    high regimes are those of the default :class:`FrequencySplit`.
    """

    def __init__(self, grid: PeriodicGrid):
        self.grid = grid
        self.cutoffs = build_cutoffs()
        self._phi_cache: dict[int, np.ndarray] = {}  # shell -> phi by radius (grid.radii)
        self._laid_out = weakref.WeakValueDictionary()  # (shell, band) -> held multiplier

        # shells whose annulus is fully resolved by the dealiased grid
        self.j_min = math.ceil(math.log2(2.0 * np.pi / grid.length)) - 1
        self.j_max = math.floor(math.log2(np.pi * grid.npts / (3.0 * grid.length)))
        if self.j_max < self.j_min:
            raise ValueError("grid resolves no complete dyadic shell")

    @property
    def shells(self) -> range:
        """Resolvable shell indices (inclusive of both ends)."""
        return range(self.j_min, self.j_max + 1)

    @property
    def covered_band(self) -> tuple[float, float]:
        """Wavenumbers where the shells tile unity exactly.

        The telescoping identity sum_j phi(2^-j k) = 1 holds for
        (4/3) 2^j_min <= |k| <= (3/4) 2^(j_max+1); outside, part of the
        partition falls below j_min or above j_max and the block sum
        undershoots the field.
        """
        return (4.0 / 3.0) * 2.0**self.j_min, 0.75 * 2.0 ** (self.j_max + 1)

    # ------------------------------------------------------------------
    def shell_multiplier(self, j: int, band: bool = False) -> np.ndarray:
        """phi(2^-j |k|) in the full or, if ``band``, the band layout: laid out from the
        table by radius, or the array a caller still holds (validate holds them all)."""
        mult = self._laid_out.get((j, band))
        if mult is None:
            table = self._phi_cache.get(j)
            if table is None:
                table = self.cutoffs.phi(self.grid.radii[0] * 2.0 ** (-j))
                table[0] = 0.0  # zero mode (radius 0, alone) never belongs to a shell
                self._phi_cache[j] = table
            mult = self._laid_out[j, band] = table[self.grid.radius_index(band)]
        return mult

    def block_hat(self, fhat: np.ndarray, j: int) -> np.ndarray:
        """Spectral coefficients of the dyadic block at shell j, in the layout of ``fhat``."""
        return fhat * self.shell_multiplier(j, self.grid.in_band(fhat))

    def block(self, f: np.ndarray, j: int) -> np.ndarray:
        """Physical-space dyadic block of a real field."""
        return self.grid.inverse(self.block_hat(self.grid.forward(f), j))

    def commutators(self, f: np.ndarray, g: np.ndarray, shells) -> list[np.ndarray]:
        """``[P_j, f] g = P_j(f g) - f P_j(g)`` for every j of ``shells``, both
        products alias-free (:meth:`PeriodicGrid.times`).  ``f`` on the 2x grid
        and ``f g`` are formed once; each shell then costs one product ``f P_j(g)``."""
        grid = self.grid
        times_f = grid.times(f)
        fg_hat = grid.forward(times_f(g))
        return [grid.inverse(self.block_hat(fg_hat, j)) - times_f(self.block(g, j))
                for j in shells]

    # ------------------------------------------------------------------
    def shell_l2_hat(self, fhat: np.ndarray, j: int):
        """L^2 norm of the shell-j block, evaluated by Parseval; one value
        per row of a stack, in the layout of ``fhat``."""
        return self.grid.l2_norm_hat(fhat, self.shell_multiplier(j, self.grid.in_band(fhat)))

    def state_l2_hat(self, hats: np.ndarray, j: int) -> tuple:
        """Shell-j L^2 norms of a, |u| and theta from a spectral stack
        [a, u_1, ..., u_d, theta]; one value per row of each component."""
        norms = self.shell_l2_hat(hats, j)
        return norms[0], ell2(norms[1:-1]), norms[-1]

    # ------------------------------------------------------------------
    def besov_norm(
        self,
        f: np.ndarray,
        s: float,
        r: float = 1,
        regime: str = "all",
    ) -> float:
        """Homogeneous Besov norm B^s_{2,r}, truncated to the resolvable shells."""
        fhat = self.grid.forward(np.asarray(f, dtype=float))
        shells = FrequencySplit().select(self.shells, regime)
        vals = [2.0 ** (j * s) * self.shell_l2_hat(fhat, j) for j in shells]
        return float(ell_r(np.array(vals), r))


#: component order of :attr:`ShellSeries.norms`
COMPONENTS = ("a", "u", "theta")


@dataclass(frozen=True)
class ShellSeries:
    """Per-shell L^2 norms of the state (a, u, theta) sampled over time.

    ``norms[k, c, n]`` is the norm of component ``COMPONENTS[c]`` on shell
    ``shells[k]`` at ``times[n]`` (for u, ell^2 over its d components).
    Every Besov-type quantity is one reduction of it: an ell^2 composite
    over some components, the weight 2^{js} per shell, optionally an
    L^rho prefix in time, then ell^r over the shells of one regime.
    Shells are the leading axis and shell sums run one shell at a time in
    increasing j, so a value does not depend on how many times are stored.
    """

    times: np.ndarray
    shells: tuple[int, ...]
    dim: int
    norms: np.ndarray

    @classmethod
    def of_hats(cls, lp: LittlewoodPaley, hats: np.ndarray) -> ShellSeries:
        """Single-time series (at t = 0) of a spectral stack [a, u_1, ..., u_d, theta]."""
        norms = np.array([lp.state_l2_hat(hats, j) for j in lp.shells])[:, :, None]
        return cls(np.zeros(1), tuple(lp.shells), lp.grid.dim, norms)

    def composite(self, components: tuple[str, ...] = COMPONENTS) -> np.ndarray:
        """(shells, times) ell^2 composite; one component is returned as stored."""
        rows = [self.norms[:, COMPONENTS.index(c)] for c in components]
        if len(rows) == 1:
            return rows[0]
        total = rows[0] ** 2
        for row in rows[1:]:
            total = total + row**2
        return np.sqrt(total)

    def _weighted(self, s, components, regime, split, weight=None) -> np.ndarray:
        shells = split.select(self.shells, regime)
        # Python floats: numpy's vectorised power may differ in the last bit
        scale = np.array([2.0 ** (j * s) for j in shells]).reshape(-1, 1)
        if weight is not None:
            scale = scale * weight
        return scale * self.composite(components)[[self.shells.index(j) for j in shells]]

    def besov(
        self,
        s: float,
        r: float = 1,
        components: tuple[str, ...] = COMPONENTS,
        regime: str = "all",
        split: FrequencySplit = FrequencySplit(),
    ) -> np.ndarray:
        """Besov norm B^s_{2,r} of the composite at every stored time."""
        return ell_r(self._weighted(s, components, regime, split), r)

    def chemin_lerner(
        self,
        s: float,
        rho: float,
        r: float = 1,
        components: tuple[str, ...] = COMPONENTS,
        regime: str = "all",
        split: FrequencySplit = FrequencySplit(),
        weight: np.ndarray | None = None,
    ) -> np.ndarray:
        """Chemin-Lerner norm over [0, t] for every stored time t.

        L^rho in time inside (trapezoid rule, or the running max for
        rho = inf), ell^r over shells outside, as in Bahouri, Chemin and
        Danchin, *Fourier Analysis and Nonlinear PDEs* (2011); ``weight``
        multiplies the integrand pointwise in time (the (1+t)^M weighted
        functionals).
        """
        rows = self._weighted(s, components, regime, split, weight)
        if rho == np.inf:
            prefix = np.maximum.accumulate(rows, axis=1)
        else:
            integral = cumulative_trapezoid(rows**rho, self.times, axis=1)
            prefix = integral ** (1.0 / rho)
        return ell_r(prefix, r)

    def critical(self, split: FrequencySplit = FrequencySplit()) -> np.ndarray:
        """Critical norm X(t): low shells at d/2 plus high shells at d/2 + 1."""
        half = self.dim / 2.0
        return (self.besov(half, 1, regime="low", split=split)
                + self.besov(half + 1.0, 1, regime="high", split=split))

    def delta0(self, sigma1: float, split: FrequencySplit = FrequencySplit()) -> float:
        """Size of the data at t = 0: low sup at -sigma1 plus high sum at d/2 + 1."""
        low = self.besov(-sigma1, np.inf, regime="low", split=split)
        high = self.besov(self.dim / 2.0 + 1.0, 1, regime="high", split=split)
        return float(low[0] + high[0])
