"""Decay-rate laboratory for the damped Euler-Fourier system.

This module turns trajectories (spectral box runs) and semigroup curves
(whole-space radial quadrature) into rate verdicts: it generates initial
data saturating a prescribed negative-regularity shell profile, fits
algebraic decay exponents against ``log(1+t)``, reconstructs the damped
velocity through its exponential Duhamel formula, and accumulates the
time-weighted norm budgets whose boundedness/growth encodes the optimal
rates.

Conventions
-----------
* trajectories and semigroup curves both carry a
  :class:`~eulerfourier.littlewood.ShellSeries`, and every norm here is
  one of its reductions, so both inputs are treated identically.
* "state" norms are the ell^2 composite over the three components
  ``sqrt(|a|^2 + |u|^2 + |theta|^2)`` per shell.
* the low/high frequency split is the default
  :class:`~eulerfourier.littlewood.FrequencySplit`, the one every
  ``ShellSeries`` reduction takes: low shells ``j <= 0``, high shells
  ``j >= -1``.
* :func:`run_decay_experiment`, :func:`damped_mode_check` and
  :func:`time_weighted_functionals` each decide their own pass rules and
  return one :class:`~eulerfourier.reporting.Outcome`: its verdicts, its
  curves with their CSV meta, and its notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import PeriodicGrid, StateFields
from .linear import saturating_profile, semigroup_besov_decay
from .littlewood import COMPONENTS, FrequencySplit, LittlewoodPaley, ShellSeries
from .reporting import Outcome, Verdict
from .solver import TrajectoryRecord, nonlinear_rhs

__all__ = [
    "InitialDataSpec",
    "RateTarget",
    "RateFit",
    "generate_initial_data",
    "fit_rate",
    "run_decay_experiment",
    "damped_mode_check",
    "duhamel_reconstruction",
    "time_weighted_functionals",
    "convolution_bound_constant",
    "velocity_enhancement_in_range",
]

#: Minimum number of curve samples inside a fit window.
MIN_FIT_SAMPLES = 10

#: Default 95% confidence multiplier on the slope standard error.
CONFIDENCE_Z = 1.96

#: Bound on the Duhamel convolution constant; the measured value is ~1.1.
CONVOLUTION_BOUND = 3.0

#: Tolerance on the fitted growth of the time-weighted budget, and the bound
#: on its unweighted companion relative to delta0.
GROWTH_TOLERANCE = 0.1
LOW_BOUND_RATIO = 4.0


def velocity_enhancement_in_range(dim: int, sigma1: float) -> bool:
    """Whether the theorem covers the extra -1/2 velocity rate.

    It does for ``d >= 2`` and ``sigma1`` in ``(-d/2+1, d/2]``.
    """
    return dim >= 2 and -dim / 2.0 + 1.0 < sigma1 <= dim / 2.0


# ----------------------------------------------------------------------
# initial data
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InitialDataSpec:
    """Recipe for random initial data with a prescribed shell profile.

    ``sigma1`` is the extra negative regularity the data saturates: the
    measured ``2^{-j sigma1} ||block_j (a,u,theta)||`` is flat across the
    resolved low shells.  The amplitude is the measured size ``delta0``
    (low sup-norm at regularity ``-sigma1`` plus high 1-norm at
    ``d/2 + 1``) of the returned fields.
    """

    sigma1: float
    dim: int
    amplitude: float = 1e-2
    band: tuple[float, float] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        half = self.dim / 2.0
        if not (-half < self.sigma1 <= half):
            raise ValueError(
                f"sigma1={self.sigma1} outside the admissible interval "
                f"(-d/2, d/2] = ({-half}, {half}] for d={self.dim}"
            )
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")
        if self.band is not None and not (0 < self.band[0] < self.band[1]):
            raise ValueError("band must satisfy 0 < lo < hi")

    @property
    def beta(self) -> float:
        """Spectral amplitude envelope exponent, which flattens the shells."""
        return self.sigma1 - self.dim / 2.0


def _octave_edges(lo: float, hi: float) -> np.ndarray:
    """Disjoint octave band edges covering [lo, hi]."""
    n = max(1, int(math.ceil(math.log2(hi / lo) - 1e-12)))
    return lo * 2.0 ** np.arange(n + 1)


def generate_initial_data(
    spec: InitialDataSpec,
    grid: PeriodicGrid,
    lp: LittlewoodPaley | None = None,
) -> StateFields:
    """Random-phase data whose shell profile saturates ``B^{-sigma1}_{2,inf}``.

    Coefficients are complex Gaussian with the power-law amplitude
    envelope ``|k|^beta`` on the requested band, then renormalized per
    disjoint frequency octave so the band-integrated spectrum matches the
    continuum envelope exactly; this pins the measured shell profile
    (uniform within a factor 2 across fully resolved low shells is
    verified before returning).  Finally the whole state is scaled so the
    measured ``delta0`` equals ``spec.amplitude``.
    """
    if lp is None:
        lp = LittlewoodPaley(grid)
    if grid.dim != spec.dim:
        raise ValueError(f"grid dimension {grid.dim} != spec dimension {spec.dim}")
    kmin = 2.0 * np.pi / grid.length
    band = spec.band if spec.band is not None else (0.75 * 2.0**lp.j_min, 4.0 / 3.0)
    if band[1] > grid.kmax_dealiased or band[1] < kmin:
        raise ValueError(
            f"band {band} not resolvable: the populated wavenumbers are "
            f"[{kmin:.4g}, {grid.kmax_dealiased:.4g}]"
        )
    if spec.amplitude == 0.0:
        return StateFields.zeros(grid)

    rng = np.random.default_rng(spec.seed)
    kmag = grid.kmag
    edges = _octave_edges(band[0], band[1])
    beta = spec.beta

    def draw() -> np.ndarray:
        noise = rng.standard_normal(grid.shape)
        fhat = grid.forward(noise)
        with np.errstate(divide="ignore"):
            envelope = np.where(kmag > 0.0, kmag, 1.0) ** beta
        mask = (kmag >= edges[0]) & (kmag <= edges[-1])
        fhat = fhat * envelope * mask
        # per-octave renormalization: pin each disjoint band's energy to
        # the continuum integral of r^(2 beta + d - 1), so the cross-shell
        # profile is deterministic even where the lattice is sparse
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (kmag >= lo) & (kmag < hi) if hi < edges[-1] else (kmag >= lo) & (
                kmag <= hi
            )
            measured = math.sqrt(float(np.sum(np.abs(fhat[sel]) ** 2)))
            if measured == 0.0:
                continue
            p = 2.0 * beta + spec.dim
            if abs(p) > 1e-12:
                target = math.sqrt((hi**p - lo**p) / p)
            else:
                target = math.sqrt(math.log(hi / lo))
            fhat[sel] *= target / measured
        return grid.inverse(fhat)

    # a, u_1, ..., u_d, theta in turn
    state = StateFields(np.stack([draw() for _ in range(grid.dim + 2)]))
    del kmag

    series = ShellSeries.of_hats(lp, grid.forward(state.data, band=True))
    measured_delta0 = series.delta0(spec.sigma1)
    if measured_delta0 <= 0.0:
        raise RuntimeError("drawn data vanished; enlarge the band or grid")
    state.data *= spec.amplitude / measured_delta0

    comp = dict(zip(series.shells, series.composite()[:, 0]))
    inner = [
        j
        for j in FrequencySplit().select(lp.shells, "low")
        if 0.75 * 2.0**j >= max(band[0], kmin)
        and (8.0 / 3.0) * 2.0**j <= band[1]
    ]
    if inner:
        weighted = [2.0 ** (-j * spec.sigma1) * comp[j] for j in inner]
        lo_w, hi_w = min(weighted), max(weighted)
        if hi_w > 2.0 * lo_w:
            raise RuntimeError(
                f"shell profile not uniform within factor 2 (spread {hi_w / lo_w:.3f}); "
                "band too sparse on this grid"
            )
    return state


# ----------------------------------------------------------------------
# rate fitting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of ``log(value)`` against ``log(1+t)``."""

    exponent: float
    ci: float
    window: tuple[float, float]
    n_samples: int


def fit_rate(
    times: np.ndarray,
    values: np.ndarray,
    window: tuple[float, float] | None = None,
) -> RateFit:
    """Fit ``value ~ C (1+t)^p`` on the window; returns p with a 95% CI.

    Raises ``ValueError`` when fewer than ``MIN_FIT_SAMPLES`` curve samples
    fall inside the window or when any windowed value is nonpositive
    (algebraic-decay fits are meaningless there).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError("times and values must have matching shapes")
    if window is None:
        window = (float(times[0]), float(times[-1]))
    mask = (times >= window[0]) & (times <= window[1])
    n = int(np.sum(mask))
    if n < MIN_FIT_SAMPLES:
        raise ValueError(
            f"fit window {window} holds {n} samples; need at least {MIN_FIT_SAMPLES}"
        )
    vals = values[mask]
    if np.any(vals <= 0.0):
        raise ValueError("fit window contains nonpositive values; cannot take logs")
    x = np.log1p(times[mask])
    y = np.log(vals)
    if np.ptp(x) <= 0.0:
        raise ValueError("fit window spans a single time; slope undefined")
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    stderr = math.sqrt(max(float(cov[0, 0]), 0.0))
    return RateFit(
        exponent=float(coeffs[0]),
        ci=CONFIDENCE_Z * stderr,
        window=(float(window[0]), float(window[1])),
        n_samples=n,
    )


# ----------------------------------------------------------------------
# targets, verdicts, experiment driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RateTarget:
    """One norm whose decay exponent is predicted and checked.

    ``component`` is ``"state"`` (composite of a, u, theta) or ``"u"``;
    the velocity carries the extra -1/2 from its exponential damping.
    """

    sigma: float
    component: str = "state"
    tolerance: float = 0.05

    def __post_init__(self) -> None:
        if self.component not in ("state", "u"):
            raise ValueError("component must be 'state' or 'u'")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")

    def predicted_exponent(self, sigma1: float) -> float:
        if self.component == "u":
            return -(1.0 + self.sigma + sigma1) / 2.0
        return -(self.sigma + sigma1) / 2.0

    def validate(self, dim: int, sigma1: float) -> None:
        if self.component == "u":
            if not velocity_enhancement_in_range(dim, sigma1):
                raise ValueError(
                    f"velocity targets require d >= 2 and sigma1 in (-d/2+1, d/2] "
                    f"= ({-dim / 2.0 + 1.0}, {dim / 2.0}]; got d={dim}, sigma1={sigma1}"
                )
            hi = dim / 2.0 - 1.0
        else:
            hi = dim / 2.0
        if not (-sigma1 < self.sigma <= hi):
            raise ValueError(
                f"sigma={self.sigma} outside the admissible interval "
                f"(-sigma1, {hi}] = ({-sigma1}, {hi}] for component '{self.component}'"
            )

    def name(self, sigma1: float) -> str:
        return f"{self.component}_s{self.sigma:g}_sigma1_{sigma1:g}"


def _default_linear_times(window: tuple[float, float]) -> np.ndarray:
    # t = 0 is always the first time, so a window from 0 starts the ladder at 1
    start = min(1.0, window[0]) or 1.0
    return np.concatenate(
        [[0.0], np.geomspace(start, window[1] * 1.0000001, 160)]
    )


def run_decay_experiment(
    spec: InitialDataSpec,
    targets: Sequence[RateTarget],
    mode: str = "linear-quadrature",
    *,
    window: tuple[float, float] | None = None,
    nodes_per_octave: int = 64,
    trajectory: TrajectoryRecord | None = None,
    neg_ratio_bound: float = 4.0,
) -> Outcome:
    """Measure decay exponents against their predictions.

    ``linear-quadrature`` evolves a radial whole-space profile with the
    exact semigroup (no box truncation, windows up to 1e4 are cheap);
    ``nonlinear-box`` fits the given box ``trajectory`` of the full system,
    so the fit window must end before the box sound-crossing horizon
    ``L/2``.  ``neg_ratio_bound`` bounds the
    growth of the sup-shell norm at regularity ``-sigma1`` over ``delta0``.

    The verdicts are one fitted-exponent comparison per target, then the
    ``neg-norm-ratio`` bound (with ``delta0`` among its extras); the curves
    are ``neg_sup`` and one per target, each with the fit window and mode.
    """
    for tgt in targets:
        tgt.validate(spec.dim, spec.sigma1)

    if mode == "linear-quadrature":
        if window is None:
            window = (1e2, 1e4)
        if spec.band is not None:
            band = spec.band
        else:
            # Shallow spectra (small sigma + sigma1) keep a visible share of
            # their norm near the band bottom; the missing modes below it
            # would not have decayed inside the window, so a too-high floor
            # steepens the fitted slope.  Push the floor low enough that the
            # truncated fraction (lo * sqrt(t_end))^(sigma+sigma1) is < 3%.
            gammas = [
                tgt.sigma + spec.sigma1 + (1.0 if tgt.component == "u" else 0.0)
                for tgt in targets
            ]
            lo = 1e-4
            if gammas and min(gammas) < 1.0:
                lo = min(lo, 0.03 ** (1.0 / min(gammas)) / math.sqrt(window[1]))
                lo = max(lo, 1e-10)
            band = (lo, 1.0)
        profile = saturating_profile(spec.sigma1, spec.dim, band, spec.amplitude)
        run = semigroup_besov_decay(
            profile,
            spec.dim,
            _default_linear_times(window),
            nodes_per_octave=nodes_per_octave,
            r_range=(band[0] * 0.5, max(1e3, band[1] * 4.0)),
        )
    elif mode == "nonlinear-box":
        if trajectory is None:
            raise ValueError("nonlinear-box mode needs a trajectory")
        box = float(trajectory.grid.length)
        if window is None:
            window = (1.0, box / 2.0)
        if window[1] > box / 2.0 + 1e-9:
            raise ValueError(
                f"fit window end {window[1]} exceeds the box sound-crossing "
                f"horizon L/2 = {box / 2.0}; periodic images contaminate later times"
            )
        run = trajectory
    else:
        raise ValueError(f"unknown mode {mode!r}")

    series = run.series
    rtimes = series.times
    delta0 = series.delta0(spec.sigma1)
    x0 = float(series.critical()[0])

    neg_sup = series.besov(-spec.sigma1, np.inf, regime="low")
    neg_norm_ratio = float(np.max(neg_sup) / delta0) if delta0 > 0 else 0.0

    meta = {"window": list(window), "mode": mode}
    curves = {"neg_sup": (rtimes, neg_sup, meta)}
    verdicts: list[Verdict] = []
    for tgt in targets:
        components = COMPONENTS if tgt.component == "state" else ("u",)
        vals = series.besov(tgt.sigma, 1, components)
        name = tgt.name(spec.sigma1)
        curves[name] = (rtimes, vals, meta)
        fit = fit_rate(rtimes, vals, window)
        verdicts.append(Verdict.from_comparison(
            name, tgt.predicted_exponent(spec.sigma1), fit.exponent, tgt.tolerance,
            ci=fit.ci, sigma=tgt.sigma, component=tgt.component, window=list(fit.window),
        ))
    verdicts.append(Verdict.from_bound("neg-norm-ratio", neg_norm_ratio, neg_ratio_bound,
                                       delta0=delta0, x0=x0))

    return Outcome(verdicts, curves)


# ----------------------------------------------------------------------
# damped velocity mode: Duhamel identity plus enhanced rates
# ----------------------------------------------------------------------
def _exp_trapezoid_weights(h: float) -> tuple[float, float]:
    """Weights (A, B) with int_0^h e^{-(h-s)} f ds ~ A f(0) + B f(h).

    The exponential kernel is integrated exactly against the linear
    interpolant of f, so the only error is O(h^2 f'').
    """
    em = -math.expm1(-h)  # 1 - e^{-h}
    b = 1.0 - em / h
    a = em - b
    return a, b


def convolution_bound_constant() -> float:
    """Max over 60 times t in [1e-2, 1e4] of (1+t)^{1/2} int_0^t e^{-(t-s)} (1+s)^{-1/2} ds.

    The damped-mode Duhamel bound hinges on this convolution retaining
    the (1+t)^{-1/2} decay of its source; the constant stays small (the
    ratio tends to 1 as t grows and is below 1 for short times).
    """
    best = 0.0
    for t in np.geomspace(1e-2, 1e4, 60):
        tau = np.linspace(0.0, t, 8000)
        f = (1.0 + tau) ** -0.5
        h = tau[1] - tau[0]
        a_w, b_w = _exp_trapezoid_weights(h)
        contrib = a_w * f[:-1] + b_w * f[1:]
        decay = np.exp(-(t - tau[1:]))
        integral = float(np.sum(decay * contrib))
        best = max(best, math.sqrt(1.0 + t) * integral)
    return best


def duhamel_reconstruction(traj: TrajectoryRecord) -> tuple[float, float]:
    """Max relative L2 error of the exponential-kernel Duhamel velocity.

    The velocity equation reads ``d_t u + u = F`` with F collecting the
    pressure gradients and the quadratic terms, so
    ``u(t) = e^{-t} u(0) + int_0^t e^{-(t-s)} F(s) ds``.  F is sampled on
    the stored snapshots and the kernel is integrated exactly on each
    interval; with zero forcing the reconstruction is e^{-t} u(0) with no
    quadrature error at all.
    """
    snaps = traj.snapshots
    times = np.asarray(traj.snapshot_times, dtype=float)
    if len(snaps) < 5:
        raise ValueError(
            f"Duhamel reconstruction needs at least 5 snapshots, got {len(snaps)}; "
            "lower snapshot_stride"
        )
    grid = traj.grid
    forcing = [nonlinear_rhs(grid, snap).u + snap.u for snap in snaps]

    u0 = snaps[0].u
    accum = np.zeros_like(u0)
    worst = 0.0
    scale = max(
        math.sqrt(sum(grid.l2_norm(c) ** 2 for c in snap.u)) for snap in snaps
    )
    if scale == 0.0:
        return 0.0, 0.0
    steps = np.diff(times)
    h_max = float(np.max(steps))
    for n in range(1, len(snaps)):
        h = float(steps[n - 1])
        a_w, b_w = _exp_trapezoid_weights(h)
        accum = math.exp(-h) * accum + a_w * forcing[n - 1] + b_w * forcing[n]
        recon = math.exp(-(times[n] - times[0])) * u0 + accum
        diff = recon - snaps[n].u
        err = math.sqrt(sum(grid.l2_norm(c) ** 2 for c in diff))
        worst = max(worst, err / scale)
    return worst, h_max


def damped_mode_check(
    run,
    sigma1: float,
    *,
    sigma: float = 0.0,
    window: tuple[float, float] | None = None,
    tolerance: float = 0.10,
) -> Outcome:
    """Check the damped velocity mode against its Duhamel description.

    Three probes: (i) on trajectories, reconstruct u through the
    exponential Duhamel formula from snapshot forcings and compare in
    L2; (ii) fit ``||u||`` in the sup-shell norm at regularity
    ``-sigma1`` (prediction: exponent <= -1/2); (iii) fit the summed
    shell norm at regularity ``sigma`` against the enhanced exponent
    ``-(1 + sigma + sigma1)/2``.  Each probe is one verdict, and a fourth
    bounds the convolution constant of the Duhamel argument by
    ``CONVOLUTION_BOUND``.  The verdicts are ``u-neg-sup-exponent``,
    ``u-enhanced-exponent``, ``duhamel-convolution-constant`` and, for
    trajectory input only, ``duhamel-reconstruction``; the two fitted
    curves carry ``sigma1``.  Runs with d=1 or sigma1 outside
    (-d/2+1, d/2] are still measured, with a note saying so.
    """
    series = run.series
    times, dim = series.times, series.dim
    notes = [] if velocity_enhancement_in_range(dim, sigma1) else [
        "d=1 or sigma1 outside (-d/2+1, d/2]: enhanced velocity decay is "
        "outside the proven range; exponents reported for exploration only"
    ]

    if window is None:
        positive = times[times > 0]
        if positive.size < MIN_FIT_SAMPLES:
            raise ValueError("too few positive-time samples to fit")
        window = (float(positive[0]), float(times[-1]))

    neg_series = series.besov(-sigma1, np.inf, ("u",), "low")
    neg_fit = fit_rate(times, neg_series, window)
    sig_series = series.besov(sigma, 1, ("u",))
    sig_fit = fit_rate(times, sig_series, window)
    verdicts = [
        Verdict.from_bound("u-neg-sup-exponent", neg_fit.exponent, -0.5 + tolerance,
                           ci=neg_fit.ci),
        Verdict.from_comparison("u-enhanced-exponent", -(1.0 + sigma + sigma1) / 2.0,
                                sig_fit.exponent, tolerance, ci=sig_fit.ci, sigma=sigma),
        Verdict.from_bound("duhamel-convolution-constant",
                           convolution_bound_constant(),
                           CONVOLUTION_BOUND),
    ]
    if isinstance(run, TrajectoryRecord):
        duh_err, h_max = duhamel_reconstruction(run)
        verdicts.append(Verdict.from_bound("duhamel-reconstruction", duh_err,
                                           max(25.0 * h_max**2, 1e-12)))

    meta = {"sigma1": sigma1}
    curves = {"u_neg_sup": (times, neg_series, meta), f"u_s{sigma:g}": (times, sig_series, meta)}
    return Outcome(verdicts, curves, notes)


# ----------------------------------------------------------------------
# time-weighted norm budgets
# ----------------------------------------------------------------------
def time_weighted_functionals(
    run,
    m_exp: float,
    sigma1: float,
    *,
    fit_window: tuple[float, float] | None = None,
) -> Outcome:
    """Accumulate the (1+t)^M weighted budget and fit its growth.

    The weighted budget combines sup-in-time and L2-in-time shell norms
    (low part at regularities d/2 and d/2+1, high part one derivative
    higher, the heat component two) with the weight ``(1+t)^M``; its
    growth exponent should be ``M - (d/2 + sigma1)/2`` once M is large
    enough for the tail integrals to concentrate at the endpoint, which
    is the admissibility rule ``M > 1 + (d/2 + sigma1)/2`` enforced here.
    The unweighted companion ``x_l`` (sup-shell norms at regularity
    -sigma1) must stay bounded by a moderate multiple of delta0.

    The verdicts are ``time-weighted-growth`` (the fitted growth exponent
    of ``x_m`` within ``GROWTH_TOLERANCE`` of ``M - (d/2 + sigma1)/2``; it
    fails when the fit window spans less than a decade) and
    ``time-weighted-low-bound`` (``x_l(T) / delta0 <= LOW_BOUND_RATIO``);
    the curves are ``x_m`` and ``x_l``, each with ``sigma1`` and ``m_exp``.
    """
    series = run.series
    times, dim = series.times, series.dim
    m_min = 1.0 + (dim / 2.0 + sigma1) / 2.0
    if m_exp <= m_min:
        raise ValueError(
            f"M={m_exp} violates the admissibility rule M > 1 + (d/2 + sigma1)/2 "
            f"= {m_min}; smaller weights leave the tail integrals divergent"
        )

    half = dim / 2.0
    w_m = (1.0 + times) ** m_exp

    def x_m_piece(components, s, rho, regime):
        return series.chemin_lerner(s, rho, 1, components, regime, weight=w_m)

    def x_l_piece(components, s, rho):
        return series.chemin_lerner(s, rho, np.inf, components, "low")

    x_m = (
        x_m_piece(COMPONENTS, half, np.inf, "low")
        + x_m_piece(("a", "theta"), half + 1.0, 2, "low")
        + x_m_piece(("u",), half, 2, "low")
        + x_m_piece(COMPONENTS, half + 1.0, np.inf, "high")
        + x_m_piece(("a", "u"), half + 1.0, 2, "high")
        + x_m_piece(("theta",), half + 2.0, 2, "high")
    )
    x_l = (
        x_l_piece(COMPONENTS, -sigma1, np.inf)
        + x_l_piece(("a",), -sigma1 + 1.0, 2)
        + x_l_piece(("u",), -sigma1, 2)
        + x_l_piece(("theta",), -sigma1 + 1.0, 2)
    )

    delta0 = series.delta0(sigma1)
    bound_ratio = float(x_l[-1] / delta0) if delta0 > 0 else 0.0

    predicted = m_exp - (dim / 2.0 + sigma1) / 2.0
    exponent, decades = math.nan, 0.0
    if float(np.max(x_m)) > 0.0:
        if fit_window is None:
            positive = times[times > 0]
            fit_window = (float(positive[0]), float(times[-1]))
        decades = math.log10((1.0 + fit_window[1]) / (1.0 + fit_window[0]))
        exponent = fit_rate(times, x_m, fit_window).exponent
    verdicts = [
        Verdict("time-weighted-growth", predicted, exponent, GROWTH_TOLERANCE,
                abs(exponent - predicted) <= GROWTH_TOLERANCE and decades >= 1.0,
                {"window_decades": decades}),
        Verdict.from_bound("time-weighted-low-bound", bound_ratio, LOW_BOUND_RATIO,
                           delta0=delta0),
    ]

    meta = {"sigma1": sigma1, "m_exp": m_exp}
    return Outcome(verdicts, {"x_m": (times, x_m, meta), "x_l": (times, x_l, meta)})
