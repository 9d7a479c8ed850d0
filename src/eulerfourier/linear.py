"""Mode-by-mode analysis of the linearised damped Euler-Fourier system.

Linearising around the constant equilibrium (unit density and
temperature, zero velocity) gives, per Fourier mode xi, the ODE system

    d/dt (a, u, theta)^T = M(xi) (a, u, theta)^T

with the (d+2) x (d+2) symbol assembled by :func:`symbol_matrix`:
density feeds off the velocity divergence, velocity is damped and driven
by the two gradients, temperature is damped diffusively.  For data whose
velocity is a gradient field the system block-diagonalises into the
longitudinal 3x3 system :func:`reduced_symbol` (identical to the d=1
symbol at |xi|) plus pure exponential damping of the transverse part.

:func:`semigroup_besov_decay` evolves a radial spectral profile with the
exact propagator on a logarithmic radial quadrature and returns dyadic
shell norms over time, from which whole-space Besov decay rates are fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .littlewood import DyadicCutoffs, ShellSeries, build_cutoffs


def symbol_matrix(xi: np.ndarray) -> np.ndarray:
    """Symbol of the linearised system at frequency ``xi``.

    Row/column ordering is (a, u_1, ..., u_d, theta).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    d = xi.size
    m = np.zeros((d + 2, d + 2), dtype=complex)
    m[0, 1 : d + 1] = -1j * xi  # d a/dt = -i xi . u
    m[1 : d + 1, 0] = -1j * xi  # pressure gradient, density part
    m[1 : d + 1, d + 1] = -1j * xi  # pressure gradient, temperature part
    m[np.arange(1, d + 1), np.arange(1, d + 1)] = -1.0  # friction
    m[d + 1, 1 : d + 1] = -1j * xi  # compression heating
    m[d + 1, d + 1] = -float(xi @ xi)  # heat diffusion
    return m


def reduced_symbol(r) -> np.ndarray:
    """Longitudinal 3x3 symbol at radius r; vectorised over r.

    Returns shape (3, 3) for scalar input, (n, 3, 3) for a vector of
    radii.  Equals ``symbol_matrix([r])`` in one dimension.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape + (3, 3), dtype=complex)
    out[..., 0, 1] = -1j * r
    out[..., 1, 0] = -1j * r
    out[..., 1, 1] = -1.0
    out[..., 1, 2] = -1j * r
    out[..., 2, 1] = -1j * r
    out[..., 2, 2] = -(r**2)
    return out


def mode_propagator(xi: np.ndarray, t: float) -> np.ndarray:
    """exp(t M(xi)) by scaling-and-squaring Pade (robust at eigenvalue
    collisions, unlike diagonalisation)."""
    if t < 0:
        raise ValueError("propagation time must be nonnegative")
    return expm(t * symbol_matrix(xi))


def symbol_eigenvalues(xi: np.ndarray) -> np.ndarray:
    """Eigenvalues of M(xi), sorted by decreasing real part."""
    lam = np.linalg.eigvals(symbol_matrix(xi))
    return lam[np.argsort(-lam.real, kind="stable")]


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RadialProfile:
    """Radial spectral amplitudes of the initial data.

    Each component carries amplitude ``scale * r**exponent`` on the band;
    the band edges are rolled off smoothly over one octave with the
    low-pass cutoff profile so that radial quadratures of the envelope
    converge spectrally (a sharp indicator would cap the trapezoid rule
    at first order).  The velocity amplitude is longitudinal: the
    underlying vector field is a gradient, so its transform is i * rhat
    times the stated amplitude.
    """

    band: tuple[float, float]
    exponent: float
    scale_a: float = 1.0
    scale_u: float = 1.0
    scale_theta: float = 1.0
    smooth_edges: bool = True

    def __post_init__(self) -> None:
        lo, hi = self.band
        if not 0 < lo < hi:
            raise ValueError(f"band must satisfy 0 < lo < hi, got {self.band}")

    def envelope(self, r: np.ndarray, cutoffs: DyadicCutoffs | None = None) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        lo, hi = self.band
        if self.smooth_edges:
            if cutoffs is None:
                cutoffs = build_cutoffs()
            ramp = (1.0 - cutoffs.chi(4.0 * r / (3.0 * lo))) * cutoffs.chi(r / hi)
        else:
            ramp = ((r >= lo) & (r <= hi)).astype(float)
        env = np.zeros_like(r)
        sel = ramp > 0.0
        env[sel] = ramp[sel] * r[sel] ** self.exponent
        return env

    def amplitudes(self, r: np.ndarray, cutoffs: DyadicCutoffs | None = None) -> np.ndarray:
        """Initial longitudinal 3-vectors, shape (len(r), 3), complex."""
        env = self.envelope(r, cutoffs)
        out = np.empty(env.shape + (3,), dtype=complex)
        out[..., 0] = self.scale_a * env
        out[..., 1] = 1j * self.scale_u * env
        out[..., 2] = self.scale_theta * env
        return out


def saturating_profile(
    sigma1: float, dim: int, band: tuple[float, float] = (1e-4, 1.0), scale: float = 1.0
) -> RadialProfile:
    """Profile whose shell norms make 2^{-j sigma1} ||block_j|| constant.

    The envelope exponent sigma1 - d/2 makes every resolvable low shell
    carry the same weighted norm, i.e. the data saturates the
    sup-over-shells norm of extra regularity sigma1.
    """
    return RadialProfile(band=band, exponent=sigma1 - dim / 2.0, scale_a=scale,
                         scale_u=scale, scale_theta=scale)


_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


class QuadratureError(RuntimeError):
    """Radial quadrature failed its node-doubling convergence check."""


@dataclass
class SemigroupCurve:
    """Shell norms of the evolved profile over time."""

    sigma1: float
    series: ShellSeries
    meta: dict = field(default_factory=dict)


def _resolved_shells(r_range: tuple[float, float]) -> list[int]:
    import math

    lo = math.ceil(math.log2(r_range[0] / 0.75))
    hi = math.floor(math.log2(r_range[1] * 3.0 / 8.0))
    return list(range(lo, hi + 1))


#: Besov columns certified by the default convergence check:
#: (components, regularity s, summation exponent r).
DEFAULT_CONVERGENCE_COLUMNS: list[tuple[tuple[str, ...], float, float]] = [
    (("a", "theta"), 0.0, 1),
    (("u",), 0.0, 1),
]


def semigroup_besov_decay(
    profile: RadialProfile,
    dim: int,
    sigma1: float,
    times: np.ndarray,
    nodes_per_octave: int = 64,
    r_range: tuple[float, float] = (1e-4, 1e3),
    cutoffs: DyadicCutoffs | None = None,
    check_convergence: bool = True,
    convergence_columns: list[tuple[tuple[str, ...], float, float]] | None = None,
) -> SemigroupCurve:
    """Evolve ``profile`` with the exact semigroup; return shell norms.

    The whole-space shell norm is the surface-measure-weighted radial
    integral of the propagated amplitudes,

        ||block_j U(t)||^2 = omega_d * int phi(2^-j r)^2 |U(t, r)|^2 r^(d-1) dr,

    evaluated by the trapezoid rule in log r on ``nodes_per_octave``
    nodes per frequency octave.  With ``check_convergence`` the run is
    repeated at twice the node count and every reported Besov column
    (``convergence_columns``; the curve's norms consumers will fit) must
    agree within 1e-4 relative, else :class:`QuadratureError` is raised.
    Individual deeply-decayed shells are allowed larger relative error;
    they sit many orders of magnitude below the columns they feed.
    """
    if dim not in _SPHERE_AREA:
        raise ValueError("dim must be 1, 2 or 3")
    times = np.asarray(times, dtype=float)
    if np.any(times < 0) or times.size == 0:
        raise ValueError("times must be nonnegative and nonempty")
    if cutoffs is None:
        cutoffs = build_cutoffs()

    def run(npo: int) -> SemigroupCurve:
        n_nodes = int(np.ceil(npo * np.log2(r_range[1] / r_range[0]))) + 1
        s = np.linspace(np.log(r_range[0]), np.log(r_range[1]), n_nodes)
        r = np.exp(s)
        # trapezoid weights in s, with the log-measure Jacobian r ds
        w = np.full(n_nodes, s[1] - s[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        w = w * r

        v0 = profile.amplitudes(r, cutoffs)  # (R, 3)
        mats = reduced_symbol(r)  # (R, 3, 3)
        big = times[:, None, None, None] * mats[None, :, :, :]
        props = expm(big.reshape(-1, 3, 3)).reshape(times.size, r.size, 3, 3)
        evolved = np.einsum("trij,rj->tri", props, v0)  # (T, R, 3)

        shells = _resolved_shells(r_range)
        area = _SPHERE_AREA[dim]
        meas = w * r ** (dim - 1)
        norms = np.empty((len(shells), 3, times.size))
        for k, j in enumerate(shells):
            phi2 = cutoffs.phi(r * 2.0 ** (-j)) ** 2
            kern = area * phi2 * meas
            for c in range(3):
                norms[k, c] = np.sqrt(np.abs(evolved[:, :, c]) ** 2 @ kern)
        return SemigroupCurve(
            sigma1=sigma1,
            series=ShellSeries(times, tuple(shells), dim, norms),
            meta={
                "nodes_per_octave": npo,
                "r_range": r_range,
                "band": profile.band,
                "exponent": profile.exponent,
            },
        )

    curve = run(nodes_per_octave)
    if check_convergence:
        fine = run(2 * nodes_per_octave)
        cols = convergence_columns if convergence_columns is not None else DEFAULT_CONVERGENCE_COLUMNS
        for comps, s_reg, r_sum in cols:
            # component norms are summed, not combined in ell^2
            coarse_col, fine_col = (
                sum(crv.series.besov(s_reg, r_sum, (c,)) for c in comps) for crv in (curve, fine)
            )
            floor = 1e-12 * np.max(fine_col) if np.max(fine_col) > 0 else 1e-300
            rel = np.abs(coarse_col - fine_col) / np.maximum(fine_col, floor)
            rel[fine_col <= floor] = 0.0
            if np.any(rel > 1e-4):
                raise QuadratureError(
                    f"Besov column {comps} s={s_reg} moved by {np.max(rel):.2e} "
                    "relative under node doubling (tolerance 1e-4)"
                )
        curve.meta["convergence_checked"] = True
    return curve
