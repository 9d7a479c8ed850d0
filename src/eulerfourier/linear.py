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

Every matrix exponential of the package goes through :func:`expm_stack`,
a vectorised Pade-13 scaling-and-squaring routine for stacks of small
matrices (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 2009).

:func:`semigroup_besov_decay` evolves a radial spectral profile with the
exact propagator on a logarithmic radial quadrature and returns dyadic
shell norms over time, from which whole-space Besov decay rates are fit.
The diagonal similarity u = i w makes the longitudinal symbol
(:func:`real_reduced_symbol`) and the profile data real, so the whole
quadrature runs in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def real_reduced_symbol(r) -> np.ndarray:
    """Real form D^-1 M D of :func:`reduced_symbol`, D = diag(1, i, 1).

    In the variables (a, w, theta) with u = i w the longitudinal symbol is
    [[0, r, 0], [-r, -1, -r], [0, r, -r^2]]; exp(tM) = D exp(tB) D^-1.
    Shape (n, 3, 3) for a vector of radii.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape + (3, 3))
    out[..., 0, 1] = r
    out[..., 1, 0] = -r
    out[..., 1, 1] = -1.0
    out[..., 1, 2] = -r
    out[..., 2, 1] = r
    out[..., 2, 2] = -(r**2)
    return out


# Pade-13 numerator coefficients b_0..b_13 of exp (the denominator
# alternates their signs), scaled to b_0 = 1 so that exp(0) = I exactly
# also in complex arithmetic
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
))
# theta_13: no scaling while eta <= theta_13 (the value scipy's
# implementation of the same algorithm uses)
_THETA13 = 4.25
# 1/|c_27| in the degree-27 leading term of the Pade-13 backward error,
# binom(26, 13) * 27!, times the unit roundoff 2^-53
_ELL_SCALE = 10400600.0 * 10888869450418352160768000000.0 * 2.0**-53
# below this 1-norm the backward-error correction ell is provably zero
_ELL_FREE = _ELL_SCALE ** (1.0 / 26.0)
# matrix entries per block: bounds the working set of expm_stack
_BLOCK_ENTRIES = 1 << 15


def _onenorm(a: np.ndarray) -> np.ndarray:
    """1-norm (largest column sum of moduli) of each matrix of a stack."""
    col = np.abs(a[:, 0])
    for i in range(1, a.shape[1]):
        col = col + np.abs(a[:, i])
    return _rowmax(col)


def _rowmax(x: np.ndarray) -> np.ndarray:
    """Largest entry of each row.  Elementwise over columns: numpy's
    reductions along a short last axis cost several times more here."""
    out = x[:, 0]
    for j in range(1, x.shape[1]):
        out = np.maximum(out, x[:, j])
    return out


def _ell(a: np.ndarray) -> np.ndarray:
    """Extra squarings ell(A, 13) that keep the backward error below 2^-53.

    Uses the exact ||(|A|)^27||_1, from |A|^16 |A|^8 |A|^2 |A|.
    """
    b = np.abs(a)
    b2 = b @ b
    b4 = b2 @ b2
    b8 = b4 @ b4
    row = np.ones((a.shape[0], 1, a.shape[1]))
    for f in (b8 @ b8, b8, b2, b):
        row = row @ f
    alpha = _rowmax(row[:, 0]) / (_onenorm(a) * _ELL_SCALE)
    with np.errstate(divide="ignore"):
        ell = np.ceil(np.log2(alpha) / 26.0)
    # alpha = 0 (|A| nilpotent) needs none; an overflowed alpha gets none
    return np.where(np.isfinite(ell), np.maximum(ell, 0.0), 0.0).astype(np.int64)


def _expm_block(a: np.ndarray) -> np.ndarray:
    """Pade-13 scaling and squaring for one block of a stack."""
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    # scaling power from eta = min(max(d6, d8), max(d8, d10)),
    # d_k = ||A^k||_1^(1/k) from exact powers
    with np.errstate(divide="ignore"):
        d8 = _onenorm(a4 @ a4) ** (1.0 / 8.0)
        eta = np.minimum(
            np.maximum(_onenorm(a6) ** (1.0 / 6.0), d8),
            np.maximum(d8, _onenorm(a4 @ a6) ** (1.0 / 10.0)),
        )
        s = np.ceil(np.log2(eta / _THETA13))
    s = np.where(s > 0, s, 0.0).astype(np.int64)  # eta = 0: nilpotent, s = 0
    big = np.flatnonzero(_onenorm(a) * np.ldexp(1.0, -s) > _ELL_FREE)
    if big.size:
        s[big] += _ell(a[big] * np.ldexp(1.0, -s[big])[:, None, None])

    f = np.ldexp(1.0, -s)[:, None, None]
    a, a2, a4, a6 = a * f, a2 * f**2, a4 * f**4, a6 * f**6
    b = _PADE13
    eye = np.eye(a.shape[-1])
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    x = np.linalg.solve(v - u, v + u)  # LAPACK, one matrix at a time

    # squaring, bucketed: sorted by s, round i squares only the tail s >= i
    order = np.argsort(s, kind="stable")
    x, s = x[order], s[order]
    for i in range(1, int(s[-1]) + 1):
        lo = np.searchsorted(s, i)
        x[lo:] = x[lo:] @ x[lo:]
    out = np.empty_like(x)
    out[order] = x
    return out


def expm_stack(a) -> np.ndarray:
    """exp(A) for every matrix of a stack ``a`` of shape (N, n, n).

    Pade-13 scaling and squaring after Al-Mohy & Higham (2009): each
    matrix gets its own scaling power s from the estimate
    eta = min(max(d6, d8), max(d8, d10)), d_k = ||A^k||_1^(1/k), raised
    by the backward-error correction ell where ||2^-s A||_1 allows it to
    be positive.  The stack is processed in blocks of a fixed number of
    entries; within a block the squaring rounds run on the matrices
    sorted by s, so round i touches only those with s >= i.  Every
    operation acts on one matrix at a time, so a matrix's result does
    not depend on the rest of the stack.  Real input stays real.
    """
    a = np.asarray(a)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.complexfloating):
        a = a.astype(float)
    if not np.all(np.isfinite(a)):
        raise ValueError("expm_stack needs finite entries")
    step = max(1, _BLOCK_ENTRIES // (a.shape[1] ** 2))
    out = np.empty_like(a)
    for i in range(0, a.shape[0], step):
        out[i : i + step] = _expm_block(a[i : i + step])
    return out


def mode_propagator(xi: np.ndarray, t: float) -> np.ndarray:
    """exp(t M(xi)) through :func:`expm_stack` (scaling and squaring,
    robust at eigenvalue collisions, unlike diagonalisation)."""
    if t < 0:
        raise ValueError("propagation time must be nonnegative")
    return expm_stack((t * symbol_matrix(xi))[None])[0]


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
        """Initial (a, w, theta) with u = i w, shape (len(r), 3), real."""
        env = self.envelope(r, cutoffs)
        return env[..., None] * np.array([self.scale_a, self.scale_u, self.scale_theta])


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

        # real form: (a, w, theta) under B = D^-1 M D; |u| = |w| per node
        v0 = profile.amplitudes(r, cutoffs)[:, :, None]  # (R, 3, 1)
        mats = real_reduced_symbol(r)  # (R, 3, 3)
        evolved = np.empty((times.size, r.size, 3))
        # about one kernel block of times per call: no (T, R, 3, 3) stack is built
        chunk = max(1, _BLOCK_ENTRIES // (9 * r.size))
        for i in range(0, times.size, chunk):
            tt = times[i : i + chunk, None, None, None]
            props = expm_stack((tt * mats).reshape(-1, 3, 3)).reshape(-1, r.size, 3, 3)
            evolved[i : i + chunk] = (props @ v0)[..., 0]

        shells = _resolved_shells(r_range)
        area = _SPHERE_AREA[dim]
        meas = w * r ** (dim - 1)
        norms = np.empty((len(shells), 3, times.size))
        for k, j in enumerate(shells):
            phi2 = cutoffs.phi(r * 2.0 ** (-j)) ** 2
            kern = area * phi2 * meas
            for c in range(3):
                norms[k, c] = np.sqrt(evolved[:, :, c] ** 2 @ kern)
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
