"""Seeded Gaussian random fields with power-law spectral envelopes.

Fields are produced by filtering white noise in Fourier space, so they
are real by construction (Hermitian symmetry is inherited from the
transform of a real array, never assembled by hand).
"""

from __future__ import annotations

import numpy as np

from .grid import PeriodicGrid


def band_envelope(
    kmag: np.ndarray, band: tuple[float, float], exponent: float = 0.0
) -> np.ndarray:
    """|k|^exponent on band[0] <= |k| <= band[1], zero elsewhere."""
    lo, hi = band
    if not 0 < lo < hi:
        raise ValueError(f"band must satisfy 0 < lo < hi, got {band}")
    env = np.zeros_like(kmag)
    sel = (kmag >= lo) & (kmag <= hi)
    env[sel] = kmag[sel] ** exponent
    return env


def random_field(
    grid: PeriodicGrid,
    rng: np.random.Generator,
    band: tuple[float, float],
    exponent: float = 0.0,
    annulus_shell: int | None = None,
    lp=None,
) -> np.ndarray:
    """One real scalar field with the requested spectral envelope.

    If ``annulus_shell`` is given the band and exponent are ignored and the
    envelope is shell j's profile phi(|k| / 2^j), supported on
    [3/4 * 2^j, 8/3 * 2^j]: the table ``lp.shell_multiplier(j)`` of the
    :class:`~eulerfourier.littlewood.LittlewoodPaley` ``lp`` on ``grid``,
    built once per shell.
    """
    white = rng.standard_normal(grid.shape)
    what = grid.forward(white)
    if annulus_shell is None:
        env = band_envelope(grid.kmag, band, exponent)
        env.flat[0] = 0.0  # mean-free
    else:
        env = lp.shell_multiplier(annulus_shell)  # its mean mode is zero
    f = grid.inverse(what * env)
    scale = grid.l2_norm(f)
    if scale == 0.0:
        raise ValueError("envelope removed every grid mode; widen the band")
    return f / scale


def ball_field(
    grid: PeriodicGrid, rng: np.random.Generator, scale_j: int, cutoffs=None
) -> np.ndarray:
    """Real field spectrally supported in the ball |k| <= 4/3 * 2^j."""
    lam = 2.0**scale_j
    white = rng.standard_normal(grid.shape)
    what = grid.forward(white)
    if cutoffs is not None:
        env = cutoffs.chi(grid.kmag / lam)
    else:
        env = (grid.kmag <= 4.0 / 3.0 * lam).astype(float)
    f = grid.inverse(what * env)
    norm = grid.l2_norm(f)
    if norm == 0.0:
        raise ValueError("ball contains no grid mode")
    return f / norm
