"""Periodic pseudo-spectral grid: transforms, derivatives, the 2/3-rule band.

All fields live on a uniform periodic grid of N**d points covering
[0, L)**d.  The forward transform is normalised so that the zero mode
equals the spatial mean of the field; with that convention Parseval reads

    ||f||_{L^2}^2 = L**d * sum_k |fhat_k|^2,

which is how every L^2-type norm in this package is evaluated.

Transforms, derivatives, products and norms act on the last d axes of any
``(..., *grid.shape)`` stack of fields in one call; norms give one value per
row.  A transform is one ``numpy.fft`` complex FFT per grid axis, last axis
first, in place on one complex copy of the input: the order of
``numpy.fft.fftn``, and scaling by a power of two is exact, so each one equals
``numpy.fft.fftn(f) / N**d`` bit for bit, and scipy's ``fftn`` over the same
axes too, in one pass per stack of small fields or one pass per field of at
least ``ROW_POINTS``.  numpy loads ``numpy.fft`` lazily;
:func:`~eulerfourier.config.parse_config` imports it up front for the kinds
that transform.

The 2/3 rule is stated here alone.  Its band layout holds the kept modes,
all integer frequencies at most N/3 in size, (2 floor(N/3) + 1)**d of them
in FFT order; ``forward(f, band=True)`` returns it and ``inverse`` takes it,
each transforming only the lines the band needs.  numpy transforms each line
on its own, an all-zero one to +0, so they equal the full-layout transforms
restricted to, or zero-filled from, the band bit for bit.  One layout's
modes sit in another as the 2**d slab blocks of :func:`_blocks`: the band in
the full layout, and that in ``fine``'s, the same box at 2N points, where
``times`` multiplies, alias-free as 2N points hold every sum frequency.  The
full layout's ``kmag`` and radius index are formed on access and shared while held.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field

import numpy as np

#: fields of at least this many points are transformed one at a time: on a 2-vCPU
#: Xeon that makes a 64**3 simulate run 2-10 % faster and 2 MB smaller than one
#: pass per stack, while below 2**14 points one pass per stack is 1.1-1.6x faster
ROW_POINTS = 2**14


def _per_row(value: np.ndarray):
    """A reduction over the grid axes: a float for one field, one value per row of a stack."""
    return value if value.ndim else float(value)


@functools.cache
def _blocks(n: int, s: int, dim: int) -> tuple:
    """(n-point, s-point) index pairs of the 2**dim slab blocks that hold the
    frequencies two layouts share: -(k // 2) ... (k - 1) // 2, k = min(n, s)."""
    k = min(n, s)
    a, b = ((slice(0, (k + 1) // 2), slice(m - k // 2, m)) for m in (n, s))
    pairs = zip(*(itertools.product(x, repeat=dim) for x in (a, b)))
    return tuple(((..., *x), (..., *y)) for x, y in pairs)


def _resize(fhat: np.ndarray, shape: tuple, dtype=complex) -> np.ndarray:
    """A spectral stack in the ``shape`` layout: the modes the two layouts share,
    zero elsewhere (zero-padded into a larger layout, truncated to a smaller one)."""
    out = np.zeros(fhat.shape[: fhat.ndim - len(shape)] + shape, dtype=dtype)
    for to, frm in _blocks(shape[0], fhat.shape[-1], len(shape)):
        out[to] = fhat[frm]
    return out


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid with cached wavenumber arrays.

    Parameters
    ----------
    dim : spatial dimension, 1, 2 or 3.
    npts : points per direction; a power of two, at least 8.
    length : box side length L.
    """

    dim: int
    npts: int
    length: float

    # caches filled in __post_init__; a grid compares and hashes as (dim, npts, length)
    wavenumbers: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    band_shape: tuple[int, ...] = field(init=False, repr=False, compare=False)
    band_wavenumbers: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    band_kmag: np.ndarray = field(init=False, repr=False, compare=False)
    # per grid axis, last axis first, the lines along it that a band transform
    # touches: forward (False) those kept on the axes already transformed,
    # inverse (True) those holding band data on the axes still to transform
    _band_lines: dict = field(init=False, repr=False, compare=False)
    _held: weakref.WeakValueDictionary = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        n = self.npts
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"npts must be a power of two >= 8, got {n}")
        if not self.length > 0:
            raise ValueError("length must be positive")

        freq = np.fft.fftfreq(n, d=1.0 / n)
        # two-thirds rule: drop any mode with an integer frequency above N/3.
        # N is a power of two so N/3 is never an integer and quadratic
        # products of retained modes alias strictly outside the retained band.
        mesh = np.meshgrid(*([np.abs(freq) <= n / 3.0] * self.dim), indexing="ij")
        object.__setattr__(self, "dealias_mask", np.all(mesh, axis=0))
        # per axis the band is two slabs of the full layout, frequencies 0..m and -m..-1
        m = n // 3
        kept = (slice(0, m + 1), slice(n - m, n))
        object.__setattr__(self, "band_shape", (2 * m + 1,) * self.dim)
        # integer frequencies scaled to physical wavenumbers 2*pi*m/L
        k1 = 2.0 * np.pi * freq / self.length
        for prefix, k in (("", k1), ("band_", np.concatenate([k1[s] for s in kept]))):
            axes = np.meshgrid(*([k] * self.dim), indexing="ij", sparse=True)
            object.__setattr__(self, prefix + "wavenumbers", tuple(axes))
        object.__setattr__(self, "_held", weakref.WeakValueDictionary())
        object.__setattr__(self, "band_kmag", _resize(self.kmag, self.band_shape, float))

        def lines(cut):  # index of the lines holding band data on the axes in ``cut``
            return tuple((..., *index) for index in itertools.product(
                *(kept if k in cut else (slice(None),) for k in range(self.dim))))
        object.__setattr__(self, "_band_lines", {
            False: tuple(lines(range(k + 1, self.dim)) for k in reversed(range(self.dim))),
            True: tuple(lines(range(k)) for k in reversed(range(self.dim)))})

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return (self.npts,) * self.dim

    @property
    def spacing(self) -> float:
        return self.length / self.npts

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def kmax_dealiased(self) -> float:
        """Largest wavenumber magnitude kept per axis by the 2/3 rule."""
        return 2.0 * np.pi * np.floor(self.npts / 3.0) / self.length

    def coordinates(self) -> tuple[np.ndarray, ...]:
        x1 = np.arange(self.npts) * self.spacing
        return tuple(np.meshgrid(*([x1] * self.dim), indexing="ij", sparse=True))

    @property
    def kmag(self) -> np.ndarray:
        """|k| on the full layout: formed on access, the same array while a caller holds it."""
        kmag = self._held.get("kmag")
        if kmag is None:
            kmag = self._held["kmag"] = np.sqrt(sum(a**2 for a in self.wavenumbers))
        return kmag

    @property
    def axes(self) -> tuple[int, ...]:
        """The grid axes of a stacked field, last axis first."""
        return tuple(range(-1, -self.dim - 1, -1))

    # ------------------------------------------------------------------
    def _c2c(self, f, inverse: bool, band: bool, real: bool) -> np.ndarray:
        """The FFT or inverse FFT along each grid axis in turn, last axis first, in
        place on one complex copy of ``f`` (real input is cast: a real-input FFT
        rounds differently); a stack of large fields one field at a time.  With
        ``band``, only the lines of ``_band_lines``, on a copy of the full layout."""
        f = np.asarray(f)
        lead = f.shape[: f.ndim - self.dim]
        if f.shape[len(lead) :] != (self.band_shape if band and inverse else self.shape):
            raise ValueError(f"field shape {f.shape} does not end in grid shape {self.shape}")
        if lead and self.npts**self.dim >= ROW_POINTS:
            shape = lead + (self.band_shape if band and not inverse else self.shape)
            out = np.empty(shape, dtype=float if real else complex)
            for row in np.ndindex(lead):
                value = self._c2c(f[row], inverse, band, False)
                out[row] = value.real if real else value
                del value  # not alive while the next row is transformed
            return out
        out = self.from_band(f) if band and inverse else np.array(f, dtype=complex)
        transform = np.fft.ifft if inverse else np.fft.fft
        lines = self._band_lines[inverse] if band else [[...]] * self.dim
        for axis, axis_lines in zip(self.axes, lines):
            for line in axis_lines:
                transform(out[line], axis=axis, norm="forward", out=out[line])
        if band and not inverse:
            out = self.to_band(out)
        # a copy, so that a held real part does not keep the complex array alive
        return out.real.copy() if real else out

    def forward(self, f: np.ndarray, band: bool = False) -> np.ndarray:
        """FFT normalised so the zero mode is the mean of ``f``; its band layout if ``band``."""
        return self._c2c(f, inverse=False, band=band, real=False)

    def inverse(self, fhat: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`, of a full-layout or band stack; returns the real part."""
        return self._c2c(fhat, inverse=True, band=self.in_band(fhat), real=True)

    def in_band(self, fhat: np.ndarray) -> bool:
        """Whether a spectral stack is in the band layout (else the full one)."""
        return np.shape(fhat)[-self.dim :] == self.band_shape

    def to_band(self, fhat: np.ndarray) -> np.ndarray:
        """The band layout of a full-layout spectral stack."""
        return _resize(fhat, self.band_shape)

    def from_band(self, bhat: np.ndarray) -> np.ndarray:
        """The full layout of a band stack, zero off the band."""
        return _resize(bhat, self.shape)

    def derivative_hat(self, fhat: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
        ik = 1j * (self.band_wavenumbers if self.in_band(fhat) else self.wavenumbers)[axis]
        return fhat * (ik if order == 1 else ik**order)  # ik**1 would be a copy

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """``(dim, *f.shape)`` stack of the partial derivatives of ``f``."""
        fhat = self.forward(f)
        return self.inverse(np.stack([1j * k * fhat for k in self.wavenumbers]))

    def divergence(self, vec: np.ndarray) -> np.ndarray:
        """Divergence of a ``(dim, ..., N, ..., N)`` vector field."""
        vhat = self.forward(vec)
        return sum(self.inverse(np.stack([1j * k * h for k, h in zip(self.wavenumbers, vhat)])))

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        return self.inverse(-(self.kmag**2) * self.forward(f))

    # ------------------------------------------------------------------
    def l2_norm(self, f: np.ndarray):
        """Grid L^2 norm, i.e. sqrt of the quadrature of |f|^2."""
        return _per_row(np.sqrt(np.sum(np.abs(f) ** 2, axis=self.axes) * self.cell_volume))

    def lp_norm(self, f: np.ndarray, p: float):
        if p == np.inf:
            return _per_row(np.max(np.abs(f), axis=self.axes))
        total = np.sum(np.abs(f) ** p, axis=self.axes) * self.cell_volume
        return _per_row(total ** (1.0 / p))

    def l2_norm_hat(self, fhat: np.ndarray, weight: np.ndarray | None = None):
        """L^2 norm of ``weight * fhat`` by Parseval, one value per row of a stack; a band
        stack's squares are zero-filled, to sum as its full layout does."""
        square = np.abs(fhat if weight is None else fhat * weight) ** 2
        square = _resize(square, self.shape, float) if self.in_band(fhat) else square
        total = np.sqrt(square.sum(axis=self.axes))
        return _per_row(total * self.length ** (self.dim / 2.0))

    def mean(self, f: np.ndarray) -> float:
        return float(np.mean(f))

    @functools.cached_property
    def radii(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct values of ``kmag``, and each band mode's index into them."""
        r, index = np.unique(self.kmag, return_inverse=True)
        return r, _resize(index.reshape(self.shape), self.band_shape, index.dtype)

    def radius_index(self, band: bool) -> np.ndarray:
        """Each mode's index into ``radii[0]``, in the band layout or, formed on access and
        the same array while a caller holds it, the full one."""
        index = self.radii[1] if band else self._held.get("index")
        if index is None:
            index = self._held["index"] = np.searchsorted(self.radii[0], self.kmag)
        return index

    # ------------------------------------------------------------------
    @functools.cached_property
    def fine(self) -> "PeriodicGrid":
        """The same box at 2N points, where :meth:`times` multiplies."""
        return PeriodicGrid(self.dim, 2 * self.npts, self.length)

    def times(self, f: np.ndarray):
        """g -> f g, alias-free: both factors zero-padded onto :attr:`fine`,
        multiplied there and truncated back.  ``f`` is transformed once; ``g``
        is a field or a stack, or a chunk row for row with a chunk ``f``."""
        fine = self.fine
        f_fine = fine.inverse(_resize(self.forward(f), fine.shape))

        def product(g: np.ndarray) -> np.ndarray:
            g_fine = fine.inverse(_resize(self.forward(g), fine.shape))
            return self.inverse(_resize(fine.forward(f_fine * g_fine), self.shape))
        return product


@dataclass
class StateFields:
    """Density perturbation, velocity and temperature perturbation.

    ``data`` is one ``(dim + 2, *rows, *grid.shape)`` stack [a, u_1, ...,
    u_dim, theta]: one state, or with leading ``rows`` a chunk of snapshots.
    ``a`` and ``theta`` (relative to the unit background density and
    temperature) and the ``(dim, *rows, *grid.shape)`` velocity ``u`` are
    views of it, so a write through ``state.a[...]`` lands in ``data``.
    """

    data: np.ndarray

    @property
    def a(self) -> np.ndarray:
        return self.data[0]

    @property
    def u(self) -> np.ndarray:
        return self.data[1:-1]

    @property
    def theta(self) -> np.ndarray:
        return self.data[-1]

    @classmethod
    def zeros(cls, grid: PeriodicGrid) -> "StateFields":
        return cls(np.zeros((grid.dim + 2,) + grid.shape))
