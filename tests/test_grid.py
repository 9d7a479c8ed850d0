"""Spectral grid: transforms, calculus, dealiasing, and field containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerfourier.grid import ROW_POINTS, PeriodicGrid, StateFields, _resize


def test_roundtrip_and_parseval(grid1d, rng):
    f = rng.standard_normal(grid1d.shape)
    fhat = grid1d.forward(f)
    back = grid1d.inverse(fhat)
    assert np.max(np.abs(back - f)) < 1e-12

    # Parseval with the normalization used throughout: ||f||_{L2}^2 = L^d sum |fhat|^2.
    assert np.isclose(grid1d.l2_norm(f), grid1d.l2_norm_hat(fhat), rtol=1e-12)


def test_l2_norm_matches_quadrature(grid1d):
    (x,) = grid1d.coordinates()
    f = np.sin(2.0 * np.pi * x / grid1d.length)
    # Exact L2 norm of sin(k x) over one period is sqrt(L/2).
    assert np.isclose(grid1d.l2_norm(f), np.sqrt(grid1d.length / 2.0), rtol=1e-12)


def test_derivative_of_single_mode_is_exact(grid1d):
    (x,) = grid1d.coordinates()
    k = 2.0 * np.pi * 5 / grid1d.length
    f = np.sin(k * x)
    (df,) = grid1d.gradient(f)
    assert np.max(np.abs(df - k * np.cos(k * x))) < 1e-11

    d2f = grid1d.inverse(grid1d.derivative_hat(grid1d.forward(f), axis=0, order=2))
    assert np.max(np.abs(d2f + k * k * f)) < 1e-9


def test_vector_calculus_identities(grid2d, rng):
    f = rng.standard_normal(grid2d.shape)
    f = grid2d.inverse(grid2d.forward(f, band=True))
    grad = grid2d.gradient(f)
    # div(grad f) == laplacian f
    assert np.max(np.abs(grid2d.divergence(np.stack(grad)) - grid2d.laplacian(f))) < 1e-8
    # curl-free: d_y (d_x f) == d_x (d_y f)
    cross1 = grid2d.gradient(grad[0])[1]
    cross2 = grid2d.gradient(grad[1])[0]
    assert np.max(np.abs(cross1 - cross2)) < 1e-8


def test_dealiased_product_matches_fine_grid(grid1d, grid2d, rng):
    # A product kept on the 2/3-rule band must agree with the exact
    # (padded) product restricted back to the coarse grid, in every dimension.
    for grid in (grid1d, grid2d, PeriodicGrid(dim=3, npts=16, length=4.0 * np.pi)):
        f, g = (grid.inverse(grid.forward(rng.standard_normal(grid.shape), band=True))
                for _ in range(2))
        direct = grid.forward(f * g, band=True)
        exact = grid.times(f)(g)
        assert np.max(np.abs(direct - grid.forward(exact, band=True))) < 1e-12, grid.dim


def _fancy_index(n: int, freq: np.ndarray, dim: int) -> tuple:
    """np.ix_ index, in an n-point layout per axis, of the signed integer
    frequencies ``freq``: the negative ones counted from the end of each axis."""
    return (..., *np.ix_(*[freq % n] * dim))


@pytest.mark.parametrize("dim, npts", [(1, 32), (2, 16), (3, 8)])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_slab_embedding_equals_fancy_indexing(dim, npts, lead):
    # the slab blocks place one layout's modes in a larger one exactly where
    # fancy indexing by signed frequency does, signed zeros included
    grid = PeriodicGrid(dim=dim, npts=npts, length=2.0 * np.pi)
    rng = np.random.default_rng(npts + dim)
    freq = np.fft.fftfreq(npts, d=1.0 / npts).astype(int)  # frequencies in FFT order

    def draw(shape):
        return rng.standard_normal(lead + shape) + 1j * rng.standard_normal(lead + shape)

    # the band (|k| <= N/3) in the full layout, and the full layout in the 2x one
    band_freq = freq[np.abs(freq) <= npts // 3]
    for small_freq, small_shape, large_shape, embed, keep in [
        (band_freq, grid.band_shape, grid.shape, grid.from_band, grid.to_band),
        (freq, grid.shape, grid.fine.shape, lambda h: _resize(h, grid.fine.shape),
         lambda h: _resize(h, grid.shape)),
    ]:
        index = _fancy_index(large_shape[0], small_freq, dim)
        small, large = draw(small_shape), draw(large_shape)
        large[(..., *(0,) * dim)] = -0.0  # a signed zero must survive the copy
        padded = np.zeros(lead + large_shape, dtype=complex)
        padded[index] = small
        assert embed(small).tobytes() == padded.tobytes()
        assert keep(large).tobytes() == large[index].tobytes()

    # the alias-free product equals the one built on fancy indexing
    f, g = rng.standard_normal((2,) + lead + grid.shape)
    index = _fancy_index(2 * npts, freq, dim)

    def on_fine(h):
        padded = np.zeros(lead + grid.fine.shape, dtype=complex)
        padded[index] = grid.forward(h)
        return grid.fine.inverse(padded)

    oracle = grid.inverse(grid.fine.forward(on_fine(f) * on_fine(g))[index])
    assert grid.times(f)(g).tobytes() == oracle.tobytes()


# a single field and a stack, on grids on both sides of ROW_POINTS
BAND_GRIDS = [(1, 512), (1, 2**14), (2, 64), (2, 128), (3, 16), (3, 32)]


@pytest.mark.parametrize("dim,npts", BAND_GRIDS)
@pytest.mark.parametrize("lead", [(), (3,)])
def test_band_transforms_equal_the_full_ones_bit_for_bit(dim, npts, lead):
    grid = PeriodicGrid(dim=dim, npts=npts, length=2.0 * np.pi)
    assert (npts**dim >= ROW_POINTS) == (npts in (2**14, 128, 32))
    mask = grid.dealias_mask
    rng = np.random.default_rng(npts + dim)
    f = rng.standard_normal(lead + grid.shape)
    full = grid.forward(f)
    band = grid.forward(f, band=True)
    assert band.shape == lead + grid.band_shape == lead + (2 * (npts // 3) + 1,) * dim
    # the band layout is the kept modes in FFT order, signed zeros included
    assert band.reshape(lead + (-1,)).tobytes() == full[..., mask].tobytes()
    filled = np.zeros_like(full)
    filled[..., mask] = band.reshape(lead + (-1,))
    assert grid.inverse(band).tobytes() == grid.inverse(filled).tobytes()
    assert grid.from_band(band).tobytes() == filled.tobytes()
    assert grid.to_band(full).tobytes() == band.tobytes()
    for axis in range(dim):
        assert (grid.derivative_hat(band, axis).reshape(lead + (-1,)).tobytes()
                == grid.derivative_hat(full, axis)[..., mask].tobytes())
    assert np.array_equal(grid.band_kmag.ravel(), grid.kmag[mask])


def test_pad_restrict_roundtrip(grid1d, rng):
    fhat = grid1d.forward(rng.standard_normal(grid1d.shape))
    padded = _resize(fhat, grid1d.fine.shape)
    assert np.count_nonzero(padded) == np.count_nonzero(fhat)
    assert _resize(padded, grid1d.shape).tobytes() == fhat.tobytes()


# 32**3 points lie above ROW_POINTS, so that stack is transformed field by
# field; the others in one call per stack
STACK_GRIDS = [(1, 512, 8.0 * np.pi), (2, 64, 8.0 * np.pi), (3, 32, 4.0 * np.pi),
               (3, 16, 4.0 * np.pi)]


@pytest.mark.parametrize("dim, npts, length", STACK_GRIDS)
def test_stacked_calls_equal_per_field_calls(dim, npts, length, rng):
    # a stack of fields goes through one call, bit for bit what one call per
    # field gives; the Lyapunov audit's chunking relies on it
    grid = PeriodicGrid(dim=dim, npts=npts, length=length)
    stack = rng.standard_normal((2, 3) + grid.shape)
    hats = grid.forward(stack)
    back = grid.inverse(hats)
    # alias-free products of a chunk by a chunk, row for row, and of one field by a stack
    other = rng.standard_normal((2, 3) + grid.shape)
    chunk_products = grid.times(stack)(other)
    stack_products = grid.times(stack[0, 0])(other)
    norms, norms_hat = grid.l2_norm(stack), grid.l2_norm_hat(hats)
    for idx in np.ndindex(2, 3):
        fhat = grid.forward(stack[idx])
        assert np.array_equal(hats[idx], fhat)
        assert np.array_equal(back[idx], grid.inverse(fhat))
        assert chunk_products[idx].tobytes() == grid.times(stack[idx])(other[idx]).tobytes()
        assert stack_products[idx].tobytes() == grid.times(stack[0, 0])(other[idx]).tobytes()
        assert norms[idx] == grid.l2_norm(stack[idx])
        assert norms_hat[idx] == grid.l2_norm_hat(fhat)
    # complex input is transformed in a copy
    copy = hats.copy()
    grid.forward(hats)
    assert np.array_equal(hats, copy)


@pytest.mark.parametrize("dim, npts, length", STACK_GRIDS)
def test_transforms_equal_numpy_fftn_bit_for_bit(dim, npts, length, rng):
    # one numpy FFT per axis, last axis first, matches numpy's fftn exactly;
    # a numpy upgrade that breaks this fails here
    grid = PeriodicGrid(dim=dim, npts=npts, length=length)
    f = rng.standard_normal(grid.shape)
    fhat = grid.forward(f)
    assert np.array_equal(fhat, np.fft.fftn(f) / npts**dim)
    assert np.array_equal(grid.inverse(fhat), np.real(np.fft.ifftn(fhat) * npts**dim))


# (dim, npts, rows): 1-D to 2048 points, 2-D to 128**2 and 3-D to 64**3, as one
# field and as stacks of 1 to 5 rows on both sides of ROW_POINTS
ORACLE_SHAPES = [(1, 8, 5), (1, 512, 3), (1, 2048, 2), (2, 16, 4), (2, 64, 5), (2, 128, 3),
                 (3, 8, 2), (3, 16, 5), (3, 32, 1), (3, 64, 2)]


@pytest.mark.parametrize("dim, npts, rows", ORACLE_SHAPES)
def test_transforms_equal_scipy_fftn_bit_for_bit(dim, npts, rows, rng):
    # scipy stays the independent oracle of the numpy transforms: the same
    # complex FFT over the grid axes, real input cast first as forward does
    from scipy.fft import fftn, ifftn

    grid = PeriodicGrid(dim=dim, npts=npts, length=2.0 * np.pi)
    for shape in [grid.shape, (rows,) + grid.shape]:
        real = rng.standard_normal(shape)
        for f in [real, real + 1j * rng.standard_normal(shape)]:
            cast = f.astype(complex)
            assert np.array_equal(grid.forward(f), fftn(cast, axes=grid.axes, norm="forward"))
            assert np.array_equal(grid.inverse(f),
                                  ifftn(cast, axes=grid.axes, norm="forward").real)


def test_transforms_reject_a_wrong_trailing_shape(grid2d):
    n = grid2d.npts
    for shape in [(n,), (n, 2), (3, n, n + 1), (n, n, 3)]:
        with pytest.raises(ValueError, match="grid shape"):
            grid2d.forward(np.zeros(shape))
        with pytest.raises(ValueError, match="grid shape"):
            grid2d.inverse(np.zeros(shape, dtype=complex))


def test_mean_and_cell_volume(grid2d):
    f = np.full(grid2d.shape, 3.5)
    assert np.isclose(grid2d.mean(f), 3.5, rtol=1e-14)
    assert np.isclose(grid2d.cell_volume * np.prod(grid2d.shape), grid2d.length**grid2d.dim)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=1e-6, max_value=1e6).filter(lambda c: np.isfinite(c)))
def test_l2_norm_is_homogeneous(scale):
    grid = PeriodicGrid(dim=1, npts=64, length=2.0 * np.pi)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(grid.shape)
    assert np.isclose(grid.l2_norm(scale * f), scale * grid.l2_norm(f), rtol=1e-10), (
        f"homogeneity broke at scale={scale}"
    )


def test_state_fields_container():
    # a, u and theta are views of one (d+2, *grid.shape) stack
    for dim in (1, 2, 3):
        grid = PeriodicGrid(dim=dim, npts=8, length=2.0 * np.pi)
        z = StateFields.zeros(grid)
        assert z.data.shape == (dim + 2,) + grid.shape
        assert z.a.shape == z.theta.shape == grid.shape
        assert z.u.shape == (dim,) + grid.shape
        assert np.max(np.abs(z.data)) == 0.0
        for view in (z.a, z.u, z.theta):
            assert np.shares_memory(view, z.data)

        z.a[...] = 1.0
        z.u[-1] = 2.0
        z.theta[...] += 3.0
        assert np.all(z.data[0] == 1.0) and np.all(z.data[dim] == 2.0)
        assert np.all(z.data[-1] == 3.0) and np.all(z.data[1:dim] == 0.0)

        # the same type holds a chunk of k snapshots, one row per snapshot
        chunk = StateFields(np.stack([z.data] * 4, axis=1))
        assert chunk.a.shape == (4,) + grid.shape
        assert chunk.u.shape == (dim, 4) + grid.shape
        assert np.all(chunk.theta == 3.0)


def test_kmax_dealiased_is_two_thirds_rule(grid1d):
    kept = np.abs(grid1d.wavenumbers[0][grid1d.dealias_mask])
    assert kept.max() <= grid1d.kmax_dealiased + 1e-12
    # the mask keeps at most 2/3 of the modes per axis
    assert grid1d.dealias_mask.sum() <= int(np.ceil(2 * grid1d.npts / 3)) + 1


def test_grids_compare_and_hash_by_dim_npts_length():
    grid = PeriodicGrid(2, 16, 1.0)
    assert grid == PeriodicGrid(2, 16, 1.0)
    assert hash(grid) == hash(PeriodicGrid(2, 16, 1.0))
    assert grid != PeriodicGrid(2, 32, 1.0) and grid != PeriodicGrid(2, 16, 2.0)
    # the cached 2x grid is no field: building it changes neither
    assert grid.fine == PeriodicGrid(2, 32, 1.0) and grid.fine is grid.fine
    assert grid == PeriodicGrid(2, 16, 1.0) and hash(grid) == hash(PeriodicGrid(2, 16, 1.0))
    assert len({grid, PeriodicGrid(2, 16, 1.0), PeriodicGrid(1, 16, 1.0)}) == 2
