"""Spectral grid: transforms, calculus, dealiasing, and field containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerfourier.grid import PeriodicGrid, StateFields, alias_free_product


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
    f = grid2d.inverse(grid2d.dealias(grid2d.forward(f)))
    grad = grid2d.gradient(f)
    # div(grad f) == laplacian f
    assert np.max(np.abs(grid2d.divergence(np.stack(grad)) - grid2d.laplacian(f))) < 1e-8
    # curl-free: d_y (d_x f) == d_x (d_y f)
    cross1 = grid2d.gradient(grad[0])[1]
    cross2 = grid2d.gradient(grad[1])[0]
    assert np.max(np.abs(cross1 - cross2)) < 1e-8


def test_dealiased_product_matches_fine_grid(grid1d, rng):
    # A product computed with the 2/3-rule mask must agree with the exact
    # (padded) product restricted back to the coarse grid.
    fine = grid1d.refine(2)
    fhat = grid1d.dealias(grid1d.forward(rng.standard_normal(grid1d.shape)))
    ghat = grid1d.dealias(grid1d.forward(rng.standard_normal(grid1d.shape)))
    f, g = grid1d.inverse(fhat), grid1d.inverse(ghat)

    direct = grid1d.dealias(grid1d.forward(f * g))
    exact = alias_free_product(grid1d, fine, f, g)
    assert np.max(np.abs(direct - grid1d.dealias(grid1d.forward(exact)))) < 1e-12


def test_pad_restrict_roundtrip(grid1d, rng):
    fine = grid1d.refine(2)
    fhat = grid1d.forward(rng.standard_normal(grid1d.shape))
    back = grid1d.restrict_from(grid1d.pad_to(fhat, fine), fine)
    assert np.max(np.abs(back - fhat)) < 1e-14


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


def test_state_fields_container(grid1d):
    ones = np.ones(grid1d.shape)
    s = StateFields(a=0.5 * ones, u=np.stack([2.0 * ones]), theta=3.0 * ones)
    assert len(s.components()) == 3
    assert np.isclose(np.max(np.abs(s.components())), 3.0)
    assert s.is_finite()

    z = StateFields.zeros(grid1d)
    assert z.u.shape == (1,) + grid1d.shape
    assert np.max(np.abs(z.components())) == 0.0

    bad = s.copy()
    bad.theta[3] = np.nan
    assert not bad.is_finite()
    assert s.is_finite()  # copy() must not share buffers


def test_kmax_dealiased_is_two_thirds_rule(grid1d):
    kept = np.abs(grid1d.wavenumbers[0][grid1d.dealias_mask])
    assert kept.max() <= grid1d.kmax_dealiased + 1e-12
    # the mask keeps at most 2/3 of the modes per axis
    assert grid1d.dealias_mask.sum() <= int(np.ceil(2 * grid1d.npts / 3)) + 1
