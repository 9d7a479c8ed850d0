"""Shared fixtures: small grids and shell calculi reused across modules."""

import numpy as np
import pytest

from eulerfourier.grid import PeriodicGrid, _resize
from eulerfourier.littlewood import LittlewoodPaley


@pytest.fixture(scope="session")
def grid1d():
    return PeriodicGrid(dim=1, npts=256, length=16.0 * np.pi)


@pytest.fixture(scope="session")
def lp1d(grid1d):
    return LittlewoodPaley(grid1d)


@pytest.fixture(scope="session")
def grid2d():
    return PeriodicGrid(dim=2, npts=64, length=8.0 * np.pi)


@pytest.fixture(scope="session")
def lp2d(grid2d):
    return LittlewoodPaley(grid2d)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def _product_on_2n_points(grid: PeriodicGrid, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """f g with both factors zero-padded onto (2N)**d points, multiplied there and
    truncated back: alias-free on every kept mode, the oracle of ``times``."""
    fine = PeriodicGrid(grid.dim, 2 * grid.npts, grid.length)

    def up(h):
        return fine.inverse(_resize(grid.forward(h), fine.shape))
    return grid.inverse(_resize(fine.forward(up(f) * up(g)), grid.shape))


@pytest.fixture(scope="session")
def product_2n():
    return _product_on_2n_points
