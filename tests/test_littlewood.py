"""Dyadic shell calculus: partition, telescoping, Besov norms, shell series."""

import numpy as np
import pytest

from eulerfourier.grid import ROW_POINTS, PeriodicGrid
from eulerfourier.littlewood import (
    CHI_FLAT,
    CHI_ZERO,
    FrequencySplit,
    LittlewoodPaley,
    MonotoneCubic,
    ShellSeries,
    build_cutoffs,
    cumulative_trapezoid,
)


def _band_limited_field(grid, lp, rng):
    lo, hi = lp.covered_band
    fhat = grid.forward(rng.standard_normal(grid.shape))
    fhat[(grid.kmag < lo) | (grid.kmag > hi)] = 0.0
    return grid.inverse(fhat)


def test_cutoff_profile_shape():
    c = build_cutoffs()
    r = np.linspace(0.0, 3.0, 1201)
    chi = c.chi(r)
    assert np.all(chi[r <= CHI_FLAT] == 1.0)
    assert np.all(chi[r >= CHI_ZERO] == 0.0)
    assert np.all((chi >= 0.0) & (chi <= 1.0))
    assert np.all(np.diff(chi) <= 1e-15)  # monotone descent

    phi = c.phi(r)
    assert np.all(phi[(r < CHI_FLAT) | (r > 2 * CHI_ZERO)] == 0.0)
    assert np.all(phi >= 0.0)


# scipy is not on the run path; it stays installed as the independent oracle
# for the in-package trapezoid rule and PCHIP


@pytest.mark.parametrize("sharpness, samples", [(1.0, 4097), (1.0, 33), (0.3, 101), (4.0, 1000)])
def test_descent_tabulation_equals_scipy_bit_for_bit(sharpness, samples):
    from scipy.integrate import cumulative_trapezoid as scipy_trapezoid
    from scipy.interpolate import PchipInterpolator

    x = np.linspace(-1.0, 1.0, samples)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        bump = np.exp(-sharpness / (1.0 - x**2))
    bump[0] = bump[-1] = 0.0
    cum = cumulative_trapezoid(bump, x)
    assert np.array_equal(cum, scipy_trapezoid(bump, x, initial=0.0))
    cum /= cum[-1]
    oracle = PchipInterpolator(x, cum, extrapolate=False)
    rng = np.random.default_rng(samples)
    v = np.concatenate([rng.uniform(-1.05, 1.05, 4000), x,
                        np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    step = build_cutoffs(sharpness, samples)._step
    assert np.array_equal(step(v), oracle(v), equal_nan=True)


def test_monotone_cubic_equals_scipy_pchip_on_rough_data():
    # sign changes, flat intervals and both end-slope corrections
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(7)
    for n in (3, 4, 5, 12, 40):
        for _ in range(40):
            x = np.cumsum(rng.uniform(0.01, 1.0, n)) - 1.0
            y = np.where(rng.uniform(size=n) < 0.3, 1.0, rng.standard_normal(n))
            v = np.concatenate([rng.uniform(x[0] - 0.1, x[-1] + 0.1, 200), x,
                                np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
            want = PchipInterpolator(x, y, extrapolate=False)(v)
            assert np.array_equal(MonotoneCubic.through(x, y)(v), want, equal_nan=True)


def test_cumulative_trapezoid_along_an_axis_equals_scipy():
    from scipy.integrate import cumulative_trapezoid as scipy_trapezoid

    rng = np.random.default_rng(3)
    times = np.sort(rng.uniform(0.0, 5.0, 40))
    rows = rng.standard_normal((7, 40))
    assert np.array_equal(cumulative_trapezoid(rows, times, axis=1),
                          scipy_trapezoid(rows, times, initial=0.0, axis=1))
    assert np.array_equal(cumulative_trapezoid(rows.T, times, axis=0),
                          scipy_trapezoid(rows.T, times, initial=0.0, axis=0))


def test_partition_of_unity_telescopes():
    c = build_cutoffs()
    radii = np.geomspace(1e-3, 1e3, 2000)
    total = np.zeros_like(radii)
    for j in range(-14, 15):
        total += c.phi(radii * 2.0 ** (-j))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_block_sum_recovers_mean_free_part(grid1d, lp1d, rng):
    for _ in range(20):
        f = _band_limited_field(grid1d, lp1d, rng)
        total = np.zeros_like(f)
        for j in lp1d.shells:
            total += lp1d.block(f, j)
        assert np.max(np.abs(total - (f - grid1d.mean(f)))) < 1e-10


def test_shell_supports_are_disjoint_beyond_neighbours(lp1d):
    mults = {j: lp1d.shell_multiplier(j) for j in lp1d.shells}
    for j in lp1d.shells:
        for jp in lp1d.shells:
            overlap = np.max(mults[j] * mults[jp])
            if abs(j - jp) >= 2:
                assert overlap < 1e-12, f"shells {j},{jp} overlap"
    # neighbouring shells must genuinely overlap, otherwise the partition
    # could not sum to one on the seams
    j = lp1d.shells[len(lp1d.shells) // 2]
    assert np.max(mults[j] * mults[j + 1]) > 1e-3


def test_single_mode_besov_norm_oracle(grid1d, lp1d):
    # One Fourier mode has Besov-0 1-norm equal to its L2 norm: the shell
    # weights phi(2^-j k) sum to one at fixed k.
    (x,) = grid1d.coordinates()
    f = np.sin(1.0 * x)
    expected = np.sqrt(grid1d.length / 2.0)
    assert np.isclose(lp1d.besov_norm(f, s=0.0, r=1), expected, rtol=1e-12)
    assert lp1d.besov_norm(f, s=0.0, r=np.inf) <= expected + 1e-12
    # ell^2 across shells sits between ell^inf and ell^1
    mid = lp1d.besov_norm(f, s=0.0, r=2)
    assert lp1d.besov_norm(f, s=0.0, r=np.inf) - 1e-12 <= mid <= expected + 1e-12


def test_shell_norms_match_blocks(grid1d, lp1d, rng):
    # the (a, |u|, theta) norms of a spectral state stack against the blocks
    fields = [_band_limited_field(grid1d, lp1d, rng) for _ in range(3)]
    hats = grid1d.forward(np.stack(fields))
    for j in lp1d.shells:
        for got, f in zip(lp1d.state_l2_hat(hats, j), fields):
            assert np.isclose(got, grid1d.l2_norm(lp1d.block(f, j)), rtol=1e-12)


def test_vector_shell_norms_combine_components(grid2d, lp2d, rng):
    # |u| is ell^2 over the velocity rows; a stack of states gives one value
    # per state, each bit for bit the value of that state alone
    f, g = (_band_limited_field(grid2d, lp2d, rng) for _ in range(2))
    single = grid2d.forward(np.stack([f, f, f, g]))
    stacked = grid2d.forward(np.stack([np.stack([f, 2.0 * f])] * 3 + [np.stack([g, g])]))
    for j in lp2d.shells:
        a, u, theta = lp2d.state_l2_hat(single, j)
        assert np.isclose(u, np.sqrt(2.0) * a, rtol=1e-12)
        assert [row[0] for row in lp2d.state_l2_hat(stacked, j)] == [a, u, theta]


@pytest.mark.parametrize("dim,npts", [(1, 512), (1, ROW_POINTS), (2, 64), (2, 128),
                                      (3, 16), (3, 32)])
def test_band_stack_shell_norms_equal_the_full_layout_bit_for_bit(dim, npts):
    # the tables are kept by radius and laid out on request: each multiplier is
    # phi(2^-j |k|) of the full layout, restricted to the band; a band stack's
    # norms are those of its zero-filled full layout, and a stack's rows, summed in
    # one pass, those of its fields alone, on both sides of ROW_POINTS
    grid = PeriodicGrid(dim=dim, npts=npts, length=16.0 * np.pi)
    lp = LittlewoodPaley(grid)
    assert (npts**dim >= ROW_POINTS) == (npts in (ROW_POINTS, 128, 32))
    band = grid.forward(np.random.default_rng(dim).standard_normal((dim + 2,) + grid.shape),
                        band=True)
    full = grid.from_band(band)
    for j in lp.shells:
        mult = lp.cutoffs.phi(grid.kmag * 2.0 ** (-j))
        mult.flat[0] = 0.0
        assert lp.shell_multiplier(j).tobytes() == mult.tobytes()
        assert lp.shell_multiplier(j, band=True).tobytes() == grid.to_band(mult).real.tobytes()
        rows = lp.shell_l2_hat(band, j)
        assert rows.tobytes() == lp.shell_l2_hat(full, j).tobytes()
        assert [lp.shell_l2_hat(b, j) for b in band] == list(rows)
        assert [lp.shell_l2_hat(f, j) for f in full] == list(rows)
        got, want = lp.state_l2_hat(band, j), lp.state_l2_hat(full, j)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_a_held_multiplier_is_laid_out_once_and_let_go_when_no_one_holds_it():
    # while a caller holds a shell's multiplier, every call returns that array;
    # once none does, the shell calculus keeps its tables by radius only
    lp = LittlewoodPaley(PeriodicGrid(dim=2, npts=64, length=16.0 * np.pi))
    j = lp.j_min
    held = lp.shell_multiplier(j)
    assert lp.shell_multiplier(j) is held and lp.shell_multiplier(j, band=True) is not held
    before = held.tobytes()
    del held
    assert len(lp._laid_out) == 0
    assert lp.shell_multiplier(j).tobytes() == before
    assert not any(isinstance(v, np.ndarray) for v in vars(lp).values())


def _shell_series(lp, f, times):
    """ShellSeries holding f's shell norms in every component, constant in time."""
    fhat = lp.grid.forward(f)
    norms = np.array([lp.shell_l2_hat(fhat, j) for j in lp.shells])
    stack = np.broadcast_to(norms[:, None, None], (len(norms), 3, len(times)))
    return ShellSeries(np.asarray(times), tuple(lp.shells), lp.grid.dim, stack.copy())


def test_besov_norm_from_shells_consistency(grid1d, lp1d, rng):
    f = _band_limited_field(grid1d, lp1d, rng)
    series = _shell_series(lp1d, f, [0.0])
    for s, r in [(0.0, 1), (0.5, 1), (-0.5, np.inf), (1.5, 2)]:
        for regime in ("all", "low", "high"):
            oracle = lp1d.besov_norm(f, s=s, r=r, regime=regime)
            single = series.besov(s, r, ("a",), regime)
            assert single.shape == (1,)
            assert np.isclose(single[0], oracle, rtol=1e-12, atol=0.0)
            # three equal components: the ell^2 composite is sqrt(3) times one
            full = series.besov(s, r, regime=regime)[0]
            assert np.isclose(full, np.sqrt(3.0) * oracle, rtol=1e-12, atol=0.0)

    # verdict files are byte-stable only if shell sums run left to right;
    # with one stored time numpy's sum() would add these 24 shells pairwise
    shells = tuple(range(-20, 4))
    draws = np.random.default_rng(5)
    for n_times in [1, 5] * 10:
        norms = draws.random((len(shells), 3, n_times))
        norms *= 10.0 ** draws.integers(-3, 3, (len(shells), 1, 1))
        series = ShellSeries(np.arange(float(n_times)), shells, 2, norms)
        expected = 0.0
        for k, j in enumerate(shells):
            expected += 2.0 ** (j * 0.75) * norms[k, 1, 0]
        assert series.besov(0.75, 1, ("u",))[0] == expected


def test_hybrid_norm_reduces_to_besov_on_pure_regimes(grid1d, lp1d):
    (x,) = grid1d.coordinates()
    low = np.sin(1.0 * x)  # shells {-1, 0}: entirely at or below j0 = 0
    high = np.sin(4.0 * x)  # shells {1, 2}: entirely above j0 = 0
    low_series = _shell_series(lp1d, low, [0.0])
    high_series = _shell_series(lp1d, high, [0.0])
    assert np.isclose(
        low_series.besov(-0.5, 1, ("a",), "low")[0],
        lp1d.besov_norm(low, s=-0.5),
        rtol=1e-12,
    )
    # no low shell of the high field holds more than FFT roundoff
    leak = high_series.besov(-0.5, 1, ("a",), "low")[0]
    assert leak <= 1e-12 * lp1d.besov_norm(high, s=-0.5)
    assert np.isclose(
        high_series.besov(1.5, 1, ("a",), "high")[0],
        lp1d.besov_norm(high, s=1.5),
        rtol=1e-12,
    )
    # the two-exponent critical norm (d/2 low, d/2 + 1 high) is one Besov
    # norm once the split puts every shell of the data in one regime only
    assert np.isclose(
        low_series.critical(FrequencySplit(j0=2))[0],
        np.sqrt(3.0) * lp1d.besov_norm(low, s=0.5),
        rtol=1e-12,
    )
    assert np.isclose(
        high_series.critical(FrequencySplit(j0=0))[0],
        np.sqrt(3.0) * lp1d.besov_norm(high, s=1.5),
        rtol=1e-12,
    )


def test_shell_series_chemin_lerner_on_constant_series(grid1d, lp1d, rng):
    f = _band_limited_field(grid1d, lp1d, rng)
    times = np.linspace(0.0, 4.0, 41)
    series = _shell_series(lp1d, f, times)
    base = lp1d.besov_norm(f, s=0.25)

    sup = series.chemin_lerner(0.25, np.inf, components=("u",))
    assert np.allclose(sup, base, rtol=1e-12, atol=0.0)

    # constant integrand: L^2 over [0, t] contributes sqrt(t)
    l2t = series.chemin_lerner(0.25, 2, components=("u",))
    assert np.isclose(l2t[-1], 2.0 * base, rtol=1e-12)
    assert np.allclose(l2t, np.sqrt(times) * base, rtol=1e-12, atol=0.0)

    # a constant weight scales straight through both time norms
    weight = np.full_like(times, 3.0)
    assert np.isclose(series.chemin_lerner(0.25, np.inf, components=("u",), weight=weight)[-1],
                      3.0 * base, rtol=1e-12)
    assert np.isclose(series.chemin_lerner(0.25, 2, components=("u",), weight=weight)[-1],
                      6.0 * base, rtol=1e-12)


def test_frequency_split_overlap():
    split = FrequencySplit(j0=0)
    shells = range(-4, 3)
    low = split.select(shells, "low")
    high = split.select(shells, "high")
    assert sorted(set(low) | set(high)) == list(shells)
    assert sorted(set(low) & set(high)) == [-1, 0]


def test_covered_band_edges(grid1d, lp1d):
    lo, hi = lp1d.covered_band
    assert np.isclose(lo, (4.0 / 3.0) * 2.0**lp1d.j_min)
    assert np.isclose(hi, 0.75 * 2.0 ** (lp1d.j_max + 1))
    assert hi <= grid1d.kmag.max() + 1e-12


def test_regime_argument_is_validated(grid1d, lp1d):
    with pytest.raises(ValueError, match="regime"):
        lp1d.besov_norm(np.zeros(grid1d.shape), s=0.0, regime="sideways")
