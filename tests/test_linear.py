"""Linearized system: symbol, propagator, and radial semigroup quadrature."""

import numpy as np
import pytest
from scipy.linalg import expm

from eulerfourier.linear import (
    QuadratureError,
    RadialProfile,
    expm_stack,
    mode_propagator,
    real_reduced_symbol,
    reduced_symbol,
    saturating_profile,
    semigroup_besov_decay,
    symbol_eigenvalues,
    symbol_matrix,
)

# similarity u = i w taking reduced_symbol to real_reduced_symbol
SIM = np.array([1.0, 1j, 1.0])


def assert_matches_scipy(got, want):
    """Per matrix: max |got - want| <= 1e-9 * max(max |want|, 1e-3).

    Squaring s times turns a rounding-level perturbation of the scaled
    exponential into a relative error of up to about 2^s u; at the
    s = 20..30 that t up to 1e4 and r up to 1e3 need, two correct
    scaling-and-squaring codes differ by up to 3.5e-10 of the largest
    entry (measured on the radial stack below).  1e-9 leaves a factor
    of about 3; matrices whose entries are all below 1e-3 are held to an
    absolute 1e-12 (measured: 5e-14).
    """
    err = np.abs(got - want).max(axis=(1, 2))
    scale = np.maximum(np.abs(want).max(axis=(1, 2)), 1e-3)
    assert np.all(err <= 1e-9 * scale), f"worst {np.max(err / scale):.3e}"


def _radial_stack(n_r=97, n_t=61):
    r = np.geomspace(1e-10, 1e3, n_r)
    t = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, n_t)])
    return (t[:, None, None, None] * real_reduced_symbol(r)).reshape(-1, 3, 3)


def _sorted(ev):
    return sorted(np.asarray(ev, dtype=complex), key=lambda z: (z.real, z.imag))


def test_full_symbol_reduces_to_longitudinal_block_plus_transverse():
    rng = np.random.default_rng(42)
    for dim in (1, 2, 3):
        xi = rng.standard_normal(dim)
        full = _sorted(np.linalg.eigvals(symbol_matrix(xi)))
        red = np.linalg.eigvals(reduced_symbol(np.linalg.norm(xi)))
        expected = _sorted(list(red) + [-1.0] * (dim - 1))
        assert np.allclose(full, expected, atol=1e-10), f"dim={dim}"
        assert np.allclose(_sorted(symbol_eigenvalues(xi)), expected, atol=1e-10)


def test_low_frequency_eigenvalue_asymptotics():
    # Two slow real modes ~ -(3 -+ sqrt(5))/2 r^2 and one damped mode ~ -1.
    r = 1e-3
    ev = _sorted(np.linalg.eigvals(reduced_symbol(r)))
    assert np.isclose(ev[0].real, -1.0, atol=1e-5)
    assert np.isclose(ev[1].real, -(3 + np.sqrt(5)) / 2 * r**2, rtol=1e-2)
    assert np.isclose(ev[2].real, -(3 - np.sqrt(5)) / 2 * r**2, rtol=1e-2)
    assert np.max(np.abs(np.imag(ev))) < 1e-12


def test_high_frequency_eigenvalue_asymptotics():
    # Heat mode ~ -(r^2 - 1); the oscillatory pair keeps real part -> -1
    # (not -1/2) while its frequency grows like r.
    r = 1e3
    ev = _sorted(np.linalg.eigvals(reduced_symbol(r)))
    assert np.isclose(ev[0].real, -(r**2 - 1.0), rtol=1e-6)
    pair = [z for z in ev[1:]]
    assert np.allclose([z.real for z in pair], -1.0, atol=1e-4)
    assert np.allclose(sorted(z.imag for z in pair), [-r, r], rtol=1e-6)


def test_mode_propagator_semigroup_property():
    rng = np.random.default_rng(3)
    xi = rng.standard_normal(3)
    p_a = mode_propagator(xi, 0.4)
    p_b = mode_propagator(xi, 1.1)
    p_ab = mode_propagator(xi, 1.5)
    assert np.max(np.abs(p_ab - p_a @ p_b)) < 1e-12
    assert np.max(np.abs(mode_propagator(xi, 0.0) - np.eye(5))) == 0.0


def test_expm_stack_matches_scipy_on_real_reduced_symbols():
    stack = _radial_stack()
    got = expm_stack(stack)
    assert got.dtype == np.float64
    assert_matches_scipy(got, expm(stack))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_expm_stack_matches_scipy_on_full_symbols(dim):
    rng = np.random.default_rng(dim)
    xi = rng.standard_normal((150, dim))
    xi *= (np.geomspace(1e-10, 1e3, 150) / np.linalg.norm(xi, axis=1))[:, None]
    t = rng.permutation(np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 149)]))
    stack = np.stack([ti * symbol_matrix(x) for ti, x in zip(t, xi)])
    assert_matches_scipy(expm_stack(stack), expm(stack))


def test_expm_stack_is_exact_at_time_zero():
    r = np.geomspace(1e-10, 1e3, 50)
    assert np.array_equal(expm_stack(0.0 * real_reduced_symbol(r)),
                          np.broadcast_to(np.eye(3), (50, 3, 3)))
    assert np.array_equal(expm_stack(0.0 * reduced_symbol(r)),
                          np.broadcast_to(np.eye(3, dtype=complex), (50, 3, 3)))


def test_expm_stack_semigroup_identity():
    b = real_reduced_symbol(np.geomspace(1e-6, 1e2, 200))
    for s, t in ((0.7, 1.9), (30.0, 70.0), (1e-3, 2e-3)):
        lhs = expm_stack((s + t) * b)
        rhs = expm_stack(s * b) @ expm_stack(t * b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12  # measured 3.5e-14


def test_real_form_maps_back_to_the_complex_exponential():
    r = np.geomspace(1e-6, 1e2, 200)
    for t in (0.5, 10.0, 1e3):
        back = expm_stack(t * real_reduced_symbol(r)) * SIM[:, None] / SIM[None, :]
        assert np.max(np.abs(back - expm_stack(t * reduced_symbol(r)))) < 1e-12  # measured 2e-15


def test_expm_stack_is_independent_of_the_rest_of_the_stack():
    # 9780 matrices span three blocks, scaling powers 0 to about 32 mixed
    stack = np.random.default_rng(0).permutation(_radial_stack(n_r=163, n_t=59))
    whole = expm_stack(stack)
    for i in range(0, len(stack), 89):
        assert np.array_equal(expm_stack(stack[i : i + 1])[0], whole[i])
    assert np.array_equal(expm_stack(stack[::-1])[::-1], whole)


def test_transverse_velocity_decays_exactly():
    # Velocity orthogonal to xi feels only the friction term.
    xi = np.array([2.0, 0.0])
    state = np.array([0.0, 0.0, 1.0, 0.0])  # (a, u_x, u_y, theta)
    for t in (0.1, 1.0, 5.0):
        out = mode_propagator(xi, t) @ state
        assert np.isclose(out[2].real, np.exp(-t), rtol=1e-12)
        assert np.max(np.abs(np.delete(out, 2))) < 1e-14


def test_radial_profile_band_validation():
    with pytest.raises(ValueError, match="band"):
        RadialProfile(band=(1.0, 0.5), exponent=0.0)


def test_radial_profile_envelope_support():
    prof = RadialProfile(band=(1e-2, 1.0), exponent=-0.25)
    r = np.geomspace(1e-4, 1e2, 400)
    env = prof.envelope(r)
    assert np.all(env[r < 0.25e-2] == 0.0)  # rolled off below the band
    assert np.all(env[r > 4.0] == 0.0)
    inside = (r > 2e-2) & (r < 0.5)
    assert np.allclose(env[inside], r[inside] ** -0.25, rtol=1e-12)


def test_saturating_profile_gives_flat_weighted_shells():
    sigma1, dim = 1.0, 2
    prof = saturating_profile(sigma1, dim, band=(1e-3, 1.0))
    curve = semigroup_besov_decay(
        prof, dim, sigma1, times=np.array([0.0]), nodes_per_octave=48,
        r_range=(5e-4, 8.0),
    )
    weighted = []
    for k, j in enumerate(curve.series.shells):
        if 2.0**j < 3e-3 or 2.0**j > 0.2:
            continue  # skip band edges
        weighted.append(2.0 ** (-j * sigma1) * curve.series.norms[k, 0, 0])
    weighted = np.asarray(weighted)
    assert weighted.size >= 4
    assert weighted.max() / weighted.min() < 1.3


def test_semigroup_curve_delta0_and_series_shapes():
    prof = saturating_profile(0.5, 1, band=(1e-2, 1.0))
    times = np.array([0.0, 1.0, 10.0])
    curve = semigroup_besov_decay(prof, 1, 0.5, times=times, nodes_per_octave=32,
                                  r_range=(5e-3, 8.0))
    assert curve.series.norms.shape == (len(curve.series.shells), 3, times.size)
    assert curve.series.delta0(0.5) > 0.0
    series = curve.series.besov(0.0)
    assert series.shape == times.shape
    assert np.all(np.diff(series) <= 1e-12)  # linear flow only dissipates here
    sup = curve.series.besov(0.0, np.inf, ("a",))
    one = curve.series.besov(0.0, 1, ("a",))
    assert np.all(sup <= one + 1e-12)


def test_sharp_band_edges_fail_the_quadrature_check():
    prof = RadialProfile(band=(1e-2, 1.0), exponent=-0.5, smooth_edges=False)
    with pytest.raises(QuadratureError):
        semigroup_besov_decay(
            prof, 1, 0.5, times=np.array([0.0, 10.0]), nodes_per_octave=8,
            r_range=(5e-3, 8.0),
        )


def test_quadrature_is_stable_under_node_doubling():
    prof = saturating_profile(0.5, 1, band=(1e-2, 1.0))
    times = np.array([0.0, 5.0, 50.0])
    kw = dict(times=times, r_range=(5e-3, 8.0), check_convergence=False)
    coarse = semigroup_besov_decay(prof, 1, 0.5, nodes_per_octave=32, **kw)
    fine = semigroup_besov_decay(prof, 1, 0.5, nodes_per_octave=64, **kw)
    a = coarse.series.besov(0.5)
    b = fine.series.besov(0.5)
    assert np.max(np.abs(a - b) / b) < 1e-3
