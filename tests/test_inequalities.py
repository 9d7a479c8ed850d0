"""Harmonic-analysis toolbox: Bernstein, interpolation, product, commutator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerfourier.inequalities import (
    RING_INNER,
    RING_OUTER,
    check_bernstein,
    check_commutator,
    check_interpolation,
    check_partition,
    check_product,
)


def test_radial_derivative_multiplier_is_exact_on_single_mode(grid1d):
    (x,) = grid1d.coordinates()
    f = np.sin(4.0 * x)
    df = grid1d.inverse(grid1d.forward(f) * grid1d.kmag)
    assert np.isclose(grid1d.l2_norm(df), 4.0 * grid1d.l2_norm(f), rtol=1e-12)


def test_partition_check_on_the_default_cutoffs(lp1d):
    # the lp-inspect tolerances; the default grid is lp1d's
    outcome = check_partition(lp1d, np.random.default_rng(0), radii=500, trials=3,
                              partition_tol=1e-12, telescope_tol=1e-10, disjoint_tol=1e-12)
    names = [v.name for v in outcome.verdicts]
    assert names == ["partition-residual", "telescoping-residual", "shell-disjointness"]
    assert all(v.passed for v in outcome.verdicts)
    radius, residual, meta = outcome.curves["partition_residual"]
    assert radius.size == residual.size == 500
    assert radius[0] == pytest.approx(1e-3) and radius[-1] == pytest.approx(1e3)
    assert outcome.verdicts[0].measured == residual.max()
    assert meta == {"x": "radius", "what": "abs(sum_j phi - 1)"}
    assert list(outcome.curves) == ["partition_residual"] and outcome.notes == []


def test_bernstein_ball(lp1d):
    (rep,) = check_bernstein(lp1d, np.random.default_rng(0), trials=40, k=1, support="ball")
    assert rep.passed, f"worst ratio {rep.measured} > {rep.predicted}"


@pytest.mark.parametrize("k", [1, 2])
def test_bernstein_annulus_is_two_sided(lp1d, k):
    upper, lower = check_bernstein(
        lp1d, np.random.default_rng(k), trials=40, k=k, support="annulus"
    )
    assert upper.name == f"bernstein-annulus-k{k}-upper"
    assert lower.name == f"bernstein-annulus-k{k}-lower"
    assert upper.measured <= RING_OUTER**k + 1e-12
    assert lower.measured >= RING_INNER**k - 1e-12
    assert upper.predicted == RING_OUTER**k and lower.predicted == RING_INNER**k
    assert upper.passed and lower.passed


def test_bernstein_argument_validation(lp1d):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="a_exp"):
        check_bernstein(lp1d, rng, a_exp=3.0, b_exp=2.0)
    with pytest.raises(ValueError, match="support"):
        check_bernstein(lp1d, rng, support="cube")


def test_interpolation_inequality(lp1d):
    (rep,) = check_interpolation(lp1d, np.random.default_rng(5), trials=40,
                                 s1=0.0, s2=1.0, theta_mix=0.5)
    assert rep.passed
    with pytest.raises(ValueError, match="s1 < s2"):
        check_interpolation(lp1d, np.random.default_rng(5), s1=1.0, s2=0.0)
    with pytest.raises(ValueError, match="theta_mix"):
        check_interpolation(lp1d, np.random.default_rng(5), theta_mix=1.5)


@pytest.mark.parametrize("variant,s1,s2", [
    ("algebra", 0.5, None),
    ("summed", 0.25, 0.25),
    ("mixed", 0.5, -0.25),
])
def test_product_inequalities(lp1d, variant, s1, s2):
    (rep,) = check_product(lp1d, np.random.default_rng(9), trials=30,
                           s1=s1, s2=s2, variant=variant)
    assert rep.passed, f"{variant}: worst ratio {rep.measured}"


def test_product_constraint_validation(lp1d):
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="algebra"):
        check_product(lp1d, rng, s1=-0.5, variant="algebra")
    with pytest.raises(ValueError, match="summed"):
        check_product(lp1d, rng, s1=0.4, s2=-0.6, variant="summed")
    with pytest.raises(ValueError, match="mixed"):
        check_product(lp1d, rng, s1=0.1, s2=0.5, variant="mixed")  # s2 = d/2
    with pytest.raises(ValueError, match="variant"):
        check_product(lp1d, rng, s1=0.25, s2=0.25, variant="besov-magic")


def test_commutator_inequality(lp1d):
    (rep,) = check_commutator(lp1d, np.random.default_rng(2), trials=30, s=0.0)
    assert rep.passed
    with pytest.raises(ValueError, match="s must lie"):
        check_commutator(lp1d, np.random.default_rng(2), s=5.0)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_bernstein_ball_holds_for_any_seed(lp1d, seed):
    (rep,) = check_bernstein(lp1d, np.random.default_rng(seed), trials=5, k=1, support="ball")
    assert rep.passed, f"seed {seed}: ratio {rep.measured} > {rep.predicted}"
