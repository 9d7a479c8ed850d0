"""Empirical validation of the harmonic-analysis toolbox.

Each check generates random band-controlled fields, evaluates both sides of
one inequality, and returns its verdicts: the worst ratio of left side to
right side, with the generic constant stripped, against a budget.  The
inequalities carry unspecified constants, so "validation" means the ratio
stays below a fixed, generously chosen budget across many seeded trials --
boundedness, not a sharp constant.  Budgets are inputs, never tuned from
the data.  The annulus Bernstein check also returns the reverse bound, a
floor of ``RING_INNER**k`` on the least ratio.  :func:`check_partition`
measures the shells' own identities (partition of unity, telescoping,
disjointness) against tolerances and returns an
:class:`~eulerfourier.reporting.Outcome` with its residual curve.
"""

from __future__ import annotations

import math

import numpy as np

from .littlewood import LittlewoodPaley
from .randfields import random_field, ball_field
from .reporting import Outcome, Verdict

__all__ = [
    "check_partition",
    "check_bernstein",
    "check_interpolation",
    "check_product",
    "check_commutator",
    "PRODUCT_VARIANTS",
]

DEFAULT_BUDGET = 16.0
BALL_BERNSTEIN_BUDGET = 4.0

# the dyadic ring: shell j lives on 3/4 * 2^j <= |k| <= 8/3 * 2^j
RING_INNER = 0.75
RING_OUTER = 8.0 / 3.0


# ----------------------------------------------------------------------
# field generation


def _band_field(lp: LittlewoodPaley, rng: np.random.Generator, exponent: float) -> np.ndarray:
    """Random field spread over every resolvable shell with a power-law slope."""
    lo = RING_INNER * 2.0**lp.j_min
    hi = RING_OUTER * 2.0**lp.j_max
    return random_field(lp.grid, rng, band=(lo, hi), exponent=exponent)


# ----------------------------------------------------------------------
# the dyadic partition itself


def check_partition(
    lp: LittlewoodPaley,
    rng: np.random.Generator,
    *,
    radii: int,
    trials: int,
    partition_tol: float,
    telescope_tol: float,
    disjoint_tol: float,
) -> Outcome:
    """Partition of unity, telescoping and shell disjointness.

    ``partition-residual`` is the largest ``|sum_j phi(r 2^-j) - 1|`` over
    ``radii`` radii in [1e-3, 1e3], which is also the curve
    ``partition_residual``; ``telescoping-residual`` the largest relative
    L^2 error of the summed blocks over ``trials`` mean-free random fields
    supported where the shells tile unity; ``shell-disjointness`` the
    largest relative norm of ``block_j'(block_j f)`` with ``|j - j'| >= 2``
    on one such field.
    """
    grid = lp.grid
    radius = np.geomspace(1e-3, 1e3, radii)
    partition = np.zeros_like(radius)
    for j in range(-14, 15):
        partition += lp.cutoffs.phi(radius * 2.0 ** (-float(j)))
    residual = np.abs(partition - 1.0)

    lo, hi = lp.covered_band
    band_mask = (grid.kmag >= lo) & (grid.kmag <= hi)

    def covered_field() -> np.ndarray:
        """Random field supported where the shells tile unity exactly."""
        return grid.inverse(grid.forward(rng.standard_normal(grid.shape)) * band_mask)

    tele_worst = 0.0
    disjoint_worst = 0.0
    for _ in range(trials):
        f = covered_field()
        f = f - grid.mean(f)
        norm = grid.l2_norm(f)
        total = np.zeros_like(f)
        for j in lp.shells:
            total += lp.block(f, j)
        tele_worst = max(tele_worst, grid.l2_norm(total - f) / norm)
    probe = covered_field()
    pnorm = grid.l2_norm(probe)
    for j in lp.shells:
        bj = lp.block(probe, j)
        for jp in lp.shells:
            if abs(j - jp) >= 2:
                disjoint_worst = max(disjoint_worst, grid.l2_norm(lp.block(bj, jp)) / pnorm)

    verdicts = [
        Verdict.from_bound("partition-residual", float(residual.max()), partition_tol,
                           radii=radii),
        Verdict.from_bound("telescoping-residual", tele_worst, telescope_tol, trials=trials),
        Verdict.from_bound("shell-disjointness", disjoint_worst, disjoint_tol),
    ]
    curves = {"partition_residual": (radius, residual,
                                     {"x": "radius", "what": "abs(sum_j phi - 1)"})}
    return Outcome(verdicts, curves)


# ----------------------------------------------------------------------
# dyadic-support derivative bounds


def check_bernstein(
    lp: LittlewoodPaley,
    rng: np.random.Generator,
    trials: int = 100,
    k: int = 1,
    a_exp: float = 2.0,
    b_exp: float = 2.0,
    support: str = "ball",
) -> list[Verdict]:
    """Derivative growth on ball- or annulus-supported fields.

    Measures ``|D^k f|_{L^b} / (lam^(k + d(1/a - 1/b)) |f|_{L^a})`` with
    ``D^k`` the radial multiplier ``|xi|^k`` and ``lam = 2^j`` the support
    scale, against ``BALL_BERNSTEIN_BUDGET`` (ball) or ``RING_OUTER**k``
    (annulus).  For annulus support the derivative is
    invertible on the support and the bound is two-sided: the verdicts are
    ``-upper`` (the worst ratio) and ``-lower`` (the least
    ``|D^k f|_{L^a} / (lam^k |f|_{L^a})`` against the floor
    ``RING_INNER**k``).
    """
    if not 1.0 <= a_exp <= b_exp:
        raise ValueError("need 1 <= a_exp <= b_exp (use math.inf for sup norms)")
    if support not in ("ball", "annulus"):
        raise ValueError(f"unknown support {support!r}")
    budget = BALL_BERNSTEIN_BUDGET if support == "ball" else RING_OUTER**k

    grid = lp.grid
    exponent = k + grid.dim * (1.0 / a_exp - 1.0 / b_exp)
    worst = 0.0
    least = math.inf
    js = list(lp.shells)
    for trial in range(trials):
        j = js[int(rng.integers(len(js)))]
        lam = 2.0**j
        if support == "ball":
            f = ball_field(grid, rng, scale_j=j, cutoffs=lp.cutoffs)
        else:
            band = (RING_INNER * lam, RING_OUTER * lam)
            f = random_field(grid, rng, band=band, annulus_shell=j, lp=lp)
        dkf = grid.inverse(grid.forward(f) * grid.kmag**k)
        ratio = grid.lp_norm(dkf, b_exp) / (lam**exponent * grid.lp_norm(f, a_exp))
        worst = max(worst, ratio)
        if support == "annulus":
            least = min(least, grid.lp_norm(dkf, a_exp) / (lam**k * grid.lp_norm(f, a_exp)))

    name = f"bernstein-{support}-k{k}"
    if support == "ball":
        return [Verdict.from_bound(name, worst, budget, trials=trials)]
    return [Verdict.from_bound(f"{name}-upper", worst, budget),
            Verdict.from_floor(f"{name}-lower", least, RING_INNER**k)]


# ----------------------------------------------------------------------
# convexity of the Besov scale


def check_interpolation(
    lp: LittlewoodPaley,
    rng: np.random.Generator,
    trials: int = 100,
    s1: float = 0.0,
    s2: float = 1.0,
    theta_mix: float = 0.5,
    budget: float = DEFAULT_BUDGET,
) -> list[Verdict]:
    """Intermediate summed norm against the product of sup-norm endpoints.

    The allowed constant degrades like ``1/(theta (1-theta) (s2-s1))`` as
    the endpoints pinch together, so that factor is folded into the
    verdict's bound rather than the ratio; ``base_budget`` keeps ``budget``.
    """
    if not s1 < s2:
        raise ValueError("need s1 < s2")
    if not 0.0 < theta_mix < 1.0:
        raise ValueError("theta_mix must lie in (0, 1)")
    s_mid = theta_mix * s1 + (1.0 - theta_mix) * s2
    effective_budget = budget / (theta_mix * (1.0 - theta_mix) * (s2 - s1))

    grid = lp.grid
    worst = 0.0
    for _ in range(trials):
        exponent = rng.uniform(-(grid.dim / 2.0 + 1.5), 1.5)
        f = _band_field(lp, rng, exponent)
        lhs = lp.besov_norm(f, s_mid, r=1)
        rhs = lp.besov_norm(f, s1, r=math.inf) ** theta_mix
        rhs *= lp.besov_norm(f, s2, r=math.inf) ** (1.0 - theta_mix)
        if rhs > 0.0:
            worst = max(worst, lhs / rhs)

    return [Verdict.from_bound("interpolation", worst, effective_budget,
                               base_budget=budget)]


# ----------------------------------------------------------------------
# product laws

PRODUCT_VARIANTS = ("algebra", "summed", "mixed")


def check_product(
    lp: LittlewoodPaley,
    rng: np.random.Generator,
    trials: int = 100,
    s1: float | None = None,
    s2: float | None = None,
    variant: str = "summed",
    budget: float = DEFAULT_BUDGET,
) -> list[Verdict]:
    """Bilinear estimates for pointwise products, three flavours.

    - ``"algebra"``: summed norm of ``fg`` at positive ``s1`` against
      ``|f|_inf |g|_B + |g|_inf |f|_B``.
    - ``"summed"``: both factors in summed norms, output at
      ``s1 + s2 - d/2``; needs ``s1, s2 <= d/2`` and ``s1 + s2 > 0``.
    - ``"mixed"``: second factor only bounded in sup-over-shells norm;
      needs ``s1 <= d/2``, ``s2 < d/2`` and ``s1 + s2 >= 0``.

    Products are formed on the 2x grid (:meth:`PeriodicGrid.times`) so the
    quadratic terms carry no aliasing.
    """
    grid = lp.grid
    half_d = grid.dim / 2.0
    if s1 is None:
        s1 = half_d - 0.25
    if s2 is None:
        s2 = half_d - 0.25

    if variant == "algebra":
        if s1 <= 0.0:
            raise ValueError("the algebra bound needs s1 > 0")
    elif variant == "summed":
        if s1 > half_d or s2 > half_d or s1 + s2 <= 0.0:
            raise ValueError("summed variant needs s1, s2 <= d/2 and s1 + s2 > 0")
    elif variant == "mixed":
        if s1 > half_d or s2 >= half_d or s1 + s2 < 0.0:
            raise ValueError("mixed variant needs s1 <= d/2, s2 < d/2, s1 + s2 >= 0")
    else:
        raise ValueError(f"unknown variant {variant!r}; pick from {PRODUCT_VARIANTS}")

    worst = 0.0
    for _ in range(trials):
        ef = rng.uniform(-(half_d + 1.5), 1.0)
        eg = rng.uniform(-(half_d + 1.5), 1.0)
        f = _band_field(lp, rng, ef)
        g = _band_field(lp, rng, eg)
        fg = grid.times(f)(g)

        if variant == "algebra":
            lhs = lp.besov_norm(fg, s1, r=1)
            rhs = grid.lp_norm(f, math.inf) * lp.besov_norm(g, s1, r=1)
            rhs += grid.lp_norm(g, math.inf) * lp.besov_norm(f, s1, r=1)
        elif variant == "summed":
            lhs = lp.besov_norm(fg, s1 + s2 - half_d, r=1)
            rhs = lp.besov_norm(f, s1, r=1) * lp.besov_norm(g, s2, r=1)
        else:
            lhs = lp.besov_norm(fg, s1 + s2 - half_d, r=math.inf)
            rhs = lp.besov_norm(f, s1, r=1) * lp.besov_norm(g, s2, r=math.inf)
        if rhs > 0.0:
            worst = max(worst, lhs / rhs)

    return [Verdict.from_bound(f"product-{variant}", worst, budget)]


# ----------------------------------------------------------------------
# commutators with shell projections


def check_commutator(
    lp: LittlewoodPaley,
    rng: np.random.Generator,
    trials: int = 100,
    s: float = 0.0,
    budget: float = DEFAULT_BUDGET,
) -> list[Verdict]:
    """Shell-filter commutators against the smooth-factor norm.

    For every resolvable shell the raw ratio

        2^(j(s+1)) |[P_j, f] g|_{L^2} / (|f|_{B^{d/2+1}} |g|_{B^s})

    is recorded (both products on the 2x grid).  The verdict measures
    the largest *sum over shells*, which dominates the largest single
    shell; that largest single-shell ratio goes in the ``worst_shell``
    extra, since its normalization is a free choice.
    """
    grid = lp.grid
    half_d = grid.dim / 2.0
    if not -half_d - 1.0 < s <= half_d:
        raise ValueError(f"s must lie in (-d/2 - 1, d/2], got {s}")

    worst_sum = 0.0
    worst_shell = 0.0
    for _ in range(trials):
        # smooth factor: steep spectral slope; rough factor: shallow one
        f = _band_field(lp, rng, rng.uniform(-(half_d + 2.5), -(half_d + 1.0)))
        g = _band_field(lp, rng, rng.uniform(-0.5, 1.0))
        denom = lp.besov_norm(f, half_d + 1.0, r=1) * lp.besov_norm(g, s, r=1)
        if denom == 0.0:
            continue
        total = 0.0
        for j, comm in zip(lp.shells, lp.commutators(f, g, lp.shells)):
            ratio = 2.0 ** (j * (s + 1.0)) * grid.l2_norm(comm) / denom
            worst_shell = max(worst_shell, ratio)
            total += ratio
        worst_sum = max(worst_sum, total)

    return [Verdict.from_bound("commutator", worst_sum, budget, worst_shell=worst_shell)]
