"""Canonical invariants, conjugate points and the curvature-center oracle."""

import random

import pytest

from hypkin import (
    ConjugateInput,
    DegeneratePoleCurve,
    HypNumber,
    LightlikeError,
    ParallelNormals,
    ZERO,
    arc_rate_moving,
    canonical_invariants,
    conjugate_point,
    curvature_center_oracle,
    euler_savary_residual,
    exp_j,
    jmul,
    modulus_h,
    mul,
    pole_sample,
    predicted_curvature_center,
)

from motions import CIRCLE, M1, M1_SWAP, STATIONARY


def close(a, b, tol):
    return max(abs(a.x - b.x), abs(a.y - b.y)) <= tol


def dist(a, b):
    return max(abs(a.x - b.x), abs(a.y - b.y))


# ---------------------------------------------------------------------------
# canonical invariants


def test_m1_invariants_at_origin():
    inv = canonical_invariants(M1, 0.0)
    assert abs(inv.r - 2.0) <= 1e-12
    assert abs(inv.rp - 1.0) <= 1e-12
    assert abs(inv.dnu_ds - 0.5) <= 1e-12
    assert abs(inv.sigma_rate - 2.0) <= 1e-12
    assert abs(inv.sigma_rate_moving - 2.0) <= 1e-12


def test_m1_invariants_constant_along_motion():
    for t in (-0.8, -0.3, 0.5, 0.8):
        inv = canonical_invariants(M1, t)
        assert abs(inv.r - 2.0) <= 1e-12
        assert abs(inv.rp - 1.0) <= 1e-12
        assert abs(inv.dnu_ds - 0.5) <= 1e-12


def test_invariants_internal_consistency():
    # dnu/ds must match the turning-rate difference over the arc rate when
    # the two curves share their arc rate (|h| = 1)
    for motion in (M1, M1_SWAP):
        for t in (-0.5, 0.0, 0.6):
            inv = canonical_invariants(motion, t)
            alt = (inv.taup_rate - inv.tau_rate) / inv.sigma_rate
            assert abs(inv.dnu_ds - alt) <= 1e-12


def test_invariants_reject_stationary_pole():
    with pytest.raises(DegeneratePoleCurve):
        canonical_invariants(STATIONARY, 0.0)


# ---------------------------------------------------------------------------
# conjugate point


def test_conjugate_fixed_when_turning_rates_agree():
    for x in (HypNumber(0, 2), HypNumber(3, 1), HypNumber(-1, 4)):
        inp = ConjugateInput(x=x, h=1.0, sigma=1.0, dnu=0.0)
        assert conjugate_point(inp) == x


def test_conjugate_scalar_law_on_the_normal_ray():
    inp = ConjugateInput(x=HypNumber(0, 2), h=1.0, sigma=1.0, dnu=0.1)
    assert close(conjugate_point(inp), HypNumber(0, 2.5), 1e-15)
    rng = random.Random(31)
    for _ in range(200):
        a = rng.uniform(-4, 4)
        if abs(a) < 0.1:
            continue
        h = rng.choice([1.0, 2.0, -0.5, 3.5])
        sigma = rng.uniform(0.2, 3.0)
        dnu = rng.uniform(-0.8, 0.8)
        if abs(sigma - a * h * dnu) < 1e-3:
            continue  # conjugate near infinity
        out = conjugate_point(ConjugateInput(x=HypNumber(0, a), h=h, sigma=sigma, dnu=dnu))
        assert out.x == 0.0
        ap = out.y
        assert abs((1 / a - 1 / ap) - h * dnu / sigma) <= 1e-12 * (1 + abs(h * dnu / sigma))


def test_conjugate_against_linear_solve_oracle():
    # x' solves sigma x = (sigma - j h x dnu) x'; check with an explicit
    # 2x2 solve in the matrix representation of the ring
    inp = ConjugateInput(x=jmul(exp_j(0.5)), h=2.0, sigma=1.0, dnu=0.1)
    got = conjugate_point(inp)
    den = HypNumber(inp.sigma, 0) - jmul(inp.x) * (inp.h * inp.dnu)
    rhs = inp.x * inp.sigma
    det = den.x * den.x - den.y * den.y
    expected = HypNumber(
        (den.x * rhs.x - den.y * rhs.y) / det,
        (den.x * rhs.y - den.y * rhs.x) / det,
    )
    assert close(got, expected, 1e-12)
    assert close(got, HypNumber(0.88478758314762851, 1.5750514870638916), 1e-12)


def test_conjugate_equation_round_trip():
    rng = random.Random(32)
    for _ in range(300):
        x = HypNumber(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if x.x == 0 and x.y == 0:
            continue
        h = rng.uniform(-2, 2) or 1.0
        sigma = rng.uniform(0.3, 3.0)
        dnu = rng.uniform(-0.5, 0.5)
        inp = ConjugateInput(x=x, h=h, sigma=sigma, dnu=dnu)
        den = HypNumber(sigma, 0) - jmul(x) * (h * dnu)
        if abs(abs(den.x) - abs(den.y)) < 1e-6:
            continue
        xp = conjugate_point(inp)
        residual = (x - xp) * sigma + jmul(mul(x, xp)) * (h * dnu)
        assert modulus_h(residual) <= 1e-10 * sigma * (1 + modulus_h(x)) * (
            1 + modulus_h(xp)
        )


def test_conjugate_leaves_ray_off_the_normal():
    # with alpha != 0 the exact solution is not collinear with x and the pole
    x = jmul(exp_j(0.7)) * 1.5
    out = conjugate_point(ConjugateInput(x=x, h=1.0, sigma=1.0, dnu=0.3))
    cross = out.x * x.y - out.y * x.x
    assert abs(cross) > 1e-3


def test_conjugate_rejects_isotropic_denominator():
    # sigma - j h x dnu = 0 exactly: the inflection configuration
    with pytest.raises(LightlikeError):
        conjugate_point(ConjugateInput(x=HypNumber(0, 2), h=1.0, sigma=2.0, dnu=1.0))


def test_conjugate_input_validation():
    with pytest.raises(ValueError):
        ConjugateInput(x=ZERO, h=1.0, sigma=1.0, dnu=0.1)
    with pytest.raises(ValueError):
        ConjugateInput(x=HypNumber(0, 1), h=1.0, sigma=0.0, dnu=0.1)


# ---------------------------------------------------------------------------
# Euler-Savary residual


def test_residual_accepts_consistent_triple():
    res = euler_savary_residual(a=2.0, ap=2.5, alpha=0.0, h=1.0, r=2.0, rp=5.0 / 3.0)
    assert modulus_h(res) <= 1e-12


def test_residual_flags_inconsistent_pair():
    res = euler_savary_residual(a=2.0, ap=2.0, alpha=0.0, h=1.0, r=2.0, rp=5.0 / 3.0)
    assert close(res, HypNumber(-0.1, 0.0), 1e-12)


def test_residual_degenerate_zero():
    res = euler_savary_residual(a=1.7, ap=1.7, alpha=0.9, h=3.0, r=2.2, rp=2.2)
    assert res == ZERO


# ---------------------------------------------------------------------------
# curvature-center oracle


def test_oracle_on_lorentzian_circle():
    # the fixed point 0 of CIRCLE traces j e^{2jt}; every trajectory normal
    # passes through the origin
    for t in (0.0, 0.37, -0.6):
        center = curvature_center_oracle(CIRCLE, ZERO, t, 1e-3)
        assert max(abs(center.x), abs(center.y)) <= 1e-5


def test_oracle_matches_conjugate_prediction_on_m1():
    predicted = predicted_curvature_center(M1, 0.0, ZERO)
    observed = curvature_center_oracle(M1, ZERO, 0.0, 1e-4)
    assert close(predicted, HypNumber(0, 1 / 3), 1e-12)
    assert close(predicted, observed, 1e-3)


def test_oracle_first_order_convergence():
    limit = curvature_center_oracle(M1, ZERO, 0.0, 1e-6)
    err = dist(curvature_center_oracle(M1, ZERO, 0.0, 1e-3), limit)
    err_half = dist(curvature_center_oracle(M1, ZERO, 0.0, 5e-4), limit)
    assert err_half <= err / 2.0


def test_oracle_rejects_parallel_normals():
    # x = 3j is the inflection point of M1 at t = 0: symmetric normals are
    # parallel to second order
    with pytest.raises(ParallelNormals):
        curvature_center_oracle(M1, HypNumber(0, 3), 0.0, 1e-4)


def test_oracle_requires_positive_eps():
    with pytest.raises(ValueError):
        curvature_center_oracle(M1, ZERO, 0.0, 0.0)


# ---------------------------------------------------------------------------
# oracle arbitration and branch invariance


def arbitration_points(motion, t):
    """Fixed points on the pole normal (alpha = 0 rays) at instant t.

    Valid for unit-scale motions, where the canonical ray of p + a j d is
    exactly a j.
    """
    s = pole_sample(motion, t)
    dm = s.pd_moving * (1.0 / arc_rate_moving(s))
    return [s.p_moving + jmul(dm) * a for a in (-1.0, -0.5, -2.0, 1.0, -3.0)]


def test_conjugate_agrees_with_oracle_on_m1():
    for t in (0.0, 0.5):
        for x in arbitration_points(M1, t):
            predicted = predicted_curvature_center(M1, t, x)
            observed = curvature_center_oracle(M1, x, t, 1e-4)
            assert dist(predicted, observed) <= 1e-3


def test_branch_invariance_under_j_swap():
    # the j-swapped motion must produce j-swapped conjugate points
    for t in (0.0, 0.4, -0.6):
        for x in arbitration_points(M1, t):
            original = predicted_curvature_center(M1, t, x)
            swapped = predicted_curvature_center(M1_SWAP, t, jmul(x))
            assert dist(swapped, jmul(original)) <= 1e-12


def test_branch_invariance_of_invariants():
    for t in (0.0, 0.4, -0.6):
        a = canonical_invariants(M1, t)
        b = canonical_invariants(M1_SWAP, t)
        assert abs(a.r - b.r) <= 1e-12
        assert abs(a.rp - b.rp) <= 1e-12
        assert abs(a.dnu_ds - b.dnu_ds) <= 1e-12


def test_euler_savary_residual_closes_the_loop():
    # pairs built from the measured invariants must satisfy the formula
    inv = canonical_invariants(M1, 0.0)
    for a in (-1.0, -0.5, 1.0, -3.0):
        out = conjugate_point(
            ConjugateInput(
                x=HypNumber(0, a),
                h=1.0,
                sigma=inv.sigma_rate,
                dnu=inv.sigma_rate * inv.dnu_ds,
            )
        )
        res = euler_savary_residual(a, out.y, 0.0, 1.0, inv.r, inv.rp)
        assert modulus_h(res) <= 1e-12
