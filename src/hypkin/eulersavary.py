"""Curvature machinery of the rolling pole curves.

At each instant the two pole curves touch at the rotation pole and share a
tangent line.  The canonical relative frame sits at the pole with one axis
along that common tangent; measured in it, the motion is summarized by a
handful of rates: the arc-element rates of the two curves, the turning rates
of their tangents, the curvature radii r = sigma/tau, r' = sigma'/tau', and
the relative turning density dnu/ds = 1/r' - 1/r.

A moving point x (written as a pole ray in the canonical frame) traces a
trajectory in the fixed plane whose instantaneous center of curvature x' is
the conjugate point of x.  conjugate_point() solves the governing relation

    sigma (x - x') + j h x x' dnu = 0

exactly as a hyperbolic-number equation.  Its polar shadow

    (1/a - 1/a') e^{-j alpha} = h (1/r' - 1/r)

is the Euler-Savary formula; euler_savary_residual() evaluates how far a
candidate pair misses it.  curvature_center_oracle() is the independent
ground truth: it intersects trajectory normals at two neighboring instants
and never consults any of the closed-form machinery above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hypernum import (
    Branch,
    HypNumber,
    LightlikeError,
    ZERO,
    classify,
    div,
    exp_j,
    jmul,
    modulus_h,
)
from .kinematics import (
    HomotheticMotion,
    MotionState,
    PoleSample,
    _pole_sample,
    map_point,
    state,
    velocity_decompose,
)


class ParallelNormals(ArithmeticError):
    """The two trajectory normals are too close to parallel to intersect."""


@dataclass(frozen=True)
class CanonicalInvariants:
    """Rates of the canonical relative frame at one instant.

    sigma_rate is the arc-element rate ds'/dt of the fixed pole curve; the
    moving curve's rate rides alongside (the two differ by the factor |h|).
    tau_rate and taup_rate are the hyperbolic-angle turning rates of the
    moving and fixed pole tangents.  r and rp are the curvature radii of the
    two curves, and dnu_ds = 1/rp - 1/r is the turning density entering the
    Euler-Savary formula.
    """

    sigma_rate: float
    sigma_rate_moving: float
    tau_rate: float
    taup_rate: float
    r: float
    rp: float
    dnu_ds: float


@dataclass(frozen=True)
class ConjugateInput:
    """Data of the conjugate-point relation at one instant.

    x is the pole ray of the moving point in the canonical frame, h the
    homothetic scale, sigma the arc rate and dnu the tangent turning-rate
    difference (both per unit time; only their ratio enters the geometry).
    """

    x: HypNumber
    h: float
    sigma: float
    dnu: float

    def __post_init__(self):
        if self.sigma == 0.0:
            raise ValueError("sigma must be nonzero")
        if self.x.x == 0.0 and self.x.y == 0.0:
            raise ValueError("pole ray must be nonzero")


def _invariants(st: MotionState) -> tuple[CanonicalInvariants, PoleSample]:
    """canonical_invariants at a state, plus the pole sample they came from."""
    sample, pdd = _pole_sample(st)
    pd, pdf = sample.pd_moving, sample.pd_fixed
    if classify(pd) is Branch.LIGHTLIKE or classify(pdf) is Branch.LIGHTLIKE:
        raise LightlikeError(f"isotropic pole tangent at t={st.t:g}")
    sm = modulus_h(pd)
    sf = modulus_h(pdf)
    # P'' of the fixed curve P = (h p - u) e^{j phi}, from P' = h p' e^{j phi}
    pddf = (st.twist() * pd + pdd * st.h) * st.rot
    tau = div(pdd, pd).y
    taup = div(pddf, pdf).y
    r = sm / tau if tau != 0.0 else math.inf
    rp = sf / taup if taup != 0.0 else math.inf
    inv_r = tau / sm
    inv_rp = taup / sf
    return CanonicalInvariants(
        sigma_rate=sf,
        sigma_rate_moving=sm,
        tau_rate=tau,
        taup_rate=taup,
        r=r,
        rp=rp,
        dnu_ds=inv_rp - inv_r,
    ), sample


def canonical_invariants(motion: HomotheticMotion, t: float) -> CanonicalInvariants:
    """The canonical-frame rates of the pole curves at one instant.

    Arc rates are the hyperbolic moduli of the two pole-curve tangents.  A
    tangent c' = s d with d of unit modulus has d'/d = j kappa', so the
    turning rate kappa' of its polar angle is the unipotent part of c''/c'
    on every branch: tau = Im(p''/p') and tau' = Im(P''/P'), with p', p''
    and P', P'' exact closed forms of one state.  Raises DegeneratePoleCurve
    for a stationary pole and LightlikeError when a tangent is isotropic
    (its polar angle is then undefined).
    """
    return _invariants(state(motion, t))[0]


def conjugate_point(inp: ConjugateInput) -> HypNumber:
    """Exact solution x' = sigma x / (sigma - j h x dnu) of the conjugate relation.

    Returns x unchanged when dnu = 0.  Raises LightlikeError when the
    denominator is isotropic; the zero case is the inflection configuration
    whose conjugate point lies at infinity.
    """
    den = HypNumber(inp.sigma, 0.0) - jmul(inp.x) * (inp.h * inp.dnu)
    return div(inp.x * inp.sigma, den)


def euler_savary_residual(
    a: float, ap: float, alpha: float, h: float, r: float, rp: float
) -> HypNumber:
    """(1/a - 1/a') e^{-j alpha} - h (1/r' - 1/r), zero iff the pair satisfies
    the Euler-Savary formula literally."""
    if a == 0.0 or ap == 0.0 or r == 0.0 or rp == 0.0:
        raise ValueError("a, a', r, r' must be nonzero")
    lhs = exp_j(-alpha) * (1.0 / a - 1.0 / ap)
    return lhs - HypNumber(h * (1.0 / rp - 1.0 / r), 0.0)


def _trajectory_normal(st: MotionState, x: HypNumber) -> tuple[HypNumber, HypNumber]:
    """Foot point and direction of the Lorentzian trajectory normal of a
    point fixed on the moving plane."""
    pos = map_point(st, x)
    vel = velocity_decompose(st, x, ZERO).va
    if abs(vel.x) == abs(vel.y):
        raise LightlikeError(f"isotropic trajectory velocity at t={st.t:g}")
    return pos, jmul(vel)


def curvature_center_oracle(
    motion: HomotheticMotion, x: HypNumber, t: float, eps: float
) -> HypNumber:
    """Ground-truth center of curvature of the trajectory of x at time t.

    Intersects the Lorentzian normals of the trajectory at t - eps and
    t + eps; as eps -> 0 the meeting point converges to the instantaneous
    curvature center.  Independent of the canonical-frame machinery, so it
    can arbitrate it.  Raises ParallelNormals when the normals are parallel
    beyond conditioning 1e8.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    a1, d1 = _trajectory_normal(state(motion, t - eps), x)
    a2, d2 = _trajectory_normal(state(motion, t + eps), x)
    det = d2.x * d1.y - d1.x * d2.y
    scale = max(abs(d1.x), abs(d1.y)) * max(abs(d2.x), abs(d2.y))
    if abs(det) * 1e8 < scale:
        raise ParallelNormals(f"normals nearly parallel at t={t:g} (det={det:g})")
    rx, ry = a2.x - a1.x, a2.y - a1.y
    lam = (d2.x * ry - rx * d2.y) / det
    return a1 + d1 * lam


def _unit_tangent(v: HypNumber) -> HypNumber:
    return v * (1.0 / modulus_h(v))


def predicted_curvature_center(motion: HomotheticMotion, t: float, x: HypNumber) -> HypNumber:
    """Conjugate-point prediction of the curvature center, in fixed-plane
    coordinates.

    Pipeline: express x as a pole ray in the canonical frame (origin at the
    pole, axis along the measured pole tangent, scaled by h), solve the
    conjugate relation with the measured invariants, and map the result back
    through the fixed-side frame.  Exact against the normal-intersection
    oracle for motions of constant |h| = 1 when x lies on the pole normal;
    for varying h it returns the literal conjugate-relation prediction.
    """
    st = state(motion, t)
    inv, sample = _invariants(st)
    p = sample.p_moving
    dm = _unit_tangent(sample.pd_moving)
    df = _unit_tangent(sample.pd_fixed)
    ray = div(x - p, dm * st.h)
    conj = conjugate_point(
        ConjugateInput(x=ray, h=st.h, sigma=inv.sigma_rate, dnu=inv.sigma_rate * inv.dnu_ds)
    )
    return sample.p_fixed + (conj * st.h) * df
