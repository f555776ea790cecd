"""One-parameter homothetic motion of the hyperbolic plane.

A motion of the moving plane H against the fixed plane H' is the triple
(h(t), phi(t), u(t)): a scalar homothetic scale, a Lorentzian rotation angle
and the origin of the fixed system expressed in the moving system.  A point x
of the moving plane appears in the fixed plane as

    x' = (h x - u) e^{j phi}.

This module evaluates the classical instantaneous quantities of that motion:
the relative / sliding / absolute velocity split, the rotation pole (the
point whose sliding velocity vanishes), the moving and fixed pole curves with
their rolling law ds' = |h| ds, the acceleration split with its Coriolis
term, and the acceleration pole.

Pole-curve derivatives are exact closed forms of one state: the quotient rule
on the pole formula, fed by the 3-jets of (h, phi, u).

All state objects are immutable values and every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypernum import HypNumber, LightlikeError, exp_j, div, jmul, modulus_h
from .paths import HypPath, ScalarPath, _rates, eval_hyp_jet, eval_jet

PHID_FLOOR = 1e-12
SAMPLES = 101  # instants of the interval that validate() and is_homothetic() check


def _uniform_grid(t0: float, t1: float, n: int) -> list[float]:
    """n uniform instants from t0 to t1, both included."""
    return [t0 + (t1 - t0) * i / (n - 1) for i in range(n)]


class DegenerateError(ArithmeticError):
    """The motion stops rotating (phi' = 0): no instantaneous kinematics."""


class DegeneratePoleCurve(ArithmeticError):
    """The rotation pole is stationary: pole-curve quantities are undefined."""


@dataclass(frozen=True)
class HomotheticMotion:
    """The triple (h, phi, u) plus the time interval it is declared on."""

    h: ScalarPath
    phi: ScalarPath
    u: HypPath
    interval: tuple[float, float]

    def validate(self) -> None:
        """Check |phi'| >= PHID_FLOOR at the SAMPLES instants of the interval's
        uniform grid, in order: the DegenerateError names the first instant
        that fails, and an OverflowError of phi' comes at the first instant
        where it overflows.  Between the samples phi' is not checked."""
        times = _uniform_grid(*self.interval, SAMPLES)
        for t, phid in zip(times, _rates(self.phi, times)):
            if abs(phid) < PHID_FLOOR:
                raise DegenerateError(f"angular velocity vanishes at t={t:g}")

    def is_homothetic(self) -> bool:
        """False when |h'| <= 1e-15 at all SAMPLES grid instants (constant
        scale, a plain motion).  It stops at the first instant where h'
        varies, so an h' that would overflow only later raises nothing."""
        return any(abs(hd) > 1e-15 for hd in _rates(self.h, _uniform_grid(*self.interval, SAMPLES)))


@dataclass(frozen=True)
class MotionState:
    """The 3-jets of (h, phi, u) at one instant, rot = e^{j phi}, and the two
    velocity coefficients every formula starts from: twist D = h' + j h phi'
    and drag N = u' + j phi' u.  The sliding velocity is (D x - N) e^{j phi}
    and the rotation pole is p = N / D."""

    t: float
    h: float
    hd: float
    hdd: float
    hddd: float
    phi: float
    phid: float
    phidd: float
    phiddd: float
    u: HypNumber
    ud: HypNumber
    udd: HypNumber
    uddd: HypNumber
    rot: HypNumber
    twist: HypNumber
    drag: HypNumber


@dataclass(frozen=True)
class VelocityDecomposition:
    vr: HypNumber  # relative: seen from the moving plane
    vf: HypNumber  # sliding: imparted by the frame motion
    va: HypNumber  # absolute: seen from the fixed plane; va = vf + vr


@dataclass(frozen=True)
class AccelerationDecomposition:
    br: HypNumber  # relative
    bc: HypNumber  # Coriolis
    bf: HypNumber  # sliding
    ba: HypNumber  # absolute; ba = bf + bc + br


@dataclass(frozen=True)
class PoleSample:
    """One instant on the pole curves: positions and tangents in both planes."""

    t: float
    p_moving: HypNumber
    p_fixed: HypNumber
    pd_moving: HypNumber
    pd_fixed: HypNumber


def state(motion: HomotheticMotion, t: float) -> MotionState:
    """The 3-jets of the motion at t, with D and N formed once for every formula."""
    jh = eval_jet(motion.h, t)
    jphi = eval_jet(motion.phi, t)
    if abs(jphi.d1) < PHID_FLOOR:
        raise DegenerateError(f"angular velocity vanishes at t={t:g}")
    u, ud, udd, uddd = eval_hyp_jet(motion.u, t)
    return MotionState(
        t=t,
        h=jh.v,
        hd=jh.d1,
        hdd=jh.d2,
        hddd=jh.d3,
        phi=jphi.v,
        phid=jphi.d1,
        phidd=jphi.d2,
        phiddd=jphi.d3,
        u=u,
        ud=ud,
        udd=udd,
        uddd=uddd,
        rot=exp_j(jphi.v),
        twist=HypNumber(jh.d1, jh.v * jphi.d1),
        drag=ud + jmul(u) * jphi.d1,
    )


def map_point(st: MotionState, x: HypNumber) -> HypNumber:
    """Image of the moving-plane point x in the fixed plane: (h x - u) e^{j phi}."""
    return (x * st.h - st.u) * st.rot


def velocity_decompose(st: MotionState, x: HypNumber, xd: HypNumber) -> VelocityDecomposition:
    """Split the velocity of a moving point into relative, sliding and absolute parts.

    x is the point's position on the moving plane and xd its velocity there
    (xd = 0 for a point rigidly attached to the moving plane).  The parts are

        vr = h x' e^{j phi}
        vf = [(h' + j h phi') x - (u' + j u phi')] e^{j phi}
        va = vf + vr

    va rotates the sum of the unrotated parts once rather than summing vf and
    vr, so the composition law is a checkable identity, not a tautology.
    """
    rel = xd * st.h
    slide = st.twist * x - st.drag
    return VelocityDecomposition(rel * st.rot, slide * st.rot, (slide + rel) * st.rot)


def sliding_velocity_pole_form(st: MotionState, x: HypNumber) -> HypNumber:
    """Sliding velocity written through the pole: (h' + j h phi')(x - p) e^{j phi}.

    Algebraically equal to the vf of velocity_decompose whenever the pole
    exists; kept as a second route for consistency checks.
    """
    return (st.twist * (x - pole_point(st))) * st.rot


def pole_point(st: MotionState) -> HypNumber:
    """Rotation pole p = (u' + j phi' u) / (h' + j h phi').

    The pole is the moving-plane point whose sliding velocity vanishes at this
    instant.  Raises LightlikeError when the denominator is isotropic
    (h'^2 = h^2 phi'^2), where no finite pole exists.
    """
    if st.twist.x * st.twist.x == st.twist.y * st.twist.y:
        raise LightlikeError(
            f"pole denominator {st.twist} isotropic at t={st.t:g} (h'^2 = h^2 phi'^2)"
        )
    return div(st.drag, st.twist)


def _pole_jet(st: MotionState) -> tuple[HypNumber, HypNumber, HypNumber]:
    """The pole p and its exact time derivatives p', p'', by the quotient rule
    on p = N / D with N = u' + j phi' u and D = h' + j h phi':

        p' = (N' - p D') / D,    p'' = (N'' - 2 p' D' - p D'') / D
    """
    p = pole_point(st)
    den1 = HypNumber(st.hdd, st.hd * st.phid + st.h * st.phidd)
    den2 = HypNumber(st.hddd, st.hdd * st.phid + 2.0 * st.hd * st.phidd + st.h * st.phiddd)
    num1 = st.udd + jmul(st.u * st.phidd + st.ud * st.phid)
    num2 = st.uddd + jmul(st.u * st.phiddd + st.ud * (2.0 * st.phidd) + st.udd * st.phid)
    pd = div(num1 - p * den1, st.twist)
    pdd = div(num2 - pd * den1 * 2.0 - p * den2, st.twist)
    return p, pd, pdd


def _pole_sample(st: MotionState) -> tuple[PoleSample, HypNumber]:
    """pole_sample at a state, plus the moving curve's second derivative p''."""
    p, pd, pdd = _pole_jet(st)
    scale = 1.0 + max(abs(p.x), abs(p.y))
    if max(abs(pd.x), abs(pd.y)) <= 1e-12 * scale:
        raise DegeneratePoleCurve(f"stationary pole at t={st.t:g}: p={p}")
    # fixed pole curve P = (h p - u) e^{j phi}: since D p = N, P' = h p' e^{j phi}
    return PoleSample(st.t, p, map_point(st, p), pd, (pd * st.h) * st.rot), pdd


def pole_velocity(st: MotionState) -> HypNumber:
    """Time derivative of the moving pole curve at this instant, exact to
    roundoff: p' = (N' - p D') / D by the quotient rule on p = N / D."""
    return _pole_jet(st)[1]


def pole_sample(motion: HomotheticMotion, t: float) -> PoleSample:
    """Positions and tangent vectors of both pole curves at one instant.

    Both tangents are closed forms of one state; the fixed one is
    h p' e^{j phi}, so the rolling law holds by construction and is checked
    against differences of the sampled curves in the test suites.  Raises
    DegeneratePoleCurve when the pole is stationary.
    """
    return _pole_sample(state(motion, t))[0]


def pole_curves(motion: HomotheticMotion, t0: float, t1: float, n: int) -> list[PoleSample]:
    """Sample both pole curves on n uniform instants of [t0, t1]."""
    if n < 2:
        raise ValueError("need at least two samples")
    return [pole_sample(motion, t) for t in _uniform_grid(t0, t1, n)]


def arc_rate_moving(sample: PoleSample) -> float:
    """ds/dt of the moving pole curve."""
    return modulus_h(sample.pd_moving)


def arc_rate_fixed(sample: PoleSample) -> float:
    """ds'/dt of the fixed pole curve; equals |h| times the moving rate."""
    return modulus_h(sample.pd_fixed)


def _quad(st: MotionState) -> HypNumber:
    """h'' + h phi'^2 + j(2 h' phi' + h phi''), the factor of (x - p) in bf."""
    return HypNumber(st.hdd + st.h * st.phid * st.phid, 2.0 * st.hd * st.phid + st.h * st.phidd)


def acceleration_decompose(
    st: MotionState, x: HypNumber, xd: HypNumber, xdd: HypNumber
) -> AccelerationDecomposition:
    """Split the acceleration of a moving point into its four classical parts.

        br = h x'' e^{j phi}
        bc = 2 x' (h' + j h phi') e^{j phi}
        bf = [(x - p)(h'' + h phi'^2 + j(2 h' phi' + h phi'')) - p'(h' + j h phi')] e^{j phi}
        ba = bf + bc + br

    As with the velocities, ba rotates the sum of the unrotated parts once, so
    the composition theorem stays a real identity to check.  Needs the pole
    and its derivative; pole errors propagate.
    """
    quad = _quad(st)
    p, pd, _ = _pole_jet(st)
    rel = xdd * st.h
    cor = (xd * st.twist) * 2.0
    slide = (x - p) * quad - pd * st.twist
    return AccelerationDecomposition(
        rel * st.rot, cor * st.rot, slide * st.rot, (slide + cor + rel) * st.rot
    )


def acceleration_pole(st: MotionState) -> HypNumber:
    """Acceleration pole q, where the sliding acceleration vanishes.

        q = p + p'(h' + j h phi') / (h'' + h phi'^2 + j(2 h' phi' + h phi''))

    Raises LightlikeError when the denominator is isotropic, i.e. when
    h'' + h phi'^2 = -/+ (2 h' phi' + h phi'').
    """
    quad = _quad(st)
    if quad.x * quad.x == quad.y * quad.y:
        raise LightlikeError(
            f"acceleration-pole denominator {quad} isotropic at t={st.t:g}"
        )
    p, pd, _ = _pole_jet(st)
    return p + div(pd * st.twist, quad)
