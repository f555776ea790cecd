"""Exact references for the output checks, independent of hypkin.

Every basis term (c t^k, c cosh wt, c sinh wt, c exp wt) has closed-form
derivatives of any order, so the jets of h, phi and u are exact to roundoff.
Pole quantities follow by truncated Taylor arithmetic on split-complex jets
(Leibniz rule for products, the quotient recurrence for division), so the
pole tangent p' and the pole-curve curvature come out exact where hypkin
uses Richardson differences.  Hyperbolic numbers are plain (x, y) tuples
here; nothing in this module imports the library it checks.
"""

from __future__ import annotations

import math
from math import comb

ORDER = 3  # jets of h, phi, u up to the third derivative give p'' exactly


# ---------------------------------------------------------------------------
# scalar basis


def term_derivs(kind: str, c: float, p: float, t: float, order: int) -> list[float]:
    """[f, f', ..., f^(order)] of one basis term at t."""
    if kind == "poly":
        k = int(p)
        out = []
        for n in range(order + 1):
            if n > k:
                out.append(0.0)
            else:
                out.append(c * math.perm(k, n) * t ** (k - n))
        return out
    if kind == "exp":
        e = math.exp(p * t)
        return [c * p**n * e for n in range(order + 1)]
    ch, sh = math.cosh(p * t), math.sinh(p * t)
    even, odd = (ch, sh) if kind == "cosh" else (sh, ch)
    return [c * p**n * (even if n % 2 == 0 else odd) for n in range(order + 1)]


def path_jet(terms, t: float, order: int = ORDER) -> list[float]:
    """Jet of a sum of terms given as config dicts {"kind", "coeff", "param"}."""
    acc = [0.0] * (order + 1)
    for term in terms:
        for n, v in enumerate(term_derivs(term["kind"], term["coeff"], term["param"], t, order)):
            acc[n] += v
    return acc


def deriv_bound(term, t0: float, t1: float, n: int) -> float:
    """max |f^(n)| over [t0, t1]: every basis derivative is monotone or even
    and convex in t, so the maximum sits at an endpoint."""
    return max(
        abs(term_derivs(term["kind"], term["coeff"], term["param"], t, n)[n]) for t in (t0, t1)
    )


# ---------------------------------------------------------------------------
# split-complex arithmetic on (x, y) tuples


def hadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def hsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def hscale(a, s: float):
    return (a[0] * s, a[1] * s)


def hmul(a, b):
    return (a[0] * b[0] + a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def hdiv(a, b):
    den = b[0] * b[0] - b[1] * b[1]
    return ((a[0] * b[0] - a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den)


def hj(a):
    return (a[1], a[0])


def hmod(a) -> float:
    return math.sqrt(abs(a[0] * a[0] - a[1] * a[1]))


def linner(a, b) -> float:
    """Lorentzian inner product xu - yv."""
    return a[0] * b[0] - a[1] * b[1]


# ---------------------------------------------------------------------------
# jets of hyperbolic numbers: lists of (x, y), entry n the n-th derivative


def jet_add(a, b):
    return [hadd(x, y) for x, y in zip(a, b)]


def jet_sub(a, b):
    return [hsub(x, y) for x, y in zip(a, b)]


def jet_mul(a, b):
    n = min(len(a), len(b))
    return [
        _hsum(hscale(hmul(a[i], b[k - i]), comb(k, i)) for i in range(k + 1)) for k in range(n)
    ]


def jet_div(a, b):
    n = min(len(a), len(b))
    q = []
    for k in range(n):
        acc = a[k]
        for i in range(1, k + 1):
            acc = hsub(acc, hscale(hmul(b[i], q[k - i]), comb(k, i)))
        q.append(hdiv(acc, b[0]))
    return q


def jet_rot(phi: list[float]):
    """Jet of e^{j phi} from R' = (j phi') R, one order shorter than phi."""
    w = [(0.0, d) for d in phi[1:]]  # jet of j phi'
    r = [(math.cosh(phi[0]), math.sinh(phi[0]))]
    for n in range(len(phi) - 1):
        r.append(_hsum(hscale(hmul(w[i], r[n - i]), comb(n, i)) for i in range(n + 1)))
    return r


def _hsum(items):
    x = y = 0.0
    for a, b in items:
        x += a
        y += b
    return (x, y)


def _real(jet):
    return [(v, 0.0) for v in jet]


# ---------------------------------------------------------------------------
# the motion at one instant


class Frame:
    """What follows from a motion's map_point, velocities and accelerations."""

    def curvature_center(self, x):
        """Center of curvature of the trajectory of a point fixed at x.

        With c, v, a the position, velocity and acceleration of the
        trajectory, the center c + w solves <v, w> = 0 and <a, w> = <v, v>,
        so w = j v <v, v> / <a, j v>.
        """
        c = self.map_point(x)
        _, v, _ = self.velocities(x, (0.0, 0.0))
        a = self.accelerations(x, (0.0, 0.0), (0.0, 0.0))[3]
        return hadd(c, hscale(hj(v), linner(v, v) / linner(a, hj(v))))

    def pole_normal_point(self, a: float):
        """The moving-plane point at pole distance a along the pole normal."""
        return hadd(self.p, hscale(hj(self.pd), a / self.sigma_m))


class Instant(Frame):
    """Exact kinematics of a motion (config dict) at time t.

    Attributes follow the library's names: h, phi', u; rot = e^{j phi};
    twist D = h' + j h phi' and quad Q = D' + j phi' D; num N = u' + j phi' u
    and its derivative; pole p with tangents pd, pdd; fixed pole pf with pfd,
    pfdd; acceleration pole q; canonical invariants.
    """

    def __init__(self, cfg, t: float):
        h = path_jet(cfg["h"], t)
        phi = path_jet(cfg["phi"], t)
        u = list(zip(path_jet(cfg["u_x"], t), path_jet(cfg["u_y"], t)))
        self.h, self.phid, self.u = h[0], phi[1], u[0]
        jphid = [(0.0, d) for d in phi[1:]]
        rot = jet_rot(phi)  # order 3
        twist = jet_add(_real(h[1:]), jet_mul(_real(h), jphid))  # D, order 2
        num = jet_add(u[1:], jet_mul(jphid, u))  # N = u' + j phi' u, order 2
        p = jet_div(num, twist)
        pf = jet_mul(jet_sub(jet_mul(_real(h), p), u), rot)
        self.rot = rot[0]
        self.twist = twist[0]
        self.quad = hadd(twist[1], hmul(jphid[0], twist[0]))
        self.num, self.numd = num[0], num[1]
        self.p, self.pd, self.pdd = p[0], p[1], p[2]
        self.pf, self.pfd, self.pfdd = pf[0], pf[1], pf[2]
        self.q = hadd(self.p, hdiv(hmul(self.pd, self.twist), self.quad))
        # canonical invariants: arc rates and tangent turning rates
        self.sigma_m = hmod(self.pd)
        self.sigma = hmod(self.pfd)
        self.tau = hdiv(self.pdd, self.pd)[1]
        self.taup = hdiv(self.pfdd, self.pfd)[1]
        self.dnu_ds = self.taup / self.sigma - self.tau / self.sigma_m

    def map_point(self, x):
        return hmul(hsub(hscale(x, self.h), self.u), self.rot)

    def velocities(self, x, xd):
        """(vr, vf, va), each from its own expression."""
        vr = hmul(hscale(xd, self.h), self.rot)
        vf = hmul(hsub(hmul(self.twist, x), self.num), self.rot)
        va = hmul(hadd(hsub(hmul(self.twist, x), self.num), hscale(xd, self.h)), self.rot)
        return vr, vf, va

    def accelerations(self, x, xd, xdd):
        """(br, bc, bf, ba); ba = (Q x - (N' + j phi' N) + 2 D x' + h x'') e^{j phi}
        never touches the pole."""
        br = hmul(hscale(xdd, self.h), self.rot)
        bc = hmul(hscale(hmul(xd, self.twist), 2.0), self.rot)
        bf = hmul(hsub(hmul(hsub(x, self.p), self.quad), hmul(self.pd, self.twist)), self.rot)
        drive = hadd(self.numd, hmul((0.0, self.phid), self.num))
        inner_ = hsub(hmul(self.quad, x), drive)
        inner_ = hadd(inner_, hadd(hscale(hmul(xd, self.twist), 2.0), hscale(xdd, self.h)))
        return br, bc, bf, hmul(inner_, self.rot)


# ---------------------------------------------------------------------------
# the reference motion M1, in closed form


M1_CONFIG = {
    "h": [{"kind": "poly", "coeff": 1.0, "param": 0.0}],
    "phi": [{"kind": "poly", "coeff": 1.0, "param": 1.0}],
    "u_x": [{"kind": "sinh", "coeff": 1.0, "param": 1.0}],
    "u_y": [{"kind": "cosh", "coeff": 1.0, "param": 1.0}, {"kind": "poly", "coeff": -1.0, "param": 0.0}],
    "interval": [-1.0, 1.0],
}


class M1Instant(Frame):
    """M1 = (h 1, phi t, u sinh t + j(cosh t - 1)) at time t, written out by hand.

    Both pole curves are Lorentzian circles, p = 2 sinh t + j(2 cosh t - 1)
    and p_fixed = sinh 2t + j cosh 2t, so r = 2, r' = 1 and dnu/ds = 1/2.
    """

    sigma = sigma_m = 2.0
    tau, taup = 1.0, 2.0
    r, rp, dnu_ds = 2.0, 1.0, 0.5
    h = 1.0
    twist = (0.0, 1.0)  # D = h' + j h phi' = j
    quad = (1.0, 0.0)  # Q = h'' + h phi'^2 + j(2 h' phi' + h phi'') = 1

    def __init__(self, t: float):
        ch, sh = math.cosh(t), math.sinh(t)
        self.rot = (ch, sh)
        self.u = (sh, ch - 1.0)
        self.p = (2.0 * sh, 2.0 * ch - 1.0)
        self.pd = (2.0 * ch, 2.0 * sh)
        self.pf = (math.sinh(2.0 * t), math.cosh(2.0 * t))
        self.pfd = (2.0 * math.cosh(2.0 * t), 2.0 * math.sinh(2.0 * t))
        self.q = (4.0 * sh, 4.0 * ch - 1.0)  # p + j p', since D = j and Q = 1

    def map_point(self, x):
        return hmul(hsub(x, self.u), self.rot)

    def velocities(self, x, xd):
        vr = hmul(xd, self.rot)
        vf = hmul(hj(hsub(x, self.p)), self.rot)
        return vr, vf, hadd(vf, vr)

    def accelerations(self, x, xd, xdd):
        br = hmul(xdd, self.rot)
        bc = hmul(hscale(hj(xd), 2.0), self.rot)
        bf = hmul(hsub(hsub(x, self.p), hj(self.pd)), self.rot)
        return br, bc, bf, hadd(hadd(bf, bc), br)
