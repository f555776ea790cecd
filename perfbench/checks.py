"""Output checks: library results against the exact references of exact.py.

Each check_* function takes one op's result and returns a Verdict listing
every comparison that missed its tolerance.  The checks only read attributes
of the results and never call hypkin, so a traced run counts the op alone.
On M1 ops the reference is M1's hand-written closed form, and the verdict
also carries the worst error of those comparisons, from which err_digits is
formed.  The oracle's normal-intersection center is approximate by design
(O(eps^2)), so it is checked with its own tolerance and left out of the M1
error.
"""

from __future__ import annotations

import math

from .exact import M1Instant, hadd, hdiv, hj, hmod, hmul, hscale, hsub

# Tolerances sit 30-300x above the worst error seen on 60 seeds of valid ops.
TOL_CLOSED = 1e-12  # closed-form quantities: only roundoff separates them
TOL_DERIV = 1e-6  # first derivatives that hypkin takes by Richardson differences
TOL_CURV = 1e-5  # turning rates and curvatures: second differences of the pole
TOL_ORACLE = 1e-3  # normal intersection at eps = 1e-4
TOL_CSV = 1e-12  # CLI rows against the library evaluated directly
ERR_FLOOR = 1e-17  # err_digits saturates at 17 when M1 is exact


def tup(z):
    return (z.x, z.y)


def rel_err(got, want) -> float:
    """max |got - want| / max(1, max |want|), componentwise; inf if got is
    not finite."""
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    if not all(math.isfinite(g) for g in got):
        return math.inf
    scale = max(1.0, *(abs(w) for w in want))
    return max(abs(g - w) for g, w in zip(got, want)) / scale


class Verdict:
    """Failed comparisons of one op, plus the worst M1 closed-form error."""

    def __init__(self, m1: bool = False):
        self.m1 = m1
        self.problems: list[str] = []
        self.m1_err = 0.0

    def close(self, name: str, got, want, tol: float, exact: bool = True) -> None:
        err = rel_err(got, want)
        if not err <= tol:
            self.problems.append(f"{name}: error {err:.3g} above {tol:g}")
        if self.m1 and exact:
            self.m1_err = max(self.m1_err, err)

    def finite(self, name: str, *values) -> None:
        if not all(math.isfinite(v) for v in values):
            self.problems.append(f"{name}: non-finite {values}")

    @property
    def ok(self) -> bool:
        return not self.problems


def check_first_order(out, ref, op) -> Verdict:
    """out = ([(image, VelocityDecomposition)] per point, pole, pole-form vf)."""
    v = Verdict(isinstance(ref, M1Instant))
    images, pole, slide = out
    for i, ((image, dec), (x, xd)) in enumerate(zip(images, op["points"])):
        vr, vf, va = ref.velocities(x, xd)
        v.close(f"map_point[{i}]", tup(image), ref.map_point(x), TOL_CLOSED)
        v.close(f"vr[{i}]", tup(dec.vr), vr, TOL_CLOSED)
        v.close(f"vf[{i}]", tup(dec.vf), vf, TOL_CLOSED)
        v.close(f"va[{i}]", tup(dec.va), va, TOL_CLOSED)
        v.close(f"va = vf + vr [{i}]", tup(dec.va), hadd(tup(dec.vf), tup(dec.vr)), TOL_CLOSED)
    v.close("pole_point", tup(pole), ref.p, TOL_CLOSED)
    x0 = op["points"][0][0]
    v.close("sliding_velocity_pole_form", tup(slide), ref.velocities(x0, (0.0, 0.0))[1], TOL_CLOSED)
    return v


def second_order_point(ref, op):
    """M1's second-order point sits on the pole normal; others are seeded."""
    if op["point"] is None:
        return op["x"]
    return ref.pole_normal_point(op["point"])


def check_second_order(out, ref, op) -> Verdict:
    """out = (PoleSample, AccelerationDecomposition, acceleration pole,
    CanonicalInvariants, predicted center, oracle center)."""
    v = Verdict(isinstance(ref, M1Instant))
    sample, acc, q, inv, center, oracle = out
    x = second_order_point(ref, op)
    xd, xdd = op["xd"], op["xdd"]
    v.close("pole_sample.p_moving", tup(sample.p_moving), ref.p, TOL_CLOSED)
    v.close("pole_sample.p_fixed", tup(sample.p_fixed), ref.pf, TOL_CLOSED)
    v.close("pole_sample.pd_moving", tup(sample.pd_moving), ref.pd, TOL_DERIV)
    v.close("pole_sample.pd_fixed", tup(sample.pd_fixed), ref.pfd, TOL_DERIV)
    moving, fixed = hmod(tup(sample.pd_moving)), hmod(tup(sample.pd_fixed))
    v.close("rolling law |pd_fixed| = |h| |pd_moving|", fixed, abs(ref.h) * moving, TOL_DERIV)
    for name, got, want in zip(("br", "bc", "bf", "ba"), (acc.br, acc.bc, acc.bf, acc.ba),
                               ref.accelerations(x, xd, xdd)):
        v.close(name, tup(got), want, TOL_DERIV)
    v.close("ba = bf + bc + br", tup(acc.ba), hadd(hadd(tup(acc.bf), tup(acc.bc)), tup(acc.br)), TOL_CLOSED)
    v.close("acceleration_pole", tup(q), ref.q, TOL_DERIV)
    # the sliding acceleration, in exact form, must vanish at the returned pole
    drag = hmul(ref.pd, ref.twist)
    bf_at_q = hmul(hsub(hmul(hsub(tup(q), ref.p), ref.quad), drag), ref.rot)
    v.close("bf at acceleration pole", hscale(bf_at_q, 1.0 / max(1.0, *map(abs, drag))), (0.0, 0.0), TOL_DERIV)
    v.close("sigma", inv.sigma_rate, ref.sigma, TOL_DERIV)
    v.close("sigma_moving", inv.sigma_rate_moving, ref.sigma_m, TOL_DERIV)
    v.close("tau", inv.tau_rate, ref.tau, TOL_CURV)
    v.close("taup", inv.taup_rate, ref.taup, TOL_CURV)
    v.close("1/r", 1.0 / inv.r, ref.tau / ref.sigma_m, TOL_CURV)
    v.close("1/r'", 1.0 / inv.rp, ref.taup / ref.sigma, TOL_CURV)
    v.close("dnu_ds", inv.dnu_ds, ref.dnu_ds, TOL_CURV)
    if v.m1:  # Euler-Savary is validated for unit scale on the pole normal
        v.close("predicted_curvature_center", tup(center), ref.curvature_center(x), TOL_CURV)
    else:
        v.finite("predicted_curvature_center", center.x, center.y)
    v.close("curvature_center_oracle", tup(oracle), ref.curvature_center(x), TOL_ORACLE, exact=False)
    return v


# ---------------------------------------------------------------------------
# CLI


def _signed_polar_magnitude(z) -> float:
    """Polar radius of z, negative on the H-III and H-IV branches."""
    ax, ay = abs(z[0]), abs(z[1])
    negative = z[0] < 0 if ax > ay else z[1] < 0
    return -hmod(z) if negative else hmod(z)


def m1_rows(sub: str, times, x, a, alpha):
    """M1's CSV rows in closed form, or None for the approximate oracle."""
    zero = (0.0, 0.0)
    rows = []
    for t in times:
        m = M1Instant(t)
        if sub == "eval":
            rows.append((t, *m.map_point(x)))
        elif sub == "decompose":
            rows.append((t, *(c for part in m.velocities(x, zero) for c in part)))
        elif sub == "pole":
            rows.append((t, *m.p))
        elif sub == "polecurves":
            rows.append((t, *m.p, *m.pf, 1.0))
        elif sub == "accel":
            rows.append((t, *(c for part in m.accelerations(x, zero, zero) for c in part)))
        elif sub == "accelpole":
            rows.append((t, *m.q))
        elif sub == "invariants":
            rows.append((t, m.sigma, m.sigma_m, m.tau, m.taup, m.r, m.rp, m.dnu_ds))
        elif sub == "eulersavary":
            ray = hscale(hj((math.cosh(alpha), math.sinh(alpha))), a)
            den = hsub((m.sigma, 0.0), hscale(hj(ray), m.h * m.sigma * m.dnu_ds))
            conj = hdiv(hscale(ray, m.sigma), den)
            rows.append((m.r, m.rp, m.dnu_ds, _signed_polar_magnitude(conj)))
        else:
            return None
    return rows


def parse_csv(text: str):
    lines = text.splitlines()
    return tuple(lines[0].split(",")), [tuple(float(c) for c in line.split(",")) for line in lines[1:]]


def check_cli(result, expected, m1_expected=None) -> Verdict:
    """result = (exit code, stderr, --out bytes or None).

    expected is ("exit", code) for a refusal, ("csv", header, rows),
    ("svg", polylines, points per polyline) or ("fail", why) for a call
    whose expected output the library could not produce.
    """
    code, err, blob = result
    v = Verdict(m1_expected is not None)
    if expected[0] == "fail":
        v.problems.append(expected[1])
        return v
    if "Traceback" in err:
        v.problems.append("traceback on stderr")
    if expected[0] == "exit":
        if code != expected[1]:
            v.problems.append(f"exit {code}, expected {expected[1]}")
        elif not err.startswith("error:" if code == 2 else "degenerate:"):
            v.problems.append(f"exit {code} without its stderr prefix: {err[:80]!r}")
        return v
    if code != 0:
        v.problems.append(f"exit {code}, expected 0: {err[:120]!r}")
        return v
    if blob is None:
        v.problems.append("no output written")
        return v
    if expected[0] == "svg":
        text = blob.decode("utf-8")
        polylines = [line for line in text.splitlines() if line.startswith("<polyline")]
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            v.problems.append("not an SVG document")
        if len(polylines) != expected[1]:
            v.problems.append(f"{len(polylines)} polylines, expected {expected[1]}")
        for line in polylines:
            if line.split('points="')[1].count(",") != expected[2]:
                v.problems.append("polyline point count")
        return v
    header, rows = parse_csv(blob.decode("utf-8"))
    if header != expected[1] or len(rows) != len(expected[2]):
        v.problems.append(f"table shape {header} x {len(rows)}, expected {expected[1]} x {len(expected[2])}")
        return v
    for i, (row, want) in enumerate(zip(rows, expected[2])):
        for name, g, w in zip(header, row, want):
            v.close(f"row {i} {name}", g, w, TOL_CSV, exact=False)
    if m1_expected is not None:
        for i, (row, want) in enumerate(zip(rows, m1_expected)):
            for name, g, w in zip(header, row, want):
                v.close(f"M1 row {i} {name}", g, w, TOL_CURV)
    return v


def err_digits(worst: float) -> float:
    """-log10 of the worst relative error, saturating at 17 digits."""
    return -math.log10(max(worst, ERR_FLOOR))
