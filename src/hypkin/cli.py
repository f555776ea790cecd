"""Command-line front end.

Motions are described by a small JSON config (basis terms for h, phi and the
two components of u, plus a time interval); subcommands evaluate the
kinematic quantities at an instant or over a grid and write CSV tables or an
SVG sketch of the curves.

Exit codes: 0 success, 2 config or usage error, 3 mathematical degeneracy
(lightlike denominator, vanishing angular velocity, stationary pole,
parallel normals, conjugate point at infinity), with the offending instant
named on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass

from .eulersavary import (
    ConjugateInput,
    ParallelNormals,
    canonical_invariants,
    conjugate_point,
    curvature_center_oracle,
)
from .hypernum import Branch, HypNumber, LightlikeError, ZERO, exp_j, jmul, polar
from .kinematics import (
    DegenerateError,
    DegeneratePoleCurve,
    HomotheticMotion,
    acceleration_decompose,
    acceleration_pole,
    map_point,
    pole_curves,
    pole_point,
    state,
    velocity_decompose,
)
from .paths import BasisTerm, HypPath, ScalarPath, TermKind

MATH_ERRORS = (LightlikeError, DegenerateError, DegeneratePoleCurve, ParallelNormals)

_KINDS = {k.value: k for k in TermKind}


class ConfigError(ValueError):
    """Malformed motion config; the message carries the offending field path."""


class ValidationError(ValueError):
    """Config parses but does not define a valid motion on its interval."""


@dataclass(frozen=True)
class MotionConfig:
    h: tuple[BasisTerm, ...]
    phi: tuple[BasisTerm, ...]
    u_x: tuple[BasisTerm, ...]
    u_y: tuple[BasisTerm, ...]
    interval: tuple[float, float]


@dataclass(frozen=True)
class RunReport:
    command: str
    digest: str
    header: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    warnings: tuple[str, ...]


def _require_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _parse_terms(value, path: str) -> tuple[BasisTerm, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of terms")
    terms = []
    for i, item in enumerate(value):
        where = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{where}: expected an object")
        unknown = set(item) - {"kind", "coeff", "param"}
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        for key in ("kind", "coeff", "param"):
            if key not in item:
                raise ConfigError(f"{where}: missing '{key}'")
        kind = item["kind"]
        if kind not in _KINDS:
            raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
        coeff = _require_number(item["coeff"], f"{where}.coeff")
        param = _require_number(item["param"], f"{where}.param")
        try:
            terms.append(BasisTerm(_KINDS[kind], coeff, param))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return tuple(terms)


def parse_config(text) -> MotionConfig:
    """Parse and schema-check a motion config from JSON text or bytes."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = set(raw) - {"h", "phi", "u_x", "u_y", "interval"}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}")
    for key in ("h", "phi", "u_x", "u_y", "interval"):
        if key not in raw:
            raise ConfigError(f"missing '{key}'")
    interval = raw["interval"]
    if not isinstance(interval, list) or len(interval) != 2:
        raise ConfigError("interval: expected [t0, t1]")
    t0 = _require_number(interval[0], "interval[0]")
    t1 = _require_number(interval[1], "interval[1]")
    if not t0 < t1:
        raise ConfigError("interval: t0 must be below t1")
    return MotionConfig(
        h=_parse_terms(raw["h"], "h"),
        phi=_parse_terms(raw["phi"], "phi"),
        u_x=_parse_terms(raw["u_x"], "u_x"),
        u_y=_parse_terms(raw["u_y"], "u_y"),
        interval=(t0, t1),
    )


def serialize_config(cfg: MotionConfig) -> bytes:
    """Inverse of parse_config: parse_config(serialize_config(cfg)) == cfg."""

    def terms(ts):
        return [{"kind": t.kind.value, "coeff": t.coeff, "param": t.param} for t in ts]

    return json.dumps(
        {
            "h": terms(cfg.h),
            "phi": terms(cfg.phi),
            "u_x": terms(cfg.u_x),
            "u_y": terms(cfg.u_y),
            "interval": list(cfg.interval),
        }
    ).encode("utf-8")


def motion_from_config(cfg: MotionConfig) -> HomotheticMotion:
    """Build the motion and check phi' on a 101-point grid over the interval."""
    motion = HomotheticMotion(
        h=ScalarPath(cfg.h),
        phi=ScalarPath(cfg.phi),
        u=HypPath(ScalarPath(cfg.u_x), ScalarPath(cfg.u_y)),
        interval=cfg.interval,
    )
    try:
        motion.validate()
    except DegenerateError as exc:
        raise ValidationError(str(exc)) from exc
    return motion


def _fmt(v: float) -> str:
    if v == 0.0:
        v = 0.0  # normalize -0.0 so CSV output is sign-stable
    return f"{v:.17g}"


def format_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# SVG rendering


def render_svg(samples, width: int = 640, height: int = 480) -> bytes:
    """Standalone SVG sketch of labeled point sequences.

    One polyline per sequence, coordinate axes, the two isotropic guide lines
    y = +/-x dashed, and a legend.  Output bytes are deterministic for fixed
    input (no timestamps, fixed palette).
    """
    if not samples:
        raise ValueError("need at least one sequence")
    for label, points in samples:
        if len(points) < 2:
            raise ValueError(f"sequence {label!r} needs at least two points")
    margin = 48.0
    xs = [p[0] for _, pts in samples for p in pts]
    ys = [p[1] for _, pts in samples for p in pts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax - xmin < 1e-9:
        xmin, xmax = xmin - 1.0, xmax + 1.0
    if ymax - ymin < 1e-9:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    sx = (width - 2 * margin) / (xmax - xmin)
    sy = (height - 2 * margin) / (ymax - ymin)

    def to_px(x, y):
        return (margin + (x - xmin) * sx, height - margin - (y - ymin) * sy)

    def fmt_pt(x, y):
        px, py = to_px(x, y)
        return f"{px:.3f},{py:.3f}"

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # axes, clipped to the viewport by the svg element itself
    x0, y0 = to_px(0.0, 0.0)
    out.append(f'<line x1="0" y1="{y0:.3f}" x2="{width}" y2="{y0:.3f}" stroke="#999" stroke-width="1"/>')
    out.append(f'<line x1="{x0:.3f}" y1="0" x2="{x0:.3f}" y2="{height}" stroke="#999" stroke-width="1"/>')
    # isotropic lines y = x and y = -x, dashed
    lo = min(xmin, ymin, -xmax, -ymax)
    hi = max(xmax, ymax, -xmin, -ymin)
    out.append(
        f'<line x1="{to_px(lo, lo)[0]:.3f}" y1="{to_px(lo, lo)[1]:.3f}" '
        f'x2="{to_px(hi, hi)[0]:.3f}" y2="{to_px(hi, hi)[1]:.3f}" '
        f'stroke="#bbb" stroke-width="1" stroke-dasharray="6 4"/>'
    )
    out.append(
        f'<line x1="{to_px(lo, -lo)[0]:.3f}" y1="{to_px(lo, -lo)[1]:.3f}" '
        f'x2="{to_px(hi, -hi)[0]:.3f}" y2="{to_px(hi, -hi)[1]:.3f}" '
        f'stroke="#bbb" stroke-width="1" stroke-dasharray="6 4"/>'
    )
    for i, (label, points) in enumerate(samples):
        color = palette[i % len(palette)]
        pts = " ".join(fmt_pt(x, y) for x, y in points)
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        ly = 20 + 18 * i
        out.append(f'<rect x="12" y="{ly - 9}" width="14" height="4" fill="{color}"/>')
        out.append(f'<text x="32" y="{ly}" font-family="sans-serif" font-size="12">{label}</text>')
    out.append("</svg>")
    return "\n".join(out).encode("utf-8")


# ----------------------------------------------------------------------------
# subcommands


def _parse_point(args) -> HypNumber:
    text = args.point
    if text is None:
        raise ConfigError(f"{args.command} needs --point")
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--point: expected X,Y, got {text!r}")
    try:
        return HypNumber(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"--point: {exc}") from exc


def _times(args) -> list[float]:
    if args.t is not None:
        return [args.t]
    if args.t0 is not None and args.t1 is not None and args.n is not None:
        if args.n < 2:
            raise ConfigError("--n must be at least 2")
        return [args.t0 + (args.t1 - args.t0) * i / (args.n - 1) for i in range(args.n)]
    raise ConfigError("provide --t or all of --t0 --t1 --n")


def _cmd_eval(motion, args):
    x = _parse_point(args)
    rows = []
    for t in _times(args):
        xp = map_point(state(motion, t), x)
        rows.append((t, xp.x, xp.y))
    return ("t", "xpx", "xpy"), rows


def _cmd_decompose(motion, args):
    x = _parse_point(args)
    rows = []
    for t in _times(args):
        d = velocity_decompose(state(motion, t), x, ZERO)
        rows.append((t, d.vr.x, d.vr.y, d.vf.x, d.vf.y, d.va.x, d.va.y))
    return ("t", "vrx", "vry", "vfx", "vfy", "vax", "vay"), rows


def _cmd_pole(motion, args):
    rows = []
    for t in _times(args):
        p = pole_point(state(motion, t))
        rows.append((t, p.x, p.y))
    return ("t", "px", "py"), rows


def _cmd_polecurves(motion, args):
    if args.t0 is None or args.t1 is None or args.n is None:
        raise ConfigError("polecurves needs --t0 --t1 --n")
    if args.n < 2:
        raise ConfigError("--n must be at least 2")
    rows = []
    for s in pole_curves(motion, args.t0, args.t1, args.n):
        ratio = _arc_ratio(s)
        rows.append((s.t, s.p_moving.x, s.p_moving.y, s.p_fixed.x, s.p_fixed.y, ratio))
    return ("t", "pmx", "pmy", "pfx", "pfy", "arc_ratio"), rows


def _arc_ratio(sample):
    from .kinematics import arc_rate_fixed, arc_rate_moving

    return arc_rate_fixed(sample) / arc_rate_moving(sample)


def _cmd_accel(motion, args):
    x = _parse_point(args)
    rows = []
    for t in _times(args):
        d = acceleration_decompose(state(motion, t), x, ZERO, ZERO)
        rows.append(
            (t, d.br.x, d.br.y, d.bc.x, d.bc.y, d.bf.x, d.bf.y, d.ba.x, d.ba.y)
        )
    return ("t", "brx", "bry", "bcx", "bcy", "bfx", "bfy", "bax", "bay"), rows


def _cmd_accelpole(motion, args):
    rows = []
    for t in _times(args):
        q = acceleration_pole(state(motion, t))
        rows.append((t, q.x, q.y))
    return ("t", "qx", "qy"), rows


def _cmd_invariants(motion, args):
    rows = []
    for t in _times(args):
        inv = canonical_invariants(motion, t)
        rows.append(
            (t, inv.sigma_rate, inv.sigma_rate_moving, inv.tau_rate, inv.taup_rate,
             inv.r, inv.rp, inv.dnu_ds)
        )
    return ("t", "sigma", "sigma_m", "tau", "taup", "r", "rp", "dnu_ds"), rows


def _signed_polar_magnitude(z: HypNumber) -> float:
    pf = polar(z)
    if pf.branch in (Branch.HIII, Branch.HIV):
        return -pf.r
    return pf.r


def _cmd_eulersavary(motion, args):
    if args.t is None:
        raise ConfigError("eulersavary needs --t")
    if args.a is None or args.alpha is None:
        raise ConfigError("eulersavary needs --a and --alpha")
    if args.a == 0.0:
        raise ConfigError("--a must be nonzero")
    t = args.t
    inv = canonical_invariants(motion, t)
    st = state(motion, t)
    ray = jmul(exp_j(args.alpha)) * args.a  # a j e^{j alpha} in the canonical frame
    try:
        conj = conjugate_point(
            ConjugateInput(x=ray, h=st.h, sigma=inv.sigma_rate, dnu=inv.sigma_rate * inv.dnu_ds)
        )
    except LightlikeError as exc:
        raise LightlikeError(f"conjugate point at infinity (inflection circle) at t={t:g}") from exc
    ap = _signed_polar_magnitude(conj)
    return ("r", "rp", "dnu_ds", "ap"), [(inv.r, inv.rp, inv.dnu_ds, ap)]


def _cmd_oracle(motion, args):
    x = _parse_point(args)
    rows = []
    for t in _times(args):
        c = curvature_center_oracle(motion, x, t, args.eps)
        rows.append((t, c.x, c.y))
    return ("t", "cx", "cy"), rows


def _cmd_plot(motion, args):
    if args.t0 is None or args.t1 is None or args.n is None:
        raise ConfigError("plot needs --t0 --t1 --n")
    if args.n < 2:
        raise ConfigError("--n must be at least 2")
    samples = pole_curves(motion, args.t0, args.t1, args.n)
    sequences = [
        ("moving pole curve (P)", [(s.p_moving.x, s.p_moving.y) for s in samples]),
        ("fixed pole curve (P')", [(s.p_fixed.x, s.p_fixed.y) for s in samples]),
    ]
    if args.point is not None:
        x = _parse_point(args)
        traj = []
        for i in range(args.n):
            t = args.t0 + (args.t1 - args.t0) * i / (args.n - 1)
            xp = map_point(state(motion, t), x)
            traj.append((xp.x, xp.y))
        sequences.append((f"trajectory of {args.point}", traj))
    return render_svg(sequences)


_COLUMN_DOC = {
    "eval": "t,xpx,xpy: fixed-plane image of --point",
    "decompose": "t,vrx,vry,vfx,vfy,vax,vay: velocity split of --point held fixed on the moving plane",
    "pole": "t,px,py: rotation pole in the moving plane",
    "polecurves": "t,pmx,pmy,pfx,pfy,arc_ratio: both pole curves and the arc-rate ratio ds'/ds",
    "accel": "t,brx,bry,bcx,bcy,bfx,bfy,bax,bay: acceleration split of --point held fixed",
    "accelpole": "t,qx,qy: acceleration pole in the moving plane",
    "invariants": "t,sigma,sigma_m,tau,taup,r,rp,dnu_ds: canonical-frame rates and curvature radii",
    "eulersavary": "r,rp,dnu_ds,ap: curvature radii plus the conjugate distance for --a/--alpha",
    "oracle": "t,cx,cy: normal-intersection curvature center of --point's trajectory",
}

_HANDLERS = {
    "eval": _cmd_eval,
    "decompose": _cmd_decompose,
    "pole": _cmd_pole,
    "polecurves": _cmd_polecurves,
    "accel": _cmd_accel,
    "accelpole": _cmd_accelpole,
    "invariants": _cmd_invariants,
    "eulersavary": _cmd_eulersavary,
    "oracle": _cmd_oracle,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypkin",
        description="Kinematics of homothetic motions of the hyperbolic plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*_HANDLERS, "plot"]:
        p = sub.add_parser(name, help=_COLUMN_DOC.get(name, "SVG sketch of the pole curves"))
        p.add_argument("--config", required=True, help="motion config JSON path")
        p.add_argument("--t", type=float, default=None, help="single evaluation time")
        p.add_argument("--t0", type=float, default=None, help="grid start")
        p.add_argument("--t1", type=float, default=None, help="grid end")
        p.add_argument("--n", type=int, default=None, help="grid size")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--point", default=None, help="moving-plane point X,Y")
        p.add_argument("--a", type=float, default=None, help="pole distance of the moving point")
        p.add_argument("--alpha", type=float, default=None, help="pole-ray angle")
        p.add_argument("--eps", type=float, default=1e-4, help="oracle step (default 1e-4)")
        if name in _COLUMN_DOC:
            p.description = "CSV columns: " + _COLUMN_DOC[name]
    return parser


def _load(args):
    try:
        with open(args.config, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    cfg = parse_config(raw)
    motion = motion_from_config(cfg)
    digest = hashlib.sha256(raw).hexdigest()
    return motion, digest


def _write_text(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_bytes(args, blob: bytes) -> None:
    if args.out is None:
        sys.stdout.write(blob.decode("utf-8"))
    else:
        with open(args.out, "wb") as fh:
            fh.write(blob)


def run(argv) -> RunReport:
    """Parse, dispatch and write output; returns the report for the caller."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    motion, digest = _load(args)
    warnings = []
    if not motion.is_homothetic():
        warnings.append("homothetic: false (constant scale h)")
    echo = "hypkin " + " ".join(argv)
    if args.command == "plot":
        blob = _cmd_plot(motion, args)
        _write_bytes(args, blob)
        report = RunReport(echo, digest, (), (), tuple(warnings))
    else:
        header, rows = _HANDLERS[args.command](motion, args)
        _write_text(args, format_csv(header, rows))
        report = RunReport(echo, digest, tuple(header), tuple(tuple(r) for r in rows), tuple(warnings))
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return report


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        run(argv)
    except SystemExit as exc:  # argparse usage errors / --help
        return int(exc.code or 0)
    except (ConfigError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MATH_ERRORS as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
