"""Command-line front end.

Motions are described by a small JSON config (basis terms for h, phi and the
two components of u, plus a time interval).  Each CSV subcommand is one entry
of a table: its columns, the instants it takes, whether it needs --point, and
a function that computes one row at one instant; one loop evaluates it at
every instant.  `plot` reuses that loop for an SVG sketch of the pole curves,
and `hypkin --help` lists every subcommand's columns from the same table.

Exit codes: 0 success, 2 config or usage error, 3 mathematical degeneracy
(lightlike denominator, vanishing angular velocity, stationary pole,
parallel normals, conjugate point at infinity, floating-point overflow),
with the offending instant named on stderr.  Instants outside the config
interval are evaluated, with one warning on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .eulersavary import (
    ConjugateInput,
    _invariants,
    canonical_invariants,
    conjugate_point,
    curvature_center_oracle,
)
from .hypernum import Branch, HypNumber, LightlikeError, ZERO, _fmt, exp_j, jmul, polar
from .kinematics import (
    DegenerateError,
    HomotheticMotion,
    _uniform_grid,
    acceleration_decompose,
    acceleration_pole,
    arc_rate_fixed,
    arc_rate_moving,
    map_point,
    pole_point,
    pole_sample,
    state,
    velocity_decompose,
)
from .paths import BasisTerm, HypPath, ScalarPath, TermKind

_KINDS = {k.value: k for k in TermKind}
_PATHS = ("h", "phi", "u_x", "u_y")  # the term-list fields of a config
WIDTH, HEIGHT = 640, 480  # pixel size of the SVG that render_svg writes


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
    unknown = set(raw) - {*_PATHS, "interval"}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}")
    for key in (*_PATHS, "interval"):
        if key not in raw:
            raise ConfigError(f"missing '{key}'")
    interval = raw["interval"]
    if not isinstance(interval, list) or len(interval) != 2:
        raise ConfigError("interval: expected [t0, t1]")
    t0 = _require_number(interval[0], "interval[0]")
    t1 = _require_number(interval[1], "interval[1]")
    if not t0 < t1:
        raise ConfigError("interval: t0 must be below t1")
    return MotionConfig(**{key: _parse_terms(raw[key], key) for key in _PATHS}, interval=(t0, t1))


def serialize_config(cfg: MotionConfig) -> bytes:
    """Inverse of parse_config: parse_config(serialize_config(cfg)) == cfg."""
    raw = {
        key: [{"kind": t.kind.value, "coeff": t.coeff, "param": t.param} for t in getattr(cfg, key)]
        for key in _PATHS
    }
    return json.dumps({**raw, "interval": list(cfg.interval)}).encode("utf-8")


def motion_from_config(cfg: MotionConfig) -> HomotheticMotion:
    """Build the motion and run validate(): phi' is sampled at 101 instants of
    the interval, and a vanishing or overflowing phi' is a ValidationError."""
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
    except OverflowError as exc:
        raise ValidationError(f"phi overflows on the interval {list(cfg.interval)}") from exc
    return motion


def format_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# SVG rendering


def render_svg(samples) -> bytes:
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
    sx = (WIDTH - 2 * margin) / (xmax - xmin)
    sy = (HEIGHT - 2 * margin) / (ymax - ymin)

    def to_px(x, y):
        return (margin + (x - xmin) * sx, HEIGHT - margin - (y - ymin) * sy)

    def fmt_pt(x, y):
        px, py = to_px(x, y)
        return f"{px:.3f},{py:.3f}"

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # axes, clipped to the viewport by the svg element itself
    x0, y0 = to_px(0.0, 0.0)
    out.append(f'<line x1="0" y1="{y0:.3f}" x2="{WIDTH}" y2="{y0:.3f}" stroke="#999" stroke-width="1"/>')
    out.append(f'<line x1="{x0:.3f}" y1="0" x2="{x0:.3f}" y2="{HEIGHT}" stroke="#999" stroke-width="1"/>')
    # isotropic lines y = x and y = -x, dashed
    lo = min(xmin, ymin, -xmax, -ymax)
    hi = max(xmax, ymax, -xmin, -ymin)
    for s in (1.0, -1.0):
        (ax, ay), (bx, by) = to_px(lo, s * lo), to_px(hi, s * hi)
        out.append(
            f'<line x1="{ax:.3f}" y1="{ay:.3f}" x2="{bx:.3f}" y2="{by:.3f}" '
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
# subcommands: one table, one loop over instants


def _xy(*zs: HypNumber) -> tuple[float, ...]:
    return tuple(c for z in zs for c in (z.x, z.y))


def _decompose_row(motion, t, x, args):
    d = velocity_decompose(state(motion, t), x, ZERO)
    return (t, *_xy(d.vr, d.vf, d.va))


def _polecurves_row(motion, t, x, args):
    s = pole_sample(motion, t)
    return (t, *_xy(s.p_moving, s.p_fixed), arc_rate_fixed(s) / arc_rate_moving(s))


def _accel_row(motion, t, x, args):
    d = acceleration_decompose(state(motion, t), x, ZERO, ZERO)
    return (t, *_xy(d.br, d.bc, d.bf, d.ba))


def _invariants_row(motion, t, x, args):
    i = canonical_invariants(motion, t)
    return (t, i.sigma_rate, i.sigma_rate_moving, i.tau_rate, i.taup_rate, i.r, i.rp, i.dnu_ds)


def _eulersavary_row(motion, t, ray, args):
    st = state(motion, t)
    inv = _invariants(st)[0]
    sigma = inv.sigma_rate
    try:
        conj = conjugate_point(ConjugateInput(x=ray, h=st.h, sigma=sigma, dnu=sigma * inv.dnu_ds))
    except LightlikeError as exc:
        raise LightlikeError(f"conjugate point at infinity (inflection circle) at t={t:g}") from exc
    try:
        pf = polar(conj)
    except LightlikeError as exc:
        raise LightlikeError(f"{exc} at t={t:g}") from exc
    ap = -pf.r if pf.branch in (Branch.HIII, Branch.HIV) else pf.r  # left/lower branch: negative
    return (inv.r, inv.rp, inv.dnu_ds, ap)


class _Command(NamedTuple):
    columns: str  # the CSV header line
    times: str  # instants taken: "any" (--t or a grid), "grid" or "t"
    x: Callable | None  # args -> the rows' x, read and checked before any row
    row: Callable  # (motion, t, x, args) -> one CSV row
    help: str


def _parse_point(args) -> HypNumber:
    if args.point is None:
        raise ConfigError(f"{args.command} needs --point")
    try:
        x, y = (float(c) for c in args.point.split(","))
        return HypNumber(x, y)
    except ValueError as exc:
        raise ConfigError(f"--point: expected X,Y, got {args.point!r}") from exc


def _oracle_point(args) -> HypNumber:
    x = _parse_point(args)
    if not 0.0 < args.eps < math.inf:
        raise ConfigError(f"--eps must be positive and finite, got {args.eps:g}")
    return x


def _ray(args) -> HypNumber:
    """The moving point of eulersavary, a j e^{j alpha} in the canonical frame."""
    if args.a is None or args.alpha is None:
        raise ConfigError("eulersavary needs --a and --alpha")
    if args.a == 0.0:
        raise ConfigError("--a must be nonzero")
    try:
        ray = jmul(exp_j(args.alpha)) * args.a
    except (OverflowError, ValueError) as exc:
        raise ConfigError(f"--alpha {args.alpha:g} (--a {args.a:g}): the ray is not finite") from exc
    if abs(ray.x) == abs(ray.y):  # cosh alpha == sinh alpha in floats once |alpha| > ~18.7
        raise ConfigError(f"--alpha {args.alpha:g} (--a {args.a:g}): the ray is isotropic")
    return ray


_COMMANDS = {
    "eval": _Command(
        "t,xpx,xpy", "any", _parse_point, lambda m, t, x, args: (t, *_xy(map_point(state(m, t), x))),
        "fixed-plane image of --point"),
    "decompose": _Command(
        "t,vrx,vry,vfx,vfy,vax,vay", "any", _parse_point, _decompose_row,
        "velocity split of --point held fixed on the moving plane"),
    "pole": _Command(
        "t,px,py", "any", None, lambda m, t, x, args: (t, *_xy(pole_point(state(m, t)))),
        "rotation pole in the moving plane"),
    "polecurves": _Command(
        "t,pmx,pmy,pfx,pfy,arc_ratio", "grid", None, _polecurves_row,
        "both pole curves and the arc-rate ratio ds'/ds"),
    "accel": _Command(
        "t,brx,bry,bcx,bcy,bfx,bfy,bax,bay", "any", _parse_point, _accel_row,
        "acceleration split of --point held fixed"),
    "accelpole": _Command(
        "t,qx,qy", "any", None, lambda m, t, x, args: (t, *_xy(acceleration_pole(state(m, t)))),
        "acceleration pole in the moving plane"),
    "invariants": _Command(
        "t,sigma,sigma_m,tau,taup,r,rp,dnu_ds", "any", None, _invariants_row,
        "canonical-frame rates and curvature radii"),
    "eulersavary": _Command(
        "r,rp,dnu_ds,ap", "t", _ray, _eulersavary_row,
        "curvature radii plus the conjugate distance for --a/--alpha"),
    "oracle": _Command(
        "t,cx,cy", "any", _oracle_point,
        lambda m, t, x, args: (t, *_xy(curvature_center_oracle(m, x, t, args.eps))),
        "normal-intersection curvature center of --point's trajectory"),
}

_ONLY = {"any": "", "grid": " (grid only)", "t": " (--t only)"}


def _times(args, mode: str) -> list[float]:
    """The instants of a call: --t, or the uniform --t0 --t1 --n grid.  Mode
    "t" or "grid" accepts only that kind; "any" takes either, --t first."""
    if args.t is not None and mode != "grid":
        return [args.t]
    if None not in (args.t0, args.t1, args.n) and mode != "t":
        if args.n < 2:
            raise ConfigError("--n must be at least 2")
        return _uniform_grid(args.t0, args.t1, args.n)
    if mode == "any":
        raise ConfigError("provide --t or all of --t0 --t1 --n")
    raise ConfigError(f"{args.command} needs " + ("--t" if mode == "t" else "--t0 --t1 --n"))


def _rows(row, motion, times, x, args) -> list:
    """row(motion, t, x, args) at every finite instant.  The arguments are
    checked before the first row, so an overflow, a division by zero or a
    non-finite result (ValueError) in a row is a degeneracy of its instant."""
    rows = []
    for t in times:
        if not math.isfinite(t):
            raise ConfigError(f"instant t={t} is not finite")
        try:
            rows.append(row(motion, t, x, args))
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            raise ArithmeticError(f"{exc} at t={t:g}") from exc
    return rows


def _plot(motion, times, args) -> bytes:
    samples = _rows(lambda m, t, x, a: pole_sample(m, t), motion, times, None, args)
    sequences = [
        ("moving pole curve (P)", [(s.p_moving.x, s.p_moving.y) for s in samples]),
        ("fixed pole curve (P')", [(s.p_fixed.x, s.p_fixed.y) for s in samples]),
    ]
    if args.point is not None:
        trajectory = _rows(_COMMANDS["eval"].row, motion, times, _parse_point(args), args)
        sequences.append((f"trajectory of {args.point}", [row[1:] for row in trajectory]))
    return render_svg(sequences)


def _build_parser() -> argparse.ArgumentParser:
    listing = [f"{n:<13}{c.columns}: {c.help}{_ONLY[c.times]}" for n, c in _COMMANDS.items()]
    listing.append(f"{'plot':<13}SVG of the pole curves and of --point's trajectory (grid only)")
    parser = argparse.ArgumentParser(
        prog="hypkin",
        description="Kinematics of homothetic motions of the hyperbolic plane.",
        epilog="commands and their CSV columns:\n  " + "\n  ".join(listing),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=[*_COMMANDS, "plot"], metavar="command", help="see below"
    )
    parser.add_argument("--config", required=True, help="motion config JSON path")
    parser.add_argument("--t", type=float, default=None, help="single evaluation time")
    parser.add_argument("--t0", type=float, default=None, help="grid start")
    parser.add_argument("--t1", type=float, default=None, help="grid end")
    parser.add_argument("--n", type=int, default=None, help="grid size")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--point", default=None, help="moving-plane point X,Y")
    parser.add_argument("--a", type=float, default=None, help="pole distance of the moving point")
    parser.add_argument("--alpha", type=float, default=None, help="pole-ray angle")
    parser.add_argument("--eps", type=float, default=1e-4, help="oracle step (default 1e-4)")
    return parser


_PARSER = _build_parser()


def _load(args) -> tuple[HomotheticMotion, str, list[str]]:
    """The motion, the digest of the config bytes and the config's warnings."""
    try:
        with open(args.config, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    motion = motion_from_config(parse_config(raw))
    try:
        homothetic = motion.is_homothetic()
    except OverflowError as exc:
        raise ValidationError(f"h overflows on the interval {list(motion.interval)}") from exc
    warnings = [] if homothetic else ["homothetic: false (constant scale h)"]
    return motion, hashlib.sha256(raw).hexdigest(), warnings


def _outside(motion, times) -> list[str]:
    t0, t1 = motion.interval
    out = [t for t in times if not t0 <= t <= t1]
    more = f" and {len(out) - 1} more" if len(out) > 1 else ""
    return [f"t={out[0]:g}{more} outside the config interval [{t0:g}, {t1:g}]"] if out else []


def _write(args, blob: bytes) -> None:
    if args.out is None:
        sys.stdout.write(blob.decode("utf-8"))
    else:
        with open(args.out, "wb") as fh:
            fh.write(blob)


def run(argv) -> RunReport:
    """Parse, evaluate and write output; returns the report for the caller."""
    args = _PARSER.parse_args(argv)
    motion, digest, warnings = _load(args)
    if args.command == "plot":
        times = _times(args, "grid")
        header, rows = (), []
        blob = _plot(motion, times, args)
    else:
        cmd = _COMMANDS[args.command]
        x = cmd.x(args) if cmd.x else None
        times = _times(args, cmd.times)
        header = tuple(cmd.columns.split(","))
        rows = _rows(cmd.row, motion, times, x, args)
        blob = format_csv(header, rows).encode("utf-8")
    _write(args, blob)
    warnings += _outside(motion, times)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return RunReport("hypkin " + " ".join(argv), digest, header, tuple(rows), tuple(warnings))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        run(argv)
    except SystemExit as exc:  # argparse usage errors / --help
        return int(exc.code or 0)
    except ValueError as exc:  # ConfigError and ValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # LightlikeError, DegenerateError and the other degeneracies
        print(f"degenerate: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
