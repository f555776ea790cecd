"""The three workloads as passes of timed ops, each op with its output check.

An op is the unit that is timed and counted.  Every call into hypkin goes
through a module attribute (kin.state, not a bound name) so that the tracer
in trace.py sees it once it has rebound the attribute.

An op's expected outcome comes from what its input was generated to be,
never from the library under test: the sweeps' inputs stay off the isotropic
cone, so any exception there fails the op; on cli-configs only the malformed
config may end in exit 2 and only the degenerate one in exit 3.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr
from functools import partial

from hypkin import HypNumber, ZERO, exp_j, jmul, polar
from hypkin import cli as cli_mod
from hypkin import eulersavary as es
from hypkin import kinematics as kin
from hypkin.hypernum import Branch
from hypkin.paths import BasisTerm, HypPath, ScalarPath, TermKind

from . import gen
from .checks import check_cli, check_first_order, check_second_order, m1_rows, second_order_point, tup
from .exact import Instant, M1Instant

ORACLE_EPS = 1e-4


class Op:
    """run() is timed; check(result, exc) classifies the outcome afterwards
    as "ok", "refused" or "failed" and returns (status, Verdict or None)."""

    __slots__ = ("run", "check", "m1")

    def __init__(self, run, check, m1: bool):
        self.run, self.check, self.m1 = run, check, m1


class Workload:
    """A workload's ops, pass by pass: all passes have the same number of ops.

    build(p) makes the ops of pass p.  The sweeps return one list for every
    pass; cli-configs builds each pass from fresh configs, which calls the
    library for the expected rows, so prepare() builds the next pass ahead of
    time, where it can be done outside a traced stretch.
    """

    def __init__(self, build):
        self._build = build
        self.passes = 1
        self.ops = self._next = build(0)
        self.size = len(self.ops)

    def prepare(self) -> None:
        if self._next is None:
            self._next = self._build(self.passes)
            self.passes += 1

    def next_pass(self) -> list[Op]:
        self.prepare()
        self.ops, self._next = self._next, None
        return self.ops


class CliStats:
    """Bytes the calls wrote to --out, read back by the checks."""

    def __init__(self):
        self.bytes_out = 0


def build_motion(cfg) -> kin.HomotheticMotion:
    def path(terms):
        return ScalarPath(tuple(BasisTerm(TermKind(t["kind"]), t["coeff"], t["param"]) for t in terms))

    return kin.HomotheticMotion(
        h=path(cfg["h"]),
        phi=path(cfg["phi"]),
        u=HypPath(path(cfg["u_x"]), path(cfg["u_y"])),
        interval=tuple(cfg["interval"]),
    )


def _library_check(checker, ref, op, result, exc):
    if exc is not None:  # no sweep input is meant to be refused
        return "failed", None
    verdict = checker(result, ref, op)
    return ("ok" if verdict.ok else "failed"), verdict


def _sweep(inputs, make_run, checker) -> list[Op]:
    motions = [build_motion(cfg) for cfg in inputs["motions"]]
    ops = []
    for o in inputs["ops"]:
        k, t = o["motion"], o["t"]
        ref = M1Instant(t) if k == 0 else Instant(inputs["motions"][k], t)
        ops.append(Op(make_run(motions[k], t, o, ref), partial(_library_check, checker, ref, o), k == 0))
    return ops


def _first_order_run(m, t, o, ref):
    points = [(HypNumber(*x), HypNumber(*xd)) for x, xd in o["points"]]
    x0 = points[0][0]

    def run():
        st = kin.state(m, t)
        images = [(kin.map_point(st, x), kin.velocity_decompose(st, x, xd)) for x, xd in points]
        return images, kin.pole_point(st), kin.sliding_velocity_pole_form(st, x0)

    return run


# The second-order quantities, each with the state() call it needs; the
# tracer counts state() evaluations per entry on M1.
SECOND_ORDER = (
    ("pole_sample", lambda m, t, x, xd, xdd: kin.pole_sample(m, t)),
    ("acceleration_decompose", lambda m, t, x, xd, xdd: kin.acceleration_decompose(kin.state(m, t), x, xd, xdd)),
    ("acceleration_pole", lambda m, t, x, xd, xdd: kin.acceleration_pole(kin.state(m, t))),
    ("canonical_invariants", lambda m, t, x, xd, xdd: es.canonical_invariants(m, t)),
    ("predicted_curvature_center", lambda m, t, x, xd, xdd: es.predicted_curvature_center(m, t, x)),
    ("curvature_center_oracle", lambda m, t, x, xd, xdd: es.curvature_center_oracle(m, x, t, ORACLE_EPS)),
)


def _second_order_run(m, t, o, ref):
    x = HypNumber(*second_order_point(ref, o))
    xd, xdd = HypNumber(*o["xd"]), HypNumber(*o["xdd"])

    def run():
        return tuple(f(m, t, x, xd, xdd) for _, f in SECOND_ORDER)

    return run


def sweep_first_order(seed: int, tmp: str, stats: CliStats) -> Workload:
    ops = _sweep(gen.sweep_inputs(seed), _first_order_run, check_first_order)
    return Workload(lambda p: ops)


def sweep_second_order(seed: int, tmp: str, stats: CliStats) -> Workload:
    ops = _sweep(gen.sweep_inputs(seed), _second_order_run, check_second_order)
    return Workload(lambda p: ops)


# ---------------------------------------------------------------------------
# cli-configs

HEADERS = {
    "eval": ("t", "xpx", "xpy"),
    "decompose": ("t", "vrx", "vry", "vfx", "vfy", "vax", "vay"),
    "pole": ("t", "px", "py"),
    "polecurves": ("t", "pmx", "pmy", "pfx", "pfy", "arc_ratio"),
    "accel": ("t", "brx", "bry", "bcx", "bcy", "bfx", "bfy", "bax", "bay"),
    "accelpole": ("t", "qx", "qy"),
    "invariants": ("t", "sigma", "sigma_m", "tau", "taup", "r", "rp", "dnu_ds"),
    "eulersavary": ("r", "rp", "dnu_ds", "ap"),
    "oracle": ("t", "cx", "cy"),
}


def _times(args) -> list[float]:
    if "--t" in args:
        return [args["--t"]]
    t0, t1, n = args["--t0"], args["--t1"], args["--n"]
    return [t0 + (t1 - t0) * i / (n - 1) for i in range(n)]


def _point(args):
    return tuple(float(c) for c in args["--point"].split(","))


def _library_row(sub, m, t, x):
    if sub == "eval":
        return tup(kin.map_point(kin.state(m, t), x))
    if sub == "decompose":
        d = kin.velocity_decompose(kin.state(m, t), x, ZERO)
        return (*tup(d.vr), *tup(d.vf), *tup(d.va))
    if sub == "pole":
        return tup(kin.pole_point(kin.state(m, t)))
    if sub == "accel":
        d = kin.acceleration_decompose(kin.state(m, t), x, ZERO, ZERO)
        return (*tup(d.br), *tup(d.bc), *tup(d.bf), *tup(d.ba))
    if sub == "accelpole":
        return tup(kin.acceleration_pole(kin.state(m, t)))
    if sub == "invariants":
        inv = es.canonical_invariants(m, t)
        return (inv.sigma_rate, inv.sigma_rate_moving, inv.tau_rate, inv.taup_rate, inv.r, inv.rp, inv.dnu_ds)
    return tup(es.curvature_center_oracle(m, x, t, ORACLE_EPS))


def _library_expectation(call, text: bytes):
    """What the CLI must write for a call, from the library called directly."""
    sub, args = call["sub"], call["args"]
    m = cli_mod.motion_from_config(cli_mod.parse_config(text))
    x = HypNumber(*_point(args)) if "--point" in args else None
    if sub == "plot":
        kin.pole_curves(m, args["--t0"], args["--t1"], args["--n"])
        if x is not None:
            for t in _times(args):
                kin.map_point(kin.state(m, t), x)
        return ("svg", 3 if x is not None else 2, args["--n"])
    if sub == "polecurves":
        rows = [
            (s.t, *tup(s.p_moving), *tup(s.p_fixed), kin.arc_rate_fixed(s) / kin.arc_rate_moving(s))
            for s in kin.pole_curves(m, args["--t0"], args["--t1"], args["--n"])
        ]
    elif sub == "eulersavary":
        t = args["--t"]
        inv = es.canonical_invariants(m, t)
        ray = jmul(exp_j(args["--alpha"])) * args["--a"]
        sigma = inv.sigma_rate
        conj = es.conjugate_point(es.ConjugateInput(x=ray, h=kin.state(m, t).h, sigma=sigma, dnu=sigma * inv.dnu_ds))
        pf = polar(conj)
        ap = -pf.r if pf.branch in (Branch.HIII, Branch.HIV) else pf.r
        rows = [(inv.r, inv.rp, inv.dnu_ds, ap)]
    else:
        rows = [(t, *_library_row(sub, m, t, x)) for t in _times(args)]
    return ("csv", HEADERS[sub], rows)


def expected_outcome(kind: str, call, text: bytes):
    """The outcome a call must have, from the kind of config it was
    generated as: a malformed config exits 2, a degenerate one exits 3
    (except oracle, whose normals at t* +- eps are defined), and every other
    call writes the library's rows.  A call that the library itself cannot
    evaluate gets ("fail", why): it counts as failed whatever the CLI does.
    """
    if kind == "malformed":
        return ("exit", 2)
    if kind == "degenerate" and call["sub"] != "oracle":
        return ("exit", 3)
    try:
        return _library_expectation(call, text)
    except Exception as e:  # counted in failed_frac, never filtered out
        return ("fail", f"library raised {e!r} on a {kind} config")


def _m1_expectation(call):
    args = call["args"]
    x = _point(args) if "--point" in args else None
    return m1_rows(call["sub"], _times(args), x, args.get("--a"), args.get("--alpha"))


def _cli_check(expected, m1_expected, out_path, buf, stats, result, exc):
    err = buf.getvalue()
    buf.seek(0)
    buf.truncate()
    blob = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            blob = fh.read()
        os.remove(out_path)
        stats.bytes_out += len(blob)
    if exc is not None:  # anything escaping main() is a crash, never a refusal
        return "failed", None
    verdict = check_cli((result, err, blob), expected, m1_expected)
    if not verdict.ok:
        return "failed", verdict
    return ("refused" if expected[0] == "exit" else "ok"), verdict


def _cli_pass(seed: int, tmp: str, stats: CliStats, buf: io.StringIO, pass_index: int) -> list[Op]:
    """The ops of one pass, on config files written for that pass alone."""
    inputs = gen.cli_inputs(seed, pass_index)
    for name in os.listdir(tmp):
        if name.startswith("config"):
            os.remove(os.path.join(tmp, name))
    paths = []
    for k, c in enumerate(inputs["configs"]):
        path = os.path.join(tmp, f"config{pass_index}-{k}.json")
        with open(path, "wb") as fh:
            fh.write(c["text"])
        paths.append(path)
    ops = []
    for call in inputs["calls"]:
        c = inputs["configs"][call["config"]]
        out_path = os.path.join(tmp, "out.svg" if call["sub"] == "plot" else "out.csv")
        argv = gen.argv(call, paths[call["config"]], out_path)
        expected = expected_outcome(c["kind"], call, c["text"])
        m1 = c["kind"] == "m1"
        m1_expected = _m1_expectation(call) if m1 else None

        def run(argv=argv):
            with redirect_stderr(buf):
                return cli_mod.main(argv)

        ops.append(Op(run, partial(_cli_check, expected, m1_expected, out_path, buf, stats), m1))
    return ops


def cli_configs(seed: int, tmp: str, stats: CliStats) -> Workload:
    return Workload(partial(_cli_pass, seed, tmp, stats, io.StringIO()))


WORKLOADS = {
    "sweep-first-order": sweep_first_order,
    "sweep-second-order": sweep_second_order,
    "cli-configs": cli_configs,
}
