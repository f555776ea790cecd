"""Seeded inputs: motions, instants, points and CLI configs.

Everything here is plain data (config dicts and floats) and nothing imports
hypkin, so the same seed always gives byte-identical inputs and input
generation stays out of the set-up timing.  The parameter ranges are listed
in perfbench/NOTES.md; keep the two in step.
"""

from __future__ import annotations

import itertools
import json
import random

from .exact import M1_CONFIG, deriv_bound

KINDS = ("poly", "cosh", "sinh", "exp")
SUBCOMMANDS = (
    "eval", "decompose", "pole", "polecurves", "accel",
    "accelpole", "invariants", "eulersavary", "oracle", "plot",
)
# these need a grid and eulersavary needs --t; the rest take either
GRID_ONLY = ("polecurves", "plot")
POINT_SUBS = ("eval", "decompose", "accel", "oracle")

MOTIONS = 48  # generated motions per seed for the sweeps, plus M1
INSTANTS = 4  # instants per motion
POINTS = 8  # moving points per first-order op
M1_TIMES = (-0.8, -0.3, 0.2, 0.7)
# M1's second-order points sit on its pole normal, off the inflection circle a = 2
M1_POLE_DISTANCES = (-1.0, -0.5, 0.5, 1.0)

# cli-configs: 11 configs per pass; each pass draws fresh values, so no
# generated config repeats within a run
VALID_CONFIGS = 8  # generated valid configs, plus M1
DEGENERATE_CONFIGS = 1
MALFORMED_CONFIGS = 1


def _sign(rng) -> float:
    return rng.choice((-1.0, 1.0))


def _term(rng, kind: str, lo: float, hi: float) -> dict:
    param = float(rng.randint(0, 3)) if kind == "poly" else rng.uniform(0.3, 1.5) * _sign(rng)
    return {"kind": kind, "coeff": rng.uniform(lo, hi) * _sign(rng), "param": param}


def _extras(rng, kinds, count: int, t0: float, t1: float, limits: dict[int, float]) -> list[dict]:
    """count extra terms, scaled together until sum max|f^(n)| <= limits[n] on [t0, t1]."""
    terms = [_term(rng, next(kinds), 0.2, 1.0) for _ in range(count)]
    scale = 1.0
    for n, limit in limits.items():
        bound = sum(deriv_bound(term, t0, t1, n) for term in terms)
        if bound > limit:
            scale = min(scale, limit / bound)
    for term in terms:
        term["coeff"] *= scale
    return terms


def motion_config(rng, k: int) -> dict:
    """Motion number k, with 1-3 terms per component.

    The term counts and kinds cycle with k, so that every seed has the same
    mix of cheap and costly paths; the values are drawn from rng.

    phi = w t + extras with |phi' - w| <= 0.3|w| and |phi''| <= 0.1 w^2;
    h = c0 + extras with |h - c0| <= 0.2 c0, |h'| <= 0.05 c0|w| and
    |h''| <= 0.05 c0 w^2.  Together these keep both pole denominators,
    h' + j h phi' and h'' + h phi'^2 + j(2 h' phi' + h phi''), off the
    isotropic cone over the whole interval.
    """
    t0, t1 = rng.uniform(-1.5, -0.5), rng.uniform(0.5, 1.5)
    w = rng.uniform(0.5, 2.0) * _sign(rng)
    c0 = rng.uniform(0.5, 2.0)
    phi = [{"kind": "poly", "coeff": w, "param": 1.0}]
    kinds = itertools.cycle(KINDS[k % 4:] + KINDS[: k % 4])
    phi += _extras(rng, kinds, k // 3 % 3, t0, t1, {1: 0.3 * abs(w), 2: 0.1 * w * w})
    h = [{"kind": "poly", "coeff": c0, "param": 0.0}]
    h += _extras(rng, kinds, k % 3, t0, t1, {0: 0.2 * c0, 1: 0.05 * c0 * abs(w), 2: 0.05 * c0 * w * w})
    u_x = [_term(rng, next(kinds), 0.2, 2.0) for _ in range(1 + (k + 1) % 3)]
    u_y = [_term(rng, next(kinds), 0.2, 2.0) for _ in range(1 + k // 9 % 3)]
    return {"h": h, "phi": phi, "u_x": u_x, "u_y": u_y, "interval": [t0, t1]}


def _instant(rng, cfg) -> float:
    t0, t1 = cfg["interval"]
    margin = 0.05 * (t1 - t0)
    return rng.uniform(t0 + margin, t1 - margin)


def _point(rng, lo: float = -3.0, hi: float = 3.0) -> tuple[float, float]:
    return (rng.uniform(lo, hi), rng.uniform(lo, hi))


def sweep_inputs(seed: int) -> dict:
    """Motions and per-op inputs shared by both sweeps.

    Each op is one (motion, instant): 8 moving points (x, x') for the
    first-order sweep and one point (x, x', x'') for the second-order sweep.
    M1 comes first, at fixed instants, with its second-order points on the
    pole normal where the Euler-Savary prediction has a closed form.
    """
    rng = random.Random(f"hypkin-sweep:{seed}")
    motions = [M1_CONFIG] + [motion_config(rng, k) for k in range(MOTIONS)]
    ops = []
    for k, cfg in enumerate(motions):
        # M1's inputs do not depend on the seed, so err_digits repeats exactly
        r = random.Random("hypkin-m1") if k == 0 else rng
        times = M1_TIMES if k == 0 else [_instant(r, cfg) for _ in range(INSTANTS)]
        for i, t in enumerate(times):
            ops.append(
                {
                    "motion": k,
                    "t": t,
                    "points": [(_point(r), _point(r, -1.0, 1.0)) for _ in range(POINTS)],
                    "point": None if k else M1_POLE_DISTANCES[i],
                    "x": _point(r),
                    "xd": _point(r, -1.0, 1.0),
                    "xdd": _point(r, -1.0, 1.0),
                }
            )
    return {"motions": motions, "ops": ops}


# ---------------------------------------------------------------------------
# CLI configs


def degenerate_config(rng, k: int) -> tuple[dict, float]:
    """A motion shaped like motion_config(rng, k) whose phi' vanishes at one
    instant t* between the 101 points that validate() samples, so it loads
    and then fails at t*."""
    ts = rng.uniform(0.2, 0.5) * _sign(rng)
    w = rng.uniform(0.5, 2.0) * _sign(rng)
    c = -w / (2.0 * ts)  # phi' = w + 2 c t vanishes at t*
    length = rng.uniform(1.5, 2.5)
    t0 = ts - (rng.randint(20, 79) + 0.5) * length / 100.0
    cfg = motion_config(rng, k)
    cfg["phi"] = [{"kind": "poly", "coeff": w, "param": 1.0}, {"kind": "poly", "coeff": c, "param": 2.0}]
    cfg["interval"] = [t0, t0 + length]
    return cfg, ts


DEFECTS = (
    "unknown kind", "missing coeff", "string coeff", "reversed interval",
    "fractional poly power", "unknown key", "one-element interval", "truncated JSON",
)


def _malform(cfg: dict, defect: str, component: str) -> bytes:
    """One of DEFECTS, each of which parse_config must refuse."""
    cfg = json.loads(json.dumps(cfg))
    term = cfg[component][0]
    if defect == "unknown kind":
        term["kind"] = "tanh"
    elif defect == "missing coeff":
        del term["coeff"]
    elif defect == "string coeff":
        term["coeff"] = str(term["coeff"])
    elif defect == "reversed interval":
        cfg["interval"] = cfg["interval"][::-1]
    elif defect == "fractional poly power":
        cfg["h"] = [{"kind": "poly", "coeff": 1.0, "param": 1.5}]
    elif defect == "unknown key":
        cfg["omega"] = 1.0
    elif defect == "one-element interval":
        cfg["interval"] = cfg["interval"][:1]
    else:
        return json.dumps(cfg).encode()[:-7]  # truncated JSON
    return json.dumps(cfg).encode()


def _fmt(v) -> str:
    return str(v) if isinstance(v, int) else repr(float(v))


def _cli_args(rng, sub: str, cfg: dict, kind: str, ts: float | None, slot: int) -> dict:
    """Evaluation arguments of one CLI call, as a dict of flag -> value.

    slot = config index // 2 + subcommand index fixes the call's shape
    (single instant or grid, grid size, plot with or without a point), so
    every seed and every pass makes the same number of evaluations of each
    kind.
    """
    t0, t1 = cfg["interval"]
    length = t1 - t0
    args = {}
    grid = sub in GRID_ONLY or (sub != "eulersavary" and slot % 2 == 0)
    if kind == "degenerate":
        if grid:
            args.update({"--t0": ts, "--t1": ts + 0.1 * length, "--n": 3})
        else:
            args["--t"] = ts
    elif grid:
        a = rng.uniform(t0 + 0.05 * length, t0 + 0.5 * length)
        args.update({"--t0": a, "--t1": a + rng.uniform(0.1, 0.4) * length, "--n": 2 + slot % 2})
    else:
        args["--t"] = rng.uniform(t0 + 0.05 * length, t1 - 0.05 * length)
    if sub in POINT_SUBS or (sub == "plot" and slot % 4 < 2):
        args["--point"] = "%r,%r" % _point(rng)
    if sub == "eulersavary":
        args["--a"] = rng.uniform(0.5, 2.0) * _sign(rng)
        args["--alpha"] = rng.uniform(-1.0, 1.0)
    return args


# M1's CLI calls are fixed, so err_digits on cli-configs repeats exactly
M1_CLI_ARGS = {
    "grid": {"--t0": -0.6, "--t1": 0.6, "--n": 3},
    "t": {"--t": 0.3},
    "point": "0.5,-0.25",
    "es": {"--a": -1.5, "--alpha": 0.2},
}


def _m1_args(sub: str) -> dict:
    args = dict(M1_CLI_ARGS["grid"] if sub in GRID_ONLY or sub in ("pole", "invariants") else M1_CLI_ARGS["t"])
    if sub in POINT_SUBS:
        args["--point"] = M1_CLI_ARGS["point"]
    if sub == "eulersavary":
        args.update(M1_CLI_ARGS["es"])
    return args


def cli_inputs(seed: int, pass_index: int = 0) -> dict:
    """Configs and the CLI calls made on them in one pass.

    11 configs: M1, 8 valid generated motions, 1 degenerate (phi' = 0 at
    the requested instant) and 1 malformed.  M1 runs all ten subcommands
    first.  Each generated config runs every other subcommand, odd-numbered
    configs the even-numbered subcommands, so that every subcommand runs on
    five of them, the degenerate config's five include oracle, and a pass
    has 60 calls; the calls alternate between configs.  Every shape is the
    same for every seed and pass: term counts and kinds, `--t` or grid, grid
    size.  Each pass draws fresh values, and the malformed config's defect
    cycles with the pass, so a cache keyed by value misses on every
    generated config.  M1's configs and calls are the same in every pass.
    """
    rng = random.Random(f"hypkin-cli:{seed}:{pass_index}")
    configs = [{"kind": "m1", "cfg": M1_CONFIG, "ts": None, "text": json.dumps(M1_CONFIG).encode()}]
    for k in range(VALID_CONFIGS):
        cfg = motion_config(rng, k)
        configs.append({"kind": "valid", "cfg": cfg, "ts": None, "text": json.dumps(cfg).encode()})
    for k in range(VALID_CONFIGS, VALID_CONFIGS + DEGENERATE_CONFIGS):
        cfg, ts = degenerate_config(rng, k)
        configs.append({"kind": "degenerate", "cfg": cfg, "ts": ts, "text": json.dumps(cfg).encode()})
    for k in range(MALFORMED_CONFIGS):
        cfg = motion_config(rng, VALID_CONFIGS + DEGENERATE_CONFIGS + k)
        defect = DEFECTS[(pass_index + k) % len(DEFECTS)]
        component = ("h", "phi", "u_x", "u_y")[(pass_index + k) // len(DEFECTS) % 4]
        configs.append({"kind": "malformed", "cfg": cfg, "ts": None, "text": _malform(cfg, defect, component)})
    calls = [{"config": 0, "sub": sub, "args": _m1_args(sub)} for sub in SUBCOMMANDS]
    for j in range(len(SUBCOMMANDS) // 2):
        for k in range(1, len(configs)):
            c, sub = configs[k], SUBCOMMANDS[(k + 1) % 2 + 2 * j]
            slot = k // 2 + SUBCOMMANDS.index(sub)
            calls.append({"config": k, "sub": sub, "args": _cli_args(rng, sub, c["cfg"], c["kind"], c["ts"], slot)})
    return {"configs": configs, "calls": calls}


def argv(call: dict, config_path: str, out_path: str) -> list[str]:
    """The command line of one call, as hypkin.cli.main receives it."""
    out = [call["sub"], f"--config={config_path}", f"--out={out_path}"]
    # flag=value, so that a point like -1.5,2 is not taken for an option
    out += [f"{flag}={value if isinstance(value, str) else _fmt(value)}" for flag, value in call["args"].items()]
    return out


def setup_motions(workload: str, seed: int) -> list[dict]:
    """The motion configs whose build and validate() count as set-up."""
    if workload == "cli-configs":
        return [c["cfg"] for c in cli_inputs(seed)["configs"] if c["kind"] != "malformed"]
    return sweep_inputs(seed)["motions"]
