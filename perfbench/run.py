"""hypkin benchmark: one single-threaded, closed-loop caller on one workload.

    python3 perfbench/run.py --workload sweep-first-order --seed 1 --seconds 10 --trace 0

Run from the repository root; hypkin is imported from src/.  The caller
issues the next op only when the previous one has returned, and checks every
result against an exact reference outside the timed region.  Human-readable
lines come first; the last line of stdout is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1).  Workloads, metrics and generator ranges: perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "err_digits": "digits",
    "peak_rss_mb": "MB",
}
QUANTITIES = (
    "pole_sample",
    "acceleration_decompose",
    "acceleration_pole",
    "canonical_invariants",
    "predicted_curvature_center",
    "curvature_center_oracle",
)
PER_LAYER = {
    "hypernum.construct_per_op": "count",
    "hypernum.construct_ns": "ns",
    "hypernum.mul_ns": "ns",
    "hypernum.div_ns": "ns",
    "hypernum.exp_j_ns": "ns",
    "paths.eval_jet_per_op": "count",
    "paths.eval_jet_ns": "ns",
    "paths.self_share": "frac",
    "numdiff.d1_per_op": "count",
    "numdiff.d2_per_op": "count",
    "numdiff.self_share": "frac",
    "kinematics.state_per_op": "count",
    **{f"kinematics.state_per.{q}": "count" for q in QUANTITIES},
    "kinematics.state_us": "us",
    "kinematics.pole_velocity_us": "us",
    "kinematics.pole_sample_us": "us",
    "kinematics.acceleration_decompose_us": "us",
    "kinematics.acceleration_pole_us": "us",
    "kinematics.state_self_share": "frac",
    "eulersavary.canonical_invariants_us": "us",
    "eulersavary.predicted_center_us": "us",
    "eulersavary.oracle_us": "us",
    "eulersavary.self_share": "frac",
    "cli.run_self_share": "frac",
    "cli.parse_config_us": "us",
    "cli.motion_from_config_us": "us",
    "cli.is_homothetic_us": "us",
    "cli.format_csv_us": "us",
    "cli.render_svg_us": "us",
    "cli.bytes_out_per_op": "B",
    "cli.refused_frac": "frac",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_frac": "frac",
}


class Tally:
    """Outcome of a stretch of ops: failure accounting, every op's time, and
    the fastest time of each op slot over the passes that ran it.

    The gated timing figures use those per-slot best times, so they are
    best-case figures: op_p99_ms is the 99th percentile of the slots' best
    times, not a tail latency.  On a shared host whose speed flips between
    states about 1.5x apart for seconds at a time, the mean and the raw
    percentiles of a run move with the share of time spent in the slow
    state; the per-slot best, taken over passes spread through the whole
    run, does not.  The raw percentiles are printed beside them.  A slot is
    one op of a pass; on cli-configs each pass fills it with a fresh config
    of the same shape, so its best time is still a cache miss.
    """

    def __init__(self):
        self.attempted = self.total_ns = 0
        self.times = array("q")  # 8 bytes an op, so that peak_rss_mb barely grows with the op count
        self.best: dict[int, int] = {}
        self.failed = self.refused = 0
        self.m1_err = 0.0
        self.failures: list[str] = []

    def ops_per_s(self) -> float:
        """Distinct ops over the sum of their best times: one pass at full speed."""
        return len(self.best) / (sum(self.best.values()) / 1e9)

    def add(self, index: int, dt: int, status: str, verdict, op, why: str) -> None:
        self.attempted += 1
        self.total_ns += dt
        self.times.append(dt)
        self.best[index] = min(dt, self.best.get(index, dt))
        if status == "failed":
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(why)
        elif status == "refused":
            self.refused += 1
        if op.m1 and verdict is not None:
            self.m1_err = max(self.m1_err, verdict.m1_err)


def drive(workload, tally: Tally, seconds: float | None = None, count: int | None = None) -> Tally:
    """Run the workload's passes for a time or a number of ops, continuing
    from where the tally's previous stretch stopped; each pass the tally
    starts is a new pass of the workload."""
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds if seconds is not None else None
    i = tally.attempted
    stop = i + count if count is not None else None
    while (stop is None or i < stop) and (deadline is None or time.perf_counter() < deadline):
        if i % workload.size == 0:
            workload.next_pass()
        op = workload.ops[i % workload.size]
        result = exc = None
        t0 = clock()
        try:
            result = op.run()
        except Exception as e:  # classified by the op's check, never hidden
            exc = e
        dt = clock() - t0
        try:
            status, verdict = op.check(result, exc)
            why = repr(exc) if exc is not None else "; ".join(verdict.problems[:3]) if verdict else ""
        except Exception as e:  # a result the checks cannot even read
            status, verdict, why = "failed", None, f"check raised {e!r}"
        tally.add(i % workload.size, dt, status, verdict, op, f"op {i % workload.size}: {why}")
        i += 1
    return tally


def setup_probe(workload: str, seed: int, tmp: str):
    """A function that measures one set-up in a fresh interpreter."""
    from perfbench.gen import setup_motions

    spec = os.path.join(tmp, "motions.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump(setup_motions(workload, seed), fh)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    probe = str(ROOT / "perfbench" / "setup_probe.py")

    def measure() -> float:
        done = subprocess.run(
            [sys.executable, probe, spec], env=env, cwd=tmp, capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        return float(done.stdout)

    return measure


def end_to_end(setup: list[float], tally: Tally) -> dict[str, float]:
    from perfbench.checks import err_digits

    best = list(tally.best.values())
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": tally.ops_per_s(),
        "op_p50_ms": statistics.median(best) / 1e6,
        # inclusive: with 60 slots the default method extrapolates past the slowest one
        "op_p99_ms": statistics.quantiles(best, n=100, method="inclusive")[98] / 1e6,
        "err_digits": err_digits(tally.m1_err),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def state_per_quantity() -> dict[str, int]:
    """state() evaluations behind each second-order quantity, on M1 at t = 0.2."""
    from hypkin import HypNumber
    from perfbench.exact import M1_CONFIG, M1Instant
    from perfbench.trace import Tracer
    from perfbench.workloads import SECOND_ORDER, build_motion

    m, t = build_motion(M1_CONFIG), 0.2
    x = HypNumber(*M1Instant(t).pole_normal_point(-1.0))
    xd, xdd = HypNumber(0.25, -0.5), HypNumber(0.5, 0.125)
    counts = {}
    with Tracer() as tracer:
        for name, quantity in SECOND_ORDER:
            before = tracer.calls("kinematics.state")
            quantity(m, t, x, xd, xdd)
            counts[name] = tracer.calls("kinematics.state") - before
    return counts


def per_layer(tracer, traced: Tally, untraced: Tally, bytes_out: int, workload: str) -> dict[str, float]:
    from perfbench.trace import microbenchmarks

    ops = traced.attempted
    total = traced.total_ns
    cli = workload == "cli-configs"
    metrics = {
        "hypernum.construct_per_op": tracer.constructions[0] / ops,
        "paths.eval_jet_per_op": tracer.calls("paths.eval_jet") / ops,
        "paths.self_share": tracer.self_ns("paths.") / total,
        "numdiff.d1_per_op": tracer.calls("numdiff.d1") / ops,
        "numdiff.d2_per_op": tracer.calls("numdiff.d2") / ops,
        "numdiff.self_share": tracer.self_ns("numdiff.") / total,
        "kinematics.state_per_op": tracer.calls("kinematics.state") / ops,
        "kinematics.state_us": tracer.mean_us("kinematics.state"),
        "kinematics.pole_velocity_us": tracer.mean_us("kinematics.pole_velocity"),
        "kinematics.pole_sample_us": tracer.mean_us("kinematics.pole_sample"),
        "kinematics.acceleration_decompose_us": tracer.mean_us("kinematics.acceleration_decompose"),
        "kinematics.acceleration_pole_us": tracer.mean_us("kinematics.acceleration_pole"),
        "kinematics.state_self_share": tracer.self_ns("kinematics.state") / total,
        "eulersavary.canonical_invariants_us": tracer.mean_us("eulersavary.canonical_invariants"),
        "eulersavary.predicted_center_us": tracer.mean_us("eulersavary.predicted_curvature_center"),
        "eulersavary.oracle_us": tracer.mean_us("eulersavary.curvature_center_oracle"),
        "eulersavary.self_share": tracer.self_ns("eulersavary.") / total,
        "cli.run_self_share": tracer.self_ns("cli.run") / total,
        "cli.parse_config_us": tracer.mean_us("cli.parse_config"),
        "cli.motion_from_config_us": tracer.mean_us("cli.motion_from_config"),
        "cli.is_homothetic_us": tracer.mean_us("kinematics.HomotheticMotion.is_homothetic"),
        "cli.format_csv_us": tracer.mean_us("cli.format_csv"),
        "cli.render_svg_us": tracer.mean_us("cli.render_svg"),
        "cli.bytes_out_per_op": bytes_out / ops,
        "cli.refused_frac": traced.refused / ops if cli else 0.0,
        "trace.untraced_ops_per_s": untraced.ops_per_s(),
        "trace.traced_ops_per_s": traced.ops_per_s(),
        "trace.overhead_frac": 1.0 - traced.ops_per_s() / untraced.ops_per_s(),
    }
    metrics.update((f"kinematics.state_per.{q}", float(n)) for q, n in state_per_quantity().items())
    metrics.update(microbenchmarks())
    return {name: metrics[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep-first-order", "sweep-second-order", "cli-configs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hypkin" / "__init__.py").is_file():
        print(f"error: hypkin sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still holds its own directory there
            pass


def _run(args, tmp: str) -> int:
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS, CliStats

    stats = CliStats()
    workload = WORKLOADS[args.workload](args.seed, tmp, stats)
    n = workload.size
    drive(workload, Tally(), count=n)  # one untimed pass: first-call costs stay out of the figures
    print(f"workload {args.workload}, seed {args.seed}: {n} ops per pass, one closed-loop caller")
    if args.trace:
        # untraced and traced passes alternate, so that both see the same host
        untraced, traced, tracer, bytes_out = Tally(), Tally(), Tracer(), 0
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            drive(workload, untraced, count=n)
            stats.bytes_out = 0
            workload.prepare()  # fresh inputs call the library: build them untraced
            with tracer:
                drive(workload, traced, count=n)
            bytes_out += stats.bytes_out
        tallies = (untraced, traced)
        units = PER_LAYER
        metrics = per_layer(tracer, traced, untraced, bytes_out, args.workload)
        for key in sorted(tracer.stats):
            calls, inclusive, own = tracer.stats[key]
            if calls:
                print(f"  span {key}: {calls / traced.attempted:.4g} calls/op, "
                      f"{inclusive / calls / 1e3:.4g} us inclusive, {own / calls / 1e3:.4g} us self")
    else:
        # set-ups alternate with stretches of ops, so that they sample the
        # host over the whole run rather than over its first second
        probe, setup, tally = setup_probe(args.workload, args.seed, tmp), [], Tally()
        for _ in range(SETUP_REPEATS):
            setup.append(probe())
            drive(workload, tally, seconds=args.seconds / SETUP_REPEATS)
        tallies = (tally,)
        units = END_TO_END
        metrics = end_to_end(setup, tally)
        raw = statistics.quantiles(tally.times, n=100)
        print(f"setup_s runs: {' '.join(f'{s:.4f}' for s in setup)}")
        print(f"{tally.attempted} ops in {tally.attempted / n:.1f} passes; "
              f"op_p50_ms and op_p99_ms over the best times of the {len(tally.best)} op slots")
        print(f"raw op_p50_ms {raw[49] / 1e6:.6g} ms, raw op_p99_ms {raw[98] / 1e6:.6g} ms "
              f"(over all {len(tally.times)} timed ops)")
        print(f"refused_frac {tally.refused / tally.attempted:.4g} frac ({tally.refused} documented refusals)")
        print(f"failed_frac {tally.failed / tally.attempted:.4g} frac ({tally.failed} of {tally.attempted})")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for t in tallies:
        for why in t.failures:
            print(f"FAILED {why}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
