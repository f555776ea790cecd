"""Tests of the benchmark itself: seeded inputs, traced counts, output checks.

    PYTHONPATH=src python -m pytest perfbench/tests
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hypkin import HypNumber
from hypkin import cli as cli_mod
from perfbench import checks, gen, run
from perfbench.exact import M1_CONFIG, Instant, M1Instant
from perfbench.trace import Tracer
from perfbench.workloads import (
    CliStats,
    _library_expectation,
    _m1_expectation,
    build_motion,
    cli_configs,
    expected_outcome,
    sweep_first_order,
    sweep_second_order,
)

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# seeded inputs


@pytest.mark.parametrize("make", [gen.sweep_inputs, gen.cli_inputs])
def test_same_seed_gives_identical_inputs(make):
    def dump(seed):
        return json.dumps(make(seed), sort_keys=True, default=lambda b: b.decode("latin-1"))

    assert dump(7) == dump(7)
    assert dump(7) != dump(8)


def test_same_seed_gives_identical_motions_and_config_files(tmp_path):
    first = [repr(build_motion(cfg)) for cfg in gen.sweep_inputs(3)["motions"]]
    second = [repr(build_motion(cfg)) for cfg in gen.sweep_inputs(3)["motions"]]
    assert first == second
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        cli_configs(3, str(tmp_path / sub), CliStats())
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_passes_draw_fresh_values_in_fixed_shapes():
    def shape(value):
        if isinstance(value, dict):
            return {k: "point" if k == "--point" else shape(v) for k, v in value.items() if k not in ("ts", "text")}
        if isinstance(value, list):
            return [shape(v) for v in value]
        return value if isinstance(value, str) else type(value).__name__

    first, second = gen.cli_inputs(3, 1), gen.cli_inputs(3, 2)
    assert shape(first) == shape(second)
    texts = [(a["kind"], a["text"] == b["text"]) for a, b in zip(first["configs"], second["configs"])]
    assert texts == [("m1", True)] + [(kind, False) for kind, _ in texts[1:]]
    assert first["calls"][:10] == second["calls"][:10]  # M1's calls, fixed so that err_digits repeats


def test_generated_motions_validate_and_m1_comes_first():
    inputs = gen.sweep_inputs(5)
    assert inputs["motions"][0] == M1_CONFIG
    for cfg in inputs["motions"]:
        build_motion(cfg).validate()
        assert 1 <= min(len(cfg[k]) for k in ("h", "phi", "u_x", "u_y"))
        assert max(len(cfg[k]) for k in ("h", "phi", "u_x", "u_y")) <= 3


def test_cli_config_shares():
    kinds = [c["kind"] for c in gen.cli_inputs(4)["configs"]]
    assert (kinds.count("m1"), kinds.count("valid"), kinds.count("degenerate"), kinds.count("malformed")) == (
        1, gen.VALID_CONFIGS, gen.DEGENERATE_CONFIGS, gen.MALFORMED_CONFIGS)
    calls = gen.cli_inputs(4)["calls"]
    assert [c["sub"] for c in calls[:10]] == list(gen.SUBCOMMANDS) and {c["config"] for c in calls[:10]} == {0}
    assert len({(c["config"], c["sub"]) for c in calls}) == len(calls) == 60
    for sub in gen.SUBCOMMANDS:
        assert sum(c["sub"] == sub for c in calls[10:]) == 5
    degenerate = kinds.index("degenerate")
    assert "oracle" in {c["sub"] for c in calls if c["config"] == degenerate}


# ---------------------------------------------------------------------------
# traced counts


def test_state_per_quantity_on_m1():
    assert run.state_per_quantity() == {
        "pole_sample": 9,
        "acceleration_decompose": 5,
        "acceleration_pole": 5,
        "canonical_invariants": 19,
        "predicted_curvature_center": 29,
        "curvature_center_oracle": 2,
    }


def _traced_pass(ops):
    with Tracer() as tracer:
        for op in ops:
            op.run()
    return tracer


def test_first_order_op_counts(tmp_path):
    ops = sweep_first_order(1, str(tmp_path), CliStats()).ops
    tracer = _traced_pass(ops)
    assert tracer.calls("kinematics.state") == len(ops)
    assert tracer.calls("numdiff.d1") == tracer.calls("numdiff.d2") == 0
    assert tracer.constructions[0] == 154 * len(ops)


def test_second_order_op_counts(tmp_path):
    ops = sweep_second_order(1, str(tmp_path), CliStats()).ops[:8]
    tracer = _traced_pass(ops)
    assert tracer.calls("kinematics.state") == 69 * len(ops)


def test_tracer_restores_every_binding():
    from hypkin import eulersavary, kinematics

    before = (kinematics.state, eulersavary.state, cli_mod.state, HypNumber.__init__)
    with Tracer():
        assert kinematics.state is not before[0] and eulersavary.state is cli_mod.state
    assert (kinematics.state, eulersavary.state, cli_mod.state, HypNumber.__init__) == before


# ---------------------------------------------------------------------------
# output checks reject corrupted results


def _bump(z, eps=1e-3):
    return HypNumber(z.x + eps, z.y)


def _op_result(ops, k):
    op = ops[k]
    result = op.run()
    assert op.check(result, None)[0] == "ok"
    return op, result


FIRST_ORDER_CORRUPTIONS = {
    "map_point": lambda r: ([(_bump(r[0][0][0]), r[0][0][1])] + r[0][1:], r[1], r[2]),
    "vr": lambda r: ([(r[0][0][0], dataclasses.replace(r[0][0][1], vr=_bump(r[0][0][1].vr)))] + r[0][1:], r[1], r[2]),
    "vf": lambda r: ([(r[0][0][0], dataclasses.replace(r[0][0][1], vf=_bump(r[0][0][1].vf)))] + r[0][1:], r[1], r[2]),
    "va": lambda r: ([(r[0][0][0], dataclasses.replace(r[0][0][1], va=_bump(r[0][0][1].va)))] + r[0][1:], r[1], r[2]),
    "pole": lambda r: (r[0], _bump(r[1]), r[2]),
    "pole_form": lambda r: (r[0], r[1], _bump(r[2])),
    "tiny": lambda r: (r[0], _bump(r[1], 1e-9), r[2]),
}


@pytest.mark.parametrize("k", [0, 50])  # an M1 op and a generated one
@pytest.mark.parametrize("corruption", FIRST_ORDER_CORRUPTIONS)
def test_first_order_checks_reject_corruption(tmp_path, k, corruption):
    op, result = _op_result(sweep_first_order(2, str(tmp_path), CliStats()).ops, k)
    assert op.check(FIRST_ORDER_CORRUPTIONS[corruption](result), None)[0] == "failed"


def _replace(result, i, **changes):
    result = list(result)
    result[i] = dataclasses.replace(result[i], **changes)
    return tuple(result)


def _scaled(z, s):
    return HypNumber(z.x * s, z.y * s)


SECOND_ORDER_CORRUPTIONS = {
    "pd_moving": lambda r: _replace(r, 0, pd_moving=_scaled(r[0].pd_moving, 1.001)),
    "pd_fixed": lambda r: _replace(r, 0, pd_fixed=_scaled(r[0].pd_fixed, 1.001)),
    "p_fixed": lambda r: _replace(r, 0, p_fixed=_bump(r[0].p_fixed)),
    "br": lambda r: _replace(r, 1, br=_bump(r[1].br)),
    "bc": lambda r: _replace(r, 1, bc=_bump(r[1].bc)),
    "bf": lambda r: _replace(r, 1, bf=_bump(r[1].bf)),
    "ba": lambda r: _replace(r, 1, ba=_bump(r[1].ba)),
    "acceleration_pole": lambda r: (*r[:2], _bump(r[2]), *r[3:]),
    "r": lambda r: _replace(r, 3, r=r[3].r * 1.001),
    "rp": lambda r: _replace(r, 3, rp=r[3].rp * 1.001),
    "dnu_ds": lambda r: _replace(r, 3, dnu_ds=r[3].dnu_ds + 1e-3),
    "sigma": lambda r: _replace(r, 3, sigma_rate=r[3].sigma_rate * 1.001),
    "non_finite": lambda r: _replace(r, 3, tau_rate=math.nan),
    "oracle": lambda r: (*r[:5], _bump(r[5], 0.1)),
}


@pytest.mark.parametrize("k", [0, 50])
@pytest.mark.parametrize("corruption", SECOND_ORDER_CORRUPTIONS)
def test_second_order_checks_reject_corruption(tmp_path, k, corruption):
    op, result = _op_result(sweep_second_order(2, str(tmp_path), CliStats()).ops, k)
    assert op.check(SECOND_ORDER_CORRUPTIONS[corruption](result), None)[0] == "failed"


def test_euler_savary_prediction_checked_on_m1(tmp_path):
    op, result = _op_result(sweep_second_order(2, str(tmp_path), CliStats()).ops, 0)
    assert op.check((*result[:4], _bump(result[4]), result[5]), None)[0] == "failed"


@pytest.mark.parametrize("make", [sweep_first_order, sweep_second_order])
def test_any_exception_fails_a_sweep_op(tmp_path, make):
    ops = make(2, str(tmp_path), CliStats()).ops
    for op in (ops[0], ops[50]):
        assert op.check(None, ZeroDivisionError())[0] == "failed"
        assert op.check(None, cli_mod.DegenerateError("t"))[0] == "failed"
        assert op.check(None, cli_mod.LightlikeError("x"))[0] == "failed"


def _cli_ops_by_kind(tmp_path):
    inputs = gen.cli_inputs(1)
    ops = cli_configs(1, str(tmp_path), CliStats()).ops
    kinds = [inputs["configs"][call["config"]]["kind"] for call in inputs["calls"]]
    return [(kind, call["sub"], op) for kind, call, op in zip(kinds, inputs["calls"], ops)]


def _check_exit(op, code, err):
    op.check.args[3].write(err)  # the buffer that captures the call's stderr
    return op.check(code, None)[0]


def test_cli_exit_2_or_3_is_a_refusal_only_on_its_own_kind(tmp_path):
    kinds = set()
    for kind, sub, op in _cli_ops_by_kind(tmp_path):
        want = 2 if kind == "malformed" else 3 if kind == "degenerate" and sub != "oracle" else None
        for code, err in ((2, "error: bad\n"), (3, "degenerate: t\n")):
            assert _check_exit(op, code, err) == ("refused" if code == want else "failed"), (kind, sub, code)
        kinds.add(kind)
    assert kinds == {"m1", "valid", "degenerate", "malformed"}


def test_cli_refusal_counted_on_its_own_kind(tmp_path):
    ops = _cli_ops_by_kind(tmp_path)
    malformed = next(op for kind, _, op in ops if kind == "malformed")
    degenerate = next(op for kind, sub, op in ops if kind == "degenerate" and sub != "oracle")
    valid = next(op for kind, _, op in ops if kind == "valid")
    assert malformed.check(malformed.run(), None)[0] == "refused"
    assert degenerate.check(degenerate.run(), None)[0] == "refused"
    assert valid.check(valid.run(), None)[0] == "ok"


def test_library_failure_on_a_valid_config_fails_the_call():
    inputs = gen.cli_inputs(1)
    call = next(c for c in inputs["calls"] if inputs["configs"][c["config"]]["kind"] == "valid")
    malformed = next(c for c in inputs["configs"] if c["kind"] == "malformed")
    expected = expected_outcome("valid", call, malformed["text"])
    assert expected[0] == "fail"
    assert not checks.check_cli((0, "", b"t\n"), expected).ok
    assert not checks.check_cli((2, "error: bad", None), expected).ok


def _cli_call(tmp_path, sub):
    inputs = gen.cli_inputs(1)
    call = next(c for c in inputs["calls"] if c["sub"] == sub and c["config"] == 0)
    config = tmp_path / "m1.json"
    config.write_bytes(inputs["configs"][0]["text"])
    out = tmp_path / "out"
    code = cli_mod.main(gen.argv(call, str(config), str(out)))
    return call, (code, "", out.read_bytes())


def _last_value_scaled(blob, factor=1 + 1e-9):
    lines = blob.split(b"\n")
    fields = lines[1].split(b",")
    fields[-1] = repr(float(fields[-1]) * factor).encode()
    lines[1] = b",".join(fields)
    return b"\n".join(lines)


CLI_CORRUPTIONS = {
    "exit_code": lambda r: (1, r[1], r[2]),
    "traceback": lambda r: (r[0], "Traceback (most recent call last):\n", r[2]),
    "no_output": lambda r: (r[0], r[1], None),
    "value": lambda r: (r[0], r[1], _last_value_scaled(r[2])),
    "missing_row": lambda r: (r[0], r[1], b"\n".join(r[2].split(b"\n")[:1]) + b"\n"),
}


@pytest.mark.parametrize("corruption", CLI_CORRUPTIONS)
def test_cli_checks_reject_corruption(tmp_path, corruption):
    call, result = _cli_call(tmp_path, "accelpole")
    expected = _library_expectation(call, gen.cli_inputs(1)["configs"][0]["text"])
    assert checks.check_cli(result, expected, _m1_expectation(call)).ok
    assert not checks.check_cli(CLI_CORRUPTIONS[corruption](result), expected, _m1_expectation(call)).ok


def test_cli_m1_rows_checked_against_closed_form(tmp_path):
    call, result = _cli_call(tmp_path, "invariants")
    expected = _library_expectation(call, gen.cli_inputs(1)["configs"][0]["text"])
    wrong_m1 = [(row[0], *(v * 1.001 for v in row[1:])) for row in _m1_expectation(call)]
    assert checks.check_cli(result, expected, _m1_expectation(call)).ok
    assert not checks.check_cli(result, expected, wrong_m1).ok


def test_cli_svg_and_refusal_checks(tmp_path):
    call, (code, err, blob) = _cli_call(tmp_path, "plot")
    expected = _library_expectation(call, gen.cli_inputs(1)["configs"][0]["text"])
    assert expected[0] == "svg" and checks.check_cli((code, err, blob), expected).ok
    assert not checks.check_cli((code, err, blob.replace(b"</svg>", b"")), expected).ok
    assert checks.check_cli((2, "error: bad", None), ("exit", 2)).ok
    assert not checks.check_cli((3, "degenerate: t", None), ("exit", 2)).ok
    assert not checks.check_cli((2, "", None), ("exit", 2)).ok


def test_exact_reference_matches_m1_closed_form():
    for t in (-0.7, 0.0, 0.45):
        general, closed = Instant(M1_CONFIG, t), M1Instant(t)
        for name in ("p", "pd", "pf", "pfd", "q", "twist", "quad"):
            assert checks.rel_err(getattr(general, name), getattr(closed, name)) < 1e-14
        x, xd, xdd = (0.3, -1.2), (0.5, 0.25), (-0.75, 1.0)
        for a, b in zip(general.accelerations(x, xd, xdd), closed.accelerations(x, xd, xdd)):
            assert checks.rel_err(a, b) < 1e-14
        assert abs(general.dnu_ds - 0.5) < 1e-14 and abs(general.tau - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# the command


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["sweep-first-order", "sweep-second-order", "cli-configs"]


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_command_prints_checked_metrics():
    done = _bench(ROOT, "--workload", "sweep-first-order", "--seed", "1", "--seconds", "0.3", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench(tmp_path, "--workload", "cli-configs", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
