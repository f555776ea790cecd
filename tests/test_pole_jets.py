"""The exact pole jets against independent finite-difference oracles.

The library takes p', p'' and the fixed-curve tangents in closed form from
one state (quotient rule on the pole formula), so the rolling law
P' = h p' e^{j phi} is an identity there.  These tests difference the
sampled curves instead, with numdiff's Richardson differences, which share
nothing with the closed forms but pole_point and map_point: first
derivatives at 1e-6, turning rates (second differences) at 1e-5.
"""

from hypkin import (
    HypNumber,
    acceleration_decompose,
    acceleration_pole,
    canonical_invariants,
    cli,
    curvature_center_oracle,
    div,
    map_point,
    numdiff,
    pole_curves,
    pole_point,
    pole_sample,
    pole_velocity,
    predicted_curvature_center,
    state,
)

from motions import CONSTH, CORPUS, M1, ROT2, interior_times
from test_cli import M1_CONFIG

MOTIONS = CORPUS + [ROT2, CONSTH]


def dist(a, b):
    return max(abs(a.x - b.x), abs(a.y - b.y))


def size(z):
    return max(abs(z.x), abs(z.y))


def moving_pole(m):
    return lambda s: pole_point(state(m, s))


def fixed_pole(m):
    def curve(s):
        st = state(m, s)
        return map_point(st, pole_point(st))

    return curve


def turning_rate(curve, t, tangent):
    """Im(c''/c') with c'' from second differences of the sampled curve."""
    return div(numdiff.d2(curve, t), tangent).y


def test_pd_moving_against_differences_of_the_pole():
    for m in MOTIONS:
        for t in interior_times(m, 7):
            pd = pole_sample(m, t).pd_moving
            ref = numdiff.d1(moving_pole(m), t)
            assert dist(pd, ref) <= 1e-6 * (1 + size(ref)), (m, t)
            assert pole_velocity(state(m, t)) == pd


def test_pd_fixed_against_differences_of_the_fixed_pole():
    # the independent side of the rolling law P' = h p' e^{j phi}
    for m in MOTIONS:
        for t in interior_times(m, 7):
            pdf = pole_sample(m, t).pd_fixed
            ref = numdiff.d1(fixed_pole(m), t)
            assert dist(pdf, ref) <= 1e-6 * (1 + size(ref)), (m, t)


def test_turning_rates_against_second_differences():
    for m in MOTIONS:
        for t in interior_times(m, 7):
            inv = canonical_invariants(m, t)
            s = pole_sample(m, t)
            tau = turning_rate(moving_pole(m), t, s.pd_moving)
            taup = turning_rate(fixed_pole(m), t, s.pd_fixed)
            assert abs(inv.tau_rate - tau) <= 1e-5 * (1 + abs(tau)), (m, t)
            assert abs(inv.taup_rate - taup) <= 1e-5 * (1 + abs(taup)), (m, t)


def test_no_second_order_quantity_calls_numdiff(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("numdiff called on a production path")

    monkeypatch.setattr(numdiff, "d1", refuse)
    monkeypatch.setattr(numdiff, "d2", refuse)
    x, t = HypNumber(0.5, -0.25), 0.3
    for m in MOTIONS:
        st = state(m, t)
        pole_velocity(st)
        pole_sample(m, t)
        acceleration_decompose(st, x, HypNumber(0.1, 0.2), HypNumber(-0.3, 0.1))
        acceleration_pole(st)
        canonical_invariants(m, t)
        predicted_curvature_center(m, t, x)
        curvature_center_oracle(m, x, t, 1e-4)
    pole_curves(M1, -1.0, 1.0, 5)
    config = tmp_path / "m1.json"
    config.write_text(M1_CONFIG)
    point = ["--t", "0.3", "--point", "0.5,-0.25"]
    grid = ["--t0", "-1", "--t1", "1", "--n", "5"]
    calls = {
        "eval": point,
        "decompose": point,
        "pole": ["--t", "0.3"],
        "polecurves": grid,
        "accel": point,
        "accelpole": ["--t", "0.3"],
        "invariants": ["--t", "0.3"],
        "eulersavary": ["--t", "0.3", "--a", "1", "--alpha", "0.2"],
        "oracle": point,
        "plot": grid + ["--point", "0.5,-0.25", "--out", str(tmp_path / "p.svg")],
    }
    for sub, args in calls.items():
        assert cli.main([sub, "--config", str(config), *args]) == 0, sub
    assert "Traceback" not in capsys.readouterr().err

