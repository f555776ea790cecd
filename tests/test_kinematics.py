"""Velocity, pole and acceleration identities of the homothetic motion."""

import json
import math
import random

import pytest

from hypkin import (
    DegenerateError,
    DegeneratePoleCurve,
    HypNumber,
    LightlikeError,
    MotionState,
    ScalarPath,
    ZERO,
    acceleration_decompose,
    acceleration_pole,
    arc_rate_fixed,
    arc_rate_moving,
    exp_j,
    inner,
    jmul,
    map_point,
    modulus_h,
    pole_curves,
    pole_point,
    pole_sample,
    pole_velocity,
    sliding_velocity_pole_form,
    state,
    velocity_decompose,
)
from hypkin.cli import parse_config
from hypkin.kinematics import HomotheticMotion
from hypkin.paths import HypPath, exp_term
from perfbench import gen

import motions
from motions import (
    CONSTH,
    CORPUS,
    HOM1,
    HOMOTHETIC,
    M1,
    ROT1,
    ROT2,
    STATIONARY,
    UNIT_SCALE,
    interior_times,
    motion,
    rand_point,
)
from oracles import is_homothetic_reference, validate_reference


def close(a: HypNumber, b: HypNumber, tol: float) -> bool:
    return max(abs(a.x - b.x), abs(a.y - b.y)) <= tol


def fd_velocity(m, x, t, eps=1e-5):
    f = lambda s: map_point(state(m, s), x)
    return (f(t + eps) - f(t - eps)) * (0.5 / eps)


def fd_acceleration(m, x, t, eps=1e-4):
    f = lambda s: map_point(state(m, s), x)
    return (f(t + eps) - f(t) * 2.0 + f(t - eps)) * (1.0 / (eps * eps))


# ---------------------------------------------------------------------------
# states


def test_state_jets_hom1():
    st = state(HOM1, 0.0)
    assert (st.h, st.hd, st.hdd) == (2.0, 1.0, 0.0)
    assert (st.phi, st.phid, st.phidd) == (0.0, 1.0, 0.0)
    assert st.u == HypNumber(1, 0)
    assert st.ud == ZERO and st.udd == ZERO
    assert st.rot == HypNumber(1, 0)


def test_state_jets_m1():
    st = state(M1, 0.0)
    assert st.u == ZERO
    assert st.ud == HypNumber(1, 0)
    assert st.udd == HypNumber(0, 1)
    assert st.rot == HypNumber(1, 0)


def test_state_carries_the_velocity_coefficients():
    # D = h' + j h phi' and N = u' + j phi' u, formed once by state(); the
    # state is a plain bundle of values with no method that re-forms them
    for m in CORPUS:
        for t in interior_times(m, 5):
            st = state(m, t)
            assert st.twist == HypNumber(st.hd, st.h * st.phid)
            assert st.drag == st.ud + jmul(st.u) * st.phid
    st = state(M1, 0.0)  # D = j, N = u'(0) = 1: the pole is 1 / j = j
    assert (st.twist, st.drag) == (HypNumber(0, 1), HypNumber(1, 0))
    assert pole_point(st) == HypNumber(0, 1)
    assert not [name for name, v in vars(MotionState).items() if callable(v) and not name.startswith("__")]


def test_state_rejects_vanishing_rotation():
    frozen = motion(
        ScalarPath.constant(1.0),
        ScalarPath.constant(1.0),
        ScalarPath.constant(0.0),
        ScalarPath.constant(0.0),
        (-1, 1),
    )
    with pytest.raises(DegenerateError):
        state(frozen, 0.0)


def test_motion_validate_grid():
    drifting = motion(
        ScalarPath.constant(1.0),
        ScalarPath.polynomial(0, 0, 1),  # phi = t^2, phi' = 0 at t = 0
        ScalarPath.constant(0.0),
        ScalarPath.constant(0.0),
        (-1, 1),
    )
    with pytest.raises(DegenerateError):
        drifting.validate()
    M1.validate()


def unvalidated(cfg: dict) -> HomotheticMotion:
    c = parse_config(json.dumps(cfg))
    return HomotheticMotion(ScalarPath(c.h), ScalarPath(c.phi), HypPath(ScalarPath(c.u_x), ScalarPath(c.u_y)),
                            c.interval)


def load_check_motions() -> dict:
    """The corpus, the benchmark's motion shapes and the overflow configs of
    the CLI tests, none of them validated yet."""
    out = {name: m for name, m in vars(motions).items() if isinstance(m, HomotheticMotion)}
    for seed in (1, 2, 3):
        rng = random.Random(f"load-checks:{seed}")
        for k in range(12):
            out[f"bench-{seed}-{k}"] = unvalidated(gen.motion_config(rng, k))
        out[f"bench-degenerate-{seed}"] = unvalidated(gen.degenerate_config(rng, 8)[0])

    def term(kind, coeff, param):
        return {"kind": kind, "coeff": coeff, "param": param}

    for name, override in {
        "h-exp-800": {"h": [term("exp", 1, 800)]},  # the constant-scale test stops before h' overflows
        "h-exp-minus-800": {"h": [term("exp", 1, -800)]},  # h' overflows at the first sample
        "h-cosh-800": {"h": [term("cosh", 1, 800), term("poly", 1, 300)]},
        "h-t-300-wide": {"h": [term("poly", 1, 300)], "interval": [-20, 20]},  # t**300 overflows
        "phi-exp-800": {"phi": [term("poly", 1, 1), term("exp", 1, 800)]},  # phi' overflows near t = 0.89
        "phi-constant": {"phi": [term("poly", 1, 0)]},
        "phi-t-squared": {"phi": [term("poly", 1, 2)]},  # phi' = 0 at the middle sample
        "phi-exp": {"phi": [term("exp", 1, 1)]},
        "phi-t-squared-wide": {"phi": [term("poly", -0.003, 1), term("poly", 1, 2)]},  # phi' = 0 between samples
    }.items():
        out[name] = unvalidated({**gen.M1_CONFIG, **override})
    return out


def outcome(check, m):
    try:
        return check(m)
    except ArithmeticError as exc:  # DegenerateError and OverflowError
        return type(exc), str(exc)


def test_load_checks_match_the_full_jet_reference():
    validate, homothetic = {}, {}
    for name, m in load_check_motions().items():
        validate[name] = outcome(HomotheticMotion.validate, m)
        homothetic[name] = outcome(HomotheticMotion.is_homothetic, m)
        assert validate[name] == outcome(validate_reference, m), name
        assert homothetic[name] == outcome(is_homothetic_reference, m), name
    # every decision is represented, so the comparison is not vacuous
    assert validate["M1"] is None and validate["phi-t-squared-wide"] is None
    assert validate["phi-t-squared"] == (DegenerateError, "angular velocity vanishes at t=0")
    assert validate["phi-constant"][0] is DegenerateError
    assert validate["phi-exp-800"][0] is OverflowError
    assert homothetic["h-exp-800"] is True and homothetic["M1"] is False and homothetic["HOM1"] is True
    assert homothetic["h-exp-minus-800"][0] is OverflowError
    assert homothetic["h-t-300-wide"] == (OverflowError, "(34, 'Numerical result out of range')")


# ---------------------------------------------------------------------------
# point mapping


def test_map_point_identity_instant():
    st = state(M1, 0.0)  # h=1, phi=0, u=0
    for x in (HypNumber(1, 2), HypNumber(-0.5, 0.25)):
        assert map_point(st, x) == x


def test_map_point_scaling_and_shift():
    st = state(HOM1, 0.0)  # h=2, phi=0, u=1
    assert map_point(st, HypNumber(1, 1)) == HypNumber(1, 2)


def test_map_point_pure_rotation():
    rotation = motion(
        ScalarPath.constant(1.0),
        ScalarPath.polynomial(0, 1),
        ScalarPath.constant(0.0),
        ScalarPath.constant(0.0),
        (-2, 2),
    )
    st = state(rotation, 1.0)
    got = map_point(st, HypNumber(1, 0))
    assert close(got, exp_j(1.0), 1e-15)


# ---------------------------------------------------------------------------
# velocities


def test_velocity_worked_example():
    st = state(HOM1, 0.0)
    d = velocity_decompose(st, HypNumber(1, 0), ZERO)
    assert d.vr == ZERO
    assert close(d.vf, HypNumber(1, 1), 1e-15)
    assert close(d.va, HypNumber(1, 1), 1e-15)
    assert close(sliding_velocity_pole_form(st, HypNumber(1, 0)), HypNumber(1, 1), 1e-12)


def test_fixed_points_have_zero_relative_velocity():
    rng = random.Random(20)
    for _ in range(50):
        m = rng.choice(CORPUS)
        t = rng.uniform(*m.interval)
        d = velocity_decompose(state(m, t), rand_point(rng), ZERO)
        assert d.vr == ZERO
        assert d.va == d.vf + d.vr


def test_velocity_composition_and_fd_oracle():
    rng = random.Random(21)
    for _ in range(200):
        m = rng.choice(CORPUS)
        t = rng.uniform(m.interval[0] + 0.05, m.interval[1] - 0.05)
        x, xd = rand_point(rng), rand_point(rng)
        d = velocity_decompose(state(m, t), x, xd)
        assert close(d.va, d.vf + d.vr, 1e-10)
    for m in CORPUS:
        for t in interior_times(m, 7):
            x = HypNumber(1.3, -0.4)
            va = velocity_decompose(state(m, t), x, ZERO).va
            ref = fd_velocity(m, x, t)
            scale = 1 + max(abs(va.x), abs(va.y))
            assert close(va, ref, 1e-6 * scale)


def test_sliding_velocity_pole_form_consistency():
    rng = random.Random(22)
    for _ in range(100):
        m = rng.choice(CORPUS)
        t = rng.uniform(m.interval[0] + 0.05, m.interval[1] - 0.05)
        st = state(m, t)
        x = rand_point(rng)
        direct = velocity_decompose(st, x, ZERO).vf
        via_pole = sliding_velocity_pole_form(st, x)
        assert close(direct, via_pole, 1e-10 * (1 + max(abs(direct.x), abs(direct.y))))


def test_sliding_velocity_magnitude_multiplicative():
    rng = random.Random(23)
    for _ in range(100):
        m = rng.choice(CORPUS)
        t = rng.uniform(m.interval[0] + 0.05, m.interval[1] - 0.05)
        st = state(m, t)
        x = rand_point(rng)
        vf = velocity_decompose(st, x, ZERO).vf
        p = pole_point(st)
        expected = modulus_h(st.twist) * modulus_h(x - p)
        assert abs(modulus_h(vf) - expected) <= 1e-10 * (1 + expected)


def test_unit_scale_orthogonality_and_magnitude():
    rng = random.Random(24)
    for _ in range(200):
        m = rng.choice(UNIT_SCALE)
        t = rng.uniform(m.interval[0] + 0.05, m.interval[1] - 0.05)
        st = state(m, t)
        x = rand_point(rng)
        p = pole_point(st)
        ray = (x - p) * st.rot
        vf = velocity_decompose(st, x, ZERO).vf
        assert abs(inner(vf, ray)) <= 1e-10 * (1 + modulus_h(ray) ** 2)
        assert abs(modulus_h(vf) - abs(st.phid) * modulus_h(x - p)) <= 1e-10 * (
            1 + modulus_h(x - p)
        )


# ---------------------------------------------------------------------------
# rotation pole


def test_pole_worked_example():
    p = pole_point(state(HOM1, 0.0))
    assert close(p, HypNumber(2 / 3, -1 / 3), 1e-15)


def test_pole_special_case_formula():
    rng = random.Random(25)
    for _ in range(100):
        m = rng.choice(UNIT_SCALE)
        t = rng.uniform(*m.interval)
        st = state(m, t)
        p = pole_point(st)
        special = st.u + jmul(st.ud) * (1.0 / st.phid)
        assert close(p, special, 1e-12 * (1 + max(abs(p.x), abs(p.y))))


def test_pole_sliding_velocity_vanishes():
    rng = random.Random(26)
    for _ in range(100):
        m = rng.choice(CORPUS)
        t = rng.uniform(m.interval[0] + 0.05, m.interval[1] - 0.05)
        st = state(m, t)
        p = pole_point(st)
        vf = velocity_decompose(st, p, ZERO).vf
        assert modulus_h(vf) <= 1e-10 * (1 + modulus_h(p))
        assert close(velocity_decompose(st, p, ZERO).va, ZERO, 1e-10 * (1 + modulus_h(p)))


def test_pole_isotropic_denominator_raises():
    # h = e^t, phi = t: h' = h phi' identically, so the denominator is lightlike
    runaway = motion(
        ScalarPath((exp_term(1, 1),)),
        ScalarPath.polynomial(0, 1),
        ScalarPath.constant(0.5),
        ScalarPath.constant(0.0),
        (-1, 1),
    )
    with pytest.raises(LightlikeError):
        pole_point(state(runaway, 0.0))


# ---------------------------------------------------------------------------
# pole curves


def test_m1_pole_curves_closed_form():
    samples = pole_curves(M1, -1.0, 1.0, 51)
    assert len(samples) == 51
    for s in samples:
        pm = HypNumber(2 * math.sinh(s.t), 2 * math.cosh(s.t) - 1)
        pf = HypNumber(math.sinh(2 * s.t), math.cosh(2 * s.t))
        assert close(s.p_moving, pm, 1e-12)
        assert close(s.p_fixed, pf, 1e-12)
        assert abs(arc_rate_moving(s) - 2) <= 1e-12
        assert abs(arc_rate_fixed(s) - 2) <= 1e-12


def test_rolling_identity_and_arc_ratio():
    for m in [M1] + HOMOTHETIC:
        for s in pole_curves(m, m.interval[0], m.interval[1], 25):
            st = state(m, s.t)
            residual = s.pd_fixed - (s.pd_moving * st.h) * st.rot
            assert max(abs(residual.x), abs(residual.y)) <= 1e-9
            ratio = arc_rate_fixed(s) / arc_rate_moving(s)
            assert abs(ratio - abs(st.h)) <= 1e-12 * abs(st.h)


def test_unit_scale_rolls_without_sliding():
    for m in UNIT_SCALE:
        for s in pole_curves(m, m.interval[0] + 0.05, m.interval[1] - 0.05, 9):
            assert abs(arc_rate_fixed(s) / arc_rate_moving(s) - 1) <= 1e-12


def test_integrated_arc_lengths_scale_by_h():
    def simpson(g, a, b, panels=1000):
        h = (b - a) / panels
        total = g(a) + g(b)
        for i in range(1, panels):
            total += g(a + i * h) * (4 if i % 2 else 2)
        return total * h / 3.0

    a, b = CONSTH.interval
    moving = simpson(lambda t: arc_rate_moving(pole_sample(CONSTH, t)), a, b)
    fixed = simpson(lambda t: arc_rate_fixed(pole_sample(CONSTH, t)), a, b)
    assert abs(fixed / moving - 2.0) <= 1e-6


def test_stationary_pole_is_flagged():
    with pytest.raises(DegeneratePoleCurve):
        pole_sample(STATIONARY, 0.0)
    with pytest.raises(DegeneratePoleCurve):
        pole_curves(STATIONARY, -1.0, 1.0, 5)


def test_pole_curves_needs_two_samples():
    with pytest.raises(ValueError):
        pole_curves(M1, -1.0, 1.0, 1)


def test_pole_curves_deterministic():
    a = pole_curves(M1, -1.0, 1.0, 11)
    b = pole_curves(M1, -1.0, 1.0, 11)
    assert a == b


def test_pole_sampling_is_safe_to_run_concurrently():
    from concurrent.futures import ThreadPoolExecutor

    times = [-1.0 + 2.0 * i / 20 for i in range(21)]
    sequential = [pole_sample(M1, t) for t in times]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda t: pole_sample(M1, t), times))
    assert threaded == sequential


# ---------------------------------------------------------------------------
# accelerations


def test_coriolis_vanishes_for_fixed_points():
    rng = random.Random(27)
    for _ in range(50):
        m = rng.choice(CORPUS)
        t = rng.uniform(m.interval[0] + 0.05, m.interval[1] - 0.05)
        d = acceleration_decompose(state(m, t), rand_point(rng), ZERO, ZERO)
        assert d.bc == ZERO


def test_acceleration_composition():
    rng = random.Random(28)
    for _ in range(200):
        m = rng.choice(CORPUS)
        t = rng.uniform(m.interval[0] + 0.05, m.interval[1] - 0.05)
        d = acceleration_decompose(state(m, t), rand_point(rng), rand_point(rng), rand_point(rng))
        assert close(d.ba, d.bf + d.bc + d.br, 1e-10)


def test_acceleration_fd_oracle():
    for m in CORPUS:
        for t in interior_times(m, 5):
            x = HypNumber(-0.7, 1.1)
            ba = acceleration_decompose(state(m, t), x, ZERO, ZERO).ba
            ref = fd_acceleration(m, x, t)
            assert close(ba, ref, 1e-4)


def test_sliding_acceleration_vanishes_at_acceleration_pole():
    simple = motion(
        ScalarPath.constant(1.0),
        ScalarPath.polynomial(0, 1),
        ScalarPath.polynomial(0, 1),
        ScalarPath.constant(0.0),
        (-1, 1),
    )
    st = state(simple, 0.0)
    q = acceleration_pole(st)
    assert close(q, HypNumber(0, 2), 1e-12)
    bf = acceleration_decompose(st, q, ZERO, ZERO).bf
    assert modulus_h(bf) <= 1e-9


def test_acceleration_pole_across_corpus():
    for m in [M1, ROT1, ROT2, CONSTH]:
        for t in interior_times(m, 7):
            st = state(m, t)
            q = acceleration_pole(st)
            bf = acceleration_decompose(st, q, ZERO, ZERO).bf
            assert max(abs(bf.x), abs(bf.y)) <= 1e-12


def test_acceleration_pole_special_case():
    rng = random.Random(29)
    for _ in range(100):
        m = rng.choice(UNIT_SCALE)
        t = rng.uniform(m.interval[0] + 0.05, m.interval[1] - 0.05)
        st = state(m, t)
        q = acceleration_pole(st)
        p = pole_point(st)
        pd = pole_velocity(st)
        num = HypNumber(st.phid * st.phidd, -st.phid**3)
        special = p + (pd * num) * (1.0 / (st.phidd**2 - st.phid**4))
        assert close(q, special, 1e-12 * (1 + max(abs(q.x), abs(q.y))))


def test_acceleration_pole_degenerate_raises():
    # phi = e^t has phi'' = phi'^2 at t = 0, the forbidden configuration
    degen = motion(
        ScalarPath.constant(1.0),
        ScalarPath((exp_term(1, 1),)),
        ScalarPath.polynomial(0, 1),
        ScalarPath.constant(0.0),
        (-1, 1),
    )
    with pytest.raises(LightlikeError):
        acceleration_pole(state(degen, 0.0))


def test_acceleration_pole_stationary_pole_returns_pole():
    st = state(STATIONARY, 0.0)
    assert acceleration_pole(st) == pole_point(st)


def count_constructions(monkeypatch, fn) -> int:
    """HypNumber values fn() builds, counted the way perfbench/trace.py counts
    them: by patching the class's own __init__."""
    init, count = HypNumber.__init__, [0]

    def counting_init(obj, *args, **kwargs):
        count[0] += 1
        init(obj, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(HypNumber, "__init__", counting_init)
        fn()
    return count[0]


def test_construction_counts(monkeypatch):
    # machine-independent cost floor: each shared subterm is built once
    rng = random.Random(41)
    for m in CORPUS:
        t = interior_times(m, 3)[1]
        st = state(m, t)
        points = [(rand_point(rng), rand_point(rng)) for _ in range(8)]
        x, xd, xdd = points[0][0], points[0][1], rand_point(rng)

        def first_order_op():
            s = state(m, t)
            for p, pd in points:
                map_point(s, p)
                velocity_decompose(s, p, pd)
            pole_point(s)
            sliding_velocity_pole_form(s, x)

        assert count_constructions(monkeypatch, lambda: state(m, t)) == 9
        assert count_constructions(monkeypatch, lambda: velocity_decompose(st, x, xd)) == 7
        assert count_constructions(monkeypatch, first_order_op) == 94
        assert count_constructions(monkeypatch, lambda: acceleration_decompose(st, x, xd, xdd)) == 38
