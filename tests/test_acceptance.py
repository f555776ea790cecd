"""Acceptance suite: one check per shipping criterion, tolerances pinned.

Run with `pytest -s tests/test_acceptance.py` to see one [PASS]/[FAIL] line
per criterion.  Every expected value is either exact algebra, a closed form
of the reference motion, or an independent numerical oracle (matrix
representation, central differences, normal intersection); no tolerance may
be widened to paper over a disagreement.
"""

import json
import random

from hypkin import (
    Branch,
    ConjugateInput,
    HypNumber,
    LightlikeError,
    PolarForm,
    ZERO,
    acceleration_decompose,
    acceleration_pole,
    arc_rate_fixed,
    arc_rate_moving,
    canonical_invariants,
    conjugate_point,
    curvature_center_oracle,
    euler_savary_residual,
    exp_j,
    inner,
    jmul,
    map_point,
    modulus_h,
    mul,
    polar,
    pole_curves,
    pole_point,
    pole_sample,
    pole_velocity,
    predicted_curvature_center,
    reconstruct,
    state,
    velocity_decompose,
)
from hypkin import cli

from motions import (
    CONSTH,
    CORPUS,
    HOMOTHETIC,
    M1,
    M1_SWAP,
    UNIT_SCALE,
    rand_point,
)

M1_CONFIG = (
    '{"h":[{"kind":"poly","coeff":1,"param":0}],'
    '"phi":[{"kind":"poly","coeff":1,"param":1}],'
    '"u_x":[{"kind":"sinh","coeff":1,"param":1}],'
    '"u_y":[{"kind":"cosh","coeff":1,"param":1},{"kind":"poly","coeff":-1,"param":0}],'
    '"interval":[-1,1]}'
)


def report(n, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {n}: {name}")
    assert not failures, f"criterion {n} ({name}): " + "; ".join(failures[:5])


def dist(a, b):
    return max(abs(a.x - b.x), abs(a.y - b.y))


def rand_time(rng, m, margin=0.05):
    return rng.uniform(m.interval[0] + margin, m.interval[1] - margin)


def test_criterion_1_algebra_suite():
    rng = random.Random(101)
    failures = []
    branches = [Branch.HI, Branch.HII, Branch.HIII, Branch.HIV]
    for i in range(1000):
        z = HypNumber(rng.uniform(-10, 10), rng.uniform(-10, 10))
        w = HypNumber(rng.uniform(-10, 10), rng.uniform(-10, 10))
        phi = rng.uniform(-3, 3)
        # modulus multiplicativity
        lhs, rhs = modulus_h(mul(z, w)), modulus_h(z) * modulus_h(w)
        if abs(lhs - rhs) > 1e-10 * (1 + rhs):
            failures.append(f"multiplicativity broke at pair {i}")
        # rotation invariance of the inner product
        rot = exp_j(phi)
        drift = inner(mul(z, rot), mul(w, rot)) - inner(z, w)
        if abs(drift) > 1e-10 * (1 + abs(inner(z, w))):
            failures.append(f"rotation invariance broke at pair {i}: {drift:g}")
        # j-orthogonality
        if abs(inner(z, jmul(z))) > 1e-12:
            failures.append(f"j-orthogonality broke at pair {i}")
        # polar round trip over twelve decades of modulus
        r = 10.0 ** rng.uniform(-6, 6)
        zz = reconstruct(PolarForm(r, rng.uniform(-3, 3), rng.choice(branches)))
        back = reconstruct(polar(zz))
        if dist(back, zz) > 1e-12 * max(abs(zz.x), abs(zz.y)):
            failures.append(f"polar round trip broke at pair {i}")
    report(1, "hyperbolic number algebra (1000 random pairs)", failures)


def test_criterion_2_velocity_composition():
    rng = random.Random(102)
    failures = []
    for i in range(200):
        m = CORPUS[i % len(CORPUS)]
        t = rand_time(rng, m)
        x, xd = rand_point(rng), rand_point(rng)
        d = velocity_decompose(state(m, t), x, xd)
        if dist(d.va, d.vf + d.vr) > 1e-10:
            failures.append(f"composition residual at sample {i}")
        # absolute velocity against the finite-difference oracle (fixed point)
        eps = 1e-5
        va = velocity_decompose(state(m, t), x, ZERO).va
        f = lambda s: map_point(state(m, s), x)
        ref = (f(t + eps) - f(t - eps)) * (0.5 / eps)
        if dist(va, ref) > 1e-6 * (1 + max(abs(va.x), abs(va.y))):
            failures.append(f"fd oracle at sample {i}: {dist(va, ref):g}")
    report(2, "velocity composition and fd oracle (200 samples)", failures)


def test_criterion_3_pole_correctness():
    rng = random.Random(103)
    failures = []
    for i in range(200):
        m = CORPUS[i % len(CORPUS)]
        t = rand_time(rng, m)
        st = state(m, t)
        p = pole_point(st)
        vf = velocity_decompose(st, p, ZERO).vf
        if modulus_h(vf) > 1e-10 * (1 + modulus_h(p)):
            failures.append(f"sliding velocity at pole, sample {i}")
    for i in range(100):
        m = UNIT_SCALE[i % len(UNIT_SCALE)]
        t = rand_time(rng, m, margin=0.0)
        st = state(m, t)
        p = pole_point(st)
        special = st.u + jmul(st.ud) * (1.0 / st.phid)
        if dist(p, special) > 1e-12 * (1 + max(abs(p.x), abs(p.y))):
            failures.append(f"unit-scale closed form, sample {i}")
    report(3, "rotation pole (sliding velocity zero, unit-scale closed form)", failures)


def test_criterion_4_rolling_law():
    failures = []
    for m in [M1] + HOMOTHETIC:
        for s in pole_curves(m, m.interval[0], m.interval[1], 25):
            st = state(m, s.t)
            ratio = arc_rate_fixed(s) / arc_rate_moving(s)
            if abs(ratio - abs(st.h)) > 1e-6 * abs(st.h):
                failures.append(f"arc ratio off at t={s.t:g}")
            residual = s.pd_fixed - (s.pd_moving * st.h) * st.rot
            if max(abs(residual.x), abs(residual.y)) > 1e-9:
                failures.append(f"tangent identity off at t={s.t:g}")
    report(4, "rolling law ds' = |h| ds and tangent identity", failures)


def test_criterion_5_acceleration_composition():
    rng = random.Random(105)
    failures = []
    for i in range(200):
        m = CORPUS[i % len(CORPUS)]
        t = rand_time(rng, m)
        x, xd, xdd = rand_point(rng), rand_point(rng), rand_point(rng)
        d = acceleration_decompose(state(m, t), x, xd, xdd)
        if dist(d.ba, d.bf + d.bc + d.br) > 1e-10:
            failures.append(f"composition residual at sample {i}")
        eps = 1e-4
        ba = acceleration_decompose(state(m, t), x, ZERO, ZERO).ba
        f = lambda s: map_point(state(m, s), x)
        ref = (f(t + eps) - f(t) * 2.0 + f(t - eps)) * (1.0 / (eps * eps))
        if dist(ba, ref) > 1e-4:
            failures.append(f"fd oracle at sample {i}: {dist(ba, ref):g}")
    report(5, "acceleration composition and fd oracle (200 samples)", failures)


def test_criterion_6_acceleration_pole():
    rng = random.Random(106)
    failures = []
    usable = [M1, M1_SWAP, CONSTH] + UNIT_SCALE
    for i in range(100):
        m = usable[i % len(usable)]
        t = rand_time(rng, m)
        st = state(m, t)
        q = acceleration_pole(st)
        bf = acceleration_decompose(st, q, ZERO, ZERO).bf
        if max(abs(bf.x), abs(bf.y)) > 1e-9:
            failures.append(f"bf(q) nonzero at sample {i}")
    for i in range(100):
        m = UNIT_SCALE[i % len(UNIT_SCALE)]
        t = rand_time(rng, m)
        st = state(m, t)
        q = acceleration_pole(st)
        pd = pole_velocity(st)
        num = HypNumber(st.phid * st.phidd, -st.phid**3)
        special = pole_point(st) + (pd * num) * (1.0 / (st.phidd**2 - st.phid**4))
        if dist(q, special) > 1e-12 * (1 + max(abs(q.x), abs(q.y))):
            failures.append(f"unit-scale reduction, sample {i}")
    # phi = e^t: phi'' = phi'^2 at t = 0 must raise
    degen = cli.motion_from_config(
        cli.parse_config(
            json.dumps(
                {
                    "h": [{"kind": "poly", "coeff": 1, "param": 0}],
                    "phi": [{"kind": "exp", "coeff": 1, "param": 1}],
                    "u_x": [{"kind": "poly", "coeff": 1, "param": 1}],
                    "u_y": [{"kind": "poly", "coeff": 0, "param": 0}],
                    "interval": [-1, 1],
                }
            )
        )
    )
    try:
        acceleration_pole(state(degen, 0.0))
        failures.append("degenerate configuration did not raise")
    except LightlikeError:
        pass
    report(6, "acceleration pole (bf(q) = 0, unit-scale reduction, degeneracy)", failures)


def test_criterion_7_unit_scale_laws():
    rng = random.Random(107)
    failures = []
    for i in range(200):
        m = UNIT_SCALE[i % len(UNIT_SCALE)]
        t = rand_time(rng, m)
        st = state(m, t)
        x = rand_point(rng)
        p = pole_point(st)
        ray = (x - p) * st.rot
        vf = velocity_decompose(st, x, ZERO).vf
        if abs(inner(vf, ray)) > 1e-10 * (1 + modulus_h(ray) ** 2):
            failures.append(f"orthogonality at sample {i}")
        if abs(modulus_h(vf) - abs(st.phid) * modulus_h(x - p)) > 1e-10 * (
            1 + modulus_h(x - p)
        ):
            failures.append(f"magnitude law at sample {i}")
    report(7, "unit-scale orthogonality and magnitude laws (200 samples)", failures)


def test_criterion_8_canonical_invariants_m1():
    failures = []
    for i in range(11):
        t = -0.8 + 1.6 * i / 10
        inv = canonical_invariants(M1, t)
        if abs(inv.r - 2.0) > 1e-12:
            failures.append(f"r at t={t:g}: {inv.r!r}")
        if abs(inv.rp - 1.0) > 1e-12:
            failures.append(f"rp at t={t:g}: {inv.rp!r}")
        if abs(inv.dnu_ds - 0.5) > 1e-12:
            failures.append(f"dnu_ds at t={t:g}: {inv.dnu_ds!r}")
    report(8, "canonical invariants of the reference motion (11 instants)", failures)


def _normal_ray_points(motion, t):
    s = pole_sample(motion, t)
    dm = s.pd_moving * (1.0 / arc_rate_moving(s))
    return [(a, s.p_moving + jmul(dm) * a) for a in (-1.0, -0.5, -2.0, 1.0, -3.0)]


def test_criterion_9_euler_savary_arbitration():
    failures = []
    inv = canonical_invariants(M1, 0.0)
    for a, x in _normal_ray_points(M1, 0.0):
        predicted = predicted_curvature_center(M1, 0.0, x)
        observed = curvature_center_oracle(M1, x, 0.0, 1e-4)
        if dist(predicted, observed) > 1e-3:
            failures.append(f"oracle disagreement at a={a}: {dist(predicted, observed):g}")
        # at least linear improvement as eps is halved
        limit = curvature_center_oracle(M1, x, 0.0, 1e-6)
        err = dist(curvature_center_oracle(M1, x, 0.0, 1e-4), limit)
        err_half = dist(curvature_center_oracle(M1, x, 0.0, 5e-5), limit)
        if err > 1e-9 and err_half > err / 2.0:
            failures.append(f"no convergence at a={a}: {err:g} -> {err_half:g}")
        # the alpha = 0 scalar law, exact
        out = conjugate_point(
            ConjugateInput(x=HypNumber(0, a), h=1.0, sigma=inv.sigma_rate,
                           dnu=inv.sigma_rate * inv.dnu_ds)
        )
        ap = out.y
        law = 1.0 * inv.sigma_rate * inv.dnu_ds / inv.sigma_rate
        if abs((1 / a - 1 / ap) - law) > 1e-12:
            failures.append(f"alpha=0 law at a={a}")
        res = euler_savary_residual(a, ap, 0.0, 1.0, inv.r, inv.rp)
        if modulus_h(res) > 1e-12:
            failures.append(f"residual at a={a}: {modulus_h(res):g}")
    report(9, "Euler-Savary vs curvature-center oracle (5 rays)", failures)


def test_criterion_10_branch_invariance():
    failures = []
    for t in (0.0, 0.4, -0.6):
        for a, x in _normal_ray_points(M1, t):
            original = predicted_curvature_center(M1, t, x)
            swapped = predicted_curvature_center(M1_SWAP, t, jmul(x))
            if dist(swapped, jmul(original)) > 1e-9:
                failures.append(f"swap mismatch at t={t:g}, a={a}")
    report(10, "branch invariance under the j-swap", failures)


def test_criterion_11_cli_golden(tmp_path, capsys):
    from test_cli import GOLDEN_EULERSAVARY, GOLDEN_POLE, GOLDEN_POLECURVES

    failures = []
    cfg = tmp_path / "m1.json"
    cfg.write_text(M1_CONFIG)
    path = str(cfg)
    runs = [
        (["pole", "--config", path, "--t", "0"], GOLDEN_POLE),
        (["polecurves", "--config", path, "--t0", "-1", "--t1", "1", "--n", "5"], GOLDEN_POLECURVES),
        (["eulersavary", "--config", path, "--t", "0", "--a", "1", "--alpha", "0"], GOLDEN_EULERSAVARY),
    ]
    for argv, golden in runs:
        code = cli.main(argv)
        out = capsys.readouterr().out
        if code != 0:
            failures.append(f"{argv[0]} exited {code}")
        elif out.encode() != golden.encode():
            failures.append(f"{argv[0]} output drifted")
    # error-class exit codes
    bad = json.loads(M1_CONFIG)
    del bad["phi"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(bad))
    checks = [(["pole", "--config", str(broken), "--t", "0"], 2)]
    const = json.loads(M1_CONFIG)
    const["phi"] = [{"kind": "poly", "coeff": 1, "param": 0}]
    constant = tmp_path / "const.json"
    constant.write_text(json.dumps(const))
    checks.append((["pole", "--config", str(constant), "--t", "0"], 2))
    checks.append((["pole", "--t", "0"], 2))
    lightlike = json.loads(M1_CONFIG)
    lightlike["h"] = [{"kind": "exp", "coeff": 1, "param": 1}]
    lightlike["u_x"] = [{"kind": "poly", "coeff": 0.5, "param": 0}]
    lightlike["u_y"] = [{"kind": "poly", "coeff": 0, "param": 0}]
    iso = tmp_path / "iso.json"
    iso.write_text(json.dumps(lightlike))
    checks.append((["pole", "--config", str(iso), "--t", "0"], 3))
    cubic = json.loads(M1_CONFIG)
    cubic["phi"] = [{"kind": "poly", "coeff": 1, "param": 3}]
    cubic["interval"] = [-1, 1.01]  # keeps t = 0 off the validation grid
    drift = tmp_path / "cubic.json"
    drift.write_text(json.dumps(cubic))
    checks.append((["pole", "--config", str(drift), "--t", "0"], 3))
    stationary = json.loads(M1_CONFIG)
    stationary["u_x"] = [{"kind": "poly", "coeff": 0.3, "param": 0}]
    stationary["u_y"] = [{"kind": "poly", "coeff": 0, "param": 0}]
    stat = tmp_path / "stat.json"
    stat.write_text(json.dumps(stationary))
    checks.append((["polecurves", "--config", str(stat), "--t0", "-1", "--t1", "1", "--n", "5"], 3))
    checks.append((["oracle", "--config", path, "--t", "0", "--point", "0,3"], 3))
    # a = 2 is M1's inflection circle at t = 0: refused, never a silent 1e10
    checks.append((["eulersavary", "--config", path, "--t", "0", "--a", "2", "--alpha", "0"], 3))
    for argv, expected in checks:
        code = cli.main(argv)
        capsys.readouterr()
        if code != expected:
            failures.append(f"{argv} exited {code}, expected {expected}")
    with capsys.disabled():
        print()
        report(11, "CLI golden files and exit-code contract", failures)
