"""Golden CSV output of every CSV subcommand except eulersavary (which has its
own golden in test_cli), byte for byte.

`golden_cli.json` holds two configs, M1 (unit scale) and HOM2 (h = 2 + t),
and for each subcommand one `--t` call and one 3-point grid on each config
(polecurves takes only a grid).  The bytes were frozen from the CLI before
it was rewritten as one table-driven loop.  The M1 values are checked here
against the closed forms of that motion: h = 1, phi = t,
u = sinh t + j(cosh t - 1), pole p = 2 sinh t + j(2 cosh t - 1).  To
regenerate a case, run its argv with `--config` pointing at the config, and
re-pin it only after the M1 closed-form test below still passes.
"""

import json
import math
import os

import pytest

from hypkin import cli

with open(os.path.join(os.path.dirname(__file__), "golden_cli.json"), encoding="utf-8") as fh:
    GOLDEN = json.load(fh)

CASES = GOLDEN["cases"]
CSV_SUBS = {"eval", "decompose", "pole", "polecurves", "accel", "accelpole", "invariants", "oracle"}


def case_id(case):
    return f"{case['config']}-{case['argv'][0]}-{'t' if '--t' in case['argv'] else 'grid'}"


@pytest.fixture
def config_paths(tmp_path):
    paths = {}
    for name, cfg in GOLDEN["configs"].items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        paths[name] = str(path)
    return paths


def run_case(case, paths, capsys):
    argv = case["argv"]
    code = cli.main([argv[0], "--config", paths[case["config"]], *argv[1:]])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def test_golden_cover_every_csv_subcommand():
    subs = {c["argv"][0] for c in CASES}
    assert subs == CSV_SUBS
    for name in GOLDEN["configs"]:
        for sub in subs:
            kinds = {case_id(c).rsplit("-", 1)[1] for c in CASES if c["config"] == name and c["argv"][0] == sub}
            assert kinds == ({"grid"} if sub == "polecurves" else {"t", "grid"})


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_golden_csv(case, config_paths, capsys):
    assert run_case(case, config_paths, capsys) == case["csv"]


# ---------------------------------------------------------------------------
# M1 closed forms (split-complex numbers as (x, y) pairs)


def hmul(z, w):
    return (z[0] * w[0] + z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def inner(z, w):
    return z[0] * w[0] - z[1] * w[1]


def m1_row(sub, t, x):
    ch, sh = math.cosh(t), math.sinh(t)
    rot = (ch, sh)  # e^{j t}
    pole = (2 * sh, 2 * ch - 1)
    pos = hmul((x[0] - sh, x[1] - ch + 1), rot)  # (x - u) e^{jt}
    vel = hmul((x[1] + 1 - 2 * ch, x[0] - 2 * sh), rot)  # (j x - u' - j u) e^{jt}
    acc = hmul((x[0] - 4 * sh, x[1] + 1 - 4 * ch), rot)  # (x - p - j p') e^{jt}
    if sub == "eval":
        return (t, *pos)
    if sub == "decompose":
        return (t, 0.0, 0.0, *vel, *vel)
    if sub == "pole":
        return (t, *pole)
    if sub == "polecurves":
        return (t, *pole, math.sinh(2 * t), math.cosh(2 * t), 1.0)
    if sub == "accel":
        return (t, 0.0, 0.0, 0.0, 0.0, *acc, *acc)
    if sub == "accelpole":
        return (t, 4 * sh, 4 * ch - 1)
    if sub == "invariants":
        return (t, 2.0, 2.0, 1.0, 2.0, 2.0, 1.0, 0.5)
    assert sub == "oracle"
    # the center lies on the normal j v at distance <v, v> / <j v, a>
    normal = (vel[1], vel[0])
    lam = inner(vel, vel) / inner(normal, acc)
    return (t, pos[0] + lam * normal[0], pos[1] + lam * normal[1])


@pytest.mark.parametrize("case", [c for c in CASES if c["config"] == "m1"], ids=case_id)
def test_golden_m1_matches_closed_forms(case):
    argv = case["argv"]
    x = tuple(float(c) for c in argv[argv.index("--point") + 1].split(",")) if "--point" in argv else (0, 0)
    lines = case["csv"].splitlines()
    # the normal-intersection oracle carries an O(eps^2) error (eps = 1e-4)
    tol = 1e-6 if argv[0] == "oracle" else 1e-13
    for line in lines[1:]:
        got = [float(v) for v in line.split(",")]
        want = m1_row(argv[0], got[0], x)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= tol * max(1.0, abs(w)), (line, want)
