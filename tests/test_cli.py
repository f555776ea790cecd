"""CLI contract: config schema, golden CSV output, exit codes, SVG structure.

The golden byte strings were frozen from a verified run and checked against
the closed forms of the reference motion: the pole row and the eulersavary
row (r, r', dnu/ds, a') = (2, 1, 0.5, 2) are exact, and every pole-curve
value matches 2 sinh t + j(2 cosh t - 1), sinh 2t + j cosh 2t and the arc
ratio 1 to 1e-15.  Regenerate them with the commands in each test only after
checking the new values against those closed forms.
"""

import json
import math

import pytest

from hypkin import cli
from hypkin.cli import (
    ConfigError,
    MotionConfig,
    ValidationError,
    motion_from_config,
    parse_config,
    render_svg,
    serialize_config,
)
from hypkin.paths import BasisTerm, TermKind

M1_CONFIG = (
    '{"h":[{"kind":"poly","coeff":1,"param":0}],'
    '"phi":[{"kind":"poly","coeff":1,"param":1}],'
    '"u_x":[{"kind":"sinh","coeff":1,"param":1}],'
    '"u_y":[{"kind":"cosh","coeff":1,"param":1},{"kind":"poly","coeff":-1,"param":0}],'
    '"interval":[-1,1]}'
)

GOLDEN_POLE = "t,px,py\n0,0,1\n"

GOLDEN_POLECURVES = (
    "t,pmx,pmy,pfx,pfy,arc_ratio\n"
    "-1,-2.3504023872876028,2.0861612696304874,-3.6268604078470186,3.7621956910836314,1.0000000000000009\n"
    "-0.5,-1.0421906109874948,1.2552519304127614,-1.1752011936438014,1.5430806348152435,0.99999999999999978\n"
    "0,0,1,0,1,1\n"
    "0.5,1.0421906109874948,1.2552519304127614,1.1752011936438014,1.5430806348152435,0.99999999999999978\n"
    "1,2.3504023872876028,2.0861612696304874,3.6268604078470186,3.7621956910836314,1.0000000000000009\n"
)

GOLDEN_EULERSAVARY = "r,rp,dnu_ds,ap\n2,1,0.5,2\n"


@pytest.fixture
def m1_path(tmp_path):
    path = tmp_path / "m1.json"
    path.write_text(M1_CONFIG)
    return str(path)


def write_config(tmp_path, name, **overrides):
    raw = json.loads(M1_CONFIG)
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_m1_config():
    cfg = parse_config(M1_CONFIG.encode())
    assert cfg.interval == (-1.0, 1.0)
    assert cfg.h == (BasisTerm(TermKind.POLY, 1, 0),)
    assert cfg.u_y == (BasisTerm(TermKind.COSH, 1, 1), BasisTerm(TermKind.POLY, -1, 0))
    motion = motion_from_config(cfg)
    assert motion.interval == (-1.0, 1.0)


def test_config_round_trip():
    cfg = parse_config(M1_CONFIG)
    assert parse_config(serialize_config(cfg)) == cfg
    other = MotionConfig(
        h=(BasisTerm(TermKind.EXP, 0.5, -1.0),),
        phi=(BasisTerm(TermKind.POLY, 2.0, 1),),
        u_x=(BasisTerm(TermKind.SINH, 1.0, 2.0),),
        u_y=(BasisTerm(TermKind.POLY, 0.25, 3),),
        interval=(-0.5, 2.0),
    )
    assert parse_config(serialize_config(other)) == other


def test_missing_field_is_config_error():
    raw = json.loads(M1_CONFIG)
    del raw["phi"]
    with pytest.raises(ConfigError, match="phi"):
        parse_config(json.dumps(raw))


def test_unknown_keys_rejected():
    raw = json.loads(M1_CONFIG)
    raw["extra"] = 1
    with pytest.raises(ConfigError, match="extra"):
        parse_config(json.dumps(raw))
    raw = json.loads(M1_CONFIG)
    raw["h"][0]["weight"] = 2
    with pytest.raises(ConfigError, match="weight"):
        parse_config(json.dumps(raw))


def test_bad_poly_power_is_config_error():
    raw = json.loads(M1_CONFIG)
    raw["h"] = [{"kind": "poly", "coeff": 1, "param": 1.5}]
    with pytest.raises(ConfigError, match=r"h\[0\]"):
        parse_config(json.dumps(raw))


def test_constant_angle_is_validation_error():
    raw = json.loads(M1_CONFIG)
    raw["phi"] = [{"kind": "poly", "coeff": 1, "param": 0}]
    with pytest.raises(ValidationError):
        motion_from_config(parse_config(json.dumps(raw)))


def test_invalid_json_is_config_error():
    with pytest.raises(ConfigError):
        parse_config(b"{not json")
    with pytest.raises(ConfigError):
        parse_config(b'["list"]')


# ---------------------------------------------------------------------------
# golden CSV output


def test_golden_pole(m1_path, capsys):
    assert cli.main(["pole", "--config", m1_path, "--t", "0"]) == 0
    assert capsys.readouterr().out == GOLDEN_POLE


def test_golden_polecurves(m1_path, capsys):
    code = cli.main(["polecurves", "--config", m1_path, "--t0", "-1", "--t1", "1", "--n", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert out == GOLDEN_POLECURVES
    for line in out.strip().splitlines()[1:]:
        assert abs(float(line.split(",")[5]) - 1.0) <= 1e-12


def test_golden_eulersavary(m1_path, capsys):
    code = cli.main(
        ["eulersavary", "--config", m1_path, "--t", "0", "--a", "1", "--alpha", "0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out == GOLDEN_EULERSAVARY
    r, rp, dnu_ds, ap = (float(v) for v in out.splitlines()[1].split(","))
    assert abs(r - 2) <= 1e-12 and abs(rp - 1) <= 1e-12 and abs(dnu_ds - 0.5) <= 1e-12
    # 1/a - 1/a' = h dnu/ds on the pole normal: a = 1 maps to a' = 2
    assert abs(ap - 2) <= 1e-12


def test_eulersavary_regular_ray(m1_path, capsys):
    code = cli.main(["eulersavary", "--config", m1_path, "--t", "0", "--a", "1", "--alpha", "0"])
    assert code == 0
    ap = float(capsys.readouterr().out.splitlines()[1].split(",")[3])
    assert abs(ap - 2.0) <= 1e-12


def test_csv_deterministic(m1_path, capsys):
    cli.main(["polecurves", "--config", m1_path, "--t0", "-1", "--t1", "1", "--n", "7"])
    first = capsys.readouterr().out
    cli.main(["polecurves", "--config", m1_path, "--t0", "-1", "--t1", "1", "--n", "7"])
    assert capsys.readouterr().out == first


def test_out_file_matches_stdout(m1_path, tmp_path, capsys):
    out = tmp_path / "pole.csv"
    assert cli.main(["pole", "--config", m1_path, "--t", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == GOLDEN_POLE.encode()


def test_run_report_fields(m1_path, capsys):
    argv = ["pole", "--config", m1_path, "--t", "0"]
    report = cli.run(argv)
    capsys.readouterr()
    assert report.command == "hypkin " + " ".join(argv)
    assert len(report.digest) == 64 and int(report.digest, 16) >= 0
    assert report.header == ("t", "px", "py")
    assert report.rows == ((0.0, 0.0, 1.0),)
    assert any("homothetic: false" in w for w in report.warnings)
    assert report == cli.run(argv)  # deterministic for identical inputs
    capsys.readouterr()


# ---------------------------------------------------------------------------
# other subcommands


def test_eval_identity_instant(m1_path, capsys):
    assert cli.main(["eval", "--config", m1_path, "--t", "0", "--point", "1.5,0.5"]) == 0
    out = capsys.readouterr().out
    assert out == "t,xpx,xpy\n0,1.5,0.5\n"


def test_decompose_grid(m1_path, capsys):
    code = cli.main(
        ["decompose", "--config", m1_path, "--t0", "-0.5", "--t1", "0.5", "--n", "3",
         "--point", "0,0"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,vrx,vry,vfx,vfy,vax,vay"
    assert len(lines) == 4
    # fixed point: vr = 0 and va = vf on every row
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        assert vals[1] == 0 and vals[2] == 0
        assert vals[3] == vals[5] and vals[4] == vals[6]


def test_accel_and_accelpole(m1_path, capsys):
    assert cli.main(["accel", "--config", m1_path, "--t", "0.2", "--point", "0,0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,brx,bry,bcx,bcy,bfx,bfy,bax,bay"
    vals = [float(v) for v in lines[1].split(",")]
    assert vals[1:5] == [0.0, 0.0, 0.0, 0.0]  # fixed point: br = bc = 0
    assert cli.main(["accelpole", "--config", m1_path, "--t", "0.2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "t,qx,qy"


def test_invariants_subcommand(m1_path, capsys):
    assert cli.main(["invariants", "--config", m1_path, "--t", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,sigma,sigma_m,tau,taup,r,rp,dnu_ds"
    vals = [float(v) for v in lines[1].split(",")]
    assert abs(vals[5] - 2) <= 1e-12 and abs(vals[6] - 1) <= 1e-12 and abs(vals[7] - 0.5) <= 1e-12


def test_oracle_subcommand(m1_path, capsys):
    assert cli.main(["oracle", "--config", m1_path, "--t", "0", "--point", "0,0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,cx,cy"
    vals = [float(v) for v in lines[1].split(",")]
    assert abs(vals[1]) <= 1e-6 and abs(vals[2] - 1 / 3) <= 1e-3


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes_for_config_errors(tmp_path, capsys):
    missing = write_config(tmp_path, "missing.json")
    raw = json.loads(M1_CONFIG)
    del raw["phi"]
    (tmp_path / "missing.json").write_text(json.dumps(raw))
    assert cli.main(["pole", "--config", missing, "--t", "0"]) == 2
    const = write_config(tmp_path, "const.json", phi=[{"kind": "poly", "coeff": 1, "param": 0}])
    assert cli.main(["pole", "--config", const, "--t", "0"]) == 2
    assert cli.main(["pole", "--config", str(tmp_path / "nope.json"), "--t", "0"]) == 2
    capsys.readouterr()


def test_exit_codes_for_usage_errors(m1_path, capsys):
    assert cli.main(["pole", "--t", "0"]) == 2  # no --config
    assert cli.main(["pole", "--config", m1_path]) == 2  # no time
    assert cli.main(["eulersavary", "--config", m1_path, "--t", "0", "--a", "0", "--alpha", "0"]) == 2
    assert cli.main(["eval", "--config", m1_path, "--t", "0", "--point", "1;2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("sub", ["eval", "decompose", "accel", "oracle"])
def test_point_subcommands_refuse_without_point(sub, m1_path, capsys):
    assert cli.main([sub, "--config", m1_path, "--t", "0"]) == 2
    err = capsys.readouterr().err
    assert f"error: {sub} needs --point" in err
    assert "Traceback" not in err


def test_exit_codes_for_degeneracies(tmp_path, capsys):
    lightlike = write_config(
        tmp_path, "lightlike.json",
        h=[{"kind": "exp", "coeff": 1, "param": 1}],
        u_x=[{"kind": "poly", "coeff": 0.5, "param": 0}],
        u_y=[{"kind": "poly", "coeff": 0, "param": 0}],
    )
    assert cli.main(["pole", "--config", lightlike, "--t", "0"]) == 3
    stationary = write_config(
        tmp_path, "stationary.json",
        u_x=[{"kind": "poly", "coeff": 0.3, "param": 0}],
        u_y=[{"kind": "poly", "coeff": 0, "param": 0}],
    )
    assert cli.main(["polecurves", "--config", stationary, "--t0", "-1", "--t1", "1", "--n", "5"]) == 3
    degen = write_config(tmp_path, "degen.json", phi=[{"kind": "exp", "coeff": 1, "param": 1}])
    assert cli.main(["accelpole", "--config", degen, "--t", "0"]) == 3
    # inflection point: normals are parallel at machine precision
    m1 = write_config(tmp_path, "m1.json")
    assert cli.main(["oracle", "--config", m1, "--t", "0", "--point", "0,3"]) == 3
    err = capsys.readouterr().err
    assert "degenerate" in err
    # a = 2 on the pole normal of M1 is the inflection circle: a' is infinite
    assert cli.main(["eulersavary", "--config", m1, "--t", "0", "--a", "2", "--alpha", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("degenerate:") and "at t=0" in captured.err


def test_constant_scale_warning_on_stderr(m1_path, capsys):
    assert cli.main(["pole", "--config", m1_path, "--t", "0"]) == 0
    captured = capsys.readouterr()
    assert "homothetic: false" in captured.err
    assert "homothetic" not in captured.out


# ---------------------------------------------------------------------------
# SVG rendering


def test_render_svg_structure():
    curve_a = [(math.sinh(t / 10), math.cosh(t / 10)) for t in range(-10, 11)]
    curve_b = [(2 * math.sinh(t / 10), 2 * math.cosh(t / 10) - 1) for t in range(-10, 11)]
    blob = render_svg([("fixed", curve_a), ("moving", curve_b)])
    text = blob.decode("utf-8")
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert text.count("stroke-dasharray") == 2
    assert ">fixed</text>" in text and ">moving</text>" in text


def test_render_svg_minimal_and_errors():
    blob = render_svg([("seg", [(0, 0), (1, 1)])])
    assert blob.decode().count("<polyline") == 1
    with pytest.raises(ValueError):
        render_svg([])
    with pytest.raises(ValueError):
        render_svg([("short", [(0, 0)])])


def test_render_svg_deterministic():
    seq = [("a", [(0, 0), (1, 2), (3, 1)])]
    assert render_svg(seq) == render_svg(seq)


def test_plot_subcommand(m1_path, tmp_path, capsys):
    out = tmp_path / "curves.svg"
    code = cli.main(
        ["plot", "--config", m1_path, "--t0", "-1", "--t1", "1", "--n", "33", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.count("<polyline") == 2
    code = cli.main(
        ["plot", "--config", m1_path, "--t0", "-1", "--t1", "1", "--n", "33",
         "--point", "0,0", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    assert out.read_text().count("<polyline") == 3
