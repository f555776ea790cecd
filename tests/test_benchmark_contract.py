"""What the benchmark in perfbench/ relies on, checked without running it.

The benchmark imports hypkin names directly and through module aliases
(kin.state, es.conjugate_point, cli_mod.main), and it expects its degenerate
config to load and then fail at its instant.  A change that renames a name or
moves a refusal breaks the benchmark's output checks even when every other
test passes, so both are pinned here.  perfbench/ is only read, never run.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypkin import cli

from perfbench import gen, trace

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def hypkin_reads(tree: ast.AST):
    """(module, name, line) for every hypkin name a perfbench file reads:
    each `from hypkin... import name`, and each `alias.name` where the alias
    is bound to a hypkin module by an import in the same file."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "hypkin":
            for a in node.names:
                yield node.module, a.name, node.lineno
                if inspect.ismodule(getattr(importlib.import_module(node.module), a.name, None)):
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "hypkin":
                    aliases[a.asname or "hypkin"] = a.name if a.asname else "hypkin"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            yield aliases[node.value.id], node.attr, node.lineno


def test_perfbench_reads_only_hypkin_names_that_exist():
    seen, missing = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        for module, name, line in hypkin_reads(ast.parse(path.read_text(), str(path))):
            seen.add(f"{module}.{name}")
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{path.name}:{line}: {module}.{name}")
    assert not missing, "perfbench reads hypkin names that do not exist:\n" + "\n".join(missing)
    # the scan sees the aliased reads, not only the direct imports
    for name in ("hypkin.eulersavary.conjugate_point", "hypkin.eulersavary.ConjugateInput",
                 "hypkin.kinematics.sliding_velocity_pole_form", "hypkin.kinematics.arc_rate_fixed",
                 "hypkin.cli.main", "hypkin.paths.eval_jet", "hypkin.hypernum.Branch"):
        assert name in seen


def test_traced_keys_name_existing_functions():
    # run.py reads per-layer metrics under "layer.function" or
    # "layer.Class.method" keys; a renamed function would silently read 0
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    keys = {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("calls", "mean_us") and node.args and isinstance(node.args[0], ast.Constant)}
    assert "kinematics.HomotheticMotion.is_homothetic" in keys
    for key in keys:
        layer, *names = key.split(".")
        assert layer in trace.TIMED_LAYERS, key
        obj = importlib.import_module(f"hypkin.{layer}")
        for name in names:
            obj = getattr(obj, name)
        assert callable(obj), key


def degenerate_calls(seed: int, pass_index: int):
    """The benchmark's degenerate config of one pass, its t* and its calls."""
    inputs = gen.cli_inputs(seed, pass_index)
    k, c = next((k, c) for k, c in enumerate(inputs["configs"]) if c["kind"] == "degenerate")
    return c, [call for call in inputs["calls"] if call["config"] == k]


@pytest.mark.parametrize("seed,pass_index", [(1, 0), (2, 1), (6, 0), (11, 3)])
def test_degenerate_benchmark_config_loads_then_fails_at_its_instant(seed, pass_index, tmp_path, capsys):
    c, calls = degenerate_calls(seed, pass_index)
    ts = c["ts"]
    # phi = w t + c t^2 with phi'(t*) = 0 between two of the samples validate() reads
    assert [t["param"] for t in c["cfg"]["phi"]] == [1.0, 2.0]
    t0, t1 = c["cfg"]["interval"]
    step = (t1 - t0) / 100
    assert 0.4 < ((ts - t0) / step) % 1 < 0.6
    path = tmp_path / "degenerate.json"
    path.write_bytes(c["text"])
    cli.motion_from_config(cli.parse_config(c["text"]))  # loads: no sample is near t*
    assert cli.main(["pole", f"--config={path}", f"--t={ts!r}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("degenerate:") and f"at t={ts:g}" in err
    oracle = next(call for call in calls if call["sub"] == "oracle")
    out = tmp_path / "out.csv"
    assert cli.main(gen.argv(oracle, str(path), str(out))) == 0
    assert out.read_text().startswith("t,cx,cy\n")
    for call in calls:  # every other degenerate call exits 3 at t* as well
        if call["sub"] != "oracle":
            assert cli.main(gen.argv(call, str(path), str(tmp_path / "o"))) == 3, call
            assert f"at t={ts:g}" in capsys.readouterr().err


def test_import_loads_no_numeric_stack():
    # the benchmark's setup_s times `import hypkin, hypkin.cli` in a fresh
    # interpreter; importing numpy alone takes several times as long
    code = "import sys, hypkin, hypkin.cli; print(' '.join(m for m in ('numpy', 'sympy', 'mpmath') if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.stdout.split() == []
