"""The demos and the per-layer benchmark script still run against the
library API, and the package source keeps its invariants real."""

import ast
import glob
import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    done = subprocess.run([sys.executable, path], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_bench_layers_runs_one_code():
    path = os.path.join(ROOT, "tools", "bench_layers.py")
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    row = module.bench_code(2, 1, 2, 4, True)  # C(2,4) over F_2
    assert row["default_budget"] == "allowed"
    assert set(row["layers_s"]) == {"minors_table", "point_table",
                                    "verify_attained",
                                    "verify_zanella",
                                    "weight_distribution", "weight_array",
                                    "histogram", "dual_distribution",
                                    "check_macwilliams", "verify_nogin"}
    assert set(module.bench_cli()) == {"params", "params_s", "report",
                                       "report_s", "report_peak_bytes",
                                       "report_bytes"}


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements, so every invariant of the
    # package raises a real exception instead
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "grasscodes", "**",
                                          "*.py"), recursive=True))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        found += [f"{os.path.relpath(path, ROOT)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
