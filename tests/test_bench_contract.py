"""What the benchmark under ``perfbench/`` needs of the package.

The tracer wraps the functions listed in ``tracer.WRAPPED`` by name, and
the jobs call the CLI with fixed argument lists, so renaming or deleting
either breaks the benchmark without breaking any other test.  Nothing is
run here: names are resolved and argument lists parsed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import grasscodes
from grasscodes import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
jobs = _load("jobs")


@pytest.mark.parametrize("mod_name,path,kind", tracer.WRAPPED)
def test_wrapped_entry_point_resolves(mod_name, path, kind):
    owner = importlib.import_module(f"grasscodes.{mod_name}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, path))


def test_library_calls_resolve():
    # the set-up, the library jobs and the output checks
    for path in ("GF.from_string", "CodeSpec", "point_table", "codeword_weight",
                 "DualFunctional.from_vector", "codes.build_generator",
                 "macwilliams.check_macwilliams", "cli.main"):
        obj = grasscodes
        for part in path.split("."):
            obj = getattr(obj, part)
        assert callable(obj), path


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_argv_parses(workload):
    argvs = [job["argv"] for job in jobs.build(workload, 0) if "argv" in job]
    assert argvs
    for argv in argvs:
        cli._build_parser().parse_args(argv)
