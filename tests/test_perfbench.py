"""The benchmark's tracer wraps public attributes of the package by name;
these guards fail when a refactor renames one of them or breaks a workload's
correctness gate."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ncderham import assembly, fields
from ncderham.fields import layer_case_fields, quadrature_points, smooth_case_fields
from ncderham.mesh import build_unit_cube_mesh, mesh_geometry
from ncderham.quadrature import TET, get_rule

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# per-layer metrics a workload's traced run must not leave at 0: the tracer
# counts the W potential by its solve_spd calls inside the saddle stage, and
# sees the stages of decoupled_solve only through the module globals it
# patches (solve_spd for both Poisson solves, solve_saddle)
NONZERO_METRICS = {
    "smooth-n16-eps1": (
        "solvers.krylov.potential.iters", "solvers.saddle.sweeps",
        "solvers.krylov.poisson_w.iters", "solvers.krylov.poisson_u.iters",
        "solvers.saddle.s",
    ),
}


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_kinds_match_the_assembly_tables():
    """Every traced form or load span label names a kind of the assembly
    tables, and every kind there has its span."""
    tracing = _tracing_module()
    assert set(tracing.FORM_KINDS) == set(assembly._FORMS)
    assert set(tracing.LOAD_KINDS) == set(assembly._LOADS)


def test_tracer_wraps_every_field_callable():
    """The wrappers count points with len(X) and pass X through unchanged,
    so a tabulated point set keeps its table inside the traced call."""
    tracing = _tracing_module()
    X = np.random.default_rng(0).random((5, 3))
    geom = mesh_geometry(build_unit_cube_mesh(2))
    tabulated = quadrature_points(geom, get_rule(TET, 8).points).take(np.arange(3))
    with tracing.installed(tracing.Tracer()) as tracer:
        calls = 0
        for data in (smooth_case_fields(1e-4), layer_case_fields()):
            for key, fld in tracer.wrap_fields(data).items():
                for attr in tracing.FIELD_CALLABLES:
                    fn = getattr(fld, attr)
                    if fn is not None:
                        fn(X)
                        direct = getattr(data[key], attr)(np.array(tabulated))
                        assert np.array_equal(fn(tabulated), direct), (key, attr)
                        calls += 1
    # the traced calls on the point set read the factor memo of its table
    assert {factor for _, factor in tabulated.table.memo} == {
        fields.sin2_factor, fields.sin_factor}
    points = calls * (len(X) + len(tabulated))
    assert tracer.calls("fields.exact_eval") == 2 * calls
    assert tracer.counts["fields.exact_points"] == points
    assert tracer.metrics()["fields.exact_points"] == points


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_benchmark_run_passes_its_gate(workload):
    """The tiny variant of each workload runs under the tracer and meets the
    pinned errors and certificate."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--tiny", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    for name in NONZERO_METRICS.get(workload, ()):
        assert result["metrics"][name]["value"] > 0, name
