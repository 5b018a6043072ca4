"""The benchmark's tracer wraps public attributes of the package by name;
this guard fails when a refactor renames one of them."""

import importlib.util
import pathlib

import numpy as np

from ncderham.fields import layer_case_fields, smooth_case_fields

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_field_callable():
    tracing = _tracing_module()
    X = np.random.default_rng(0).random((5, 3))
    with tracing.installed(tracing.Tracer()) as tracer:
        calls = 0
        for data in (smooth_case_fields(1e-4), layer_case_fields()):
            for fld in tracer.wrap_fields(data).values():
                for attr in tracing.FIELD_CALLABLES:
                    fn = getattr(fld, attr)
                    if fn is not None:
                        fn(X)
                        calls += 1
    assert tracer.calls("fields.exact_eval") == calls
    assert tracer.counts["fields.exact_points"] == calls * len(X)
    assert tracer.metrics()["fields.exact_points"] == calls * len(X)
