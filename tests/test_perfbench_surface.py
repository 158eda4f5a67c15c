"""The names the benchmark under perfbench/ reaches in mixlap.

The tracer wraps each ``(module, function)`` key of ``perfbench.spans.LAYERS``
with ``getattr`` on ``mixlap.<module>``, so a name renamed or deleted there
crashes every traced run.  perfbench's own tests are not collected with these,
so the names are pinned here; spans.py is read with ``ast``, not imported.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

import mixlap
from mixlap import fields

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_keys():
    for node in ast.parse(_SPANS.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/spans.py defines no LAYERS")


def test_every_traced_layer_resolves():
    keys = _layer_keys()
    assert ("solve", "solve_dirichlet") in keys
    for module, function in keys:
        assert callable(getattr(importlib.import_module(f"mixlap.{module}"), function)), (
            module, function)


def test_frac_apply_takes_the_quadrature_spec_by_position():
    value = mixlap.frac_apply(mixlap.radial_cutoff(2.0), np.array([0.5, 0.0]),
                              mixlap.OperatorParams(2, 0.5), mixlap.QuadratureSpec())
    assert np.isfinite(value)


def test_a_solve_calls_the_load_vector_bound_in_solve_once(monkeypatch):
    calls = []
    load_vector = mixlap.solve.load_vector

    def counted(*args, **kwargs):
        calls.append(args)
        return load_vector(*args, **kwargs)

    monkeypatch.setattr(mixlap.solve, "load_vector", counted)
    sys_ = mixlap.build_system(mixlap.build_mesh(-1.0, 1.0, 31), mixlap.OperatorParams(1, 0.5))
    for _ in range(2):
        mixlap.solve_dirichlet(sys_, fields.constant(1.0))
    assert len(calls) == 2
