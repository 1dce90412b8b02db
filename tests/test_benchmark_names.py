"""The names the benchmark calls must stay in the package.

``perfbench/tracing.py`` wraps every function in its ``TARGETS`` and raises
if one is missing, and ``perfbench/workloads.py`` calls ``qboson.<name>``
directly.  Dropping such a name breaks the traced run or a workload's check,
which the benchmark's own tests do not cover; these tests make it a Tier-1
failure.  The tracer module imports only the standard library and is loaded
by file path, so nothing under ``perfbench/`` needs to be importable.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import qboson

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_target_resolves():
    missing = [f"{t.module}.{t.attr}" for t in _load_tracing().TARGETS
               if not hasattr(importlib.import_module(t.module), t.attr)]
    assert missing == []


def test_every_qboson_name_the_workloads_call_exists():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "qboson"}
    assert names  # the parse found the calls
    assert sorted(n for n in names if not hasattr(qboson, n)) == []


def test_the_flop_counter_reads_what_run_all_powers(monkeypatch):
    # run_all powers column maps, which the tracer's counter reads through .shape
    import qboson.cmatrix
    flops = _load_tracing()._mat_pow_flops
    seen = []
    power = qboson.cmatrix.mat_pow

    def recording(a, p):
        result = power(a, p)
        seen.append(flops((a, p), result))
        return result

    monkeypatch.setattr(qboson.cmatrix, "mat_pow", recording)
    qboson.run_all(qboson.AlgebraConfig(4))
    assert seen == [("cmatrix.mat_pow.flop_computed", 8 * 5**3 * 3)] * 5


def test_the_bindings_the_tracer_wraps_are_the_package_functions():
    # the tracer replaces a function in every namespace that holds it, so the
    # catalog's powers and deviations are seen only through these bindings:
    # the closed-form arithmetic looks mat_pow up in cmatrix when it takes a power
    import qboson.algebra
    import qboson.cmatrix
    import qboson.verify
    assert qboson.cmatrix._CLOSED.pow.__globals__ is vars(qboson.cmatrix)
    assert qboson.mat_pow is qboson.cmatrix.mat_pow
    assert qboson.verify.max_abs_diff is qboson.cmatrix.max_abs_diff
    assert qboson.algebra.max_abs_diff is qboson.cmatrix.max_abs_diff
