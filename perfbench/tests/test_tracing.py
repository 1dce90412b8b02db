import json

import pytest

import qboson
from qboson import algebra, cli, cmatrix, verify
from perfbench.tracing import Span, Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 6.0, 0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_times_of_an_op_add_up_to_its_top_level_spans():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            qboson.run_all(qboson.AlgebraConfig(s=4))
    finally:
        tracer.restore()
    top = tracer.totals["verify.run_all"][1]
    assert sum(t[2] for t in tracer.totals.values()) == pytest.approx(top, rel=1e-9)


def test_every_namespace_is_wrapped_and_restored():
    bindings = [(qboson, "phase_state"), (algebra, "phase_state"), (verify, "phase_state"),
                (cmatrix, "max_abs_diff"), (verify, "max_abs_diff"), (algebra, "max_abs_diff"),
                (cli, "main"), (json, "dumps")]
    originals = [getattr(module, attr) for module, attr in bindings]
    tracer = Tracer()
    tracer.install()
    try:
        for (module, attr), original in zip(bindings, originals):
            assert getattr(module, attr) is not original, (module.__name__, attr)
    finally:
        tracer.restore()
    for (module, attr), original in zip(bindings, originals):
        assert getattr(module, attr) is original, (module.__name__, attr)


def test_wrappers_record_nothing_outside_an_op():
    tracer = Tracer()
    tracer.install()
    try:
        qboson.run_all(qboson.AlgebraConfig(s=3))
    finally:
        tracer.restore()
    assert tracer.ops == 0 and tracer.totals == {}


def test_counts_of_one_verification():
    cfg = qboson.AlgebraConfig(s=4)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            qboson.run_all(cfg)
            qboson.polar_decompose(cfg)
    finally:
        tracer.restore()
    layers = tracer.per_op()
    # one Fourier build per phase state, d+4 in run_all, two in polar_decompose
    assert layers["algebra.fourier.calls"] == cfg.dim + 4 + 2
    assert layers["algebra.phase_state.calls"] == cfg.dim
    assert layers["algebra.phase_brace_roots.calls"] == 2
    assert layers["cmatrix.mat_pow.calls"] == 7
    assert layers["cmatrix.max_abs_diff.calls"] == 47


def test_a_raising_call_closes_its_span():
    cfg = qboson.AlgebraConfig(s=3)
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(IndexError), tracer.op(0):
            qboson.phase_state(99, cfg)
        with tracer.op(1):
            qboson.fourier(cfg)
    finally:
        tracer.restore()
    assert tracer.totals["algebra.phase_state"][0] == 1
    spans = [s for s in tracer.kept if s.op == 1]
    assert [(s.name, s.parent) for s in spans] == [("algebra.fourier", -1)]


def test_spans_are_written_as_json_lines(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            qboson.phase_state(1, qboson.AlgebraConfig(s=3))
    finally:
        tracer.restore()
    path = tmp_path / "trace.jsonl"
    tracer.write(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["id"], r["name"], r["parent"]) for r in lines] == [
        (0, "algebra.phase_state", -1), (1, "algebra.fourier", 0)]
    assert all(r["end_us"] >= r["start_us"] for r in lines)
