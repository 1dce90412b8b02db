import json
from pathlib import Path

import pytest

from perfbench import WORKLOADS
from perfbench.run import END_TO_END_UNITS, layer_unit, tail_latency
from perfbench.tracing import Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class TestTailLatency:
    def test_exactly_ten_beyond(self):
        values = list(range(1, 101))
        assert tail_latency(values) == (90, 90.0)

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4
        assert tail_latency(values) == tail_latency(sorted(values))

    def test_smallest_sample_with_a_qualifying_statistic(self):
        value, percentile = tail_latency(list(range(11)))
        assert value == 0
        assert percentile == pytest.approx(100 / 11)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        assert tail_latency([3.0, 9.0, 1.0]) == (9.0, 100.0)
        assert tail_latency(list(range(10))) == (9, 100.0)


class TestBenchmarkFile:
    def test_workloads_match(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)

    def test_end_to_end_metrics_and_units_match(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        assert declared == END_TO_END_UNITS

    def test_per_layer_metrics_and_units_match(self):
        produced = [*Tracer().per_op(), "cli.import_ms",
                    "trace.untraced_ops_per_s", "trace.traced_ops_per_s"]
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert list(declared) == produced
        assert all(layer_unit(name) == unit for name, unit in declared.items())

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values()) <= 0.25
