import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qboson
from perfbench import WORKLOADS, workloads
from perfbench.run import END_TO_END_UNITS, child_env
from perfbench.tracing import Tracer
from perfbench.worker import run_loop

ROOT = Path(__file__).resolve().parents[2]


def run_benchmark(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", WORKLOADS)
def test_short_run_of_each_workload_prints_the_contract_line(name):
    # through run.py, so the CLI children and the checking worker share one
    # BLAS set-up and exports must match the in-process build bit for bit
    proc = run_benchmark(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.1",
                         "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: m["unit"] for k, m in last["metrics"].items()} == END_TO_END_UNITS
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_traced_run_reports_exact_per_op_counts():
    proc = run_benchmark(ROOT, "--workload", "verify_large", "--seed", "3", "--seconds", "0.1",
                         "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    counts = {k: metrics[k]["value"] for k in (
        "algebra.fourier.calls", "algebra.phase_state.calls", "algebra.phase_brace_roots.calls",
        "cmatrix.mat_pow.calls", "cmatrix.max_abs_diff.calls")}
    assert counts == {"algebra.fourier.calls": 263, "algebra.phase_state.calls": 257,
                      "algebra.phase_brace_roots.calls": 2, "cmatrix.mat_pow.calls": 7,
                      "cmatrix.max_abs_diff.calls": 47}


def test_cli_export_traced_in_process(tmp_path):
    workload = workloads.make("cli_export", tmp_path, child_env(), in_process=True)
    tracer = Tracer()
    tracer.install()
    try:
        result = run_loop(workload, random.Random(7), 0.0, tracer)
    finally:
        tracer.restore()
    assert result.failed == 0 and result.attempted == 3
    layers = tracer.per_op()
    assert layers["cmatrix.json.bytes"] > 0
    assert layers["cli.main.self_ms"] > 0


def test_same_seed_same_inputs(tmp_path):
    for name in WORKLOADS:
        workload = workloads.make(name, tmp_path, {}, in_process=True)
        first, second = random.Random(3), random.Random(3)
        assert [workload.draw(first) for _ in range(5)] == [workload.draw(second) for _ in range(5)]


def test_a_failing_check_is_counted_and_the_loop_goes_on():
    class Flaky:
        calls = 0

        def draw(self, rng):
            return [None, None]

        def run(self, params):
            self.calls += 1
            if self.calls % 2:
                raise ArithmeticError("boom")
            return 1.0

        def check(self, params, out):
            return out

    result = run_loop(Flaky(), random.Random(0), 0.0)
    assert (result.attempted, result.failed, result.worst_headroom) == (2, 1, 1.0)
    # every op, failed or not, is timed and paired with a reference time
    assert len(result.latencies_ms) == len(result.reference_ms) == 2


def test_a_failing_report_is_caught():
    cfg = qboson.AlgebraConfig(s=4)
    report = qboson.run_all(cfg)
    broken = dataclasses.replace(report.checks[2], passed=False)
    report = dataclasses.replace(report, checks=(*report.checks[:2], broken, *report.checks[3:]))
    with pytest.raises(workloads.CheckFailed, match="eq5_nilpotency"):
        workloads.check_report(report, cfg)


def test_a_changed_export_is_caught(tmp_path):
    workload = workloads.make("cli_export", tmp_path, child_env(), in_process=True)
    params = ("build", qboson.AlgebraConfig(s=6))
    out = workload.run(params)
    payload = json.loads(workload.out.read_text())
    payload["entries"][3][0] = math.nextafter(payload["entries"][3][0], math.inf)
    workload.out.write_text(json.dumps(payload))
    with pytest.raises(workloads.CheckFailed, match="differs"):
        workload.check(params, out)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_benchmark(tmp_path, "--workload", "sweep_small", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
