"""Run one workload of the qboson benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; nothing needs installing, the package is
imported from ``src``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  Human-readable lines come first; the last
line is one JSON object with the keys correct, attempted, failed and metrics.
The full result, environment block included, goes to perfbench/out/results/
and the spans of a traced run to perfbench/out/traces/.

Every process this starts is waited for.  BLAS runs one thread in every
process, and processes run one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import WORKLOADS  # noqa: E402

# An untraced run measures in this many fresh worker processes, one after
# another, each for an equal share of the time, and pools their latencies:
# memory layout and hash randomization differ per process and move a
# process's speed by several percent.  Each worker also gives one set-up
# sample.
WORKERS = 5
IMPORT_SAMPLES = 5
# one client at a time on a shared machine: a single BLAS thread keeps the
# timings steady and never exceeds nproc
BLAS_THREADS = 1
TAIL_BEYOND = 10

# Gated metrics.  Op latency and throughput are gated in units of the
# reference kernel's time (see worker.py): each op's time is divided by the
# reference times measured around it, which cancels the VM's clock drift.
# ok_share stands in for fail_share, which is 0 on a healthy run, and a gated
# metric must never be 0.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_ref": "1/ref",
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "worst_headroom": "ratio",
}
# Reported with every run but not gated: raw wall-clock figures move with the
# clock drift by more than any usable bound.
RAW_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "reference_ms": "ms",
    "fail_share": "share",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name == "cli.import_ms":
        return "ms"
    if name.endswith("ops_per_s"):
        return "1/s"
    for suffix, unit in ((".calls", "calls/op"), ("ms", "ms/op"),
                         (".gflop_computed", "GFLOP/op"), (".bytes", "bytes/op")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for per-layer metric {name}")


def tail_latency(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile that has at least ``beyond`` samples above it.

    Returns (value, percentile).  With no more than ``beyond`` samples no
    order statistic qualifies, and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn_worker(args, env: dict, part: int, seconds: float) -> dict:
    spawned_at = time.monotonic()
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--part", str(part), "--seconds", str(seconds),
           "--trace", str(args.trace), "--spawned-at", repr(spawned_at),
           "--out-dir", str(OUT)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=2 * seconds + 60)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_ms(env: dict) -> float:
    """Median time of `import qboson` in a fresh interpreter, in ms."""
    code = "import time; t = time.perf_counter(); import qboson; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(1e3 * float(proc.stdout))
    return statistics.median(samples)


def environment(seed: int, worker_env: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        **worker_env,
        "blas_threads_requested": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        **git_state(),
        "seed": seed,
    }


def git_state() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}
    if commit.returncode != 0:  # e.g. an exported checkout with no .git
        return {"git_commit": None, "git_dirty": None}
    return {"git_commit": commit.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qboson" / "__init__.py").is_file():
        print(f"perfbench: no qboson sources under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    # per-layer figures have no bound, so a traced run needs one worker only
    workers = 1 if args.trace else WORKERS
    runs = [spawn_worker(args, env, part, args.seconds / workers) for part in range(workers)]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    latencies = [ms for r in runs for ms in r["latencies_ms"]]
    references = [ms for r in runs for ms in r["reference_ms"]]
    relative = [ms / ref for ms, ref in zip(latencies, references, strict=True)]
    tail, tail_pct = tail_latency(latencies)
    raw = {
        "ops_per_s": 1e3 * len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "reference_ms": statistics.median(references),
        "fail_share": failed / attempted,
    }

    if args.trace:
        values = dict(runs[0]["layers"])
        values["cli.import_ms"] = import_ms(env)
        values["trace.untraced_ops_per_s"] = runs[0]["untraced_ops_per_s"]
        values["trace.traced_ops_per_s"] = runs[0]["traced_ops_per_s"]
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        rss_key = "children_peak_rss_kb" if args.workload == "cli_export" else "peak_rss_kb"
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "ops_per_ref": len(relative) / sum(relative),
            "latency_p50_ref": statistics.median(relative),
            "latency_tail_ref": tail_latency(relative)[0],
            "peak_rss_mb": max(r[rss_key] for r in runs) / 1024,
            "ok_share": 1.0 - failed / attempted,
            "worst_headroom": max(r["worst_headroom"] for r in runs),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    env_block = environment(args.seed, runs[0]["env"])
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_block, "metrics": metrics,
        "raw": {name: {"value": raw[name], "unit": unit} for name, unit in RAW_UNITS.items()},
        "attempted": attempted, "failed": failed, "failures": failures,
        "latency_samples": len(latencies),
        "latency_tail": {"percentile": tail_pct, "samples": len(latencies),
                         "beyond": TAIL_BEYOND if len(latencies) > TAIL_BEYOND else 0},
        "setup_samples_s": [r["setup_s"] for r in runs],
        "wait_time": "none: one client and one process, so no layer ever queues",
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"qboson benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env_block.items()))
    print(f"ops: attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for name, unit in RAW_UNITS.items():
        print(f"  {name:<36} {raw[name]:>14.6g} {unit}  (raw, not gated)")
    print(f"  the latency tails are p{tail_pct:.1f} of {len(latencies)} timed ops")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
