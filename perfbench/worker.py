"""The measured process of one benchmark run.

Started by ``run.py`` with an absolute ``src`` on PYTHONPATH and the BLAS
thread count fixed in the environment.  It imports qboson, runs one warm-up
round, and notes its set-up time, measured from the moment ``run.py``
spawned it (CLOCK_MONOTONIC is shared between processes).  It then runs the
closed loop on the inputs of part I of the seed and prints one JSON object
as its last line of output.

    python -m perfbench.worker --workload NAME --seed N --part I --seconds S
        --trace 0|1 --spawned-at MONOTONIC --out-dir DIR
"""

import argparse
import ctypes
import json
import os
import random
import resource
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import qboson
from perfbench import workloads
from perfbench.tracing import Tracer


# The VM's clock speed drifts by up to 1.5x within a minute, with the load
# of other tenants, and moves raw op times run to run far more than any
# bound worth keeping.  A fixed reference computation is therefore timed
# between ops, and an op's time divided by the mean of the reference times
# just before and just after it cancels the drift.  It has a pure-Python
# part and a BLAS part, so both kinds of op follow it.
_REFERENCE_N = 32
_REFERENCE_MATRIX = np.fromfunction(lambda i, j: np.cos(i + 2 * j) + 1j * np.sin(i - j),
                                    (257, 257))


def reference_kernel() -> complex:
    """About 10 ms of complex arithmetic on lists and on a 257x257 matrix."""
    rows = [[complex(i, j) for j in range(_REFERENCE_N)] for i in range(_REFERENCE_N)]
    total = 0j
    for row in rows:
        for j in range(_REFERENCE_N):
            acc = 0j
            for l, x in enumerate(row):
                acc += x * rows[l][j]
            total += acc
    m = _REFERENCE_MATRIX
    return total + (m @ m @ m)[0, 0]


@dataclass
class LoopResult:
    latencies_ms: list = field(default_factory=list)
    # per op, the mean of the reference times bracketing it
    reference_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    worst_headroom: float = 0.0
    busy_s: float = 0.0

    def ops_per_s(self) -> float:
        return len(self.latencies_ms) / self.busy_s if self.busy_s else 0.0


def run_loop(workload, rng, seconds: float, tracer=None) -> LoopResult:
    """Run whole rounds of ops until ``seconds`` of op time have passed.

    Each op is timed, and the reference kernel is timed before the first op
    and after every op; output checks run between ops, untimed.  A failing
    op or check is counted and the loop goes on.  At least one round always
    runs.
    """
    result = LoopResult()
    before = _reference_ms()
    while True:
        for params in workload.draw(rng):
            op_id = result.attempted
            result.attempted += 1
            elapsed = None
            start = perf_counter()
            try:
                with tracer.op(op_id) if tracer else nullcontext():
                    out = workload.run(params)
                elapsed = perf_counter() - start
                headroom = workload.check(params, out)
            except Exception as exc:  # noqa: BLE001 - every failure is counted, none aborts
                if elapsed is None:
                    elapsed = perf_counter() - start
                result.failed += 1
                if len(result.failures) < 5:
                    result.failures.append(f"op {op_id} {params!r}: {exc!r}")
                    traceback.print_exc()
            else:
                result.worst_headroom = max(result.worst_headroom, headroom)
            result.latencies_ms.append(1e3 * elapsed)
            result.busy_s += elapsed
            after = _reference_ms()
            result.reference_ms.append((before + after) / 2)
            before = after
        if result.busy_s >= seconds:
            return result


def _reference_ms() -> float:
    start = perf_counter()
    reference_kernel()
    return 1e3 * (perf_counter() - start)


def blas_info() -> dict:
    """BLAS library name, version and live thread count as numpy sees them."""
    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(blas_name=blas.get("name"), blas_version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads():
    # ask the loaded OpenBLAS itself; None when no such library is mapped
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    scratch = args.out_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        workload = workloads.make(args.workload, Path(workdir), dict(os.environ),
                                  in_process=bool(args.trace))
        # warm-up ops are checked and counted like timed ones, but not timed
        warmup = run_loop(workload, random.Random(f"warmup-{args.seed}-{args.part}"), 0.0)
        setup_s = time.monotonic() - args.spawned_at
        out = {"setup_s": setup_s}
        rng = random.Random(f"{args.seed}-{args.part}")
        if args.trace:
            # same ops, untraced then traced: the ratio is the tracing overhead
            untraced = run_loop(workload, rng, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_loop(workload, rng, args.seconds / 2, tracer)
            finally:
                tracer.restore()
            tracer.write(args.out_dir / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
            out.update(layers=tracer.per_op(), untraced_ops_per_s=untraced.ops_per_s(),
                       traced_ops_per_s=traced.ops_per_s())
            timed = [untraced, traced]
        else:
            timed = [run_loop(workload, rng, args.seconds)]
        out.update(
            latencies_ms=[ms for t in timed for ms in t.latencies_ms],
            reference_ms=[ms for t in timed for ms in t.reference_ms],
            attempted=warmup.attempted + sum(t.attempted for t in timed),
            failed=warmup.failed + sum(t.failed for t in timed),
            failures=warmup.failures + [f for t in timed for f in t.failures],
            worst_headroom=max(t.worst_headroom for t in [warmup, *timed]),
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            children_peak_rss_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            env={"qboson": qboson.__version__, **blas_info()},
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
