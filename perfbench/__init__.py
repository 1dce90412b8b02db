"""Benchmark of the qboson package: four workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/NOTES.md``.
"""

WORKLOADS = ("verify_large", "sweep_small", "oracle_small", "cli_export")
