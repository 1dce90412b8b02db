"""In-memory span tracing around calls into qboson's public functions.

Every traced function is replaced, in every module namespace that holds it
(``from .algebra import phase_state`` binds a second name in ``verify``), by
a wrapper that records a span: name, start, end, parent span and op id.  The
wrappers only record while an op is open, so checks and reference builds run
between ops stay untraced.  ``Tracer.restore`` puts every original back.

Spans are folded into per-name totals at the end of each op; the raw spans of
the first ops are kept, up to a cap, and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

# raw spans written out per run, whole ops only; the totals cover every op
KEEP_SPANS = 50_000
QBOSON_MODULES = (
    "qboson", "qboson.qnumerics", "qboson.cmatrix", "qboson.algebra",
    "qboson.verify", "qboson.cli",
)


# Counters are integers, so per-op averages repeat exactly from run to run.
def _mat_pow_flops(args, result) -> tuple[str, int]:
    # numpy.linalg.matrix_power squares and multiplies by binary decomposition:
    # bit_length-1 squarings plus popcount-1 products, none for p <= 1; each
    # complex d x d product costs 8 d^3 real flops
    a, p = args
    products = 0 if p <= 1 else (p.bit_length() - 1) + (bin(p).count("1") - 1)
    return "cmatrix.mat_pow.flop_computed", 8 * a.shape[0] ** 3 * products


def _payload_bytes(args, result) -> tuple[str, int]:
    # json.dumps escapes to ASCII by default, so characters are bytes
    return "cmatrix.json.bytes", len(result)


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and the span it records."""

    module: str
    attr: str
    span: str
    counter: Callable | None = None  # (args, result) -> (counter name, integer amount)


def _targets(module: str, layer: str, *names: str) -> list[Target]:
    return [Target(module, name, f"{layer}.{name}") for name in names]


TARGETS = (
    _targets("qboson.qnumerics", "qnumerics", "primitive_root", "q_number", "sqrt_q_number")
    + _targets(
        "qboson.algebra", "algebra",
        "annihilation", "creation", "number", "clock", "shift", "shift_dag",
        "cyclic_shift", "q_number_matrix", "sqrt_q_number_matrix", "fourier",
        "phase_state", "fourier_conjugate", "q_bracket", "q_bracket_shifted",
        "phase_braces", "phase_brace_roots", "polar_decompose", "build_operator_set",
    )
    + [Target("qboson.cmatrix", "mat_pow", "cmatrix.mat_pow", _mat_pow_flops)]
    + _targets("qboson.cmatrix", "cmatrix", "max_abs_diff", "is_unitary")
    # the JSON wire format: dict conversion in cmatrix plus the encoder the
    # CLI calls as json.dumps
    + [Target("qboson.cmatrix", "matrix_to_dict", "cmatrix.json"),
       Target("qboson.cmatrix", "vector_to_dict", "cmatrix.json"),
       Target("json", "dumps", "cmatrix.json", _payload_bytes)]
    + _targets("qboson.verify", "verify", "run_all", "sweep", "brute_force_oracle")
    + _targets("qboson.cli", "cli", "main")
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span within the same op, -1 at top level
    op: int


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Calls are sequential in one thread, so children of one span never
    overlap and their durations simply add up.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self.kept: list[Span] = []
        self.ops = 0
        # span name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}
        self._spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in QBOSON_MODULES]
        for target in TARGETS:
            home = importlib.import_module(target.module)
            original = getattr(home, target.attr)
            wrapper = self._wrap(original, target)
            for module in [home, *modules]:
                if getattr(module, target.attr, None) is original:
                    setattr(module, target.attr, wrapper)
                    self._patches.append((module, target.attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(self._spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(target.span, perf_counter(), 0.0, parent, self._op)
            self._spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if target.counter is not None:
                name, amount = target.counter(args, result)
                self.counters[name] = self.counters.get(name, 0) + amount
            return result

        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Record the spans of one operation, then fold them into the totals."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()
            spans, self._spans = self._spans, []
            self._fold(spans)

    def _fold(self, spans: list[Span]) -> None:
        self.ops += 1
        for span, own in zip(spans, self_times(spans)):
            total = self.totals.setdefault(span.name, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += span.end - span.start
            total[2] += own
        if len(self.kept) + len(spans) <= KEEP_SPANS:
            self.kept.extend(spans)

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines, times in microseconds.

        ``id`` numbers the spans of one op in start order; ``parent`` is the
        id of the enclosing span, -1 at top level.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            index, op = 0, None
            for span in self.kept:
                index = index + 1 if span.op == op else 0
                op = span.op
                out.write(json.dumps({
                    "op": span.op, "id": index, "name": span.name, "parent": span.parent,
                    "start_us": round(span.start * 1e6, 3),
                    "end_us": round(span.end * 1e6, 3),
                }) + "\n")

    def per_op(self) -> dict[str, float]:
        """The per-layer metrics, each averaged over the traced ops."""
        n = self.ops or 1

        def calls(name):
            return self.totals.get(name, [0, 0.0, 0.0])[0] / n

        def ms(name, column=1):
            return 1e3 * self.totals.get(name, [0, 0.0, 0.0])[column] / n

        qnumerics_self = sum(t[2] for name, t in self.totals.items()
                             if name.startswith("qnumerics."))
        return {
            "algebra.fourier.calls": calls("algebra.fourier"),
            "algebra.fourier.ms": ms("algebra.fourier"),
            "algebra.phase_state.calls": calls("algebra.phase_state"),
            "algebra.build_operator_set.ms": ms("algebra.build_operator_set"),
            "algebra.phase_braces.ms": ms("algebra.phase_braces"),
            "algebra.phase_brace_roots.calls": calls("algebra.phase_brace_roots"),
            "algebra.phase_brace_roots.ms": ms("algebra.phase_brace_roots"),
            "algebra.polar_decompose.self_ms": ms("algebra.polar_decompose", 2),
            "cmatrix.mat_pow.calls": calls("cmatrix.mat_pow"),
            "cmatrix.mat_pow.ms": ms("cmatrix.mat_pow"),
            "cmatrix.mat_pow.gflop_computed":
                self.counters.get("cmatrix.mat_pow.flop_computed", 0) / n / 1e9,
            "cmatrix.max_abs_diff.calls": calls("cmatrix.max_abs_diff"),
            "cmatrix.max_abs_diff.ms": ms("cmatrix.max_abs_diff"),
            "cmatrix.json.ms": ms("cmatrix.json"),
            "cmatrix.json.bytes": self.counters.get("cmatrix.json.bytes", 0) / n,
            "qnumerics.q_number.calls": calls("qnumerics.q_number"),
            "qnumerics.sqrt_q_number.calls": calls("qnumerics.sqrt_q_number"),
            "qnumerics.self_ms": 1e3 * qnumerics_self / n,
            "verify.run_all.self_ms": ms("verify.run_all", 2),
            "verify.brute_force_oracle.self_ms": ms("verify.brute_force_oracle", 2),
            "cli.main.self_ms": ms("cli.main", 2),
        }
