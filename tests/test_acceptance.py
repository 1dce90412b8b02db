"""Acceptance suite: one test per criterion, each printing a verdict line.

Run ``pytest -s tests/test_acceptance.py`` to see the verdict lines inline.

Criterion 2 pins the step-operator powers at the nilpotency index m and at
m - 1 for every s in 2..32: the first vanishes, the second stays visible.
For even s, m is s+1; for odd s the midpoint q-integer [(s+1)/2] vanishes,
the weight chain splits, and m is (s+1)/2, so a^s is exactly zero there.
"""

import json
import math
import time

import numpy as np

from qboson import (
    AlgebraConfig,
    annihilation,
    brute_force_oracle,
    clock,
    creation,
    cyclic_shift,
    dag,
    fourier,
    fourier_conjugate,
    identity,
    is_unitary,
    mat_pow,
    matrix_from_dict,
    max_abs_diff,
    nilpotency_index,
    phase_brace_roots,
    q_number,
    shift,
    sweep,
)

from cli_harness import run_cli as _cli

SWEEP_RANGE = range(2, 33)


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_identity_suite():
    started = time.perf_counter()
    reports = sweep(2, 32, k=1, tol=1e-9)
    elapsed = time.perf_counter() - started
    violations = [
        (r.config.s, c.name, c.deviation)
        for r in reports
        for c in r.checks
        if c.deviation > 1e-9 * (r.config.s + 1) or not c.passed
    ]
    ok = not violations and elapsed < 10.0
    _verdict(1, f"identity suite s=2..32 ({elapsed:.2f}s)", ok)
    assert violations == []
    assert elapsed < 10.0


def test_criterion_2_nilpotency_power_bounds():
    # the powers at the nilpotency index m and just below it: s+1 and s for
    # even s; for odd s the midpoint q-integer is zero, the chain splits and
    # m is (s+1)/2 (README, "A caveat on nilpotency sharpness")
    violations = []
    for s in SWEEP_RANGE:
        cfg = AlgebraConfig(s)
        m = nilpotency_index(cfg)
        for name, op in (("a", annihilation(cfg)), ("adag", creation(cfg))):
            zero = np.zeros_like(op)
            top = max_abs_diff(mat_pow(op, m), zero)
            below = max_abs_diff(mat_pow(op, m - 1), zero)
            if top > 1e-12:
                violations.append((s, name, f"power {m} above 1e-12", top))
            if below < 1e-6:
                violations.append((s, name, f"power {m - 1} below 1e-6", below))
    _verdict(2, "nilpotency power bounds s=2..32", not violations)
    assert violations == []


def test_criterion_3_fourier_core():
    failures = []
    for s in SWEEP_RANGE:
        cfg = AlgebraConfig(s)
        f = fourier(cfg)
        big_h = cyclic_shift(cfg)
        if max_abs_diff(big_h, f @ dag(clock(cfg)) @ dag(f)) > 1e-12:
            failures.append((s, "cyclic shift not Fourier-diagonal"))
        if not is_unitary(f, 1e-12):
            failures.append((s, "Fourier matrix not unitary"))
        if not is_unitary(big_h, 1e-12):
            failures.append((s, "cyclic shift not unitary"))
        if is_unitary(shift(cfg), 1e-12):
            failures.append((s, "bare shift wrongly unitary"))
    _verdict(3, "Fourier and cyclic-shift core s=2..32", not failures)
    assert failures == []


def test_criterion_4_polar_factorizations():
    failures = []
    for s in SWEEP_RANGE:
        cfg = AlgebraConfig(s)
        bound = 1e-9 * (s + 1)
        g = clock(cfg)
        step_down = fourier_conjugate(annihilation(cfg), cfg)
        step_up = fourier_conjugate(creation(cfg), cfg)
        r_down, r_up = phase_brace_roots(cfg)
        residuals = {
            "down = unitary @ radial": max_abs_diff(step_down, dag(g) @ r_down),
            "down = radial' @ unitary": max_abs_diff(step_down, r_up @ dag(g)),
            "up = radial @ clock": max_abs_diff(step_up, r_down @ g),
            "up = clock @ radial'": max_abs_diff(step_up, g @ r_up),
        }
        failures.extend((s, k, v) for k, v in residuals.items() if v > bound)
    _verdict(4, "polar factorizations s=2..32", not failures)
    assert failures == []


def test_criterion_5_oracle_equivalence():
    failures = []
    for s in range(2, 9):
        for check in brute_force_oracle(AlgebraConfig(s)):
            if check.deviation > 1e-12:
                failures.append((s, check.name, check.deviation))
    _verdict(5, "naive-route equivalence s=2..8", not failures)
    assert failures == []


def test_criterion_6_scalar_layer():
    failures = []
    for s in range(2, 65):
        cfg = AlgebraConfig(s)
        q = complex(math.cos(2 * math.pi / (s + 1)), math.sin(2 * math.pi / (s + 1)))
        for x in range(0, s + 2):
            quotient = ((q ** x - q ** (-x)) / (q - 1.0 / q)).real
            if abs(q_number(x, cfg) - quotient) > 1e-12:
                failures.append((s, x, "sine ratio vs quotient"))
        for k in range(1, s + 2):
            if math.gcd(k, s + 1) != 1:
                continue
            if abs(q_number(s + 1, AlgebraConfig(s, k=k))) > 1e-12:
                failures.append((s, k, "[s+1] not zero"))
    _verdict(6, "scalar layer agreement s<=64", not failures)
    assert failures == []


def test_criterion_7_cli_contract(tmp_path):
    checks = {
        "verify pass exits 0": _cli("verify", "--s", "5").returncode == 0,
        "verify failing tol exits 1": _cli("verify", "--s", "5", "--tol", "1e-30").returncode == 1,
        "invalid config exits 2": _cli("verify", "--s", "0").returncode == 2,
        "unknown op exits 2": _cli("build", "--s", "2", "--op", "zzz").returncode == 2,
        "bad sweep range exits 2": _cli("sweep", "--s-min", "5", "--s-max", "4").returncode == 2,
        "io failure exits 3": _cli("build", "--s", "2", "--op", "a",
                                   "--out", "/nonexistent/d/x.json").returncode == 3,
    }
    target = tmp_path / "op.json"
    built = _cli("build", "--s", "6", "--op", "atilde", "--out", str(target))
    checks["build exits 0"] = built.returncode == 0
    reread = matrix_from_dict(json.loads(target.read_text()))
    expected = fourier_conjugate(annihilation(AlgebraConfig(6)), AlgebraConfig(6))
    checks["json round trip bit-exact"] = bool(np.array_equal(reread, expected))

    ok = all(checks.values())
    _verdict(7, "CLI exit codes and JSON round trip", ok)
    assert all(checks.values()), [name for name, good in checks.items() if not good]
