"""Identity catalog, verification reports, and the naive cross-check route.

``run_all`` evaluates the full 14-check catalog for one configuration and
``sweep`` repeats it over a range of cutoffs.  ``brute_force_oracle``
re-derives every operator and every check side through a deliberately naive
pure-Python dyad-sum route (complex-quotient q-integers, direct exponentials,
triple-loop products) and reports how closely it agrees with the closed-form
route; it exists to catch drift, not to be fast, and is capped at small s.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import OperatorSet, build_operator_set, nilpotency_index, sqrt_q_number_matrix
# unused here; perfbench's tracer test wraps and restores this binding
from .algebra import phase_state  # noqa: F401
from .cmatrix import dag, dyad, identity, is_unitary, mat_pow, max_abs_diff
from .qnumerics import AlgebraConfig, primitive_root

CHECK_NAMES = (
    "eq1_ccr",
    "eq3_truncation",
    "eq5_nilpotency",
    "eq6_decomposition",
    "eq9_gh",
    "eq10_partial_isometry",
    "eq11_products",
    "eq12_cyclic",
    "eq13_f_unitary",
    "eq14_h_via_f",
    "eq15_phase_orthonormal",
    "eq17_tilde_ccr",
    "eq18_H_relations",
    "eq19_polar",
)

# Powers of the step operators must stay visibly nonzero right up to the
# nilpotency index, and the bare shift must stay visibly non-unitary;
# otherwise an all-zero implementation would pass every "X = 0" identity.
SHARPNESS_FLOOR = 1e-6
# Deviation reported when a sharpness floor is violated: far above any
# plausible threshold, and finite so reports stay valid JSON.
_SHARPNESS_DEVIATION = 1.0
# Deviation reported in place of a non-finite one (an overflow or a nan),
# whose check then fails whatever the threshold.
_NON_FINITE_DEVIATION = sys.float_info.max

ORACLE_MAX_S = 8
ORACLE_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    """One named identity check: pass holds exactly when deviation <= threshold."""

    name: str
    deviation: float
    threshold: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "deviation": self.deviation,
            "threshold": self.threshold,
            "pass": self.passed,
        }


def _result(name: str, deviation: float, threshold: float) -> CheckResult:
    deviation = float(deviation)
    threshold = float(threshold)
    if not math.isfinite(deviation):
        return CheckResult(name=name, deviation=_NON_FINITE_DEVIATION,
                           threshold=threshold, passed=False)
    return CheckResult(name=name, deviation=deviation, threshold=threshold,
                       passed=deviation <= threshold)


@dataclass(frozen=True)
class VerificationReport:
    """All catalog results for one configuration, in catalog order."""

    config: AlgebraConfig
    checks: tuple[CheckResult, ...]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "s": self.config.s,
            "k": self.config.k,
            "tol": self.config.tol,
            "checks": [c.to_json_dict() for c in self.checks],
            "overall_pass": self.overall_pass,
        }


def _closed_form_sides(ops: OperatorSet) -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
    """(lhs, rhs) matrix pairs for every catalog check, closed-form route.

    The naive route in ``_naive_sides`` mirrors this catalog pair for pair;
    keep the two in the same order.  The phase states are the columns of the
    Fourier matrix, and a product that two checks share is computed once.
    """
    cfg = ops.config
    d, s = cfg.dim, cfg.s
    q = primitive_root(cfg)
    eye = identity(d)
    zero = np.zeros((d, d), dtype=complex)
    g_inv = dag(ops.g)
    sqrt_g = sqrt_q_number_matrix(cfg)
    sqrt_g1 = sqrt_q_number_matrix(cfg, offset=1)
    r_down, r_up = ops.sqrt_brace_hdag, ops.sqrt_brace_hdag1
    f, fdag = ops.fourier, dag(ops.fourier)
    a_adag = ops.a @ ops.a_dag
    f_fdag = f @ fdag
    fdag_f = fdag @ f
    f_ginv_fdag = f @ g_inv @ fdag
    return {
        "eq1_ccr": [
            (a_adag - q * ops.a_dag @ ops.a, g_inv),
            (ops.n_op @ ops.a_dag - ops.a_dag @ ops.n_op, ops.a_dag),
            (ops.n_op @ ops.a - ops.a @ ops.n_op, -ops.a),
        ],
        "eq3_truncation": [
            (ops.a_dag @ dyad(s, s, d), zero),
        ],
        "eq5_nilpotency": [
            (mat_pow(ops.a, d), zero),
            (mat_pow(ops.a_dag, d), zero),
        ],
        "eq6_decomposition": [
            (ops.a, sqrt_g1 @ ops.h_dag),
            (ops.a, ops.h_dag @ sqrt_g),
            (ops.a_dag, sqrt_g @ ops.h),
            (ops.a_dag, ops.h @ sqrt_g1),
        ],
        "eq9_gh": [
            (ops.g @ ops.h, q * ops.h @ ops.g),
            (ops.g @ ops.h_dag, (1.0 / q) * ops.h_dag @ ops.g),
        ],
        "eq10_partial_isometry": [
            (ops.h @ ops.h_dag, eye - dyad(0, 0, d)),
            (ops.h_dag @ ops.h, eye - dyad(s, s, d)),
        ],
        "eq11_products": [
            (ops.a_dag @ ops.a, ops.brace_g),
            (a_adag, ops.brace_g1),
        ],
        "eq12_cyclic": [
            (mat_pow(ops.g, d), eye),
            (mat_pow(ops.h, d), zero),
        ],
        "eq13_f_unitary": [
            (f_fdag, eye),
            (fdag_f, eye),
        ],
        "eq14_h_via_f": [
            (ops.h, f_ginv_fdag - dyad(0, s, d)),
            (ops.h_dag, f @ ops.g @ fdag - dyad(s, 0, d)),
        ],
        "eq15_phase_orthonormal": [
            (fdag_f, eye),  # Gram matrix of the phase states
            (f_fdag, eye),  # completeness of the phase states
        ],
        "eq17_tilde_ccr": [
            (ops.a_tilde @ ops.a_tilde_dag - q * ops.a_tilde_dag @ ops.a_tilde, ops.big_h),
            (f_ginv_fdag, ops.big_h),
        ],
        "eq18_H_relations": [
            (ops.g @ ops.big_h, q * ops.big_h @ ops.g),
            (ops.g @ ops.big_h_dag, (1.0 / q) * ops.big_h_dag @ ops.g),
            (mat_pow(ops.big_h, d), eye),
            (ops.big_h @ ops.big_h_dag, eye),
            (ops.big_h_dag @ ops.big_h, eye),
        ],
        "eq19_polar": [
            (ops.a_tilde, g_inv @ r_down),
            (ops.a_tilde, r_up @ g_inv),
            (ops.a_tilde_dag, r_down @ ops.g),
            (ops.a_tilde_dag, ops.g @ r_up),
            (r_down @ r_down, ops.brace_hdag),
            (r_up @ r_up, ops.brace_hdag1),
        ],
    }


def _nilpotency_is_sharp(ops: OperatorSet) -> bool:
    # sharp at the true index: one power below it the step operators must
    # still be visibly nonzero (at the index itself they vanish, which the
    # eq5 deviation pairs already cover for the full power s+1).  Each entry
    # of that power is a product of m-1 consecutive band weights, which
    # overflows for large s, so the products are compared in log magnitude.
    window = nilpotency_index(ops.config) - 1
    floor = math.log(SHARPNESS_FLOOR)
    return all(_largest_log_product(weights, window) >= floor
               for weights in (np.diagonal(ops.a, 1), np.diagonal(ops.a_dag, -1)))


def _largest_log_product(weights: np.ndarray, window: int) -> float:
    # max over runs of `window` consecutive weights of sum log|w|; a zero
    # weight contributes -inf, so every run through it drops out
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(weights))
    runs = np.lib.stride_tricks.sliding_window_view(logs, window)
    return float(runs.sum(axis=1).max())


def run_all(cfg: AlgebraConfig) -> VerificationReport:
    """Evaluate the full identity catalog for one configuration.

    Every check reports its largest entrywise deviation against the
    threshold tol*(s+1).  Two checks additionally enforce sharpness: eq5
    requires the step-operator powers one below the true nilpotency index
    to stay above ``SHARPNESS_FLOOR``, and eq10 requires the bare shift to
    be genuinely non-unitary; a violation reports deviation ``1.0``.  A
    non-finite deviation fails its check and is reported as the largest
    finite float, so every report serializes as strict JSON.
    """
    ops = build_operator_set(cfg)
    sides = _closed_form_sides(ops)
    threshold = cfg.tol * cfg.dim
    checks = []
    for name in CHECK_NAMES:
        deviation = max(max_abs_diff(lhs, rhs) for lhs, rhs in sides[name])
        if name == "eq5_nilpotency" and not _nilpotency_is_sharp(ops):
            deviation = max(deviation, _SHARPNESS_DEVIATION)
        if name == "eq10_partial_isometry" and is_unitary(ops.h, threshold):
            deviation = max(deviation, _SHARPNESS_DEVIATION)
        checks.append(_result(name, deviation, threshold))
    return VerificationReport(config=cfg, checks=tuple(checks))


def sweep(s_min: int, s_max: int, k: int = 1, tol: float = 1e-9) -> list[VerificationReport]:
    """One report per cutoff s in [s_min, s_max], ascending."""
    if not 2 <= s_min <= s_max:
        raise ValueError(f"need 2 <= s_min <= s_max, got [{s_min}, {s_max}]")
    return [run_all(AlgebraConfig(s=s, k=k, tol=tol)) for s in range(s_min, s_max + 1)]


# --- naive dyad-sum route ----------------------------------------------------
#
# Pure-Python lists of complex, triple-loop products, q-integers by the
# complex quotient, Fourier entries by direct exponentials.  No numpy, no
# root tables, no conjugation shortcuts.


def _py_zeros(d):
    return [[0j] * d for _ in range(d)]


def _py_eye(d):
    out = _py_zeros(d)
    for i in range(d):
        out[i][i] = 1 + 0j
    return out


def _py_dyad(m, n, d):
    out = _py_zeros(d)
    out[m][n] = 1 + 0j
    return out


def _py_add(x, y):
    return [[u + v for u, v in zip(rx, ry)] for rx, ry in zip(x, y)]


def _py_sub(x, y):
    return [[u - v for u, v in zip(rx, ry)] for rx, ry in zip(x, y)]


def _py_scale(alpha, x):
    return [[alpha * v for v in row] for row in x]


def _py_mul(x, y):
    d = len(x)
    out = _py_zeros(d)
    for i in range(d):
        for j in range(d):
            acc = 0j
            for l in range(d):
                acc += x[i][l] * y[l][j]
            out[i][j] = acc
    return out


def _py_dag(x):
    d = len(x)
    return [[x[j][i].conjugate() for j in range(d)] for i in range(d)]


def _py_pow(x, p):
    out = _py_eye(len(x))
    for _ in range(p):
        out = _py_mul(out, x)
    return out


def _naive_q_number(x, k, d):
    # complex-quotient form; the integer exponent is reduced mod d, and the
    # exact zeros of the quotient (m = 0, and m = d/2 for even d) are snapped
    # so that square roots do not amplify rounding residue
    m = (k * x) % d
    if m == 0 or 2 * m == d:
        return 0.0
    q = cmath.exp(2j * math.pi * k / d)
    qx = cmath.exp(2j * math.pi * m / d)
    return ((qx - 1.0 / qx) / (q - 1.0 / q)).real


def _naive_sqrt_q_number(x, k, d):
    v = _naive_q_number(x, k, d)
    if v >= 0.0:
        return complex(math.sqrt(v), 0.0)
    return complex(0.0, math.sqrt(-v))


def _naive_operators(cfg: AlgebraConfig) -> dict:
    d, s = cfg.dim, cfg.s
    k = cfg.k % d  # the root is periodic in k; reduce once, exactly
    q = cmath.exp(2j * math.pi * k / d)

    a = _py_zeros(d)
    for n in range(1, d):  # the n = 0 term carries weight sqrt([0]) = 0
        a = _py_add(a, _py_scale(_naive_sqrt_q_number(n, k, d), _py_dyad(n - 1, n, d)))
    a_dag = _py_zeros(d)
    for n in range(0, s):  # the n = s term carries weight sqrt([s+1]) = 0
        a_dag = _py_add(a_dag, _py_scale(_naive_sqrt_q_number(n + 1, k, d), _py_dyad(n + 1, n, d)))

    n_op = _py_zeros(d)
    g = _py_zeros(d)
    g_inv = _py_zeros(d)
    brace_g = _py_zeros(d)
    brace_g1 = _py_zeros(d)
    for n in range(d):
        n_op = _py_add(n_op, _py_scale(complex(n), _py_dyad(n, n, d)))
        g = _py_add(g, _py_scale(cmath.exp(2j * math.pi * k * n / d), _py_dyad(n, n, d)))
        g_inv = _py_add(g_inv, _py_scale(cmath.exp(-2j * math.pi * k * n / d), _py_dyad(n, n, d)))
        brace_g = _py_add(brace_g, _py_scale(_naive_q_number(n, k, d), _py_dyad(n, n, d)))
        brace_g1 = _py_add(brace_g1, _py_scale(_naive_q_number(n + 1, k, d), _py_dyad(n, n, d)))

    h = _py_zeros(d)
    for n in range(s):
        h = _py_add(h, _py_dyad(n + 1, n, d))
    h_dag = _py_dag(h)

    f = [[cmath.exp(2j * math.pi * k * m * n / d) / math.sqrt(d) for n in range(d)]
         for m in range(d)]
    f_dag = _py_dag(f)

    big_h = _py_add(h, _py_dyad(0, s, d))
    big_h_dag = _py_dag(big_h)

    a_tilde = _py_mul(_py_mul(f, a), f_dag)
    a_tilde_dag = _py_mul(_py_mul(f, a_dag), f_dag)
    n_tilde = _py_mul(_py_mul(f, n_op), f_dag)

    denom = q - 1.0 / q
    brace_hdag = _py_scale(1.0 / denom, _py_sub(big_h_dag, big_h))
    brace_hdag1 = _py_scale(1.0 / denom,
                            _py_sub(_py_scale(q, big_h_dag), _py_scale(1.0 / q, big_h)))

    sqrt_g = _py_zeros(d)
    sqrt_g1 = _py_zeros(d)
    for n in range(d):
        sqrt_g = _py_add(sqrt_g, _py_scale(_naive_sqrt_q_number(n, k, d), _py_dyad(n, n, d)))
        sqrt_g1 = _py_add(sqrt_g1, _py_scale(_naive_sqrt_q_number(n + 1, k, d), _py_dyad(n, n, d)))
    sqrt_brace_hdag = _py_mul(_py_mul(f, sqrt_g), f_dag)
    sqrt_brace_hdag1 = _py_mul(_py_mul(f, sqrt_g1), f_dag)

    return {
        "a": a, "a_dag": a_dag, "n_op": n_op, "g": g, "g_inv": g_inv,
        "h": h, "h_dag": h_dag, "brace_g": brace_g, "brace_g1": brace_g1,
        "fourier": f, "big_h": big_h, "big_h_dag": big_h_dag,
        "a_tilde": a_tilde, "a_tilde_dag": a_tilde_dag, "n_tilde": n_tilde,
        "brace_hdag": brace_hdag, "brace_hdag1": brace_hdag1,
        "sqrt_g": sqrt_g, "sqrt_g1": sqrt_g1,
        "sqrt_brace_hdag": sqrt_brace_hdag, "sqrt_brace_hdag1": sqrt_brace_hdag1,
        "q": q,
    }


def _naive_sides(cfg: AlgebraConfig, n: dict) -> dict[str, list[tuple[list, list]]]:
    """Naive mirror of ``_closed_form_sides``; same checks, same pair order."""
    d, s = cfg.dim, cfg.s
    q = n["q"]
    eye = _py_eye(d)
    zero = _py_zeros(d)
    f, f_dag = n["fourier"], _py_dag(n["fourier"])
    return {
        "eq1_ccr": [
            (_py_sub(_py_mul(n["a"], n["a_dag"]), _py_scale(q, _py_mul(n["a_dag"], n["a"]))),
             n["g_inv"]),
            (_py_sub(_py_mul(n["n_op"], n["a_dag"]), _py_mul(n["a_dag"], n["n_op"])), n["a_dag"]),
            (_py_sub(_py_mul(n["n_op"], n["a"]), _py_mul(n["a"], n["n_op"])),
             _py_scale(-1.0, n["a"])),
        ],
        "eq3_truncation": [
            (_py_mul(n["a_dag"], _py_dyad(s, s, d)), zero),
        ],
        "eq5_nilpotency": [
            (_py_pow(n["a"], d), zero),
            (_py_pow(n["a_dag"], d), zero),
        ],
        "eq6_decomposition": [
            (n["a"], _py_mul(n["sqrt_g1"], n["h_dag"])),
            (n["a"], _py_mul(n["h_dag"], n["sqrt_g"])),
            (n["a_dag"], _py_mul(n["sqrt_g"], n["h"])),
            (n["a_dag"], _py_mul(n["h"], n["sqrt_g1"])),
        ],
        "eq9_gh": [
            (_py_mul(n["g"], n["h"]), _py_scale(q, _py_mul(n["h"], n["g"]))),
            (_py_mul(n["g"], n["h_dag"]), _py_scale(1.0 / q, _py_mul(n["h_dag"], n["g"]))),
        ],
        "eq10_partial_isometry": [
            (_py_mul(n["h"], n["h_dag"]), _py_sub(eye, _py_dyad(0, 0, d))),
            (_py_mul(n["h_dag"], n["h"]), _py_sub(eye, _py_dyad(s, s, d))),
        ],
        "eq11_products": [
            (_py_mul(n["a_dag"], n["a"]), n["brace_g"]),
            (_py_mul(n["a"], n["a_dag"]), n["brace_g1"]),
        ],
        "eq12_cyclic": [
            (_py_pow(n["g"], d), eye),
            (_py_pow(n["h"], d), zero),
        ],
        "eq13_f_unitary": [
            (_py_mul(f, f_dag), eye),
            (_py_mul(f_dag, f), eye),
        ],
        "eq14_h_via_f": [
            (n["h"], _py_sub(_py_mul(_py_mul(f, n["g_inv"]), f_dag), _py_dyad(0, s, d))),
            (n["h_dag"], _py_sub(_py_mul(_py_mul(f, n["g"]), f_dag), _py_dyad(s, 0, d))),
        ],
        "eq15_phase_orthonormal": [
            (_py_mul(f_dag, f), eye),  # Gram matrix of the phase states
            (_py_mul(f, f_dag), eye),  # completeness of the phase states
        ],
        "eq17_tilde_ccr": [
            (_py_sub(_py_mul(n["a_tilde"], n["a_tilde_dag"]),
                     _py_scale(q, _py_mul(n["a_tilde_dag"], n["a_tilde"]))),
             n["big_h"]),
            (_py_mul(_py_mul(f, n["g_inv"]), f_dag), n["big_h"]),
        ],
        "eq18_H_relations": [
            (_py_mul(n["g"], n["big_h"]), _py_scale(q, _py_mul(n["big_h"], n["g"]))),
            (_py_mul(n["g"], n["big_h_dag"]),
             _py_scale(1.0 / q, _py_mul(n["big_h_dag"], n["g"]))),
            (_py_pow(n["big_h"], d), eye),
            (_py_mul(n["big_h"], n["big_h_dag"]), eye),
            (_py_mul(n["big_h_dag"], n["big_h"]), eye),
        ],
        "eq19_polar": [
            (n["a_tilde"], _py_mul(n["g_inv"], n["sqrt_brace_hdag"])),
            (n["a_tilde"], _py_mul(n["sqrt_brace_hdag1"], n["g_inv"])),
            (n["a_tilde_dag"], _py_mul(n["sqrt_brace_hdag"], n["g"])),
            (n["a_tilde_dag"], _py_mul(n["g"], n["sqrt_brace_hdag1"])),
            (_py_mul(n["sqrt_brace_hdag"], n["sqrt_brace_hdag"]), n["brace_hdag"]),
            (_py_mul(n["sqrt_brace_hdag1"], n["sqrt_brace_hdag1"]), n["brace_hdag1"]),
        ],
    }


# OperatorSet fields compared one-to-one against the naive route.
_ORACLE_OPERATORS = (
    "a", "a_dag", "n_op", "g", "h", "h_dag", "brace_g", "brace_g1",
    "fourier", "big_h", "big_h_dag", "a_tilde", "a_tilde_dag", "n_tilde",
    "brace_hdag", "brace_hdag1", "sqrt_brace_hdag", "sqrt_brace_hdag1",
)


def brute_force_oracle(cfg: AlgebraConfig) -> list[CheckResult]:
    """Cross-route agreement results: every operator, then every check side.

    The first results (named ``op_<name>``) compare each operator against its
    naive reconstruction; the rest carry the catalog names and compare the
    left and right sides of every catalog pair across the two routes, all at
    the fixed threshold ``ORACLE_TOL``.
    """
    if cfg.s > ORACLE_MAX_S:
        raise ValueError(
            f"the naive route is deliberately O(s^4); s must be <= {ORACLE_MAX_S}, got {cfg.s}"
        )
    ops = build_operator_set(cfg)
    closed = _closed_form_sides(ops)
    naive_ops = _naive_operators(cfg)
    naive = _naive_sides(cfg, naive_ops)

    results = []
    for name in _ORACLE_OPERATORS:
        dev = max_abs_diff(getattr(ops, name), np.array(naive_ops[name]))
        results.append(_result(f"op_{name}", dev, ORACLE_TOL))
    for name in CHECK_NAMES:
        dev = 0.0
        for (lhs_c, rhs_c), (lhs_n, rhs_n) in zip(closed[name], naive[name]):
            dev = max(dev,
                      max_abs_diff(lhs_c, np.array(lhs_n)),
                      max_abs_diff(rhs_c, np.array(rhs_n)))
        results.append(_result(name, dev, ORACLE_TOL))
    return results
