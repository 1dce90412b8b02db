"""Identity catalog, verification reports, and the naive cross-check route.

The 14-check catalog is written once, in ``_catalog``, over a small
arithmetic interface, and runs in two independent arithmetics.  ``run_all``
evaluates it in ``cmatrix._CLOSED``, the numpy arithmetic, on the
closed-form operator set for one configuration, and ``sweep`` repeats that
over a range of cutoffs.
``brute_force_oracle`` also evaluates it with a deliberately naive
pure-Python list kernel on operators whose dyad entries are placed from
their expansions (complex-quotient q-integers, direct exponentials), and
reports how closely the two routes agree; it exists to catch drift, not to
be fast, and is capped at small s.  Its products accumulate each row over
the left factor's nonzero entries, which gives the triple loop's result bit
for bit: the terms left out are exact zeros that cannot change a sum.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .algebra import (OperatorSet, _polar_pairs, _record_factor_errors, build_operator_set,
                      nilpotency_index)
# unused here; perfbench's tracer test wraps and restores this binding
from .algebra import phase_state  # noqa: F401
from .cmatrix import _CLOSED, _Dft, _diagonal, max_abs_diff
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

# Every band weight of the step operators but the one exact zero that sets
# the nilpotency index must stay visibly nonzero, and the bare shift must
# stay visibly non-unitary; otherwise an all-zero implementation would pass
# every "X = 0" identity.  Every true weight is at least 1/sqrt(s+1).
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


def _catalog(ar: SimpleNamespace, x: SimpleNamespace,
             cfg: AlgebraConfig) -> Iterator[tuple[str, list[tuple]]]:
    """Yield ``(name, pairs)`` for every catalog check, in ``CHECK_NAMES`` order.

    ``pairs`` holds the check's (lhs, rhs) sides.  Written once over an
    arithmetic ``ar`` (mul, sub, scale, dag, pow, eye, zeros, dyad) and one
    route's operators ``x``: ``_CLOSED`` with ``_closed_operators`` for
    the closed-form route, ``_NAIVE`` with ``_naive_operators`` for the naive
    one.  There, as the set stores them, the monomials, the identity, the
    zero and the dyads are column maps, so a check of them alone costs O(d),
    and the phase braces and radial roots are circulants, so each of eq19's
    squares is one matrix-vector product, compared with its brace in O(d);
    ``x.fourier_dag`` is the ideal DFT's adjoint, whose products with a
    dense matrix are FFTs, in O(d^2 log d).  eq19's four clock pairs are
    ``algebra._polar_pairs``, which ``polar_decompose`` reduces too.  The
    phase states are the columns of the Fourier matrix, and a product
    that two checks share is formed once and dropped after its last use, so
    a caller that reduces each check as it arrives holds a few sides at a
    time.  Products associate as they would written with numpy's ``@`` and
    ``*``: ``q a† a`` is ``(q a†) a``.
    """
    mul, sub, scale = ar.mul, ar.sub, ar.scale
    d, s, q = cfg.dim, cfg.s, x.q
    eye, zero = ar.eye(d), ar.zeros(d)
    r_down, r_up = x.sqrt_brace_hdag, x.sqrt_brace_hdag1
    a_adag = mul(x.a, x.a_dag)
    yield "eq1_ccr", [
        (sub(a_adag, mul(scale(q, x.a_dag), x.a)), x.g_inv),
        (sub(mul(x.n_op, x.a_dag), mul(x.a_dag, x.n_op)), x.a_dag),
        (sub(mul(x.n_op, x.a), mul(x.a, x.n_op)), scale(-1.0, x.a)),
    ]
    yield "eq3_truncation", [
        (mul(x.a_dag, ar.dyad(s, s, d)), zero),
    ]
    yield "eq5_nilpotency", [
        (ar.pow(x.a, d), zero),
        (ar.pow(x.a_dag, d), zero),
    ]
    yield "eq6_decomposition", [
        (x.a, mul(x.sqrt_g1, x.h_dag)),
        (x.a, mul(x.h_dag, x.sqrt_g)),
        (x.a_dag, mul(x.sqrt_g, x.h)),
        (x.a_dag, mul(x.h, x.sqrt_g1)),
    ]
    yield "eq9_gh", [
        (mul(x.g, x.h), mul(scale(q, x.h), x.g)),
        (mul(x.g, x.h_dag), mul(scale(1.0 / q, x.h_dag), x.g)),
    ]
    yield "eq10_partial_isometry", [
        (mul(x.h, x.h_dag), sub(eye, ar.dyad(0, 0, d))),
        (mul(x.h_dag, x.h), sub(eye, ar.dyad(s, s, d))),
    ]
    yield "eq11_products", [
        (mul(x.a_dag, x.a), x.brace_g),
        (a_adag, x.brace_g1),
    ]
    del a_adag
    yield "eq12_cyclic", [
        (ar.pow(x.g, d), eye),
        (ar.pow(x.h, d), zero),
    ]
    # F F† multiplies the built F by its own adjoint, so eq13 checks that it
    # is unitary; every other F† is the ideal DFT's adjoint ``fourier_dag``,
    # so F† F checks that the built F is that transform
    f, fdag = x.fourier, x.fourier_dag
    f_fdag = mul(f, ar.dag(f))
    fdag_f = mul(fdag, f)
    yield "eq13_f_unitary", [
        (f_fdag, eye),
        (fdag_f, eye),
    ]
    f_ginv_fdag = mul(mul(f, x.g_inv), fdag)
    h_dag_side = sub(mul(mul(f, x.g), fdag), ar.dyad(s, 0, d))
    del fdag  # every side is dropped after its last use
    yield "eq14_h_via_f", [
        (x.h, sub(f_ginv_fdag, ar.dyad(0, s, d))),
        (x.h_dag, h_dag_side),
    ]
    del h_dag_side
    yield "eq15_phase_orthonormal", [
        (fdag_f, eye),  # Gram matrix of the phase states
        (f_fdag, eye),  # completeness of the phase states
    ]
    del f_fdag, fdag_f
    yield "eq17_tilde_ccr", [
        (sub(mul(x.a_tilde, x.a_tilde_dag), mul(scale(q, x.a_tilde_dag), x.a_tilde)),
         x.big_h),
        (f_ginv_fdag, x.big_h),
    ]
    del f_ginv_fdag
    yield "eq18_H_relations", [
        (mul(x.g, x.big_h), mul(scale(q, x.big_h), x.g)),
        (mul(x.g, x.big_h_dag), mul(scale(1.0 / q, x.big_h_dag), x.g)),
        (ar.pow(x.big_h, d), eye),
        (mul(x.big_h, x.big_h_dag), eye),
        (mul(x.big_h_dag, x.big_h), eye),
    ]
    yield "eq19_polar", [
        *_polar_pairs(ar, vars(x), x.g_inv),
        (mul(r_down, r_down), x.brace_hdag),
        (mul(r_up, r_up), x.brace_hdag1),
    ]


def _closed_operators(ops: OperatorSet) -> SimpleNamespace:
    # the set as stored, its structures as they are, with g⁻¹, √[N] and √[N+1]
    # (a's and a†'s weights) and F†, the ideal DFT's adjoint, as the naive route has them
    stored = vars(ops)
    return SimpleNamespace(
        **stored, g_inv=_diagonal(stored["g"].weights.conj()),
        sqrt_g=_diagonal(stored["a"].weights), sqrt_g1=_diagonal(stored["a_dag"].weights),
        fourier_dag=_Dft(ops.config.k, ops.config.dim), q=primitive_root(ops.config))


def _step_chain_is_sharp(ops: OperatorSet) -> bool:
    # the band weights √[1..s] of a and a† must all be at least the floor,
    # except √[m] at the nilpotency index m < s+1 (the midpoint when s+1 is
    # even), which must be exactly zero: that one zero splits the chain, so
    # the powers vanish at m and not before
    m = nilpotency_index(ops.config)
    split = np.arange(ops.config.s) == m - 1
    a, a_dag = vars(ops)["a"], vars(ops)["a_dag"]  # column maps: a's column 0 and a†'s s are empty
    return all(np.all(magnitudes[split] == 0) and np.all(magnitudes[~split] >= SHARPNESS_FLOOR)
               for magnitudes in (np.abs(a.weights[1:]), np.abs(a_dag.weights[:-1])))


def _shift_is_sharp(eq10_pairs: list[tuple], threshold: float) -> bool:
    # the eq10 left sides are h h† and h† h; the bare shift is visibly
    # non-unitary when either one misses the identity by more than threshold
    eye = _CLOSED.eye(eq10_pairs[0][0].shape[0])
    return any(max_abs_diff(lhs, eye) > threshold for lhs, _ in eq10_pairs)


def run_all(cfg: AlgebraConfig) -> VerificationReport:
    """Evaluate the full identity catalog for one configuration.

    Every check reports its largest entrywise deviation against the
    threshold tol*(s+1).  Two checks additionally enforce sharpness: eq5
    requires every band weight of the step operators to be at least
    ``SHARPNESS_FLOOR``, except the one exact zero at the true nilpotency
    index, and eq10 requires the bare shift to be genuinely non-unitary; a
    violation reports deviation ``1.0``.  A non-finite deviation fails its
    check and is reported as the largest finite float, so every report
    serializes as strict JSON.  Each check is reduced as the catalog forms
    it, and its sides are dropped before the next check is formed.
    """
    ops = build_operator_set(cfg)
    threshold = cfg.tol * cfg.dim
    checks = []
    for name, pairs in _catalog(_CLOSED, _closed_operators(ops), cfg):
        deviations = [max_abs_diff(lhs, rhs) for lhs, rhs in pairs]
        deviation = max(deviations)
        if name == "eq19_polar":  # the four clock pairs', which polar_decompose reads
            _record_factor_errors(ops, deviations)
        if name == "eq5_nilpotency" and not _step_chain_is_sharp(ops):
            deviation = max(deviation, _SHARPNESS_DEVIATION)
        if name == "eq10_partial_isometry" and not _shift_is_sharp(pairs, threshold):
            deviation = max(deviation, _SHARPNESS_DEVIATION)
        checks.append(_result(name, deviation, threshold))
        del pairs  # before the catalog forms the next check's sides
    return VerificationReport(config=cfg, checks=tuple(checks))


def sweep(s_min: int, s_max: int, k: int = 1, tol: float = 1e-9) -> list[VerificationReport]:
    """One report per admissible cutoff s in [s_min, s_max], ascending.

    A cutoff where k shares a factor with s+1 has no primitive root q and is
    skipped.  A range with no admissible cutoff raises ``ValueError``, so a
    sweep never passes vacuously on zero reports.
    """
    return list(_sweep_reports(s_min, s_max, k, tol))


def _sweep_reports(s_min: int, s_max: int, k: int, tol: float) -> Iterator[VerificationReport]:
    # each report made when asked for; the range check reads at most |k|
    # cutoffs, as s+1 = 1 mod |k| is admissible (and for k = 0 none is)
    if not 2 <= s_min <= s_max:
        raise ValueError(f"need 2 <= s_min <= s_max, got [{s_min}, {s_max}]")
    if not any(math.gcd(k, s + 1) == 1 for s in range(s_min, min(s_max, s_min + abs(k) - 1) + 1)):
        raise ValueError(f"k={k} shares a factor with s+1 for every s in [{s_min}, {s_max}]")
    return (run_all(AlgebraConfig(s=s, k=k, tol=tol))
            for s in range(s_min, s_max + 1) if math.gcd(k, s + 1) == 1)


# --- naive route --------------------------------------------------------------
#
# Pure-Python lists of complex, q-integers by the complex quotient, Fourier
# entries by direct exponentials.  No numpy, no root tables, no conjugation
# shortcuts.  A product adds up rows of the right factor, scaled by the left
# factor's nonzero entries in ascending column order: the triple loop's sums
# bit for bit, in O(d^2) when the left factor is a monomial.  Each operator
# is the zero matrix with its expansion's dyad entries placed:
# a = sum_n sqrt([n]) |n-1><n| puts sqrt([n]) at (n-1, n).


def _py_zeros(d):
    return [[0j] * d for _ in range(d)]


def _py_diagonal(weights):
    out = _py_zeros(len(weights))
    for n, w in enumerate(weights):
        out[n][n] = complex(w)
    return out


def _py_eye(d):
    return _py_diagonal([1] * d)


def _py_dyad(m, n, d):
    out = _py_zeros(d)
    out[m][n] = 1 + 0j
    return out


def _py_sub(x, y):
    return [[u - v for u, v in zip(rx, ry)] for rx, ry in zip(x, y)]


def _py_scale(alpha, x):
    return [[alpha * v for v in row] for row in x]


def _py_mul(x, y):
    # Row by row: each output entry takes the triple loop's += of x[i][l] *
    # y[l][j] in ascending l, minus the terms of a zero x[i][l].  For finite
    # y such a term is +-0, and adding +-0 to an accumulator that starts at
    # 0j (so is never -0) leaves it unchanged: the result is the triple
    # loop's bit for bit, signed zeros included.  No sum(), whose float
    # algorithm changed in Python 3.12.
    d = len(x)
    out = []
    for row in x:
        acc = [0j] * d
        for u, y_row in zip(row, y):
            if u:
                acc = [a + u * v for a, v in zip(acc, y_row)]
        out.append(acc)
    return out


def _py_dag(x):
    d = len(x)
    return [[x[j][i].conjugate() for j in range(d)] for i in range(d)]


def _py_pow(x, p):
    # bit for bit the identity-first product I x ... x, one product fewer
    if p == 0:
        return _py_eye(len(x))
    out = x
    for _ in range(p - 1):
        out = _py_mul(out, x)
    return out


# every product by the one row kernel, which skips zero entries by value and
# knows no structure type, so the oracle checks each shortcut of the
# closed-form route against the triple loop's sums
_NAIVE = SimpleNamespace(
    mul=_py_mul, sub=_py_sub, scale=_py_scale, dag=_py_dag, pow=_py_pow,
    eye=_py_eye, zeros=_py_zeros, dyad=_py_dyad,
)


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
        a[n - 1][n] = _naive_sqrt_q_number(n, k, d)
    a_dag = _py_zeros(d)
    for n in range(0, s):  # the n = s term carries weight sqrt([s+1]) = 0
        a_dag[n + 1][n] = _naive_sqrt_q_number(n + 1, k, d)

    n_op = _py_diagonal(range(d))
    g = _py_diagonal([cmath.exp(2j * math.pi * k * n / d) for n in range(d)])
    g_inv = _py_diagonal([cmath.exp(-2j * math.pi * k * n / d) for n in range(d)])
    brace_g = _py_diagonal([_naive_q_number(n, k, d) for n in range(d)])
    brace_g1 = _py_diagonal([_naive_q_number(n + 1, k, d) for n in range(d)])

    h = _py_zeros(d)
    for n in range(s):
        h[n + 1][n] = 1 + 0j
    h_dag = _py_dag(h)

    f = [[cmath.exp(2j * math.pi * k * m * n / d) / math.sqrt(d) for n in range(d)]
         for m in range(d)]
    f_dag = _py_dag(f)

    big_h = [row[:] for row in h]
    big_h[0][s] = 1 + 0j
    big_h_dag = _py_dag(big_h)

    a_tilde = _py_mul(_py_mul(f, a), f_dag)
    a_tilde_dag = _py_mul(_py_mul(f, a_dag), f_dag)
    n_tilde = _py_mul(_py_mul(f, n_op), f_dag)

    denom = q - 1.0 / q
    brace_hdag = _py_scale(1.0 / denom, _py_sub(big_h_dag, big_h))
    brace_hdag1 = _py_scale(1.0 / denom,
                            _py_sub(_py_scale(q, big_h_dag), _py_scale(1.0 / q, big_h)))

    sqrt_g = _py_diagonal([_naive_sqrt_q_number(n, k, d) for n in range(d)])
    sqrt_g1 = _py_diagonal([_naive_sqrt_q_number(n + 1, k, d) for n in range(d)])
    sqrt_brace_hdag = _py_mul(_py_mul(f, sqrt_g), f_dag)
    sqrt_brace_hdag1 = _py_mul(_py_mul(f, sqrt_g1), f_dag)

    return {
        "a": a, "a_dag": a_dag, "n_op": n_op, "g": g, "g_inv": g_inv,
        "h": h, "h_dag": h_dag, "brace_g": brace_g, "brace_g1": brace_g1,
        "fourier": f, "fourier_dag": f_dag, "big_h": big_h, "big_h_dag": big_h_dag,
        "a_tilde": a_tilde, "a_tilde_dag": a_tilde_dag, "n_tilde": n_tilde,
        "brace_hdag": brace_hdag, "brace_hdag1": brace_hdag1,
        "sqrt_g": sqrt_g, "sqrt_g1": sqrt_g1,
        "sqrt_brace_hdag": sqrt_brace_hdag, "sqrt_brace_hdag1": sqrt_brace_hdag1,
        "q": q,
    }


# OperatorSet fields compared one-to-one against the naive route.
_ORACLE_OPERATORS = tuple(f.name for f in fields(OperatorSet) if f.name != "config")


def brute_force_oracle(cfg: AlgebraConfig) -> list[CheckResult]:
    """Cross-route agreement results: every operator, then every check side.

    The first results (named ``op_<name>``) compare each operator against its
    naive reconstruction; the rest carry the catalog names and compare the
    left and right sides of every catalog pair across the two routes, all at
    the fixed threshold ``ORACLE_TOL``.
    """
    if cfg.s > ORACLE_MAX_S:
        raise ValueError(
            "the naive route is a pure-Python cross-check for small cutoffs; "
            f"s must be <= {ORACLE_MAX_S}, got {cfg.s}"
        )
    ops = build_operator_set(cfg)
    naive_ops = SimpleNamespace(**_naive_operators(cfg))

    results = []
    stored = vars(ops)  # a structure is compared as stored, and a map stays unformed
    for name in _ORACLE_OPERATORS:
        dev = max_abs_diff(stored[name], np.array(getattr(naive_ops, name)))
        results.append(_result(f"op_{name}", dev, ORACLE_TOL))
    routes = zip(_catalog(_CLOSED, _closed_operators(ops), cfg),
                 _catalog(_NAIVE, naive_ops, cfg), strict=True)
    for (name, closed), (_, naive) in routes:
        dev = 0.0
        for (lhs_c, rhs_c), (lhs_n, rhs_n) in zip(closed, naive, strict=True):
            dev = max(dev,
                      max_abs_diff(lhs_c, np.array(lhs_n)),
                      max_abs_diff(rhs_c, np.array(rhs_n)))
        results.append(_result(name, dev, ORACLE_TOL))
    return results
