import contextlib
import dataclasses
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qboson.verify
from qboson import cli
from qboson import (
    CHECK_NAMES,
    AlgebraConfig,
    annihilation,
    brute_force_oracle,
    build_operator_set,
    mat_pow,
    max_abs_diff,
    nilpotency_index,
    run_all,
    sweep,
)
from qboson.verify import (
    _NUMPY,
    ORACLE_TOL,
    SHARPNESS_FLOOR,
    _catalog,
    _closed_operators,
    _result,
    _shift_is_sharp,
    _step_chain_is_sharp,
)


def test_catalog_has_fourteen_named_checks():
    report = run_all(AlgebraConfig(2))
    assert tuple(c.name for c in report.checks) == CHECK_NAMES
    assert len(CHECK_NAMES) == 14


@pytest.mark.parametrize("s", [2, 3, 5, 8, 16, 32])
def test_run_all_passes(s):
    cfg = AlgebraConfig(s)
    report = run_all(cfg)
    assert report.overall_pass
    for check in report.checks:
        assert check.threshold == cfg.tol * cfg.dim
        assert check.deviation >= 0.0
        assert check.passed == (check.deviation <= check.threshold)


def test_run_all_deterministic():
    cfg = AlgebraConfig(7)
    assert run_all(cfg) == run_all(cfg)


def test_monotone_in_tolerance():
    tight = run_all(AlgebraConfig(9, tol=1e-9))
    loose = run_all(AlgebraConfig(9, tol=1e-6))
    for a, b in zip(tight.checks, loose.checks):
        assert a.deviation == b.deviation
        if a.passed:
            assert b.passed


def test_unreachable_tolerance_fails():
    report = run_all(AlgebraConfig(5, tol=1e-30))
    assert not report.overall_pass
    assert any(c.deviation > 0.0 for c in report.checks)


def test_power_below_index_has_unit_magnitude_at_s2():
    # |sqrt[1] * sqrt[2]| = 1: the surviving entry of the squared step operator
    a = annihilation(AlgebraConfig(2))
    assert max_abs_diff(mat_pow(a, 2), np.zeros((3, 3))) == pytest.approx(1.0, abs=1e-12)


def _with_step_weights(ops, weights_of):
    # the operator set with both step operators' band weights replaced
    w = weights_of(np.diagonal(ops.a, 1).copy())
    return dataclasses.replace(ops, a=np.diag(w, k=1), a_dag=np.diag(w, k=-1))


def _zero_at(index):
    def mutate(w):
        w[index] = 0
        return w
    return mutate


def test_sharpness_violation_reports_unit_deviation(monkeypatch):
    # implementations whose "a^(s+1) = 0" holds for the wrong reason: the
    # power deviations read 0, and the sharpness check alone reports 1.0
    for s in (6, 7):  # an unsplit chain (s+1 odd) and a split one (s+1 even)
        cfg = AlgebraConfig(s)
        ops = build_operator_set(cfg)
        mutants = {
            "all-zero a": _with_step_weights(ops, np.zeros_like),
            "chain broken before the index": _with_step_weights(ops, _zero_at(1)),
            "power vanishing too early": _with_step_weights(ops, lambda w: 1e-7 * w),
            "a† alone broken": dataclasses.replace(ops, a_dag=0 * ops.a_dag),
        }
        if (s + 1) % 2 == 0:
            mutants["midpoint zero filled in"] = _with_step_weights(
                ops, lambda w: np.where(w == 0, 1.0, w))
        for label, mutant in mutants.items():
            monkeypatch.setattr(qboson.verify, "build_operator_set", lambda _cfg: mutant)
            report = run_all(cfg)
            eq5 = {c.name: c for c in report.checks}["eq5_nilpotency"]
            assert not eq5.passed and eq5.deviation == 1.0, (s, label)
            assert not report.overall_pass


# every admissible root is sharp, at 46..64 too, where the product of m-1
# weights falls below the floor for some k: the check reads each weight
@pytest.mark.parametrize("s", [*range(2, 33), 46, 48, 50, 64])
def test_sharpness_in_log_magnitude_matches_dense_powers(s):
    for k in range(1, s + 1):
        if math.gcd(k, s + 1) != 1:
            continue
        ops = build_operator_set(AlgebraConfig(s, k=k))
        assert _step_chain_is_sharp(ops), k
        m = nilpotency_index(ops.config)
        for x in (ops.a, ops.a_dag):
            # the chain's zero pattern is the powers': a^m = 0, and a^(m-1)
            # holds a product of m-1 weights, each at least 1/sqrt(s+1).  The
            # powers are taken of sqrt(s+1) a, whose entries stay above 1 in
            # magnitude, so no product runs through subnormal floats
            scaled = math.sqrt(s + 1) * x
            assert not np.any(np.linalg.matrix_power(scaled, m)), k
            largest = np.abs(np.linalg.matrix_power(scaled, m - 1)).max()
            assert math.log(largest) >= -1e-9, k


@pytest.mark.parametrize("s, k", [(46, 11), (64, 16), (256, 37)])
def test_roots_the_product_floor_failed_now_pass(s, k):
    report = run_all(AlgebraConfig(s, k=k))
    assert report.overall_pass, [(c.name, c.deviation) for c in report.checks if not c.passed]


def test_sharpness_floor_applies_to_each_weight():
    # weights of 1e-3 each are visible, though a^(m-1) is about 1e-96
    ops = build_operator_set(AlgebraConfig(32))
    scaled = _with_step_weights(ops, lambda w: 1e-3 * w / np.abs(w))
    assert _step_chain_is_sharp(scaled)
    faint = _with_step_weights(ops, lambda w: SHARPNESS_FLOOR / 10 * w / np.abs(w))
    assert not _step_chain_is_sharp(faint)


@st.composite
def admissible_configs(draw):
    s = draw(st.integers(min_value=2, max_value=256))
    k = draw(st.sampled_from([k for k in range(-s - 1, s + 2) if math.gcd(k, s + 1) == 1]))
    return AlgebraConfig(s, k=k)


@settings(max_examples=6, deadline=None)
@given(admissible_configs())
def test_every_admissible_root_passes_and_verifies_as_json(cfg):
    assert run_all(cfg).overall_pass
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--s", str(cfg.s), "--k", str(cfg.k), "--json"])
    assert code == 0
    assert json.loads(out.getvalue(), parse_constant=_reject)["overall_pass"] is True


def _reject(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


@pytest.mark.parametrize("deviation", [math.nan, math.inf, -math.inf])
def test_non_finite_deviation_fails_with_a_finite_value(deviation):
    check = _result("eq5_nilpotency", deviation, 1e300)
    assert not check.passed
    assert math.isfinite(check.deviation) and check.deviation > check.threshold
    json.dumps(check.to_json_dict(), allow_nan=False)


def test_catalog_powers_go_through_the_module_binding(monkeypatch):
    # a wrapper put on verify.mat_pow (as a tracer does) sees every power
    calls = []

    def counting(x, p):
        calls.append(p)
        return mat_pow(x, p)

    monkeypatch.setattr(qboson.verify, "mat_pow", counting)
    run_all(AlgebraConfig(4))
    assert calls == [5] * 5


def _assert_matches_dense(got, dense):
    assert np.all(np.abs(got - dense) <= 1e-12 * np.abs(dense))


# 47 and 48 straddle mul_sparse's crossover at dimension 48, 63 and 64 lie above it
@pytest.mark.parametrize("s", [*range(2, 17), 47, 48, 63, 64])
def test_diagonal_shortcuts_match_the_dense_products(s):
    # every dmul/muld site of the catalog against the dense product it stands
    # for, and every muls site against it entry for entry, at every root
    calls = {"diagonal": 0, "sparse": 0}

    def against_dense(shortcut, kind):
        def product(x, y):
            got = shortcut(x, y)
            if kind == "sparse":
                assert np.array_equal(got, x @ y)
            else:
                _assert_matches_dense(got, x @ y)
            calls[kind] += 1
            return got
        return product

    ar = SimpleNamespace(**{**vars(_NUMPY),
                            "dmul": against_dense(_NUMPY.dmul, "diagonal"),
                            "muld": against_dense(_NUMPY.muld, "diagonal"),
                            "muls": against_dense(_NUMPY.muls, "sparse")})
    for k in range(1, s + 1):
        if math.gcd(k, s + 1) == 1:
            cfg = AlgebraConfig(s=s, k=k)
            calls.update(diagonal=0, sparse=0)
            for _ in _catalog(ar, _closed_operators(build_operator_set(cfg)), cfg):
                pass
            assert calls == {"diagonal": 23, "sparse": 7}


@pytest.mark.parametrize("s", [2, 3, 8, 33])
def test_shift_sharpness_passes_the_bare_shift_and_flags_a_unitary_one(s):
    cfg = AlgebraConfig(s)
    ops = build_operator_set(cfg)
    unitary = dataclasses.replace(ops, h=ops.big_h, h_dag=ops.big_h_dag)
    for shift_set, sharp in ((ops, True), (unitary, False)):
        pairs = dict(_catalog(_NUMPY, _closed_operators(shift_set), cfg))["eq10_partial_isometry"]
        assert _shift_is_sharp(pairs, cfg.tol * cfg.dim) == sharp


def test_report_json_schema():
    cfg = AlgebraConfig(3, tol=1e-9)
    doc = run_all(cfg).to_json_dict()
    assert doc["s"] == 3 and doc["k"] == 1 and doc["tol"] == 1e-9
    assert isinstance(doc["overall_pass"], bool)
    assert [c["name"] for c in doc["checks"]] == list(CHECK_NAMES)
    for entry in doc["checks"]:
        assert set(entry) == {"name", "deviation", "threshold", "pass"}
    # serializable and stable through a round trip
    assert json.loads(json.dumps(doc)) == doc


class TestSweep:
    def test_single(self):
        reports = sweep(2, 2)
        assert len(reports) == 1
        assert reports[0].config.s == 2
        assert reports[0].overall_pass

    def test_ascending_order(self):
        assert [r.config.s for r in sweep(2, 9)] == list(range(2, 10))

    @pytest.mark.parametrize("lo, hi", [(3, 2), (1, 5), (-2, 4)])
    def test_bad_range(self, lo, hi):
        with pytest.raises(ValueError):
            sweep(lo, hi)

    def test_skips_cutoffs_where_k_is_not_coprime(self):
        reports = sweep(2, 9, k=2)
        assert [r.config.s for r in reports] == [2, 4, 6, 8]
        assert all(r.overall_pass for r in reports)

    @pytest.mark.parametrize("lo, hi, k", [(3, 3, 2), (5, 5, 3), (3, 5, 60)])
    def test_no_admissible_cutoff_rejected(self, lo, hi, k):
        with pytest.raises(ValueError):
            sweep(lo, hi, k=k)


class TestBruteForceOracle:
    def test_rejects_large_s(self):
        with pytest.raises(ValueError):
            brute_force_oracle(AlgebraConfig(9))

    @pytest.mark.parametrize("s", range(2, 9))
    def test_routes_agree(self, s):
        results = brute_force_oracle(AlgebraConfig(s))
        assert all(c.passed for c in results), [
            (c.name, c.deviation) for c in results if not c.passed
        ]
        assert all(c.threshold == ORACLE_TOL for c in results)

    def test_covers_operators_and_catalog(self):
        names = [c.name for c in brute_force_oracle(AlgebraConfig(2))]
        assert names[-len(CHECK_NAMES):] == list(CHECK_NAMES)
        # the op_* names are read off the OperatorSet fields, and are pinned
        # here so that renaming a field cannot rename a result unnoticed
        assert names[:-len(CHECK_NAMES)] == [f"op_{n}" for n in (
            "a", "a_dag", "n_op", "g", "h", "h_dag", "brace_g", "brace_g1",
            "fourier", "big_h", "big_h_dag", "a_tilde", "a_tilde_dag", "n_tilde",
            "brace_hdag", "brace_hdag1", "sqrt_brace_hdag", "sqrt_brace_hdag1",
        )]

    def test_oracle_with_nontrivial_root_index(self):
        results = brute_force_oracle(AlgebraConfig(6, k=4))
        assert all(c.passed for c in results)
