import contextlib
import dataclasses
import gc
import io
import json
import math
import re
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qboson.cmatrix
import qboson.verify
from qboson import cli
from qboson import (
    CHECK_NAMES,
    AlgebraConfig,
    annihilation,
    brute_force_oracle,
    build_operator_set,
    dyad,
    fourier,
    mat_pow,
    max_abs_diff,
    nilpotency_index,
    polar_decompose,
    run_all,
    sweep,
)
from qboson.algebra import OperatorSet, _hermiticity_error
from qboson.cmatrix import _Circulant, _CLOSED, _ColumnMap, _Dft, dag
from qboson.verify import (
    _NAIVE,
    ORACLE_TOL,
    SHARPNESS_FLOOR,
    _catalog,
    _closed_operators,
    _result,
    _shift_is_sharp,
    _step_chain_is_sharp,
)

from bounds import (assert_fft_product_bound, assert_product_bound, assert_relative, bit_equal,
                    coprime_configs)


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


def _mutant(ops, **changes):
    # the set with these stored values changed and every other kept as it is
    return OperatorSet(**{**vars(ops), **changes})


def _with_step_weights(ops, weights_of):
    # the operator set with both step operators' band weights replaced; a's
    # column 0 and a†'s column s stay empty
    a, a_dag = vars(ops)["a"], vars(ops)["a_dag"]
    w = weights_of(a.weights[1:].copy())
    return _mutant(ops, a=_ColumnMap(a.rows, np.concatenate(([0], w))),
                   a_dag=_ColumnMap(a_dag.rows, np.concatenate((w, [0]))))


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
            "a† alone broken": _mutant(ops, a_dag=_CLOSED.scale(0, vars(ops)["a_dag"])),
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


# the fields a set stores as structures, each with its type
_STRUCTURES = {
    **dict.fromkeys(("a", "a_dag", "n_op", "g", "h", "h_dag", "brace_g", "brace_g1", "big_h",
                     "big_h_dag"), _ColumnMap),
    **dict.fromkeys(("n_tilde", "brace_hdag", "brace_hdag1", "sqrt_brace_hdag",
                     "sqrt_brace_hdag1"), _Circulant),
}


def test_replace_keeps_the_monomials_as_column_maps(monkeypatch):
    # a mutant made from the stored values keeps every other value, the
    # fifteen structures (ten column maps, five circulants) included, as the
    # same object, and forms no monomial; dataclasses.replace, which reads
    # every field as a matrix, is refused, as is a structured field given a
    # matrix or the other kind of structure
    cfg = AlgebraConfig(6)
    ops = build_operator_set(cfg)
    assert {name: type(value) for name, value in vars(ops).items()
            if isinstance(value, (_ColumnMap, _Circulant))} == _STRUCTURES
    maps = [value for value in vars(ops).values() if isinstance(value, _ColumnMap)]
    circulant = _Circulant(np.zeros(cfg.dim, dtype=complex))
    for name, kind in _STRUCTURES.items():
        new = _CLOSED.scale(0, vars(ops)[name]) if kind is _ColumnMap else circulant
        mutant = _mutant(ops, **{name: new})
        assert vars(mutant)[name] is new
        assert all(vars(mutant)[other] is vars(ops)[other] for other in vars(ops) if other != name)
    assert all(m.dense is None for m in maps)
    idiom = re.escape("OperatorSet(**{**vars(ops), **changes})")
    with pytest.raises(TypeError, match=idiom):
        dataclasses.replace(ops)
    for name, wrong in (("a_dag", ops.a_dag), ("a_dag", circulant),
                        ("sqrt_brace_hdag", ops.sqrt_brace_hdag), ("n_tilde", vars(ops)["g"])):
        with pytest.raises(TypeError, match=f"OperatorSet.{name} .*{idiom}"):
            _mutant(ops, **{name: wrong})
    mutant = _mutant(ops, a_dag=_CLOSED.scale(0, vars(ops)["a_dag"]))
    monkeypatch.setattr(qboson.verify, "build_operator_set", lambda _cfg: mutant)
    eq5 = {c.name: c for c in run_all(cfg).checks}["eq5_nilpotency"]
    assert not eq5.passed and eq5.deviation == 1.0


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


# roots where the product of m-1 step weights falls far below the sharpness
# floor, though no one weight does
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


def test_both_arithmetics_have_the_same_operations():
    # the catalog runs on either, so neither may gain or lose an operation
    operations = {"mul", "sub", "scale", "dag", "pow", "eye", "zeros", "dyad"}
    assert set(vars(_NAIVE)) == operations
    assert set(vars(_CLOSED)) == operations


def test_catalog_powers_go_through_the_module_binding(monkeypatch):
    # a wrapper put on cmatrix.mat_pow (as a tracer does) sees every power
    calls = []

    def counting(x, p):
        calls.append(p)
        return mat_pow(x, p)

    monkeypatch.setattr(qboson.cmatrix, "mat_pow", counting)
    run_all(AlgebraConfig(4))
    assert calls == [5] * 5


@pytest.mark.parametrize("s", [*range(2, 17), 47, 48, 63, 64])
def test_diagonal_shortcuts_match_the_dense_products(s):
    # every product of the catalog, on the structures the set stores, against
    # the dense product of the matrices they stand for, at every root; a
    # product of two circulants (eq19's squares) within the circulant
    # product's bound
    products = []
    ar = SimpleNamespace(**vars(_CLOSED))
    mul = ar.mul

    def against_dense(x, y):
        got = mul(x, y)
        if isinstance(got, _Circulant):
            assert_product_bound(got, x, y)
        else:
            assert_relative(got, np.asarray(x) @ np.asarray(y))
        products.append(not isinstance(x, _ColumnMap) and not isinstance(y, _ColumnMap))
        return got

    ar.mul = against_dense
    for cfg in coprime_configs(s):
        products.clear()
        for _ in _catalog(ar, _closed_operators(build_operator_set(cfg)), cfg):
            pass
        # 38 products, 8 of them of two non-maps: 6 dense, eq19's 2 squares
        assert (len(products), sum(products)) == (38, 8)


# the checks whose sides are products, powers and differences of column maps
_MONOMIAL_CHECKS = ("eq1_ccr", "eq3_truncation", "eq5_nilpotency", "eq6_decomposition",
                    "eq9_gh", "eq10_partial_isometry", "eq11_products", "eq12_cyclic",
                    "eq18_H_relations")


def test_monomial_checks_form_no_dense_matrix():
    # at s=512, forming and reducing each of these checks allocates less
    # than one d x d complex matrix
    cfg = AlgebraConfig(512)
    d = cfg.dim
    catalog = _catalog(_CLOSED, _closed_operators(build_operator_set(cfg)), cfg)
    peaks = {}
    tracemalloc.start()
    try:
        for _ in CHECK_NAMES:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            name, pairs = next(catalog)
            max(max_abs_diff(lhs, rhs) for lhs, rhs in pairs)
            if name == "eq10_partial_isometry":
                _shift_is_sharp(pairs, cfg.tol * d)
            del pairs
            peaks[name] = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert {n: p for n, p in peaks.items() if n in _MONOMIAL_CHECKS and p >= 16 * d * d} == {}
    assert peaks["eq13_f_unitary"] >= 16 * d * d  # a dense check does show up


def test_verification_and_polar_decomposition_memory_at_s256():
    # numpy's allocations are traced, so these figures repeat exactly.
    # Measured: 4.14 MiB held after the op (the kept set with its three dense
    # fields, the polar factors) and 9.20 MiB at the peak, in eq14 (the set
    # and six d x d matrices held at once: F†, F F†, F† F, F g⁻¹ F†, F g F†
    # and its difference with a dyad); the pins leave 15% over the held
    # figure and 20% over the peak
    cfg = AlgebraConfig(256)
    gc.collect()
    tracemalloc.start()
    try:
        out = run_all(cfg), polar_decompose(cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out[0].overall_pass
    assert held <= 4.8 * 2**20 and peak <= 11.0 * 2**20, (held / 2**20, peak / 2**20)


@pytest.mark.parametrize("s", [*range(2, 17), 47, 48, 64, 128, 256])
def test_circulant_products_match_the_dense_products(s):
    # the squares eq19 forms, and mixed products of the set's circulants as
    # it stores them, against the dense route, which stays the specification
    for cfg in _grid_configs(s) if s > 16 else coprime_configs(s):
        stored = vars(build_operator_set(cfg))
        r_down, r_up = stored["sqrt_brace_hdag"], stored["sqrt_brace_hdag1"]
        for x, y in ((r_down, r_down), (r_up, r_up), (r_down, r_up), (stored["n_tilde"], r_up),
                     (stored["brace_hdag"], stored["brace_hdag1"])):
            got = _CLOSED.mul(x, y)
            assert isinstance(got, _Circulant)
            assert_product_bound(got, x, y)


def _count_products(monkeypatch):
    # the dense d^3 products and the FFTs numpy forms from here on
    matmul, fft, counted = np.matmul, np.fft.fft, {"dense": 0, "fft": 0}

    def counting(x, y, *args, **kwargs):
        counted["dense"] += np.ndim(x) == np.ndim(y) == 2
        return matmul(x, y, *args, **kwargs)

    def counting_fft(*args, **kwargs):
        counted["fft"] += 1
        return fft(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    monkeypatch.setattr(np.fft, "fft", counting_fft)
    return counted


def _products_per_op(counted, cfg):
    # the products of one run_all plus polar_decompose
    before = dict(counted)
    run_all(cfg)
    polar_decompose(cfg)
    return tuple(counted[key] - before[key] for key in ("dense", "fft"))


@pytest.mark.parametrize("s", [4, 256])
def test_dense_products_per_verification(monkeypatch, s):
    # the d^3 products of run_all plus polar_decompose: F F† and eq17's two,
    # and F† F, F g⁻¹ F†, F g F† and, when the set is built, ã and ã†, which
    # are FFTs from _FFT_MIN_DIM on; eq19's squares are circulants at every d.
    # (dense, FFT) on a miss, then on a repeat on the kept set
    expected = {4: [(8, 0), (6, 0)], 256: [(3, 5), (3, 3)]}[s]
    cfg = AlgebraConfig(s)
    counted = _count_products(monkeypatch)
    assert [_products_per_op(counted, cfg) for _ in range(2)] == expected
    eq19 = dict(_catalog(_CLOSED, _closed_operators(build_operator_set(cfg)), cfg))["eq19_polar"]
    assert all(isinstance(lhs, _Circulant) and isinstance(rhs, _Circulant) for lhs, rhs in eq19[4:])


def test_an_evicted_row_table_adds_no_product(monkeypatch):
    # dyads at more dimensions than the cache holds push the diagonal's shared
    # row table out of it; the kept set's clock stays a diagonal, so eq19
    # scales by it
    cfg = AlgebraConfig(256)
    counted = _count_products(monkeypatch)
    per_op = [_products_per_op(counted, cfg) for _ in range(2)]
    for dim in range(1, qboson.cmatrix._band_table.cache_info().maxsize + 2):
        dyad(0, 0, dim)
    per_op += [_products_per_op(counted, cfg) for _ in range(2)]
    assert per_op == [(3, 5)] + [(3, 3)] * 3
    assert vars(build_operator_set(cfg))["g"].rows is not qboson.cmatrix._band_rows(cfg.dim, 0)


def test_a_second_sweep_misses_no_row_table():
    # sweep(2, 32) asks for offsets 0, +-1 and, in eq14's dyads, +-s, which is
    # -+1 mod d: 93 tables, all kept from one sweep to the next
    table = qboson.cmatrix._band_table
    sweep(2, 32)
    misses = table.cache_info().misses
    sweep(2, 32)
    assert table.cache_info().misses == misses


def test_fourier_conjugate_of_a_step_operator_forms_no_dense_product(monkeypatch):
    # F a is the set's column gather and F† its FFT, so the export is the
    # set's field with no d^3 product
    cfg = AlgebraConfig(256)
    counted, operands, mul = _count_products(monkeypatch), [], _CLOSED.mul
    monkeypatch.setattr(_CLOSED, "mul", lambda x, y: operands.append((type(x), type(y))) or mul(x, y))
    got = qboson.fourier_conjugate(annihilation(cfg), cfg)
    assert counted == {"dense": 0, "fft": 1}
    assert operands == [(np.ndarray, _ColumnMap), (np.ndarray, _Dft)]
    assert bit_equal(got, build_operator_set(cfg).a_tilde)


@pytest.mark.parametrize("s", [*range(2, 17), 256, 511, 512, 1024])
def test_fft_products_match_the_dense_products(monkeypatch, s):
    # every product with the ideal F†, the set's ã and ã† included, against
    # the dense product of the kept matrices, which stays the specification:
    # at every root with every dimension routed for s <= 16, at k = ±1 above
    if s <= 16:
        monkeypatch.setattr(qboson.cmatrix, "_FFT_MIN_DIM", 1)
    mul, checked = _CLOSED.mul, []

    def against_dense(x, y):
        got = mul(x, y)
        if isinstance(x, _Dft) or isinstance(y, _Dft):
            assert_fft_product_bound(got, x, y)
            checked.append(isinstance(x, _Dft))
        return got

    monkeypatch.setattr(_CLOSED, "mul", against_dense)
    counted = _count_products(monkeypatch)
    for cfg in (AlgebraConfig(s, k=k) for k in (range(1, s + 1) if s <= 16 else (1, -1))
                if math.gcd(k, s + 1) == 1):
        checked.clear()
        qboson.algebra._last_set = None
        ffts = counted["fft"]
        assert run_all(cfg).overall_pass, cfg.k
        # ã, ã†, F g⁻¹ F†, F g F† with F† on the right, F† F on the left
        assert sorted(checked) == [False] * 4 + [True] and counted["fft"] - ffts == 5
        # F† F is the identity to 4 d u, so the built F is that transform
        f = fourier(cfg)
        assert max_abs_diff(mul(_Dft(cfg.k, f), f), np.eye(cfg.dim)) <= 4 * 2.0**-53 * cfg.dim


@pytest.mark.parametrize("s", [2, 4, 6, 10, 12, 16, 256])
def test_a_unitary_fourier_of_the_wrong_root_fails(monkeypatch, s):
    # F built with rows of root k + 1 is unitary, so F F† passes; the ideal
    # F† of root k exposes it in F† F (eq13, eq15) and in (F g^∓1) F† (eq14,
    # and eq17's second pair).  Below the break-even F† is the built F's
    # adjoint, and only the latter fail
    for routed in (True, False) if s <= 16 else (True,):
        with monkeypatch.context() as patched:
            if routed and s <= 16:
                patched.setattr(qboson.cmatrix, "_FFT_MIN_DIM", 1)
            for k in range(1, s + 1) if s <= 16 else (1, 2, 37, s - 1):
                if math.gcd(k, s + 1) != 1 or math.gcd(k + 1, s + 1) != 1:
                    continue
                cfg = AlgebraConfig(s, k=k)
                mutant = _mutant(build_operator_set(cfg),
                                 fourier=fourier(AlgebraConfig(s, k=k + 1)))
                patched.setattr(qboson.verify, "build_operator_set", lambda _: mutant)
                failed = {c.name for c in run_all(cfg).checks if not c.passed}
                want = {"eq14_h_via_f", "eq17_tilde_ccr"}
                assert failed == (want | {"eq13_f_unitary", "eq15_phase_orthonormal"} if routed
                                  else want), (k, routed)


def test_a_side_held_past_its_check_keeps_its_values():
    # a caller that keeps some checks' sides while dropping the others: the
    # kept ones are never written again as later checks are formed
    cfg = AlgebraConfig(128, k=2)
    ops = build_operator_set(cfg)
    plain = dict(_catalog(_CLOSED, _closed_operators(ops), cfg))
    kept = {}
    for i, (name, pairs) in enumerate(_catalog(_CLOSED, _closed_operators(ops), cfg)):
        if i % 2:
            kept[name] = pairs
        del pairs
    assert kept and all(np.array_equal(np.asarray(x), np.asarray(y), equal_nan=True)
                        for name, pairs in kept.items()
                        for pair, want in zip(pairs, plain[name], strict=True)
                        for x, y in zip(pair, want))


def _plain_deviation(a, b):
    # max_abs_diff on the formed matrices, in one shot
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def _plain_polar(ops):
    # polar_decompose with fresh numpy temporaries and dense deviations
    z = vars(ops)["g"].weights
    z_inv, r_down, r_up = z.conj(), ops.sqrt_brace_hdag, ops.sqrt_brace_hdag1
    errors = {
        "down_unitary_radial": _plain_deviation(ops.a_tilde, z_inv[:, None] * r_down),
        "down_radial_unitary": _plain_deviation(ops.a_tilde, r_up * z_inv),
        "up_radial_unitary": _plain_deviation(ops.a_tilde_dag, r_down * z),
        "up_unitary_radial": _plain_deviation(ops.a_tilde_dag, z[:, None] * r_up),
    }
    return errors, dag(np.diag(z)), _plain_deviation(r_down, dag(r_down))


def _grid_configs(s):
    return [AlgebraConfig(s, k=k) for k in (*range(1, 8), -1) if math.gcd(k, s + 1) == 1]


@pytest.mark.parametrize("s", [*range(2, 34), 46, 47, 48, 63, 64, 128, 256])
def test_outputs_equal_plain_numpy_arithmetic(monkeypatch, s):
    # reports, polar results and CLI exports against the same arithmetic
    # with dense deviations in one shot, bit for bit
    for cfg in _grid_configs(s):
        report, pd = run_all(cfg), polar_decompose(cfg)
        ops = build_operator_set(cfg)
        with monkeypatch.context() as plain:
            plain.setattr(qboson.verify, "max_abs_diff", _plain_deviation)
            assert run_all(cfg) == report, cfg.k
        errors, unitary, hermiticity = _plain_polar(ops)
        assert pd.factor_errors == errors and pd.reconstruction_error == errors[
            "down_unitary_radial"], cfg.k
        assert bit_equal(pd.unitary, unitary) and pd.radial_hermiticity_error == hermiticity
        assert pd.radial is ops.sqrt_brace_hdag
        # each export is a public builder's plain product; the set forms the
        # same operators in the closed-form arithmetic
        for op, field in _EXPORTED_FIELDS.items():
            assert bit_equal(cli.BUILD_OPS[op](cfg), getattr(ops, field)), (cfg.k, op)


_EXPORTED_FIELDS = {"a": "a", "adag": "a_dag", "n": "n_op", "g": "g", "h": "h", "hdag": "h_dag",
                    "f": "fourier", "bigh": "big_h", "atilde": "a_tilde",
                    "atildedag": "a_tilde_dag", "ntilde": "n_tilde", "braceHdag": "brace_hdag",
                    "braceHdag1": "brace_hdag1"}


@pytest.mark.parametrize("s", range(2, 9))
def test_oracle_equals_plain_numpy_arithmetic(monkeypatch, s):
    for cfg in _grid_configs(s):
        results = brute_force_oracle(cfg)
        with monkeypatch.context() as plain:
            plain.setattr(qboson.verify, "max_abs_diff", _plain_deviation)
            assert brute_force_oracle(cfg) == results, cfg.k


@pytest.mark.parametrize("s", [*range(2, 70), 128, 255, 256])
def test_radial_hermiticity_error_is_the_dense_deviation(s):
    # read off the stored circulant's 2(s+1) entries, one per lag, bit for bit
    for cfg in _grid_configs(s):
        ops = build_operator_set(cfg)
        r = ops.sqrt_brace_hdag
        assert _hermiticity_error(vars(ops)["sqrt_brace_hdag"].lags) == max_abs_diff(r, dag(r)), cfg.k
        assert polar_decompose(cfg).radial_hermiticity_error == max_abs_diff(r, dag(r)), cfg.k


def test_two_threads_verify_different_configurations():
    # the arithmetic holds no state; the shared slot only ever hands a
    # thread a whole set, and the recorded eq19 errors are read only for the
    # set they were reduced on, so both threads see the single-threaded
    # results, whose factor errors are the ones computed afresh
    cfgs = (AlgebraConfig(128, k=2), AlgebraConfig(256, k=-1))
    want = {cfg: (run_all(cfg), polar_decompose(cfg).factor_errors) for cfg in cfgs}
    assert all(want[cfg][1] == _plain_polar(build_operator_set(cfg))[0] for cfg in cfgs)
    got = {cfg: [] for cfg in cfgs}

    def work(cfg):
        for _ in range(4):
            got[cfg].append((run_all(cfg), polar_decompose(cfg).factor_errors))

    threads = [threading.Thread(target=work, args=(cfg,)) for cfg in cfgs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(got[cfg] == [want[cfg]] * 4 for cfg in cfgs)
    assert all(report.overall_pass for report, _ in want.values())


def test_polar_decomposition_after_verification_forms_only_the_unitary(monkeypatch):
    # right after run_all on an equal configuration the four factor errors
    # are the ones run_all reduced: no product is formed, only the unitary's
    # d x d array (1.03 MiB traced at s=256, against 2.04 MiB when computed)
    cfg = AlgebraConfig(256, k=-1)
    run_all(AlgebraConfig(256, k=-1))
    ops = build_operator_set(cfg)
    with monkeypatch.context() as m:
        m.setattr(qboson.algebra, "_factor_errors", None)  # a call would raise
        gc.collect()
        tracemalloc.start()
        try:
            pd = polar_decompose(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 1.2 * 16 * cfg.dim**2, peak / 2**20
    assert pd.factor_errors == _plain_polar(ops)[0]


def _assert_plain_factor_errors(pd, ops):
    errors = _plain_polar(ops)[0]
    assert pd.factor_errors == errors
    assert pd.reconstruction_error == errors["down_unitary_radial"]


@pytest.mark.parametrize("s", [4, 64, 128, 256])
def test_polar_decomposition_alone_computes_the_errors(s):
    for cfg in _grid_configs(s)[:3]:
        qboson.algebra._last_set = None
        _assert_plain_factor_errors(polar_decompose(cfg), build_operator_set(cfg))


@pytest.mark.parametrize("s", [4, 64, 256])
def test_errors_recorded_for_another_configuration_are_not_read(s):
    # run_all on one configuration, then polar_decompose on another, whose
    # set is built afresh; also a set equal in (s, k) but another tol
    cfg, other = _grid_configs(s)[:2]
    for first in (other, dataclasses.replace(cfg, tol=1e-8)):
        run_all(first)
        _assert_plain_factor_errors(polar_decompose(cfg), build_operator_set(cfg))
        run_all(first)
        _assert_plain_factor_errors(polar_decompose(cfg), build_operator_set(cfg))


@pytest.mark.parametrize("s", [4, 64, 256])
def test_errors_recorded_for_a_set_are_not_read_for_its_replace_mutant(monkeypatch, s):
    # a copy with a perturbed a_tilde is another set
    # object: its errors are computed, and they show the perturbation
    cfg = AlgebraConfig(s, k=-1)
    run_all(cfg)
    ops = build_operator_set(cfg)
    a_tilde = ops.a_tilde.copy()
    a_tilde[1, 2] += 1e-3
    mutant = _mutant(ops, a_tilde=a_tilde)
    monkeypatch.setattr(qboson.algebra, "build_operator_set", lambda _cfg: mutant)
    pd = polar_decompose(cfg)
    _assert_plain_factor_errors(pd, mutant)
    assert pd.factor_errors["down_unitary_radial"] > 0.5e-3
    assert pd.factor_errors["up_radial_unitary"] == _plain_polar(ops)[0]["up_radial_unitary"]


@pytest.mark.parametrize("s", [2, 3, 8, 33])
def test_shift_sharpness_passes_the_bare_shift_and_flags_a_unitary_one(s):
    cfg = AlgebraConfig(s)
    bare = _closed_operators(build_operator_set(cfg))
    unitary = SimpleNamespace(**{**vars(bare), "h": bare.big_h, "h_dag": bare.big_h_dag})
    for shift_set, sharp in ((bare, True), (unitary, False)):
        pairs = dict(_catalog(_CLOSED, shift_set, cfg))["eq10_partial_isometry"]
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
