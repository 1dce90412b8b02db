import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from qboson.algebra import (
    annihilation,
    clock,
    creation,
    cyclic_shift,
    fourier,
    nilpotency_index,
    q_number_matrix,
    shift,
    shift_dag,
)
from qboson import cmatrix
from qboson.cmatrix import (
    _band_rows,
    _Circulant,
    _CLOSED,
    _ColumnMap,
    _Dft,
    _diagonal,
    _dyad,
    dag,
    dyad,
    identity,
    is_unitary,
    mat_pow,
    matrix_from_dict,
    matrix_to_dict,
    max_abs_diff,
    vector_from_dict,
    vector_to_dict,
)
from qboson.qnumerics import AlgebraConfig, primitive_root

from bounds import assert_product_bound, bit_equal, coprime_configs
from rules import (ROWS, assert_rule, column_maps, deviation_cases, key, layouts, random_maps,
                   sparse_map, special_circulants, strided)

_elements = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def square_matrices(dim):
    return hnp.arrays(np.complex128, (dim, dim), elements=_elements)


@st.composite
def matrix_triples(draw, max_dim=16):
    d = draw(st.integers(min_value=1, max_value=max_dim))
    return (draw(square_matrices(d)), draw(square_matrices(d)), draw(square_matrices(d)))


class TestDyad:
    def test_entries(self):
        np.testing.assert_array_equal(dyad(0, 1, 2), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_chaining(self):
        # <0|0> = 1 chains the outer products
        np.testing.assert_array_equal(dyad(1, 0, 3) @ dyad(0, 2, 3), dyad(1, 2, 3))

    def test_orthogonal_product_vanishes(self):
        np.testing.assert_array_equal(dyad(0, 1, 3) @ dyad(2, 0, 3), np.zeros((3, 3)))

    @pytest.mark.parametrize("m, n", [(-1, 0), (0, -1), (2, 0), (0, 2)])
    def test_out_of_range(self, m, n):
        with pytest.raises(IndexError):
            dyad(m, n, 2)

    def test_indices_are_integers(self):
        # a bool is the integer it stands for, not a mask that fills a row
        np.testing.assert_array_equal(dyad(True, 0, 3), dyad(1, 0, 3))
        np.testing.assert_array_equal(dyad(0, np.int64(2), 3), dyad(0, 2, 3))
        with pytest.raises(TypeError):
            dyad(1.0, 0, 3)


class TestArithmetic:
    def test_identity_is_neutral(self):
        a = np.arange(9, dtype=complex).reshape(3, 3) * (1 + 2j)
        np.testing.assert_array_equal(identity(3) @ a, a)
        np.testing.assert_array_equal(a @ identity(3), a)

    @pytest.mark.parametrize("op", [max_abs_diff])
    def test_dimension_mismatch(self, op):
        with pytest.raises(ValueError):
            op(np.zeros((2, 2), dtype=complex), np.zeros((3, 3), dtype=complex))


class TestAdjoint:
    def test_identity_fixed(self):
        np.testing.assert_array_equal(dag(identity(4)), identity(4))

    def test_dyad_swaps_indices(self):
        np.testing.assert_array_equal(dag(dyad(1, 2, 4)), dyad(2, 1, 4))

    def test_conjugates(self):
        np.testing.assert_array_equal(dag(1j * identity(2)), -1j * identity(2))

    @given(square_matrices(5))
    def test_involution(self, a):
        np.testing.assert_array_equal(dag(dag(a)), a)

    @given(square_matrices(5), square_matrices(5))
    def test_product_reversal(self, a, b):
        assert max_abs_diff(dag(a @ b), dag(b) @ dag(a)) < 1e-13

    def test_structures_are_formed(self):
        w = np.exp(1j * np.arange(4))
        for m in (_ColumnMap(_band_rows(4, 1), w), _diagonal(w), _CLOSED.eye(4), _CLOSED.zeros(4),
                  _Circulant(w)):
            assert bit_equal(_CLOSED.dag(m), np.asarray(m).conj().T)


class TestMatPow:
    def test_zeroth_power(self):
        a = np.full((3, 3), 2 + 1j)
        np.testing.assert_array_equal(mat_pow(a, 0), identity(3))

    def test_nilpotent_dyad(self):
        np.testing.assert_array_equal(mat_pow(dyad(1, 0, 2), 2), np.zeros((2, 2)))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            mat_pow(identity(2), -1)

    @pytest.mark.parametrize("p", [2.5, 2.0])
    @pytest.mark.parametrize("m", [cyclic_shift(AlgebraConfig(4)), np.full((3, 3), 1 + 1j)],
                             ids=["column_map", "dense"])
    def test_non_integer_power_rejected_on_both_routes(self, m, p):
        with pytest.raises(TypeError):
            mat_pow(m, p)

    def test_integer_like_power(self):
        h = cyclic_shift(AlgebraConfig(4))
        np.testing.assert_array_equal(mat_pow(h, np.int64(3)), mat_pow(h, 3))


class TestStructuredMatPow:
    """Column-map powers of one-nonzero-per-column matrices against dense powering."""

    @pytest.mark.parametrize("s", range(2, 41))
    def test_step_operators_every_root(self, s):
        for cfg in coprime_configs(s):
            a = annihilation(cfg)
            for m in (a, creation(cfg)):
                for p in range(cfg.dim + 2):
                    assert_rule("mat_pow", m, p)

    @pytest.mark.parametrize("s", range(2, 41))
    def test_shifts_every_root(self, s):
        # the bare and cyclic shifts do not depend on the root index k
        cfg = AlgebraConfig(s)
        big_h = cyclic_shift(cfg)
        for m in (shift(cfg), shift_dag(cfg), big_h, dag(big_h)):
            for p in range(cfg.dim + 2):
                assert_rule("mat_pow", m, p)

    @pytest.mark.parametrize("offset", [-3, -1, 1, 2])
    def test_random_band(self, offset):
        rng = np.random.default_rng(17 + offset)
        d = 9
        m = np.diag(rng.uniform(0.5, 2.0, d - abs(offset))
                    * np.exp(2j * np.pi * rng.uniform(size=d - abs(offset))), k=offset)
        for p in range(d + 2):
            assert_rule("mat_pow", m, p)

    def test_permutation_with_fixed_points(self):
        m = np.eye(6, dtype=complex)[[2, 0, 1, 3, 5, 4]]
        for p in range(8):
            assert_rule("mat_pow", m, p)

    def test_power_past_the_band_is_zero(self):
        a = annihilation(AlgebraConfig(7))
        assert not np.any(mat_pow(a, 8))
        assert not np.any(mat_pow(a.T, 100))

    def test_cyclic_shift_full_turn_is_identity(self):
        big_h = cyclic_shift(AlgebraConfig(6))
        np.testing.assert_array_equal(mat_pow(big_h, 7), identity(7))

    def test_input_left_untouched(self):
        a = annihilation(AlgebraConfig(5))
        before = a.copy()
        mat_pow(a, 3)
        assert bit_equal(a, before)

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 5, 8])
    def test_general_dense_stays_on_dense_route(self, p):
        rng = np.random.default_rng(p)
        assert_rule("mat_pow", rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), p)

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 5, 8])
    def test_diagonal_power_matches_dense(self, p):
        cfg = AlgebraConfig(6, k=5)
        for m in (clock(cfg), q_number_matrix(cfg, offset=1)):  # the second has zeros
            before = m.copy()
            got = assert_rule("mat_pow", m, p)
            assert bit_equal(got, np.diag(np.diagonal(got)))
            assert bit_equal(m, before)

    @pytest.mark.parametrize("s", [6, 64, 256])
    def test_clock_power_is_the_elementwise_binary_schedule(self, s):
        # numpy's schedule on the diagonal, multiplied in the order
        # result * z: eq12's g^d deviation depends on these last bits
        for k in (1, -1, 3):
            g = clock(AlgebraConfig(s, k=k)).diagonal()
            for p in (s, s + 1, s + 2):
                z = result = None
                for bit in bin(p)[:1:-1]:
                    z = g if z is None else z * z
                    if bit == "1":
                        result = z if result is None else result * z
                assert bit_equal(mat_pow(np.diag(g), p), np.diag(result)), (k, p)

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 5, 8])
    def test_band_with_stray_entry_stays_on_dense_route(self, p):
        # the stray entry fills the empty column 0: no longer a single band,
        # but still one nonzero per column, so the column map powers it
        m = annihilation(AlgebraConfig(6))
        m[5, 0] = 0.25 - 0.5j
        assert_rule("mat_pow", m, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_near_permutation_stays_on_dense_route(self, p):
        m = cyclic_shift(AlgebraConfig(5))
        m[0, 5] = 1 + 1e-15j  # not an exact 1, still one nonzero per column
        assert_rule("mat_pow", m, p)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_column_maps(self, seed):
        # repeated rows, empty columns and complex weights
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 10))
        rows = rng.integers(0, d, size=d)
        weights = rng.uniform(0.5, 2.0, d) * np.exp(2j * np.pi * rng.uniform(size=d))
        weights[rng.uniform(size=d) < 0.3] = 0
        m = np.zeros((d, d), dtype=complex)
        m[rows, np.arange(d)] = weights
        for p in range(d + 3):
            assert_rule("mat_pow", m, p)


class TestColumnMapPowerAtLargeCutoff:
    """Dead paths stay exactly 0 where live window products overflow."""

    @pytest.mark.parametrize("s", [520, 1023, 1024, 2047, 2048])
    def test_nilpotent_powers_are_exact_zeros(self, s):
        d = s + 1
        big_h = cyclic_shift(AlgebraConfig(s))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.any(mat_pow(shift(AlgebraConfig(s)), d))
            assert np.array_equal(mat_pow(big_h, d), identity(d))
            for cfg in coprime_configs(s, (1, -1, 2, 3, 5, 7)):
                a = annihilation(cfg)
                for p in (d, nilpotency_index(cfg)):
                    for m in (a, a.T):
                        assert not np.any(mat_pow(m, p)), (cfg.k, p)  # nan counts as nonzero

    def test_huge_power_of_cyclic_shift(self):
        big_h = cyclic_shift(AlgebraConfig(8))
        p = 10**9 + 7
        assert np.array_equal(mat_pow(big_h, p), mat_pow(big_h, p % 9))


class TestMulSparse:
    """Products by a column-map factor against the dense @ of its matrix."""

    @pytest.mark.parametrize("s", [*range(2, 17), 47, 48, 63, 64, 128])
    def test_equals_dense_product_at_every_root(self, s):
        for cfg in coprime_configs(s):
            maps = column_maps(cfg)
            for x in (fourier(cfg), primitive_root(cfg) * np.asarray(maps["a†"]),
                      np.asarray(maps["H†"])):
                for m in maps.values():
                    assert_rule("mul", x, m)  # column gather
                    assert_rule("mul", m, x)  # row scaling or dense

    @pytest.mark.parametrize("s", range(2, 17))
    def test_gather_below_the_crossover(self, s):
        # once F† is applied the gather gives the BLAS product bit for bit, so
        # an export by the plain F a F† is the operator set's field
        for cfg in coprime_configs(s):
            f, maps = fourier(cfg), column_maps(cfg)
            for m in (maps["a"], maps["a†"]):
                assert bit_equal(_CLOSED.mul(f, m) @ dag(f), f @ np.asarray(m) @ dag(f)), cfg.k

    def test_small_dimension_is_the_dense_product(self):
        cfg = AlgebraConfig(46)
        assert_rule("mul", fourier(cfg), column_maps(cfg)["a"])

    def test_two_nonzeros_in_a_column_go_to_dense(self):
        # the column read of a dense operand finds no map, so it is powered densely
        cfg = AlgebraConfig(63)
        m = annihilation(cfg)
        m[3, 7] = 0.5 - 0.25j  # column 7 already holds sqrt[7] in row 6
        for p in (2, 3):
            assert key("mat_pow", m, p)[3] == "dense"
            assert_rule("mat_pow", m, p)

    def test_inputs_left_untouched(self):
        cfg = AlgebraConfig(63, k=3)
        f, m = fourier(cfg), column_maps(cfg)["a†"]
        before = f.copy(), m.rows.copy(), m.weights.copy()
        ar = _CLOSED
        # a map on the left of a dense matrix is a TypeError: a diagonal of its weights is there
        for _ in (ar.mul(f, m), ar.mul(_diagonal(m.weights), f), ar.mul(m, m), ar.scale(2.0, m),
                  ar.sub(m, m), mat_pow(m, 5), np.asarray(m)):
            pass
        assert bit_equal(f, before[0])
        assert bit_equal(m.rows, before[1]) and bit_equal(m.weights, before[2])


class TestColumnMap:
    """Every rule of the column-map type against the dense matrices it stands for."""

    # every coprime root up to s = 16, four of them above
    @pytest.mark.parametrize("s", [*range(2, 17), 47, 48, 64, 128])
    def test_rules_match_the_dense_arithmetic(self, s):
        for cfg in coprime_configs(s, None if s <= 16 else (1, -1, 2, 5)):
            maps = column_maps(cfg)
            for x in maps.values():
                assert x.shape == np.asarray(x).shape == (cfg.dim, cfg.dim)
                assert_rule("scale", primitive_root(cfg), x)
                for y in maps.values():
                    assert_rule("max_abs_diff", assert_rule("mul", x, y), np.asarray(y))
                    assert_rule("sub", x, y)
                    # the O(d) reduction is the dense one, bit for bit
                    for pair in ((x, y), (np.asarray(x), y), (x, np.asarray(y))):
                        assert_rule("max_abs_diff", *pair)

    @pytest.mark.parametrize("s", [*range(2, 17), 47, 48, 64, 128])
    def test_powers_are_maps_equal_to_the_dense_route(self, s):
        for cfg in coprime_configs(s, None if s <= 16 else (1, -1, 2, 5)):
            for m in column_maps(cfg).values():
                for p in (0, 1, 2, 3, cfg.dim):
                    assert_rule("mat_pow", m, p)

    def test_nilpotent_power_at_large_cutoff_is_exactly_zero(self):
        # live window products overflow to inf; dead paths must still give 0
        for s in (1023, 1024):
            for k in (1, 3):
                maps = column_maps(AlgebraConfig(s, k=k))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for m in (maps["a"], maps["a†"]):
                        assert not np.any(mat_pow(m, s + 1).weights)

    def test_empty_column_never_overwrites_a_live_row(self):
        cfg = AlgebraConfig(9, k=3)
        s, d = cfg.s, cfg.dim
        # a power of a: its empty columns keep their own index as row, which a
        # live column also reaches
        a2 = mat_pow(column_maps(cfg)["a"], 2)
        # |s><0| with every empty column pointed at row s as well
        sink = _ColumnMap(np.full(d, s), np.asarray(_dyad(s, 0, d))[s])
        f = fourier(cfg)
        for m in (_dyad(s, 0, d), a2, sink):
            assert_rule("mul", f, m)
            assert_rule("mul", m, m)
            assert_rule("max_abs_diff", f, m)
            assert_rule("sub", f, m)

    def test_weights_of_both_factors_in_their_places(self):
        # a random map with repeated rows and empty columns, against the dense @
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y = sparse_map(rng, 7), sparse_map(rng, 7)
            assert_rule("mul", x, y)
            assert_rule("max_abs_diff", x, y)

    def test_structures_have_no_arithmetic(self):
        # every rule is the closed-form arithmetic's: numpy raises rather than form a map
        # or take the dense route of a circulant
        x = np.ones((4, 4), dtype=complex)
        m, c = _dyad(1, 2, 4), _Circulant(np.arange(4) + 1j)
        f = _Dft(1, 4)
        for case in (lambda: x @ m, lambda: m @ x, lambda: m @ m, lambda: 2.0 * m,
                     lambda: m - m, lambda: x - m, lambda: x @ c, lambda: x @ f, lambda: f @ x):
            with pytest.raises(TypeError):
                case()

    def test_dense_form(self):
        m = _dyad(2, 0, 3)
        assert bit_equal(np.asarray(m), dyad(2, 0, 3))
        assert np.asarray(m, dtype=np.complex64).dtype == np.complex64
        copied = np.array(m)
        copied[0, 0] = 5
        assert np.asarray(m)[0, 0] == 0

    def test_a_diagonal_is_known_by_its_flag_not_by_the_cached_rows(self, monkeypatch):
        # the diagonal's shared row table may leave its cache; a diagonal made
        # before still scales rows and columns, with no dense product
        d = 40
        g = _diagonal(np.exp(1j * np.arange(d)))
        cmatrix._band_table.cache_clear()
        assert g.rows is not _band_rows(d, 0)
        x = fourier(AlgebraConfig(d - 1))

        def no_matmul(*args, **kwargs):
            raise AssertionError("a diagonal was formed")

        with monkeypatch.context() as patched:
            patched.setattr(np, "matmul", no_matmul)
            assert bit_equal(_CLOSED.mul(g, x), g.weights[:, None] * x)
            assert bit_equal(_CLOSED.mul(x, g), x * g.weights)
            assert_rule("max_abs_diff", x, g)
        # products, powers, differences and multiples of diagonals are diagonals
        a = _dyad(1, 2, d)
        assert all(m.diagonal for m in (g, _CLOSED.mul(g, g), mat_pow(g, 3), mat_pow(g, 0),
                                        _CLOSED.sub(g, g), _CLOSED.scale(2j, g), _CLOSED.eye(d),
                                        _CLOSED.zeros(d)))
        assert not any(m.diagonal for m in (a, _CLOSED.mul(g, a), _CLOSED.mul(a, g), mat_pow(a, 2)))


class TestDft:
    """The adjoint of the ideal DFT, applied by an FFT, against the dense product."""

    @pytest.mark.parametrize("s", range(2, 17))
    def test_fft_matches_the_dense_product_at_every_root(self, s):
        for cfg in coprime_configs(s):
            f = fourier(cfg)
            fdag = _Dft(cfg.k, cfg.dim)
            x = f * np.exp(1j * np.arange(cfg.dim))
            for pair in ((x, fdag), (fdag, f), (fdag, x)):
                assert_rule("mul", *pair)
            # the product of F† with F is the identity: the built F is the ideal DFT
            assert max_abs_diff(_CLOSED.mul(fdag, f), identity(cfg.dim)) <= 4 * 2.0**-53 * cfg.dim

    @pytest.mark.parametrize("s", [256, 511, 512, 1024])
    def test_fft_matches_the_dense_product_at_large_cutoffs(self, s):
        for k in (1, -1):
            cfg = AlgebraConfig(s, k=k)
            f = fourier(cfg)
            assert_rule("mul", f * np.exp(1j * np.arange(cfg.dim)), _Dft(k, cfg.dim))
            assert_rule("mul", _Dft(k, cfg.dim), f)

    def test_root_index_is_reduced_by_its_own_modulus(self):
        # k and k + d, or -1 and d - 1, are one transform
        cfg = AlgebraConfig(299, k=7)
        d = cfg.dim
        f = fourier(cfg)
        x = f * np.exp(1j * np.arange(d))
        want = _CLOSED.mul(x, _Dft(7, d))
        assert bit_equal(_CLOSED.mul(x, _Dft(7 + 3 * d, d)), want)
        assert bit_equal(_CLOSED.mul(x, _Dft(7 - d, d)), want)
        # F† reads no built F: its formed matrix is the ideal one, dag(F) of
        # the right root within rounding, and F† F exposes an F of a wrong root
        wrong = fourier(AlgebraConfig(299, k=11))
        fdag = np.asarray(_Dft(7, d))
        assert_product_bound(fdag, np.eye(d), dag(f))
        assert max_abs_diff(fdag, dag(wrong)) > 0.01
        assert max_abs_diff(_CLOSED.mul(_Dft(7, d), wrong), np.eye(d)) > 0.5

    def test_kept_matrix_and_other_operands(self):
        cfg = AlgebraConfig(6, k=2)
        f = fourier(cfg)
        fdag = _Dft(cfg.k, cfg.dim)
        # the matrix is F†'s own product with the identity, bit for bit, formed
        # afresh by each read and kept nowhere; within the FFT product bound of dag(F)
        eye = np.eye(cfg.dim, dtype=complex)
        formed = np.asarray(fdag)
        assert bit_equal(formed, _CLOSED.mul(fdag, eye)) and formed is not np.asarray(fdag)
        assert formed.flags.owndata and formed.flags.writeable
        assert_product_bound(formed, eye, dag(f))
        assert not hasattr(fdag, "dense") and not hasattr(fdag, "built")
        # a circulant is its view, a dense operand; a map or a DFT is refused
        # on both sides, and a deviation of a DFT too, at every d
        c = _Circulant(np.arange(cfg.dim) + 1j)
        assert_rule("mul", fdag, c)
        assert_rule("mul", c, fdag)
        for s in (cfg.s, 128):
            g = fourier(AlgebraConfig(s))
            h, m, diag = _Dft(1, s + 1), _dyad(1, 2, s + 1), _diagonal(g[0])
            for op, x, y in (("mul", h, m), ("mul", m, h), ("mul", diag, h), ("mul", h, diag),
                             ("mul", h, h), ("max_abs_diff", h, dag(g)), ("max_abs_diff", g, h)):
                assert ROWS[key(op, x, y)].bound == "TypeError"
                assert_rule(op, x, y)

    def test_inputs_left_untouched(self):
        cfg = AlgebraConfig(199, k=3)
        f = fourier(cfg)
        x = f * np.exp(1j * np.arange(cfg.dim))
        before = x.copy(), f.copy()
        for got in (_CLOSED.mul(x, _Dft(3, cfg.dim)), _CLOSED.mul(_Dft(3, cfg.dim), x)):
            assert got.base is None and got is not x
        assert bit_equal(x, before[0]) and bit_equal(f, before[1])


class TestMaxAbsDiff:
    def test_examples(self):
        a = identity(3)
        assert max_abs_diff(a, a) == 0.0
        assert max_abs_diff(a, np.zeros((3, 3))) == 1.0
        assert max_abs_diff(2.0 * a, a) == 1.0

    @given(matrix_triples(max_dim=6))
    def test_metric_properties(self, triple):
        a, b, c = triple
        assert max_abs_diff(a, b) == max_abs_diff(b, a)
        assert max_abs_diff(a, a) == 0.0
        assert max_abs_diff(a, c) <= max_abs_diff(a, b) + max_abs_diff(b, c) + 1e-12

    @given(matrix_triples(max_dim=6))
    def test_zero_iff_equal(self, triple):
        a, b, _ = triple
        if max_abs_diff(a, b) == 0.0:
            np.testing.assert_array_equal(a, b)

    # every size is reduced in one shot; with a block of 1024 entries, the
    # leading rows that hold at most that many are also reduced, as views
    @pytest.mark.parametrize("n, block", [*((n, 1024) for n in (1, 2, 31, 32, 33, 64, 65, 100)),
                                          (128, None), (129, None), (200, None)])
    def test_blocked_reduction_is_the_dense_one(self, n, block):
        with np.errstate(invalid="ignore"):  # inf - inf is nan on every route
            for _, a, b, m in deviation_cases(n, n):
                assert_rule("max_abs_diff", a, b)
                assert_rule("max_abs_diff", b, a)
                if block is not None:
                    r = max(1, block // n)
                    assert_rule("max_abs_diff", a[:r], b[:r])
                # one side a column map: the dense deviation, nan included;
                # a diagonal map reads a's diagonal, of either memory order
                for m in (m, _diagonal(m.weights)):
                    for x in (a, a.T):
                        assert_rule("max_abs_diff", x, m)
                        assert_rule("max_abs_diff", m, x)
                    assert_rule("sub", a, m)

    @pytest.mark.parametrize("shape", [(40000,), (300, 3), (3, 300), (70, 30, 20)])
    def test_blocks_of_any_shape(self, shape):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, *shape))
        assert_rule("max_abs_diff", a, b)
        a.flat[-1] = np.nan
        assert math.isnan(assert_rule("max_abs_diff", a, b))

    def test_map_deviation_forms_no_matrix(self):
        # a dense matrix against a column map: the temporaries stay below one
        # d x d complex matrix, so the map is never formed
        d = 513
        rng = np.random.default_rng(0)
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = _ColumnMap(_band_rows(d, 1), np.ones(d, dtype=complex))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            max_abs_diff(x, m)
            assert tracemalloc.get_traced_memory()[1] - start < 16 * d * d
        finally:
            tracemalloc.stop()

    def test_difference_with_a_map_keeps_the_signed_zeros(self):
        # dense - map is formed on the map's support; off it the dense entries
        # lose the map's zero, 0 + 0j, or an adjoint's 0 - 0j, as they would
        # against the formed matrix
        d = 6
        x = np.array([complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)] * 9).reshape(d, d)
        rows = _band_rows(d, 1)
        for zero in (0, 0j.conjugate()):
            assert_rule("sub", x, _ColumnMap(rows, np.full(d, 1 - 0j), zero))


class TestCirculant:
    """Circulants closed under products, compared on their distinct entries."""

    @staticmethod
    def _pair(rng, d):
        return [_Circulant(rng.normal(size=d) + 1j * rng.normal(size=d)) for _ in range(2)]

    @pytest.mark.parametrize("d", [1, 2, 5, 129])
    def test_lags_are_the_distinct_entries(self, d):
        c = _Circulant(np.arange(d) + 1j)
        x, lags = c.dense, c.lags
        assert np.asarray(c) is x and c.shape == x.shape == (d, d) and lags.shape == (2 * d - 1,)
        assert not x.flags.writeable and not x.base.flags.writeable and not lags.flags.writeable
        assert bit_equal(x[:, 0], np.arange(d) + 1j)
        assert bit_equal(lags[d - 1::-1], x[:, 0]) and bit_equal(lags[d - 1:], x[0])
        m, n = np.indices((d, d))
        assert bit_equal(lags[d - 1 - m + n], x)

    @pytest.mark.parametrize("d", [3, 64, 200])
    def test_other_layouts_are_dense(self, d):
        # every ndarray takes the dense route, bit for bit: a circulant's view
        # itself, a Toeplitz view of random entries, a transposed view, a
        # copy, views of its entries at another offset or at the same one,
        # and a view of a slice of them
        rng = np.random.default_rng(d)
        c, y = self._pair(rng, d)
        for z in layouts(c, rng).values():
            for a, b in ((z, y), (y, z), (z, z), (z, y.dense)):
                assert_rule("mul", a, b)
                assert_rule("max_abs_diff", a, b)

    @pytest.mark.parametrize("d", [1, 2, 7, 129, 300])
    def test_product_is_a_circulant_of_one_matrix_vector_product(self, d):
        rng = np.random.default_rng(d)
        x, y = self._pair(rng, d)
        got = _CLOSED.mul(x, y)
        assert isinstance(got, _Circulant) and not got.dense.base.flags.writeable
        assert bit_equal(got.dense[:, 0], x.dense @ y.dense[:, 0])
        assert bit_equal(got.dense, _Circulant(got.dense[:, 0].copy()).dense)

    @pytest.mark.parametrize("d", [1, 3, 129, 300])
    def test_deviation_is_the_dense_reduction(self, d):
        # on the 2d - 1 distinct entries, bit for bit, a nan or inf entry included
        rng = np.random.default_rng(d)
        x, y = self._pair(rng, d)
        for a, b in ((x, y), *((x, c) for c in special_circulants(x.dense[:, 0]))):
            assert_rule("max_abs_diff", a, b)
            assert_rule("max_abs_diff", b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            max_abs_diff(*(_Circulant(np.ones(d, dtype=complex)) for d in (3, 4)))


class TestWorkspace:
    """The closed-form arithmetic against numpy on the formed matrices."""

    @pytest.mark.parametrize("d", [5, 128, 129, 200, 257])
    def test_arithmetic_is_numpy_bit_for_bit(self, d):
        # products and differences of dense operands, a circulant's layout
        # among them, and with maps on either side; differences of two maps
        # on the same or on different rows; multiples of every operand
        rng = np.random.default_rng(d)
        x, y = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        c = strided(rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d), d, d - 1)
        w = rng.normal(size=d) + 1j * rng.normal(size=d)
        maps = [*random_maps(rng, w).values(), _dyad(0, d - 1, d)]
        q = primitive_root(AlgebraConfig(d - 1, k=7))
        for a, b in ((x, y), (x, dag(y)), (dag(x), x), (c, c), (x, c), (c, x)):
            assert_rule("mul", a, b)
            assert_rule("sub", a, b)
        for m in maps:
            for a in (x, dag(x), c):
                for op in ("mul", "sub"):
                    assert_rule(op, m, a)
                    assert_rule(op, a, m)
            for other in maps:
                assert_rule("sub", m, other)
            assert_rule("mul", m, m)
            assert_rule("scale", q, m)
        for a in (x, dag(x), c):
            assert_rule("scale", q, a)
            assert bit_equal(_CLOSED.dag(a), dag(a))

    def test_inputs_left_untouched(self):
        d = 150
        rng = np.random.default_rng(1)
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = _ColumnMap(rng.permutation(d), rng.normal(size=d) + 0j)
        before = x.copy(), m.rows.copy(), m.weights.copy()
        ar = _CLOSED
        # a map on the left of a dense matrix is a TypeError: a diagonal of its weights is there
        for out in (ar.mul(x, x), ar.mul(x, m), ar.mul(_diagonal(m.weights), x), ar.sub(x, m),
                    ar.sub(x, x), ar.scale(2j, x), ar.dag(x)):
            assert all(out is not b and out.base is not b for b in (x, m.rows, m.weights))
        assert all(np.array_equal(a, b) for a, b in zip(before, (x, m.rows, m.weights)))


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(identity(5), 1e-12)

    def test_rank_deficient_projector(self):
        assert not is_unitary(dyad(0, 0, 2), 1e-9)

    def test_phase_matrix(self):
        assert is_unitary(np.diag(np.exp(1j * np.linspace(0.0, 3.0, 7))), 1e-12)


class TestJsonFormat:
    def test_matrix_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        text = json.dumps(matrix_to_dict(a))
        np.testing.assert_array_equal(matrix_from_dict(json.loads(text)), a)

    def test_vector_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        text = json.dumps(vector_to_dict(v))
        np.testing.assert_array_equal(vector_from_dict(json.loads(text)), v)

    def test_schema_shape(self):
        doc = matrix_to_dict(identity(2))
        assert doc == {"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            matrix_to_dict(np.zeros((2, 3), dtype=complex))

    @pytest.mark.parametrize("write, empty", [(matrix_to_dict, np.zeros((0, 0))),
                                              (vector_to_dict, np.zeros(0))])
    def test_empty_array_is_not_written(self, write, empty):
        # the readers reject dim 0, so the writers do too
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            write(empty)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matrix_to_dict(np.array([[np.inf, 0], [0, 0]], dtype=complex))
        with pytest.raises(ValueError):
            matrix_from_dict({"dim": 1, "entries": [[float("nan"), 0.0]]})

    @pytest.mark.parametrize("parse", [matrix_from_dict, vector_from_dict])
    @pytest.mark.parametrize("obj", [
        {"dim": 1, "entries": ["12"]},  # a string is not a pair
        {"dim": 1, "entries": [["1e0", " 2 "]]},
        {"dim": 1, "entries": [[True, False]]},
        {"dim": 1, "entries": [[None, 0.0]]},
        {"dim": 1, "entries": [1.0]},
        {"dim": 1, "entries": [[1.0]]},
        {"dim": 1, "entries": [[1.0, 0.0, 0.0]]},
        {"dim": 1, "entries": [(1.0, 0.0)]},
        {"dim": 1, "entries": [[1.0, float("inf")]]},
        {"dim": 1, "entries": [[10**400, 0]]},
        {"dim": 1, "entries": [[1.0, True]]},
        {"dim": 1, "entries": [[1.0, [0.0]]]},
        {"dim": 2, "entries": [[1.0, 0.0], "x"]},
        {"dim": 2, "entries": [[1.0, 0.0], [1.0]]},
        {"dim": 2, "entries": [[1.0, 0.0], [0, -10**400]]},
        {"dim": 1, "entries": "12"},
        {"dim": True, "entries": [[1.0, 0.0]]},
        {"dim": 1.0, "entries": [[1.0, 0.0]]},
        {"dim": "1", "entries": [[1.0, 0.0]]},
        {"dim": -1, "entries": []},
        {"entries": [[1.0, 0.0]]},
        {"dim": 1},
        [1, [[1.0, 0.0]]],
    ])
    def test_malformed_object_is_value_error(self, parse, obj):
        with pytest.raises(ValueError):
            parse(obj)

    @pytest.mark.parametrize("parse, shape", [(matrix_from_dict, (4, 4)), (vector_from_dict, (16,))])
    def test_entries_are_the_per_entry_conversion(self, parse, shape):
        # ints of every size a float holds, floats and signed zeros: entry i is
        # complex(float(re), float(im)), bit for bit
        values = [0, -0.0, 1, -1, 2**53 + 1, -(2**63) - 1, 2**64 + 3, 10**300, 5e-324,
                  -1.5e308, 0.1, 3]
        entries = [[values[i % 12], values[(5 * i + 1) % 12]] for i in range(16)]
        got = parse({"dim": shape[0], "entries": entries})
        want = np.array([complex(float(re), float(im)) for re, im in entries]).reshape(shape)
        assert got.dtype == complex and got.shape == shape and got.tobytes() == want.tobytes()

    def test_malformed_entry_is_named(self):
        with pytest.raises(ValueError, match=r"got \[1\.0, True\]"):
            vector_from_dict({"dim": 2, "entries": [[1.0, 0.0], [1.0, True]]})

    @pytest.mark.parametrize("parse", [matrix_from_dict, vector_from_dict])
    def test_integer_entries_parse(self, parse):
        got = parse({"dim": 1, "entries": [[1, -2]]})
        assert got.dtype == complex and got.ravel().tolist() == [1 - 2j]

    def test_rejects_bad_dim_or_length(self):
        with pytest.raises(ValueError):
            matrix_from_dict({"dim": 0, "entries": []})
        with pytest.raises(ValueError):
            matrix_from_dict({"dim": 2, "entries": [[1.0, 0.0]]})
        with pytest.raises(ValueError):
            vector_from_dict({"dim": 3, "entries": [[1.0, 0.0]]})
