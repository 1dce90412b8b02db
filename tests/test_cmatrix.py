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

from bounds import assert_fft_product_bound, assert_map_power, bit_equal, coprime_configs

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


def _assert_power_matches_dense(m, p):
    # dense BLAS leaves some of its zeros as -0.0, so the entries it gives
    # exactly as 0 or 1 match as values
    assert_map_power(mat_pow(m, p), np.linalg.matrix_power(m, p))


class TestStructuredMatPow:
    """Column-map powers of one-nonzero-per-column matrices against dense powering."""

    @pytest.mark.parametrize("s", range(2, 41))
    def test_step_operators_every_root(self, s):
        for cfg in coprime_configs(s):
            a = annihilation(cfg)
            for m in (a, creation(cfg)):
                for p in range(cfg.dim + 2):
                    _assert_power_matches_dense(m, p)

    @pytest.mark.parametrize("s", range(2, 41))
    def test_shifts_every_root(self, s):
        # the bare and cyclic shifts do not depend on the root index k
        cfg = AlgebraConfig(s)
        big_h = cyclic_shift(cfg)
        for m in (shift(cfg), shift_dag(cfg), big_h, dag(big_h)):
            for p in range(cfg.dim + 2):
                _assert_power_matches_dense(m, p)

    @pytest.mark.parametrize("offset", [-3, -1, 1, 2])
    def test_random_band(self, offset):
        rng = np.random.default_rng(17 + offset)
        d = 9
        m = np.diag(rng.uniform(0.5, 2.0, d - abs(offset))
                    * np.exp(2j * np.pi * rng.uniform(size=d - abs(offset))), k=offset)
        for p in range(d + 2):
            _assert_power_matches_dense(m, p)

    def test_permutation_with_fixed_points(self):
        m = np.eye(6, dtype=complex)[[2, 0, 1, 3, 5, 4]]
        for p in range(8):
            _assert_power_matches_dense(m, p)

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
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert bit_equal(mat_pow(m, p), np.linalg.matrix_power(m, p))

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 5, 8])
    def test_diagonal_power_matches_dense(self, p):
        cfg = AlgebraConfig(6, k=5)
        for m in (clock(cfg), q_number_matrix(cfg, offset=1)):  # the second has zeros
            before = m.copy()
            _assert_power_matches_dense(m, p)
            got = mat_pow(m, p)
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
        _assert_power_matches_dense(m, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_near_permutation_stays_on_dense_route(self, p):
        m = cyclic_shift(AlgebraConfig(5))
        m[0, 5] = 1 + 1e-15j  # not an exact 1, still one nonzero per column
        _assert_power_matches_dense(m, p)

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
            _assert_power_matches_dense(m, p)


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
            for k in (1, -1, 2, 3, 5, 7):
                if math.gcd(k, d) != 1:
                    continue
                cfg = AlgebraConfig(s, k=k)
                a = annihilation(cfg)
                for p in (d, nilpotency_index(cfg)):
                    for m in (a, a.T):
                        assert not np.any(mat_pow(m, p)), (k, p)  # nan counts as nonzero

    def test_huge_power_of_cyclic_shift(self):
        big_h = cyclic_shift(AlgebraConfig(8))
        p = 10**9 + 7
        assert np.array_equal(mat_pow(big_h, p), mat_pow(big_h, p % 9))


def _band(m, offset):
    # m's entries on its cyclic band as a column map: column j's entry in row
    # j - offset mod d, with the rows array the builders share
    rows = _band_rows(len(m), offset)
    return _ColumnMap(rows, m[rows, _band_rows(len(m), 0)])


def _column_maps(cfg):
    # every monomial the catalog and the builders hold as a column map, read
    # off its known band, the diagonals among them, and dyads
    s, d = cfg.s, cfg.dim
    a, big_h = annihilation(cfg), cyclic_shift(cfg)
    return {"a": _band(a, 1), "a†": _band(creation(cfg), -1), "h": _band(shift(cfg), -1),
            "h†": _band(shift_dag(cfg), 1), "H": _band(big_h, -1), "H†": _band(dag(big_h), 1),
            "g": _diagonal(clock(cfg).diagonal()),
            "[N+1]": _diagonal(q_number_matrix(cfg, offset=1).diagonal()),
            "|s><s|": _dyad(s, s, d), "|0><s|": _dyad(0, s, d), "|s><0|": _dyad(s, 0, d)}


# the catalog's diagonals have complex weights, so their products may differ
# from BLAS's in the last bit; every other factor's are real or imaginary
_DIAGONALS = ("g", "[N+1]")


def _assert_equals_dense(got, dense, name):
    got = np.asarray(got)
    if name in _DIAGONALS:
        assert np.all(np.abs(got - dense) <= 1e-12 * np.abs(dense)), name
    else:
        assert np.array_equal(got, dense), name  # a zero may carry the other sign


class TestMulSparse:
    """Products by a column-map factor against the dense @ of its matrix."""

    @pytest.mark.parametrize("s", [*range(2, 17), 47, 48, 63, 64, 128])
    def test_equals_dense_product_at_every_root(self, s):
        for cfg in coprime_configs(s):
            f = fourier(cfg)
            q = primitive_root(cfg)
            maps = _column_maps(cfg)
            for x in (f, q * np.asarray(maps["a†"]), np.asarray(maps["H†"])):
                for name, m in maps.items():
                    dense = np.asarray(m)
                    _assert_equals_dense(_CLOSED.mul(x, m), x @ dense, name)  # column gather
                    _assert_equals_dense(_CLOSED.mul(m, x), dense @ x, name)  # row scaling or dense

    @pytest.mark.parametrize("s", range(2, 17))
    def test_gather_below_the_crossover(self, s):
        # once F† is applied the gather gives the BLAS product bit for bit, so
        # an export by the plain F a F† is the operator set's field
        for cfg in coprime_configs(s):
            f = fourier(cfg)
            for step, m in ((annihilation(cfg), _band(annihilation(cfg), 1)),
                            (creation(cfg), _band(creation(cfg), -1))):
                assert bit_equal(_CLOSED.mul(f, m) @ dag(f), f @ step @ dag(f)), cfg.k

    def test_small_dimension_is_the_dense_product(self):
        cfg = AlgebraConfig(46)
        f, a = fourier(cfg), annihilation(cfg)
        assert np.array_equal(_CLOSED.mul(f, _band(a, 1)), f @ a)

    def test_two_nonzeros_in_a_column_go_to_dense(self):
        # the column read of a dense operand finds no map, so it is powered densely
        cfg = AlgebraConfig(63)
        m = annihilation(cfg)
        m[3, 7] = 0.5 - 0.25j  # column 7 already holds sqrt[7] in row 6
        for p in (2, 3):
            assert bit_equal(mat_pow(m, p), np.linalg.matrix_power(m, p))

    def test_inputs_left_untouched(self):
        cfg = AlgebraConfig(63, k=3)
        f, m = fourier(cfg), _band(creation(cfg), -1)
        before = f.copy(), m.rows.copy(), m.weights.copy()
        ar = _CLOSED
        for _ in (ar.mul(f, m), ar.mul(m, f), ar.mul(m, m), ar.scale(2.0, m), ar.sub(m, m),
                  mat_pow(m, 5), np.asarray(m)):
            pass
        assert bit_equal(f, before[0])
        assert bit_equal(m.rows, before[1]) and bit_equal(m.weights, before[2])


def _map_configs(s):
    # every coprime root up to s = 16, four of them above
    if s <= 16:
        return coprime_configs(s)
    return [AlgebraConfig(s, k=k) for k in (1, -1, 2, 5) if math.gcd(k, s + 1) == 1]


def _dense_deviation(x, y):
    return float(np.abs(np.asarray(x) - np.asarray(y)).max())


class TestColumnMap:
    """Every rule of the column-map type against the dense matrices it stands for."""

    @pytest.mark.parametrize("s", [*range(2, 17), 47, 48, 64, 128])
    def test_rules_match_the_dense_arithmetic(self, s):
        for cfg in _map_configs(s):
            maps = _column_maps(cfg)
            q = primitive_root(cfg)
            for xn, x in maps.items():
                dx = np.asarray(x)
                assert x.shape == dx.shape == (cfg.dim, cfg.dim)
                scaled = _CLOSED.scale(q, x)
                assert isinstance(scaled, _ColumnMap)
                assert np.array_equal(np.asarray(scaled), q * dx)
                for yn, y in maps.items():
                    dy = np.asarray(y)
                    product = _CLOSED.mul(x, y)
                    assert isinstance(product, _ColumnMap)
                    _assert_equals_dense(product, dx @ dy,
                                         xn if xn in _DIAGONALS else yn)
                    difference = _CLOSED.sub(x, y)
                    if np.array_equal(x.rows, y.rows):
                        assert isinstance(difference, _ColumnMap)
                    assert np.array_equal(np.asarray(difference), dx - dy)
                    # the O(d) reduction is the dense one, bit for bit
                    assert max_abs_diff(x, y) == _dense_deviation(dx, dy), (xn, yn)
                    assert max_abs_diff(product, dy) == _dense_deviation(product, dy)
                    assert max_abs_diff(dx, y) == max_abs_diff(x, dy) == max_abs_diff(x, y)

    @pytest.mark.parametrize("s", [*range(2, 17), 47, 48, 64, 128])
    def test_powers_are_maps_equal_to_the_dense_route(self, s):
        for cfg in _map_configs(s):
            for name, m in _column_maps(cfg).items():
                for p in (0, 1, 2, 3, cfg.dim):
                    power = mat_pow(m, p)
                    assert isinstance(power, _ColumnMap)
                    assert bit_equal(np.asarray(power), mat_pow(np.asarray(m), p)), (name, p)

    def test_nilpotent_power_at_large_cutoff_is_exactly_zero(self):
        # live window products overflow to inf; dead paths must still give 0
        for s in (1023, 1024):
            for k in (1, 3):
                a = _band(annihilation(AlgebraConfig(s, k=k)), 1)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for m in (a, _band(np.asarray(a).T, -1)):
                        assert not np.any(mat_pow(m, s + 1).weights)

    def test_empty_column_never_overwrites_a_live_row(self):
        cfg = AlgebraConfig(9, k=3)
        s, d = cfg.s, cfg.dim
        x = fourier(cfg)
        # a power of a: its empty columns keep their own index as row, which a
        # live column also reaches
        a2 = mat_pow(_band(annihilation(cfg), 1), 2)
        # |s><0| with every empty column pointed at row s as well
        sink = _ColumnMap(np.full(d, s), np.asarray(_dyad(s, 0, d))[s])
        for m in (_dyad(s, 0, d), a2, sink):
            assert np.array_equal(_CLOSED.mul(m, x), np.asarray(m) @ x)

    def test_weights_of_both_factors_in_their_places(self):
        # a random map with repeated rows and empty columns, against the dense @
        rng = np.random.default_rng(5)
        d = 7
        for _ in range(20):
            x, y = (_ColumnMap(rng.integers(0, d, size=d),
                               np.where(rng.uniform(size=d) < 0.3, 0,
                                        rng.choice([1.5, -2.0, 0.5j, -1j], size=d)))
                    for _ in range(2))
            assert np.array_equal(np.asarray(_CLOSED.mul(x, y)), np.asarray(x) @ np.asarray(y))
            assert max_abs_diff(x, y) == _dense_deviation(x, y)

    def test_structures_have_no_arithmetic(self):
        # every rule is the closed-form arithmetic's: numpy raises rather than form a map
        # or take the dense route of a circulant
        x = np.ones((4, 4), dtype=complex)
        m, c = _dyad(1, 2, 4), _Circulant(np.arange(4) + 1j)
        f = _Dft(1, fourier(AlgebraConfig(3)))
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
            assert max_abs_diff(x, g) == _dense_deviation(x, np.asarray(g))
        # products, powers, differences and multiples of diagonals are diagonals
        a = _dyad(1, 2, d)
        assert all(m.diagonal for m in (g, _CLOSED.mul(g, g), mat_pow(g, 3), mat_pow(g, 0),
                                        _CLOSED.sub(g, g), _CLOSED.scale(2j, g), _CLOSED.eye(d),
                                        _CLOSED.zeros(d)))
        assert not any(m.diagonal for m in (a, _CLOSED.mul(g, a), _CLOSED.mul(a, g), mat_pow(a, 2)))




class TestDft:
    """The adjoint of the ideal DFT, applied by an FFT, against the dense product."""

    @pytest.mark.parametrize("s", range(2, 17))
    def test_fft_matches_the_dense_product_at_every_root(self, monkeypatch, s):
        monkeypatch.setattr(cmatrix, "_FFT_MIN_DIM", 1)  # route every dimension
        for cfg in coprime_configs(s):
            f = fourier(cfg)
            fdag = _Dft(cfg.k, f)
            x = f * np.exp(1j * np.arange(cfg.dim))
            for got, left, right in ((_CLOSED.mul(x, fdag), x, dag(f)),
                                     (_CLOSED.mul(fdag, f), dag(f), f),
                                     (_CLOSED.mul(fdag, x), dag(f), x)):
                assert_fft_product_bound(got, left, right)
            # the product of F† with F is the identity: the built F is the ideal DFT
            assert max_abs_diff(_CLOSED.mul(fdag, f), identity(cfg.dim)) <= 4 * 2.0**-53 * cfg.dim

    @pytest.mark.parametrize("s", [256, 511, 512, 1024])
    def test_fft_matches_the_dense_product_at_large_cutoffs(self, s):
        for k in (1, -1):
            cfg = AlgebraConfig(s, k=k)
            f = fourier(cfg)
            assert cfg.dim >= cmatrix._FFT_MIN_DIM
            x = f * np.exp(1j * np.arange(cfg.dim))
            assert_fft_product_bound(_CLOSED.mul(x, _Dft(k, f)), x, dag(f))
            assert_fft_product_bound(_CLOSED.mul(_Dft(k, f), f), dag(f), f)

    def test_below_the_break_even_the_product_is_numpy_bit_for_bit(self, monkeypatch):
        fft_calls = []
        monkeypatch.setattr(np.fft, "fft", lambda *a, **kw: fft_calls.append(1))
        for s in (2, 16, 64, cmatrix._FFT_MIN_DIM - 2):
            cfg = AlgebraConfig(s, k=-1)
            f = fourier(cfg)
            x = f * np.exp(1j * np.arange(cfg.dim))
            assert bit_equal(_CLOSED.mul(x, _Dft(cfg.k, f)), x @ dag(f))
            assert bit_equal(_CLOSED.mul(_Dft(cfg.k, f), x), dag(f) @ x)
        assert fft_calls == []

    def test_root_index_is_reduced_by_its_own_modulus(self):
        # k and k + d, or -1 and d - 1, are one transform, whatever F was built with
        cfg = AlgebraConfig(299, k=7)
        d = cfg.dim
        f = fourier(cfg)
        x = f * np.exp(1j * np.arange(d))
        want = _CLOSED.mul(x, _Dft(7, f))
        assert bit_equal(_CLOSED.mul(x, _Dft(7 + 3 * d, f)), want)
        assert bit_equal(_CLOSED.mul(x, _Dft(7 - d, f)), want)
        # the kept matrix is the built F's adjoint, the transform is the ideal one
        wrong = fourier(AlgebraConfig(299, k=11))
        assert bit_equal(np.asarray(_Dft(7, wrong)), dag(wrong))
        assert bit_equal(_CLOSED.mul(x, _Dft(7, wrong)), want)

    def test_kept_matrix_and_other_operands(self):
        cfg = AlgebraConfig(6, k=2)
        f = fourier(cfg)
        fdag = _Dft(cfg.k, f)
        assert fdag.dense is None and bit_equal(fdag.kept(), dag(f)) and fdag.kept() is fdag.kept()
        assert not fdag.kept().flags.writeable
        # a circulant is its kept matrix, a dense operand; a map or a DFT is
        # refused on both sides, and a deviation of a DFT too, at every d
        c = _Circulant(np.arange(cfg.dim) + 1j)
        assert np.array_equal(_CLOSED.mul(fdag, c), dag(f) @ np.asarray(c))
        assert np.array_equal(_CLOSED.mul(c, fdag), np.asarray(c) @ dag(f))
        for s in (cfg.s, cmatrix._FFT_MIN_DIM):
            g = fourier(AlgebraConfig(s))
            h, m, diag = _Dft(1, g), _dyad(1, 2, s + 1), _diagonal(g[0])
            for case in (lambda: _CLOSED.mul(h, m), lambda: _CLOSED.mul(m, h),
                         lambda: _CLOSED.mul(diag, h), lambda: _CLOSED.mul(h, diag),
                         lambda: _CLOSED.mul(h, h),
                         lambda: max_abs_diff(h, dag(g)), lambda: max_abs_diff(g, h)):
                with pytest.raises(TypeError):
                    case()

    def test_inputs_left_untouched(self):
        cfg = AlgebraConfig(199, k=3)
        f = fourier(cfg)
        x = f * np.exp(1j * np.arange(cfg.dim))
        before = x.copy(), f.copy()
        for got in (_CLOSED.mul(x, _Dft(3, f)), _CLOSED.mul(_Dft(3, f), x)):
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
        rng = np.random.default_rng(n)
        rows = rng.integers(0, n, size=n)  # repeated rows and, so, empty ones
        rows[: n // 2] = rng.permutation(n)[: n // 2]
        with np.errstate(invalid="ignore"):  # inf - inf is nan on every route
            for a, b, m in _deviation_cases(rng, n, rows):
                want = _dense_deviation(a, b)
                _assert_same_float(max_abs_diff(a, b), want)
                _assert_same_float(max_abs_diff(b, a), want)
                if block is not None:
                    r = max(1, block // n)
                    _assert_same_float(max_abs_diff(a[:r], b[:r]), _dense_deviation(a[:r], b[:r]))
                # one side a column map: the dense deviation, nan included;
                # a diagonal map reads a's diagonal, of either memory order
                for m in (m, _diagonal(m.weights)):
                    dense = np.asarray(m)
                    for x in (a, a.T):
                        want = _dense_deviation(x, dense)
                        _assert_same_float(max_abs_diff(x, m), want)
                        _assert_same_float(max_abs_diff(m, x), want)
                    assert bit_equal(_CLOSED.sub(a, m), a - dense)

    @pytest.mark.parametrize("shape", [(40000,), (300, 3), (3, 300), (70, 30, 20)])
    def test_blocks_of_any_shape(self, shape):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, *shape))
        _assert_same_float(max_abs_diff(a, b), _dense_deviation(a, b))
        a.flat[-1] = np.nan
        _assert_same_float(max_abs_diff(a, b), math.nan)

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
            m = _ColumnMap(rows, np.full(d, 1 - 0j), zero)
            assert bit_equal(_CLOSED.sub(x, m), x - np.asarray(m)), zero


class TestCirculant:
    """Circulants closed under products, compared on their distinct entries."""

    @staticmethod
    def _pair(rng, d):
        return [_Circulant(rng.normal(size=d) + 1j * rng.normal(size=d)) for _ in range(2)]

    @pytest.mark.parametrize("d", [1, 2, 5, 129])
    def test_lags_are_the_distinct_entries(self, d):
        c = _Circulant(np.arange(d) + 1j)
        x, lags = c.kept(), c.lags
        assert np.asarray(c) is x and c.shape == x.shape == (d, d) and lags.shape == (2 * d - 1,)
        assert not x.flags.writeable and not x.base.flags.writeable and not lags.flags.writeable
        assert bit_equal(x[:, 0], np.arange(d) + 1j)
        assert bit_equal(lags[d - 1::-1], x[:, 0]) and bit_equal(lags[d - 1:], x[0])
        m, n = np.indices((d, d))
        assert bit_equal(lags[d - 1 - m + n], x)

    @pytest.mark.parametrize("d", [3, 64, 200])
    def test_other_layouts_are_dense(self, d):
        # every ndarray takes the dense route, bit for bit: a circulant's kept
        # matrix itself, a Toeplitz view of random entries, a transposed view,
        # a copy, views of the kept entries at another offset or at the same
        # one, and a view of a slice of them
        rng = np.random.default_rng(d)
        c, y = self._pair(rng, d)
        x = c.kept()
        step = x.itemsize

        def view(buffer, offset):
            return np.ndarray((d, d), dtype=x.dtype, buffer=buffer, offset=offset,
                              strides=(-step, step))

        mutants = [x, _circulant_view(rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)),
                   x.T, x.copy(), np.array(x), view(x.base, d * step), view(x.base, (d - 1) * step),
                   view(x.base[:], (d - 1) * step), x[:], x.real.astype(complex)]
        for z in mutants:
            for a, b in ((z, y), (y, z), (z, z), (z, y.kept())):
                got = _CLOSED.mul(a, b)
                assert isinstance(got, np.ndarray) and bit_equal(got, np.asarray(a) @ np.asarray(b))
                assert _same_float(max_abs_diff(a, b), _dense_deviation(a, b))

    @pytest.mark.parametrize("d", [1, 2, 7, 129, 300])
    def test_product_is_a_circulant_of_one_matrix_vector_product(self, d):
        rng = np.random.default_rng(d)
        x, y = self._pair(rng, d)
        got = _CLOSED.mul(x, y)
        assert isinstance(got, _Circulant) and not got.kept().base.flags.writeable
        assert bit_equal(got.kept()[:, 0], x.kept() @ y.kept()[:, 0])
        assert bit_equal(got.kept(), _Circulant(got.kept()[:, 0].copy()).kept())

    @pytest.mark.parametrize("d", [1, 3, 129, 300])
    def test_deviation_is_the_dense_reduction(self, d):
        # on the 2d - 1 distinct entries, bit for bit, a nan or inf entry included
        rng = np.random.default_rng(d)
        x, y = self._pair(rng, d)
        cases = [(x, y), (x, x), (x, _Circulant(x.kept()[:, 0] + 1e-9))]
        for value in (math.nan, math.inf, complex(math.nan, 1.0), complex(0.0, -math.inf)):
            for lag in {0, d - 1}:
                column = y.kept()[:, 0].copy()
                column[lag] = value
                cases.append((x, _Circulant(column)))
        for a, b in cases:
            assert isinstance(a, _Circulant) and isinstance(b, _Circulant)
            assert _same_float(max_abs_diff(a, b), _dense_deviation(a, b))
            assert _same_float(max_abs_diff(b, a), _dense_deviation(b, a))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            max_abs_diff(*(_Circulant(np.ones(d, dtype=complex)) for d in (3, 4)))


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


def _circulant_view(u):
    # the read-only d x d view of 2d entries that a circulant keeps, of a
    # plain array of random entries: not a circulant
    d = len(u) // 2
    view = np.ndarray((d, d), dtype=u.dtype, buffer=u, offset=(d - 1) * u.itemsize,
                      strides=(-u.itemsize, u.itemsize))
    view.flags.writeable = False
    return view


class TestWorkspace:
    """The closed-form arithmetic against numpy on the formed matrices."""

    @pytest.mark.parametrize("d", [5, 128, 129, 200, 257])
    def test_arithmetic_is_numpy_bit_for_bit(self, d):
        # against numpy, a product with a map within 1e-12 relative unless the
        # map's weights are real or imaginary; a difference with a map, on
        # either side, and of two maps on the same or on different rows
        rng = np.random.default_rng(d)
        x, y = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        c = _circulant_view(rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d))
        w = rng.normal(size=d) + 1j * rng.normal(size=d)
        maps = [_diagonal(w), _ColumnMap(_band_rows(d, 1), w), _ColumnMap(_band_rows(d, 1), w[::-1]),
                _ColumnMap(rng.permutation(d), w),
                _ColumnMap(rng.integers(0, d, size=d), w, 0j.conjugate()), _dyad(0, d - 1, d)]
        q = primitive_root(AlgebraConfig(d - 1, k=7))
        ar = _CLOSED
        for a, b in ((x, y), (x, dag(y)), (dag(x), x), (c, c), (x, c), (c, x)):
            assert bit_equal(ar.mul(a, b), a @ b)
            assert bit_equal(ar.sub(a, b), a - b)
        for m in maps:
            dense = np.asarray(m)
            exact = np.all((m.weights.real == 0) | (m.weights.imag == 0))
            for a in (x, dag(x), c):
                _assert_product(ar.mul(m, a), dense @ a, exact)
                _assert_product(ar.mul(a, m), a @ dense, exact)
                assert bit_equal(ar.sub(a, m), a - dense)
                assert bit_equal(ar.sub(m, a), dense - a)
            for other in maps:
                want = dense - np.asarray(other)
                if np.array_equal(m.rows, other.rows):  # a map, its zeros unsigned
                    assert isinstance(ar.sub(m, other), _ColumnMap)
                    assert np.array_equal(np.asarray(ar.sub(m, other)), want)
                else:
                    assert bit_equal(ar.sub(m, other), want)
            assert isinstance(ar.mul(m, m), _ColumnMap) and isinstance(ar.scale(q, m), _ColumnMap)
            _assert_product(ar.mul(m, m), dense @ dense, exact)
            assert np.array_equal(np.asarray(ar.scale(q, m)), q * dense)
        for a in (x, dag(x), c):
            assert bit_equal(ar.scale(q, a), q * a)
            assert bit_equal(ar.dag(a), dag(a))

    def test_inputs_left_untouched(self):
        d = 150
        rng = np.random.default_rng(1)
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = _ColumnMap(rng.permutation(d), rng.normal(size=d) + 0j)
        before = x.copy(), m.rows.copy(), m.weights.copy()
        ar = _CLOSED
        for out in (ar.mul(x, x), ar.mul(x, m), ar.mul(m, x), ar.sub(x, m), ar.sub(x, x),
                    ar.scale(2j, x), ar.dag(x)):
            assert all(out is not b and out.base is not b for b in (x, m.rows, m.weights))
        assert all(np.array_equal(a, b) for a, b in zip(before, (x, m.rows, m.weights)))


def _assert_product(got, want, exact):
    # a product with a map of real or imaginary weights equals the dense @;
    # of complex weights, it may differ from BLAS's in the last bits
    got = np.asarray(got)
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def _deviation_cases(rng, n, rows):
    # (a, b, map) triples: finite, then nan, +-inf and complex nan/inf in the
    # first block, the last block and on the map's support
    def fresh():
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = a + 1e-9 * rng.normal(size=(n, n))
        weights = np.where(rng.uniform(size=n) < 0.2, 0, a[rows, np.arange(n)] + 1e-7)
        return a, b, weights
    placements = [(0, 0), (n - 1, n - 1), (n - 1, 0), (0, n - 1), (rows[-1], n - 1)]
    yield *fresh()[:2], _ColumnMap(rows, fresh()[2])
    for value in (math.nan, math.inf, -math.inf, complex(math.nan, 1.0), complex(0.0, math.inf),
                  complex(-math.inf, math.nan)):
        for i, j in placements:
            a, b, weights = fresh()
            a[i, j] = value
            yield a, b, _ColumnMap(rows, weights)
            a, b, weights = fresh()
            weights[j] = value  # on the map's support
            b[i, j] = value  # and on the same entry of both dense sides
            a[i, j] = value
            yield a, b, _ColumnMap(rows, weights)


def _assert_same_float(got, want):
    assert isinstance(got, float)
    assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)


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
