import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from qboson import cmatrix
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
from qboson.cmatrix import (
    dag,
    dyad,
    identity,
    is_unitary,
    mat_pow,
    matrix_from_dict,
    matrix_to_dict,
    max_abs_diff,
    mul_sparse,
    vector_from_dict,
    vector_to_dict,
)
from qboson.qnumerics import AlgebraConfig, primitive_root

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


def _admissible_configs(s):
    return [AlgebraConfig(s, k=k) for k in range(1, s + 1) if math.gcd(k, s + 1) == 1]


def _assert_matches_dense(m, p):
    dense = np.linalg.matrix_power(m, p)
    got = mat_pow(m, p)
    # entries the dense route gives exactly as 0 or 1 match exactly; they
    # match as values, since dense BLAS leaves some of its zeros as -0.0
    exact = (dense == 0) | (dense == 1)
    assert np.array_equal(got[exact], dense[exact]), p
    assert np.array_equal(got != 0, dense != 0), p
    assert np.all(np.abs(got - dense) <= 1e-12 * np.abs(dense)), p


def _bit_equal(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


class TestStructuredMatPow:
    """Column-map powers of one-nonzero-per-column matrices against dense powering."""

    @pytest.mark.parametrize("s", range(2, 41))
    def test_step_operators_every_root(self, s):
        for cfg in _admissible_configs(s):
            a = annihilation(cfg)
            for m in (a, creation(cfg)):
                for p in range(cfg.dim + 2):
                    _assert_matches_dense(m, p)

    @pytest.mark.parametrize("s", range(2, 41))
    def test_shifts_every_root(self, s):
        # the bare and cyclic shifts do not depend on the root index k
        cfg = AlgebraConfig(s)
        big_h = cyclic_shift(cfg)
        for m in (shift(cfg), shift_dag(cfg), big_h, dag(big_h)):
            for p in range(cfg.dim + 2):
                _assert_matches_dense(m, p)

    @pytest.mark.parametrize("offset", [-3, -1, 1, 2])
    def test_random_band(self, offset):
        rng = np.random.default_rng(17 + offset)
        d = 9
        m = np.diag(rng.uniform(0.5, 2.0, d - abs(offset))
                    * np.exp(2j * np.pi * rng.uniform(size=d - abs(offset))), k=offset)
        for p in range(d + 2):
            _assert_matches_dense(m, p)

    def test_permutation_with_fixed_points(self):
        m = np.eye(6, dtype=complex)[[2, 0, 1, 3, 5, 4]]
        for p in range(8):
            _assert_matches_dense(m, p)

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
        assert _bit_equal(a, before)

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 5, 8])
    def test_general_dense_stays_on_dense_route(self, p):
        rng = np.random.default_rng(p)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert _bit_equal(mat_pow(m, p), np.linalg.matrix_power(m, p))

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 5, 8])
    def test_diagonal_power_matches_dense(self, p):
        cfg = AlgebraConfig(6, k=5)
        for m in (clock(cfg), q_number_matrix(cfg, offset=1)):  # the second has zeros
            before = m.copy()
            _assert_matches_dense(m, p)
            got = mat_pow(m, p)
            assert _bit_equal(got, np.diag(np.diagonal(got)))
            assert _bit_equal(m, before)

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
                assert _bit_equal(mat_pow(np.diag(g), p), np.diag(result)), (k, p)

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 5, 8])
    def test_band_with_stray_entry_stays_on_dense_route(self, p):
        # the stray entry fills the empty column 0: no longer a single band,
        # but still one nonzero per column, so the column map powers it
        m = annihilation(AlgebraConfig(6))
        m[5, 0] = 0.25 - 0.5j
        _assert_matches_dense(m, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_near_permutation_stays_on_dense_route(self, p):
        m = cyclic_shift(AlgebraConfig(5))
        m[0, 5] = 1 + 1e-15j  # not an exact 1, still one nonzero per column
        _assert_matches_dense(m, p)

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
            _assert_matches_dense(m, p)


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


def _sparse_factors(cfg):
    # every factor the catalog and the builders hand to mul_sparse, and dyads
    s, d = cfg.s, cfg.dim
    a, big_h = annihilation(cfg), cyclic_shift(cfg)
    return {"a": a, "a†": creation(cfg), "h": shift(cfg), "h†": shift_dag(cfg),
            "H": big_h, "H†": dag(big_h), "|s><s|": dyad(s, s, d),
            "|0><s|": dyad(0, s, d), "|s><0|": dyad(s, 0, d)}


class TestMulSparse:
    """Products by a factor with one nonzero per column against the dense @."""

    # 47/48 and 63/64 straddle dimension 48, where the gather takes over
    @pytest.mark.parametrize("s", [*range(2, 17), 47, 48, 63, 64, 128])
    def test_equals_dense_product_at_every_root(self, s):
        for cfg in _admissible_configs(s):
            factors = _sparse_factors(cfg)
            f = fourier(cfg)
            q = primitive_root(cfg)
            lefts = [f, q * factors["a†"], factors["H†"]]
            for name, m in factors.items():
                for x in lefts:
                    # equal entry for entry; a zero may carry the other sign
                    assert np.array_equal(mul_sparse(x, m), x @ m), (cfg.k, name)

    @pytest.mark.parametrize("s", range(2, 17))
    def test_gather_below_the_crossover(self, s, monkeypatch):
        # the gather itself, forced at dimensions where the product goes to @
        monkeypatch.setattr(cmatrix, "_SPARSE_MIN_DIM", 0)
        self.test_equals_dense_product_at_every_root(s)

    def test_small_dimension_is_the_dense_product(self):
        cfg = AlgebraConfig(46)
        f, a = fourier(cfg), annihilation(cfg)
        assert _bit_equal(mul_sparse(f, a), f @ a)

    def test_two_nonzeros_in_a_column_go_to_dense(self):
        cfg = AlgebraConfig(63)
        f, m = fourier(cfg), annihilation(cfg)
        m[3, 7] = 0.5 - 0.25j  # column 7 already holds sqrt[7] in row 6
        assert _bit_equal(mul_sparse(f, m), f @ m)

    def test_inputs_left_untouched(self):
        cfg = AlgebraConfig(63, k=3)
        f, m = fourier(cfg), creation(cfg)
        before = f.copy(), m.copy()
        mul_sparse(f, m)
        assert _bit_equal(f, before[0]) and _bit_equal(m, before[1])


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
