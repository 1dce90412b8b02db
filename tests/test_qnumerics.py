import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qboson import (
    AlgebraConfig,
    primitive_root,
    q_number,
    q_number_matrix,
    run_all,
    sqrt_q_number,
    sqrt_q_number_matrix,
)


def quotient_q_number(x: int, s: int, k: int = 1) -> float:
    """Independent oracle: raw complex quotient (q^x - q^-x)/(q - 1/q)."""
    q = cmath.exp(2j * math.pi * k / (s + 1))
    return ((q ** x - q ** (-x)) / (q - 1.0 / q)).real


@st.composite
def valid_configs(draw):
    s = draw(st.integers(min_value=2, max_value=40))
    k = draw(st.integers(min_value=1, max_value=s + 1)
             .filter(lambda k: math.gcd(k, s + 1) == 1))
    return AlgebraConfig(s=s, k=k)


class TestAlgebraConfig:
    def test_defaults(self):
        cfg = AlgebraConfig(s=4)
        assert cfg.k == 1
        assert cfg.tol == 1e-9
        assert cfg.dim == 5

    @pytest.mark.parametrize("s", [-3, 0, 1])
    def test_small_s_rejected(self, s):
        with pytest.raises(ValueError):
            AlgebraConfig(s=s)

    @pytest.mark.parametrize("s, k", [(3, 2), (5, 3), (5, 0), (9, 5), (4, 10)])
    def test_non_coprime_k_rejected(self, s, k):
        with pytest.raises(ValueError):
            AlgebraConfig(s=s, k=k)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf"), 1e308])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError):
            AlgebraConfig(s=4, tol=tol)

    def test_negative_coprime_k_allowed(self):
        assert AlgebraConfig(s=4, k=-1).k == -1

    def test_numpy_integers_become_ints(self):
        cfg, ref = AlgebraConfig(np.int64(4), np.int64(2)), AlgebraConfig(4, 2)
        assert type(cfg.s) is int and type(cfg.k) is int
        assert cfg == ref and hash(cfg) == hash(ref)
        report = run_all(cfg).to_json_dict()
        assert json.dumps(report, allow_nan=False) == json.dumps(run_all(ref).to_json_dict())

    @pytest.mark.parametrize("s, k", [(4.0, 1), (4, 1.0), (np.float64(4), 1)])
    def test_float_s_or_k_rejected(self, s, k):
        with pytest.raises(TypeError):
            AlgebraConfig(s=s, k=k)


class TestPrimitiveRoot:
    def test_s3_gives_i(self):
        assert cmath.isclose(primitive_root(AlgebraConfig(s=3)), 1j, abs_tol=1e-15)

    def test_s2_value(self):
        q = primitive_root(AlgebraConfig(s=2))
        assert abs(q - complex(-0.5, math.sqrt(3.0) / 2.0)) < 1e-15

    @given(valid_configs())
    def test_unimodular_and_cyclic(self, cfg):
        q = primitive_root(cfg)
        assert abs(abs(q) - 1.0) < 1e-15
        # powering accumulates rounding linearly in the exponent
        assert abs(q ** cfg.dim - 1.0) < 2e-15 * cfg.dim

    @pytest.mark.parametrize("s", range(2, 13))
    def test_cyclic_tight_at_small_dim(self, s):
        q = primitive_root(AlgebraConfig(s=s))
        assert abs(q ** (s + 1) - 1.0) < 1e-14

    def test_periodic_in_k(self):
        # k and k + (s+1) label the same root, exactly
        assert primitive_root(AlgebraConfig(s=5, k=1)) == primitive_root(AlgebraConfig(s=5, k=7))


class TestQNumber:
    def test_zero_and_one(self):
        cfg = AlgebraConfig(s=5)
        assert q_number(0, cfg) == 0.0
        assert q_number(1, cfg) == 1.0

    def test_vanishes_at_dim_exactly(self):
        for s in range(2, 20):
            assert q_number(s + 1, AlgebraConfig(s=s)) == 0.0

    def test_s2_x2_is_minus_one(self):
        # oracle: sin(4*pi/3)/sin(2*pi/3) = -1
        assert q_number(2, AlgebraConfig(s=2)) == pytest.approx(-1.0, abs=1e-15)

    def test_interior_zero_for_even_dim(self):
        # sin(pi) = 0: the midpoint q-integer vanishes whenever s+1 is even
        for s in (3, 5, 7, 11):
            assert q_number((s + 1) // 2, AlgebraConfig(s=s)) == 0.0

    @given(valid_configs(), st.integers(min_value=-100, max_value=100))
    def test_odd_function(self, cfg, x):
        assert q_number(-x, cfg) == pytest.approx(-q_number(x, cfg), abs=1e-12)

    @given(valid_configs(), st.integers(min_value=-100, max_value=100))
    def test_periodic(self, cfg, x):
        assert q_number(x + cfg.dim, cfg) == q_number(x, cfg)

    @pytest.mark.parametrize("s", [2, 3, 5, 8, 13, 21, 34, 64])
    def test_matches_complex_quotient(self, s):
        cfg = AlgebraConfig(s=s)
        for x in range(0, s + 2):
            assert q_number(x, cfg) == pytest.approx(quotient_q_number(x, s), abs=1e-12)


class TestSqrtQNumber:
    def test_examples(self):
        cfg = AlgebraConfig(s=2)
        assert sqrt_q_number(0, cfg) == 0.0
        assert sqrt_q_number(1, cfg) == 1.0
        assert abs(sqrt_q_number(2, cfg) - 1j) < 1e-15  # principal root of -1

    @given(valid_configs(), st.integers(min_value=0, max_value=80))
    def test_square_recovers_q_number(self, cfg, x):
        r = sqrt_q_number(x, cfg)
        assert abs(r * r - q_number(x, cfg)) < 1e-14

    @given(valid_configs(), st.integers(min_value=0, max_value=80))
    def test_principal_branch(self, cfg, x):
        r = sqrt_q_number(x, cfg)
        # principal: nonnegative real for [x] >= 0, positive imaginary otherwise
        assert r.real >= 0.0 and r.imag >= 0.0
        assert r.real == 0.0 or r.imag == 0.0


class TestIntegerArguments:
    # a q-integer is defined at integers only: a float x would give a sine
    # ratio that is no q-integer
    CFG = AlgebraConfig(s=4)

    @pytest.mark.parametrize("build", [
        lambda cfg: q_number(2.5, cfg),
        lambda cfg: sqrt_q_number(2.5, cfg),
        lambda cfg: q_number_matrix(cfg, offset=0.5),
        lambda cfg: sqrt_q_number_matrix(cfg, offset=0.5),
    ], ids=["q_number", "sqrt_q_number", "q_number_matrix", "sqrt_q_number_matrix"])
    def test_non_integer_rejected(self, build):
        with pytest.raises(TypeError):
            build(self.CFG)

    def test_numpy_integers_accepted(self):
        cfg, three = self.CFG, np.int64(3)
        assert q_number(three, cfg) == q_number(3, cfg)
        assert sqrt_q_number(three, cfg) == sqrt_q_number(3, cfg)
        np.testing.assert_array_equal(q_number_matrix(cfg, offset=three),
                                      q_number_matrix(cfg, offset=3))
        np.testing.assert_array_equal(sqrt_q_number_matrix(cfg, offset=three),
                                      sqrt_q_number_matrix(cfg, offset=3))
