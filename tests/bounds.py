"""The bounds a result keeps against its dense specification, numpy's ``@``,
``-``, ``*``, ``matrix_power`` or ``np.abs(a - b).max()`` on the formed
matrices, and the grid of roots the tests run on."""

import math

import numpy as np

from qboson import AlgebraConfig
from qboson.cmatrix import _ColumnMap, _Dft

# unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53


def bit_equal(a, b) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def coprime_configs(s: int) -> list[AlgebraConfig]:
    """Every primitive root of cutoff s: k in 1..s coprime to s + 1."""
    return [AlgebraConfig(s, k=k) for k in range(1, s + 1) if math.gcd(k, s + 1) == 1]


def assert_exact(got, want) -> None:
    # a dense result bit for bit, a structure's formed matrix value for value
    # (it writes its zeros unsigned), a deviation as the same float
    if isinstance(want, float):
        assert isinstance(got, float)
        assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)
    elif isinstance(got, np.ndarray):
        assert bit_equal(got, want)
    else:
        assert np.array_equal(np.asarray(got), want, equal_nan=True)


def assert_map_product(got, want, x, y) -> None:
    # a product with a column map, or a map's multiple: each entry is the one
    # nonzero term of the dense sum, exact wherever a factor is real or
    # imaginary entrywise
    got = np.asarray(got)
    if any(np.all((f.real == 0) | (f.imag == 0)) for f in map(np.asarray, (x, y))):
        assert np.array_equal(got, want)  # a zero may carry the other sign
    else:
        assert_relative(got, want)


def assert_relative(got, want) -> None:
    # each entry within 1e-12 of its own size: exact where want is 0
    assert np.all(np.abs(np.asarray(got) - want) <= 1e-12 * np.abs(want))


def assert_map_power(got, want) -> None:
    # a power of a matrix with at most one nonzero per column, composed along
    # each column's path in numpy's binary schedule but grouped otherwise:
    # within relative 1e-12, so exactly 0 where the dense power is 0, and
    # exactly 1 where it is 1
    got = np.asarray(got)
    assert np.all((np.abs(got - want) <= 1e-12 * np.abs(want)) & ((want != 1) | (got == 1)))


def assert_product_bound(got, x, y) -> None:
    """Within 2 d u (|x| |y|) entrywise of the dense product, the form of its
    own rounding bound (Higham, Accuracy and Stability of Numerical
    Algorithms, §3.5).

    The FFT product, over the catalog's operands (F g⁻¹, F g, F a, F a†, F)
    at every coprime k for s <= 39 and at k in {1, 2, 3, 5, 7, -1} for s in
    {127, 128, 129, 255, 256, 511, 512, 1024}, was measured at most 1.07 of
    d u (|x| |y|) at d = 3, 0.67 at 4 <= d <= 40 and 0.123 at d >= 128, and
    4.6e-15 absolute at d = 1025.  The circulant product, over the set's
    circulants at s <= 512 and random circulants at d <= 1025, was measured
    at most 0.58 of it, at s = 2.
    """
    x, y = np.asarray(x), np.asarray(y)
    d = len(x)
    assert not isinstance(got, (_Dft, _ColumnMap))
    err = np.abs(np.asarray(got) - x @ y)
    assert np.all(err <= 2 * d * UNIT_ROUNDOFF * (np.abs(x) @ np.abs(y)))


def assert_fft_product_bound(got, x, y) -> None:
    # a product with the DFT's adjoint is a formed matrix, in the product bound
    assert isinstance(got, np.ndarray)
    assert_product_bound(got, x, y)


def assert_rotation_bound(got, f, x) -> None:
    """Within 2 d u mean|x_j| of the dense f @ diag(x) @ f†.

    The circulant route ((f @ x) / sqrt(d))[lag] and the dense product each
    sum the d terms q^((m-n) j) x_j / d, whose moduli add up to mean|x_j|, in
    their own order.  The bound is measured, not proven: it is twice the real
    summation bound d u mean|x_j| (Higham, §3.5), which leaves out the
    complex products (§3.6), the rounding of f's entries, the dense route's
    f * x and the division by sqrt(d).  The worst entry seen reaches 0.86 of
    it, at small d.
    """
    dense = (f * x) @ f.conj().T  # f * x is f @ diag(x): one nonzero term per entry
    assert np.abs(np.asarray(got) - dense).max() <= 2 * len(x) * UNIT_ROUNDOFF * np.abs(x).mean()
