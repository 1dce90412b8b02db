"""The bound within which a product with the ideal DFT's adjoint, applied by
an FFT, agrees with the dense product of the kept matrices.

The dense product stays the specification.  Measured over the catalog's
operands (F g⁻¹, F g, F a, F a†, F) at every coprime k for s <= 39, and at
k in {1, 2, 3, 5, 7, -1} for s in {127, 128, 129, 255, 256, 511, 512, 1024}:
at most 1.07 d u (|x| |y|) entrywise (u = 2^-53) at d = 3, 0.67 at
4 <= d <= 40, and 0.123 at d >= 128, 4.6e-15 absolute at d = 1025.  It is
asserted at twice d u (|x| |y|), the form of the dense product's own
rounding bound (Higham, Accuracy and Stability of Numerical Algorithms,
§3.5).
"""

import numpy as np

from qboson.cmatrix import _Circulant, _ColumnMap, _Dft


def assert_fft_product_bound(got, x, y):
    x, y = np.asarray(x), np.asarray(y)
    d = len(x)
    assert not isinstance(got, (_Dft, _Circulant, _ColumnMap))
    assert np.all(np.abs(got - x @ y) <= 2 * d * 2.0**-53 * (np.abs(x) @ np.abs(y)))
