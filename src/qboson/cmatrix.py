"""Dense complex matrix kernel sized for the (s+1)-dimensional number basis.

Matrices are plain ``numpy.ndarray`` values of dtype complex; everything here
is a pure function and all inputs are left untouched.  Products, sums and
scalings are numpy's own operators.  ``mat_pow`` takes powers of diagonal,
band and permutation matrices in closed form and powers every other matrix
densely.
"""

from __future__ import annotations

import numpy as np


def dyad(m: int, n: int, dim: int) -> np.ndarray:
    """Outer product |m><n|: a single 1 at row m, column n."""
    if not (0 <= m < dim and 0 <= n < dim):
        raise IndexError(f"dyad indices ({m}, {n}) out of range for dim {dim}")
    out = np.zeros((dim, dim), dtype=complex)
    out[m, n] = 1.0
    return out


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def mat_pow(a: np.ndarray, p: int) -> np.ndarray:
    """p-th matrix power for p >= 0; p = 0 gives the identity.

    Three structures read off the matrix itself are powered in closed form
    from its own entries: a diagonal (the clock, q-integer diagonals), a
    single off-diagonal band (step operators, bare shifts) and a permutation
    matrix of exact 0/1 entries (the cyclic shift).  Every other matrix goes
    through dense binary powering.
    """
    if p < 0:
        raise ValueError(f"power must be nonnegative, got {p}")
    a = np.asarray(a)
    if p > 0 and a.ndim == 2 and a.shape[0] == a.shape[1]:
        rows, cols = np.nonzero(a)
        offsets = cols - rows
        if not np.any(offsets):
            return _diagonal_power(a, p)
        if np.all(offsets == offsets[0]):
            return _band_power(a, int(offsets[0]), p)
        every = np.arange(a.shape[0])
        if (np.array_equal(rows, every) and np.array_equal(np.sort(cols), every)
                and np.all(a[rows, cols] == 1)):
            return _permutation_power(a, cols, p)
    return np.linalg.matrix_power(a, p)


def _diagonal_power(a: np.ndarray, p: int) -> np.ndarray:
    # numpy's binary schedule, elementwise: square z, and multiply it into
    # the result on each set bit of p
    z = result = None
    while p:
        z = a.diagonal() if z is None else z * z
        p, bit = divmod(p, 2)
        if bit:
            result = z if result is None else result * z
    return np.diag(result)


def _band_power(a: np.ndarray, offset: int, p: int) -> np.ndarray:
    # the p-th power lies on band p*offset; walking along the band, its i-th
    # entry is the product of the p band weights w[i], w[i+|offset|], ...
    dim = a.shape[0]
    out = np.zeros(a.shape, dtype=a.dtype)
    step = abs(offset)
    n = dim - p * step
    if n <= 0:
        return out
    w = np.diagonal(a, offset)
    band = w[:n].copy()
    for t in range(1, p):
        band *= w[t * step:t * step + n]
    rows = np.arange(n) + (p * step if offset < 0 else 0)
    out[rows, rows + p * offset] = band
    return out


def _permutation_power(a: np.ndarray, cols: np.ndarray, p: int) -> np.ndarray:
    # row i holds its 1 in column cols[i]; the p-th power follows cols p times
    target = np.arange(cols.size)
    for _ in range(p):
        target = cols[target]
    out = np.zeros(a.shape, dtype=a.dtype)
    out[np.arange(cols.size), target] = 1
    return out


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise deviation |a_ij - b_ij|; zero iff the arrays are equal."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def is_unitary(a: np.ndarray, tol: float) -> bool:
    """True iff both a*a† and a†*a are within tol of the identity, entrywise."""
    eye = identity(a.shape[0])
    return (max_abs_diff(a @ dag(a), eye) <= tol
            and max_abs_diff(dag(a) @ a, eye) <= tol)


# --- JSON wire format -------------------------------------------------------
#
# Matrix: {"dim": n, "entries": [[re, im], ...]}, row-major, length n*n.
# Vector: same object shape with length-n entries.
# Floats serialize through repr, so parse(serialize(x)) is bit-exact.


def matrix_to_dict(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return {
        "dim": int(a.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in a.ravel()],
    }


def matrix_from_dict(obj: dict) -> np.ndarray:
    dim, flat = _parse_entries(obj)
    if len(flat) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries for dim {dim}, got {len(flat)}")
    return np.array(flat, dtype=complex).reshape(dim, dim)


def vector_to_dict(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return {
        "dim": int(v.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in v],
    }


def vector_from_dict(obj: dict) -> np.ndarray:
    dim, flat = _parse_entries(obj)
    if len(flat) != dim:
        raise ValueError(f"expected {dim} entries, got {len(flat)}")
    return np.array(flat, dtype=complex)


def _parse_entries(obj: dict) -> tuple[int, list[complex]]:
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    flat = []
    for pair in obj["entries"]:
        re, im = pair
        z = complex(float(re), float(im))
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            raise ValueError("non-finite entry in serialized data")
        flat.append(z)
    return dim, flat
