"""Dense complex matrix kernel sized for the (s+1)-dimensional number basis.

Matrices are plain ``numpy.ndarray`` values of dtype complex; everything here
is a pure function and all inputs are left untouched.  Products, sums and
scalings are numpy's own operators.  Two kernels read a matrix's structure
off its entries, one column at a time: ``mul_sparse`` multiplies by a factor
with at most one nonzero per column (a step operator, a shift, a dyad) as a
column gather, and ``mat_pow`` takes powers of diagonal, band and
permutation matrices in closed form.  Any other matrix goes to the dense
product or power.
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


# Below this inner dimension one BLAS product costs less than reading the
# factor's pattern, so mul_sparse hands the product to @ unread.
_SPARSE_MIN_DIM = 48


def _nonzero_mask(m: np.ndarray) -> np.ndarray:
    # m != 0 entrywise.  A complex128 matrix with a contiguous axis is
    # compared through its float view instead, three times faster: each
    # entry's (re != 0, im != 0) byte pair, read as one uint16, is nonzero
    # exactly when the entry is
    if m.dtype == np.complex128:
        if m.flags.c_contiguous:
            return (m.view(np.float64) != 0).view(np.uint16).astype(bool)
        if m.flags.f_contiguous:
            return _nonzero_mask(m.T).T
    return m != 0


def _column_read(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    # per column of m: the row of its first nonzero (0 for an empty column)
    # and that entry (0 for an empty column); and whether every column holds
    # at most one nonzero, which is when the nonzeros number exactly the
    # nonempty columns
    nonzero = _nonzero_mask(m)
    rows = nonzero.argmax(axis=0)
    entries = m[rows, np.arange(m.shape[1])]
    return rows, entries, np.count_nonzero(nonzero) == np.count_nonzero(entries)


def mul_sparse(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m, for a factor m with at most one nonzero per column.

    Column j of the product is then column rows[j] of x times that one
    entry, so the product is a column gather and a scale.  Each entry is the
    single nonzero term of the dense sum, which makes the result equal to
    ``x @ m`` entry for entry wherever the entries of m are real or
    imaginary, as those of every step, shift and dyad operator are; only a
    zero may carry the other sign.  Below dimension ``_SPARSE_MIN_DIM``, and
    for an m with two nonzeros in a column, this is ``x @ m``.
    """
    if m.shape[0] < _SPARSE_MIN_DIM:
        return x @ m
    rows, entries, single = _column_read(m)
    if not single:
        return x @ m
    out = x[:, rows]
    out *= entries
    return out


def mat_pow(a: np.ndarray, p: int) -> np.ndarray:
    """p-th matrix power for p >= 0; p = 0 gives the identity.

    Three structures read off the matrix itself are powered in closed form
    from its own entries: a diagonal (the clock, q-integer diagonals), a
    single off-diagonal band (step operators, bare shifts) and a permutation
    matrix of exact 0/1 entries (the cyclic shift).  Each has at most one
    nonzero per column, so one column read finds it.  Every other matrix
    goes through dense binary powering.
    """
    if p < 0:
        raise ValueError(f"power must be nonnegative, got {p}")
    a = np.asarray(a)
    if p > 0 and a.ndim == 2 and a.shape[0] == a.shape[1] and a.size:
        rows, entries, single = _column_read(a)
        if single:
            cols = np.flatnonzero(entries)
            offsets = cols - rows[cols]
            if not np.any(offsets):
                return _diagonal_power(a, p)
            if np.all(offsets == offsets[0]):
                return _band_power(a, int(offsets[0]), p)
            if (cols.size == a.shape[0] and np.all(entries == 1)
                    and np.array_equal(np.sort(rows), cols)):
                return _permutation_power(a, rows, p)
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


def _permutation_power(a: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    # column j holds its 1 in row rows[j], so a sends |j> to |rows[j]>; the
    # p-th power follows rows p times
    target = np.arange(rows.size)
    for _ in range(p):
        target = rows[target]
    out = np.zeros(a.shape, dtype=a.dtype)
    out[target, np.arange(rows.size)] = 1
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
