"""Dense complex matrix kernel sized for the (s+1)-dimensional number basis.

Matrices are plain ``numpy.ndarray`` values of dtype complex; everything here
is a pure function and all inputs are left untouched.  Products, sums and
scalings are numpy's own operators.  Two kernels read, one column at a time,
whether a matrix has at most one nonzero per column (a diagonal, a step
operator, a shift, a dyad), so that it sends each |j> to a multiple of one
|rows[j]>: ``mul_sparse`` multiplies by such a factor as a column gather,
and ``mat_pow`` powers its column map by repeated composition.  Any other
matrix goes to the dense product or power.
"""

from __future__ import annotations

import math

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

    A matrix with at most one nonzero per column (the clock, q-integer
    diagonals, step operators, bare and cyclic shifts) sends each |j> to
    ``entries[j] * |rows[j]>``.  One column read finds that map, and its
    p-th power is the map composed with itself in numpy's binary schedule,
    in O(d log p).  Every other matrix goes through dense binary powering.
    """
    if p < 0:
        raise ValueError(f"power must be nonnegative, got {p}")
    a = np.asarray(a)
    if p > 0 and a.ndim == 2 and a.shape[0] == a.shape[1] and a.size:
        rows, entries, single = _column_read(a)
        if single:
            return _column_map_power(rows, entries, p)
    return np.linalg.matrix_power(a, p)


def _column_map_power(rows: np.ndarray, weights: np.ndarray, p: int) -> np.ndarray:
    # An empty column sends |j> to a sink index d, which maps to itself.  A
    # path that reaches the sink is dead: its weight, which is nan once a
    # live window product has overflowed to inf and met a 0, lands in a sink
    # row that is dropped, so the power is exactly 0 there.
    dim = rows.size
    z_rows = np.concatenate((rows, (dim,)))
    z_rows[:dim][weights == 0] = dim
    z_w = np.concatenate((weights, weights[:1]))  # sink weight: only reaches the dropped row
    r_rows = r_w = None
    # numpy's binary schedule: square z, and compose it into the result r on
    # each set bit of p; z after r multiplies in the order r * z, as dense
    # and elementwise powering do
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            p, bit = divmod(p, 2)
            if bit:
                if r_rows is None:
                    r_rows, r_w = z_rows, z_w
                else:
                    r_rows, r_w = z_rows[r_rows], r_w * z_w[r_rows]
            if not p:
                break
            z_rows, z_w = z_rows[z_rows], z_w * z_w[z_rows]
    out = np.zeros((dim + 1, dim), dtype=weights.dtype)
    out[r_rows[:dim], np.arange(dim)] = r_w[:dim]
    return out[:dim]


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


def _entry_pairs(a: np.ndarray) -> list[list[float]]:
    # [re, im] per entry, in row-major order
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries cannot be serialized")
    return np.stack([a.real, a.imag], axis=-1).reshape(-1, 2).tolist()


def matrix_to_dict(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return {"dim": int(a.shape[0]), "entries": _entry_pairs(a)}


def matrix_from_dict(obj: dict) -> np.ndarray:
    dim, flat = _parse_entries(obj)
    if len(flat) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries for dim {dim}, got {len(flat)}")
    return np.array(flat, dtype=complex).reshape(dim, dim)


def vector_to_dict(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    return {"dim": int(v.shape[0]), "entries": _entry_pairs(v)}


def vector_from_dict(obj: dict) -> np.ndarray:
    dim, flat = _parse_entries(obj)
    if len(flat) != dim:
        raise ValueError(f"expected {dim} entries, got {len(flat)}")
    return np.array(flat, dtype=complex)


def _parse_entries(obj: dict) -> tuple[int, list[complex]]:
    # every malformed object is a ValueError: a dim that is not an int >= 1
    # (bools excluded), or an entry that is not a list of two finite numbers
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("expected an object with keys 'dim' and 'entries'")
    dim, entries = obj["dim"], obj["entries"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(entries, list):
        raise ValueError("entries must be a list")
    flat = []
    for pair in entries:
        if not (isinstance(pair, list) and len(pair) == 2 and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
            raise ValueError(f"each entry must be a list of two numbers, got {pair!r}")
        try:  # an int too large for a float overflows here
            z = complex(float(pair[0]), float(pair[1]))
        except OverflowError:
            z = complex(math.inf)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("non-finite entry in serialized data")
        flat.append(z)
    return dim, flat
