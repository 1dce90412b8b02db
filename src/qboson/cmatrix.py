"""Dense complex matrix kernel sized for the (s+1)-dimensional number basis.

Matrices are plain ``numpy.ndarray`` values of dtype complex; everything here
is a pure function and all inputs are left untouched.  A matrix may also be
held as one of three structures, plain data with ``kept()`` and ``_formed()``
and no arithmetic: a ``_ColumnMap`` has at most one nonzero per column (a
diagonal, a step operator, a shift, a dyad), a ``_Circulant`` holds its 2d - 1
distinct entries, and a ``_Dft`` is the adjoint of the ideal finite Fourier
transform of one root index.  ``_CLOSED`` holds every rule that combines
them, and numpy allocates each of its dense results; ``mat_pow`` and
``max_abs_diff`` pick their routes by type.  Against a map a map costs O(d),
and against a dense matrix it is never formed; two circulants multiply in
O(d^2) and are compared in O(d); a DFT applies to a dense matrix as an FFT,
in O(d^2 log d), from ``_FFT_MIN_DIM`` on.
"""

from __future__ import annotations

import functools
import itertools
import operator
from types import SimpleNamespace

import numpy as np


class _Structure:
    """A d x d matrix held in a compact format: a column map, a circulant or a DFT.

    ``np.asarray`` reads the matrix, and ``kept()`` returns it read-only.  A
    structure has no arithmetic: ``_CLOSED`` holds every rule that
    combines it, and numpy raises ``TypeError`` on ``@``, ``-`` or ``*`` of a
    structure rather than take a dense route.
    """

    __slots__ = ("shape", "dense", "__weakref__")
    __array_ufunc__ = None  # so ndarray arithmetic on a structure raises

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = self.dense if self.dense is not None else self._formed()
        if dtype is None and copy is None:
            return dense
        return np.array(dense, dtype=dtype, copy=copy)

    def kept(self) -> np.ndarray:
        """The matrix, formed on the first call, kept and read-only."""
        if self.dense is None:
            formed = self._formed()
            self.dense = self._keep(formed.tobytes(), formed.dtype)
        return self.dense

    def _keep(self, entries: bytes, dtype: np.dtype, offset=0, strides=None) -> np.ndarray:
        # the kept matrix, a view over the immutable bytes entries
        return np.ndarray(self.shape, dtype, np.frombuffer(entries, dtype), offset, strides)


def _frozen(x: np.ndarray) -> np.ndarray:
    # a copy of x over immutable bytes: no flag makes it writeable again
    return np.frombuffer(x.tobytes(), x.dtype).reshape(x.shape)


class _ColumnMap(_Structure):
    """Column j is ``weights[j] * |rows[j]>``; every other entry is ``zero``.

    An empty column has weight exactly 0, and its row changes no result.  Each
    product entry is the one nonzero term of the dense sum, so it equals the
    dense ``@`` wherever one factor's weights are real or imaginary.  The
    matrix is formed afresh by ``np.asarray``, except once ``kept()`` has
    formed it.  ``diagonal`` is true only for a map whose row j is j, as its
    maker states it: true of ``_diagonal``'s, and of the products, powers,
    differences and multiples of diagonals.
    """

    __slots__ = ("rows", "weights", "zero", "diagonal")

    def __init__(self, rows: np.ndarray, weights: np.ndarray, zero: complex = 0,
                 diagonal: bool = False):
        self.rows, self.weights, self.zero, self.diagonal = rows, weights, zero, diagonal
        self.dense, self.shape = None, (rows.size,) * 2

    def _formed(self) -> np.ndarray:
        dense = np.full(self.shape, self.zero, dtype=self.weights.dtype)
        dense[self.rows, _band_rows(self.rows.size, 0)] = self.weights
        return dense


class _Circulant(_Structure):
    """The circulant ``c[(m - n) mod d]`` of column 0 ``c = column``.

    Entry (m, n) is ``lags[d - 1 - m + n]``; ``lags`` holds the 2d - 1
    distinct entries.  The kept matrix, also its ``np.asarray``, is a view of
    2d read-only entries, the reversed column written twice: no d x d array.
    """

    __slots__ = ("lags",)

    def __init__(self, column: np.ndarray) -> None:
        d, step = len(column), column.itemsize
        entries = column[::-1].tobytes() * 2
        self.shape = (d, d)
        self.lags = np.frombuffer(entries, column.dtype, 2 * d - 1)
        self.dense = self._keep(entries, column.dtype, (d - 1) * step, (-step, step))


# The dimension from which a product with a ``_Dft`` is an FFT.  Below it the
# product is ``np.matmul`` with the kept matrix, bit for bit: there numpy's FFT
# costs more per call than a BLAS product (BENCH_fft.json, "break_even")
_FFT_MIN_DIM = 128


class _Dft(_Structure):
    """F†, the adjoint of the ideal DFT of root index k, of a built Fourier matrix F.

    F's kernel is q^{mn} / sqrt(d) with q = exp(2 pi i k / d), so F†'s entry
    (m, n) is the unitary DFT's entry (m, k n mod d): F† X is the DFT of X's
    rows gathered by k^-1 mod d, and X F† the DFT of its gathered columns.
    The kept matrix is ``dag`` of the built F, formed on first use.  k is
    reduced mod d here, not read from F or a root table, so against a dense
    matrix of dimension ``_FFT_MIN_DIM`` or more the product applies the
    ideal transform, and checks a built F against it; it agrees with the
    dense product within rounding, not bit for bit.
    """

    __slots__ = ("k", "built")

    def __init__(self, k: int, built: np.ndarray) -> None:
        self.shape, self.dense, self.built = built.shape, None, built
        self.k = k % self.shape[0]

    def kept(self) -> np.ndarray:
        # the adjoint as dag gives it, a transposed view, so the dense
        # product below _FFT_MIN_DIM is the one with dag(F), bit for bit
        if self.dense is None:
            self.dense = self._formed()
            self.dense.flags.writeable = False
        return self.dense

    def _formed(self) -> np.ndarray:
        return dag(self.built)


def _dft_product(fdag: _Dft, x: np.ndarray, axis: int) -> np.ndarray:
    # F† x on axis 0, x F† on axis 1: the gather is a fresh copy, which the
    # FFT overwrites, so no second d x d array is made
    d = fdag.shape[0]
    if d < _FFT_MIN_DIM:
        return np.matmul(fdag.kept(), x) if axis == 0 else np.matmul(x, fdag.kept())
    y = np.take(x, pow(fdag.k, -1, d) * np.arange(d) % d, axis=axis)
    return np.fft.fft(y, axis=axis, norm="ortho", out=y)


def _closed_mul(x, y):
    """x @ y.  A map times a map is a map.  Against a dense matrix a diagonal
    scales its rows or columns, another map on the right gathers its columns
    (column j is column rows[j] times weights[j]), and one on the left is
    formed.  Two circulants give the circulant whose column 0 is x times y's
    column 0, one matrix-vector product in place of a d^3 one, equal to ``@``
    within rounding; a circulant against anything else is its kept matrix.  A
    DFT against a dense matrix is an FFT from ``_FFT_MIN_DIM`` on, and against
    a map or a DFT a ``TypeError``, as numpy refuses the structure."""
    if isinstance(x, _Circulant):
        if isinstance(y, _Circulant):
            return _Circulant(x.dense @ y.lags[len(x.dense) - 1::-1])
        x = x.dense
    elif isinstance(y, _Circulant):
        y = y.dense
    if isinstance(x, _Dft) and isinstance(y, np.ndarray):
        return _dft_product(x, y, axis=0)
    if isinstance(y, _Dft) and isinstance(x, np.ndarray):
        return _dft_product(y, x, axis=1)
    if isinstance(x, _ColumnMap):
        if isinstance(y, _ColumnMap):  # |j> -> |y_r[j]> -> |x_r[y_r[j]]>
            return _ColumnMap(x.rows[y.rows], x.weights[y.rows] * y.weights,
                              diagonal=x.diagonal and y.diagonal)
        return x.weights[:, None] * y if x.diagonal else np.matmul(np.asarray(x), y)
    if isinstance(y, _ColumnMap):
        return x * y.weights if y.diagonal else x[:, y.rows] * y.weights
    return np.matmul(x, y)


def _closed_sub(x, y):
    """x - y; two maps on the same rows give a map, and a dense matrix less a
    map is x - zero off the map and the d entries x[rows[j], j] - weights[j] on it."""
    if isinstance(x, _ColumnMap) and isinstance(y, _ColumnMap):
        if not np.count_nonzero(x.rows != y.rows):
            return _ColumnMap(x.rows, x.weights - y.weights, diagonal=x.diagonal)
    elif isinstance(y, _ColumnMap):
        out = np.subtract(x, y.zero, dtype=np.result_type(x, y.weights))
        cols = _band_rows(y.rows.size, 0)
        out[y.rows, cols] = x[y.rows, cols] - y.weights
        return out
    return np.subtract(np.asarray(x), np.asarray(y))


def _closed_scale(alpha, x):
    """alpha * x; a scaled map is a map."""
    if isinstance(x, _ColumnMap):
        return _ColumnMap(x.rows, alpha * x.weights, diagonal=x.diagonal)
    return np.multiply(alpha, x)


def _band_rows(dim: int, offset: int) -> np.ndarray:
    # row j - offset mod dim of each column j: a cyclic band, shared and read-only
    return _band_table(dim, offset % dim)  # one table per offset mod dim


# room for a sweep(2, 32)'s 93 tables: offsets 0, 1 and -1 (the dyads' -+s) at 31 dims
@functools.lru_cache(maxsize=128)
def _band_table(dim: int, offset: int) -> np.ndarray:
    return _frozen((np.arange(dim) - offset) % dim)


def _diagonal(weights: np.ndarray) -> _ColumnMap:
    return _ColumnMap(_band_rows(weights.size, 0), weights, diagonal=True)


def _dyad(m: int, n: int, dim: int) -> _ColumnMap:
    m, n = operator.index(m), operator.index(n)  # numpy reads a bool index as a mask
    if not (0 <= m < dim and 0 <= n < dim):
        raise IndexError(f"dyad indices ({m}, {n}) out of range for dim {dim}")
    weights = np.zeros(dim, dtype=complex)
    weights[n] = 1.0
    return _ColumnMap(_band_rows(dim, n - m), weights)


def dyad(m: int, n: int, dim: int) -> np.ndarray:
    """Outer product |m><n|: a single 1 at row m, column n."""
    return np.asarray(_dyad(m, n, dim))


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


# The catalog's numpy arithmetic: the naive arithmetic's eight operations,
# with every rule for the structures; any other result is numpy's ``@``,
# ``-``, ``*`` or ``dag`` bit for bit
_CLOSED = SimpleNamespace(
    mul=_closed_mul, sub=_closed_sub, scale=_closed_scale, dag=dag,
    pow=lambda x, p: mat_pow(x, p),  # looked up when called, so a wrapper put on it sees every power
    eye=lambda dim: _diagonal(np.ones(dim, dtype=complex)),
    zeros=lambda dim: _diagonal(np.zeros(dim, dtype=complex)),
    dyad=_dyad,
)


def mat_pow(a: np.ndarray, p: int) -> np.ndarray:
    """p-th matrix power for p >= 0; p = 0 gives the identity.

    A matrix with at most one nonzero per column (the clock, q-integer
    diagonals, step operators, shifts) sends each |j> to ``entries[j] *
    |rows[j]>``.  One column read finds that map, and its p-th power composes
    it with itself in numpy's binary schedule, in O(d log p); a column map
    needs no read, and its power is a map.  Any other matrix is powered densely.
    """
    p = operator.index(p)  # a float p is a TypeError on both routes
    if p < 0:
        raise ValueError(f"power must be nonnegative, got {p}")
    if isinstance(a, _ColumnMap):
        return _column_map_power(a, p) if p else _diagonal(np.ones(a.rows.size, dtype=complex))
    a = np.asarray(a)
    if p > 0 and a.ndim == 2 and a.shape[0] == a.shape[1] and a.size:
        m = _read_map(a)
        if m is not None:
            return np.asarray(_column_map_power(m, p))
    return np.linalg.matrix_power(a, p)


def _read_map(a: np.ndarray) -> _ColumnMap | None:
    # the column map of a square matrix with at most one nonzero per column,
    # found by one column read; None for any other matrix
    nonzero = a != 0
    rows = nonzero.argmax(axis=0)  # an empty column reads row 0 and weight 0
    weights = a[rows, np.arange(a.shape[1])]
    if np.count_nonzero(nonzero) == np.count_nonzero(weights):
        return _ColumnMap(rows, weights)
    return None


def _column_map_power(m: _ColumnMap, p: int) -> _ColumnMap:
    # An empty column sends |j> to a sink index d, which maps to itself.  A
    # path that reaches the sink is dead: its weight, which is nan once a
    # live window product has overflowed to inf and met a 0, is dropped, so
    # the power's column is empty there, with the column's own index as row.
    rows, weights, dim = m.rows, m.weights, m.rows.size
    z_rows = np.concatenate((rows, (dim,)))
    z_rows[:dim][weights == 0] = dim
    z_w = np.concatenate((weights, weights[:1]))  # sink weight: only reaches the sink
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
    dead = r_rows[:dim] == dim  # a dead column's row is j, so a diagonal's power is one
    return _ColumnMap(np.where(dead, np.arange(dim), r_rows[:dim]), np.where(dead, 0, r_w[:dim]),
                      diagonal=m.diagonal)


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise deviation |a_ij - b_ij|; zero iff the arrays are equal.

    A nan deviation anywhere gives nan, as numpy's reduction does.  A column
    map is never formed: against another map the deviation costs O(d), and
    against a dense matrix it is read off the dense entries and the map's d.
    Two circulants are compared on their 2d - 1 distinct entries, in O(d).
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if isinstance(a, _ColumnMap) and isinstance(b, _ColumnMap):
        gap = np.abs(a.weights - b.weights)  # in O(d), bit for bit the dense reduction
        apart = a.rows != b.rows  # there the deviation is the larger of two entries
        if np.count_nonzero(apart):
            gap[apart] = np.maximum(np.abs(a.weights[apart]), np.abs(b.weights[apart]))
        return float(gap.max())
    if isinstance(a, _Circulant) and isinstance(b, _Circulant):
        return float(np.abs(a.lags - b.lags).max())  # each distinct entry once
    if 0 in a.shape:
        return 0.0
    if isinstance(a, _ColumnMap):
        a, b = b, a  # |x - y| is |y - x| bit for bit
    if isinstance(a, _Circulant):
        a = a.kept()
    if isinstance(b, _Circulant):
        b = b.kept()
    if isinstance(b, _ColumnMap):  # |a - weights[j]| at (rows[j], j), |a - zero| = |a| elsewhere
        size, cols = np.abs(a), _band_rows(len(a), 0)
        size[b.rows, cols] = np.abs(a[b.rows, cols] - b.weights)
        return float(np.maximum.reduce(size, axis=None))
    return float(np.abs(a - b).max())


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
    if a.size == 0:  # the readers accept no dim 0, so neither does a writer
        raise ValueError("dim must be a positive integer, got 0")
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
    return flat.reshape(dim, dim)


def vector_to_dict(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    return {"dim": int(v.shape[0]), "entries": _entry_pairs(v)}


def vector_from_dict(obj: dict) -> np.ndarray:
    dim, flat = _parse_entries(obj)
    if len(flat) != dim:
        raise ValueError(f"expected {dim} entries, got {len(flat)}")
    return flat


def _parse_entries(obj: dict) -> tuple[int, np.ndarray]:
    # every malformed object is a ValueError: a dim that is not an int >= 1
    # (bools excluded), or an entry that is not a list of two finite numbers
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("expected an object with keys 'dim' and 'entries'")
    dim, entries = obj["dim"], obj["entries"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(entries, list):
        raise ValueError("entries must be a list")
    # the checks run over the distinct types and lengths, not entry by entry
    pairs = (all(issubclass(t, list) for t in set(map(type, entries)))
             and set(map(len, entries)) <= {2})
    flat = list(itertools.chain.from_iterable(entries)) if pairs else []
    if not (pairs and all(_is_number(t) for t in set(map(type, flat)))):
        bad = next(p for p in entries if not (
            isinstance(p, list) and len(p) == 2 and all(_is_number(type(x)) for x in p)))
        raise ValueError(f"each entry must be a list of two numbers, got {bad!r}")
    try:
        values = np.array(flat, dtype=float)
        finite = np.all(np.isfinite(values))
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError("non-finite entry in serialized data")
    return dim, values.view(complex)  # (re, im) pairs are complex numbers in memory


def _is_number(t: type) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)
