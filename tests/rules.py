"""The structure rules as one conformance table, and the operands they are
checked on.

``cmatrix._CLOSED`` holds the rules that combine a dense matrix with the
three compact forms, column map, circulant and the DFT's adjoint, and no rule
that would form a map or a DFT: such a pair is numpy's ``TypeError``.
``max_abs_diff`` and ``mat_pow`` pick their routes by type.  Each row of
``TABLE`` is one (operation, left kind, right kind, case) with the kind of its
result, the bound it keeps against the dense specification (numpy on the
formed matrices; bounds.py: exact, map, power, product, or TypeError), and
whether the program's callers reach it.  This module is the contract: every
test that checks a rule's result against numpy does it through
``assert_rule`` or ``conforms``, so a bound is stated once, here.

Kinds: dense (any ndarray, a circulant's view included), diag (a map whose
maker states that row j is j), map, circ, fft (the DFT's adjoint, applied as
an FFT) and scalar.  Cases: same-rows and
other-rows for two maps; p=0 and p>0 for a map's power, which is also the
power of its formed matrix bit for bit; read (p > 0, at most one nonzero per
column) and dense for any other matrix's power.
"""

import math
import operator
from collections import namedtuple
from itertools import product

import numpy as np
import pytest

from qboson import build_operator_set, cmatrix
from qboson.cmatrix import _band_rows, _Circulant, _CLOSED, _ColumnMap, _diagonal, _Dft, _dyad

from bounds import assert_exact, assert_map_power, assert_map_product, assert_product_bound, bit_equal

Row = namedtuple("Row", "op left right case result bound reached")

# operation   left   right  case       result  bound      reached
TABLE = [Row(*line.split()) for line in """
mul           dense  dense  -          dense   exact      yes
mul           dense  diag   -          dense   map        yes
mul           dense  map    -          dense   map        yes
mul           dense  circ   -          dense   exact      no
mul           dense  fft    -          dense   product    yes
mul           diag   dense  -          dense   map        no
mul           diag   diag   -          diag    map        no
mul           diag   map    -          map     map        yes
mul           diag   circ   -          dense   map        yes
mul           diag   fft    -          -       TypeError  no
mul           map    dense  -          -       TypeError  no
mul           map    diag   -          map     map        yes
mul           map    map    -          map     map        yes
mul           map    circ   -          -       TypeError  no
mul           map    fft    -          -       TypeError  no
mul           circ   dense  -          dense   exact      no
mul           circ   diag   -          dense   map        yes
mul           circ   map    -          dense   map        no
mul           circ   circ   -          circ    product    yes
mul           circ   fft    -          dense   product    no
mul           fft    dense  -          dense   product    yes
mul           fft    diag   -          -       TypeError  no
mul           fft    map    -          -       TypeError  no
mul           fft    circ   -          dense   product    no
mul           fft    fft    -          -       TypeError  no
sub           dense  dense  -          dense   exact      yes
sub           dense  diag   -          dense   exact      no
sub           dense  map    -          dense   exact      yes
sub           dense  circ   -          -       TypeError  no
sub           dense  fft    -          -       TypeError  no
sub           diag   dense  -          -       TypeError  no
sub           diag   diag   same-rows  diag    exact      no
sub           diag   map    same-rows  diag    exact      yes
sub           diag   map    other-rows -       TypeError  no
sub           diag   circ   -          -       TypeError  no
sub           diag   fft    -          -       TypeError  no
sub           map    dense  -          -       TypeError  no
sub           map    diag   same-rows  map     exact      no
sub           map    diag   other-rows -       TypeError  no
sub           map    map    same-rows  map     exact      yes
sub           map    map    other-rows -       TypeError  no
sub           map    circ   -          -       TypeError  no
sub           map    fft    -          -       TypeError  no
sub           circ   dense  -          -       TypeError  no
sub           circ   diag   -          -       TypeError  no
sub           circ   map    -          -       TypeError  no
sub           circ   circ   -          -       TypeError  no
sub           circ   fft    -          -       TypeError  no
sub           fft    dense  -          -       TypeError  no
sub           fft    diag   -          -       TypeError  no
sub           fft    map    -          -       TypeError  no
sub           fft    circ   -          -       TypeError  no
sub           fft    fft    -          -       TypeError  no
scale         scalar dense  -          dense   exact      yes
scale         scalar diag   -          diag    exact      no
scale         scalar map    -          map     exact      yes
scale         scalar circ   -          -       TypeError  no
scale         scalar fft    -          -       TypeError  no
max_abs_diff  dense  dense  -          scalar  exact      yes
max_abs_diff  dense  diag   -          scalar  exact      yes
max_abs_diff  dense  map    -          scalar  exact      yes
max_abs_diff  dense  circ   -          scalar  exact      no
max_abs_diff  dense  fft    -          -       TypeError  no
max_abs_diff  diag   dense  -          scalar  exact      yes
max_abs_diff  diag   diag   same-rows  scalar  exact      yes
max_abs_diff  diag   map    same-rows  scalar  exact      no
max_abs_diff  diag   map    other-rows scalar  exact      no
max_abs_diff  diag   circ   -          scalar  exact      no
max_abs_diff  diag   fft    -          -       TypeError  no
max_abs_diff  map    dense  -          scalar  exact      yes
max_abs_diff  map    diag   same-rows  scalar  exact      yes
max_abs_diff  map    diag   other-rows scalar  exact      yes
max_abs_diff  map    map    same-rows  scalar  exact      yes
max_abs_diff  map    map    other-rows scalar  exact      no
max_abs_diff  map    circ   -          scalar  exact      no
max_abs_diff  map    fft    -          -       TypeError  no
max_abs_diff  circ   dense  -          scalar  exact      yes
max_abs_diff  circ   diag   -          scalar  exact      no
max_abs_diff  circ   map    -          scalar  exact      no
max_abs_diff  circ   circ   -          scalar  exact      yes
max_abs_diff  circ   fft    -          -       TypeError  no
max_abs_diff  fft    dense  -          -       TypeError  no
max_abs_diff  fft    diag   -          -       TypeError  no
max_abs_diff  fft    map    -          -       TypeError  no
max_abs_diff  fft    circ   -          -       TypeError  no
max_abs_diff  fft    fft    -          -       TypeError  no
mat_pow       dense  scalar read       dense   power      no
mat_pow       dense  scalar dense      dense   exact      no
mat_pow       diag   scalar p=0        diag    exact      no
mat_pow       diag   scalar p>0        diag    power      yes
mat_pow       map    scalar p=0        diag    exact      no
mat_pow       map    scalar p>0        map     power      yes
mat_pow       circ   scalar read       dense   power      no
mat_pow       circ   scalar dense      dense   exact      no
mat_pow       fft    scalar dense      dense   exact      no
""".strip().splitlines()]

ROWS = {row[:4]: row for row in TABLE}


def kind(x) -> str:
    if isinstance(x, np.ndarray):
        return "dense"
    if isinstance(x, _ColumnMap):
        return "diag" if x.diagonal else "map"
    if isinstance(x, _Circulant):
        return "circ"
    if isinstance(x, _Dft):
        return "fft"
    return "scalar"


def key(op: str, x, y) -> tuple:
    """The row that an operation on x and y falls under."""
    case = "-"
    if op in ("sub", "max_abs_diff") and isinstance(x, _ColumnMap) and isinstance(y, _ColumnMap):
        case = "same-rows" if np.array_equal(x.rows, y.rows) else "other-rows"
    elif op == "mat_pow" and isinstance(x, _ColumnMap):
        case = "p>0" if y else "p=0"
    elif op == "mat_pow":
        one_per_column = np.all(np.count_nonzero(np.asarray(x), axis=0) <= 1)
        case = "read" if y and one_per_column else "dense"
    return op, kind(x), kind(y), case


def rule(op: str):
    # looked up when called, so a mutant or a recording wrapper is the one run
    return getattr(cmatrix if op in ("max_abs_diff", "mat_pow") else _CLOSED, op)


# the dense specification: numpy on the formed matrices
_SPEC = {"mul": operator.matmul, "sub": operator.sub, "scale": operator.mul,
         "max_abs_diff": lambda x, y: float(np.abs(x - y).max(initial=0.0)),
         "mat_pow": np.linalg.matrix_power}


def formed(x):
    return x if kind(x) == "scalar" else np.asarray(x)


def assert_rule(op: str, x, y, fx=None, fy=None):
    """Run op on x and y and hold it to its row: the row's TypeError, or a
    result that conforms to it, which is returned.  fx and fy are x and y
    formed, where the caller keeps them."""
    if ROWS[key(op, x, y)].bound == "TypeError":
        with pytest.raises(TypeError):
            rule(op)(x, y)
        return None
    got = rule(op)(x, y)
    conforms(op, got, x, y, fx, fy)
    return got


def conforms(op: str, got, x, y, fx=None, fy=None) -> None:
    """got = op(x, y) has its row's result kind and keeps its bound against
    the dense specification on the formed x and y."""
    row = ROWS[key(op, x, y)]
    fx, fy = formed(x) if fx is None else fx, formed(y) if fy is None else fy
    # on named operands: numpy computes a product on a temporary of 256 KiB
    # or more (d >= 128) in place, by a complex loop that differs in the last bit
    want = _SPEC[op](fx, fy)
    assert kind(got) == row.result
    if isinstance(got, _ColumnMap) and got.diagonal:  # as its maker states it
        assert np.array_equal(got.rows, np.arange(got.shape[0]))
    if isinstance(got, np.ndarray) and op != "mat_pow":  # a fresh array
        assert not any(np.may_share_memory(got, z) for z in (x, y) if isinstance(z, np.ndarray))
    if op == "mat_pow" and isinstance(x, _ColumnMap):  # and the power of its matrix
        assert bit_equal(np.asarray(got), cmatrix.mat_pow(fx, y))
    if row.bound == "exact":
        assert_exact(got, want)
    elif row.bound == "map":
        assert_map_product(got, want, fx, fy)
    elif row.bound == "power":
        assert_map_power(got, want)
    else:
        assert row.bound == "product"
        assert_product_bound(got, fx, fy)


# --- the operand families ---------------------------------------------------

SPECIAL_VALUES = (math.nan, math.inf, -math.inf, complex(math.nan, 1.0), complex(0.0, math.inf),
                  complex(-math.inf, math.nan), complex(0.0, -math.inf))


def cnormal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def column_maps(cfg) -> dict:
    """The monomials the operator set keeps as column maps, its builders'
    matrices bit for bit, the diagonals g and [N+1] among them, and the
    dyads |s><s|, |0><s| and |s><0|."""
    x, s, d = vars(build_operator_set(cfg)), cfg.s, cfg.dim
    return {"a": x["a"], "a†": x["a_dag"], "h": x["h"], "h†": x["h_dag"], "H": x["big_h"],
            "H†": x["big_h_dag"], "g": x["g"], "[N+1]": x["brace_g1"],
            "|s><s|": _dyad(s, s, d), "|0><s|": _dyad(0, s, d), "|s><0|": _dyad(s, 0, d)}


def random_maps(rng, w) -> dict:
    """Column maps of the weights w on every kind of rows: a diagonal, a band
    and its reverse, a permutation, and repeated rows with an adjoint's zero."""
    d = w.size
    return {"random diagonal": _diagonal(w), "band map": _ColumnMap(_band_rows(d, 1), w),
            "reversed band map": _ColumnMap(_band_rows(d, 1), w[::-1]),
            "permutation map": _ColumnMap(rng.permutation(d), w),
            "adjoint-zero map": _ColumnMap(rng.integers(0, d, size=d), w, 0j.conjugate())}


def sparse_map(rng, d: int) -> _ColumnMap:
    # repeated rows, so empty ones, and real or imaginary weights, 0 in about 30% of columns
    return _ColumnMap(rng.integers(0, d, size=d),
                      np.where(rng.uniform(size=d) < 0.3, 0, rng.choice([1.5, -2.0, 0.5j, -1j], size=d)))


def strided(buffer, d: int, offset: int) -> np.ndarray:
    """The read-only d x d view a circulant holds, entry (m, n) at offset + n - m."""
    step = buffer.itemsize
    view = np.ndarray((d, d), buffer.dtype, buffer, offset * step, (-step, step))
    view.flags.writeable = False
    return view


def layouts(c: _Circulant, rng) -> dict:
    """Every ndarray layout of a circulant's entries, each a dense operand: its
    view, transposed, copied and sliced, its real part, views of its entries
    at offsets d and d - 1 and of a slice of them, and a Toeplitz view of
    random entries."""
    x, d = c.dense, c.shape[0]
    return {"view": x, "Toeplitz view": strided(cnormal(rng, 2 * d), d, d - 1),
            "view†": x.T, "copy of the view": x.copy(), "array of the view": np.array(x),
            "view at offset d": strided(x.base, d, d), "view at offset d - 1": strided(x.base, d, d - 1),
            "view of a slice": strided(x.base[:], d, d - 1), "slice of the view": x[:],
            "real part": x.real.astype(complex)}


def special_circulants(column: np.ndarray) -> list:
    """The circulant of column, one within 1e-9 of it, and one with each
    special value in its first lag and in its last."""
    out = [_Circulant(column), _Circulant(column + 1e-9)]
    for value, lag in product(SPECIAL_VALUES, {0, column.size - 1}):
        out.append(_Circulant(np.where(np.arange(column.size) == lag, value, column)))
    return out


def deviation_cases(d: int, seed: int):
    """(name, a, b, m) for the reductions: a random a, b within 1e-9 of it, and
    a map m on rows with repeats, so empty rows, that reads a's entries within
    1e-7, about a fifth of its weights 0.  Then, in fresh draws, each special
    value at each corner and on m's support, and at all of these at once: in a
    alone, and on every side, in a, b and m's weight."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, d, size=d)
    rows[: d // 2] = rng.permutation(d)[: d // 2]

    def fresh():
        a = cnormal(rng, d, d)
        b = a + 1e-9 * rng.normal(size=(d, d))
        return a, b, np.where(rng.uniform(size=d) < 0.2, 0, a[rows, np.arange(d)] + 1e-7)

    places = [(0, 0), (d - 1, d - 1), (d - 1, 0), (0, d - 1), (rows[-1], d - 1)]
    every = tuple(map(np.array, zip(*places)))
    yield ("random", *fresh()[:2], _ColumnMap(rows, fresh()[2]))
    for value, place in (*product(SPECIAL_VALUES, places), *product(SPECIAL_VALUES, [every])):
        where = "every corner" if place is every else place
        a, b, weights = fresh()
        a[place] = value
        yield f"{value} at {where}", a, b, _ColumnMap(rows, weights)
        a, b, weights = fresh()
        a[place] = b[place] = weights[place[1]] = value
        yield f"{value} at {where} on every side", a, b, _ColumnMap(rows, weights)
