"""The structure rules as one conformance table.

``cmatrix._CLOSED`` holds every rule that combines a dense matrix with the
three compact forms, column map, circulant and the DFT's adjoint, and
``max_abs_diff`` and ``mat_pow`` pick their routes by type.  Each row of
``TABLE`` is one (operation, left kind, right kind, case) with the kind of its
result, the bound it keeps against the dense specification (numpy on the
formed matrices; bounds.py: exact, map, power, product, or TypeError), and
whether the program's callers reach it.  ``test_rule`` runs every row over a
grid of roots and operands, and ``test_the_table_covers_every_dispatch``
checks the table against what that grid and the callers dispatch.

Kinds: dense (any ndarray, a circulant's kept view included), diag (a map
whose maker states that row j is j), map, circ, dft (the DFT's adjoint below
cmatrix._FFT_MIN_DIM), fft (from it on) and scalar.  Cases: same-rows and
other-rows for two maps; p=0 and p>0 for a map's power, which is also the
power of its formed matrix bit for bit; read (p > 0, at most one nonzero per
column) and dense for any other matrix's power.
"""

import io
import math
import operator
from collections import namedtuple
from contextlib import redirect_stdout

import numpy as np
import pytest

from qboson import algebra, cli, cmatrix, verify
from qboson import (AlgebraConfig, annihilation, brute_force_oracle, build_operator_set, clock,
                    fourier, fourier_conjugate, phase_braces, polar_decompose, run_all)
from qboson.cmatrix import _band_rows, _Circulant, _CLOSED, _ColumnMap, _Dft, _diagonal, _dyad, dag

from bounds import (assert_exact, assert_map_power, assert_map_product, assert_product_bound,
                    bit_equal, coprime_configs)

Row = namedtuple("Row", "op left right case result bound reached")

# operation   left   right  case       result  bound      reached
TABLE = [Row(*line.split()) for line in """
mul           dense  dense  -          dense   exact      yes
mul           dense  diag   -          dense   map        yes
mul           dense  map    -          dense   map        yes
mul           dense  circ   -          dense   exact      no
mul           dense  dft    -          dense   exact      yes
mul           dense  fft    -          dense   product    yes
mul           diag   dense  -          dense   map        no
mul           diag   diag   -          diag    map        no
mul           diag   map    -          map     map        yes
mul           diag   circ   -          dense   map        yes
mul           diag   dft    -          -       TypeError  no
mul           diag   fft    -          -       TypeError  no
mul           map    dense  -          dense   exact      no
mul           map    diag   -          map     map        yes
mul           map    map    -          map     map        yes
mul           map    circ   -          dense   exact      no
mul           map    dft    -          -       TypeError  no
mul           map    fft    -          -       TypeError  no
mul           circ   dense  -          dense   exact      no
mul           circ   diag   -          dense   map        yes
mul           circ   map    -          dense   map        no
mul           circ   circ   -          circ    product    yes
mul           circ   dft    -          dense   exact      no
mul           circ   fft    -          dense   product    no
mul           dft    dense  -          dense   exact      yes
mul           dft    diag   -          -       TypeError  no
mul           dft    map    -          -       TypeError  no
mul           dft    circ   -          dense   exact      no
mul           dft    dft    -          -       TypeError  no
mul           fft    dense  -          dense   product    yes
mul           fft    diag   -          -       TypeError  no
mul           fft    map    -          -       TypeError  no
mul           fft    circ   -          dense   product    no
mul           fft    fft    -          -       TypeError  no
sub           dense  dense  -          dense   exact      yes
sub           dense  diag   -          dense   exact      no
sub           dense  map    -          dense   exact      yes
sub           dense  circ   -          dense   exact      no
sub           dense  dft    -          dense   exact      no
sub           dense  fft    -          dense   exact      no
sub           diag   dense  -          dense   exact      no
sub           diag   diag   same-rows  diag    exact      no
sub           diag   map    same-rows  diag    exact      yes
sub           diag   map    other-rows dense   exact      no
sub           diag   circ   -          dense   exact      no
sub           diag   dft    -          dense   exact      no
sub           diag   fft    -          dense   exact      no
sub           map    dense  -          dense   exact      no
sub           map    diag   same-rows  map     exact      no
sub           map    diag   other-rows dense   exact      no
sub           map    map    same-rows  map     exact      yes
sub           map    map    other-rows dense   exact      no
sub           map    circ   -          dense   exact      no
sub           map    dft    -          dense   exact      no
sub           map    fft    -          dense   exact      no
sub           circ   dense  -          dense   exact      no
sub           circ   circ   -          dense   exact      no
sub           circ   dft    -          dense   exact      no
sub           circ   fft    -          dense   exact      no
sub           dft    dense  -          dense   exact      no
sub           dft    circ   -          dense   exact      no
sub           dft    dft    -          dense   exact      no
sub           fft    dense  -          dense   exact      no
sub           fft    circ   -          dense   exact      no
sub           fft    fft    -          dense   exact      no
scale         scalar dense  -          dense   exact      yes
scale         scalar diag   -          diag    map        no
scale         scalar map    -          map     map        yes
scale         scalar circ   -          -       TypeError  no
scale         scalar dft    -          -       TypeError  no
scale         scalar fft    -          -       TypeError  no
max_abs_diff  dense  dense  -          scalar  exact      yes
max_abs_diff  dense  diag   -          scalar  exact      yes
max_abs_diff  dense  map    -          scalar  exact      yes
max_abs_diff  dense  circ   -          scalar  exact      yes
max_abs_diff  dense  dft    -          -       TypeError  no
max_abs_diff  dense  fft    -          -       TypeError  no
max_abs_diff  diag   dense  -          scalar  exact      yes
max_abs_diff  diag   diag   same-rows  scalar  exact      yes
max_abs_diff  diag   map    same-rows  scalar  exact      no
max_abs_diff  diag   map    other-rows scalar  exact      no
max_abs_diff  diag   circ   -          scalar  exact      no
max_abs_diff  diag   dft    -          -       TypeError  no
max_abs_diff  diag   fft    -          -       TypeError  no
max_abs_diff  map    dense  -          scalar  exact      yes
max_abs_diff  map    diag   same-rows  scalar  exact      yes
max_abs_diff  map    diag   other-rows scalar  exact      yes
max_abs_diff  map    map    same-rows  scalar  exact      yes
max_abs_diff  map    map    other-rows scalar  exact      no
max_abs_diff  map    circ   -          scalar  exact      no
max_abs_diff  map    dft    -          -       TypeError  no
max_abs_diff  map    fft    -          -       TypeError  no
max_abs_diff  circ   dense  -          scalar  exact      yes
max_abs_diff  circ   diag   -          scalar  exact      no
max_abs_diff  circ   map    -          scalar  exact      no
max_abs_diff  circ   circ   -          scalar  exact      yes
max_abs_diff  circ   dft    -          -       TypeError  no
max_abs_diff  circ   fft    -          -       TypeError  no
max_abs_diff  dft    dense  -          -       TypeError  no
max_abs_diff  dft    diag   -          -       TypeError  no
max_abs_diff  dft    map    -          -       TypeError  no
max_abs_diff  dft    circ   -          -       TypeError  no
max_abs_diff  dft    dft    -          -       TypeError  no
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
mat_pow       dft    scalar dense      dense   exact      no
mat_pow       fft    scalar dense      dense   exact      no
""".strip().splitlines()]


def kind(x) -> str:
    if isinstance(x, np.ndarray):
        return "dense"
    if isinstance(x, _ColumnMap):
        return "diag" if x.diagonal else "map"
    if isinstance(x, _Circulant):
        return "circ"
    if isinstance(x, _Dft):
        return "fft" if x.shape[0] >= cmatrix._FFT_MIN_DIM else "dft"
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


def _rule(op: str):
    # looked up when called, so a mutant or a recording wrapper is the one run
    return getattr(cmatrix if op in ("max_abs_diff", "mat_pow") else _CLOSED, op)


# the dense specification: numpy on the formed matrices
_SPEC = {"mul": operator.matmul, "sub": operator.sub, "scale": operator.mul,
         "max_abs_diff": lambda x, y: float(np.abs(x - y).max(initial=0.0)),
         "mat_pow": np.linalg.matrix_power}


# --- the operands -----------------------------------------------------------

_ALL = ("mul", "sub", "scale", "max_abs_diff", "mat_pow")
_REDUCTIONS = ("sub", "max_abs_diff")  # the only rules given special values and other shapes
_POWERS = ("mat_pow",)
_SPECIAL_VALUES = (math.nan, math.inf, -math.inf, complex(math.nan, 1.0), complex(0.0, math.inf),
                   complex(-math.inf, math.nan), complex(0.0, -math.inf))
_SPECIAL_DIMS = (1, 2, 6, 64)
_RANDOM_DIMS = (1, 2, 3, 5, 6, 7, 17)  # the small dimensions with every random operand
_LEAN_FROM = 18  # from this d on, few operands: each dense product costs a d^3 one


def _read_only(x):
    # so an operand a rule wrote to would raise
    for array in (x.rows, x.weights) if isinstance(x, _ColumnMap) else (x,):
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return x


def _cnormal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _set_operands(cfg, first: bool, lean: bool):
    # the catalog's operands as the closed route holds them: the set's
    # structures and dense fields, g⁻¹, √[N] and the DFT's adjoint F†, those
    # that k does not change at the first root only; its one-nonzero-per-
    # column operators formed are the powers' dense operands
    x = verify._closed_operators(build_operator_set(cfg))
    out = [("F g⁻¹", x.fourier * x.g_inv.weights), ("F", x.fourier),
           ("F†", x.fourier_dag), ("g", x.g), ("a", x.a), ("√{H†}", x.sqrt_brace_hdag), ("q", x.q)]
    steps = {"a": x.a, "a†": x.a_dag}
    if not lean:
        out += [("√[N]", x.sqrt_g), ("a†", x.a_dag), ("√{H†+1}", x.sqrt_brace_hdag1)]
        steps.update({"g": x.g, "[N+1]": x.brace_g1})
    if first:
        out += [("H†", x.big_h_dag), ("q a† formed", x.q * np.asarray(x.a_dag))]
        steps.update({"h": x.h, "h†": x.h_dag, "H": x.big_h, "H†": x.big_h_dag})
    if first and not lean:
        out += [("ã", x.a_tilde), ("g⁻¹", x.g_inv), ("[N+1]", x.brace_g1), ("N", x.n_op),
                ("h", x.h), ("h†", x.h_dag), ("H", x.big_h), ("Ñ", x.n_tilde),
                ("Ñ kept", x.n_tilde.kept()), ("{H†}", x.brace_hdag), ("{H†+1}", x.brace_hdag1),
                ("a²", cmatrix.mat_pow(x.a, 2)), ("1/q", 1 / x.q)]
    formed = [(f"{name} formed", np.asarray(m), _ALL if name == "H†" else _POWERS)
              for name, m in steps.items()]
    return [(name, v, _ALL) for name, v in out] + formed


def _strided(buffer, d: int, offset: int) -> np.ndarray:
    # the d x d view a circulant keeps, entry (m, n) at offset + n - m
    step = buffer.itemsize
    return np.ndarray((d, d), buffer.dtype, buffer, offset * step, (-step, step))


def _random_operands(d: int, lean: bool):
    # random operands of every kind: repeated rows, empty columns, complex
    # weights, an adjoint's signed zeros; every layout of a circulant's
    # entries, which is a dense operand; and, for the powers, matrices with
    # at most one nonzero per column or nearly so
    rng = np.random.default_rng(d)
    s = d - 1
    r, w = _cnormal(rng, d, d), _cnormal(rng, d)
    c = _Circulant(_cnormal(rng, d))
    out = [("random†", dag(r)), ("random diagonal", _diagonal(w)), ("random circulant", c),
           ("|s><0|", _dyad(s, 0, d)), ("-1", -1.0)]
    if d in (3, 64):
        x = c.kept()
        out += [("kept view", x), ("kept view†", x.T), ("kept copy", x.copy()),
                ("kept slice", x[:]), ("real part", x.real.astype(complex)),
                ("Toeplitz view", _strided(_cnormal(rng, 2 * d), d, d - 1)),
                ("view at offset d", _strided(x.base, d, d)),
                ("view at offset d - 1", _strided(x.base, d, d - 1))]
    if lean:
        return [(name, v, _ALL) for name, v in out]
    rows, repeated = rng.permutation(d), rng.integers(0, d, size=d)
    steps = np.where(rng.uniform(size=d) < 0.3, 0, rng.choice([1.5, -2.0, 0.5j, -1j], size=d))
    zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    out += [
        ("random", r), ("0", 0.0), ("2j", 2j), ("1", _CLOSED.eye(d)), ("0 map", _CLOSED.zeros(d)),
        ("|s><s|", _dyad(s, s, d)), ("|0><s|", _dyad(0, s, d)),
        ("unflagged diagonal", _ColumnMap(_band_rows(d, 0), w)),
        ("band map", _ColumnMap(_band_rows(d, 1), w)),
        ("reversed band map", _ColumnMap(_band_rows(d, 1), w[::-1])),
        ("permutation map", _ColumnMap(rows, w)), ("repeated-row map", _ColumnMap(repeated, steps)),
        ("adjoint-zero map", _ColumnMap(repeated, w, 0j.conjugate())),
        ("sink map", _ColumnMap(np.full(d, s), np.asarray(_dyad(s, 0, d))[s])),
        ("shift circulant", _Circulant(np.eye(d, dtype=complex)[:, min(1, s)])),
        ("signed zeros", np.resize(zeros, (d, d))),
        *((f"unit band, zero {z}", _ColumnMap(_band_rows(d, 1), np.full(d, 1 - 0j), z))
          for z in (0, 0j.conjugate())),
    ]
    ones = np.ones(d, dtype=complex)
    powers = [(f"{name} formed", np.asarray(m)) for name, m in (
        ("permutation map", _ColumnMap(rows, w)), ("repeated-row map", _ColumnMap(repeated, steps)),
        ("band map", _ColumnMap(_band_rows(d, 2), w)), ("permutation", _ColumnMap(rows, ones)))]
    if d > 2:  # a band whose empty column gets a stray entry, a near-permutation, a column of two
        stray = np.array(_ColumnMap(_band_rows(d, 1), np.concatenate(([0], w[1:]))))
        second, near = stray.copy(), np.array(_ColumnMap(_band_rows(d, -1), ones))
        stray[d - 1, 0], second[0, d - 1], near[0, s] = 0.25 - 0.5j, 0.5 - 0.25j, 1 + 1e-15j
        powers += [("band with a stray entry", stray), ("near permutation", near),
                   ("band with two nonzeros in a column", second)]
    return [(name, v, _ALL) for name, v in out] + [(name, v, _POWERS) for name, v in powers]


def _special_operands(d: int):
    # nan, +-inf and complex nan/inf: in a dense matrix at its corners and on
    # the map's support, alone or all at once, in a map's weight there and in
    # a circulant's first and last lag; near operands, and other shapes
    rng = np.random.default_rng(10 * d)
    rows = rng.integers(0, d, size=d)
    rows[: d // 2] = rng.permutation(d)[: d // 2]
    a, c = _cnormal(rng, d, d), _cnormal(rng, d)
    weights = a[rows, np.arange(d)] + 1e-7
    places = tuple(zip(*{(0, 0), (d - 1, d - 1), (d - 1, 0), (0, d - 1), (rows[-1], d - 1)}))
    out = [("near random", a + 1e-9 * _cnormal(rng, d, d)), ("random'", a),
           ("special-row map", _ColumnMap(rows, weights)),
           ("near circulant", _Circulant(c)), ("near circulant'", _Circulant(c + 1e-9))]
    for i, j in zip(*places):
        x = a.copy()
        x[i, j] = math.nan
        out.append((f"nan at ({i}, {j})", x))
    for value in _SPECIAL_VALUES:
        x, w = a.copy(), weights.copy()
        x[places], w[-1] = value, value
        out += [(f"{value} at every corner", x), (f"map of weight {value}", _ColumnMap(rows, w))]
        for lag in {0, d - 1}:
            column = c.copy()
            column[lag] = value
            out.append((f"circulant of lag {lag} {value}", _Circulant(column)))
    for shape in ((d,), (d, 3), (3, d), (d, 3, 2), (0, d)):
        x = _cnormal(rng, *shape)
        out.append((f"shape {shape}", x))
        if x.size:
            x = x.copy()
            x.flat[-1] = math.nan
            out.append((f"shape {shape} with nan", x))
    return [(name, v, _REDUCTIONS) for name, v in out]


# an operand with its matrix formed once, and its kind where no patch of
# _FFT_MIN_DIM changes it
Operand = namedtuple("Operand", "name value formed ops kind")

_POOLS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _free_the_pools():
    yield
    _POOLS.clear()


def _operand(name: str, x, ops=_ALL) -> Operand:
    formed = x if kind(x) == "scalar" else _read_only(np.asarray(_read_only(x)))
    return Operand(name, x, formed, ops, None if isinstance(x, _Dft) else kind(x))


def _operands(d: int, k) -> list[Operand]:
    """The operands at dimension d and root index k; k is None where no
    cutoff has dimension d, and k = 1 is every d's first root."""
    if (d, k) not in _POOLS:
        lean, first = d >= _LEAN_FROM, k in (None, 1)
        pool = [] if k is None else _set_operands(AlgebraConfig(d - 1, k=k), first, lean)
        if first:
            pool += _random_operands(d, lean or d not in _RANDOM_DIMS)
        if first and d in _SPECIAL_DIMS:
            pool += _special_operands(d)
        _POOLS[d, k] = [_operand(*entry) for entry in pool]
    return _POOLS[d, k]


# the operands the powers take at 16 < s <= 40, at every root: the step
# operators and the shifts, formed
_STEPS_AND_SHIFTS = tuple(f"{name} formed" for name in ("a", "a†", "h", "h†", "H", "H†"))


def _grid(op: str):
    # (d, k, operand names): two dimensions no cutoff has; every root for
    # s <= 16, and the powers of the step operators and shifts for s <= 40;
    # the old crossovers d = 48 and 64, and d in {127, 128, 129} around
    # _FFT_MIN_DIM and {256, 257}, composite and prime, at k = 1, -1 and 2
    yield from ((d, None, None) for d in (1, 2))
    for s in range(2, 41 if op == "mat_pow" else 17):
        names = None if s <= 16 else _STEPS_AND_SHIFTS
        yield from ((cfg.dim, cfg.k, names) for cfg in coprime_configs(s))
    for s in (47, 63, 126, 127, 128, 255, 256):
        yield from ((s + 1, k, None) for k in (1, -1, 2) if math.gcd(k, s + 1) == 1)


def _powers(row, d: int):
    # past the nilpotency index for the map routes; at d >= 256 a power d of
    # a q-integer diagonal overflows, and its dense power is no specification.
    # The dense route is numpy's own, and a few powers show it is taken
    if row.case == "dense":
        return (0, 1, 2, 3, 5, 8)
    if d <= 41:
        return (*range(d + 2), 100)
    return (0, 1, 2, 3, d) if d < 127 else (0, 1, 2, 3)


def _pairs(row, d, k, names=None):
    # the operand pairs at (d, k) whose key is the row's
    pool = [a for a in _operands(d, k) if row.op in a.ops and (names is None or a.name in names)]
    lefts = [a for a in pool if (a.kind or kind(a.value)) == row.left]
    if row.op == "mat_pow":  # a power's key is the same for every p > 0
        for a in lefts:
            keys = (key(row.op, a.value, 0), key(row.op, a.value, 1))
            yield from ((a, _operand(str(p), p)) for p in _powers(row, d) if keys[p > 0] == row[:4])
        return
    rights = [b for b in pool if (b.kind or kind(b.value)) == row.right]
    for a in lefts:
        for b in rights:
            same_shape = row.op == "scale" or a.formed.shape == b.formed.shape
            if same_shape and key(row.op, a.value, b.value) == row[:4]:
                yield a, b


def _check(row, a: Operand, b: Operand):
    rule = _rule(row.op)
    if row.bound == "TypeError":
        with pytest.raises(TypeError):
            rule(a.value, b.value)
    else:
        _conforms(row, rule(a.value, b.value), a.value, b.value, a.formed, b.formed)


def _conforms(row, got, x, y, fx, fy):
    # got = op(x, y) against the dense specification on the formed fx and fy
    want = _SPEC[row.op](fx, fy)
    assert kind(got) == row.result
    if isinstance(got, _ColumnMap) and got.diagonal:  # as its maker states it
        assert np.array_equal(got.rows, np.arange(got.shape[0]))
    if isinstance(got, np.ndarray) and row.op != "mat_pow":  # a fresh array
        assert not any(np.may_share_memory(got, z) for z in (x, y) if isinstance(z, np.ndarray))
    if row.op == "mat_pow" and isinstance(x, _ColumnMap):  # and the power of its matrix
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


@pytest.mark.parametrize("row", TABLE, ids=lambda row: "-".join(c for c in row[:4] if c != "-"))
def test_rule(monkeypatch, row):
    # a row with the FFT runs with every dimension routed, one with the
    # DFT below _FFT_MIN_DIM as the library runs it
    if "fft" in row[1:3]:
        monkeypatch.setattr(cmatrix, "_FFT_MIN_DIM", 1)
    count = 0
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is nan on every route
        for d, k, names in _grid(row.op):
            for a, b in _pairs(row, d, k, names):
                try:
                    _check(row, a, b)
                except AssertionError as e:
                    raise AssertionError(f"d={d}, k={k}: {a.name}, {b.name}") from e
                count += 1
    assert count


# the rules with no row: a circulant or a DFT less a map raises a TypeError
# from np.result_type, and no caller forms one
_LEFT_OUT = {("sub", left, right, "-")
             for left in ("circ", "dft", "fft") for right in ("diag", "map")}


def _grid_keys() -> set:
    # every key the operands of a small dimension form, the DFT's from both routes
    keys = set()
    for routed in (False, True):
        with pytest.MonkeyPatch.context() as patched:
            if routed:
                patched.setattr(cmatrix, "_FFT_MIN_DIM", 1)
            for d in (3, 6):
                pool = [a.value for a in _operands(d, 1)]
                matrices = [x for x in pool if kind(x) != "scalar"]
                keys |= {key("mat_pow", x, p) for x in matrices for p in (0, 1) if np.ndim(x) == 2}
                keys |= {key("scale", a, x) for a in pool if kind(a) == "scalar" for x in matrices}
                keys |= {key(op, x, y) for op in ("mul", "sub", "max_abs_diff")
                         for x in matrices for y in matrices if np.shape(x) == np.shape(y)}
    return keys - _LEFT_OUT


def _traffic(monkeypatch) -> set:
    # the keys the program's callers dispatch over s in {2..17, 127, 128, 129,
    # 256}, at every root for s <= 16 and every coprime k in {±1, 2, 3, 5, 7}
    # above; up to s = 17 each call is also held to its row
    seen, rows, held = set(), {row[:4]: row for row in TABLE}, True

    def recording(op, rule):
        def recorded(x, y):
            got, k = rule(x, y), key(op, x, y)
            seen.add(k)
            if held and k in rows:
                _conforms(rows[k], got, x, y, *(z if kind(z) == "scalar" else np.asarray(z)
                                                  for z in (x, y)))
            return got
        return recorded

    for op in ("mul", "sub", "scale"):
        monkeypatch.setattr(_CLOSED, op, recording(op, getattr(_CLOSED, op)))
    monkeypatch.setattr(_CLOSED, "pow", recording("mat_pow", _CLOSED.pow))
    for module in (verify, algebra):
        monkeypatch.setattr(module, "max_abs_diff", recording("max_abs_diff", module.max_abs_diff))
    monkeypatch.setattr(cli, "matrix_to_dict", lambda m: {})  # writing an export dispatches no rule
    for s in (*range(2, 18), 127, 128, 129, 256):
        held, roots = s <= 17, range(1, s + 1) if s <= 16 else (1, -1, 2, 3, 5, 7)
        for k in sorted({k % (s + 1) for k in roots if math.gcd(k, s + 1) == 1}):
            cfg = AlgebraConfig(s, k=k)
            algebra._last_set = None
            polar_decompose(cfg)  # from an empty slot
            run_all(cfg)
            polar_decompose(cfg)  # after run_all
            if s <= verify.ORACLE_MAX_S:
                brute_force_oracle(cfg)
            for a in (annihilation(cfg), clock(cfg), dag(clock(cfg)), fourier(cfg)):
                fourier_conjugate(a, cfg)
            phase_braces(cfg)
            if k == 1:  # the root changes no operand's kind, and a parser per export costs
                with redirect_stdout(io.StringIO()):
                    for op in cli.BUILD_OPS:
                        assert cli.main(["build", "--op", op, "--s", str(s), "--k", str(k)]) == 0
    return seen


def test_the_table_covers_every_dispatch(monkeypatch):
    # every key the grid's operands form is one row's, bar the rules left
    # out, so removing any row fails; every key the callers dispatch has a
    # row, and they reach exactly the rows marked "yes"
    rows = {row[:4] for row in TABLE}
    assert len(rows) == len(TABLE)
    assert _grid_keys() == rows
    traffic = _traffic(monkeypatch)
    assert traffic - rows == set()
    assert traffic == {row[:4] for row in TABLE if row.reached == "yes"}
