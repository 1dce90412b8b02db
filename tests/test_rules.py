"""The conformance table of rules.py, run over a grid of roots and operands.

``test_rule`` runs every row over that grid, and
``test_the_table_covers_every_dispatch`` checks the table against what the
grid and the program's callers dispatch.
"""

import io
import math
from collections import namedtuple
from contextlib import redirect_stdout

import numpy as np
import pytest

from qboson import algebra, cli, cmatrix, verify
from qboson import (AlgebraConfig, annihilation, brute_force_oracle, build_operator_set, clock,
                    fourier, fourier_conjugate, phase_braces, polar_decompose, run_all)
from qboson.cmatrix import _band_rows, _Circulant, _CLOSED, _ColumnMap, _dyad, dag

from bounds import coprime_configs
from rules import (ROWS, TABLE, assert_rule, cnormal, column_maps, conforms, deviation_cases, key,
                   kind, layouts, random_maps, sparse_map, special_circulants)

# --- the operands -----------------------------------------------------------

_ALL = ("mul", "sub", "scale", "max_abs_diff", "mat_pow")
_REDUCTIONS = ("sub", "max_abs_diff")  # the only rules given special values and other shapes
_POWERS = ("mat_pow",)
_SPECIAL_DIMS = (1, 2, 6, 64)
_RANDOM_DIMS = (1, 2, 3, 5, 6, 7, 17)  # the small dimensions with every random operand
_LEAN_FROM = 18  # from this d on, few operands: each dense product costs a d^3 one


def _read_only(x):
    # so an operand a rule wrote to would raise
    for array in (x.rows, x.weights) if isinstance(x, _ColumnMap) else (x,):
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return x


def _set_operands(cfg, first: bool, lean: bool):
    # the catalog's operands as the closed route holds them: the set's
    # structures and dense fields, g⁻¹, √[N] and the DFT's adjoint F†, those
    # that k does not change at the first root only; its one-nonzero-per-
    # column operators formed are the powers' dense operands
    x, maps = verify._closed_operators(build_operator_set(cfg)), column_maps(cfg)
    out = [("F g⁻¹", x.fourier * x.g_inv.weights), ("F", x.fourier),
           ("F†", x.fourier_dag), ("g", x.g), ("a", x.a), ("√{H†}", x.sqrt_brace_hdag), ("q", x.q)]
    steps = ["a", "a†"]
    if not lean:
        out += [("√[N]", x.sqrt_g), ("a†", x.a_dag), ("√{H†+1}", x.sqrt_brace_hdag1)]
        steps += ["g", "[N+1]"]
    if first:
        out += [("H†", x.big_h_dag), ("q a† formed", x.q * np.asarray(x.a_dag))]
        steps += ["h", "h†", "H", "H†"]
    if first and not lean:
        out += [("ã", x.a_tilde), ("g⁻¹", x.g_inv), ("[N+1]", x.brace_g1), ("N", x.n_op),
                ("h", x.h), ("h†", x.h_dag), ("H", x.big_h), ("Ñ", x.n_tilde),
                ("Ñ view", x.n_tilde.dense), ("{H†}", x.brace_hdag), ("{H†+1}", x.brace_hdag1),
                ("a²", cmatrix.mat_pow(x.a, 2)), ("1/q", 1 / x.q)]
    formed = [(f"{name} formed", np.asarray(maps[name]), _ALL if name == "H†" else _POWERS)
              for name in steps]
    return [(name, v, _ALL) for name, v in out] + formed


def _random_operands(d: int, lean: bool):
    # random operands of every kind: repeated rows, empty columns, complex
    # weights, an adjoint's signed zeros; every layout of a circulant's
    # entries, which is a dense operand; and, for the powers, matrices with
    # at most one nonzero per column or nearly so
    rng = np.random.default_rng(d)
    s = d - 1
    r, w = cnormal(rng, d, d), cnormal(rng, d)
    c = _Circulant(cnormal(rng, d))
    maps = random_maps(rng, w)
    out = [("random†", dag(r)), ("random diagonal", maps["random diagonal"]),
           ("random circulant", c), ("|s><0|", _dyad(s, 0, d)), ("-1", -1.0)]
    if d in (3, 64):
        out += list(layouts(c, rng).items())
    if lean:
        return [(name, v, _ALL) for name, v in out]
    sparse = sparse_map(rng, d)
    zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    out += [
        ("random", r), ("0", 0.0), ("2j", 2j), ("1", _CLOSED.eye(d)), ("0 map", _CLOSED.zeros(d)),
        ("|s><s|", _dyad(s, s, d)), ("|0><s|", _dyad(0, s, d)),
        ("unflagged diagonal", _ColumnMap(_band_rows(d, 0), w)), *list(maps.items())[1:],
        ("repeated-row map", sparse),
        ("sink map", _ColumnMap(np.full(d, s), np.asarray(_dyad(s, 0, d))[s])),
        ("shift circulant", _Circulant(np.eye(d, dtype=complex)[:, min(1, s)])),
        ("signed zeros", np.resize(zeros, (d, d))),
        *((f"unit band, zero {z}", _ColumnMap(_band_rows(d, 1), np.full(d, 1 - 0j), z))
          for z in (0, 0j.conjugate())),
    ]
    ones = np.ones(d, dtype=complex)
    powers = [(f"{name} formed", np.asarray(m)) for name, m in (
        ("permutation map", maps["permutation map"]), ("repeated-row map", sparse),
        ("band map", _ColumnMap(_band_rows(d, 2), w)),
        ("permutation", _ColumnMap(maps["permutation map"].rows, ones)))]
    if d > 2:  # a band whose empty column gets a stray entry, a near-permutation, a column of two
        stray = np.array(_ColumnMap(_band_rows(d, 1), np.concatenate(([0], w[1:]))))
        second, near = stray.copy(), np.array(_ColumnMap(_band_rows(d, -1), ones))
        stray[d - 1, 0], second[0, d - 1], near[0, s] = 0.25 - 0.5j, 0.5 - 0.25j, 1 + 1e-15j
        powers += [("band with a stray entry", stray), ("near permutation", near),
                   ("band with two nonzeros in a column", second)]
    return [(name, v, _ALL) for name, v in out] + [(name, v, _POWERS) for name, v in powers]


def _special_operands(d: int):
    # the reductions' special cases: of rules.deviation_cases, the random
    # triple, those at every corner at once and those of nan at each corner;
    # special circulants; other shapes
    cases = deviation_cases(d, 10 * d)
    _, a, b, m = next(cases)
    out = [("random'", a), ("near random", b), ("special-row map", m)]
    for name, a, _, m in cases:
        if "every corner" in name or name.startswith("nan at ("):
            out += [(name, a), (f"map of {name}", m)]
    rng = np.random.default_rng(10 * d)
    out += [(f"special circulant {i}", c) for i, c in enumerate(special_circulants(cnormal(rng, d)))]
    for shape in ((d,), (d, 3), (3, d), (d, 3, 2), (0, d)):
        x = cnormal(rng, *shape)
        out.append((f"shape {shape}", x))
        if x.size:
            x = x.copy()
            x.flat[-1] = math.nan
            out.append((f"shape {shape} with nan", x))
    return [(name, v, _REDUCTIONS) for name, v in out]


# an operand with its matrix formed once
Operand = namedtuple("Operand", "name value formed ops")

_POOLS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _free_the_pools():
    yield
    _POOLS.clear()


def _operand(name: str, x, ops=_ALL) -> Operand:
    formed = x if kind(x) == "scalar" else _read_only(np.asarray(_read_only(x)))
    return Operand(name, x, formed, ops)


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
    # the old crossovers d = 48 and 64, and d in {127, 128, 129} and
    # {256, 257}, composite and prime, at k = 1, -1 and 2
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
    lefts = [a for a in pool if kind(a.value) == row.left]
    if row.op == "mat_pow":  # a power's key is the same for every p > 0
        for a in lefts:
            keys = (key(row.op, a.value, 0), key(row.op, a.value, 1))
            yield from ((a, _operand(str(p), p)) for p in _powers(row, d) if keys[p > 0] == row[:4])
        return
    rights = [b for b in pool if kind(b.value) == row.right]
    for a in lefts:
        for b in rights:
            same_shape = row.op == "scale" or a.formed.shape == b.formed.shape
            if same_shape and key(row.op, a.value, b.value) == row[:4]:
                yield a, b


@pytest.mark.parametrize("row", TABLE, ids=lambda row: "-".join(c for c in row[:4] if c != "-"))
def test_rule(row):
    count = 0
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is nan on every route
        for d, k, names in _grid(row.op):
            for a, b in _pairs(row, d, k, names):
                try:
                    assert_rule(row.op, a.value, b.value, a.formed, b.formed)
                except AssertionError as e:
                    raise AssertionError(f"d={d}, k={k}: {a.name}, {b.name}") from e
                count += 1
    assert count


def _grid_keys() -> set:
    # every key the operands of a small dimension form
    keys = set()
    for d in (3, 6):
        pool = [a.value for a in _operands(d, 1)]
        matrices = [x for x in pool if kind(x) != "scalar"]
        keys |= {key("mat_pow", x, p) for x in matrices for p in (0, 1) if np.ndim(x) == 2}
        keys |= {key("scale", a, x) for a in pool if kind(a) == "scalar" for x in matrices}
        keys |= {key(op, x, y) for op in ("mul", "sub", "max_abs_diff")
                 for x in matrices for y in matrices if np.shape(x) == np.shape(y)}
    return keys


def _traffic(monkeypatch) -> set:
    # the keys the program's callers dispatch over s in {2..17, 127, 128, 129,
    # 256}, at every root for s <= 16 and every coprime k in {±1, 2, 3, 5, 7}
    # above; up to s = 17 each call is also held to its row
    seen, held = set(), True

    def recording(op, rule):
        def recorded(x, y):
            got, k = rule(x, y), key(op, x, y)
            seen.add(k)
            if held and k in ROWS:
                conforms(op, got, x, y)
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
    # every key the grid's operands form is one row's, so removing any row
    # fails; every key the callers dispatch has a row, and they reach exactly
    # the rows marked "yes"
    assert len(ROWS) == len(TABLE)
    assert _grid_keys() == set(ROWS)
    traffic = _traffic(monkeypatch)
    assert traffic - set(ROWS) == set()
    assert traffic == {row[:4] for row in TABLE if row.reached == "yes"}
