"""Operator family of the finite q-boson representation.

Builders for the weighted step operators, the bare and cyclic shifts, the
diagonal clock operator, the finite Fourier matrix, and the phase-basis
operators obtained by Fourier conjugation, ending in the polar decomposition
of the rotated step operators.

Every matrix function of the cyclic shift is produced in closed form by
conjugating a diagonal with the Fourier matrix; no eigensolver is used
anywhere.  Such a conjugate is a circulant, read off one matrix-vector
product and held as a view of 2(s+1) entries, as are the phase braces,
quotients of the circulant H†; a step operator, held as a
column map, is applied to the Fourier matrix as a column gather, and the
rotation's F† is the ideal DFT's adjoint, an FFT at large dimension.
The polar decomposition reads the operator set.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass

import numpy as np

from .cmatrix import (_band_rows, _Circulant, _CLOSED, _ColumnMap, _Dft, _diagonal, _frozen,
                      _read_map, dag, dyad, max_abs_diff)
from .qnumerics import AlgebraConfig, _principal_sqrt, primitive_root, q_number, sqrt_q_number


def _q_tables(cfg: AlgebraConfig) -> tuple[np.ndarray, np.ndarray]:
    # [n] for n = 0..s+1, each evaluated once, and the principal root of each
    # taken from that same value; entries :-1 are [N], entries 1: are [N+1]
    brackets = [q_number(n, cfg) for n in range(cfg.dim + 1)]
    return (np.array(brackets, dtype=complex),
            np.array([_principal_sqrt(v) for v in brackets]))


def annihilation(cfg: AlgebraConfig) -> np.ndarray:
    """Step-down operator: weight sqrt([n]) on |n-1><n| for n = 1..s.

    Kills the vacuum |0>, and its (s+1)-th power vanishes identically.
    """
    # the root table holds sqrt[n] for n = 0..s+1; sqrt[1..s] sit above the diagonal
    return np.diag(_q_tables(cfg)[1][1:-1], k=1)


def creation(cfg: AlgebraConfig) -> np.ndarray:
    """Step-up operator: weight sqrt([n+1]) on |n+1><n| for n = 0..s-1.

    Carries the same radical weights as the step-down operator, i.e. it is
    its plain transpose (not the conjugate transpose: sqrt([n]) picks up a
    factor i wherever [n] < 0).  Kills the top state |s> because [s+1] = 0.
    """
    return annihilation(cfg).T


def number(cfg: AlgebraConfig) -> np.ndarray:
    """Number operator diag(0, 1, ..., s)."""
    return np.diag(np.arange(cfg.dim)).astype(complex)


def nilpotency_index(cfg: AlgebraConfig) -> int:
    """Smallest power at which the step operators vanish.

    Equal to s+1 when s+1 is odd.  When s+1 is even the q-integer
    [(s+1)/2] = 0 zeroes an interior weight, the chain splits into two
    halves, and the index drops to (s+1)/2; this holds for every admissible
    root index k.
    """
    d = cfg.dim
    return d // 2 if d % 2 == 0 else d


def clock(cfg: AlgebraConfig) -> np.ndarray:
    """Diagonal unimodular clock operator diag(q^0, q^1, ..., q^s)."""
    return np.diag(_clock_diagonal(cfg))


def _clock_diagonal(cfg: AlgebraConfig) -> np.ndarray:
    # q^n for n = 0..s, k reduced mod s+1 before any product
    d = cfg.dim
    return _unit_roots(d)[(cfg.k % d) * np.arange(d) % d]


def _unit_roots(d: int) -> np.ndarray:
    # the table of the d unit roots exp(2 pi i m / d), angles folded to
    # |m| <= d/2 for exactly-evaluated phases
    m = np.arange(d)
    return np.exp(2j * np.pi * np.where(2 * m > d, m - d, m) / d)


def shift(cfg: AlgebraConfig) -> np.ndarray:
    """Bare raising shift: 1 on |n+1><n| for n = 0..s-1, nothing out of |s>.

    A partial isometry, not unitary: it composes with its adjoint to the
    identity minus an end projector.
    """
    return np.diag(np.ones(cfg.s, dtype=complex), k=-1)


def shift_dag(cfg: AlgebraConfig) -> np.ndarray:
    """Bare lowering shift: 1 on |n><n+1| for n = 0..s-1."""
    return dag(shift(cfg))


def cyclic_shift(cfg: AlgebraConfig) -> np.ndarray:
    """Unitary cyclic shift: the bare raising shift closed up by |0><s|."""
    return shift(cfg) + dyad(0, cfg.s, cfg.dim)


def q_number_matrix(cfg: AlgebraConfig, offset: int = 0) -> np.ndarray:
    """Diagonal of q-integers diag([offset], [1+offset], ..., [s+offset])."""
    return np.diag([q_number(n + offset, cfg) for n in range(cfg.dim)]).astype(complex)


def sqrt_q_number_matrix(cfg: AlgebraConfig, offset: int = 0) -> np.ndarray:
    """Diagonal of principal q-integer roots diag(sqrt[offset], ..., sqrt[s+offset])."""
    return np.diag([sqrt_q_number(n + offset, cfg) for n in range(cfg.dim)])


def fourier(cfg: AlgebraConfig) -> np.ndarray:
    """Finite Fourier matrix with kernel q^{mn} / sqrt(s+1); unitary.

    Exponents k*m*n are reduced mod s+1, k first, and index a table of the
    s+1 unit roots, so every entry is an exactly-evaluated phase.
    """
    d = cfg.dim
    idx = np.arange(d)
    exponents = np.outer(idx, idx)
    exponents *= cfg.k % d
    exponents %= d
    # the root table is scaled before the gather: d divisions, not d^2
    return (_unit_roots(d) / math.sqrt(d))[exponents]


def phase_state(m: int, cfg: AlgebraConfig) -> np.ndarray:
    """Phase state |phi_m>: the image of |m> under the Fourier matrix.

    The s+1 phase states form an orthonormal basis dual to the number states.
    """
    m = operator.index(m)  # numpy would read a bool as a mask
    if not 0 <= m <= cfg.s:
        raise IndexError(f"phase state index {m} out of range for s={cfg.s}")
    return fourier(cfg)[:, m].copy()


def fourier_conjugate(a: np.ndarray, cfg: AlgebraConfig) -> np.ndarray:
    """Rotate an operator into the phase basis: F a F†.

    Both products are the operator set's, so this is its ``a_tilde`` for the
    step-down operator, bit for bit: F a is a column gather wherever a has at
    most one nonzero per column, as ``mat_pow`` reads it, and F† applies as
    an FFT from ``cmatrix._FFT_MIN_DIM`` on, a dense product below.
    """
    f = fourier(cfg)
    if a.shape != f.shape:
        raise ValueError(f"operator shape {a.shape} does not match dim {cfg.dim}")
    return _CLOSED.mul(_CLOSED.mul(f, _read_map(np.asarray(a)) or a), _Dft(cfg.k, f))


def q_bracket(u: np.ndarray, cfg: AlgebraConfig) -> np.ndarray:
    """Deformed-number quotient (u - u†) / (q - 1/q) of a unitary u."""
    return _bracket(u, dag(u), primitive_root(cfg))


def q_bracket_shifted(u: np.ndarray, cfg: AlgebraConfig) -> np.ndarray:
    """Index-shifted quotient (q u - u†/q) / (q - 1/q) of a unitary u."""
    return _bracket_shifted(u, dag(u), primitive_root(cfg))


# the two quotients entry by entry, u_dag holding the entries of u† that
# face u's; on matrices, or on the entries of a few positions
def _bracket(u: np.ndarray, u_dag: np.ndarray, q: complex) -> np.ndarray:
    return (u - u_dag) / (q - 1.0 / q)


def _bracket_shifted(u: np.ndarray, u_dag: np.ndarray, q: complex) -> np.ndarray:
    return (q * u - u_dag / q) / (q - 1.0 / q)


def phase_braces(cfg: AlgebraConfig) -> tuple[np.ndarray, np.ndarray]:
    """Deformed number operators diagonal in the phase basis.

    Returns the pair ({down}, {up}) built from the adjoint of the cyclic
    shift by the defining quotients; eigenvalues are the q-integers [n] and
    [n+1].  The same operators also arise by Fourier-conjugating the
    q-integer diagonals, and the two construction routes are cross-checked
    here against the configured tolerance.
    """
    big_h_dag = dag(cyclic_shift(cfg))
    quotient = (q_bracket(big_h_dag, cfg), q_bracket_shifted(big_h_dag, cfg))
    f, brackets = fourier(cfg), _q_tables(cfg)[0]
    _check_braces(cfg, quotient,
                  (_rotate_diagonal(f, brackets[:-1]), _rotate_diagonal(f, brackets[1:])))
    return quotient


def _rotate_diagonal(f: np.ndarray, x: np.ndarray) -> _Circulant:
    # f @ diag(x) @ f† is the circulant whose column 0 is (f @ x) / sqrt(d):
    # entry (m, n) sums q^((m - n) j) x_j / d, one matrix-vector product
    return _Circulant(_rotated_lags(f, x))


def _rotated_lags(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (f @ x) / math.sqrt(len(x))


def _check_braces(cfg: AlgebraConfig, built, spectral) -> None:
    # construction self-check of the quotient route against the spectral one,
    # on matrices or on their lags: floored below so a user tolerance tighter
    # than floating point turns up as a failed verification, not a build crash
    bound = max(cfg.tol, 1e-10) * cfg.dim
    for quotient, reference in zip(built, spectral):
        err = max_abs_diff(quotient, reference)
        if err > bound:
            raise ArithmeticError(
                f"phase-brace construction routes disagree by {err:.3e} (tol {bound:.3e})"
            )


def _band_quotients(cfg: AlgebraConfig,
                    big_h_dag: _ColumnMap) -> tuple[np.ndarray, np.ndarray]:
    # column 0 of q_bracket and q_bracket_shifted of the map's matrix u, entry
    # for entry and byte for byte, from u's column 0 and u†'s, which is u's row
    # 0 conjugated.  u is the circulant H†, and so are both quotients: every
    # entry on one lag holds the same bytes, signed zeros included
    m = big_h_dag
    u, u_dag = np.full((2, cfg.dim), m.zero)
    u[m.rows[0]] = m.weights[0]
    on_row_0 = m.rows == 0
    u_dag[on_row_0] = m.weights[on_row_0]
    u_dag = u_dag.conj()
    q = primitive_root(cfg)
    return _bracket(u, u_dag, q), _bracket_shifted(u, u_dag, q)


def phase_brace_roots(cfg: AlgebraConfig) -> tuple[np.ndarray, np.ndarray]:
    """Square roots of the phase-basis deformed number operators.

    Built by conjugating the principal-branch root diagonals with the
    Fourier matrix; squaring either result reproduces the corresponding
    output of :func:`phase_braces`.  With the principal branch the roots are
    not conjugate-symmetric whenever some q-integer is negative, which
    happens for every s >= 2.
    """
    f, roots = fourier(cfg), _q_tables(cfg)[1]
    return tuple(_rotate_diagonal(f, x).kept().copy() for x in (roots[:-1], roots[1:]))


@dataclass(frozen=True)
class PolarDecomposition:
    """Unitary-times-radial split of the phase-basis step-down operator.

    unitary : the inverse clock, a diagonal unimodular matrix.
    radial : root of the phase-basis deformed number operator; the
        operator set's read-only array.
    reconstruction_error : deviation of unitary @ radial from the
        step-down operator rotated into the phase basis.
    factor_errors : deviations of all four factor orderings, the step-up
        ones included.
    radial_hermiticity_error : deviation of the radial factor from its own
        conjugate transpose.  Nonzero under the principal branch whenever a
        q-integer is negative, so the split is genuinely unitary-times-
        hermitian only where the spectrum stays nonnegative.
    """

    unitary: np.ndarray
    radial: np.ndarray
    reconstruction_error: float
    factor_errors: dict[str, float]
    radial_hermiticity_error: float


def polar_decompose(cfg: AlgebraConfig) -> PolarDecomposition:
    """Polar decomposition of the step operators rotated into the phase basis.

    The rotated step-down operator factors as (inverse clock) @ (radial root),
    with the radial part diagonal in the phase basis; the rotated step-up
    operator factors with the same pieces in the opposite order.  Both
    operators are built independently by Fourier conjugation and compared
    against the factored forms, all read from :func:`build_operator_set`:
    the four factor errors are eq19's four clock pairs, ``_polar_pairs``,
    the verifier's first four deviations.  Right after ``run_all`` on an
    equal configuration nothing is constructed again: the four errors are the
    ones that call reduced, and only the unitary is formed.  On a set that
    ``run_all`` has not reduced (a fresh build, or a copy with some fields
    changed), the same pairs are reduced here, with the unitary's inverse
    clock and no F or F† built.  The radial factor is ``sqrt_brace_hdag``.
    """
    ops = build_operator_set(cfg)
    z_inv = vars(ops)["g"].weights.conj()
    record = _recorded_errors
    deviations = (record[1] if record is not None and record[0]() is ops
                  else _factor_errors(ops, _diagonal(z_inv)))
    errors = dict(zip(_FACTOR_ERRORS, deviations))
    unitary = np.full((cfg.dim,) * 2, _CONJ_ZERO)  # dag(diag(z)), its zeros 0 - 0j
    unitary.reshape(-1)[::cfg.dim + 1] = z_inv
    return PolarDecomposition(
        unitary=unitary,
        radial=ops.sqrt_brace_hdag,
        reconstruction_error=errors["down_unitary_radial"],
        factor_errors=errors,
        radial_hermiticity_error=_hermiticity_error(vars(ops)["sqrt_brace_hdag"].lags),
    )


# polar_decompose's factor errors, in the order of eq19's first four pairs
_FACTOR_ERRORS = ("down_unitary_radial", "down_radial_unitary", "up_radial_unitary",
                  "up_unitary_radial")


def _polar_pairs(ar, x: dict, g_inv) -> list[tuple]:
    # eq19's four clock pairs in _FACTOR_ERRORS's order, over an arithmetic ar and
    # one route's operators x: ã or ã† against the clock, or g_inv, times a radial root
    mul, r_down, r_up = ar.mul, x["sqrt_brace_hdag"], x["sqrt_brace_hdag1"]
    return [(x["a_tilde"], mul(g_inv, r_down)), (x["a_tilde"], mul(r_up, g_inv)),
            (x["a_tilde_dag"], mul(r_down, x["g"])), (x["a_tilde_dag"], mul(x["g"], r_up))]


# eq19's first four deviations as run_all last reduced them, with a weak
# reference to the set they were reduced on; a tuple replaced whole, so a
# reader sees one set's four floats
_recorded_errors: tuple[weakref.ref, tuple[float, ...]] | None = None


def _record_factor_errors(ops: OperatorSet, deviations: list[float]) -> None:
    global _recorded_errors
    _recorded_errors = weakref.ref(ops), tuple(deviations[:len(_FACTOR_ERRORS)])


def _factor_errors(ops: OperatorSet, g_inv: _ColumnMap) -> list[float]:
    # the four clock pairs' deviations on the set as stored, as run_all reduces them
    return [max_abs_diff(lhs, rhs) for lhs, rhs in _polar_pairs(_CLOSED, vars(ops), g_inv)]


def _hermiticity_error(lags: np.ndarray) -> float:
    # max_abs_diff(r, dag(r)) of the circulant r of these lags, bit for bit,
    # in O(d): entry (m, n) is lags[d - 1 + l] at lag l = n - m, and dag(r)
    # holds conj(lags[d - 1 - l]) there
    return float(np.abs(lags - lags[::-1].conj()).max())


class _StructureField:
    """An ``OperatorSet`` field that stores a structure and reads as a matrix.

    A read returns the kept matrix of the structure ``vars(ops)`` holds.  A
    value of any other type, a formed matrix included, is a ``TypeError``.
    """

    def __init__(self, kind: type) -> None:
        self.kind = kind

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, ops, owner=None):
        if ops is None:
            raise AttributeError(self.name)  # so the dataclass field has no default
        return vars(ops)[self.name].kept()

    def __set__(self, ops, value) -> None:
        if not isinstance(value, self.kind):
            raise TypeError(
                f"OperatorSet.{self.name} stores a {self.kind.__name__}, got "
                f"{type(value).__name__}; copy a set as OperatorSet(**{{**vars(ops), **changes}})")
        vars(ops)[self.name] = value


@dataclass(frozen=True)
class OperatorSet:
    """The full operator family of one configuration, all of dimension s+1.

    Every field reads as a read-only complex array.  ``vars(ops)`` holds 15
    structures: the ten monomials (a, a†, N, g, h, h†, H, H†, [N], [N+1]) as
    column maps, each formed as a matrix on its first read, and ``n_tilde``,
    the phase braces and the radial roots as circulants, read as views of
    2(s+1) entries.  So ``fourier``, ``a_tilde`` and ``a_tilde_dag`` are the
    only dense d x d fields.  A copy with some fields changed is made from
    the stored values, ``OperatorSet(**{**vars(ops), **changes})``, which
    keeps every other structure as it is; a structured field given a matrix,
    as ``dataclasses.replace`` gives it, is a ``TypeError``.
    """

    config: AlgebraConfig
    a: np.ndarray = _StructureField(_ColumnMap)
    a_dag: np.ndarray = _StructureField(_ColumnMap)
    n_op: np.ndarray = _StructureField(_ColumnMap)
    g: np.ndarray = _StructureField(_ColumnMap)
    h: np.ndarray = _StructureField(_ColumnMap)
    h_dag: np.ndarray = _StructureField(_ColumnMap)
    brace_g: np.ndarray = _StructureField(_ColumnMap)
    brace_g1: np.ndarray = _StructureField(_ColumnMap)
    fourier: np.ndarray
    big_h: np.ndarray = _StructureField(_ColumnMap)
    big_h_dag: np.ndarray = _StructureField(_ColumnMap)
    a_tilde: np.ndarray
    a_tilde_dag: np.ndarray
    n_tilde: np.ndarray = _StructureField(_Circulant)
    brace_hdag: np.ndarray = _StructureField(_Circulant)
    brace_hdag1: np.ndarray = _StructureField(_Circulant)
    sqrt_brace_hdag: np.ndarray = _StructureField(_Circulant)
    sqrt_brace_hdag1: np.ndarray = _StructureField(_Circulant)


# The last set build_operator_set returned; a set for another configuration
# replaces it.
_last_set: OperatorSet | None = None


def build_operator_set(cfg: AlgebraConfig) -> OperatorSet:
    """Every operator of the family for one configuration, built once.

    The Fourier matrix and the q-integer table are built once; every
    phase-basis operator, the radial roots included, is conjugated with that
    same matrix.  The last set built is kept in one slot, keyed by the whole
    configuration (tol included, since the construction self-check depends
    on it), so a call with an equal configuration returns that same object:
    ``run_all``, ``polar_decompose`` and ``brute_force_oracle`` on one
    configuration share one build.  Every array, a column map's rows and
    weights and a circulant's lags included, is made over immutable memory,
    so no reader can write to it.  A different configuration drops the kept
    set before the new one is built, so at most one set is held at a time.
    """
    global _last_set
    ops = _last_set
    if ops is not None and ops.config == cfg:
        return ops
    _last_set = ops = None  # let the kept set go before a second one is built
    ops = _last_set = _build_operator_set(cfg)
    return ops


# the zeros of an adjoint: dag() conjugates every 0 of a matrix to 0 - 0j, as
# in shift_dag and dag(cyclic_shift)
_CONJ_ZERO = 0j.conjugate()


def _build_operator_set(cfg: AlgebraConfig) -> OperatorSet:
    # the monomials as column maps, straight from the q-integer and root
    # tables: each weight is the entry its dense builder puts at (rows[j], j);
    # every array the set keeps is made over immutable memory
    s, d = cfg.s, cfg.dim
    brackets, roots = map(_frozen, _q_tables(cfg))
    down, up = _band_rows(d, 1), _band_rows(d, -1)  # rows j - 1 and j + 1 of column j
    a = _ColumnMap(down, _frozen(np.concatenate(([0], roots[1:-1]))))  # nothing below |0>
    a_dag = _ColumnMap(up, _frozen(np.concatenate((roots[1:-1], [0]))))  # nothing above |s>
    ones = _frozen(np.ones(d, dtype=complex))
    big_h_dag = _ColumnMap(down, _frozen(ones.conj()), _CONJ_ZERO)
    f = fourier(cfg)
    lags = _band_quotients(cfg, big_h_dag)
    _check_braces(cfg, lags, (_rotated_lags(f, brackets[:-1]), _rotated_lags(f, brackets[1:])))
    f = _frozen(f)
    fdag, mul = _Dft(cfg.k, f), _CLOSED.mul
    n = _frozen(np.arange(d, dtype=complex))
    return OperatorSet(
        config=cfg,
        a=a,
        a_dag=a_dag,
        n_op=_diagonal(n),
        g=_diagonal(_frozen(_clock_diagonal(cfg))),
        h=_ColumnMap(up, _frozen(np.concatenate((ones[:s], [0])))),  # nothing leaves |s>
        h_dag=_ColumnMap(down, _frozen(np.concatenate(([0], ones[:s])).conj()), _CONJ_ZERO),
        brace_g=_diagonal(brackets[:-1]),
        brace_g1=_diagonal(brackets[1:]),
        fourier=f,
        big_h=_ColumnMap(up, ones),
        big_h_dag=big_h_dag,
        # rotated, not formed as clock times circulant: that is eq19's
        # right side, and the check would become a tautology; F a is a
        # gather, and F† the ideal transform's
        a_tilde=_frozen(mul(mul(f, a), fdag)),
        a_tilde_dag=_frozen(mul(mul(f, a_dag), fdag)),
        n_tilde=_rotate_diagonal(f, n),
        brace_hdag=_Circulant(lags[0]),
        brace_hdag1=_Circulant(lags[1]),
        sqrt_brace_hdag=_rotate_diagonal(f, roots[:-1]),
        sqrt_brace_hdag1=_rotate_diagonal(f, roots[1:]),
    )
