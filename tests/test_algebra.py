import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

import qboson.cmatrix
from qboson import algebra, verify

from qboson import (
    AlgebraConfig,
    OperatorSet,
    annihilation,
    build_operator_set,
    clock,
    creation,
    cyclic_shift,
    dag,
    dyad,
    fourier,
    fourier_conjugate,
    identity,
    is_unitary,
    mat_pow,
    max_abs_diff,
    nilpotency_index,
    number,
    phase_brace_roots,
    phase_braces,
    phase_state,
    polar_decompose,
    primitive_root,
    q_bracket,
    q_bracket_shifted,
    q_number_matrix,
    shift,
    shift_dag,
    sqrt_q_number_matrix,
)
from qboson.algebra import _rotate_diagonal
from qboson.cmatrix import _Circulant, _CLOSED, _ColumnMap, _Dft

from bounds import assert_product_bound, assert_rotation_bound, bit_equal, coprime_configs
from rules import conforms

OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)  # exp(2*pi*i/3)

CONFIGS = [AlgebraConfig(s) for s in (2, 3, 4, 5, 7, 8, 12, 16, 31, 32)] + [
    AlgebraConfig(5, k=5),
    AlgebraConfig(7, k=3),
    AlgebraConfig(12, k=5),
]


def _cfg_id(cfg):
    return f"s{cfg.s}k{cfg.k}"


def bound(cfg):
    return cfg.tol * cfg.dim


# --- frozen 3x3 family ------------------------------------------------------


def test_annihilation_s2():
    expected = np.array([[0, 1, 0], [0, 0, 1j], [0, 0, 0]], dtype=complex)
    assert max_abs_diff(annihilation(AlgebraConfig(2)), expected) < 1e-15


def test_creation_s2():
    expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1j, 0]], dtype=complex)
    assert max_abs_diff(creation(AlgebraConfig(2)), expected) < 1e-15


def test_number_s2():
    np.testing.assert_array_equal(number(AlgebraConfig(2)), np.diag([0, 1, 2]).astype(complex))


def test_clock_s2():
    expected = np.diag([1.0, OMEGA, OMEGA ** 2])
    assert max_abs_diff(clock(AlgebraConfig(2)), expected) < 1e-15


def test_fourier_s2():
    w = OMEGA
    expected = np.array([[1, 1, 1], [1, w, w ** 2], [1, w ** 2, w]]) / math.sqrt(3.0)
    assert max_abs_diff(fourier(AlgebraConfig(2)), expected) < 1e-15


def test_q_number_matrix_s2():
    assert max_abs_diff(q_number_matrix(AlgebraConfig(2)), np.diag([0.0, 1.0, -1.0]).astype(complex)) < 1e-15


def test_cyclic_shift_s2_permutation():
    expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    np.testing.assert_array_equal(cyclic_shift(AlgebraConfig(2)), expected)


# --- structural facts -------------------------------------------------------


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_creation_is_radical_transpose(cfg):
    np.testing.assert_array_equal(creation(cfg), annihilation(cfg).T)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_vacuum_and_top_state_killed(cfg):
    assert np.all(annihilation(cfg) @ identity(cfg.dim)[:, 0] == 0.0)
    assert np.all(creation(cfg) @ identity(cfg.dim)[:, cfg.s] == 0.0)


@pytest.mark.parametrize("s, index", [(2, 3), (3, 2), (4, 5), (5, 3), (6, 7), (7, 4), (8, 9), (9, 5), (11, 6)])
def test_nilpotency_index_values(s, index):
    assert nilpotency_index(AlgebraConfig(s)) == index


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_nilpotency_index_is_sharp(cfg):
    a = annihilation(cfg)
    m = nilpotency_index(cfg)
    zero = np.zeros_like(a)
    assert max_abs_diff(mat_pow(a, m), zero) == 0.0
    assert max_abs_diff(mat_pow(a, m - 1), zero) >= 1e-6
    assert max_abs_diff(mat_pow(a, cfg.dim), zero) == 0.0


@pytest.mark.parametrize("s", [2, 4, 8, 16, 32])
def test_even_s_power_s_visible(s):
    # for odd dimension the chain has no interior zero, so a^s survives
    a = annihilation(AlgebraConfig(s))
    assert max_abs_diff(mat_pow(a, s), np.zeros_like(a)) >= 1e-6


@pytest.mark.parametrize("s", [3, 5, 11, 31])
def test_odd_s_power_s_vanishes(s):
    # [(s+1)/2] = 0 splits the chain: a^s is exactly zero despite s+1 being
    # the naive nilpotent size
    a = annihilation(AlgebraConfig(s))
    assert max_abs_diff(mat_pow(a, s), np.zeros_like(a)) == 0.0


# --- defining commutation relations ------------------------------------------


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_deformed_commutator(cfg):
    a = annihilation(cfg)
    ad = creation(cfg)
    q = primitive_root(cfg)
    assert max_abs_diff(a @ ad - q * ad @ a, dag(clock(cfg))) < bound(cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_number_commutators(cfg):
    a, ad, n = annihilation(cfg), creation(cfg), number(cfg)
    assert max_abs_diff(n @ ad - ad @ n, ad) < bound(cfg)
    assert max_abs_diff(n @ a - a @ n, -a) < bound(cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_step_operator_splits_into_shift_and_radial(cfg):
    a, ad = annihilation(cfg), creation(cfg)
    h, hd = shift(cfg), shift_dag(cfg)
    rg = sqrt_q_number_matrix(cfg)
    rg1 = sqrt_q_number_matrix(cfg, offset=1)
    assert max_abs_diff(a, rg1 @ hd) < bound(cfg)
    assert max_abs_diff(a, hd @ rg) < bound(cfg)
    assert max_abs_diff(ad, rg @ h) < bound(cfg)
    assert max_abs_diff(ad, h @ rg1) < bound(cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_quotient_form_of_number_braces(cfg):
    g = clock(cfg)
    assert max_abs_diff(q_bracket(g, cfg), q_number_matrix(cfg)) < bound(cfg)
    assert max_abs_diff(q_bracket_shifted(g, cfg), q_number_matrix(cfg, offset=1)) < bound(cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_clock_shift_exchange(cfg):
    g, h, hd = clock(cfg), shift(cfg), shift_dag(cfg)
    q = primitive_root(cfg)
    assert max_abs_diff(g @ h, q * h @ g) < bound(cfg)
    assert max_abs_diff(g @ hd, (1.0 / q) * hd @ g) < bound(cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_shift_is_partial_isometry_not_unitary(cfg):
    h, hd = shift(cfg), shift_dag(cfg)
    d = cfg.dim
    np.testing.assert_array_equal(h @ hd, identity(d) - dyad(0, 0, d))
    np.testing.assert_array_equal(hd @ h, identity(d) - dyad(cfg.s, cfg.s, d))
    assert not is_unitary(h, bound(cfg))


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_step_products_give_braces(cfg):
    a, ad = annihilation(cfg), creation(cfg)
    assert max_abs_diff(ad @ a, q_number_matrix(cfg)) < bound(cfg)
    assert max_abs_diff(a @ ad, q_number_matrix(cfg, offset=1)) < bound(cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_clock_cyclic_shift_powers(cfg):
    d = cfg.dim
    assert max_abs_diff(mat_pow(clock(cfg), d), identity(d)) < bound(cfg)
    np.testing.assert_array_equal(mat_pow(shift(cfg), d), np.zeros((d, d)))
    assert max_abs_diff(mat_pow(cyclic_shift(cfg), d), identity(d)) < bound(cfg)


# --- Fourier matrix and phase states -----------------------------------------


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_fourier_unitary(cfg):
    assert is_unitary(fourier(cfg), bound(cfg))


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_fourier_first_column_uniform(cfg):
    d = cfg.dim
    col = fourier(cfg) @ identity(d)[:, 0]
    assert max_abs_diff(col, np.full(d, 1.0 / math.sqrt(d), dtype=complex)) < 1e-14


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_phase_states_orthonormal_and_complete(cfg):
    d = cfg.dim
    states = np.column_stack([phase_state(m, cfg) for m in range(d)])
    assert max_abs_diff(dag(states) @ states, identity(d)) < bound(cfg)
    assert max_abs_diff(states @ dag(states), identity(d)) < bound(cfg)


def test_phase_state_range_checked():
    with pytest.raises(IndexError):
        phase_state(3, AlgebraConfig(2))


def test_phase_state_index_is_an_integer():
    # a bool is the index it stands for, not a mask over the Fourier rows
    cfg = AlgebraConfig(4)
    np.testing.assert_array_equal(phase_state(True, cfg), phase_state(1, cfg))
    with pytest.raises(TypeError):
        phase_state(1.0, cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_bare_shift_from_fourier_conjugation(cfg):
    d, s = cfg.dim, cfg.s
    f = fourier(cfg)
    g = clock(cfg)
    assert max_abs_diff(shift(cfg), f @ dag(g) @ dag(f) - dyad(0, s, d)) < bound(cfg)
    assert max_abs_diff(shift_dag(cfg), f @ g @ dag(f) - dyad(s, 0, d)) < bound(cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_cyclic_shift_diagonalized_by_fourier(cfg):
    assert max_abs_diff(cyclic_shift(cfg), fourier_conjugate(dag(clock(cfg)), cfg)) < 1e-12


@pytest.mark.parametrize("s", [*range(2, 17), 64, 128, 256])
def test_fourier_conjugate_of_a_complex_diagonal_is_within_the_stated_bound(s):
    # F a gathers a's columns: against the dense F @ a it is equal in value
    # for real or imaginary weights, and within 4 * 2^-52 * max|a| for the
    # clock's complex ones (README, "Numerical conventions"); the FFT of F a
    # holds to the FFT product bound against the dense (F @ a) @ F†
    for cfg in coprime_configs(s)[:6]:
        f = fourier(cfg)
        for a in (clock(cfg), dag(clock(cfg))):
            dense = _CLOSED.mul(f @ a, _Dft(cfg.k, cfg.dim))
            assert np.abs(fourier_conjugate(a, cfg) - dense).max() <= 4 * 2.0**-52
        for a in (annihilation(cfg), q_number_matrix(cfg), sqrt_q_number_matrix(cfg, offset=1)):
            assert_product_bound(fourier_conjugate(a, cfg), f @ a, dag(f))


def test_fourier_conjugate_identity_and_mismatch():
    cfg = AlgebraConfig(4)
    assert max_abs_diff(fourier_conjugate(identity(cfg.dim), cfg), identity(cfg.dim)) < 1e-14
    with pytest.raises(ValueError):
        fourier_conjugate(identity(3), cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_rotated_number_operator_spectral_sum(cfg):
    ops = build_operator_set(cfg)
    resolved = sum(
        m * np.outer(phase_state(m, cfg), phase_state(m, cfg).conj())
        for m in range(cfg.dim)
    )
    assert max_abs_diff(ops.n_tilde, resolved) < bound(cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_rotated_commutator_closes_on_cyclic_shift(cfg):
    ops = build_operator_set(cfg)
    q = primitive_root(cfg)
    lhs = ops.a_tilde @ ops.a_tilde_dag - q * ops.a_tilde_dag @ ops.a_tilde
    assert max_abs_diff(lhs, ops.big_h) < bound(cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_clock_cyclic_shift_exchange_and_unitarity(cfg):
    g, H = clock(cfg), cyclic_shift(cfg)
    q = primitive_root(cfg)
    assert max_abs_diff(g @ H, q * H @ g) < bound(cfg)
    assert max_abs_diff(g @ dag(H), (1.0 / q) * dag(H) @ g) < bound(cfg)
    assert is_unitary(H, bound(cfg))
    assert is_unitary(g, bound(cfg))


# --- phase-basis braces and the polar decomposition --------------------------


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_phase_braces_match_spectral_route(cfg):
    down, up = phase_braces(cfg)
    assert max_abs_diff(down, fourier_conjugate(q_number_matrix(cfg), cfg)) < 1e-12
    assert max_abs_diff(up, fourier_conjugate(q_number_matrix(cfg, offset=1), cfg)) < 1e-12


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_phase_braces_hermitian(cfg):
    down, up = phase_braces(cfg)
    assert max_abs_diff(down, dag(down)) < 1e-12
    assert max_abs_diff(up, dag(up)) < 1e-12


def test_phase_brace_spectrum_s2():
    # eigensolver used only as an independent oracle here
    down, _ = phase_braces(AlgebraConfig(2))
    eigs = np.sort(np.linalg.eigvals(down).real)
    np.testing.assert_allclose(eigs, [-1.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_brace_roots_square_back(cfg):
    down, up = phase_braces(cfg)
    r_down, r_up = phase_brace_roots(cfg)
    assert max_abs_diff(r_down @ r_down, down) < 1e-12
    assert max_abs_diff(r_up @ r_up, up) < 1e-12


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_polar_decomposition_reconstructs(cfg):
    pd = polar_decompose(cfg)
    assert pd.reconstruction_error <= bound(cfg)
    assert all(err <= bound(cfg) for err in pd.factor_errors.values())
    assert is_unitary(pd.unitary, bound(cfg))


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_polar_factors_against_independent_rotation(cfg):
    f = fourier(cfg)
    g = clock(cfg)
    step_down = f @ annihilation(cfg) @ dag(f)
    step_up = f @ creation(cfg) @ dag(f)
    r_down, r_up = phase_brace_roots(cfg)
    assert max_abs_diff(step_down, dag(g) @ r_down) < bound(cfg)
    assert max_abs_diff(step_down, r_up @ dag(g)) < bound(cfg)
    assert max_abs_diff(step_up, r_down @ g) < bound(cfg)
    assert max_abs_diff(step_up, g @ r_up) < bound(cfg)


def test_polar_up_factorization_s2_tight():
    cfg = AlgebraConfig(2)
    f = fourier(cfg)
    step_up = f @ creation(cfg) @ dag(f)
    _, r_up = phase_brace_roots(cfg)
    assert max_abs_diff(step_up, clock(cfg) @ r_up) < 1e-12


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_radial_factor_not_hermitian(cfg):
    # principal-branch roots of a spectrum with negative entries
    pd = polar_decompose(cfg)
    assert pd.radial_hermiticity_error > bound(cfg)


def test_radial_hermiticity_error_s2_value():
    # only [2] = -1 is negative: the gap is F diag(0, 0, 2i) F', entrywise 2/3
    pd = polar_decompose(AlgebraConfig(2))
    assert pd.radial_hermiticity_error == pytest.approx(2.0 / 3.0, abs=1e-12)


# --- operator set -------------------------------------------------------------


@pytest.mark.parametrize("cfg", CONFIGS[:6], ids=_cfg_id)
def test_operator_set_coherent(cfg):
    ops = build_operator_set(cfg)
    d = cfg.dim
    fields = (
        ops.a, ops.a_dag, ops.n_op, ops.g, ops.h, ops.h_dag, ops.brace_g,
        ops.brace_g1, ops.fourier, ops.big_h, ops.big_h_dag, ops.a_tilde,
        ops.a_tilde_dag, ops.n_tilde, ops.brace_hdag, ops.brace_hdag1,
        ops.sqrt_brace_hdag, ops.sqrt_brace_hdag1,
    )
    assert all(m.shape == (d, d) for m in fields)
    np.testing.assert_array_equal(ops.a_dag, ops.a.T)
    np.testing.assert_array_equal(ops.big_h_dag, dag(ops.big_h))
    assert max_abs_diff(ops.a_tilde, fourier_conjugate(ops.a, cfg)) == 0.0
    assert is_unitary(ops.g, bound(cfg))
    assert is_unitary(ops.fourier, bound(cfg))
    assert is_unitary(ops.big_h, bound(cfg))


# --- one Fourier matrix per configuration ---------------------------------------


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_operator_set_fourier_is_the_phase_state_matrix(cfg):
    states = np.column_stack([phase_state(m, cfg) for m in range(cfg.dim)])
    assert bit_equal(build_operator_set(cfg).fourier, states)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_operator_set_roots_are_the_phase_brace_roots(cfg):
    ops = build_operator_set(cfg)
    r_down, r_up = phase_brace_roots(cfg)
    assert bit_equal(ops.sqrt_brace_hdag, r_down)
    assert bit_equal(ops.sqrt_brace_hdag1, r_up)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_operator_set_braces_are_the_phase_braces(cfg):
    ops = build_operator_set(cfg)
    down, up = phase_braces(cfg)
    assert bit_equal(ops.brace_hdag, down)
    assert bit_equal(ops.brace_hdag1, up)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
def test_polar_radial_factor_is_the_operator_set_root(cfg):
    assert bit_equal(polar_decompose(cfg).radial, build_operator_set(cfg).sqrt_brace_hdag)


# both sides of dimension 48, where the step operators become column gathers
@pytest.mark.parametrize("s", [47, 48, 64, 128])
def test_polar_decomposition_is_the_operator_set_eq19(s):
    for cfg in coprime_configs(s):
        ops = build_operator_set(cfg)
        pd = polar_decompose(cfg)
        assert bit_equal(pd.radial, ops.sqrt_brace_hdag), cfg.k
        assert bit_equal(pd.unitary, dag(ops.g)), cfg.k
        catalog = verify._catalog(_CLOSED, verify._closed_operators(ops), cfg)
        eq19 = dict(catalog)["eq19_polar"]
        assert list(pd.factor_errors.values()) == [max_abs_diff(lhs, rhs) for lhs, rhs in eq19[:4]]


def _count_constructions(monkeypatch, cfg, *builds):
    # calls of the phase-basis builders during build(cfg) for each of builds
    # in turn: the build's F† (a _Dft), and any dense F† formed, which no
    # build needs: F† is an FFT at every d
    counts = {"fourier": 0, "_q_tables": 0, "cyclic_shift": 0, "_Dft": 0, "dense_fdag": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in ("fourier", "_q_tables", "cyclic_shift", "_Dft"):
        monkeypatch.setattr(algebra, name, counted(name, getattr(algebra, name)))
    for namespace in (algebra, qboson.cmatrix, _CLOSED):
        monkeypatch.setattr(namespace, "dag", counted("dense_fdag", namespace.dag))
    for build in builds:
        build(cfg)
    return counts


@pytest.mark.parametrize("s", [4, 64, 256])
def test_operator_set_builds_the_phase_basis_once(monkeypatch, s):
    counts = _count_constructions(monkeypatch, AlgebraConfig(s), build_operator_set)
    assert counts["fourier"] == 1 and counts["_q_tables"] == 1 and counts["_Dft"] == 1
    assert counts["dense_fdag"] == 0
    assert counts["cyclic_shift"] <= 1


@pytest.mark.parametrize("s", [4, 64, 256])
def test_polar_decomposition_builds_the_phase_basis_once(monkeypatch, s):
    counts = _count_constructions(monkeypatch, AlgebraConfig(s), polar_decompose)
    assert counts["fourier"] == 1 and counts["_q_tables"] == 1 and counts["_Dft"] == 1
    assert counts["dense_fdag"] == 0


@pytest.mark.parametrize("s", [4, 64, 256])
def test_verification_and_polar_decomposition_share_one_build(monkeypatch, s):
    counts = _count_constructions(monkeypatch, AlgebraConfig(s), verify.run_all, polar_decompose)
    assert counts["fourier"] == 1 and counts["_q_tables"] == 1 and counts["_Dft"] == 1


def test_equal_configs_share_one_set():
    # the set reads no tol, so the slot is keyed by (s, k) alone
    ops = build_operator_set(AlgebraConfig(5))
    assert build_operator_set(AlgebraConfig(5)) is ops
    assert build_operator_set(AlgebraConfig(5, tol=1e-8)) is ops
    assert build_operator_set(AlgebraConfig(5, k=-1)) is not ops


def test_a_set_config_is_its_key_whatever_the_call_history():
    # the set reads no tol: its config is the slot's (s, k), with the default tol
    algebra._last_set = None
    verify.run_all(AlgebraConfig(8, tol=1e-6))
    ops = build_operator_set(AlgebraConfig(8))
    assert ops.config == AlgebraConfig(8) and ops.config.tol == 1e-9
    assert build_operator_set(AlgebraConfig(8, k=-1, tol=1e-3)).config == AlgebraConfig(8, k=-1)


def test_sets_and_polar_decompositions_compare_and_hash_by_identity():
    # a generated __eq__ would compare array fields and raise, and its
    # __hash__ would hash them; identity is the equality that holds
    ops = build_operator_set(AlgebraConfig(5))
    assert ops == ops and len({ops, ops}) == 1
    assert ops != build_operator_set(AlgebraConfig(6)) and ops != OperatorSet(**vars(ops))
    pd = polar_decompose(AlgebraConfig(5))
    assert pd == pd and len({pd, pd}) == 1 and pd != polar_decompose(AlgebraConfig(5))


def test_a_tol_change_builds_no_second_set(monkeypatch):
    # run_all at one (s, k) with tol 1e-9, then 1e-8, then 1e-9 builds one
    # set; each report keeps its own tol and threshold
    counts = _count_constructions(monkeypatch, None)  # no build yet; the counters stay wrapped
    algebra._last_set = None
    reports = [verify.run_all(AlgebraConfig(64, tol=tol)) for tol in (1e-9, 1e-8, 1e-9)]
    assert counts["fourier"] == 1
    assert [r.config.tol for r in reports] == [1e-9, 1e-8, 1e-9]
    assert [r.checks[0].threshold for r in reports] == [65e-9, 65e-8, 65e-9]
    assert reports[0] == reports[2]


def test_another_config_drops_the_kept_set_before_building(monkeypatch):
    old = weakref.ref(build_operator_set(AlgebraConfig(5)))
    alive_at_build = []
    build = algebra._build_operator_set

    def watched(cfg):
        alive_at_build.append(old() is not None)
        return build(cfg)

    monkeypatch.setattr(algebra, "_build_operator_set", watched)
    build_operator_set(AlgebraConfig(6))
    assert alive_at_build == [False]


def test_another_config_frees_the_set_without_the_collector():
    # a circulant's view refers to the owner of its entries, and the owner to
    # the structure not at all; with no cycle, the previous set, its
    # structures and their owners go as soon as another configuration's set
    # replaces it, collector or not
    cfg = AlgebraConfig(64)
    gc.collect()
    gc.disable()
    try:
        verify.run_all(cfg)
        polar_decompose(cfg)
        ops = build_operator_set(cfg)
        structures = [value for value in vars(ops).values()
                      if isinstance(value, (_ColumnMap, _Circulant))]
        assert len(structures) == 15
        held = [weakref.ref(ops), *map(weakref.ref, structures),
                *(weakref.ref(x.dense.base) for x in structures if isinstance(x, _Circulant))]
        del ops, structures
        build_operator_set(AlgebraConfig(65))
        assert [ref() for ref in held] == [None] * len(held)
    finally:
        gc.enable()


@pytest.mark.parametrize("s", [4, 256])
def test_no_array_of_the_set_can_be_made_writeable(s):
    # every array the set keeps is made over immutable memory: a field that
    # is not a column map, the array it views, a map's rows and weights, a
    # circulant's lags and the radial factor polar_decompose hands out, so a
    # later verification of the same set sees what the first one saw.  A
    # map's read is the caller's own copy: written into, it changes neither
    # the next read nor a verification
    cfg = AlgebraConfig(s)
    ops = build_operator_set(cfg)
    before = verify.run_all(cfg)
    stored = vars(ops)
    maps = [name for name, m in stored.items() if isinstance(m, _ColumnMap)]
    fields = [getattr(ops, f.name) for f in dataclasses.fields(ops)
              if f.name != "config" and f.name not in maps]
    arrays = [*fields, *(x.base for x in fields), polar_decompose(cfg).radial,
              *(x for name in maps for x in (stored[name].rows, stored[name].weights)),
              *(c.lags for c in stored.values() if isinstance(c, _Circulant))]
    assert len(arrays) == 2 * 8 + 1 + 2 * 10 + 5
    for x in arrays:
        with pytest.raises(ValueError):
            x.flags.writeable = True
    for name in maps:
        read = getattr(ops, name)
        want = read.copy()
        read.flags.writeable = True
        read[...] = 7.0
        assert bit_equal(getattr(ops, name), want), name
    assert verify.run_all(cfg) == before


@pytest.mark.parametrize("s", [4, 64])
def test_operator_set_arrays_are_read_only(s):
    ops = build_operator_set(AlgebraConfig(s))
    arrays = [f.name for f in dataclasses.fields(ops) if f.name != "config"]
    assert all(isinstance(getattr(ops, name), np.ndarray) for name in arrays)
    for name in arrays:
        with pytest.raises(ValueError):
            getattr(ops, name)[0, 0] = 1.0
        with pytest.raises(ValueError):
            getattr(ops, name)[...] *= 2
    with pytest.raises(ValueError):
        polar_decompose(AlgebraConfig(s)).radial[0, 0] = 1.0


# each monomial field of the set and the public builder of the same operator
_MONOMIAL_BUILDERS = {
    "a": annihilation, "a_dag": creation, "n_op": number, "g": clock, "h": shift,
    "h_dag": shift_dag, "big_h": cyclic_shift, "big_h_dag": lambda cfg: dag(cyclic_shift(cfg)),
    "brace_g": q_number_matrix, "brace_g1": lambda cfg: q_number_matrix(cfg, offset=1),
}


@pytest.mark.parametrize("s", [*range(2, 17), 47, 48, 64, 128])
def test_formed_monomials_are_the_public_builders(s):
    # a field stored as a column map reads as its builder's matrix byte for
    # byte, signed zeros included (an adjoint's zeros are 0 - 0j)
    for cfg in coprime_configs(s):
        ops = build_operator_set(cfg)
        assert set(_MONOMIAL_BUILDERS) == {
            name for name, value in vars(ops).items() if isinstance(value, _ColumnMap)}
        for name, builder in _MONOMIAL_BUILDERS.items():
            assert bit_equal(getattr(ops, name), builder(cfg)), (cfg.k, name)


@pytest.mark.parametrize("s", [4, 64])
def test_column_maps_of_the_set_are_read_only(s):
    ops = build_operator_set(AlgebraConfig(s))
    for name in _MONOMIAL_BUILDERS:
        m = vars(ops)[name]
        for array in (m.rows, m.weights):
            with pytest.raises(ValueError):
                array[0] = 1
        # formed afresh by each read, and kept nowhere
        first, second = getattr(ops, name), getattr(ops, name)
        assert bit_equal(first, second) and first is not second
    # so a later verification of the same set sees what the first one saw
    assert verify.run_all(AlgebraConfig(s)).overall_pass


@pytest.mark.parametrize("s", [2, 4, 5, 8, 64, 128, 256])
def test_verification_and_polar_decomposition_form_no_monomial(monkeypatch, s):
    # nor any F†: the program's callers read the structures through their
    # rules, and no rule forms a map or a DFT
    cfg = AlgebraConfig(s)
    formed = []
    for kind in (_ColumnMap, _Dft):
        form = kind._formed
        monkeypatch.setattr(kind, "_formed", lambda m, form=form: formed.append(m) or form(m))
    algebra._last_set = None
    verify.run_all(cfg)
    polar_decompose(cfg)
    if s <= verify.ORACLE_MAX_S:
        verify.brute_force_oracle(cfg)
    fourier_conjugate(annihilation(cfg), cfg)
    assert formed == []


@pytest.mark.parametrize("s", [2, 16, 256])
def test_circulants_are_views_of_two_periods(s):
    # n_tilde, the phase braces and the radial roots hold 2(s+1) entries
    # each; the public phase-brace functions still return owned, writable
    # arrays
    cfg = AlgebraConfig(s)
    ops = build_operator_set(cfg)
    for x in (ops.n_tilde, ops.brace_hdag, ops.brace_hdag1, ops.sqrt_brace_hdag,
              ops.sqrt_brace_hdag1):
        assert x.base.size == 2 * cfg.dim and not x.flags.writeable
    for x in (*phase_braces(cfg), *phase_brace_roots(cfg)):
        assert x.flags.owndata and x.flags.writeable
    assert bit_equal(phase_brace_roots(cfg)[0], ops.sqrt_brace_hdag)
    assert bit_equal(phase_braces(cfg)[1], ops.brace_hdag1)


@pytest.mark.parametrize("s", [4, 256])
def test_circulants_cannot_be_written_through_their_base(s):
    # the 2(s+1) entries a circulant views are read-only too, so the kept set,
    # and the eq19 errors run_all recorded on it, cannot change under a reader
    cfg = AlgebraConfig(s)
    ops = build_operator_set(cfg)
    before = verify.run_all(cfg)
    for x in (ops.n_tilde, ops.brace_hdag, ops.brace_hdag1, ops.sqrt_brace_hdag,
              ops.sqrt_brace_hdag1, polar_decompose(cfg).radial):
        with pytest.raises(ValueError):
            x.base[:] = 0
    assert verify.run_all(cfg) == before


@pytest.mark.parametrize("s", [4, 64, 256])
def test_a_quotient_with_one_lag_altered_fails_eq19_alone(monkeypatch, s):
    # each lag of either quotient stands for d entries of a phase brace;
    # altering any one of them fails eq19, which checks the braces against
    # the squared radial roots, and no other catalog check; the oracle fails
    # that brace's op_ line
    cfg = AlgebraConfig(s)
    quotients = algebra._band_quotients
    lags = range(cfg.dim) if s <= 4 else (0, 1, s // 2, s)
    for which, field in enumerate(("brace_hdag", "brace_hdag1")):
        for lag in lags:
            def altered(*args):
                out = quotients(*args)
                out[which][lag] += 1e-3
                return out

            monkeypatch.setattr(algebra, "_band_quotients", altered)
            monkeypatch.setattr(algebra, "_last_set", None)  # build the mutant
            failed = [c for c in verify.run_all(cfg).checks if not c.passed]
            assert [c.name for c in failed] == ["eq19_polar"], (field, lag)
            assert failed[0].deviation >= 0.5e-3, (field, lag)
            if s <= verify.ORACLE_MAX_S:
                oracle = verify.brute_force_oracle(cfg)
                assert {c.name for c in oracle if not c.passed and c.name.startswith("op_")} == {
                    f"op_{field}"}, lag
    monkeypatch.setattr(algebra, "_band_quotients", quotients)
    monkeypatch.setattr(algebra, "_last_set", None)
    assert verify.run_all(cfg).overall_pass


# k far outside the int64 range, or whose products k*m*n overflow it; each
# is coprime to s+1
@pytest.mark.parametrize("s, k", [(4, 2**61 + 1), (4, 10**20 + 1), (256, -2**62 - 1)])
def test_root_index_acts_only_mod_dimension(s, k):
    cfg, reduced = AlgebraConfig(s, k), AlgebraConfig(s, k % (s + 1))
    ops, ref = build_operator_set(cfg), build_operator_set(reduced)
    for field in dataclasses.fields(ops):
        if field.name != "config":
            assert bit_equal(getattr(ops, field.name), getattr(ref, field.name)), field.name
    assert bit_equal(fourier(cfg), fourier(reduced))
    assert bit_equal(clock(cfg), clock(reduced))
    assert verify.run_all(cfg).overall_pass


@pytest.mark.parametrize("s", [*range(2, 17), 47, 64, 128, 256])
def test_diagonal_rotations_match_the_dense_products(s):
    # each diagonal rotated as a circulant against f @ D @ f†
    for cfg in coprime_configs(s):
        ops = build_operator_set(cfg)
        f = ops.fourier
        assert_rotation_bound(ops.n_tilde, f, number(cfg).diagonal())
        assert_rotation_bound(ops.sqrt_brace_hdag, f, sqrt_q_number_matrix(cfg).diagonal())
        assert_rotation_bound(ops.sqrt_brace_hdag1, f,
                                     sqrt_q_number_matrix(cfg, offset=1).diagonal())
        for offset in (0, 1):  # the q-integer diagonals, rotated as circulants
            x = q_number_matrix(cfg, offset=offset).diagonal()
            assert_rotation_bound(_rotate_diagonal(f, x).dense, f, x)


def test_phase_brace_roots_rotate_no_step_operator(monkeypatch):
    # a step operator is rotated by applying F to its column map, a gather
    calls, mul = [], _CLOSED.mul

    def counted(x, y):
        if isinstance(x, np.ndarray) and isinstance(y, _ColumnMap):  # (dense, map)
            calls.append(y)
        return mul(x, y)

    monkeypatch.setattr(_CLOSED, "mul", counted)
    cfg = AlgebraConfig(64)
    build_operator_set(cfg)  # a_tilde and a_tilde_dag
    assert len(calls) == 2
    phase_brace_roots(cfg)  # copies from the kept set, gathering nothing
    assert len(calls) == 2


@pytest.mark.parametrize("s", range(2, 17))
def test_polar_clock_products_match_the_dense_products(s):
    # a factor error from a broadcast clock product differs from the dense
    # one by at most the products' difference, 1e-12 of the radial root
    for cfg in coprime_configs(s):
        f, g = fourier(cfg), clock(cfg)
        step_down = f @ annihilation(cfg) @ dag(f)
        step_up = f @ creation(cfg) @ dag(f)
        r_down, r_up = phase_brace_roots(cfg)
        dense = {
            "down_unitary_radial": (max_abs_diff(step_down, dag(g) @ r_down), r_down),
            "down_radial_unitary": (max_abs_diff(step_down, r_up @ dag(g)), r_up),
            "up_radial_unitary": (max_abs_diff(step_up, r_down @ g), r_down),
            "up_unitary_radial": (max_abs_diff(step_up, g @ r_up), r_up),
        }
        errors = polar_decompose(cfg).factor_errors
        for name, (err, radial) in dense.items():
            assert abs(errors[name] - err) <= 1e-12 * np.abs(radial).max()


# the step operators are applied as column gathers; F† holds to its rows:
# an FFT, within the FFT product bound
@pytest.mark.parametrize("s", [47, 48, 63, 64, 128])
def test_rotated_step_operators_are_the_dense_products(s):
    for cfg in coprime_configs(s):
        ops = build_operator_set(cfg)
        f, step_down, step_up = ops.fourier, ops.a_tilde, ops.a_tilde_dag
        conforms("mul", step_down, f @ ops.a, _Dft(cfg.k, cfg.dim))
        conforms("mul", step_up, f @ ops.a_dag, _Dft(cfg.k, cfg.dim))
        z, r_down, r_up = ops.g.diagonal(), ops.sqrt_brace_hdag, ops.sqrt_brace_hdag1
        dense = {
            "down_unitary_radial": max_abs_diff(step_down, z.conj()[:, None] * r_down),
            "down_radial_unitary": max_abs_diff(step_down, r_up * z.conj()),
            "up_radial_unitary": max_abs_diff(step_up, r_down * z),
            "up_unitary_radial": max_abs_diff(step_up, z[:, None] * r_up),
        }
        assert polar_decompose(cfg).factor_errors == dense, cfg.k
