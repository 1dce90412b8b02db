"""Finite-dimensional q-deformed boson algebra at a primitive root of unity.

Builds the (s+1)-dimensional matrix family of a q-boson system whose
deformation parameter is a primitive root of unity, rotates it into the
phase-state basis with the finite Fourier matrix, and verifies every
operator identity of the construction, including the polar decomposition
of the rotated step operators.
"""

from .qnumerics import AlgebraConfig, primitive_root, q_number, sqrt_q_number
from .cmatrix import (
    dag,
    dyad,
    identity,
    is_unitary,
    mat_pow,
    matrix_from_dict,
    matrix_to_dict,
    max_abs_diff,
    vector_from_dict,
    vector_to_dict,
)
from .algebra import (
    OperatorSet,
    PolarDecomposition,
    annihilation,
    build_operator_set,
    clock,
    creation,
    cyclic_shift,
    fourier,
    fourier_conjugate,
    nilpotency_index,
    number,
    phase_brace_roots,
    phase_braces,
    phase_state,
    polar_decompose,
    q_bracket,
    q_bracket_shifted,
    q_number_matrix,
    shift,
    shift_dag,
    sqrt_q_number_matrix,
)
from .verify import (
    CHECK_NAMES,
    CheckResult,
    VerificationReport,
    brute_force_oracle,
    run_all,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraConfig",
    "CHECK_NAMES",
    "CheckResult",
    "OperatorSet",
    "PolarDecomposition",
    "VerificationReport",
    "annihilation",
    "brute_force_oracle",
    "build_operator_set",
    "clock",
    "creation",
    "cyclic_shift",
    "dag",
    "dyad",
    "fourier",
    "fourier_conjugate",
    "identity",
    "is_unitary",
    "mat_pow",
    "matrix_from_dict",
    "matrix_to_dict",
    "max_abs_diff",
    "nilpotency_index",
    "number",
    "phase_brace_roots",
    "phase_braces",
    "phase_state",
    "polar_decompose",
    "primitive_root",
    "q_bracket",
    "q_bracket_shifted",
    "q_number",
    "q_number_matrix",
    "run_all",
    "shift",
    "shift_dag",
    "sqrt_q_number",
    "sqrt_q_number_matrix",
    "sweep",
    "vector_from_dict",
    "vector_to_dict",
]
