"""Scalar layer: primitive roots of unity, q-integers, and the square-root branch."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class AlgebraConfig:
    """Parameters of one finite q-boson representation.

    s : Fock cutoff; every operator acts on the (s+1)-dimensional space
        spanned by the number states ``|0>, ..., |s>``.
    k : root index, ``q = exp(2*pi*i*k/(s+1))``.  Must be coprime to s+1
        so that q is a primitive (s+1)-th root of unity; only then does
        the q-integer [s+1] vanish and the finite Fourier matrix stay
        unitary.
    tol : base tolerance for identity checks, finite and positive.  Checks
        on operators scale it by the dimension s+1 to absorb accumulation
        over O(s) products.  A tol that is infinite, or whose threshold
        tol*(s+1) overflows, would pass every check, so it is rejected.
    """

    s: int
    k: int = 1
    tol: float = 1e-9

    def __post_init__(self) -> None:
        # a numpy integer is kept as the int it stands for, so configs compare,
        # hash and serialize alike; a float is a TypeError
        object.__setattr__(self, "s", operator.index(self.s))
        object.__setattr__(self, "k", operator.index(self.k))
        if self.s < 2:
            # s = 1 gives q = -1, so the q-integer denominator q - 1/q vanishes
            raise ValueError(f"s must be >= 2, got {self.s}")
        if math.gcd(self.k, self.s + 1) != 1:
            raise ValueError(
                f"k={self.k} shares a factor with s+1={self.s + 1}; "
                "q would not be a primitive root"
            )
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if not math.isfinite(self.tol * self.dim):
            raise ValueError(f"tol={self.tol} overflows the threshold tol*(s+1)")

    @property
    def dim(self) -> int:
        """Dimension of the representation space, s + 1."""
        return self.s + 1


def primitive_root(cfg: AlgebraConfig) -> complex:
    """The deformation parameter q = exp(2*pi*i*k/(s+1)).

    The root is periodic in k mod s+1, so the exponent is reduced with exact
    integer arithmetic to the symmetric range |m| <= (s+1)/2 before
    evaluating; large or negative k lose no accuracy.
    """
    d = cfg.dim
    m = cfg.k % d
    if 2 * m > d:
        m -= d
    ang = 2.0 * math.pi * m / d
    return complex(math.cos(ang), math.sin(ang))


def q_number(x: int, cfg: AlgebraConfig) -> float:
    """q-integer [x] = sin(2*pi*k*x/(s+1)) / sin(2*pi*k/(s+1)).

    Evaluated as a real sine ratio rather than the equivalent complex
    quotient (q^x - q^-x)/(q - 1/q): [x] is real for unimodular q, and the
    ratio form leaves no spurious imaginary residue.  The integer product
    k*x is reduced mod s+1 before the sine, which makes [x] exactly periodic
    and its zeros exact: [x] = 0 precisely at multiples of s+1 and, when s+1
    is even, at odd multiples of (s+1)/2.
    """
    d = cfg.dim
    return _folded_sine((cfg.k * operator.index(x)) % d, d) / _folded_sine(cfg.k % d, d)


def _folded_sine(m: int, d: int) -> float:
    # sin(2*pi*m/d) for integer 0 <= m < d, folded onto [0, d/2] where the
    # sine is well conditioned; the zeros at m = 0 and m = d/2 come out exact
    sign = 1.0
    if 2 * m > d:
        m, sign = d - m, -1.0
    if m == 0 or 2 * m == d:
        return 0.0
    return sign * math.sin(2.0 * math.pi * m / d)


def sqrt_q_number(x: int, cfg: AlgebraConfig) -> complex:
    """Principal square root of [x]: sqrt([x]) if [x] >= 0, else i*sqrt(|[x]|).

    q-integers turn negative above the midpoint of the spectrum, so a branch
    has to be fixed; the principal branch keeps (sqrt[x])**2 == [x] exactly,
    which is the only property the operator algebra relies on.
    """
    return _principal_sqrt(q_number(x, cfg))


def _principal_sqrt(v: float) -> complex:
    # the branch of sqrt_q_number, for a q-integer already evaluated
    if v >= 0.0:
        return complex(math.sqrt(v), 0.0)
    return complex(0.0, math.sqrt(-v))
