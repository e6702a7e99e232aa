"""Symmetric-range modular arithmetic and residue number systems.

Everything in this module is exact integer arithmetic.  Residues are kept in
the symmetric range [-(m-1)/2, (m-1)/2] for an odd modulus m, so signed values
survive encode/decode without a separate sign channel.

One reconstruction serves every route: the Chinese Remainder Theorem (CRT)
with cofactor weights.  With M the product of the moduli and M_i = M / m_i,
x = sum_i M_i * (x_i * inv_i mod m_i), folded mod M, for any representatives
x_i, inv_i = M_i^-1 mod m_i.  The fast path folds inv_i into each channel's
backward transform and sums in float64; layer.range_check refuses a system
past that sum's bound (RnsSystem.crt_fits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gemm
from .errors import NotCoprime, OutOfRange, SystemMismatch

# Residues must fit a signed 16-bit word, so moduli are capped at 15 bits.
MAX_MODULUS = (1 << 15) - 1


def as_int(value, name: str, least: int | None = None) -> int:
    """The package's one integer rule: an int or a numpy integer, returned
    as a plain int.  A bool, a float or anything else raises TypeError, and
    a value below least ValueError, each naming the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def check_modulus(m) -> int:
    """as_int(m) if it is usable as a modulus here: odd, >= 3, <= 15 bits."""
    m = as_int(m, "modulus")
    if m < 3 or m % 2 == 0 or m > MAX_MODULUS:
        raise ValueError(f"modulus must be odd and in [3, {MAX_MODULUS}], got {m}")
    return m


def _balanced(x: int, m: int) -> int:
    """x mod m in [-(m-1)/2, (m-1)/2] for any odd m, past 15 bits too."""
    r = x % m
    return r - m if r > m // 2 else r


def mod_reduce(x: int, m: int) -> int:
    """Reduce x modulo m into the symmetric range [-(m-1)/2, (m-1)/2]."""
    return _balanced(as_int(x, "x"), check_modulus(m))


def mod_inverse(x: int, m: int) -> int:
    """Multiplicative inverse of x modulo m, in symmetric range.

    Uses the extended Euclidean algorithm (via pow), so m does not need to
    be prime, only coprime to x.
    """
    x, m = as_int(x, "x"), check_modulus(m)
    try:
        inv = pow(x, -1, m)
    except ValueError:
        raise NotCoprime(f"{x} is not invertible modulo {m}") from None
    return _balanced(inv, m)


class RnsSystem:
    """A fixed set of pairwise-coprime odd moduli.

    Precomputes the CRT cofactors M_i = M / m_i and their balanced inverses
    mod m_i.  Instances are immutable after construction and safe to share
    across threads.
    """

    def __init__(self, moduli: Sequence[int]):
        moduli = tuple(check_modulus(m) for m in moduli)
        if not moduli:
            raise ValueError("an RNS system needs at least one modulus")
        for i in range(len(moduli)):
            for j in range(i + 1, len(moduli)):
                g = math.gcd(moduli[i], moduli[j])
                if g != 1:
                    raise NotCoprime(
                        f"moduli {moduli[i]} and {moduli[j]} share factor {g}"
                    )
        self.moduli = moduli
        self.dynamic_range = math.prod(moduli)
        self.signed_bound = (self.dynamic_range - 1) // 2
        self.cofactors = tuple(self.dynamic_range // m for m in moduli)
        self.inverses = tuple(mod_inverse(c % m, m) for c, m in zip(self.cofactors, moduli))

    def crt_bound(self, depth: int, folded: bool = True) -> int:
        """Largest |partial sum| of sum_i (M_i a_i) @ t_i at contraction depth n.

        a_i = inv_i * A_i mod m_i holds residues, at most h_i = (m_i - 1) / 2
        in magnitude, and t_i = A_i @ p_i is the backward transform's first
        GEMM over residues |p_i| <= h_i: at most h_i when folded mod m_i and
        n * h_i**2 when not.  Every partial sum of the weighted products then
        stays within sum_i M_i * n * h_i * max|t_i|.
        """
        depth = as_int(depth, "depth")
        return sum(
            c * depth * h * (h if folded else depth * h * h)
            for c, h in zip(self.cofactors, ((m - 1) // 2 for m in self.moduli))
        )

    def crt_fits(self, depth: int, folded: bool = True) -> bool:
        """Whether that CRT sum is exact in float64 and folds in one pass
        mod M (gemm.FLOAT64_FOLD)."""
        return self.crt_bound(depth, folded) <= gemm.FLOAT64_FOLD

    def __len__(self) -> int:
        return len(self.moduli)

    def __eq__(self, other) -> bool:
        return isinstance(other, RnsSystem) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"RnsSystem{self.moduli}"

    def to_rns(self, x: int) -> "RnsVector":
        """Encode a signed integer as one residue per modulus."""
        x = as_int(x, "x")
        if abs(x) > self.signed_bound:
            raise OutOfRange(
                f"{x} outside representable range +/-{self.signed_bound}"
            )
        return RnsVector(tuple(_balanced(x, m) for m in self.moduli), self)

    def reconstruct(self, residues) -> int:
        """CRT reconstruction of a residue vector as a signed integer.

        Accepts an RnsVector or a plain sequence of residues (one per
        modulus, any congruent representatives).
        """
        if isinstance(residues, RnsVector):
            if residues.system != self:
                raise SystemMismatch(
                    f"vector belongs to {residues.system}, not {self}"
                )
            values = residues.values
        else:
            values = tuple(as_int(v, "residue") for v in residues)
        if len(values) != len(self.moduli):
            raise SystemMismatch(
                f"expected {len(self.moduli)} residues, got {len(values)}"
            )
        x = sum(
            c * _balanced(v * inv, m)
            for v, m, c, inv in zip(values, self.moduli, self.cofactors, self.inverses)
        )
        return _balanced(x, self.dynamic_range)


@dataclass(frozen=True)
class RnsVector:
    """Residues of one signed integer, one per modulus, tied to the system that
    produced them."""

    values: tuple[int, ...]
    system: RnsSystem

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_int(v, "residue") for v in self.values))
        if len(self.values) != len(self.system.moduli):
            raise SystemMismatch(f"{self.values} is not one residue per modulus of {self.system}")
        for v, m in zip(self.values, self.system.moduli):
            if abs(v) > (m - 1) // 2:
                raise OutOfRange(f"residue {v} outside the symmetric range of {m}")

    def _binop(self, other, op) -> "RnsVector":
        if not isinstance(other, RnsVector):
            return NotImplemented
        if other.system != self.system:
            raise SystemMismatch(
                f"cannot combine vectors from {self.system} and {other.system}"
            )
        vals = tuple(
            _balanced(op(a, b), m)
            for a, b, m in zip(self.values, other.values, self.system.moduli)
        )
        return RnsVector(vals, self.system)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    def __neg__(self) -> "RnsVector":
        vals = tuple(_balanced(-a, m) for a, m in zip(self.values, self.system.moduli))
        return RnsVector(vals, self.system)

    def __int__(self) -> int:
        return self.system.reconstruct(self)
