"""Symmetric-range modular arithmetic and residue number systems.

Everything in this module is exact integer arithmetic.  Residues are kept in
the symmetric range [-(m-1)/2, (m-1)/2] for an odd modulus m, so signed values
survive encode/decode without a separate sign channel.

Two reconstructions are kept.  The Chinese Remainder Theorem (CRT) weights
c_i = M_i * (M_i^-1 mod m_i), M_i = M / m_i, taken balanced, rebuild x as
sum_i c_i * x_i folded once mod M, for any representatives x_i; the fast path
carries them into its last float64 GEMM while RnsSystem.crt_fits holds.
Mixed radix conversion needs only arithmetic modulo the individual moduli
plus one final weighted sum, and serves every system past that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gemm
from .errors import NotCoprime, OutOfRange, OverflowRisk, SystemMismatch

# Residues must fit a signed 16-bit word, so moduli are capped at 15 bits.
MAX_MODULUS = (1 << 15) - 1


def check_modulus(m: int) -> int:
    """Validate that m is usable as a modulus here: odd, >= 3, <= 15 bits."""
    if not isinstance(m, (int, np.integer)):
        raise TypeError(f"modulus must be an integer, got {type(m).__name__}")
    if m < 3 or m % 2 == 0 or m > MAX_MODULUS:
        raise ValueError(f"modulus must be odd and in [3, {MAX_MODULUS}], got {m}")
    return int(m)


def _balanced(x: int, m: int) -> int:
    """x mod m in [-(m-1)/2, (m-1)/2] for any odd m, past 15 bits too."""
    r = x % m
    return r - m if r > m // 2 else r


def mod_reduce(x: int, m: int) -> int:
    """Reduce x modulo m into the symmetric range [-(m-1)/2, (m-1)/2]."""
    check_modulus(m)
    return _balanced(x, m)


def mod_inverse(x: int, m: int) -> int:
    """Multiplicative inverse of x modulo m, in symmetric range.

    Uses the extended Euclidean algorithm (via pow), so m does not need to
    be prime, only coprime to x.
    """
    check_modulus(m)
    try:
        inv = pow(x, -1, m)
    except ValueError:
        raise NotCoprime(f"{x} is not invertible modulo {m}") from None
    return mod_reduce(inv, m)


class RnsSystem:
    """A fixed set of pairwise-coprime odd moduli.

    Precomputes the inverses needed for mixed radix reconstruction and the
    balanced CRT weights.  Instances are immutable after construction and
    safe to share across threads.
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
        # Digit j of x = sum_i W_i d_i, W_i = moduli[0] * ... * moduli[i-1], is
        # d_j = r_j * W_j^-1 - sum_{i<j} d_i * W_i * W_j^-1 mod moduli[j];
        # _mrc_weights[j] = (W_j^-1, [W_i * W_j^-1 for i < j]) mod moduli[j].
        self._mrc_weights = []
        for j, m in enumerate(moduli):
            scale = mod_inverse(math.prod(moduli[:j]) % m, m)
            self._mrc_weights.append(
                (scale, [mod_reduce(math.prod(moduli[:i]) * scale, m) for i in range(j)])
            )
        # c_i = 1 mod m_i and 0 mod every other modulus; balanced, |c_i| < M/2
        big = self.dynamic_range
        self.crt_weights = tuple(
            _balanced(big // m * pow(big // m, -1, m), big) for m in moduli
        )

    def crt_bound(self, depth: int, folded: bool = True) -> int:
        """Largest |partial sum| of sum_i (c_i A_i) @ t_i at contraction depth n.

        A_i holds residues mod m_i, at most h_i = (m_i - 1) / 2 in magnitude,
        and t_i = A_i @ p_i is the backward transform's first GEMM over
        residues |p_i| <= h_i: at most h_i when folded mod m_i and n * h_i**2
        when not.  Every partial sum of the weighted products then stays
        within sum_i |c_i| * n * h_i * max|t_i|.
        """
        return sum(
            abs(c) * depth * h * (h if folded else depth * h * h)
            for c, h in zip(self.crt_weights, ((m - 1) // 2 for m in self.moduli))
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
        if abs(x) > self.signed_bound:
            raise OutOfRange(
                f"{x} outside representable range +/-{self.signed_bound}"
            )
        return RnsVector(tuple(mod_reduce(x, m) for m in self.moduli), self)

    def reconstruct(self, residues) -> int:
        """Mixed radix conversion of a residue vector back to a signed integer.

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
            values = tuple(residues)
        if len(values) != len(self.moduli):
            raise SystemMismatch(
                f"expected {len(self.moduli)} residues, got {len(values)}"
            )
        # x = sum_j W_j d_j with balanced digits lies in the signed range
        x, radix = 0, 1
        for v, m, (scale, _) in zip(values, self.moduli, self._mrc_weights):
            x += radix * mod_reduce((v - x) * scale, m)
            radix *= m
        return x


@dataclass(frozen=True)
class RnsVector:
    """Residues of one signed integer, tied to the system that produced them."""

    values: tuple[int, ...]
    system: RnsSystem

    def __post_init__(self):
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
            mod_reduce(op(a, b), m)
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
        vals = tuple(
            mod_reduce(-a, m) for a, m in zip(self.values, self.system.moduli)
        )
        return RnsVector(vals, self.system)

    def __int__(self) -> int:
        return self.system.reconstruct(self)


def mrc_reconstruct_arrays(
    residues: Sequence[np.ndarray], system: RnsSystem
) -> np.ndarray:
    """Vectorized mixed radix conversion.

    residues holds one integer array per modulus (matching shapes, residues of
    the same tensor, any congruent representatives).  Returns an int64 array
    of the reconstructed signed integers.  The digits are computed in int32
    in the symmetric range, each as one weighted sum reduced once; residues
    of at most 16 bits are used as they are, wider ones are reduced first.
    Balanced digits of odd radices span exactly the signed range, so the
    weighted sum of the digits needs no final correction.  The dynamic range
    must fit int64 with room for one digit-times-radix product.
    """
    if len(residues) != len(system.moduli):
        raise SystemMismatch(
            f"expected {len(system.moduli)} residue arrays, got {len(residues)}"
        )
    if system.dynamic_range >= 1 << 62:
        raise OverflowRisk(f"dynamic range of {system} does not fit int64 reconstruction")
    # |sum| <= h_j * (2**16 + sum_{i<j} h_i), h = (m - 1) / 2: below 2**31
    # for moduli of at most 15 bits whose product is below 2**62
    digits = []
    for j, m in enumerate(system.moduli):
        r = np.asarray(residues[j])
        if r.dtype.itemsize > 2:
            r = gemm.reduce_mod_inplace(r.copy(), m)
        scale, weights = system._mrc_weights[j]
        t = np.multiply(r, scale, dtype=np.int32)
        for d, w in zip(digits, weights):
            t -= d * w
        digits.append(gemm.reduce_mod_inplace(t, m))
    x = digits[-1].astype(np.int64)
    for j in range(len(digits) - 2, -1, -1):
        x *= system.moduli[j]
        x += digits[j]
    return x
