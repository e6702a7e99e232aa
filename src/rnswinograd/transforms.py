"""Exact construction of Winograd convolution transforms.

A fast algorithm for M outputs of an R-tap correlation evaluates the product
of the two polynomials at N = M + R - 1 distinct interpolation points (one of
which may be the point at infinity) and interpolates back.  This module
builds the three matrices involved:

    output   y = AT . ((G g) * (BT d))        (* is elementwise)

where g is the R-vector filter and d the N-vector input.  AT and BT come from
a Vandermonde matrix on the points and its exact inverse; all fractions are
swept out of BT row by row and parked in G, so AT and BT end up integral and
G carries one rational scale per row.  A 2-D transform uses the same matrices
on both sides (G g G^T etc.).

Everything here is exact rational arithmetic (fractions.Fraction); conversion
to fixed-width modular arithmetic happens in reduce_transforms_mod.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from . import residue
from .errors import NotCoprime
from .gemm import dtype_for_modulus


class _InfinityPoint:
    """The interpolation point at infinity.

    Evaluating a polynomial "at infinity" means taking its leading
    coefficient, which costs zero multiplications; using it as the last
    point is what makes the classic small filtering algorithms minimal.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _InfinityPoint()

Point = Union[Fraction, _InfinityPoint]


def default_points(n: int) -> tuple[Point, ...]:
    """The standard point sequence 0, 1, -1, 2, -2, ... capped with infinity."""
    n = residue.as_int(n, "n", 2)
    pts: list[Point] = [Fraction(0)]
    k = 1
    while len(pts) < n - 1:
        pts.append(Fraction(k))
        if len(pts) < n - 1:
            pts.append(Fraction(-k))
        k += 1
    pts.append(INF)
    return tuple(pts)


def _check_points(points: Sequence) -> tuple[Point, ...]:
    out: list[Point] = []
    for i, p in enumerate(points):
        if isinstance(p, _InfinityPoint):
            if i != len(points) - 1:
                raise ValueError("the point at infinity must come last")
            out.append(p)
        else:
            out.append(Fraction(p))
    finite = [p for p in out if not isinstance(p, _InfinityPoint)]
    if len(set(finite)) != len(finite):
        raise ValueError(f"interpolation points must be distinct: {points}")
    return tuple(out)


def _powers(p: Point, count: int) -> tuple[Fraction, ...]:
    """Evaluation at p of the monomials 1, x, ..., x**(count-1): the powers
    (1, p, ..., p**(count-1)), or at infinity (0, ..., 0, 1), which picks
    out the leading coefficient of a polynomial of degree count - 1."""
    if isinstance(p, _InfinityPoint):
        return (Fraction(0),) * (count - 1) + (Fraction(1),)
    return tuple(p**j for j in range(count))


def vandermonde(points: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """Square Vandermonde matrix V[i] = _powers(points[i], n)."""
    points = _check_points(points)
    return tuple(_powers(p, len(points)) for p in points)


def vandermonde_inverse(points: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of vandermonde(points), in closed form and O(n**2) steps.

    Column j (for a finite point S_j) holds the coefficients of the Lagrange
    basis polynomial prod_{k!=j}(x - S_k) / prod_{k!=j}(S_j - S_k).  When the
    last point is infinity, the last column instead holds the coefficients of
    the master polynomial prod over the finite points of (x - S_k):
    subtracting the leading coefficient times that product reduces
    interpolation to the finite case.

    Everything runs on integers: with D the common denominator of the f
    finite points, S_k = a_k / D, and in y = D x the master polynomial is
    P(y) = prod(y - a_k), built once.  One synthetic division of P by
    (y - a_j) gives column j's numerator sum_i c_i y**i, and y**i carries
    D**i, so its entry i is c_i D**i / prod_{k!=j}(a_j - a_k); the master
    column's entry i is P_i D**i / D**f.  No linear solve is involved, so
    the result is exact for any distinct points.
    """
    points = _check_points(points)
    n = len(points)
    finite = [p for p in points if not isinstance(p, _InfinityPoint)]
    d = math.lcm(*(p.denominator for p in finite))
    nums = [p.numerator * (d // p.denominator) for p in finite]
    f = len(nums)
    scale = [d**i for i in range(n)]
    master = [1]  # P(y), low order first
    for a in nums:
        master = [lo - a * hi for lo, hi in zip([0] + master, master + [0])]
    inv = [[Fraction(0)] * n for _ in range(n)]
    for j, a in enumerate(nums):
        den = math.prod(a - b for k, b in enumerate(nums) if k != j)
        c = master[f]
        for i in range(f - 1, -1, -1):  # quotient coefficients, high order first
            inv[i][j] = Fraction(c * scale[i], den)
            c = master[i] + a * c
    if f < n:
        for i, c in enumerate(master):
            inv[i][n - 1] = Fraction(c * scale[i], scale[f])
    return tuple(tuple(row) for row in inv)


def _lcm_denominators(values) -> int:
    return math.lcm(*(v.denominator for v in values))


@dataclass(frozen=True)
class ExactTransformSet:
    """The exact rational transforms for M outputs of an R-tap filter.

    at: M x N, integral for integer points.
    g:  N x R, carries all the fractions (one scale per row).
    bt: N x N, always integral by construction.
    alpha / gprime: G = alpha * G' with G' integral and alpha = 1/lcm of the
    denominators appearing in G.  G' is what a fixed-width implementation
    stores; alpha**2 is folded into the inverse transform or, in the modular
    setting, into a single multiplicative constant.
    """

    m: int
    r: int
    points: tuple[Point, ...]
    at: tuple[tuple[Fraction, ...], ...]
    g: tuple[tuple[Fraction, ...], ...]
    bt: tuple[tuple[Fraction, ...], ...]
    alpha: Fraction
    gprime: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.m + self.r - 1


def derive_transforms(m: int, r: int, points: Sequence | None = None) -> ExactTransformSet:
    """Build the transform set for m outputs of an r-tap filter.

    points defaults to default_points(m + r - 1).  Every evaluation at a
    point S_k is _powers(S_k, count): S_k's powers, or at infinity the
    leading coefficient alone.  The construction:

    - BT row k is column k of the inverse Vandermonde, multiplied by the
      least common multiple lambda_k of its denominators, making it integral.
    - G row k is _powers(S_k, r) divided by lambda_k, so the elementwise
      product (G g) * (BT d) is unchanged.
    - AT column j is _powers(S_j, m).
    """
    m, r = residue.as_int(m, "m", 1), residue.as_int(r, "r", 1)
    n = m + r - 1
    if n < 2:
        raise ValueError("m + r - 1 must be at least 2")
    if points is None:
        points = default_points(n)
    else:
        points = _check_points(points)
        if len(points) != n:
            raise ValueError(f"need {n} points for m={m}, r={r}, got {len(points)}")

    bt_rows = []
    g_rows = []
    for p, column in zip(points, zip(*vandermonde_inverse(points))):
        lam = _lcm_denominators(column)
        bt_rows.append(tuple(Fraction(v.numerator * (lam // v.denominator)) for v in column))
        g_rows.append(tuple(v / lam for v in _powers(p, r)))
    at_rows = tuple(zip(*(_powers(p, m) for p in points)))

    alpha = Fraction(1, _lcm_denominators(v for row in g_rows for v in row))
    gprime = [tuple(v.numerator * (alpha.denominator // v.denominator) for v in row) for row in g_rows]

    return ExactTransformSet(
        m=m,
        r=r,
        points=tuple(points),
        at=at_rows,
        g=tuple(g_rows),
        bt=tuple(bt_rows),
        alpha=alpha,
        gprime=tuple(gprime),
    )


def denominator_lcm(ts: ExactTransformSet) -> int:
    """LCM of every denominator appearing in AT, G and BT."""
    return _lcm_denominators(v for rows in (ts.at, ts.g, ts.bt) for row in rows for v in row)


def check_modulus_compatibility(ts: ExactTransformSet, m: int) -> bool:
    """Whether every denominator in AT, G and BT is invertible modulo m.

    With composite moduli and wide point spreads this can fail: a point
    difference divisible by a factor of m has no inverse, and the transform
    set cannot be reduced modulo m.
    """
    return math.gcd(denominator_lcm(ts), residue.as_int(m, "modulus", 2)) == 1


@dataclass(frozen=True)
class ModularTransformSet:
    """ExactTransformSet reduced modulo one modulus.

    Matrices are numpy arrays in the narrowest signed dtype that holds the
    symmetric residue range (int8 below 256, int16 otherwise), marked
    read-only so they can be shared across worker threads.
    """

    modulus: int
    at: np.ndarray
    g: np.ndarray
    bt: np.ndarray

    @property
    def m(self) -> int:
        return self.at.shape[0]

    @property
    def r(self) -> int:
        return self.g.shape[1]

    @property
    def n(self) -> int:
        return self.bt.shape[0]


def _reduce_matrix(rows, m: int, dtype) -> np.ndarray:
    """Each p/q as p * q^-1, balanced mod m, with one inverse per distinct q.

    The caller has checked m and that every q is invertible mod m.
    """
    inverses = {q: pow(q, -1, m) for q in {v.denominator for row in rows for v in row}}
    out = np.array(
        [[residue._balanced(v.numerator * inverses[v.denominator], m) for v in row] for row in rows],
        dtype=dtype,
    )
    out.flags.writeable = False
    return out


def reduce_transforms_mod(ts: ExactTransformSet, m: int) -> ModularTransformSet:
    """Reduce an exact transform set modulo m.

    Fractions p/q become p * q^-1 mod m; raises residue.check_modulus's
    error for an unusable m, and NotCoprime, naming the shared factor, when
    some denominator shares a factor with m (see check_modulus_compatibility).
    """
    m = residue.check_modulus(m)
    den = denominator_lcm(ts)
    if (shared := math.gcd(m, den)) != 1:
        raise NotCoprime(f"modulus {m} shares factor {shared} with transform "
                         f"denominator {den}; pick other points or another modulus")
    dt = dtype_for_modulus(m)
    return ModularTransformSet(
        modulus=m,
        at=_reduce_matrix(ts.at, m, dt),
        g=_reduce_matrix(ts.g, m, dt),
        bt=_reduce_matrix(ts.bt, m, dt),
    )


def reduce_for_system(ts: ExactTransformSet, system: residue.RnsSystem) -> tuple[ModularTransformSet, ...]:
    """Reduce a transform set modulo every modulus of an RNS system."""
    return tuple(reduce_transforms_mod(ts, m) for m in system.moduli)


@lru_cache(maxsize=64)
def cached_transforms(m: int, r: int) -> ExactTransformSet:
    """derive_transforms with default points, memoized."""
    return derive_transforms(m, r)


@lru_cache(maxsize=64)
def cached_modular_transforms(
    m: int, r: int, moduli: tuple[int, ...]
) -> tuple[ModularTransformSet, ...]:
    """cached_transforms(m, r) reduced modulo each modulus, memoized.

    Keyed on plain ints: hashing the Fraction matrices of a transform set
    would cost a sizeable share of the reduction it saves.
    """
    ts = cached_transforms(m, r)
    return tuple(reduce_transforms_mod(ts, q) for q in moduli)


@dataclass(frozen=True)
class DataWidthReport:
    """Worst-case growth through the forward transforms.

    filter_magnification: mean squared row norm of G', the energy gain of the
    filter transform before rescaling.
    input_magnification: mean squared row norm of BT.
    required_bits: two-sided transform worst case; the largest absolute value
    any transformed entry can take for inputs of the given bit width is
    lmax**2 * (2**(input_bits-1) - 1) with lmax the largest L1 row norm of
    G', and one more bit covers its sign.
    """

    filter_magnification: float
    input_magnification: float
    required_bits: int


def data_width_analysis(ts: ExactTransformSet, input_bits: int) -> DataWidthReport:
    input_bits = residue.as_int(input_bits, "input_bits", 2)
    n = ts.n
    fmag = sum(v * v for row in ts.gprime for v in row) / Fraction(n)
    imag = sum(v * v for row in ts.bt for v in row) / Fraction(n)
    lmax = max(sum(abs(v) for v in row) for row in ts.gprime)
    peak = lmax * lmax * (2 ** (input_bits - 1) - 1)
    required = 1 + (peak - 1).bit_length()
    return DataWidthReport(
        filter_magnification=float(fmag),
        input_magnification=float(imag),
        required_bits=required,
    )


def arithmetic_reduction(m: int, r: int, n_moduli: int) -> Fraction:
    """Multiplication count of the sliding direct form divided by the tiled
    fast form over n_moduli residue channels, per 2-D output tile."""
    m, r = residue.as_int(m, "m", 1), residue.as_int(r, "r", 1)
    n_moduli = residue.as_int(n_moduli, "n_moduli", 1)
    n = m + r - 1
    return Fraction(m * m * r * r, n * n * n_moduli)
