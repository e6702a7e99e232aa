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
    if n < 2:
        raise ValueError(f"need at least 2 interpolation points, got {n}")
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


def _poly_from_roots(roots: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients (low order first) of prod(x - r) over the given roots."""
    coeffs = [Fraction(1)]
    for r in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= c * r
        coeffs = nxt
    return coeffs


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def vandermonde(points: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """Square Vandermonde matrix V[i][j] = points[i] ** j.

    The row for the point at infinity is (0, ..., 0, 1): evaluation there
    picks out the leading coefficient.
    """
    points = _check_points(points)
    n = len(points)
    rows = []
    for p in points:
        if isinstance(p, _InfinityPoint):
            rows.append(tuple(Fraction(int(j == n - 1)) for j in range(n)))
        else:
            rows.append(tuple(p**j for j in range(n)))
    return tuple(rows)


def vandermonde_inverse(points: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of vandermonde(points), in closed form.

    Column j (for a finite point S_j) holds the coefficients of the Lagrange
    basis polynomial prod_{k!=j}(x - S_k) / prod_{k!=j}(S_j - S_k).  When the
    last point is infinity, the last column instead holds the coefficients of
    prod over the finite points of (x - S_k): subtracting the leading
    coefficient times that product reduces interpolation to the finite case.
    No linear solve is involved, so the result is exact for any distinct
    points.
    """
    points = _check_points(points)
    n = len(points)
    has_inf = isinstance(points[-1], _InfinityPoint)
    finite = list(points[:-1] if has_inf else points)
    inv = [[Fraction(0)] * n for _ in range(n)]
    for j, s in enumerate(finite):
        others = [t for k, t in enumerate(finite) if k != j]
        num = _poly_from_roots(others)
        den = _poly_eval(num, s)
        for i, c in enumerate(num):
            inv[i][j] = c / den
    if has_inf:
        lead = _poly_from_roots(finite)
        for i in range(n):
            inv[i][n - 1] = lead[i]
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

    points defaults to default_points(m + r - 1).  The construction:

    - BT row k is row k of the transposed inverse Vandermonde, multiplied by
      the least common multiple of its denominators, making it integral.
    - G row k is (1, S_k, ..., S_k**(r-1)) divided by that same multiple, so
      the elementwise product (G g) * (BT d) is unchanged.
    - AT[i][j] = S_j ** i; the column for the point at infinity is zero
      except for a 1 in the last row, matching the leading coefficient of
      the degree M+R-2 product polynomial.
    """
    if m < 1 or r < 1:
        raise ValueError(f"need m >= 1 and r >= 1, got m={m}, r={r}")
    n = m + r - 1
    if n < 2:
        raise ValueError("m + r - 1 must be at least 2")
    if points is None:
        points = default_points(n)
    else:
        points = _check_points(points)
        if len(points) != n:
            raise ValueError(f"need {n} points for m={m}, r={r}, got {len(points)}")

    vinv = vandermonde_inverse(points)

    bt_rows = []
    lambdas = []
    for k in range(n):
        row = [vinv[i][k] for i in range(n)]
        lam = _lcm_denominators(row)
        lambdas.append(lam)
        bt_rows.append(tuple(v * lam for v in row))

    g_rows = []
    for k, p in enumerate(points):
        if isinstance(p, _InfinityPoint):
            row = [Fraction(0)] * (r - 1) + [Fraction(1)]
        else:
            row = [p**e for e in range(r)]
        g_rows.append(tuple(v / lambdas[k] for v in row))

    at_rows = []
    for i in range(m):
        row = []
        for p in points:
            if isinstance(p, _InfinityPoint):
                row.append(Fraction(int(i == m - 1)))
            else:
                row.append(p**i)
        at_rows.append(tuple(row))

    alpha = Fraction(1, _lcm_denominators(v for row in g_rows for v in row))
    gprime = []
    for row in g_rows:
        scaled = [v / alpha for v in row]
        assert all(v.denominator == 1 for v in scaled)
        gprime.append(tuple(int(v) for v in scaled))

    return ExactTransformSet(
        m=m,
        r=r,
        points=tuple(points),
        at=tuple(at_rows),
        g=tuple(g_rows),
        bt=tuple(bt_rows),
        alpha=alpha,
        gprime=tuple(gprime),
    )


def denominator_lcm(ts: ExactTransformSet) -> int:
    """LCM of every denominator appearing in G and BT."""
    return _lcm_denominators(v for rows in (ts.g, ts.bt) for row in rows for v in row)


def check_modulus_compatibility(ts: ExactTransformSet, m: int) -> bool:
    """Whether every denominator in G and BT is invertible modulo m.

    With composite moduli and wide point spreads this can fail: a point
    difference divisible by a factor of m has no inverse, and the transform
    set cannot be reduced modulo m.
    """
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {m!r}")
    return math.gcd(denominator_lcm(ts), m) == 1


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
    out = np.empty((len(rows), len(rows[0])), dtype=dtype)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v.denominator == 1:
                out[i, j] = residue.mod_reduce(v.numerator, m)
            else:
                inv = residue.mod_inverse(v.denominator, m)
                out[i, j] = residue.mod_reduce(v.numerator * inv, m)
    out.flags.writeable = False
    return out


def reduce_transforms_mod(ts: ExactTransformSet, m: int) -> ModularTransformSet:
    """Reduce an exact transform set modulo m.

    Fractions p/q become p * q^-1 mod m; raises residue.check_modulus's
    error for an unusable m, and NotCoprime, naming the shared factor, when
    some denominator shares a factor with m (see check_modulus_compatibility).
    """
    residue.check_modulus(m)
    den = denominator_lcm(ts)
    if (shared := math.gcd(m, den)) != 1:
        raise NotCoprime(f"modulus {m} shares factor {shared} with transform "
                         f"denominator {den}; pick other points or another modulus")
    from .gemm import dtype_for_modulus

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
    if input_bits < 2:
        raise ValueError("input_bits must be at least 2")
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
    if m < 1 or r < 1 or n_moduli < 1:
        raise ValueError("m, r and n_moduli must be positive")
    n = m + r - 1
    return Fraction(m * m * r * r, n * n * n_moduli)
