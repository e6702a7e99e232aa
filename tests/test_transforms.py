"""Transform construction against frozen references and exact identities.

golden_transforms.py carries the hand-checked matrices; everything else is
verified against brute force polynomial/correlation oracles evaluated in
exact rational arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest

import golden_transforms as gold
from rnswinograd import residue, transforms
from rnswinograd.errors import NotCoprime
from rnswinograd.transforms import INF


def frac(v) -> Fraction:
    return Fraction(v)


def frac_matrix(rows):
    return tuple(tuple(frac(v) for v in row) for row in rows)


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def matvec(a, x):
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def correlate_1d(d, g):
    """Valid-mode sliding dot products, len(d) - len(g) + 1 outputs."""
    r = len(g)
    return [sum(d[i + j] * g[j] for j in range(r)) for i in range(len(d) - r + 1)]


def correlate_2d(d, g):
    n, r = len(d), len(g)
    m = n - r + 1
    return [
        [
            sum(d[i + a][j + b] * g[a][b] for a in range(r) for b in range(r))
            for j in range(m)
        ]
        for i in range(m)
    ]


# ---------------------------------------------------------------------------
# points and Vandermonde


def test_default_points_sequence():
    assert transforms.default_points(4) == (
        Fraction(0), Fraction(1), Fraction(-1), INF,
    )
    assert transforms.default_points(7) == (
        Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
        Fraction(3), INF,
    )
    with pytest.raises(ValueError):
        transforms.default_points(1)


def test_points_validation():
    with pytest.raises(ValueError):
        transforms.vandermonde((0, 1, 1))
    with pytest.raises(ValueError):
        transforms.vandermonde((0, INF, 1))


def test_vandermonde_small():
    v = transforms.vandermonde((0, 1, -1, INF))
    assert v == frac_matrix(
        ((1, 0, 0, 0), (1, 1, 1, 1), (1, -1, 1, -1), (0, 0, 0, 1))
    )


@pytest.mark.parametrize("n", range(2, 13))
def test_vandermonde_inverse_default_points(n):
    pts = transforms.default_points(n)
    v = transforms.vandermonde(pts)
    vinv = transforms.vandermonde_inverse(pts)
    assert matmul(v, vinv) == identity(n)
    assert matmul(vinv, v) == identity(n)


def test_vandermonde_inverse_rational_and_finite_points():
    for pts in ((0, 1, -1, Fraction(1, 2), INF), (0, 1, 2, 3), (Fraction(-3, 2), 0, 4)):
        v = transforms.vandermonde(pts)
        vinv = transforms.vandermonde_inverse(pts)
        assert matmul(v, vinv) == identity(len(pts))


# ---------------------------------------------------------------------------
# derived transforms against the frozen references


def test_f2_matches_reference():
    ts = transforms.derive_transforms(2, 3)
    assert ts.at == frac_matrix(gold.F2_AT)
    assert ts.bt == frac_matrix(gold.F2_BT)
    assert ts.g == frac_matrix(gold.F2_G)
    assert ts.gprime == tuple(tuple(row) for row in gold.F2_GPRIME)
    assert ts.alpha == Fraction(gold.F2_ALPHA)


def test_f4_matches_reference():
    ts = transforms.derive_transforms(4, 3)
    assert ts.at == frac_matrix(gold.F4_AT)
    assert ts.bt == frac_matrix(gold.F4_BT)
    assert ts.g == frac_matrix(gold.F4_G)
    assert ts.gprime == tuple(tuple(row) for row in gold.F4_GPRIME)
    assert ts.alpha == Fraction(gold.F4_ALPHA)


def test_f10_matches_reference():
    ts = transforms.derive_transforms(10, 3)
    assert ts.at == frac_matrix(gold.F10_AT)
    assert ts.bt == frac_matrix(gold.F10_BT)
    assert ts.g == frac_matrix(gold.F10_G)
    assert ts.gprime == tuple(tuple(row) for row in gold.F10_GPRIME)
    assert ts.alpha == Fraction(gold.F10_ALPHA)


@pytest.mark.parametrize("modulus", sorted(gold.F10_MOD))
def test_f10_modular_matches_reference(modulus):
    ts = transforms.derive_transforms(10, 3)
    mt = transforms.reduce_transforms_mod(ts, modulus)
    want_at, want_g, want_bt = gold.F10_MOD[modulus]
    assert mt.at.tolist() == [list(row) for row in want_at]
    assert mt.g.tolist() == [list(row) for row in want_g]
    assert mt.bt.tolist() == [list(row) for row in want_bt]


def test_derive_transforms_validation():
    with pytest.raises(ValueError):
        transforms.derive_transforms(0, 3)
    with pytest.raises(ValueError):
        transforms.derive_transforms(1, 1)
    with pytest.raises(ValueError):
        transforms.derive_transforms(2, 3, points=(0, 1, INF))  # needs 4


def test_g_factors_into_alpha_gprime():
    for m, r in ((2, 3), (4, 3), (8, 5), (10, 3)):
        ts = transforms.derive_transforms(m, r)
        for grow, prow in zip(ts.g, ts.gprime):
            assert tuple(v / ts.alpha for v in grow) == tuple(
                Fraction(p) for p in prow
            )


# ---------------------------------------------------------------------------
# the interpolation identity itself


@pytest.mark.parametrize("m,r", [(2, 3), (3, 2), (4, 3), (5, 4), (6, 3), (8, 5), (10, 3)])
def test_1d_identity_matches_direct_correlation(m, r):
    ts = transforms.derive_transforms(m, r)
    rng = np.random.default_rng(m * 100 + r)
    for _ in range(5):
        g = [Fraction(int(v)) for v in rng.integers(-9, 10, r)]
        d = [Fraction(int(v)) for v in rng.integers(-9, 10, ts.n)]
        fast = matvec(ts.at, [u * w for u, w in zip(matvec(ts.g, g), matvec(ts.bt, d))])
        assert fast == correlate_1d(d, g)


def test_1d_identity_with_custom_points():
    pts = (0, 1, -1, Fraction(1, 2), Fraction(-1, 2), INF)
    ts = transforms.derive_transforms(4, 3, points=pts)
    g = [Fraction(v) for v in (3, -1, 2)]
    d = [Fraction(v) for v in (5, 0, -2, 7, 1, -4)]
    fast = matvec(ts.at, [u * w for u, w in zip(matvec(ts.g, g), matvec(ts.bt, d))])
    assert fast == correlate_1d(d, g)


def test_2d_identity_matches_direct_correlation():
    ts = transforms.derive_transforms(4, 3)
    rng = np.random.default_rng(43)
    g = [[Fraction(int(v)) for v in row] for row in rng.integers(-9, 10, (3, 3))]
    d = [[Fraction(int(v)) for v in row] for row in rng.integers(-9, 10, (6, 6))]
    gt = matmul(matmul(ts.g, g), tuple(zip(*ts.g)))
    dt = matmul(matmul(ts.bt, d), tuple(zip(*ts.bt)))
    prod = tuple(
        tuple(gt[i][j] * dt[i][j] for j in range(ts.n)) for i in range(ts.n)
    )
    fast = matmul(matmul(ts.at, prod), tuple(zip(*ts.at)))
    assert [list(row) for row in fast] == correlate_2d(d, g)


# ---------------------------------------------------------------------------
# modular reduction mechanics


def test_modular_dtypes_and_readonly():
    ts = transforms.derive_transforms(4, 3)
    small = transforms.reduce_transforms_mod(ts, 251)
    wide = transforms.reduce_transforms_mod(ts, 4001)
    assert small.at.dtype == np.int8 and small.g.dtype == np.int8
    assert wide.at.dtype == np.int16 and wide.bt.dtype == np.int16
    assert not small.bt.flags.writeable
    assert (small.m, small.r, small.n) == (4, 3, 6)


def test_modular_entries_are_congruent_residues():
    ts = transforms.derive_transforms(6, 3)
    for m in (251, 4001):
        mt = transforms.reduce_transforms_mod(ts, m)
        half = (m - 1) // 2
        for exact_rows, got in ((ts.at, mt.at), (ts.g, mt.g), (ts.bt, mt.bt)):
            for i, row in enumerate(exact_rows):
                for j, v in enumerate(row):
                    e = int(got[i, j])
                    assert abs(e) <= half
                    # p/q reduced correctly: q * entry == p (mod m)
                    assert (v.denominator * e - v.numerator) % m == 0


def test_reduce_for_system_alignment():
    ts = transforms.derive_transforms(4, 3)
    system = residue.RnsSystem((251, 241, 239))
    mts = transforms.reduce_for_system(ts, system)
    assert tuple(mt.modulus for mt in mts) == system.moduli


def test_cached_transforms_memoizes():
    a = transforms.cached_transforms(4, 3)
    b = transforms.cached_transforms(4, 3)
    assert a is b
    assert a == transforms.derive_transforms(4, 3)


def test_cached_modular_transforms_memoizes():
    system = residue.RnsSystem((251, 241, 239))
    a = transforms.cached_modular_transforms(4, 3, system.moduli)
    assert transforms.cached_modular_transforms(4, 3, (251, 241, 239)) is a
    want = transforms.reduce_for_system(transforms.derive_transforms(4, 3), system)
    assert [mt.modulus for mt in a] == [mt.modulus for mt in want]
    for got, ref in zip(a, want):
        for name in ("at", "g", "bt"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
            assert not getattr(got, name).flags.writeable  # shared by every caller


# ---------------------------------------------------------------------------
# modulus compatibility


def test_compatibility_known_cases():
    # 253 = 11 * 23: the 13-point schedule spans a difference of 11
    ts13 = transforms.derive_transforms(11, 3)
    assert not transforms.check_modulus_compatibility(ts13, 253)
    assert transforms.check_modulus_compatibility(ts13, 251)
    assert transforms.check_modulus_compatibility(ts13, 247)
    # 247 = 13 * 19: dies two points later
    ts15 = transforms.derive_transforms(13, 3)
    assert not transforms.check_modulus_compatibility(ts15, 247)
    assert transforms.check_modulus_compatibility(ts15, 251)
    # the 12-point schedule works for every standard modulus
    ts12 = transforms.derive_transforms(10, 3)
    for m in (253, 251, 247, 241, 239, 4001, 4331):
        assert transforms.check_modulus_compatibility(ts12, m)


def test_incompatible_modulus_raises():
    ts = transforms.derive_transforms(11, 3)
    with pytest.raises(NotCoprime):
        transforms.reduce_transforms_mod(ts, 253)


def test_compatibility_accepts_plain_ints_only():
    ts = transforms.derive_transforms(2, 3)
    with pytest.raises(ValueError):
        transforms.check_modulus_compatibility(ts, 1)
    # even and huge values are fine to ask about, the answer is just False/True
    assert transforms.check_modulus_compatibility(ts, 7)


def test_denominator_lcm_f4():
    # F(4x4,3x3): BT is integral, G rows carry 1/4, 1/6, 1/24
    ts = transforms.derive_transforms(4, 3)
    assert transforms.denominator_lcm(ts) == 24


# ---------------------------------------------------------------------------
# width and arithmetic analysis


def test_data_width_f2():
    rep = transforms.data_width_analysis(transforms.derive_transforms(2, 3), 8)
    assert rep.filter_magnification == pytest.approx(3.5)
    assert rep.input_magnification == pytest.approx(2.0)
    assert rep.required_bits == 12


def test_data_width_f4():
    rep = transforms.data_width_analysis(transforms.derive_transforms(4, 3), 8)
    assert rep.filter_magnification == pytest.approx(125.0)
    assert rep.input_magnification == pytest.approx(86 / 3)
    assert rep.required_bits == 18


def test_data_width_2bit_exhaustive():
    # For 2-bit input the bound must cover (and be tight against) a brute
    # force sweep of every +/-1 filter and input through the 1-D transforms.
    ts = transforms.derive_transforms(2, 3)
    rep = transforms.data_width_analysis(ts, 2)
    assert rep.required_bits == 5
    gp = np.array(ts.gprime, dtype=np.int64)
    peak = 0
    for bits in range(3**3):
        g = np.array([(bits // 3**i) % 3 - 1 for i in range(3)], dtype=np.int64)
        row = gp @ g
        outer = np.abs(np.outer(row, row)).max()
        peak = max(peak, int(outer))
    assert peak == 9
    assert peak <= 2 ** (rep.required_bits - 1) - 1
    assert peak > 2 ** (rep.required_bits - 2) - 1  # one bit fewer fails


def test_data_width_rejects_tiny_width():
    ts = transforms.derive_transforms(2, 3)
    with pytest.raises(ValueError):
        transforms.data_width_analysis(ts, 1)


def test_arithmetic_reduction_values():
    assert transforms.arithmetic_reduction(2, 3, 3) == Fraction(3, 4)
    assert transforms.arithmetic_reduction(4, 3, 3) == Fraction(4, 3)
    assert transforms.arithmetic_reduction(14, 3, 3) == Fraction(1764, 768)
    assert transforms.arithmetic_reduction(12, 5, 2) == Fraction(225, 32)
    with pytest.raises(ValueError):
        transforms.arithmetic_reduction(0, 3, 2)
