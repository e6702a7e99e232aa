"""Exact integer GEMM on float BLAS against naive and wide-accumulator oracles."""

import numpy as np
import pytest

from rnswinograd import cli, gemm
from rnswinograd.errors import OverflowRisk, ShapeMismatch


def naive_gemm(a, b):
    p, c = a.shape
    k = b.shape[1]
    out = [[0] * k for _ in range(p)]
    for i in range(p):
        for j in range(k):
            out[i][j] = sum(int(a[i, t]) * int(b[t, j]) for t in range(c))
    return np.array(out, dtype=np.int64)


def test_dtype_for_modulus():
    assert gemm.dtype_for_modulus(3) == np.int8
    assert gemm.dtype_for_modulus(251) == np.int8
    assert gemm.dtype_for_modulus(255) == np.int8
    assert gemm.dtype_for_modulus(257) == np.int16
    assert gemm.dtype_for_modulus(4001) == np.int16
    assert gemm.dtype_for_modulus(32767) == np.int16


# ---------------------------------------------------------------------------
# exact float-BLAS GEMM and its bounds


def test_exact_matmul_matches_naive_small():
    rng = np.random.default_rng(11)
    a = rng.integers(-128, 128, (4, 7)).astype(np.int8)
    b = rng.integers(-128, 128, (7, 5)).astype(np.int8)
    got = gemm.exact_matmul(a, b, 128, 128)
    assert got.dtype == np.int32
    assert np.array_equal(got.astype(np.int64), naive_gemm(a, b))


def test_exact_matmul_deep_product_in_float64():
    # 1300 * 128**2 exceeds 2**24: the product runs in float64
    rng = np.random.default_rng(13)
    a = rng.integers(-128, 128, (9, 1300)).astype(np.int8)
    b = rng.integers(-128, 128, (1300, 11)).astype(np.int8)
    want = np.einsum("ik,kj->ij", a.astype(np.int64), b.astype(np.int64))
    assert np.array_equal(gemm.exact_matmul(a, b, 128, 128).astype(np.int64), want)


def test_exact_matmul_stacked_matches_per_slice():
    rng = np.random.default_rng(14)
    a = rng.integers(-128, 128, (5, 3, 17)).astype(np.int8)
    b = rng.integers(-128, 128, (5, 17, 4)).astype(np.int8)
    got = gemm.exact_matmul(a, b, 128, 128)
    assert got.shape == (5, 3, 4)
    for s in range(5):
        assert np.array_equal(got[s], gemm.exact_matmul(a[s], b[s], 128, 128))


def test_exact_matmul_broadcasts_shared_operand():
    rng = np.random.default_rng(15)
    a = rng.integers(-128, 128, (6, 2, 9)).astype(np.int8)
    b = rng.integers(-128, 128, (9, 3)).astype(np.int8)
    got = gemm.exact_matmul(a, b, 128, 128)
    for s in range(6):
        assert np.array_equal(got[s], gemm.exact_matmul(a[s], b, 128, 128))


def test_exact_matmul_random_shape_fuzz():
    rng = np.random.default_rng(16)
    for _ in range(200):
        p, c, k = rng.integers(1, 24, 3)
        a = rng.integers(-128, 128, (p, c)).astype(np.int8)
        b = rng.integers(-128, 128, (c, k)).astype(np.int8)
        want = a.astype(np.int64) @ b.astype(np.int64)
        assert np.array_equal(gemm.exact_matmul(a, b, 128, 128).astype(np.int64), want)


def test_exact_matmul_empty_inner_dimension():
    a = np.zeros((3, 0), np.int8)
    b = np.zeros((0, 4), np.int8)
    assert np.array_equal(gemm.exact_matmul(a, b, 128, 128), np.zeros((3, 4), np.int32))


def test_exact_matmul_modular_matches_wide_oracle():
    # 700 * 2165**2 exceeds int32 and 2**22: the product runs in float64 and
    # its residues are returned as float32
    rng = np.random.default_rng(21)
    m = 4331
    half = (m - 1) // 2
    a = rng.integers(-half, half + 1, (4, 6, 700)).astype(np.int16)
    b = rng.integers(-half, half + 1, (4, 700, 5)).astype(np.int16)
    got = gemm.exact_matmul(a, b, half, half, m)
    want = np.matmul(a.astype(np.int64), b.astype(np.int64))
    assert got.dtype == np.float32
    assert np.all((want - got) % m == 0)
    assert np.all(np.abs(got) <= half)


def test_exact_float_dtype_mantissa_edges():
    assert gemm.exact_float_dtype(1024, 128, 128) == np.float32  # 2**24
    assert gemm.exact_float_dtype(673, 97, 257) == np.float64  # 2**24 + 1
    assert gemm.exact_float_dtype(1, 128, 2**46) == np.float64  # 2**53
    with pytest.raises(OverflowRisk):
        gemm.exact_float_dtype(1, 128, 2**46 + 1)


def test_exact_matmul_at_float32_edge_is_exact():
    a = np.full((2, 1024), -128, np.int8)
    b = np.full((1024, 3), -128, np.int8)
    got = gemm.exact_matmul(a, b, 128, 128)
    assert np.all(got == 2**24)


def test_exact_matmul_just_past_float32_edge_uses_float64():
    # 673 * 97 * 257 = 2**24 + 1: float32 accumulation would round it
    a = np.full((1, 673), 97, np.int8)
    b = np.full((673, 1), 257, np.int16)
    assert int(np.matmul(a.astype(np.float32), b.astype(np.float32))[0, 0]) != 2**24 + 1
    assert gemm.exact_matmul(a, b, 97, 257)[0, 0] == 2**24 + 1


def test_exact_matmul_float64_edge_counts_int8_minimum():
    m = 251
    a = np.full((1, 1), -128, np.int8)
    amax = gemm.INT8_ABS_PEAK
    at_edge = np.array([[2**46]], np.int64)  # 128 * 2**46 = 2**53
    got = gemm.exact_matmul(a, at_edge, amax, 2**46, m)
    want = (-128 * 2**46) % m
    want -= m if want > (m - 1) // 2 else 0
    assert got[0, 0] == want
    # 127 * (2**46 + 1) would fit the mantissa; -128 makes it overflow
    assert 127 * (2**46 + 1) <= gemm.FLOAT64_EXACT
    with pytest.raises(OverflowRisk):
        gemm.exact_matmul(a, at_edge + 1, amax, 2**46 + 1, m)


def test_defer_fold_at_its_edges():
    # the consumer's bound on the unfolded operand against 2**51, exactly:
    # depth 16 on (32749 - 1) / 2, the position GEMM's consumer at F(14x14, 3x3)
    h = 16374
    top = gemm.FLOAT64_FOLD // (16 * h)
    assert gemm.defer_fold(16, h, top)
    assert not gemm.defer_fold(16, h, top + 1)
    # the consumer must already run in float64 on a folded operand:
    # 16 * 512**2 = 2**22 keeps a float32 consumer, 16 * 513**2 does not
    assert 16 * 512 * 512 == gemm.FLOAT32_FOLD
    assert not gemm.defer_fold(16, 512, 16 * 512 * 128)
    assert gemm.defer_fold(16, 513, 16 * 513 * 128)


@pytest.mark.parametrize(
    "depth,bmax,dtype",
    # 1024 * 128 * 128 = 2**24 stays float32; 673 * 97 * 257 = 2**24 + 1
    [(1024, 128, np.float32), (673, 257, np.float64)],
)
def test_unfolded_product_is_exact_in_the_narrowest_float(depth, bmax, dtype):
    amax = gemm.INT8_ABS_PEAK if bmax == 128 else 97
    a = np.full((2, depth), -amax, np.int16)
    b = np.full((depth, 3), -bmax, np.int16)
    b[:, 1] = bmax
    got = gemm.exact_matmul(a, b, amax, bmax, 251, fold=False)
    assert got.dtype == dtype
    assert np.array_equal(got, np.matmul(a.astype(np.int64), b.astype(np.int64)))
    assert got[0, 0] == depth * amax * bmax


def test_exact_matmul_without_modulus_must_fit_int32():
    a = np.full((1, 2), 32767, np.int16)
    got = gemm.exact_matmul(a, a.T.copy(), 32767, 32767)
    assert got[0, 0] == 2 * 32767 * 32767
    three = np.full((1, 3), 32767, np.int16)
    with pytest.raises(OverflowRisk):
        gemm.exact_matmul(three, three.T.copy(), 32767, 32767)


def test_exact_matmul_slices_match_oracle(monkeypatch):
    # a tiny slice budget forces one slice per leading index
    monkeypatch.setattr(gemm, "_SLICE_BYTES", 1)
    rng = np.random.default_rng(22)
    cases = [
        ((9, 13), (13, 4)),
        ((7, 7), (7, 4)),  # rows equal to depth: only a's rows may be split
        ((5, 3, 13), (5, 13, 4)),
        ((6, 2, 9), (9, 3)),
        ((4, 9), (3, 9, 5)),
        ((1, 2, 9), (4, 9, 5)),
        ((3, 0), (0, 2)),
    ]
    for sa, sb in cases:
        a = rng.integers(-128, 128, sa).astype(np.int8)
        b = rng.integers(-128, 128, sb).astype(np.int8)
        want = np.matmul(a.astype(np.int64), b.astype(np.int64))
        got = gemm.exact_matmul(a, b, 128, 128)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        red = gemm.exact_matmul(a, b, 128, 128, 251)
        assert np.all((want - red) % 251 == 0)
        assert np.all(np.abs(red) <= 125)


def test_exact_matmul_shape_and_dtype_errors():
    a8 = np.zeros((2, 3), np.int8)
    with pytest.raises(ShapeMismatch):
        gemm.exact_matmul(np.zeros(3, np.int8), a8, 1, 1)
    with pytest.raises(ShapeMismatch):
        gemm.exact_matmul(a8, np.zeros((3, 2), np.float64), 1, 1)
    with pytest.raises(ShapeMismatch):
        gemm.exact_matmul(a8, np.zeros((4, 2), np.int8), 1, 1)
    with pytest.raises(ShapeMismatch):
        gemm.exact_matmul(a8, np.zeros((3, 2), np.float32), 1, 1)
    with pytest.raises(ShapeMismatch):
        gemm.exact_matmul(np.zeros((2, 4, 3), np.int8), np.zeros((3, 3, 2), np.int8), 1, 1)


# ---------------------------------------------------------------------------
# symmetric reduction


def test_reduce_mod_inplace_matches_oracle():
    rng = np.random.default_rng(17)
    x = rng.integers(-(2**31), 2**31, (50, 3)).astype(np.int64)
    for m in (3, 7, 251, 4331):
        for q in (None, np.full(x.shape, np.nan)):
            got = x.astype(np.float64)
            out = gemm.reduce_mod_inplace(got, m, q)
            assert out is got
            half = (m - 1) // 2
            assert np.all(np.abs(got) <= half)
            assert np.all((x - got.astype(np.int64)) % m == 0)
            if q is not None:  # a supplied buffer ends holding m * quotient
                assert np.array_equal(q, x - got)


def test_reduce_mod_inplace_rejects_even():
    with pytest.raises(ValueError):
        gemm.reduce_mod_inplace(np.zeros(3, np.int32), 10)


# ---------------------------------------------------------------------------
# the one-pass float fold at its edges

FOLD_MODULI = sorted({m for system in cli.STANDARD_SYSTEMS for m in system})


def assert_centred(x, got, m):
    got = got.astype(np.int64)
    assert np.all(np.abs(got) <= (m - 1) // 2)
    assert np.all((x - got) % m == 0)


@pytest.mark.parametrize("m", FOLD_MODULI)
def test_float32_fold_is_exact_over_its_whole_range(m):
    edge = gemm.FLOAT32_FOLD
    for lo in range(-edge, edge + 1, 1 << 20):
        x = np.arange(lo, min(lo + (1 << 20), edge + 1), dtype=np.int64)
        assert_centred(x, gemm.reduce_mod_inplace(x.astype(np.float32), m), m)


@pytest.mark.parametrize("m", FOLD_MODULI)
def test_float64_fold_at_its_edge(m):
    edge = gemm.FLOAT64_FOLD
    near = np.arange(edge - 4 * m, edge + 1, dtype=np.int64)  # every class
    rand = np.random.default_rng(m).integers(-edge, edge + 1, 4096)
    x = np.concatenate([near, -near, rand])
    assert_centred(x, gemm.reduce_mod_inplace(x.astype(np.float64), m), m)


def test_modular_product_past_float32_fold_edge_stays_centred():
    # float32 holds 5,029,549 exactly (below 2**24), but its one-pass fold
    # mod 241 lands off centre; the product's bound is above 2**22, so it
    # must run and fold in float64
    m, v = 241, 5_029_549
    assert gemm.FLOAT32_FOLD < v < gemm.FLOAT32_EXACT
    off = gemm.reduce_mod_inplace(np.array([v, -v], np.float32), m)
    assert np.all(np.abs(off) > (m - 1) // 2)
    a = np.array([[v], [-v]], np.int32)
    got = gemm.exact_matmul(a, np.ones((1, 1), np.int8), v, 1, m)
    assert_centred(np.array([[v], [-v]]), got, m)
