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


def int32_product(a, b, amax, bmax):
    """a @ b through int32_matmul on float32 operands, as direct_conv calls it."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    out = np.empty(shape, np.int32)
    gemm.int32_matmul(a.astype(np.float32), b.astype(np.float32), amax, bmax, out)
    return out


def test_dtype_for_modulus():
    assert gemm.dtype_for_modulus(3) == np.int8
    assert gemm.dtype_for_modulus(251) == np.int8
    assert gemm.dtype_for_modulus(255) == np.int8
    assert gemm.dtype_for_modulus(257) == np.int16
    assert gemm.dtype_for_modulus(4001) == np.int16
    assert gemm.dtype_for_modulus(32767) == np.int16


# ---------------------------------------------------------------------------
# exact float-BLAS GEMM and its bounds: exact_matmul, the modular product
# (with fold=False it returns the exact integers, so shape and slice tests
# compare it against int64), and int32_matmul, the int32 product


def test_exact_matmul_matches_naive_small():
    rng = np.random.default_rng(11)
    a = rng.integers(-128, 128, (4, 7)).astype(np.int8)
    b = rng.integers(-128, 128, (7, 5)).astype(np.int8)
    got = int32_product(a, b, 128, 128)
    assert got.dtype == np.int32
    assert np.array_equal(got.astype(np.int64), naive_gemm(a, b))
    unfolded = gemm.exact_matmul(a, b, 128, 128, 251, fold=False)
    assert np.array_equal(unfolded, naive_gemm(a, b))


def test_exact_matmul_stacked_matches_per_slice():
    rng = np.random.default_rng(14)
    a = rng.integers(-128, 128, (5, 3, 17)).astype(np.int8)
    b = rng.integers(-128, 128, (5, 17, 4)).astype(np.int8)
    got = gemm.exact_matmul(a, b, 128, 128, 251, fold=False)
    assert got.shape == (5, 3, 4)
    for s in range(5):
        assert np.array_equal(got[s], gemm.exact_matmul(a[s], b[s], 128, 128, 251, fold=False))


def test_exact_matmul_broadcasts_shared_operand():
    rng = np.random.default_rng(15)
    a = rng.integers(-128, 128, (6, 2, 9)).astype(np.int8)
    b = rng.integers(-128, 128, (9, 3)).astype(np.int8)
    got = gemm.exact_matmul(a, b, 128, 128, 251, fold=False)
    for s in range(6):
        assert np.array_equal(got[s], gemm.exact_matmul(a[s], b, 128, 128, 251, fold=False))


def test_exact_matmul_random_shape_fuzz():
    rng = np.random.default_rng(16)
    for _ in range(200):
        p, c, k = rng.integers(1, 24, 3)
        a = rng.integers(-128, 128, (p, c)).astype(np.int8)
        b = rng.integers(-128, 128, (c, k)).astype(np.int8)
        want = a.astype(np.int64) @ b.astype(np.int64)
        assert np.array_equal(gemm.exact_matmul(a, b, 128, 128, 251, fold=False), want)


def test_exact_matmul_empty_inner_dimension():
    a = np.zeros((3, 0), np.int8)
    b = np.zeros((0, 4), np.int8)
    got = gemm.exact_matmul(a, b, 128, 128, 251, fold=False)
    assert got.shape == (3, 4)
    assert np.array_equal(got, np.zeros((3, 4)))


@pytest.mark.parametrize("sa,sb", [((0, 3), (3, 4)), ((2, 3), (3, 0))])
def test_exact_matmul_empty_output(sa, sb):
    got = gemm.exact_matmul(np.ones(sa, np.int8), np.ones(sb, np.int8), 128, 128, 251)
    assert got.shape == (sa[0], sb[1]) and got.dtype == np.float32


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


def test_exact_matmul_at_float32_edge_is_exact():
    # an unfolded product picks its float by the folded rule: at exactly
    # float32_fold_edge(251) = 2**24 - 377 (a prime, so one term) float32,
    # and one more term makes it float64, where the odd sum 2 * edge - 1
    # is exact and float32 rounds it
    edge = gemm.float32_fold_edge(251)
    assert edge == 2**24 - 377
    a = np.array([[edge], [-edge]], np.int32)
    b = np.array([[1, -1, 0]], np.int8)
    got = gemm.exact_matmul(a, b, edge, 1, 251, fold=False)
    assert got.dtype == np.float32
    assert np.array_equal(got, a.astype(np.int64) @ b)
    a = np.array([[edge, edge - 1], [-edge, 1 - edge]], np.int32)
    b = np.array([[1, -1, 0], [1, -1, 1]], np.int8)
    want = a.astype(np.int64) @ b
    assert want[0, 0] == 2 * edge - 1
    assert not np.array_equal(np.matmul(a.astype(np.float32), b.astype(np.float32)), want)
    got = gemm.exact_matmul(a, b, edge, 1, 251, fold=False)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


def test_exact_matmul_just_past_float32_edge_uses_float64():
    # one term of 4097 * 4097 = 2**24 + 8193: float32 would round it, and no
    # float32 piece can hold it
    a = np.full((1, 1), 4097, np.int16)
    assert int(np.matmul(a.astype(np.float32), a.astype(np.float32))[0, 0]) != 4097**2
    got = gemm.exact_matmul(a, a, 4097, 4097, 251, fold=False)
    assert got.dtype == np.float64
    assert got[0, 0] == 4097**2


PIECE_CASES = [
    # 2049 terms of up to 127 * 127: pieces of 1024, 1024 and a short last 1
    ((3, 2049), (2049, 2)),
    ((2, 3, 2049), (2, 2049, 2)),  # stacked
    ((2, 3, 2049), (2049, 2)),  # a shared right operand
    ((3, 2049), (2, 2049, 2)),  # a shared left operand
]


@pytest.mark.parametrize("sa,sb", PIECE_CASES)
def test_exact_matmul_float32_pieces_match_oracle(sa, sb):
    # partial sums past 2**24 that one float32 product rounds; each of
    # int32_matmul's pieces is exact in float32 and the int32 sum of the
    # pieces is exact.  exact_matmul, unfolded, runs them in float64, past
    # float32_fold_edge(251)
    rng = np.random.default_rng(len(sa) * 10 + len(sb))
    a = rng.integers(115, 128, sa).astype(np.int8)
    b = rng.integers(115, 128, sb).astype(np.int8)
    want = np.matmul(a.astype(np.int64), b.astype(np.int64))
    assert want.min() > gemm.FLOAT32_EXACT
    assert not np.array_equal(np.matmul(a.astype(np.float32), b.astype(np.float32)), want)
    assert gemm.int32_piece(2049, 128, 128) == 1024
    got = int32_product(a, b, 128, 128)
    assert got.dtype == np.int32
    assert np.array_equal(got, want)
    unfolded = gemm.exact_matmul(a, b, 128, 128, 251, fold=False)
    assert unfolded.dtype == np.float64
    assert np.array_equal(unfolded, want)


def test_exact_matmul_pieces_hold_at_most_what_float32_holds(monkeypatch):
    # 673 * 97 * 257 = 2**24 + 1: int32_matmul's pieces hold
    # 2**24 // (97 * 257) = 672 terms and 1, and at 1024 * 128 * 128 = 2**24
    # one product is enough
    a = np.full((1, 673), 97, np.int8)
    b = np.full((673, 1), 257, np.int16)
    a1024 = np.full((1, 1024), -128, np.int8)
    assert gemm.int32_piece(673, 97, 257) == 672
    depths = []
    matmul = np.matmul

    def spy(x, y, **kwargs):
        depths.append((x.dtype, x.shape[-1]))
        return matmul(x, y, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    assert int32_product(a, b, 97, 257)[0, 0] == 2**24 + 1
    assert depths == [(np.float32, 672), (np.float32, 1)]
    depths.clear()
    assert int32_product(a1024, a1024.T.copy(), 128, 128)[0, 0] == 2**24
    assert depths == [(np.float32, 1024)]


def fold_edge_faults() -> list[str]:
    """What goes wrong at the modular product's 2**51 edge: -128 * 2**44
    must fold exactly and, unfolded, come back exact, and a bound of 128 *
    (2**44 + 1) must raise OverflowRisk naming 2**51 before any product
    runs, folded or not, although 127 * (2**44 + 1) fits.

    Uses no assert, so it checks the same under python -O (test_arrays.py
    runs it there).
    """
    m, amax = 251, gemm.INT8_ABS_PEAK
    a = np.full((1, 1), -128, np.int8)
    at_edge = np.array([[2**44]], np.int64)  # 128 * 2**44 = 2**51
    want = (-128 * 2**44) % m
    want -= m if want > (m - 1) // 2 else 0
    faults = []
    if (got := gemm.exact_matmul(a, at_edge, amax, 2**44, m)[0, 0]) != want:
        faults.append(f"-128 * 2**44 folded to {got}, not {want}")
    if (got := gemm.exact_matmul(a, at_edge, amax, 2**44, m, fold=False)[0, 0]) != -(2**51):
        faults.append(f"-128 * 2**44 unfolded came back {got}, not -2**51")
    if 127 * (2**44 + 1) > gemm.FLOAT64_FOLD:
        faults.append("127 * (2**44 + 1) is past 2**51")
    for fold in (True, False):
        try:
            got = gemm.exact_matmul(a, at_edge + 1, amax, 2**44 + 1, m, fold)
            faults.append(f"past 2**51 with fold={fold} returned {got}")
        except OverflowRisk as e:
            if "2**51" not in str(e):
                faults.append(f"the refusal does not name 2**51: {e}")
    return faults


def test_exact_matmul_float64_edge_counts_int8_minimum(monkeypatch):
    calls = []
    matmul = np.matmul

    def spy(x, y, **kwargs):
        calls.append(x.shape)
        return matmul(x, y, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    assert fold_edge_faults() == []
    assert len(calls) == 2  # only the products at the edge ran


def test_defer_fold_at_its_edges():
    # the consumer's bound on the unfolded operand against 2**51, exactly:
    # depth 16 on (32749 - 1) / 2, the position GEMM's consumer at F(14x14, 3x3)
    h = 16374
    top = gemm.FLOAT64_FOLD // (16 * h)
    assert gemm.defer_fold(16, h, top)
    assert not gemm.defer_fold(16, h, top + 1)
    # the consumer must already run in float64 on a folded operand: 16 *
    # 1023**2 is within float32_fold_edge(2047) and keeps a float32 consumer,
    # 16 * 1024**2 = 2**24 is past float32_fold_edge(2049)
    assert 16 * 1023**2 <= gemm.float32_fold_edge(2047)
    assert 16 * 1024**2 > gemm.float32_fold_edge(2049)
    assert not gemm.defer_fold(16, 1023, 16 * 1023 * 128)
    assert gemm.defer_fold(16, 1024, 16 * 1024 * 128)


def test_exact_float_dtype_mantissa_edges():
    # the float exact_matmul picks, unfolded, at the edges of its one rule:
    # float32 at float32_fold_edge(m) and float64 one past it, for a small
    # and a large modulus, float64 at 2**51 and OverflowRisk one past it;
    # folded, the residues come back float32 either way
    one = np.ones((1, 1), np.int8)
    for m in (251, 4001):
        edge = gemm.float32_fold_edge(m)
        for bound, dtype in ((edge, np.float32), (edge + 1, np.float64)):
            a = np.array([[bound]], np.int64)
            assert gemm.exact_matmul(a, one, bound, 1, m, fold=False).dtype == dtype
            assert gemm.exact_matmul(a, one, bound, 1, m).dtype == np.float32
    top = np.array([[gemm.FLOAT64_FOLD]], np.int64)
    assert gemm.exact_matmul(top, one, gemm.FLOAT64_FOLD, 1, 251, fold=False).dtype == np.float64
    with pytest.raises(OverflowRisk, match="2\\*\\*51"):
        gemm.exact_matmul(top + 1, one, gemm.FLOAT64_FOLD + 1, 1, 251, fold=False)


@pytest.mark.parametrize(
    "depth,bmax,dtype",
    # 1024 * 127 * 128 = 2**24 - 2**17 is within float32_fold_edge(251);
    # 673 * 97 * 257 = 2**24 + 1 is past it
    [(1024, 128, np.float32), (673, 257, np.float64)],
)
def test_unfolded_product_is_exact_in_the_narrowest_float(depth, bmax, dtype):
    amax = 127 if bmax == 128 else 97
    assert (depth * amax * bmax <= gemm.float32_fold_edge(251)) == (dtype == np.float32)
    a = np.full((2, depth), -amax, np.int16)
    b = np.full((depth, 3), -bmax, np.int16)
    b[:, 1] = bmax
    got = gemm.exact_matmul(a, b, amax, bmax, 251, fold=False)
    assert got.dtype == dtype
    assert np.array_equal(got, np.matmul(a.astype(np.int64), b.astype(np.int64)))
    assert got[0, 0] == depth * amax * bmax


def test_exact_matmul_without_modulus_must_fit_int32(monkeypatch):
    # exact_matmul is only the modular product; the int32 product is
    # int32_matmul's, in float32 pieces: 127 terms of 4096 * 4096 = 2**24,
    # one a piece, sum within int32, 128 can overflow it, and one term of
    # 4097**2 passes 2**24; both are refused before any product runs
    a = np.full((1, 2), 4096, np.int16)
    with pytest.raises(TypeError, match="'m'"):
        gemm.exact_matmul(a, a.T.copy(), 4096, 4096)
    deep = np.full((1, 127), -4096, np.int16)
    assert int32_product(deep, deep.T.copy(), 4096, 4096)[0, 0] == 127 * 2**24
    calls = []
    matmul = np.matmul

    def spy(x, y, **kwargs):
        calls.append(x.shape)
        return matmul(x, y, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    deeper = np.full((1, 128), 4096, np.int16)
    with pytest.raises(OverflowRisk, match="can overflow int32"):
        int32_product(deeper, deeper.T.copy(), 4096, 4096)
    one = np.full((1, 1), 4097, np.int16)
    with pytest.raises(OverflowRisk, match="2\\*\\*24"):
        int32_product(one, one, 4097, 4097)
    assert calls == []


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
        got = gemm.exact_matmul(a, b, 128, 128, 251, fold=False)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        red = gemm.exact_matmul(a, b, 128, 128, 251)
        assert np.all((want - red) % 251 == 0)
        assert np.all(np.abs(red) <= 125)


@pytest.mark.parametrize(
    "rows,depth,k,slices",
    [
        # b converted once takes 2 * 288 * 32 * 4 = 73,728 bytes, within the
        # 1 MB floor: 1 MB // ((288 + 32) * 4) = 819 rows a slice
        (2000, 288, 32, 3),
        # 1024 * 128 * 128 = 2**24 runs in float64, past
        # float32_fold_edge(251): b takes 2 * 1024 * 512 * 8 = 8 MB, past the
        # floor: 8 MB // ((1024 + 512) * 8) = 682 rows a slice (the floor
        # gives 85)
        (1000, 1024, 512, 2),
    ],
)
def test_exact_matmul_slice_budget_counts_the_operand_converted_once(
    monkeypatch, rows, depth, k, slices
):
    calls = []
    matmul = np.matmul

    def spy(x, y, **kwargs):
        calls.append(x.shape[0])
        return matmul(x, y, **kwargs)

    rng = np.random.default_rng(rows)
    a = rng.integers(-128, 128, (rows, depth)).astype(np.int8)
    b = rng.integers(-128, 128, (depth, k)).astype(np.int8)
    assert gemm._SLICE_BYTES == 1 << 20
    monkeypatch.setattr(np, "matmul", spy)
    got = gemm.exact_matmul(a, b, 128, 128, 251, fold=False)
    monkeypatch.undo()
    assert len(calls) == slices
    assert sum(calls) == rows
    # float64 holds every partial sum of these products exactly
    assert np.array_equal(got, np.matmul(a.astype(np.float64), b.astype(np.float64)))


def test_exact_matmul_shape_and_dtype_errors():
    # float operands are residues of an earlier modular product, always
    # valid; only dtypes that are neither integer nor float are refused
    a8 = np.zeros((2, 3), np.int8)
    with pytest.raises(ShapeMismatch):
        gemm.exact_matmul(np.zeros(3, np.int8), a8, 1, 1, 251)
    with pytest.raises(ShapeMismatch):
        gemm.exact_matmul(a8, np.zeros((3, 2), np.bool_), 1, 1, 251)
    with pytest.raises(ShapeMismatch):
        gemm.exact_matmul(a8, np.zeros((4, 2), np.int8), 1, 1, 251)
    with pytest.raises(ShapeMismatch):
        gemm.exact_matmul(a8, np.zeros((3, 2), np.complex64), 1, 1, 251)
    with pytest.raises(ShapeMismatch):
        gemm.exact_matmul(np.zeros((2, 4, 3), np.int8), np.zeros((3, 3, 2), np.int8), 1, 1, 251)


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
# the float folds at their edges

FOLD_MODULI = sorted({m for system in cli.STANDARD_SYSTEMS for m in system})
# moduli whose two-pass float32 fold fails just past its edge
TIGHT_MODULI = [257, 1031]


def assert_centred(x, got, m):
    got = got.astype(np.int64)
    assert np.all(np.abs(got) <= (m - 1) // 2)
    assert np.all((x - got) % m == 0)


def fold_twice(x, m):
    """The float32 route exact_matmul takes past the one-pass edge."""
    return gemm.reduce_mod_inplace(gemm.reduce_mod_inplace(x.astype(np.float32), m), m)


def spy_fold_dtypes(monkeypatch):
    """Wrap gemm.reduce_mod_inplace; returns the list of the dtypes it folds."""
    dtypes = []
    wrapped = gemm.reduce_mod_inplace

    def spy(acc, m, q=None):
        dtypes.append(acc.dtype)
        return wrapped(acc, m, q)

    monkeypatch.setattr(gemm, "reduce_mod_inplace", spy)
    return dtypes


@pytest.mark.parametrize("m", FOLD_MODULI)
def test_float32_fold_is_exact_over_its_whole_range(m):
    # one pass over the one-pass range, two up to float32_fold_edge(m): every
    # integer, against the periodic sequence of centred residues
    for passes, edge in ((1, gemm.FLOAT32_FOLD), (2, gemm.float32_fold_edge(m))):
        chunk = (1 << 20) // m * m  # whole periods: every chunk starts like lo
        for lo in range(-edge, edge + 1, chunk):
            x = np.arange(lo, min(lo + chunk, edge + 1), dtype=np.int64)
            got = x.astype(np.float32)
            for _ in range(passes):
                gemm.reduce_mod_inplace(got, m)
            period = x[:m] % m
            period[period > (m - 1) // 2] -= m
            assert np.array_equal(got, np.resize(period, len(x)))


def test_float32_one_pass_fold_at_its_tightest_values():
    # x = k*m +- h and +-(h - 1) within the one-pass edge, where x/m lies
    # nearest a rounding boundary, for every odd modulus the int16 residue
    # dtype holds; each folds to its own offset
    for m in range(3, 32768, 2):
        h = (m - 1) // 2
        top = (gemm.FLOAT32_FOLD - h) // m
        offsets = np.array([h, -h, h - 1, 1 - h], np.float32)
        x = np.arange(-top, top + 1, dtype=np.float32)[:, None] * m + offsets
        assert np.abs(x).max() <= gemm.FLOAT32_FOLD
        assert np.array_equal(gemm.reduce_mod_inplace(x, m), np.broadcast_to(offsets, x.shape))


@pytest.mark.parametrize("m", FOLD_MODULI + TIGHT_MODULI)
def test_float32_two_fold_edge(monkeypatch, m):
    edge = gemm.float32_fold_edge(m)
    near = np.arange(edge - 4 * m, edge + 1, dtype=np.int64)  # every class
    x = np.concatenate([near, -near])
    assert_centred(x, fold_twice(x, m), m)
    # through exact_matmul: a product bounded by the edge folds twice in
    # float32, one past it once in float64
    dtypes = spy_fold_dtypes(monkeypatch)
    for top, route in ((edge, [np.float32] * 2), (edge + 1, [np.float64])):
        a = np.array([[top], [-top], [top - m // 2]], np.int32)
        got = gemm.exact_matmul(a, np.ones((1, 1), np.int8), top, 1, m)
        assert got.dtype == np.float32
        assert_centred(a, got, m)
        assert dtypes == route
        dtypes.clear()


@pytest.mark.parametrize("m,fails", [(257, 254), (1031, 538)])
def test_float32_two_fold_fails_just_past_its_edge(monkeypatch, m, fails):
    # past float32_fold_edge(m) the first pass's m * rint(x / m) can pass
    # 2**24, which float32 cannot hold: the edge is drawn no further out
    # than it must be
    past = np.arange(gemm.float32_fold_edge(m) + 1, gemm.FLOAT32_EXACT + 1, dtype=np.int64)
    x = np.concatenate([past, -past])
    got = fold_twice(x, m).astype(np.int64)
    wrong = (np.abs(got) > (m - 1) // 2) | ((x - got) % m != 0)
    assert np.count_nonzero(wrong) == fails
    if m == 257:
        # the reproduced case: -2**24 folds to 0 where 1 is right, and a
        # product that reaches it runs in float64
        assert (-(2**24)) % m == 1
        assert fold_twice(np.array([-(2**24)]), m)[0] == 0
        dtypes = spy_fold_dtypes(monkeypatch)
        a = np.array([[-(2**24)]], np.int32)
        assert gemm.exact_matmul(a, np.ones((1, 1), np.int8), 2**24, 1, m)[0, 0] == 1
        assert dtypes == [np.float64]


@pytest.mark.parametrize("m", FOLD_MODULI)
def test_float64_fold_at_its_edge(m):
    edge = gemm.FLOAT64_FOLD
    near = np.arange(edge - 4 * m, edge + 1, dtype=np.int64)  # every class
    rand = np.random.default_rng(m).integers(-edge, edge + 1, 4096)
    x = np.concatenate([near, -near, rand])
    assert_centred(x, gemm.reduce_mod_inplace(x.astype(np.float64), m), m)


def test_modular_product_past_float32_fold_edge_stays_centred(monkeypatch):
    # float32 holds 5,029,549 exactly (below 2**24), but its one-pass fold
    # mod 241 lands off centre; the product's bound is past the one-pass
    # edge and within float32_fold_edge(241), so it folds twice in float32
    m, v = 241, 5_029_549
    assert gemm.FLOAT32_FOLD < v <= gemm.float32_fold_edge(m)
    off = gemm.reduce_mod_inplace(np.array([v, -v], np.float32), m)
    assert np.all(np.abs(off) > (m - 1) // 2)
    dtypes = spy_fold_dtypes(monkeypatch)
    a = np.array([[v], [-v]], np.int32)
    got = gemm.exact_matmul(a, np.ones((1, 1), np.int8), v, 1, m)
    assert_centred(np.array([[v], [-v]]), got, m)
    assert dtypes == [np.float32, np.float32]
