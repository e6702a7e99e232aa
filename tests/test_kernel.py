"""Transform stages and one-tile convolutions against direct correlation oracles.

The oracle computes the plain sliding-window correlation in int64.  The
stages must land in exactly the residue class of a wide-arithmetic sandwich;
a layer call whose input is a single tile must recover the exact integers.
"""

import numpy as np
import pytest

from rnswinograd import cli, gemm, kernel, layer, residue, transforms
from rnswinograd.errors import DynamicRangeExceeded, ShapeMismatch


def sym_reduce(x, m):
    r = np.mod(x, m)
    r[r > (m - 1) // 2] -= m
    return r


def correlate_tiles(d, g):
    """Valid-mode 2-D correlation over the last two axes, int64; the leading
    axes of d and g broadcast."""
    d = np.asarray(d, dtype=np.int64)
    g = np.asarray(g, dtype=np.int64)
    n = d.shape[-1]
    r = g.shape[-1]
    m = n - r + 1
    lead = np.broadcast_shapes(d.shape[:-2], g.shape[:-2])
    out = np.zeros(lead + (m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            window = d[..., i : i + r, j : j + r]
            out[..., i, j] = np.sum(window * g, axis=(-2, -1))
    return out


def modular_sets(m_out, r, moduli):
    ts = transforms.cached_transforms(m_out, r)
    return [transforms.reduce_transforms_mod(ts, m) for m in moduli]


# ---------------------------------------------------------------------------
# transform stages against a wide-arithmetic sandwich


@pytest.mark.parametrize("modulus", [251, 4001])
def test_stage_transforms_match_int64_sandwich(modulus):
    (mt,) = modular_sets(4, 3, [modulus])
    rng = np.random.default_rng(modulus)
    half = (modulus - 1) // 2

    # int8 data, as the package passes them: weights and raw input patches
    g = rng.integers(-128, 128, (3, 3)).astype(np.int8)
    got = kernel.filter_transform_mod(g, mt)
    want = sym_reduce(mt.g.astype(np.int64) @ g @ mt.g.T.astype(np.int64), modulus)
    assert np.array_equal(got.astype(np.int64), want)

    d = rng.integers(-128, 128, (6, 6)).astype(np.int8)
    got = kernel.input_transform_mod(d, mt)
    want = sym_reduce(mt.bt.astype(np.int64) @ d @ mt.bt.T.astype(np.int64), modulus)
    assert np.array_equal(got.astype(np.int64), want)
    assert np.abs(got.astype(np.int64)).max() <= half

    # the backward transform's first GEMM: entry [j, a] is (A^T t)[a, j]
    t = sym_reduce(rng.integers(-(2**20), 2**20, (6, 6)), modulus).astype(mt.at.dtype)
    want = mt.at.astype(np.int64) @ t
    got = kernel.backward_rows_mod(t, mt)
    assert got.shape == (6, 4, 1)
    assert np.array_equal(got[:, :, 0].T.astype(np.int64), sym_reduce(want, modulus))
    # unfolded: the exact integer products, in the float the fold rule
    # picks: 6 * 125**2 is within float32_fold_edge(251), 6 * 2000**2 past
    # float32_fold_edge(4001)
    got = kernel.backward_rows_mod(t, mt, fold=False)
    assert got.dtype == {251: np.float32, 4001: np.float64}[modulus]
    assert np.array_equal(got[:, :, 0].T.astype(np.int64), want)


@pytest.mark.parametrize(
    "modulus,first,second",
    [
        # the float type of each fold pass of the two GEMMs: a GEMM runs in
        # float32 up to gemm.float32_fold_edge(m), folding twice past 2**22,
        # and in float64 above; the first GEMM's bound is 16 * h * 128 on
        # int8 input, the second's 16 * h**2
        (251, "f4", "f4"),
        (1021, "f4", "f4"),  # 16 * 510**2 within 2**22 by 0.8%
        (1031, "f4", "f4f4"),  # past it by 1.2%
        (2039, "f4", "f4f4"),  # 16 * 1019**2 within the edge by 1.0%
        (2053, "f4", "f8"),  # past it by 0.4%
        (4331, "f4f4", "f8"),  # 16 * 2165 * 128 past 2**22 by 5.7%
        (32749, "f8", "f8"),  # 16 * 16374 * 128 past 2**24
    ],
)
def test_transform_first_gemm_folded_at_its_worst_case(monkeypatch, modulus, first, second):
    # every entry of left at +-h with one sign per row, every input at -128:
    # the first GEMM reaches n * h * 128 and the second n * h times its
    # folded output, each partial sum growing in magnitude; compared with
    # integer arithmetic
    n, h = 16, (modulus - 1) // 2
    signs = np.where(np.random.default_rng(modulus).random(n) < 0.5, -1, 1)
    left = np.repeat(h * signs[:, None], n, axis=1).astype(np.int16)
    x = np.full((n, n, 3), -128, np.int8)
    calls, passes = [], []
    matmul, reduce = gemm.exact_matmul, gemm.reduce_mod_inplace

    def spy_matmul(a, b, amax, bmax, m=None, fold=True):
        passes.clear()
        out = matmul(a, b, amax, bmax, m, fold)
        calls.append((bmax, fold, out, "".join(passes)))
        return out

    def spy_reduce(acc, m, q=None):
        passes.append(acc.dtype.str[1:])
        return reduce(acc, m, q)

    monkeypatch.setattr(gemm, "exact_matmul", spy_matmul)
    monkeypatch.setattr(gemm, "reduce_mod_inplace", spy_reduce)
    got = kernel._transform(left, x, modulus)
    (bmax0, fold, t, passes0), (bmax1, _, _, passes1) = calls
    assert (bmax0, bmax1) == (128, h) and fold and t.dtype == np.float32
    assert np.abs(t).max() <= h
    assert (passes0, passes1) == (first, second)
    want = -128 * n * n * h * h * np.outer(signs, signs)
    assert np.array_equal(got[:, :, 0].astype(np.int64), sym_reduce(want, modulus))


def test_transforms_take_int8_data_only():
    # the package passes the transforms int8 patches and weights only, and
    # their exactness bound counts every input at 128
    (mt,) = modular_sets(4, 3, [4001])
    with pytest.raises(ShapeMismatch, match="int8"):
        kernel.filter_transform_mod(np.zeros((3, 3), np.int16), mt)
    with pytest.raises(ShapeMismatch, match="int8"):
        kernel.input_transform_mod(np.zeros((6, 6, 2), np.float32), mt)


def test_stage_transforms_reject_wrong_tile_shape():
    (mt,) = modular_sets(4, 3, [251])
    with pytest.raises(ShapeMismatch):
        kernel.filter_transform_mod(np.zeros((4, 4), np.int8), mt)
    with pytest.raises(ShapeMismatch):
        kernel.input_transform_mod(np.zeros((5, 5), np.int8), mt)
    with pytest.raises(ShapeMismatch):
        kernel.backward_rows_mod(np.zeros(6, np.int8), mt)
    with pytest.raises(ShapeMismatch):
        kernel.backward_rows_mod(np.zeros((4, 6), np.int8), mt, fold=False)


# ---------------------------------------------------------------------------
# whole tiles: one-tile layer calls


def system_with(modulus, m_out, r):
    """The first standard system that holds modulus and suits F(m_out, r)."""
    ts = transforms.cached_transforms(m_out, r)
    for moduli in cli.STANDARD_SYSTEMS:
        if modulus in moduli and all(
            transforms.check_modulus_compatibility(ts, q) for q in moduli
        ):
            return residue.RnsSystem(moduli)
    raise AssertionError(f"no standard system for modulus {modulus}")


def one_tile_conv(d, g, m_out, system):
    """Every (n, n) tile of d (B, n, n) correlated with every (r, r) filter of
    g (K, r, r) by one layer call whose input is exactly one tile
    (h = w = n, padding 0): tiles on the batch axis, filters on the output
    channels.  Returns (B, K, m_out, m_out)."""
    (b, n, _), (k, r, _) = d.shape, g.shape
    spec = layer.LayerSpec(h=n, w=n, c=1, k=k, r=r, batch=b, tile_m=m_out)
    x = np.asarray(d, np.int8).reshape(b, n, n, 1)
    w = np.asarray(g, np.int8).transpose(1, 2, 0).reshape(r, r, 1, k)
    out = layer.winograd_layer_conv(spec, w, x, system)
    assert out.shape == (b, m_out, m_out, k)
    return np.moveaxis(out, -1, 1).astype(np.int64)


def all_pairs(d, g):
    """correlate_tiles of every tile of d with every filter of g."""
    return correlate_tiles(d[:, None], g[None, :])


@pytest.mark.parametrize(
    "m_out,r,modulus",
    [(2, 3, 251), (4, 3, 253), (4, 3, 4331), (8, 5, 241), (14, 3, 251), (12, 5, 4001)],
)
def test_tile_conv_matches_direct_correlation(m_out, r, modulus):
    system = system_with(modulus, m_out, r)
    n = m_out + r - 1
    rng = np.random.default_rng(n * modulus)
    g = rng.integers(-128, 128, (4, r, r))
    d = rng.integers(-128, 128, (4, n, n))
    got = one_tile_conv(d, g, m_out, system)
    assert np.array_equal(got, all_pairs(d, g))


def test_tile_conv_stacked_tiles():
    rng = np.random.default_rng(99)
    g = rng.integers(-128, 128, (10, 3, 3))
    d = rng.integers(-128, 128, (10, 6, 6))
    got = one_tile_conv(d, g, 4, residue.RnsSystem((253, 251, 247)))
    assert got.shape == (10, 10, 4, 4)
    assert np.array_equal(got, all_pairs(d, g))


def test_tile_conv_exhaustive_ternary_filters():
    # every {-1, 0, 1} 3x3 filter (3**9 of them) as the output channels of
    # one call, against a few random input tiles
    count = 3**9
    idx = np.arange(count)
    g = np.stack(
        [(idx // 3**p) % 3 - 1 for p in range(9)], axis=-1
    ).reshape(count, 3, 3).astype(np.int8)
    rng = np.random.default_rng(2020)
    d = rng.integers(-128, 128, (3, 4, 4))
    got = one_tile_conv(d, g, 2, residue.RnsSystem((251, 241, 239)))
    assert np.array_equal(got, all_pairs(d, g))


def test_tile_conv_delta_and_box_filters():
    rng = np.random.default_rng(7)
    d = rng.integers(-128, 128, (1, 6, 6))
    delta = np.zeros((3, 3), np.int8)
    delta[0, 0] = 1
    box = np.ones((3, 3), np.int8)
    system = residue.RnsSystem((251, 241, 239))
    got = one_tile_conv(d, np.stack([delta, box]), 4, system)
    assert np.array_equal(got[0, 0], d[0, :4, :4])
    assert np.array_equal(got[0, 1], correlate_tiles(d[0], box))


def test_tile_conv_is_linear_in_the_filter():
    rng = np.random.default_rng(31)
    g1 = rng.integers(-60, 61, (3, 3))
    g2 = rng.integers(-60, 61, (3, 3))
    d = rng.integers(-128, 128, (2, 6, 6))
    system = residue.RnsSystem((251, 241, 239))
    got = one_tile_conv(d, np.stack([g1, g2, g1 + g2]), 4, system)
    assert np.array_equal(got[:, 2], got[:, 0] + got[:, 1])


# ---------------------------------------------------------------------------
# full RNS tiles: exact integers through the CRT


@pytest.mark.parametrize(
    "m_out,r,moduli",
    [
        (4, 3, (253, 251, 247)),
        (14, 3, (251, 241, 239)),
        (12, 5, (4001, 4331)),
    ],
)
def test_rns_tile_conv_recovers_exact_integers(m_out, r, moduli):
    n = m_out + r - 1
    rng = np.random.default_rng(n)
    g = rng.integers(-128, 128, (1, r, r))
    d = rng.integers(-128, 128, (1, n, n))
    got = one_tile_conv(d, g, m_out, residue.RnsSystem(moduli))
    assert np.array_equal(got, all_pairs(d, g))


def test_rns_tile_conv_worst_case_inputs():
    # every operand at an int8 extreme: -128 filters on an all-127 and an
    # all -128 tile reach 9*128*127 and 9*128*128, inside the three-moduli range
    system = residue.RnsSystem((251, 241, 239))
    g = np.full((1, 3, 3), -128, np.int8)
    d = np.stack([np.full((6, 6), 127, np.int8), np.full((6, 6), -128, np.int8)])
    got = one_tile_conv(d, g, 4, system)
    assert np.all(got[0] == 9 * -128 * 127)
    assert np.all(got[1] == 9 * 128 * 128)


def test_rns_tile_conv_rejects_insufficient_range():
    system = residue.RnsSystem((7, 11))  # bound 38, far below 9 * 128**2
    with pytest.raises(DynamicRangeExceeded):
        one_tile_conv(np.zeros((1, 4, 4)), np.zeros((1, 3, 3)), 2, system)
