"""Whole-layer pipeline: tiling, fast path vs direct conv, counts, tensor IO.

The oracle here (naive_conv) accumulates shifted einsum products in int64,
a different decomposition from both the im2col reference and the tiled fast
path, so agreement of all three is meaningful.
"""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from rnswinograd import gemm, kernel, layer, residue, transforms
from rnswinograd.errors import (
    DynamicRangeExceeded,
    NotCoprime,
    OverflowRisk,
    ShapeMismatch,
)

SYS8 = residue.RnsSystem((251, 241, 239))
SYS16 = residue.RnsSystem((4001, 4331))


def naive_conv(spec, weights, x):
    xp = np.pad(
        x.astype(np.int64),
        ((0, 0), (spec.padding, spec.padding), (spec.padding, spec.padding), (0, 0)),
    )
    out = np.zeros((spec.batch, spec.out_h, spec.out_w, spec.k), dtype=np.int64)
    s = spec.stride
    for a in range(spec.r):
        for b in range(spec.r):
            patch = xp[
                :,
                a : a + spec.out_h * s : s,
                b : b + spec.out_w * s : s,
                :,
            ]
            out += np.einsum(
                "bhwc,ck->bhwk", patch, weights[a, b].astype(np.int64)
            )
    return out


def random_operands(spec, seed):
    rng = np.random.default_rng(seed)
    weights = rng.integers(-128, 128, spec.weight_shape()).astype(np.int8)
    x = rng.integers(-128, 128, spec.input_shape()).astype(np.int8)
    return weights, x


# ---------------------------------------------------------------------------
# spec and reference path


def test_layer_spec_geometry():
    spec = layer.LayerSpec(h=224, w=224, c=3, k=64, r=3, padding=1)
    assert (spec.out_h, spec.out_w) == (224, 224)
    spec = layer.LayerSpec(h=7, w=9, c=1, k=1, r=3, padding=0, stride=2)
    assert (spec.out_h, spec.out_w) == (3, 4)
    assert spec.weight_shape() == (3, 3, 1, 1)
    assert spec.input_shape() == (1, 7, 9, 1)
    # a spec without a tile runs F(DEFAULT_TILE_M, r); n is its transform size
    assert layer.DEFAULT_TILE_M == 14
    assert (spec.tile_m, spec.n) == (14, 16)
    assert replace(spec, tile_m=4, r=5).n == 8
    assert replace(spec, tile_m=1, r=2).n == 2


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        layer.LayerSpec(h=0, w=4, c=1, k=1, r=3)
    with pytest.raises(ValueError):
        layer.LayerSpec(h=4, w=4, c=1, k=1, r=3, padding=-1)
    with pytest.raises(ValueError):
        layer.LayerSpec(h=2, w=2, c=1, k=1, r=5)
    with pytest.raises(ValueError):
        layer.LayerSpec(h=8, w=8, c=1, k=1, r=3, tile_m=0)
    with pytest.raises(ValueError, match="tile_m must be a positive integer, got None"):
        layer.LayerSpec(h=8, w=8, c=1, k=1, r=3, tile_m=None)
    # F(1, 1) has a 1 x 1 transform, which no interpolation builds
    with pytest.raises(ValueError, match=r"tile_m \+ r - 1 must be at least 2, got 1"):
        layer.LayerSpec(h=8, w=8, c=1, k=1, r=1, tile_m=1)


def test_im2col_tiny_case_by_hand():
    x = np.arange(9, dtype=np.int8).reshape(1, 3, 3, 1)
    cols = layer.im2col(x, r=2, stride=1, padding=0)
    assert cols.tolist() == [
        [0, 1, 3, 4],
        [1, 2, 4, 5],
        [3, 4, 6, 7],
        [4, 5, 7, 8],
    ]


@pytest.mark.parametrize(
    "kw",
    [
        dict(h=8, w=8, c=3, k=4, r=3),
        dict(h=9, w=7, c=2, k=3, r=3, padding=1, batch=2),
        dict(h=10, w=10, c=3, k=2, r=5, padding=2),
        dict(h=11, w=11, c=2, k=2, r=3, stride=2, padding=1),
    ],
)
def test_direct_conv_matches_naive(kw):
    spec = layer.LayerSpec(**kw)
    weights, x = random_operands(spec, 5)
    got = layer.direct_conv(spec, weights, x)
    assert got.dtype == np.int32
    assert np.array_equal(got.astype(np.int64), naive_conv(spec, weights, x))


@pytest.mark.parametrize(
    "c,pieces",
    # all -128 at r = 3: every output is 9 * c * 128**2, 16,662,528 within
    # 2**24 at c = 113 (one float32 product), 16,809,984 past it at c = 114
    # (float32 pieces of 1024 and 2 terms)
    [(113, [1017]), (114, [1024, 2])],
)
def test_direct_conv_float32_pieces_at_their_edge(monkeypatch, c, pieces):
    spec = layer.LayerSpec(h=5, w=5, c=c, k=2, r=3)
    weights = np.full(spec.weight_shape(), -128, np.int8)
    x = np.full(spec.input_shape(), -128, np.int8)
    depths = []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        depths.append((a.dtype, a.shape[-1]))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    got = layer.direct_conv(spec, weights, x)
    monkeypatch.undo()
    assert depths == [(np.float32, d) for d in pieces]
    assert np.all(got == 9 * c * 128**2)
    assert np.array_equal(got.astype(np.int64), naive_conv(spec, weights, x))


def test_direct_conv_validates_operands():
    spec = layer.LayerSpec(h=8, w=8, c=3, k=4, r=3)
    weights, x = random_operands(spec, 5)
    with pytest.raises(ShapeMismatch):
        layer.direct_conv(spec, weights[:, :, :2], x)
    with pytest.raises(ShapeMismatch):
        layer.direct_conv(spec, weights, x.astype(np.int16))


# ---------------------------------------------------------------------------
# tiling


def test_tile_decompose_geometry_224():
    # F(14x14, 3x3) on a padded 224 plane: 16 x 16 patches of side 16 whose
    # outputs end exactly at 224, so the scatter crops nothing
    x = np.zeros((1, 224, 224, 3), np.int8)
    patches = layer.tile_decompose(x, tile_m=14, r=3, padding=1)
    assert patches.shape == (1, 16, 16, 16, 16, 3)
    assert 16 * 14 == layer.LayerSpec(h=224, w=224, c=3, k=1, r=3, padding=1).out_h


def test_tile_decompose_cropped_tail():
    # out 9x9 with tile 4 -> 3x3 tiles, the last row/col crops to 1
    x = np.zeros((1, 11, 11, 1), np.int8)
    patches = layer.tile_decompose(x, tile_m=4, r=3, padding=0)
    assert patches.shape == (1, 3, 3, 6, 6, 1)
    out = 11 - 3 + 1
    assert out - (patches.shape[1] - 1) * 4 == 1
    assert out - (patches.shape[2] - 1) * 4 == 1


def test_tile_decompose_patch_content_matches_padded_input():
    rng = np.random.default_rng(77)
    x = rng.integers(-128, 128, (2, 13, 9, 3)).astype(np.int8)
    tile_m, r, padding = 4, 3, 1
    patches = layer.tile_decompose(x, tile_m, r, padding)
    # out 13x9 -> 4x3 tiles of side 6; the canvas is padded independently
    assert patches.shape == (2, 4, 3, 6, 6, 3)
    n = 6
    canvas = np.zeros((2, 3 * tile_m + n, 2 * tile_m + n, 3), np.int8)
    canvas[:, padding : padding + 13, padding : padding + 9] = x
    for i in range(4):
        for j in range(3):
            want = canvas[:, i * tile_m : i * tile_m + n, j * tile_m : j * tile_m + n]
            assert np.array_equal(patches[:, i, j], want)


def test_tile_decompose_rejects_undersized_input():
    with pytest.raises(ShapeMismatch):
        layer.tile_decompose(np.zeros((1, 2, 2, 1), np.int8), 2, 3, 0)


# ---------------------------------------------------------------------------
# the fast path against the references


FAST_CASES = [
    (dict(h=8, w=8, c=3, k=5, r=3, padding=1, batch=2, tile_m=4), SYS8, None),
    (dict(h=16, w=16, c=4, k=3, r=5, padding=2, tile_m=12), SYS16, None),
    (dict(h=30, w=30, c=7, k=2, r=3, tile_m=14), SYS8, None),
    (dict(h=28, w=28, c=32, k=16, r=3, padding=1, tile_m=14), SYS8, None),
    (dict(h=6, w=10, c=2, k=2, r=3, padding=1, tile_m=2), residue.RnsSystem((253, 251, 247)), None),
]


@pytest.mark.parametrize("kw,system,bound", FAST_CASES)
def test_winograd_layer_matches_both_references(kw, system, bound):
    spec = layer.LayerSpec(**kw)
    weights, x = random_operands(spec, spec.h * spec.w)
    want = layer.direct_conv(spec, weights, x)
    assert np.array_equal(want.astype(np.int64), naive_conv(spec, weights, x))
    got = layer.winograd_layer_conv(spec, weights, x, system, declared_bound=bound)
    assert got.dtype == np.int32
    assert np.array_equal(got, want)


def test_winograd_layer_with_declared_bound():
    # 512 channels: the static worst case overflows three 8-bit moduli, but
    # ternary weights keep the real outputs tiny; the caller declares that
    spec = layer.LayerSpec(h=6, w=6, c=512, k=4, r=3, padding=1, tile_m=4)
    rng = np.random.default_rng(512)
    weights = rng.integers(-1, 2, spec.weight_shape()).astype(np.int8)
    x = rng.integers(-128, 128, spec.input_shape()).astype(np.int8)
    want = layer.direct_conv(spec, weights, x)
    assert int(np.abs(want).max()) < 300_000  # the declaration must be true

    with pytest.raises(DynamicRangeExceeded):
        layer.winograd_layer_conv(spec, weights, x, SYS8)
    got = layer.winograd_layer_conv(spec, weights, x, SYS8, declared_bound=300_000)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("c", [1073, 1074])
def test_8bit_moduli_keep_float32_up_to_1073_channels(monkeypatch, c):
    # F(14x14, 3x3) on (251, 241, 239): the position GEMM's bound c * 125**2
    # is the widest, 16,765,625 within gemm.float32_fold_edge(251) at
    # c = 1073 and 16,781,250 past it at c = 1074, where 251's position GEMM
    # alone moves to float64; ternary data keep the outputs within 9 * c
    spec = layer.LayerSpec(h=14, w=14, c=c, k=2, r=3, padding=1, tile_m=14)
    rng = np.random.default_rng(c)
    weights = rng.integers(-1, 2, spec.weight_shape()).astype(np.int8)
    x = rng.integers(-1, 2, spec.input_shape()).astype(np.int8)
    folds = []
    wrapped = gemm.reduce_mod_inplace

    def spy(acc, m, q=None):
        folds.append((m, acc.dtype))
        return wrapped(acc, m, q)

    monkeypatch.setattr(gemm, "reduce_mod_inplace", spy)
    got = layer.winograd_layer_conv(spec, weights, x, SYS8, declared_bound=9 * c)
    monkeypatch.undo()
    assert np.array_equal(got, layer.direct_conv(spec, weights, x))
    # each modulus folds its float64 CRT weights once; every other fold of a
    # residue product is float32, but for 251's position GEMM at c = 1074
    wide = [m for m, dtype in folds if m in SYS8.moduli and dtype != np.float32]
    assert sorted(set(wide)) == sorted(SYS8.moduli)
    assert [m for m in set(wide) if wide.count(m) > 1] == ([] if c == 1073 else [251])


def test_winograd_layer_15bit_wide_depth_with_declared_bound():
    # 512 * 2165**2 exceeds int32: the position GEMM folds its float64
    # products before converting them
    spec = layer.LayerSpec(h=7, w=9, c=512, k=3, r=3, padding=1, tile_m=4)
    rng = np.random.default_rng(4331)
    weights = rng.integers(-1, 2, spec.weight_shape()).astype(np.int8)
    x = rng.integers(-128, 128, spec.input_shape()).astype(np.int8)
    want = layer.direct_conv(spec, weights, x)
    assert int(np.abs(want).max()) < 300_000
    got = layer.winograd_layer_conv(spec, weights, x, SYS16, declared_bound=300_000)
    assert np.array_equal(got, want)


def test_winograd_layer_tile_blocks_match_direct(monkeypatch):
    # a one-byte budget makes every tile row its own block, across images
    # and through the cropped last row and column
    monkeypatch.setattr(layer, "_BLOCK_BYTES", 1)
    for kw, system in (
        (dict(h=13, w=11, c=3, k=4, r=3, padding=1, batch=2, tile_m=4), SYS8),
        (dict(h=10, w=17, c=2, k=3, r=5, padding=2, batch=3, tile_m=2), SYS16),
    ):
        spec = layer.LayerSpec(**kw)
        weights, x = random_operands(spec, spec.h)
        got = layer.winograd_layer_conv(spec, weights, x, system)
        assert np.array_equal(got.astype(np.int64), naive_conv(spec, weights, x))


def test_winograd_layer_runs_strides_direct():
    spec = layer.LayerSpec(h=8, w=8, c=2, k=2, r=3, padding=1, stride=2, tile_m=4)
    weights, x = random_operands(spec, 1)
    got = layer.winograd_layer_conv(spec, weights, x, SYS8)
    assert np.array_equal(got, layer.direct_conv(spec, weights, x))
    assert np.array_equal(got.astype(np.int64), naive_conv(spec, weights, x))
    assert layer.layer_conv is layer.winograd_layer_conv


def test_layer_conv_falls_back_for_strides():
    spec = layer.LayerSpec(h=9, w=9, c=2, k=3, r=3, padding=1, stride=2, tile_m=4)
    weights, x = random_operands(spec, 3)
    got = layer.layer_conv(spec, weights, x, SYS8)
    assert np.array_equal(got, layer.direct_conv(spec, weights, x))


def test_precomputed_filters_path():
    spec = layer.LayerSpec(h=12, w=12, c=3, k=4, r=3, padding=1, tile_m=4)
    weights, x = random_operands(spec, 4)
    ts = transforms.cached_transforms(4, 3)
    mts = transforms.reduce_for_system(ts, SYS8)
    filters = layer.precompute_filter_transforms(weights, mts)
    assert [mt.modulus for mt in filters.transforms] == list(SYS8.moduli)
    assert [f.shape for f in filters.residues] == [(6, 6, 3, 4)] * 3
    assert filters.weights is not weights and np.array_equal(filters.weights, weights)

    base = layer.winograd_layer_conv(spec, weights, x, SYS8)
    got = layer.winograd_layer_conv(spec, weights, x, SYS8, filters=filters)
    assert np.array_equal(got, base)
    assert np.array_equal(got, layer.direct_conv(spec, weights, x))


PREP_SPEC = layer.LayerSpec(h=12, w=12, c=3, k=4, r=3, padding=1, tile_m=4)


def prepared(weights, tile_m=4, moduli=SYS8.moduli):
    mts = transforms.reduce_for_system(
        transforms.cached_transforms(tile_m, 3), residue.RnsSystem(moduli)
    )
    return layer.precompute_filter_transforms(weights, mts)


def mutated_after_prepare(weights):
    filters = prepared(weights)
    weights[0, 0, 0, 0] = ~weights[0, 0, 0, 0]
    return filters


@pytest.mark.parametrize(
    "prepare",
    [
        # other weights: once silently the convolution with those weights
        pytest.param(lambda w: prepared(random_operands(PREP_SPEC, 99)[0]), id="stale"),
        pytest.param(mutated_after_prepare, id="mutated_after_prepare"),
        pytest.param(lambda w: dict(zip(SYS8.moduli, prepared(w).residues)), id="hand_built_dict"),
        pytest.param(lambda w: prepared(w, tile_m=2), id="other_tile"),
        pytest.param(lambda w: prepared(w, moduli=(251, 241, 233)), id="other_moduli"),
    ],
)
def test_filters_not_prepared_for_the_call_are_refused(prepare):
    weights, x = random_operands(PREP_SPEC, 4)
    filters = prepare(weights)
    with pytest.raises(ShapeMismatch, match="not prepared from these weights"):
        layer.winograd_layer_conv(PREP_SPEC, weights, x, SYS8, filters=filters)


@pytest.mark.parametrize(
    "moduli,error",
    [
        pytest.param((), ValueError, id="no_moduli"),
        pytest.param((251, 241, 251), NotCoprime, id="not_coprime"),
    ],
)
def test_prepared_filters_refuse_an_unusable_system(moduli, error):
    # the set derives its RnsSystem when built, so no call ever sees it
    weights, _ = random_operands(PREP_SPEC, 4)
    with pytest.raises(error):
        layer.PreparedFilters(weights, transforms.cached_modular_transforms(4, 3, moduli))


def test_prepared_filters_take_only_weights_and_transforms():
    # residues, system and CRT weights are derived: none can be passed in,
    # so none can disagree with the weights (residues x 300 as int16 once
    # ran silently inexact)
    weights, _ = random_operands(PREP_SPEC, 4)
    filters = prepared(weights)
    wide = tuple(u.astype(np.int16) * 300 for u in filters.residues)
    with pytest.raises(TypeError):
        layer.PreparedFilters(weights, filters.transforms, wide)
    with pytest.raises(TypeError):
        layer.PreparedFilters(weights, filters.transforms, residues=wide)
    assert layer.precompute_filter_transforms is layer.PreparedFilters


def test_replaced_weights_re_derive_the_set():
    weights, x = random_operands(PREP_SPEC, 4)
    other, _ = random_operands(PREP_SPEC, 99)
    filters = replace(prepared(weights), weights=other)
    assert filters.system == SYS8
    got = layer.winograd_layer_conv(PREP_SPEC, other, x, SYS8, filters=filters)
    assert np.array_equal(got, layer.direct_conv(PREP_SPEC, other, x))


def test_prepared_filters_are_read_only():
    weights, _ = random_operands(PREP_SPEC, 4)
    filters = prepared(weights)
    for a in (*filters.residues, *filters.crt_weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        filters.weights[0, 0, 0, 0] = 0
    weights[...] = 0  # the caller's array stays theirs to change


def test_thread_count_does_not_change_results(monkeypatch):
    spec = layer.LayerSpec(h=10, w=10, c=3, k=3, r=3, padding=1, tile_m=4)
    weights, x = random_operands(spec, 6)
    monkeypatch.setenv("RNSW_THREADS", "1")
    serial = layer.winograd_layer_conv(spec, weights, x, SYS8)
    monkeypatch.setenv("RNSW_THREADS", "3")
    threaded = layer.winograd_layer_conv(spec, weights, x, SYS8)
    assert np.array_equal(serial, threaded)


def test_thread_cap_parsing(monkeypatch):
    # RNSW_THREADS caps the workers at the task count; what is not an
    # integer falls back to the usable cores, and 0 or below means one
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for value, want in (("3", 3), ("abc", cores), ("", cores), ("0", 1), ("-3", 1)):
        monkeypatch.setenv("RNSW_THREADS", value)
        assert layer._worker_count(1000) == want, value
    monkeypatch.delenv("RNSW_THREADS")
    assert layer._worker_count(1000) == cores
    monkeypatch.setenv("RNSW_THREADS", "8")
    assert layer._worker_count(2) == 2


def test_block_workers_under_fast_switching_match_direct(monkeypatch):
    # more workers than cores, one tile row per block and a thread switch
    # every few microseconds: a lost or misplaced block row shows as a
    # mismatch
    monkeypatch.setattr(layer, "_BLOCK_BYTES", 1)
    monkeypatch.setenv("RNSW_THREADS", "8")
    spec = layer.LayerSpec(h=30, w=9, c=3, k=5, r=3, padding=1, batch=2, tile_m=2)
    weights, x = random_operands(spec, 10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = layer.winograd_layer_conv(spec, weights, x, SYS8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, layer.direct_conv(spec, weights, x))


def count_folds(monkeypatch):
    """Wrap gemm.reduce_mod_inplace; returns the list of the moduli it folds by."""
    folds = []
    wrapped = gemm.reduce_mod_inplace

    def counted(acc, m, q=None):
        folds.append(m)
        return wrapped(acc, m, q)

    monkeypatch.setattr(gemm, "reduce_mod_inplace", counted)
    return folds


def count_calls(monkeypatch, module, name, calls):
    """Wrap module.name so each call appends name to calls."""
    wrapped = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return wrapped(*args)

    monkeypatch.setattr(module, name, counted)


# a system per reconstruction route at n = 6: the float64 CRT sum over
# unfolded or folded first backward GEMMs (whether kernel.backward_rows_mod
# folds)
ROUTES = (
    (SYS8, "backward_rows_mod fold=False"),
    (SYS16, "backward_rows_mod fold=True"),
)


def test_stage_timings_accumulate(monkeypatch):
    # several blocks on two workers: every stage a block runs is counted, on
    # each route; two blocks make two calls per modulus and two reconstructions
    monkeypatch.setattr(layer, "_BLOCK_BYTES", 1)
    monkeypatch.setenv("RNSW_THREADS", "2")
    calls = []
    rows_mod = kernel.backward_rows_mod

    def rows_counted(t, mt, tmax=None, fold=True):
        calls.append(f"backward_rows_mod fold={fold}")
        return rows_mod(t, mt, tmax, fold)

    monkeypatch.setattr(kernel, "backward_rows_mod", rows_counted)
    count_calls(monkeypatch, layer, "_crt_scatter", calls)
    spec = layer.LayerSpec(h=8, w=8, c=2, k=2, r=3, padding=1, tile_m=4)
    weights, x = random_operands(spec, 8)
    for system, rows in ROUTES:
        calls.clear()
        t = layer.StageTimings()
        got = layer.winograd_layer_conv(spec, weights, x, system, timings=t)
        assert np.array_equal(got, layer.direct_conv(spec, weights, x))
        assert sorted(calls) == sorted([rows] * 2 * len(system) + ["_crt_scatter"] * 2), system
        for stage in ("tiling", "input_transform", "gemm", "backward_transform", "crt", "scatter"):
            assert getattr(t, stage) > 0, (system, stage)
        assert t.total() == pytest.approx(
            t.tiling + t.input_transform + t.gemm + t.backward_transform + t.crt + t.scatter
        )


def test_range_check_refuses_a_system_past_the_crt_bound(monkeypatch):
    # the float64 CRT sum is the one reconstruction: a system past its bound
    # at the layer's n is refused before any work, whatever its M (2**45 and
    # 2**63 + 2**44.3 here), with the output bound well inside both
    spec = layer.LayerSpec(h=12, w=12, c=3, k=2, r=3, padding=1, tile_m=4)
    weights, x = random_operands(spec, 12)
    for system in (SYS8, SYS16, residue.RnsSystem((32749, 32719))):
        got = layer.winograd_layer_conv(spec, weights, x, system)
        assert np.array_equal(got, layer.direct_conv(spec, weights, x))

    def refuse(*args):
        raise AssertionError("_crt_scatter called")

    monkeypatch.setattr(layer, "_crt_scatter", refuse)
    for moduli in ((32749, 32719, 32717), (32749, 32719, 32717, 307, 857)):
        system = residue.RnsSystem(moduli)
        assert not system.crt_fits(6)
        with pytest.raises(DynamicRangeExceeded) as info:
            layer.winograd_layer_conv(spec, weights, x, system)
        assert str(info.value) == (
            f"CRT sum bound {system.crt_bound(6)} exceeds the float64 fold's 2**51 "
            f"(system {moduli} at n=6)"
        )
        with pytest.raises(DynamicRangeExceeded, match="at n=6"):
            layer.range_check(spec, system)


@pytest.mark.parametrize("system", [SYS8, SYS16], ids=["unfolded-rows", "folded-rows"])
@pytest.mark.parametrize("step,chunks", [(1, 14), (4, 4)])
def test_crt_sum_in_row_chunks_matches_direct_conv(monkeypatch, system, step, chunks):
    # one block at F(14x14, 3x3): side 14 output rows of rest = 2 tile rows *
    # 2 tile columns * k.  A step of 4 rows leaves a last chunk of 2; each
    # chunk folds the CRT sum mod M once
    monkeypatch.setenv("RNSW_THREADS", "1")
    spec = layer.LayerSpec(h=20, w=20, c=3, k=2, r=3, padding=1, tile_m=14)
    assert system.crt_fits(16, folded=False) == (system is SYS8)
    monkeypatch.setattr(layer, "_CRT_CHUNK_BYTES", step * 14 * (2 * 2 * spec.k) * 8)
    folds = count_folds(monkeypatch)
    weights, x = random_operands(spec, 14)
    got = layer.winograd_layer_conv(spec, weights, x, system)
    assert folds.count(system.dynamic_range) == chunks
    assert np.array_equal(got, layer.direct_conv(spec, weights, x))


@pytest.mark.parametrize(
    "system,folded",
    # at the deepest n each route admits: (32749, 32719) folded at n = 128
    # and (251, 241, 239) unfolded at n = 84, both within 2**51 by 0.3%
    [(residue.RnsSystem((32749, 32719)), True), (SYS8, False)],
)
def test_crt_sum_exact_at_its_worst_case(system, folded):
    # every weight M_i * a_i at its largest, |a_i| = h_i, and every |t_i| at
    # its bound with signs matching a_i, so each output sums to exactly
    # +-crt_bound; compared with integer arithmetic
    n = max(d for d in range(2, 200) if system.crt_fits(d, folded))
    assert not system.crt_fits(n + 1, folded)
    side = 3
    signs = np.where(np.random.default_rng(n).random(n) < 0.5, -1, 1)
    rows, shares = [], []
    for m in system.moduli:
        h = (m - 1) // 2
        top = h if folded else n * h * h
        shares.append(np.tile(h * signs, (side, 1)))  # (side, n)
        t = np.empty((n, side, 2), np.float32)
        t[:, :, 0] = top * signs[:, None]
        t[:, :, 1] = -top * signs[:, None]
        rows.append(t)
    weights = [c * a.astype(np.float64) for c, a in zip(system.cofactors, shares)]
    out = np.empty((1, side, 1, side, 2), np.int32)
    layer._crt_scatter(rows, weights, system, out, layer.StageTimings())
    big = system.dynamic_range
    for ch, sign in ((0, 1), (1, -1)):
        total = sign * system.crt_bound(n, folded)
        assert total == sum(
            c * int(a[0, j]) * int(t[j, 0, ch])
            for c, a, t in zip(system.cofactors, shares, rows)
            for j in range(n)
        )
        want = (total + big // 2) % big - big // 2
        assert np.all(out[0, :, 0, :, ch] == want), ch


# ---------------------------------------------------------------------------
# lazy folds: a product hands its consumer exact unfolded integers where
# gemm.defer_fold admits them


def spy_backward_rows(monkeypatch):
    """Record (modulus, tmax, t.dtype) of every folding kernel.backward_rows_mod
    call."""
    seen = []
    wrapped = kernel.backward_rows_mod

    def spy(t, mt, tmax=None, fold=True):
        if fold:
            seen.append((mt.modulus, tmax, t.dtype))
        return wrapped(t, mt, tmax, fold)

    monkeypatch.setattr(kernel, "backward_rows_mod", spy)
    return seen


# At F(14x14, 3x3) the position GEMM's products, at most c * h**2, stay
# unfolded while backward_rows_mod's bound on them, 16 * c * h**3, is within
# 2**51; they are stored in the float dtype given per modulus (None: folded).
POSITION_EDGES = [
    # within 2**51 by 0.18% and 0.46%
    ((32749, 32719), 32, (np.float64, np.float64)),
    # past it by 2.9% and 2.7%
    ((32749, 32719), 33, (None, None)),
    # within by 0.05%, past by 0.06%
    ((32429, 32441), 33, (np.float64, None)),
    # c * h**2 against 2**24 picks the dtype: 12,000,000 and 14,061,675
    ((4001, 4331), 3, (np.float32, np.float32)),
    # 16,000,000 and 18,748,900
    ((4001, 4331), 4, (np.float32, np.float64)),
]


@pytest.mark.parametrize("moduli,c,stored", POSITION_EDGES)
def test_position_gemm_fold_waits_up_to_its_edge(monkeypatch, moduli, c, stored):
    seen = spy_backward_rows(monkeypatch)
    spec = layer.LayerSpec(h=20, w=20, c=c, k=2, r=3, padding=1, tile_m=14)
    weights, x = random_operands(spec, c)
    got = layer.winograd_layer_conv(spec, weights, x, residue.RnsSystem(moduli))
    assert np.array_equal(got, layer.direct_conv(spec, weights, x))
    assert sorted({m for m, _, _ in seen}) == sorted(moduli)
    for m, tmax, dtype in seen:
        h = (m - 1) // 2
        want = stored[moduli.index(m)]
        assert (tmax, dtype) == ((None, np.float32) if want is None else (c * h * h, want))


@pytest.mark.parametrize("moduli,c,stored", POSITION_EDGES)
def test_position_gemm_unfolded_at_its_worst_case(monkeypatch, moduli, c, stored):
    # synthetic residues at +-h with signs that line up, through one
    # modulus pass: every position product reaches c * h**2 and every
    # partial sum of backward_rows_mod's GEMM n * c * h**3, the bound the
    # edge is drawn at; compared with integer arithmetic
    n, p, k, side = 16, 2, 2, 3
    seen = spy_backward_rows(monkeypatch)
    for m, want in zip(moduli, stored):
        h = (m - 1) // 2
        rng = np.random.default_rng(m + c)
        sp, sc, sv, su, sa = (np.where(rng.random(s) < 0.5, -1, 1) for s in (n, c, p, k, side))
        v = h * sp[:, None, None, None] * sv[None, None, :, None] * sc
        v = np.broadcast_to(v, (n, n, p, c)).astype(np.float32)
        u = np.broadcast_to(h * np.outer(sc, su), (n, n, c, k)).astype(np.int16)
        at = (h * np.outer(sa, sp)).astype(np.int16)
        mt = transforms.ModularTransformSet(
            m, at, np.zeros((n, 3), np.int16), np.zeros((n, n), np.int16)
        )
        monkeypatch.setattr(kernel, "input_transform_mod", lambda d, mt: v)
        seen.clear()
        d = np.zeros((n, n, p, c), np.int8)
        signs = sa[:, None] * np.outer(sv, su).ravel()
        # unfolded CRT rows need folded products: n * h times their residue
        y = layer._modulus_pass(d, u, mt, False, layer.StageTimings())
        assert seen == []
        top = n * h * residue.mod_reduce(c * h * h, m)
        assert np.array_equal(y.astype(np.int64), np.broadcast_to(top * signs, y.shape))
        y = layer._modulus_pass(d, u, mt, True, layer.StageTimings())
        assert seen == [(m, None, np.float32) if want is None else (m, c * h * h, want)]
        top = residue.mod_reduce(n * c * h**3, m)
        assert np.array_equal(y.astype(np.int64), np.broadcast_to(top * signs, y.shape))


@pytest.mark.parametrize(
    "moduli,per_block",
    [
        ((251, 241, 239), (3, 3, 3)),
        # 16 * h**2 on the input transform's second GEMM against 2**22, the
        # one-pass edge: 1021 within by 0.8% folds it once, 1031 past by
        # 1.2% twice
        ((1021, 1031), (3, 4)),
        ((4001, 4331), (2, 2)),
        ((32749, 32719), (2, 2)),
        # and against gemm.float32_fold_edge: 2039 within by 1.0% folds
        # twice in float32, 2053 past by 0.4% runs it in float64 and leaves
        # the first GEMM unfolded
        ((2039, 2053), (4, 2)),
    ],
)
def test_folds_per_block_by_route(monkeypatch, moduli, per_block):
    # reduce_mod_inplace calls of a two-block layer at F(14x14, 3x3), filters
    # and their CRT weights precomputed: per modulus and block the input
    # transform's two GEMMs, the position GEMM and backward_rows_mod
    # where they run, each GEMM one slice, folded twice where it runs in
    # float32 past 2**22.  Without lazy folds (251, 241, 239) and 1021 take
    # 3, 1031 and 2039 4, and (4001, 4331) and (32749, 32719) 4 per modulus
    # and block
    monkeypatch.setattr(layer, "_BLOCK_BYTES", 1)
    monkeypatch.setattr(gemm, "_SLICE_BYTES", 1 << 30)
    monkeypatch.setenv("RNSW_THREADS", "1")
    system = residue.RnsSystem(moduli)
    spec = layer.LayerSpec(h=20, w=20, c=3, k=2, r=3, padding=1, tile_m=14)
    weights, x = random_operands(spec, 20)
    mts = transforms.cached_modular_transforms(14, 3, moduli)
    filters = layer.precompute_filter_transforms(weights, mts)
    folds = count_folds(monkeypatch)
    got = layer.winograd_layer_conv(spec, weights, x, system, filters=filters)
    assert np.array_equal(got, layer.direct_conv(spec, weights, x))
    # and the CRT sum folds mod M once per row chunk, one chunk per block
    want = {m: 2 * f for m, f in zip(moduli, per_block)} | {system.dynamic_range: 2}
    assert {m: folds.count(m) for m in set(folds)} == want


@pytest.mark.parametrize(
    "system,c_fit",
    # all -128 at F(14x14, 3x3): 9 * c * 128**2 against the signed bound,
    # (4001, 4331): 8,552,448 <= 8,664,165; (251, 241, 239): 7,225,344 <= 7,228,674
    [(SYS16, 58), (SYS8, 49)],
)
def test_fused_route_at_the_dynamic_range_edge(system, c_fit):
    def minimum_layer(c):
        spec = layer.LayerSpec(h=20, w=20, c=c, k=2, r=3, padding=1, tile_m=14)
        full = np.full(spec.weight_shape(), -128, np.int8)
        return spec, full, np.full(spec.input_shape(), -128, np.int8)

    assert system.crt_fits(16)
    spec, weights, x = minimum_layer(c_fit)
    got = layer.winograd_layer_conv(spec, weights, x, system)
    assert int(got.max()) == 9 * c_fit * 128**2 <= system.signed_bound
    assert np.array_equal(got, layer.direct_conv(spec, weights, x))
    spec, weights, x = minimum_layer(c_fit + 1)
    with pytest.raises(DynamicRangeExceeded):
        layer.winograd_layer_conv(spec, weights, x, system)


# ---------------------------------------------------------------------------
# range checking and operation counts


def test_range_check_static_bound():
    spec = layer.LayerSpec(h=8, w=8, c=64, k=4, r=3, padding=1, tile_m=4)
    with pytest.raises(DynamicRangeExceeded) as info:  # 9.4M > 7.2M signed bound
        layer.range_check(spec, SYS8)
    assert str(info.value) == (
        "worst case 9437184 exceeds 7228674 (static bound 9437184, "
        "declared None, signed bound 7228674)"
    )
    assert layer.range_check(spec, SYS8, declared_bound=300_000) == 300_000
    small = layer.LayerSpec(h=8, w=8, c=49, k=4, r=3, padding=1, tile_m=4)
    assert layer.range_check(small, SYS8) == 3 * 3 * 49 * 128 * 128  # 7.23M just inside
    # the signed bound itself is trusted, one past it is not
    assert layer.range_check(spec, SYS8, declared_bound=SYS8.signed_bound) == 7228674
    with pytest.raises(DynamicRangeExceeded, match="worst case 7228675 exceeds 7228674"):
        layer.range_check(spec, SYS8, declared_bound=SYS8.signed_bound + 1)


def test_range_check_rejects_bound_below_one():
    # a declared bound below 1 holds for no output: it must not "fit"
    spec = layer.LayerSpec(h=8, w=8, c=2, k=1, r=3, tile_m=4)
    assert layer.range_check(spec, SYS8, declared_bound=1) == 1
    for bound in (0, -5):
        with pytest.raises(DynamicRangeExceeded, match=f"worst case {bound} is below 1"):
            layer.range_check(spec, SYS8, declared_bound=bound)
    weights = np.full(spec.weight_shape(), 127, np.int8)
    x = np.full(spec.input_shape(), 127, np.int8)
    with pytest.raises(DynamicRangeExceeded, match="declared -5"):
        layer.winograd_layer_conv(spec, weights, x, SYS8, declared_bound=-5)


def test_range_check_counts_int8_minimum():
    # int8 holds -128, so the static bound is 9 * c * 128**2; at 127**2 the
    # c=54 layer below passed the check and wrapped to -7,722,617
    def minimum_layer(c):
        spec = layer.LayerSpec(h=6, w=6, c=c, k=2, r=3, tile_m=4)
        full = np.full(spec.weight_shape(), -128, np.int8)
        return spec, full, np.full(spec.input_shape(), -128, np.int8)

    spec, weights, x = minimum_layer(54)
    with pytest.raises(DynamicRangeExceeded):
        layer.winograd_layer_conv(spec, weights, x, residue.RnsSystem((253, 251, 247)))

    spec, weights, x = minimum_layer(49)  # 7,225,344 <= 7,228,674
    got = layer.winograd_layer_conv(spec, weights, x, SYS8)
    assert np.all(got == 9 * 49 * 128 * 128)
    assert np.array_equal(got, layer.direct_conv(spec, weights, x))

    spec, weights, x = minimum_layer(50)
    with pytest.raises(DynamicRangeExceeded):
        layer.winograd_layer_conv(spec, weights, x, SYS8)


def test_output_bound_past_int32_raises():
    # the output is int32: a bound beyond it must raise, not wrap (c=15000
    # at -128 returned -2,083,127,296 for 2,211,840,000); (1601, 1619, 1663)
    # has signed bound 2,155,263,798, just past INT32_MAX
    system = residue.RnsSystem((1601, 1619, 1663))

    def minimum_layer(c):
        spec = layer.LayerSpec(h=4, w=4, c=c, k=1, r=3, tile_m=2)
        full = np.full(spec.weight_shape(), -128, np.int8)
        return spec, full, np.full(spec.input_shape(), -128, np.int8)

    spec, weights, x = minimum_layer(14563)  # 2,147,450,880 <= INT32_MAX
    assert layer.range_check(spec, system) == 9 * 14563 * 128 * 128
    got = layer.winograd_layer_conv(spec, weights, x, system)
    assert np.all(got == 9 * 14563 * 128 * 128)
    assert np.array_equal(got, layer.direct_conv(spec, weights, x))

    # inside the signed bound, past the int32 output: range_check refuses it
    spec, weights, x = minimum_layer(14564)
    assert 9 * 14564 * 128**2 <= system.signed_bound
    with pytest.raises(DynamicRangeExceeded, match="exceeds the int32 maximum 2147483647"):
        layer.winograd_layer_conv(spec, weights, x, system)
    with pytest.raises(OverflowRisk):
        layer.direct_conv(spec, weights, x)
    small = layer.LayerSpec(h=4, w=4, c=1, k=1, r=3, tile_m=2)
    w1, x1 = random_operands(small, 11)
    assert layer.range_check(small, system, declared_bound=gemm.INT32_MAX) == gemm.INT32_MAX
    with pytest.raises(DynamicRangeExceeded, match="worst case 2147483648 exceeds"):
        layer.winograd_layer_conv(small, w1, x1, system, declared_bound=gemm.INT32_MAX + 1)


def test_count_operations_against_tiling():
    spec = layer.LayerSpec(h=224, w=224, c=3, k=64, r=3, padding=1, tile_m=14)
    counts = layer.count_operations(spec, SYS8)
    patches = layer.tile_decompose(np.zeros(spec.input_shape(), np.int8), 14, 3, 1)
    b, th, tw = patches.shape[:3]
    assert counts.tiles == b * th * tw
    assert counts.tiles == 256
    assert counts.direct_mults == 224 * 224 * 64 * 3 * 9
    assert counts.winograd_mults == 256 * 16 * 16 * 3 * 64 * 3


def test_count_operations_exact_fit_matches_per_tile_ratio():
    # when the output divides evenly into tiles, the layer-level ratio is
    # exactly the per-tile arithmetic reduction
    spec = layer.LayerSpec(h=28, w=28, c=16, k=8, r=3, padding=1, tile_m=14)
    counts = layer.count_operations(spec, SYS8)
    assert counts.reduction_ratio == transforms.arithmetic_reduction(14, 3, 3)
    spec16 = layer.LayerSpec(h=24, w=24, c=4, k=4, r=5, padding=2, tile_m=12)
    counts16 = layer.count_operations(spec16, SYS16)
    assert counts16.reduction_ratio == transforms.arithmetic_reduction(12, 5, 2)


def test_count_operations_defaults_to_f14():
    # a spec built without tile_m counts F(14, 3): one 16 x 16 tile covers
    # the 6 x 6 outputs, on each of the three moduli
    spec = layer.LayerSpec(h=8, w=8, c=1, k=1, r=3)
    counts = layer.count_operations(spec, SYS8)
    assert (counts.tiles, counts.winograd_mults) == (1, 16 * 16 * 3)
    assert layer.count_operations(replace(spec, tile_m=2), SYS8).tiles == 9


# ---------------------------------------------------------------------------
# tensor file format


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    for arr in (
        rng.integers(-128, 128, (2, 3, 4, 5)).astype(np.int8),
        rng.integers(-(2**31), 2**31, (7,)).astype(np.int32),
        np.int8(3) * np.ones((1, 1), np.int8),
    ):
        p = tmp_path / "t.qtns"
        layer.write_tensor(p, arr)
        back = layer.read_tensor(p)
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)


def test_tensor_file_layout_is_frozen(tmp_path):
    p = tmp_path / "t.qtns"
    layer.write_tensor(p, np.arange(6, dtype=np.int8).reshape(2, 3))
    raw = p.read_bytes()
    assert raw == (
        b"QTNS"
        + bytes([1, 2])
        + (2).to_bytes(4, "little")
        + (3).to_bytes(4, "little")
        + bytes([8])
        + bytes([0, 1, 2, 3, 4, 5])
    )


def test_tensor_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.qtns"
    p.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(ValueError):
        layer.read_tensor(p)
    good = tmp_path / "good.qtns"
    layer.write_tensor(good, np.zeros((2, 2), np.int8))
    raw = bytearray(good.read_bytes())
    raw[4] = 9  # unsupported version
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        layer.read_tensor(p)
    p.write_bytes(good.read_bytes()[:-1])  # truncated payload
    with pytest.raises(ValueError):
        layer.read_tensor(p)
    for raw in (
        b"QTNS\x01",  # no rank byte
        b"QTNS\x01\x04\x01\x00",  # rank 4, one and a half dims
        b"QTNS\x01\x04" + (2).to_bytes(4, "little") * 4,  # no width byte
    ):
        p.write_bytes(raw)
        with pytest.raises(ValueError, match="bad.qtns: header truncated"):
            layer.read_tensor(p)
    with pytest.raises(ShapeMismatch):
        layer.write_tensor(p, np.zeros((2, 2), np.float32))


def qtns_bytes(dims, payload: int) -> bytes:
    """A QTNS int8 file with the given (possibly negative) dims."""
    head = b"QTNS" + bytes([1, len(dims)])
    head += b"".join(int(d).to_bytes(4, "little", signed=True) for d in dims)
    return head + bytes([8]) + bytes(payload)


# (dims, payload bytes, the negative dimension the error must name); these
# were refused as a payload mismatch or failed inside numpy's reshape
NEGATIVE_DIMS = (
    ((-1, -2, -3, 1), 6, "-1 on axis 0"),
    ((-2, -1), 2, "-2 on axis 0"),
    ((0, -5), 0, "-5 on axis 1"),
)


def test_tensor_rejects_negative_dimensions(tmp_path):
    p = tmp_path / "neg.qtns"
    for dims, payload, named in NEGATIVE_DIMS:
        p.write_bytes(qtns_bytes(dims, payload))
        with pytest.raises(ValueError, match=f"neg.qtns: negative dimension {named}"):
            layer.read_tensor(p)
    p.write_bytes(qtns_bytes((0, 5), 0))  # an empty tensor is still fine
    assert layer.read_tensor(p).shape == (0, 5)

