"""Whole-layer convolution: tiling, amortized transforms, per-residue GEMM.

Data layout is NHWC for activations and (r, r, c_in, c_out) for weights, both
int8.  The fast path decomposes the padded input into overlapping n x n
patches at stride m and keeps the transform-domain axes leading throughout:
patches go to (n, n, tiles, c_in) once, as raw int8 shared by all moduli;
per modulus they are transformed, multiplied by the (n, n, c_in, c_out)
filters in one (tiles x c_in) @ (c_in x c_out) GEMM per position, and
taken through the backward transform's first GEMM, the residues staying in
float, the type BLAS computes in, from stage to stage.  The transforms fold
every GEMM mod m; two folds wait where the next product's bound admits it
(gemm.defer_fold): the position GEMM's, where the backward rows fold in
float64 even on residues (15-bit moduli), and the rows', where the CRT sum
admits unfolded rows (RnsSystem.crt_fits; 8-bit moduli).  One reconstruction
follows, the Chinese Remainder Theorem (CRT) with cofactor weights: the
second GEMM of modulus m_i runs on a_i = (M_i^-1 mod m_i) * A_i^T mod m_i,
and sum_i M_i * (a_i @ t_i), folded mod the dynamic range M, gives the
int32 outputs, which reach NHWC by reshape, transpose and crop.  That sum
runs in float64 on the weights M_i * a_i (_crt_scatter).  range_check
refuses a system whose sum is past the float64 bound at the layer's n; no
int32 output needs one that wide.  The work runs in blocks of tile rows,
each block taken through every modulus, reconstruction and scatter by one
worker of the package's one persistent pool, which direct_conv's row parts
share; during a layer call OpenBLAS runs one thread, so the pool alone
spreads the work over the cores.  Every matrix product is exact on float
BLAS (gemm.exact_matmul, or the CRT bound for the float64 sum).  Outputs
are bit-identical to direct_conv whenever the layer passes range_check.
"""

from __future__ import annotations

import ctypes
import functools
import os
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import ContextDecorator
from dataclasses import astuple, dataclass, field, fields
from fractions import Fraction
from math import ceil, prod
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import gemm, kernel, residue, transforms
from .errors import DynamicRangeExceeded, ShapeMismatch


# Outputs per tile side when a layer names none: F(14, 3) runs 16 x 16 tiles.
DEFAULT_TILE_M = 14


@dataclass(frozen=True)
class LayerSpec:
    """Geometry of one convolution layer (square images, square filters),
    tiled for the fast path at tile_m outputs a side (DEFAULT_TILE_M)."""

    h: int
    w: int
    c: int
    k: int
    r: int
    batch: int = 1
    padding: int = 0
    stride: int = 1
    tile_m: int = DEFAULT_TILE_M

    def __post_init__(self):
        for name in ("h", "w", "c", "k", "r", "batch", "stride", "tile_m"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if not isinstance(self.padding, int) or self.padding < 0:
            raise ValueError(f"padding must be a non-negative integer, got {self.padding!r}")
        if self.h + 2 * self.padding < self.r or self.w + 2 * self.padding < self.r:
            raise ValueError("padded input smaller than the filter")
        if self.n < 2:
            raise ValueError(f"tile_m + r - 1 must be at least 2, got {self.n}")

    @property
    def n(self) -> int:
        """The transform size: a tile's input patch is n x n, n >= 2."""
        return self.tile_m + self.r - 1

    @property
    def out_h(self) -> int:
        return (self.h + 2 * self.padding - self.r) // self.stride + 1

    @property
    def out_w(self) -> int:
        return (self.w + 2 * self.padding - self.r) // self.stride + 1

    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.r, self.r, self.c, self.k)

    def input_shape(self) -> tuple[int, int, int, int]:
        return (self.batch, self.h, self.w, self.c)


def _check_operands(spec: LayerSpec, weights: np.ndarray, x: np.ndarray) -> None:
    if weights.shape != spec.weight_shape():
        raise ShapeMismatch(f"weights {weights.shape} do not match {spec.weight_shape()}")
    if x.shape != spec.input_shape():
        raise ShapeMismatch(f"input {x.shape} does not match {spec.input_shape()}")
    if weights.dtype != np.int8 or x.dtype != np.int8:
        raise ShapeMismatch(f"operands must be int8, got {weights.dtype} and {x.dtype}")


def im2col(x: np.ndarray, r: int, stride: int, padding: int) -> np.ndarray:
    """Unfold NHWC input into rows of flattened r x r x c receptive fields."""
    c = x.shape[3]
    if padding:  # np.pad copies even when it adds nothing
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(x, (r, r), axis=(1, 2))
    win = win[:, ::stride, ::stride]
    bo, ho, wo = win.shape[:3]
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(
        bo * ho * wo, r * r * c
    )


def _worker_count() -> int:
    """The package's thread cap: RNSW_THREADS, or the usable cores; at least 1."""
    try:
        cap = int(os.environ.get("RNSW_THREADS", ""))
    except ValueError:
        if hasattr(os, "sched_getaffinity"):
            cap = len(os.sched_getaffinity(0))
        else:
            cap = os.cpu_count() or 1
    return max(cap, 1)


@functools.lru_cache(maxsize=1)
def _pool(workers: int, pid: int) -> ThreadPoolExecutor:
    """The package's one pool, of the cap's workers, in process pid; a changed
    cap, or a forked child, which has none of the parent's threads, replaces it."""
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="rnswinograd")


def _run(task: Callable, items: Sequence) -> list:
    """[task(i) for i in items] on the package's pool, or inline where the cap is
    1 or there is one item; no task calls _run, so the pool cannot deadlock."""
    workers = _worker_count()
    if workers == 1 or len(items) < 2:
        return [task(i) for i in items]
    pool = _pool(workers, os.getpid())
    futures = [pool.submit(task, i) for i in items]
    wait(futures)  # no task outlives the call, even where one raises
    return [f.result() for f in futures]


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The get and set of the thread count of the OpenBLAS bundled with
    numpy's wheel (numpy.libs, or .dylibs on macOS); None where none is found."""
    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", "_64", ""):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


class _OneBlasThread(ContextDecorator):
    """Holds OpenBLAS at one thread while any layer call is in flight.

    The layer's work runs on the package's pool, and OpenBLAS's own helper
    threads would compete with it for the cores, polling for a while after
    every threaded call.  Its thread count is one setting for the whole
    process, so one count of the calls in flight guards it: the first call in
    saves the setting and sets one thread, the last one out restores it.  BLAS
    calls other threads make meanwhile run on one thread too.  A forked child
    restores what its parent's calls in flight saved, then counts afresh.
    Where no OpenBLAS is found (_openblas) it does nothing.
    """

    def __init__(self):
        self._locks = {}  # by pid: a fork copies a lock held by another thread
        self._pid = os.getpid()
        self._calls = 0
        self._saved = 1

    def __enter__(self):
        blas = _openblas()
        if blas is not None:
            pid = os.getpid()
            with self._locks.setdefault(pid, threading.Lock()):
                if self._pid != pid:
                    if self._calls:
                        blas[1](self._saved)
                    self._pid, self._calls = pid, 0
                if self._calls == 0:
                    self._saved = blas[0]()
                    blas[1](1)
                self._calls += 1
        return self

    def __exit__(self, *exc):
        blas = _openblas()
        if blas is not None:
            with self._locks[os.getpid()]:
                self._calls -= 1
                if self._calls == 0:
                    blas[1](self._saved)


_one_blas_thread = _OneBlasThread()


@_one_blas_thread
def direct_conv(spec: LayerSpec, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reference convolution: im2col plus exact GEMMs.

    Exact by construction (exact_matmul bounds the full r*r*c dot length
    with int8 operands at 128), used as the oracle the fast path is compared
    against; it runs on the same GEMM engine as the fast path.  The im2col
    rows are cut into a contiguous part per worker of the cap (at most one per
    row); the package's pool runs each part's exact_matmul into one int32
    output, with OpenBLAS at one thread (_OneBlasThread), as the fast path.
    """
    _check_operands(spec, weights, x)
    cols = im2col(x, spec.r, spec.stride, spec.padding)
    wmat = weights.reshape(-1, spec.k)
    out = np.empty((len(cols), spec.k), dtype=np.int32)
    parts = min(_worker_count(), len(cols))
    cuts = [len(cols) * i // parts for i in range(parts + 1)]

    def part(i: int) -> None:
        s = slice(cuts[i], cuts[i + 1])
        out[s] = gemm.exact_matmul(cols[s], wmat, gemm.INT8_ABS_PEAK, gemm.INT8_ABS_PEAK)

    _run(part, range(parts))
    return out.reshape(spec.batch, spec.out_h, spec.out_w, spec.k)


def tile_decompose(x: np.ndarray, tile_m: int, r: int, padding: int) -> np.ndarray:
    """Cut padded NHWC input into overlapping n x n patches at stride tile_m.

    n = tile_m + r - 1; neighbouring patches overlap by r - 1 so every
    sliding window falls inside exactly one patch.  The canvas is zero padded
    on the right/bottom so the last row and column of patches is full sized.
    Returns (b, th, tw, n, n, c): patch (i, j) is the canvas window at
    (i * tile_m, j * tile_m), and its m x m outputs land at the same offset
    of the output plane, cropped to out_h x out_w.
    """
    for name, v, least in (("tile_m", tile_m, 1), ("r", r, 1), ("padding", padding, 0)):
        if v < least:
            raise ValueError(f"{name} must be at least {least}, got {v!r}")
    b, h, w, c = x.shape
    n = tile_m + r - 1
    out_h = h + 2 * padding - r + 1
    out_w = w + 2 * padding - r + 1
    if out_h < 1 or out_w < 1:
        raise ShapeMismatch("padded input smaller than the filter")
    th = ceil(out_h / tile_m)
    tw = ceil(out_w / tile_m)
    canvas = np.zeros(
        (b, (th - 1) * tile_m + n, (tw - 1) * tile_m + n, c), dtype=x.dtype
    )
    canvas[:, padding : padding + h, padding : padding + w] = x
    return im2col(canvas, n, tile_m, 0).reshape(b, th, tw, n, n, c)


@dataclass(frozen=True, eq=False)
class PreparedFilters:
    """Filters transformed once for every call with the weights, n and moduli
    they were prepared for.  From (r, r, c, k) int8 weights and one transform set
    per modulus, all of one size n, it derives, read-only: a weight copy, the
    RnsSystem, per modulus (n, n, c, k) residues and CRT weights.  Weights that are
    not int8, transforms of different sizes, or an empty or non-coprime list of
    moduli raise when it is built."""

    weights: np.ndarray
    transforms: tuple[transforms.ModularTransformSet, ...]
    system: residue.RnsSystem = field(init=False)
    residues: tuple[np.ndarray, ...] = field(init=False)
    crt_weights: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self):
        weights, mts = np.array(self.weights), tuple(self.transforms)
        system = residue.RnsSystem([mt.modulus for mt in mts])
        if len({mt.n for mt in mts}) > 1:
            raise ShapeMismatch(f"transforms of sizes {[mt.n for mt in mts]} in one set")
        residues = tuple(
            kernel.filter_transform_mod(weights, mt).astype(gemm.dtype_for_modulus(mt.modulus))
            for mt in mts
        )
        # M_i * a_i, a_i folded in float64: |inv_i * A_i| <= h_i**2 < 2**28
        crt_weights = tuple(
            c * gemm.reduce_mod_inplace(inv * mt.at.astype(np.float64), mt.modulus)
            for c, inv, mt in zip(system.cofactors, system.inverses, mts)
        )
        for arr in (weights, *residues, *crt_weights):
            arr.flags.writeable = False
        self.__dict__.update(weights=weights, transforms=mts, system=system,
                             residues=residues, crt_weights=crt_weights)


def range_check(
    spec: LayerSpec, system: residue.RnsSystem, declared_bound: int | None = None
) -> int:
    """The bound a layer's outputs are trusted up to; the one refusal of it.

    The static bound assumes every product reaches 128 * 128, as int8 holds
    -128; callers that know their data (quantized networks in particular
    stay orders of magnitude below worst case) may declare a tighter bound,
    which is then trusted in its place.  A trusted bound below 1 (it holds
    for no output) or above the signed bound or gemm.INT32_MAX (the output
    dtype) raises DynamicRangeExceeded, naming the limit it broke and the
    static, declared and signed bounds.  So does a system whose CRT sum at
    the layer's transform size n = tile_m + r - 1 is past the float64 fold
    (RnsSystem.crt_fits), naming the system, n and that sum's bound; one
    within it, (1601, 1619, 1663) say, already covers every int32 output.
    """
    static = spec.r * spec.r * spec.c * gemm.INT8_ABS_PEAK**2
    bound = static if declared_bound is None else declared_bound
    limit = min(system.signed_bound, gemm.INT32_MAX)
    if not 1 <= bound <= limit:
        named = "the int32 maximum " if limit == gemm.INT32_MAX else ""
        broke = "is below 1" if bound < 1 else f"exceeds {named}{limit}"
        raise DynamicRangeExceeded(
            f"worst case {bound} {broke} (static bound {static}, "
            f"declared {declared_bound}, signed bound {system.signed_bound})"
        )
    if not system.crt_fits(spec.n):
        raise DynamicRangeExceeded(
            f"CRT sum bound {system.crt_bound(spec.n)} exceeds the float64 fold's "
            f"2**{gemm.FLOAT64_FOLD.bit_length() - 1} (system {system.moduli} at n={spec.n})"
        )
    return bound


@dataclass
class StageTimings:
    """Seconds in each of the six stages of a fast pass, summed over workers."""

    tiling: float = 0.0
    input_transform: float = 0.0
    gemm: float = 0.0
    backward_transform: float = 0.0
    crt: float = 0.0
    scatter: float = 0.0

    def total(self) -> float:
        return sum(astuple(self))

    def add(self, other: "StageTimings") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


# Bytes of a tile block's widest intermediate at 8 bytes per element; each
# worker holds a few arrays of about that size at once.
_BLOCK_BYTES = 1 << 21


def _modulus_pass(
    d: np.ndarray,
    u: np.ndarray,
    mt: transforms.ModularTransformSet,
    fold_rows: bool,
    t: StageTimings,
) -> np.ndarray:
    """Input transform, per-position GEMM and backward rows, one modulus.

    d: (n, n, tiles, c) raw int8 patches, u: (n, n, c, k) filter residues.
    Returns the (n, m, tiles * k) float result of the backward transform's
    first GEMM (kernel.backward_rows_mod), folded where fold_rows says so,
    for the CRT reconstruction; the residues stay in float from the input
    transform on.  Where the rows fold and gemm.defer_fold admits the
    position GEMM's bound c * h**2, that GEMM hands them the exact unfolded
    products.
    """
    n, _, p, c = d.shape
    k = u.shape[3]
    half = (mt.modulus - 1) // 2
    pmax = c * half * half
    lazy = fold_rows and gemm.defer_fold(n, half, pmax)

    t0 = time.perf_counter()
    v = kernel.input_transform_mod(d, mt)
    t1 = time.perf_counter()
    prod = gemm.exact_matmul(
        v.reshape(n * n, p, c), u.reshape(n * n, c, k), half, half, mt.modulus, not lazy
    )
    del v  # each stage's input goes before the next stage allocates
    t2 = time.perf_counter()
    prod = prod.reshape(n, n, p, k)
    y = kernel.backward_rows_mod(prod, mt, pmax if lazy else None, fold_rows)
    t.input_transform += t1 - t0
    t.gemm += t2 - t1
    t.backward_transform += time.perf_counter() - t2
    return y


# Bytes of the float64 sum _crt_scatter holds at once: a few output rows.
_CRT_CHUNK_BYTES = 1 << 18


def _crt_scatter(
    ts: Sequence[np.ndarray],
    weights: Sequence[np.ndarray],
    system: residue.RnsSystem,
    out: np.ndarray,
    t: StageTimings,
) -> None:
    """Finish the backward transforms and rebuild the outputs by the CRT.

    ts: per modulus the (n, m, tiles * k) first backward GEMM t_i, folded or
    not (kernel.backward_rows_mod); weights: per modulus
    M_i * a_i in float64; out: the block's (tile rows, m, tw, m, k) int32
    canvas.  Output row a is sum_i weights[i] @ t_i[:, a], congruent to the
    true output mod every m_i, so one fold mod the dynamic range
    (gemm.reduce_mod_inplace) yields it; every partial sum is an integer
    within RnsSystem.crt_bound, which range_check keeps within that fold's
    reach (gemm.FLOAT64_FOLD).  It runs a few output rows at a time in three
    reused buffers: the sum, its float64 operand and the other terms, which
    then hold the fold's quotient.
    """
    n, side, rest = ts[0].shape
    rows, _, tw, _, k = out.shape
    step = max(1, _CRT_CHUNK_BYTES // (side * rest * 8))
    acc = np.empty((min(step, side), side, rest))
    q = np.empty_like(acc)
    term = np.empty((len(acc), n, rest))
    for a in range(0, side, step):
        t0 = time.perf_counter()
        ya, qa, ta = acc[: side - a], q[: side - a], term[: side - a]
        for i, (w, ti) in enumerate(zip(weights, ts)):
            np.copyto(ta, ti[:, a : a + step].transpose(1, 0, 2))
            if i == 0:
                np.matmul(w, ta, out=ya)
            else:
                np.matmul(w, ta, out=qa)
                ya += qa
        gemm.reduce_mod_inplace(ya, system.dynamic_range, qa)
        t1 = time.perf_counter()
        ya = ya.reshape(len(ya), side, rows, tw, k).transpose(2, 0, 3, 1, 4)
        np.copyto(out[:, a : a + step], ya, casting="unsafe")
        t.crt += t1 - t0
        t.scatter += time.perf_counter() - t1


@_one_blas_thread
def winograd_layer_conv(
    spec: LayerSpec,
    weights: np.ndarray,
    x: np.ndarray,
    system: residue.RnsSystem,
    declared_bound: int | None = None,
    filters: PreparedFilters | None = None,
    timings: StageTimings | None = None,
) -> np.ndarray:
    """Exact integer convolution through the tiled RNS fast path.

    filters, when given, is a PreparedFilters built from these weights at
    this n on this system; passing it amortizes the filter transform and the
    CRT weights across calls that reuse the same weights, exactly as
    repeated inference does.  Any other filters raise ShapeMismatch.

    The tile rows are cut into blocks, and each block goes through every
    modulus, the float64 CRT reconstruction and the scatter into its own
    output rows; the package's pool, up to RNSW_THREADS workers (default:
    the usable cores), takes the blocks, and a layer of one block runs
    inline.  OpenBLAS runs one thread for the whole call (_OneBlasThread).
    The tiling covers unit stride only, so a strided layer runs direct_conv.

    Raises DynamicRangeExceeded when range_check refuses the layer (an
    output bound below 1, past the signed bound or past int32, the output
    dtype, or a system whose CRT sum is past the float64 bound at this n).
    """
    _check_operands(spec, weights, x)
    if spec.stride != 1:
        return direct_conv(spec, weights, x)
    range_check(spec, system, declared_bound)
    tile_m, n = spec.tile_m, spec.n
    if filters is None:
        mts = transforms.cached_modular_transforms(tile_m, spec.r, system.moduli)
        filters = PreparedFilters(weights, mts)
    elif not (
        isinstance(filters, PreparedFilters)
        and filters.system == system and filters.transforms[0].n == n
        and np.array_equal(filters.weights, weights)
    ):
        raise ShapeMismatch(
            f"filters were not prepared from these weights at n={n} on moduli {system.moduli}"
        )
    mts = filters.transforms
    # the rows skip their fold where the CRT sum's bound admits unfolded t_i
    fold_rows = not system.crt_fits(n, folded=False)
    if timings is None:
        timings = StageTimings()

    t0 = time.perf_counter()
    patches = tile_decompose(x, tile_m, spec.r, spec.padding)
    timings.tiling += time.perf_counter() - t0

    b, th, tw, n, _, c = patches.shape
    k = spec.k
    # (n, n, tile rows, tw, c): a view; each block copies its own slice
    d = patches.transpose(3, 4, 0, 1, 2, 5).reshape(n, n, b * th, tw, c)
    canvas = np.empty((b * th, tile_m, tw, tile_m, k), dtype=np.int32)
    step = max(1, _BLOCK_BYTES // (tw * n * n * max(c, k) * 8))

    def block(r0: int) -> StageTimings:
        t = StageTimings()
        t0 = time.perf_counter()
        blk = d[:, :, r0 : r0 + step]
        rows = blk.shape[2]
        blk = blk.reshape(n, n, rows * tw, c)
        t.tiling += time.perf_counter() - t0
        res = [_modulus_pass(blk, u, mt, fold_rows, t) for u, mt in zip(filters.residues, mts)]
        _crt_scatter(res, filters.crt_weights, system, canvas[r0 : r0 + rows], t)
        return t

    for t in _run(block, range(0, b * th, step)):
        timings.add(t)

    t0 = time.perf_counter()
    out = canvas.reshape(b, th * tile_m, tw * tile_m, k)[:, : spec.out_h, : spec.out_w]
    out = np.ascontiguousarray(out)
    timings.scatter += time.perf_counter() - t0
    return out


# perfbench binds these old names until it moves to one entry point
layer_conv = winograd_layer_conv
precompute_filter_transforms = PreparedFilters


@dataclass(frozen=True)
class OperationCounts:
    """Multiplication counts for one layer, direct versus tiled fast path."""

    direct_mults: int
    winograd_mults: int
    tiles: int
    reduction_ratio: Fraction


def count_operations(spec: LayerSpec, system: residue.RnsSystem) -> OperationCounts:
    """Count GEMM multiplications only.

    The fast path spends its multiplications in the transform-domain GEMMs:
    n**2 positions, c * k products each, per tile and per modulus.  The
    transform stages themselves are additions and shifts amortized over c * k
    and are excluded, matching the usual minimal-filtering accounting.
    """
    th = ceil(spec.out_h / spec.tile_m)
    tw = ceil(spec.out_w / spec.tile_m)
    tiles = spec.batch * th * tw
    direct = spec.batch * spec.out_h * spec.out_w * spec.k * spec.c * spec.r * spec.r
    wino = tiles * spec.n**2 * spec.c * spec.k * len(system.moduli)
    return OperationCounts(
        direct_mults=direct,
        winograd_mults=wino,
        tiles=tiles,
        reduction_ratio=Fraction(direct, wino),
    )


QTNS_MAGIC = b"QTNS"
QTNS_VERSION = 1
_QTNS_DTYPES = {8: np.dtype("int8"), 32: np.dtype("<i4")}


def write_tensor(path, arr: np.ndarray) -> None:
    """Serialize an int8 or int32 tensor: magic, version, rank, dims, data.

    Dims and int32 payloads are little endian regardless of host order.
    """
    if arr.dtype == np.int8:
        bits = 8
    elif arr.dtype == np.int32:
        bits = 32
    else:
        raise ShapeMismatch(f"only int8/int32 tensors are serialized, got {arr.dtype}")
    if arr.ndim > 255:
        raise ShapeMismatch("rank too large")
    with open(path, "wb") as f:
        f.write(QTNS_MAGIC)
        f.write(struct.pack("<BB", QTNS_VERSION, arr.ndim))
        for d in arr.shape:
            f.write(struct.pack("<i", d))
        f.write(struct.pack("<B", bits))
        f.write(np.ascontiguousarray(arr, dtype=_QTNS_DTYPES[bits]).tobytes())


def read_tensor(path) -> np.ndarray:
    """Inverse of write_tensor."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != QTNS_MAGIC:
        raise ValueError(f"{path}: not a QTNS tensor file")
    if len(raw) < 6:
        raise ValueError(f"{path}: header truncated at {len(raw)} bytes")
    version, rank = raw[4], raw[5]
    if version != QTNS_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    off = 6 + 4 * rank
    if len(raw) <= off:
        raise ValueError(
            f"{path}: header truncated at {len(raw)} bytes, rank {rank} needs {off + 1}"
        )
    dims = struct.unpack_from(f"<{rank}i", raw, 6)
    for axis, dim in enumerate(dims):
        if dim < 0:
            raise ValueError(f"{path}: negative dimension {dim} on axis {axis}")
    bits = raw[off]
    off += 1
    if bits not in _QTNS_DTYPES:
        raise ValueError(f"{path}: unsupported element width {bits}")
    dt = _QTNS_DTYPES[bits]
    count = prod(dims)
    expected = count * dt.itemsize
    if len(raw) - off != expected:
        raise ValueError(f"{path}: payload is {len(raw) - off} bytes, expected {expected}")
    arr = np.frombuffer(raw, dtype=dt, count=count, offset=off).reshape(dims)
    if bits == 32:
        arr = arr.astype(np.int32)
    return arr.copy() if bits == 8 else arr
