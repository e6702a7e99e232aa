"""Exact integer GEMM on floating-point BLAS, and the symmetric reduction.

A dot product of depth d over integers bounded by amax and bmax has every
partial sum within its bound d * amax * bmax, so float BLAS computes it
exactly wherever the mantissa holds that bound.  The package's one modular
product, exact_matmul, picks its float by one rule, folded or not: float32
while the bound is at most float32_fold_edge(m), where its fold runs twice
past 2**22, float64 up to 2**51 (FLOAT64_FOLD), where it runs once, and
OverflowRisk beyond.  The fold is lazy: a product whose consumer is itself
a modular product may hand it the exact unfolded integers instead, where
defer_fold admits them, and the consumer's own fold reduces both.  The one
int32 product, int32_matmul, runs in float32 pieces of its contraction
only (the Ozaki split), each within 2**24.  One slice rule (slice_rows)
bounds every streaming loop's float copies, a modular product's slices
along its leading axis as much as the layer's direct and CRT chunks: at
most max(1 MB, twice the float bytes converted once for the whole loop).
"""

from __future__ import annotations

import numpy as np

from .errors import OverflowRisk, ShapeMismatch

INT32_MAX = 2**31 - 1
INT8_ABS_PEAK = 128
FLOAT32_EXACT = 2**24
# Largest |x| that one pass x - m*rint(x * (1/m)) centres: the quotient's
# rounding error stays below 1/(2m) and m*rint(...) is exact.
FLOAT32_FOLD = 2**22
FLOAT64_FOLD = 2**51

# Least bytes of the float copies per slice of any streaming loop (slice_rows):
# a loop whose operands converted once take more gets twice their float bytes.
_SLICE_BYTES = 1 << 20


def dtype_for_modulus(m: int) -> np.dtype:
    """Narrowest signed dtype holding the symmetric residue range of m."""
    return np.dtype(np.int8) if m < 256 else np.dtype(np.int16)


def float32_fold_edge(m: int) -> int:
    """Largest bound of a product mod m that runs and folds in float32: a
    first pass's m * rint(x * (1/m)), within 1.5m of x, stays within 2**24,
    so it leaves exact integers of at most 1.5m, and a second centres them."""
    return FLOAT32_EXACT - (3 * m + 1) // 2


def defer_fold(depth: int, h: int, bound: int) -> bool:
    """Whether a residue product bounded by bound may skip its fold mod m.

    Its consumer is a modular product of that depth against residues mod m,
    |left| <= h = (m - 1) / 2, on this product's output.  The fold may wait
    when the consumer runs in float64 even on a folded operand (depth * h * h
    past float32_fold_edge(m)), so skipping never promotes a float32 stage,
    and the consumer's bound on the unfolded one, depth * h * bound, stays
    within FLOAT64_FOLD, where the consumer's own one-pass fold is exact.
    """
    return depth * h * h > float32_fold_edge(2 * h + 1) and depth * h * bound <= FLOAT64_FOLD


def slice_rows(row: int, once: int, itemsize: int) -> int:
    """Leading indices per slice of a loop whose float copies take row
    elements of itemsize bytes per index, beside once elements converted once
    for the whole loop: as many as max(_SLICE_BYTES, twice the bytes
    converted once) holds, and at least one.  BLAS packs the operand
    converted once again for every slice, so a large one gets slices that use
    it over many rows."""
    return max(1, max(_SLICE_BYTES, 2 * once * itemsize) // (row * itemsize))


def int32_piece(depth: int, amax: int, bmax: int) -> int:
    """Contraction terms per float32 piece of an int32 product of this depth
    over integers bounded by amax and bmax (int32_matmul), so that each
    piece's partial sums stay within 2**24.  OverflowRisk where one term
    passes 2**24 or the product can overflow int32."""
    if amax * bmax > FLOAT32_EXACT:
        raise OverflowRisk(f"one term of {amax}*{bmax} exceeds the float32 mantissa (2**24)")
    if depth * amax * bmax > INT32_MAX:
        raise OverflowRisk(
            f"dot length {depth} with operand bounds {amax}*{bmax} can overflow int32"
        )
    return FLOAT32_EXACT // max(amax * bmax, 1)


def int32_matmul(x: np.ndarray, y: np.ndarray, amax: int, bmax: int, out: np.ndarray) -> None:
    """out[...] = x @ y, exactly, for float32 operands holding integers
    bounded by amax and bmax: in pieces of int32_piece contraction terms,
    each exact in float32, summed in the int32 out.  Refuses, before any
    work, what int32_piece refuses.  The package's one int32 product."""
    depth = x.shape[-1]
    piece = int32_piece(depth, amax, bmax)
    np.copyto(out, np.matmul(x[..., :piece], y[..., :piece, :]), casting="unsafe")
    for j in range(piece, depth, piece):
        out += np.matmul(x[..., j : j + piece], y[..., j : j + piece, :]).astype(np.int32)


def _product_shape(a: np.ndarray, b: np.ndarray) -> tuple[int, ...]:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch(f"need at least 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"inner dimensions differ: {a.shape} @ {b.shape}")
    try:
        stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeMismatch(f"stack dimensions differ: {a.shape} @ {b.shape}") from None
    return stack + (a.shape[-2], b.shape[-1])


def exact_matmul(
    a: np.ndarray, b: np.ndarray, amax: int, bmax: int, m: int, fold: bool = True
) -> np.ndarray:
    """a @ b of integer or float residue arrays, folded mod m: exact on float BLAS.

    amax and bmax bound |a| and |b| and are trusted (int8 data counts as
    128); an operand may be a float result of an earlier modular product.
    The bound depth * amax * bmax picks the float, folded or not: float32 up
    to float32_fold_edge(m), float64 up to FLOAT64_FOLD (2**51), where one
    pass centres it, and OverflowRisk, before any work, beyond.  The
    symmetric residues are returned as float32, which holds them exactly for
    any m up to 2**24 (float64 beyond).  fold=False (where defer_fold admits
    it) only skips the fold: the exact integers are returned in the float
    they were computed in.  Operands broadcast like matmul; the result is
    computed and folded in slices along its leading axis, converting an
    operand that does not run along it only once.  A slice's float copies
    (its part of the output and of an operand that runs along that axis)
    take at most max(_SLICE_BYTES, twice the float bytes of the operands
    converted once), and at least one leading index (slice_rows).
    """
    shape = _product_shape(a, b)
    if a.dtype.kind not in "iuf" or b.dtype.kind not in "iuf":
        raise ShapeMismatch(f"operands must be integer or float arrays, got {a.dtype}, {b.dtype}")
    depth = a.shape[-1]
    bound = depth * amax * bmax
    if bound > FLOAT64_FOLD:
        raise OverflowRisk(
            f"dot length {depth} with operand bounds {amax}*{bmax} exceeds the "
            f"one-pass float64 fold (2**51)"
        )
    ft = np.dtype(np.float32 if bound <= float32_fold_edge(m) else np.float64)
    out_dtype = np.float32 if fold and m <= FLOAT32_EXACT else ft
    out = np.empty(shape, dtype=out_dtype)
    if out.size == 0:
        return out
    split_a = a.ndim == out.ndim and a.shape[0] == out.shape[0]
    split_b = b.ndim == out.ndim > 2 and b.shape[0] == out.shape[0]
    af = a if split_a else a.astype(ft, copy=False)
    bf = b if split_b else b.astype(ft, copy=False)
    row = out[0].size + (a[0].size if split_a else 0) + (b[0].size if split_b else 0)
    once = (0 if split_a else a.size) + (0 if split_b else b.size)
    step = slice_rows(row, once, ft.itemsize)
    for i in range(0, out.shape[0], step):
        s = slice(i, i + step)
        x = af[s].astype(ft, copy=False) if split_a else af
        y = bf[s].astype(ft, copy=False) if split_b else bf
        prod = np.matmul(x, y, out=out[s] if ft == out.dtype else None)
        if not fold:
            continue
        if ft == np.float32 and bound > FLOAT32_FOLD:
            reduce_mod_inplace(prod, m)  # leaves |x| at most 1.5m
        reduce_mod_inplace(prod, m)
        if ft != out.dtype:
            out[s] = prod
    return out


def reduce_mod_inplace(acc: np.ndarray, m: int, q: np.ndarray | None = None) -> np.ndarray:
    """Fold a float array into the symmetric residue range of m, in place.

    It holds integers with |x| at most FLOAT32_FOLD (float32) or
    FLOAT64_FOLD (float64); one pass x -= m * rint(x * (1/m)) centres them,
    two in float32 up to float32_fold_edge(m).  The package's one fold; q,
    like numpy's out=, takes the quotient.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {m}")
    q = np.multiply(acc, acc.dtype.type(1) / m, out=q)
    np.rint(q, out=q)
    q *= m
    acc -= q
    return acc
