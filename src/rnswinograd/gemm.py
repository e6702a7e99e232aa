"""Exact integer GEMM on floating-point BLAS, and the symmetric reduction.

A dot product of depth d over integers bounded by amax and bmax has every
partial sum within d * amax * bmax, so float BLAS computes it exactly in
float32 when that is at most 2**24 and in float64 up to 2**53; an int32
product past 2**24 runs in float32 pieces of its contraction (the Ozaki
split).  A modular product stays in float, folded by multiply-round passes:
in float32 up to float32_fold_edge(m), twice past 2**22, and in float64
above, once up to 2**51.  The fold is lazy: a product whose consumer is
itself a modular product may hand it the exact unfolded integers instead,
where defer_fold admits them, and the consumer's own fold reduces both.
A product runs in slices along its leading axis whose float copies take at
most max(1 MB, twice the float bytes of the operands converted once)
(exact_matmul).
"""

from __future__ import annotations

import numpy as np

from .errors import OverflowRisk, ShapeMismatch

INT32_MAX = 2**31 - 1
INT8_ABS_PEAK = 128
FLOAT32_EXACT = 2**24
FLOAT64_EXACT = 2**53
# Largest |x| that one pass x - m*rint(x * (1/m)) centres: the quotient's
# rounding error stays below 1/(2m) and m*rint(...) is exact.
FLOAT32_FOLD = 2**22
FLOAT64_FOLD = 2**51

# Bytes of the float copies made per slice of an exact_matmul result, the
# least budget: a product whose operands converted once are larger gets twice
# their float bytes.
_SLICE_BYTES = 1 << 20


def dtype_for_modulus(m: int) -> np.dtype:
    """Narrowest signed dtype holding the symmetric residue range of m."""
    return np.dtype(np.int8) if m < 256 else np.dtype(np.int16)


def exact_float_dtype(depth: int, amax: int, bmax: int) -> np.dtype:
    """Narrowest float in which every partial sum of such a product is exact."""
    bound = depth * amax * bmax
    if bound <= FLOAT32_EXACT:
        return np.dtype(np.float32)
    if bound <= FLOAT64_EXACT:
        return np.dtype(np.float64)
    raise OverflowRisk(
        f"dot length {depth} with operand bounds {amax}*{bmax} exceeds the "
        f"float64 mantissa (2**53)"
    )


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
    a: np.ndarray,
    b: np.ndarray,
    amax: int,
    bmax: int,
    m: int | None = None,
    fold: bool = True,
) -> np.ndarray:
    """a @ b of integer arrays, exactly, through float BLAS.

    amax and bmax bound |a| and |b| and are trusted (int8 data counts as
    128).  Without a modulus the result is int32 and must fit it; past 2**24
    it sums float32 pieces of FLOAT32_EXACT // (amax * bmax) terms where one
    term fits.  With a modulus m it runs in float32 up to float32_fold_edge(m)
    and in float64 above, and the symmetric residues are returned as float32,
    which holds them exactly for any m up to 2**24 (float64 beyond); an
    operand may be such a float result of an earlier modular product.  With
    fold=False (where defer_fold admits it) the residue product is returned
    unfolded: the exact integers, computed and stored in exact_float_dtype.
    OverflowRisk otherwise.  Operands broadcast like matmul; the result is
    computed and folded in slices along its leading axis, converting an
    operand that does not run along it only once.  A slice's float copies
    (its part of the output and of an operand that runs along that axis)
    take at most max(_SLICE_BYTES, twice the float bytes of the operands
    converted once), and at least one leading index: BLAS packs the operand
    converted once again for every slice, so a large one gets slices that
    use it over many rows.
    """
    shape = _product_shape(a, b)
    for x in (a, b):
        if not (np.issubdtype(x.dtype, np.integer) or (m is not None and x.dtype.kind == "f")):
            raise ShapeMismatch(
                f"operands must be integer arrays (or float residues with a modulus), "
                f"got {a.dtype}, {b.dtype}"
            )
    depth = a.shape[-1]
    bound = depth * amax * bmax
    ft = exact_float_dtype(depth, amax, bmax)
    if m is None:
        if bound > INT32_MAX:
            raise OverflowRisk(
                f"dot length {depth} with operand bounds {amax}*{bmax} can overflow int32"
            )
        piece = max(depth, 1)  # contraction terms per BLAS call
        if ft == np.float64 and amax * bmax <= FLOAT32_EXACT:
            ft, piece = np.dtype(np.float32), FLOAT32_EXACT // (amax * bmax)
        out = np.empty(shape, dtype=np.int32)
    elif not fold:
        out = np.empty(shape, dtype=ft)
    else:
        ft = np.dtype(np.float32 if bound <= float32_fold_edge(m) else np.float64)
        out = np.empty(shape, dtype=np.float32 if m <= FLOAT32_EXACT else ft)
    if out.size == 0:
        return out
    split_a = a.ndim == out.ndim and a.shape[0] == out.shape[0]
    split_b = b.ndim == out.ndim > 2 and b.shape[0] == out.shape[0]
    af = a if split_a else a.astype(ft, copy=False)
    bf = b if split_b else b.astype(ft, copy=False)
    row = out[0].size + (a[0].size if split_a else 0) + (b[0].size if split_b else 0)
    once = (0 if split_a else a.size) + (0 if split_b else b.size)
    step = max(1, max(_SLICE_BYTES, 2 * once * ft.itemsize) // (row * ft.itemsize))
    for i in range(0, out.shape[0], step):
        s = slice(i, i + step)
        x = af[s].astype(ft, copy=False) if split_a else af
        y = bf[s].astype(ft, copy=False) if split_b else bf
        if m is None:
            np.copyto(out[s], np.matmul(x[..., :piece], y[..., :piece, :]), casting="unsafe")
            for j in range(piece, depth, piece):
                part = np.matmul(x[..., j : j + piece], y[..., j : j + piece, :])
                out[s] += part.astype(np.int32)
            continue
        prod = np.matmul(x, y, out=out[s] if ft == out.dtype else None)
        if not fold:
            continue
        if bound > FLOAT64_FOLD:
            # past the one-pass edge; fmod is exact and leaves |x| below m
            np.fmod(prod, m, out=prod)
        elif ft == np.float32 and bound > FLOAT32_FOLD:
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
