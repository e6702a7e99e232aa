"""Exact integer GEMM on floating-point BLAS, and the symmetric reduction.

A dot product of depth d over integers bounded by amax and bmax has every
partial sum within d * amax * bmax, so float BLAS computes it exactly in
float32 when that is at most 2**24 and in float64 up to 2**53 (the idea
behind the Ozaki scheme).  A modular product stays in that float and is
folded there with one multiply-round pass, exact up to 2**22 in float32 and
2**51 in float64.  The fold is lazy: a product whose consumer is itself a
modular product may hand it the exact unfolded integers instead, where
defer_fold admits them, and the consumer's own fold reduces both.
"""

from __future__ import annotations

import numpy as np

from .errors import OverflowRisk, ShapeMismatch

INT32_MAX = 2**31 - 1
INT8_ABS_PEAK = 128
FLOAT32_EXACT = 2**24
FLOAT64_EXACT = 2**53
# Largest |x| that x - m*rint(x * (1/m)) folds to its centred residue: the
# quotient's rounding error stays below 1/(2m) and m*rint(...) is exact.
FLOAT32_FOLD = 2**22
FLOAT64_FOLD = 2**51

# Bytes of the float copies made per slice of an exact_matmul result.
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


def defer_fold(depth: int, h: int, bound: int) -> bool:
    """Whether a residue product bounded by bound may skip its fold mod m.

    Its consumer is a modular product of that depth against residues mod m,
    |left| <= h = (m - 1) / 2, on this product's output.  The fold may wait
    when the consumer runs in float64 even on a folded operand (depth * h * h
    above FLOAT32_FOLD), so skipping it never promotes a float32 stage, and
    the consumer's bound on the unfolded one, depth * h * bound, stays within
    FLOAT64_FOLD, where the consumer's own one-pass fold is still exact.
    """
    return depth * h * h > FLOAT32_FOLD and depth * h * bound <= FLOAT64_FOLD


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
    128).  Without a modulus the result is int32 and must fit it.  With a
    modulus m the product runs in float32 while its bound is at most 2**22
    and in float64 above, and the symmetric residues are returned as float32,
    which holds them exactly for any m up to 2**24 (float64 beyond); an
    operand may be such a float result of an earlier modular product.  With
    fold=False (where defer_fold admits it) the residue product is returned
    unfolded: the exact integers, computed and stored in exact_float_dtype.
    OverflowRisk otherwise.  Operands broadcast like matmul; the result is
    computed and folded in slices along its leading axis, converting an
    operand that does not run along it only once.
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
        out = np.empty(shape, dtype=np.int32)
    elif not fold:
        out = np.empty(shape, dtype=ft)
    else:
        if bound > FLOAT32_FOLD:
            ft = np.dtype(np.float64)
        out = np.empty(shape, dtype=np.float32 if m <= FLOAT32_EXACT else ft)
    if out.size == 0:
        return out
    split_a = a.ndim == out.ndim and a.shape[0] == out.shape[0]
    split_b = b.ndim == out.ndim > 2 and b.shape[0] == out.shape[0]
    af = a if split_a else a.astype(ft, copy=False)
    bf = b if split_b else b.astype(ft, copy=False)
    row = out[0].size + (a[0].size if split_a else 0) + (b[0].size if split_b else 0)
    step = max(1, _SLICE_BYTES // (row * ft.itemsize))
    for i in range(0, out.shape[0], step):
        s = slice(i, i + step)
        x = af[s].astype(ft, copy=False) if split_a else af
        y = bf[s].astype(ft, copy=False) if split_b else bf
        if m is None:
            np.copyto(out[s], np.matmul(x, y), casting="unsafe")
            continue
        prod = np.matmul(x, y, out=out[s] if ft == out.dtype else None)
        if not fold:
            continue
        if bound > FLOAT64_FOLD:
            # past the one-pass edge; fmod is exact and leaves |x| below m
            np.fmod(prod, m, out=prod)
        reduce_mod_inplace(prod, m)
        if ft != out.dtype:
            out[s] = prod
    return out


def reduce_mod_inplace(acc: np.ndarray, m: int, q: np.ndarray | None = None) -> np.ndarray:
    """Fold a float array into the symmetric residue range of m, in place.

    It holds integers with |x| at most FLOAT32_FOLD (float32) or
    FLOAT64_FOLD (float64); one pass x -= m * rint(x * (1/m)) centres them.
    The package's one fold; q, like numpy's out=, takes the quotient.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {m}")
    q = np.multiply(acc, acc.dtype.type(1) / m, out=q)
    np.rint(q, out=q)
    q *= m
    acc -= q
    return acc
