"""Transform stages of the fast path over one modulus.

The stages work position first: an array of shape (side, side, ...) is
transformed over its two leading axes, independently for every trailing
index, so a whole layer's tiles and channels go through two batched GEMMs,
both exact on float BLAS (gemm.exact_matmul).  The second GEMM folds its
output mod m; the first folds only where the second needs it, and hands
it the exact integers, stored in the narrowest float that holds them,
where gemm.defer_fold admits their bound.  Stage inputs are int8 values
(|x| <= 128, not reduced), residues mod m, integer or float, or an
unfolded product with its bound; folded outputs are the float32 residues
exact_matmul returns, so a chain of stages never leaves float.  The
backward transform runs only its first GEMM here (backward_rows_mod, folded
or, where the layer's CRT bound admits it, not); the layer finishes it
inside its CRT reconstruction.
"""

from __future__ import annotations

import numpy as np

from . import gemm
from .errors import ShapeMismatch
from .transforms import ModularTransformSet


def _transform(left: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """left @ x @ left.T over the two leading axes of x, folded mod m.

    Two GEMMs, each batched over one leading axis and contracting the other:
    t[j] = left @ x[:, j], then y[a] = left @ t[:, a].  t stays unfolded
    where gemm.defer_fold admits its bound.  The float conversion reads the
    swapped axes, and each BLAS call covers one (side, trailing) slab, which
    the layer keeps small enough for cache and one thread.
    """
    side, n = left.shape
    half = (m - 1) // 2
    xmax = _input_bound(x, half)
    tmax = n * half * xmax
    lazy = gemm.defer_fold(n, half, tmax)
    t = _rows(left, x, m, xmax, not lazy)
    t = gemm.exact_matmul(left, t.transpose(1, 0, 2), half, tmax if lazy else half, m)
    return t.reshape((side, side) + x.shape[2:])


def _input_bound(x: np.ndarray, half: int) -> int:
    """|x| of a stage input: int8 data counts as 128, residues as (m-1)/2."""
    return gemm.INT8_ABS_PEAK if x.dtype == np.int8 else half


def _rows(left: np.ndarray, x: np.ndarray, m: int, xmax: int, fold: bool = True) -> np.ndarray:
    """The first GEMM of _transform: t[j] = left @ x[:, j], mod m.

    xmax bounds |x|; fold=False leaves the result unfolded.  Returns
    (n, side, rest) floats, rest the trailing axes of x flattened: axis 0 is
    the column of x, axis 1 a row of the result.
    """
    n = left.shape[1]
    x = x.reshape(n, n, -1).transpose(1, 0, 2)
    return gemm.exact_matmul(left, x, (m - 1) // 2, xmax, m, fold)


def _check_tile(x: np.ndarray, side: int, what: str) -> None:
    if x.ndim < 2 or x.shape[:2] != (side, side):
        raise ShapeMismatch(f"{what} must start with ({side}, {side}), got {x.shape}")


def filter_transform_mod(g: np.ndarray, mt: ModularTransformSet) -> np.ndarray:
    """G g G^T mod m for filters shaped (r, r, ...)."""
    _check_tile(g, mt.r, "filter tile")
    return _transform(mt.g, g, mt.modulus)


def input_transform_mod(d: np.ndarray, mt: ModularTransformSet) -> np.ndarray:
    """B^T d B mod m for input patches shaped (n, n, ...)."""
    _check_tile(d, mt.n, "input tile")
    return _transform(mt.bt, d, mt.modulus)


def backward_rows_mod(
    t: np.ndarray, mt: ModularTransformSet, tmax: int | None = None, fold: bool = True
) -> np.ndarray:
    """A^T t mod m alone, the backward transform's first GEMM.

    tmax bounds |t| where t is an unfolded product (gemm.defer_fold);
    otherwise t holds int8 data or residues.  Returns (n, m_out, rest)
    float32 residues for (n, n, ...) products, rest the trailing axes
    flattened: entry [j, a] is output row a at product column j, so row a of
    A^T t A is mt.at @ [:, a] mod m.  fold=False returns the exact integer
    products instead, in gemm.exact_float_dtype (float32 for 8-bit moduli
    on residues), for a float64 CRT sum whose bound admits them
    (RnsSystem.crt_fits).  The layer finishes the transform inside its CRT
    reconstruction.
    """
    _check_tile(t, mt.n, "product tile")
    if tmax is None:
        tmax = _input_bound(t, (mt.modulus - 1) // 2)
    return _rows(mt.at, t, mt.modulus, tmax, fold)
