"""The benchmark's own convolution oracle; it shares no code with the package.

A float64 im2col matmul.  It is exact here: every product and partial sum is
an integer below r*r*c*127**2, far under 2**53, so no summation order loses a
bit.
"""

from __future__ import annotations

import numpy as np

_EXACT_LIMIT = 2**53


def conv2d(x: np.ndarray, w: np.ndarray, padding: int) -> np.ndarray:
    """Stride-1 correlation of NHWC int8 x with (r, r, c, k) int8 w, as int64."""
    b, h, wd, c = x.shape
    r, _, _, k = w.shape
    if r * r * c * 127 * 127 >= _EXACT_LIMIT:
        raise ValueError("layer too deep for an exact float64 oracle")
    xp = np.pad(x.astype(np.float64), ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    oh = h + 2 * padding - r + 1
    ow = wd + 2 * padding - r + 1
    cols = np.empty((b, oh, ow, r, r, c), dtype=np.float64)
    for i in range(r):
        for j in range(r):
            cols[:, :, :, i, j, :] = xp[:, i : i + oh, j : j + ow, :]
    y = cols.reshape(-1, r * r * c) @ w.astype(np.float64).reshape(r * r * c, k)
    return y.astype(np.int64).reshape(b, oh, ow, k)


def matches(out, want: np.ndarray) -> bool:
    """True only for an array equal to the oracle in shape and every element."""
    return isinstance(out, np.ndarray) and out.shape == want.shape and bool(np.array_equal(out, want))
