"""One array rule at every public boundary (layer._check_array).

Every array parameter of the names in rnswinograd.__all__ is called with a
list, a 0-d array, an array of another rank, a float array, a bool array, a
non-contiguous view and a read-only array.  Each call must either return
what the same values give as a contiguous, writable int8 array, or raise a
library error or a TypeError naming the argument; nothing else may escape.
A slice of the table, and the modular product's 2**51 refusal, also run
under python -O, so no refusal rests on an assert statement.
"""

import inspect
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import rnswinograd
from rnswinograd import (
    LayerSpec,
    RnsError,
    RnsSystem,
    ShapeMismatch,
    direct_conv,
    read_tensor,
    tile_decompose,
    winograd_layer_conv,
    write_tensor,
)

SYSTEM = RnsSystem((251, 241, 239))
SPEC = LayerSpec(h=6, w=6, c=2, k=2, r=3, padding=1, tile_m=2)
_rng = np.random.default_rng(31)
W = _rng.integers(-128, 128, SPEC.weight_shape()).astype(np.int8)
X = _rng.integers(-128, 128, SPEC.input_shape()).astype(np.int8)


def round_trip(arr):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.qtns"
        write_tensor(path, arr)
        return read_tensor(path)


# (public name, parameter, a valid int8 array, a call on one value)
CASES = [
    ("direct_conv", "weights", W, lambda v: direct_conv(SPEC, v, X)),
    ("direct_conv", "x", X, lambda v: direct_conv(SPEC, W, v)),
    ("winograd_layer_conv", "weights", W, lambda v: winograd_layer_conv(SPEC, v, X, SYSTEM)),
    ("winograd_layer_conv", "x", X, lambda v: winograd_layer_conv(SPEC, W, v, SYSTEM)),
    ("tile_decompose", "x", X, lambda v: tile_decompose(v, 2, 3, 1)),
    ("write_tensor", "arr", X, round_trip),
]

# Records the package builds itself: reduce_transforms_mod fills these from
# exact transforms.
RECORDS = {("ModularTransformSet", "at"), ("ModularTransformSet", "g"),
           ("ModularTransformSet", "bt")}


def variants(arr):
    """The seven kinds of value each array parameter is called with."""
    read_only = arr.copy()
    read_only.flags.writeable = False
    return {
        "list": arr.tolist(),
        "0-d": np.array(arr.flat[0]),
        "another rank": arr[0],
        "float": arr.astype(np.float32),
        "bool": arr.astype(bool),
        "non-contiguous": np.repeat(arr, 2, axis=-1)[..., ::2],
        "read-only": read_only,
    }


def plain(value) -> str:
    """A repr that differs wherever the dtype or a value differs."""
    if isinstance(value, np.ndarray):
        return repr((value.dtype, value.shape, value.tolist()))
    return repr(value)


def outcome(call, value, param):
    """None if call(value) keeps the rule; else what happened.

    Uses no assert, so it checks the same under python -O.
    """
    try:
        got = call(value)
    except TypeError as e:
        return None if f"{param} must be a numpy array" in str(e) else f"TypeError: {e}"
    except RnsError:
        return None
    except Exception as e:
        return f"{type(e).__name__}: {e}"
    if not (isinstance(value, np.ndarray) and value.dtype == np.int8):
        return f"accepted, returned {plain(got)[:80]}"
    want = plain(call(np.array(value, order="C")))
    return None if plain(got) == want else f"returned {plain(got)[:80]} != {want[:80]}"


def faults(cases) -> list[str]:
    out = []
    for name, param, arr, call in cases:
        for kind, value in variants(arr).items():
            if why := outcome(call, value, param):
                out.append(f"{name}({param}={kind}): {why}")
    return out


@pytest.mark.parametrize("case", CASES, ids=[f"{c[0]}.{c[1]}" for c in CASES])
def test_array_rule_holds_at_every_boundary(case):
    assert faults([case]) == []


@pytest.mark.parametrize("case", CASES, ids=[f"{c[0]}.{c[1]}" for c in CASES])
def test_array_rule_names_each_refusal(case):
    name, param, arr, call = case
    got = variants(arr)
    with pytest.raises(TypeError, match=f"{param} must be a numpy array, got list"):
        call(got["list"])
    for kind in ("float", "bool"):
        with pytest.raises(ShapeMismatch, match=f"{param} must be int8"):
            call(got[kind])
    if name != "write_tensor":  # a tensor file holds any rank
        for kind in ("0-d", "another rank"):
            with pytest.raises(ShapeMismatch, match=f"{param} must be int8 of rank 4"):
                call(got[kind])


def _array_parameters(name, obj):
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return
    for p in params:
        if "ndarray" in str(p.annotation):
            yield name, p.name


def test_table_covers_every_array_parameter():
    found = set()
    for name in rnswinograd.__all__:
        obj = getattr(rnswinograd, name)
        if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, Exception)):
            continue
        found.update(_array_parameters(name, obj))
        if inspect.isclass(obj):
            for meth, fn in inspect.getmembers(obj, inspect.isfunction):
                if not meth.startswith("_"):
                    found.update(_array_parameters(f"{name}.{meth}", fn))
    assert found - RECORDS == {(name, param) for name, param, *_ in CASES}
    assert RECORDS <= found


def test_write_tensor_writes_big_endian_int32_little_endian():
    # the format is little endian, so a big-endian array is written converted
    arr = np.arange(-3, 3, dtype=">i4").reshape(2, 3)
    back = round_trip(arr)
    assert back.dtype == np.int32
    assert np.array_equal(back, arr)
    assert plain(round_trip(arr.astype(np.int32))) == plain(back)


def test_array_rule_holds_under_optimized_mode():
    # python -O strips assert statements; the refusals must not rest on one
    tests = Path(__file__).resolve().parent
    src = str(Path(rnswinograd.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import test_arrays as t\n"
        "import test_gemm as g\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not optimized')\n"
        "found = t.faults(t.CASES[::2]) + g.fold_edge_faults()\n"
        "print('\\n'.join(found))\n"
        "sys.exit(1 if found else 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(tests)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
