"""One integer rule at every public boundary (residue.as_int).

Every integer parameter of the names in rnswinograd.__all__ is called with
an int, a numpy integer, a bool, an integral and a fractional float, and a
string.  The numpy integer must give exactly the int's result, with no numpy
scalar leaking into it; the others must raise TypeError naming the argument.  The table is
also run under python -O, so no refusal rests on an assert statement.
"""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rnswinograd
from rnswinograd import (
    LayerSpec,
    RnsSystem,
    RnsVector,
    arithmetic_reduction,
    check_modulus_compatibility,
    data_width_analysis,
    default_points,
    derive_transforms,
    mod_inverse,
    mod_reduce,
    range_check,
    reduce_transforms_mod,
    tile_decompose,
    winograd_layer_conv,
)
from rnswinograd import transforms

SYSTEM = RnsSystem((251, 241, 239))
TS = derive_transforms(2, 3)
SPEC_KW = dict(h=6, w=6, c=2, k=2, r=3, batch=1, padding=1, stride=1, tile_m=2)
SPEC = LayerSpec(**SPEC_KW)
_rng = np.random.default_rng(26)
W = _rng.integers(-128, 128, SPEC.weight_shape()).astype(np.int8)
X = _rng.integers(-128, 128, SPEC.input_shape()).astype(np.int8)


def _spec(name, value):
    return LayerSpec(**dict(SPEC_KW, **{name: value}))


# (public name, parameter, a valid int, a call on one value, the name a
# refusal carries)
CASES = [
    ("RnsSystem", "moduli", 251, lambda v: RnsSystem((v, 241)), "modulus"),
    ("RnsSystem.to_rns", "x", -1234, lambda v: SYSTEM.to_rns(v), "x"),
    ("RnsSystem.reconstruct", "residues", 17, lambda v: SYSTEM.reconstruct((v, 2, 3)), "residue"),
    ("RnsSystem.crt_bound", "depth", 16, lambda v: SYSTEM.crt_bound(v), "depth"),
    ("RnsSystem.crt_fits", "depth", 16, lambda v: SYSTEM.crt_fits(v), "depth"),
    ("RnsVector", "values", 5, lambda v: RnsVector((v, 1, -1), SYSTEM), "residue"),
    ("mod_reduce", "x", 14400, lambda v: mod_reduce(v, 253), "x"),
    ("mod_reduce", "m", 253, lambda v: mod_reduce(14400, v), "modulus"),
    ("mod_inverse", "x", 3, lambda v: mod_inverse(v, 251), "x"),
    ("mod_inverse", "m", 251, lambda v: mod_inverse(3, v), "modulus"),
    ("default_points", "n", 6, lambda v: default_points(v), "n"),
    ("derive_transforms", "m", 2, lambda v: derive_transforms(v, 3), "m"),
    ("derive_transforms", "r", 3, lambda v: derive_transforms(2, v), "r"),
    ("check_modulus_compatibility", "m", 251,
     lambda v: check_modulus_compatibility(TS, v), "modulus"),
    ("reduce_transforms_mod", "m", 251, lambda v: reduce_transforms_mod(TS, v), "modulus"),
    ("data_width_analysis", "input_bits", 8, lambda v: data_width_analysis(TS, v), "input_bits"),
    ("arithmetic_reduction", "m", 4, lambda v: arithmetic_reduction(v, 3, 3), "m"),
    ("arithmetic_reduction", "r", 3, lambda v: arithmetic_reduction(4, v, 3), "r"),
    ("arithmetic_reduction", "n_moduli", 3, lambda v: arithmetic_reduction(4, 3, v), "n_moduli"),
    *(("LayerSpec", name, value, lambda v, name=name: _spec(name, v), name)
      for name, value in SPEC_KW.items()),
    ("tile_decompose", "tile_m", 2, lambda v: tile_decompose(X, v, 3, 1), "tile_m"),
    ("tile_decompose", "r", 3, lambda v: tile_decompose(X, 2, v, 1), "r"),
    ("tile_decompose", "padding", 1, lambda v: tile_decompose(X, 2, 3, v), "padding"),
    ("range_check", "declared_bound", 200_000,
     lambda v: range_check(SPEC, SYSTEM, v), "declared_bound"),
    ("winograd_layer_conv", "declared_bound", 200_000,
     lambda v: winograd_layer_conv(SPEC, W, X, SYSTEM, declared_bound=v), "declared_bound"),
]

# Records the package builds itself: derive_transforms and
# reduce_transforms_mod fill these fields from arguments that passed the rule.
RECORDS = {
    ("ExactTransformSet", "m"), ("ExactTransformSet", "r"),
    ("ExactTransformSet", "gprime"), ("ModularTransformSet", "modulus"),
}


def plain(value) -> str:
    """A repr that differs wherever a numpy scalar or dtype hides in value."""
    if isinstance(value, np.ndarray):
        return repr((value.dtype, value.tolist()))
    return repr(value)


def refusal_of(call, value, label):
    """None if call(value) raises TypeError naming label; else what happened.

    Uses no assert, so it checks the same under python -O.
    """
    try:
        got = call(value)
    except TypeError as e:
        return None if f"{label} must be an integer" in str(e) else f"TypeError: {e}"
    except Exception as e:
        return f"{type(e).__name__}: {e}"
    return f"accepted, returned {plain(got)[:80]}"


def faults(cases) -> list[str]:
    """Every case whose numpy integer strays from its int, or whose bool,
    floats or string are not refused by name."""
    out = []
    for name, param, value, call, label in cases:
        want = plain(call(value))
        got = plain(call(np.int64(value)))
        if got != want:
            out.append(f"{name}({param}=np.int64): {got[:80]} != {want[:80]}")
        for bad in (bool(value), float(value), value + 0.5, str(value)):
            if why := refusal_of(call, bad, label):
                out.append(f"{name}({param}={bad!r}): {why}")
    return out


@pytest.mark.parametrize("case", CASES, ids=[f"{c[0]}.{c[1]}" for c in CASES])
def test_integer_rule_holds_at_every_boundary(case):
    assert faults([case]) == []


def _integer_parameters(name, obj):
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return
    for p in params:
        if re.search(r"\bint\b", str(p.annotation)):
            yield name, p.name


def test_table_covers_every_integer_parameter():
    found = set()
    for name in rnswinograd.__all__:
        obj = getattr(rnswinograd, name)
        if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, Exception)):
            continue
        found.update(_integer_parameters(name, obj))
        if inspect.isclass(obj):
            for meth, fn in inspect.getmembers(obj, inspect.isfunction):
                if not meth.startswith("_"):
                    found.update(_integer_parameters(f"{name}.{meth}", fn))
    # reconstruct's residues carry no annotation, so the table holds more
    assert found - RECORDS <= {(name, param) for name, param, *_ in CASES}
    assert RECORDS <= found


def test_numpy_moduli_reduce_transforms():
    # reduce_transforms_mod once checked a numpy modulus, then passed it on
    # unconverted, and pow(q, -1, np.int64(251)) raised TypeError
    ts = derive_transforms(2, 3)
    assert plain(reduce_transforms_mod(ts, np.int64(251))) == plain(reduce_transforms_mod(ts, 251))
    transforms.cached_modular_transforms.cache_clear()
    got = transforms.cached_modular_transforms(2, 3, (np.int64(251),))
    transforms.cached_modular_transforms.cache_clear()
    assert plain(got) == plain(transforms.cached_modular_transforms(2, 3, (251,)))
    assert mod_inverse(np.int64(3), np.int64(251)) == mod_inverse(3, 251) == 84
    assert type(mod_inverse(np.int64(3), np.int64(251))) is int


def test_layer_spec_stores_plain_ints():
    spec = LayerSpec(h=np.int64(8), w=8, c=np.int32(1), k=1, r=3)
    assert spec == LayerSpec(h=8, w=8, c=1, k=1, r=3)
    assert all(type(v) is int for v in vars(spec).values())
    with pytest.raises(TypeError, match="c must be an integer, got True"):
        LayerSpec(h=8, w=8, c=True, k=1, r=3)


@pytest.mark.parametrize(
    "kw,named",
    [
        (dict(system=(251, 241, 239)), "system must be an RnsSystem"),
        (dict(system=SYSTEM, timings=3), "timings must be a StageTimings or None"),
    ],
)
def test_layer_conv_refuses_other_types_up_front(kw, named):
    # both once ended in an AttributeError deep inside the call
    with pytest.raises(TypeError, match=named):
        winograd_layer_conv(SPEC, W, X, **kw)


def test_integer_rule_holds_under_optimized_mode():
    # python -O strips assert statements; the refusals must not rest on one
    tests = Path(__file__).resolve().parent
    src = str(Path(rnswinograd.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import test_integers as t\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not optimized')\n"
        "found = t.faults(t.CASES[::3])\n"
        "print('\\n'.join(found))\n"
        "sys.exit(1 if found else 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(tests)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
