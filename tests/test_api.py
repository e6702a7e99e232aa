"""Entry points that code outside the package relies on.

perfbench/run.py imports the package modules by name and calls a handful of
functions with keywords; a deletion that breaks one of those calls must fail
here, not only when the benchmark runs.
"""

import importlib
import inspect

import rnswinograd
from rnswinograd import layer, transforms


def test_public_names_resolve():
    missing = [name for name in rnswinograd.__all__ if not hasattr(rnswinograd, name)]
    assert not missing


def test_benchmark_calls_still_bind():
    for name in ("layer", "transforms", "residue", "gemm", "kernel", "cli"):
        importlib.import_module(f"rnswinograd.{name}")
    spec, w, x, system, ts = object(), object(), object(), object(), object()
    calls = [
        (layer.winograd_layer_conv, (spec, w, x, system), dict(declared_bound=1, filters={})),
        (layer.layer_conv, (spec, w, x, system), dict(declared_bound=1)),
        (layer.direct_conv, (spec, w, x), {}),
        (layer.precompute_filter_transforms, (w, ()), {}),
        (layer.LayerSpec, (), dict(h=8, w=8, c=1, k=1, r=3, batch=1, padding=1, tile_m=4)),
        (transforms.reduce_for_system, (ts, system), {}),
        (transforms.cached_transforms, (14, 3), {}),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)  # TypeError if a call broke
    assert transforms.cached_transforms.cache_info().maxsize > 0
