"""Entry points that code outside the package relies on.

perfbench/run.py imports the package modules by name and calls a handful of
functions with keywords; a deletion that breaks one of those calls must fail
here, not only when the benchmark runs.
"""

import importlib
import inspect

import numpy as np

import rnswinograd
from rnswinograd import gemm, kernel, layer, residue, transforms

# Module attributes perfbench/spans.py wraps to time the stages; its tracer
# skips one that is gone, so a rename would zero a stage without an error.
TRACED = [
    (gemm, "reduce_mod_inplace"),
    (kernel, "input_transform_mod"),
    (kernel, "filter_transform_mod"),
    (transforms, "reduce_for_system"),
    (transforms, "cached_transforms"),
    (layer, "tile_decompose"),
    (layer, "im2col"),
    (layer, "precompute_filter_transforms"),
    (layer, "winograd_layer_conv"),
    (layer, "direct_conv"),
]


def test_public_names_resolve():
    missing = [name for name in rnswinograd.__all__ if not hasattr(rnswinograd, name)]
    assert not missing


def test_benchmark_calls_still_bind():
    for name in ("layer", "transforms", "residue", "gemm", "kernel", "cli"):
        importlib.import_module(f"rnswinograd.{name}")
    spec, w, x, system, ts = object(), object(), object(), object(), object()
    calls = [
        (layer.direct_conv, (spec, w, x), {}),
        (layer.LayerSpec, (), dict(h=8, w=8, c=1, k=1, r=3, batch=1, padding=1, tile_m=4)),
        (transforms.reduce_for_system, (ts, system), {}),
        (layer.precompute_filter_transforms, (w, ts), {}),
        (transforms.cached_transforms, (14, 3), {}),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)  # TypeError if a call broke
    assert transforms.cached_transforms.cache_info().maxsize > 0


def test_benchmark_call_sequence_runs():
    # perfbench's set-up and its two fast routes, called as it calls them
    spec = layer.LayerSpec(h=8, w=8, c=2, k=3, r=3, batch=1, padding=1, tile_m=4)
    rng = np.random.default_rng(0)
    w = rng.integers(-128, 128, spec.weight_shape()).astype(np.int8)
    x = rng.integers(-128, 128, spec.input_shape()).astype(np.int8)
    system = residue.RnsSystem((251, 241, 239))
    mts = transforms.reduce_for_system(transforms.cached_transforms(4, 3), system)
    filters = layer.precompute_filter_transforms(w, mts)
    bound = 9 * spec.c * 128**2
    want = layer.direct_conv(spec, w, x)
    for _ in range(2):  # the filters serve every pass
        got = layer.winograd_layer_conv(spec, w, x, system, declared_bound=bound, filters=filters)
        assert np.array_equal(got, want)
    assert np.array_equal(layer.layer_conv(spec, w, x, system, declared_bound=bound), want)


def test_traced_attributes_resolve():
    missing = [
        f"{mod.__name__}.{name}" for mod, name in TRACED if not callable(getattr(mod, name, None))
    ]
    assert not missing


def test_a_layer_call_reaches_the_traced_stages(monkeypatch):
    # the layer must look the stages up through their modules at call time,
    # or a tracer that wraps the module attribute sees no call
    calls = []
    for mod, name in [(kernel, "input_transform_mod"), (kernel, "filter_transform_mod"),
                      (layer, "tile_decompose")]:
        wrapped = getattr(mod, name)

        def counted(*args, _name=name, _wrapped=wrapped, **kwargs):
            calls.append(_name)
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    spec = layer.LayerSpec(h=8, w=8, c=2, k=3, r=3, padding=1, tile_m=4)
    rng = np.random.default_rng(1)
    w = rng.integers(-128, 128, spec.weight_shape()).astype(np.int8)
    x = rng.integers(-128, 128, spec.input_shape()).astype(np.int8)
    got = layer.winograd_layer_conv(spec, w, x, residue.RnsSystem((251, 241, 239)))
    assert np.array_equal(got, layer.direct_conv(spec, w, x))
    assert set(calls) == {"input_transform_mod", "filter_transform_mod", "tile_decompose"}
