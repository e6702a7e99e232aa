"""Benchmark workloads: layer geometry, routing and residue systems.

Every shape is defined here rather than read from the package, so a change
under ``src/`` cannot change what is measured.  Geometry is fixed per
workload; only the tensor values come from ``--seed``, so runs with
different seeds do the same amount of work on different data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VGG_MODULI = (251, 241, 239)
RNS15_MODULI = (4001, 4331)

# The 13 convolution layers of the packaged VGG16 config as published,
# quirks included: conv1_2 has c=3 and conv2_1 has w=224.
# (name, h, w, c, k); every layer is 3x3 with padding 1.
VGG16_PUBLISHED = (
    ("conv1_1", 224, 224, 3, 64),
    ("conv1_2", 224, 224, 3, 64),
    ("conv2_1", 112, 224, 64, 64),
    ("conv2_2", 112, 112, 64, 128),
    ("conv3_1", 56, 56, 128, 128),
    ("conv3_2", 56, 56, 128, 256),
    ("conv3_3", 56, 56, 256, 256),
    ("conv4_1", 28, 28, 256, 512),
    ("conv4_2", 28, 28, 512, 512),
    ("conv4_3", 28, 28, 512, 512),
    ("conv5_1", 14, 14, 512, 512),
    ("conv5_2", 14, 14, 512, 512),
    ("conv5_3", 14, 14, 512, 512),
)

# Channel counts above 3 are divided by this.  At full width the filter
# transforms alone take about a minute, which cannot be repeated inside one
# timed run; a quarter keeps every spatial size, tile count and route.
VGG16_WIDTH_DIVISOR = 4

# The verify sweep's tile and filter sizes and standard residue systems.
ONESHOT_TILES = (
    (2, 3), (4, 3), (8, 3), (10, 3), (12, 3), (14, 3),
    (2, 5), (4, 5), (8, 5), (10, 5), (12, 5), (14, 5),
)
ONESHOT_SYSTEMS = ((253, 251, 247), VGG_MODULI, RNS15_MODULI)
# 253 = 11 * 23 and 247 = 13 * 19 divide a transform denominator of these
# tiles, so the pair cannot be represented (verify skips the same five).
ONESHOT_UNREPRESENTABLE = frozenset(
    ((12, 3), (14, 3), (10, 5), (12, 5), (14, 5))
)
ONESHOT_GEOMETRIES = 7
ONESHOT_GEOMETRY_SEED = 2020


@dataclass(frozen=True)
class Layer:
    """One layer call of a pass.

    route: "winograd" calls winograd_layer_conv with filters transformed in
    set-up; "oneshot" calls layer_conv, which transforms the filters on
    every call; "direct" calls direct_conv on the fast path as well.
    """

    name: str
    h: int
    w: int
    c: int
    k: int
    r: int
    padding: int
    batch: int
    tile_m: int
    moduli: tuple[int, ...]
    route: str
    declared_bound: int | None = None

    @property
    def out_hw(self) -> tuple[int, int]:
        return (
            self.h + 2 * self.padding - self.r + 1,
            self.w + 2 * self.padding - self.r + 1,
        )

    def direct_macs(self) -> int:
        oh, ow = self.out_hw
        return self.batch * oh * ow * self.k * self.c * self.r * self.r


@dataclass(frozen=True)
class Workload:
    name: str
    layers: tuple[Layer, ...]

    def direct_macs(self) -> int:
        return sum(layer.direct_macs() for layer in self.layers)


def _vgg16() -> Workload:
    layers = []
    for name, h, w, c, k in VGG16_PUBLISHED:
        layers.append(
            Layer(
                name=name, h=h, w=w,
                c=c if c <= 3 else c // VGG16_WIDTH_DIVISOR,
                k=k // VGG16_WIDTH_DIVISOR,
                r=3, padding=1, batch=1, tile_m=14, moduli=VGG_MODULI,
                route="direct" if name == "conv1_1" else "winograd",
                declared_bound=300000,
            )
        )
    return Workload("vgg16", tuple(layers))


def _stem_rns15() -> Workload:
    common = dict(r=3, padding=1, batch=2, tile_m=14, moduli=RNS15_MODULI, route="winograd")
    layers = (
        Layer(name="stem224", h=224, w=224, c=3, k=64, **common),
        Layer(name="stem112", h=112, w=112, c=32, k=64, **common),
    )
    return Workload("stem-rns15", layers)


def _small_oneshot() -> Workload:
    """Draws shapes the way the verify sweep does, from a fixed seed."""
    rng = np.random.default_rng(ONESHOT_GEOMETRY_SEED)
    layers = []
    for tile_m, r in ONESHOT_TILES:
        for moduli in ONESHOT_SYSTEMS:
            if moduli[0] == 253 and (tile_m, r) in ONESHOT_UNREPRESENTABLE:
                continue
            for g in range(ONESHOT_GEOMETRIES):
                h = int(rng.integers(r, 33))
                w = int(rng.integers(r, 33))
                c = int(rng.integers(1, 17))
                k = int(rng.integers(1, 9))
                padding = int(rng.integers(0, 3))
                batch = int(rng.integers(1, 3))
                layers.append(
                    Layer(
                        name=f"F{tile_m}r{r}m{moduli[0]}g{g}",
                        h=h, w=w, c=c, k=k, r=r, padding=padding, batch=batch,
                        tile_m=tile_m, moduli=moduli, route="oneshot",
                    )
                )
    return Workload("small-oneshot", tuple(layers))


WORKLOADS = {
    "vgg16": _vgg16,
    "stem-rns15": _stem_rns15,
    "small-oneshot": _small_oneshot,
}


def get(name: str) -> Workload:
    return WORKLOADS[name]()


def make_inputs(workload: Workload, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, x) per layer: int8 in [-127, 127], NHWC and (r, r, c, k)."""
    inputs = []
    for i, layer in enumerate(workload.layers):
        rng = np.random.default_rng([seed, i])
        w = rng.integers(-127, 128, size=(layer.r, layer.r, layer.c, layer.k), dtype=np.int8)
        x = rng.integers(-127, 128, size=(layer.batch, layer.h, layer.w, layer.c), dtype=np.int8)
        inputs.append((w, x))
    return inputs
