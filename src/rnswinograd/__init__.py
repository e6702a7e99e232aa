"""Exact integer Winograd convolution over residue number systems.

Low-precision convolution computed tile by tile in transform domain, one
residue channel per modulus, reconstructed by the Chinese Remainder Theorem
with cofactor weights.  Every path is bit-exact against direct convolution
whenever the layer's dynamic range fits the chosen moduli.
"""

from .errors import (
    DynamicRangeExceeded,
    NotCoprime,
    OutOfRange,
    OverflowRisk,
    RnsError,
    ShapeMismatch,
    SystemMismatch,
)
from .residue import RnsSystem, RnsVector, mod_inverse, mod_reduce
from .transforms import (
    INF,
    ExactTransformSet,
    ModularTransformSet,
    arithmetic_reduction,
    check_modulus_compatibility,
    data_width_analysis,
    default_points,
    derive_transforms,
    reduce_transforms_mod,
    vandermonde,
    vandermonde_inverse,
)
from .layer import (
    LayerSpec,
    count_operations,
    direct_conv,
    layer_conv,
    range_check,
    read_tensor,
    tile_decompose,
    winograd_layer_conv,
    write_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "RnsError", "NotCoprime", "SystemMismatch", "OutOfRange",
    "DynamicRangeExceeded", "ShapeMismatch", "OverflowRisk",
    "RnsSystem", "RnsVector", "mod_reduce", "mod_inverse",
    "INF", "ExactTransformSet", "ModularTransformSet",
    "default_points", "vandermonde", "vandermonde_inverse", "derive_transforms",
    "check_modulus_compatibility", "reduce_transforms_mod",
    "data_width_analysis", "arithmetic_reduction",
    "LayerSpec", "direct_conv", "winograd_layer_conv", "layer_conv",
    "tile_decompose", "range_check", "count_operations",
    "read_tensor", "write_tensor",
    "__version__",
]
