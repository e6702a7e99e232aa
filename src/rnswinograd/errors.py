"""Exception types shared across the package."""


class RnsError(Exception):
    """Base class for all errors raised by this package."""


class NotCoprime(RnsError):
    """Moduli (or a value and its modulus) share a nontrivial factor."""


class SystemMismatch(RnsError):
    """Residue vectors from different RNS systems were combined."""


class OutOfRange(RnsError):
    """An integer does not fit the representable signed range of the system."""


class DynamicRangeExceeded(RnsError):
    """A layer's output bound cannot be held: it exceeds the RNS signed range
    or the int32 output, a declared bound is below 1, or the system's CRT sum
    at the layer's transform size is past the float64 bound."""


class ShapeMismatch(RnsError):
    """Tensor or matrix operands have incompatible shapes or dtypes."""


class OverflowRisk(RnsError):
    """An accumulation could overflow its fixed-width accumulator."""
