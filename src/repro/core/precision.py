"""Reduced-precision emulation (bfloat16 / tensorfloat-32) on top of float32.

The DFSS kernels behave differently per data type: float32 inputs use the 1:2
pattern (and are internally converted to tensorfloat-32 before the tensor-core
multiply), while bfloat16 inputs use 2:4.  NumPy has no native bfloat16, so we
emulate the value grid by rounding a float32 array to the nearest representable
bfloat16 / tf32 value.  The emulation is exact for the value set (same exponent
range as float32, truncated mantissa), which is all the algorithm depends on.
"""

from __future__ import annotations

import numpy as np

#: Supported logical data types for the attention kernels.
SUPPORTED_DTYPES = ("float32", "bfloat16", "tfloat32", "float16")

#: Bytes occupied per element in device memory for each logical dtype.
DTYPE_BYTES = {
    "float32": 4,
    "tfloat32": 4,  # tf32 is stored as 32-bit, only the multiply is truncated
    "bfloat16": 2,
    "float16": 2,
}


def _round_mantissa(x: np.ndarray, kept_mantissa_bits: int) -> np.ndarray:
    """Round float32 values to ``kept_mantissa_bits`` mantissa bits (ties to even-ish).

    Implemented via integer bit manipulation with round-to-nearest on the
    dropped bits, which matches hardware conversion behaviour closely enough
    for algorithm-level experiments.
    """
    x = np.asarray(x, dtype=np.float32)
    drop = 23 - kept_mantissa_bits
    if drop <= 0:
        return x.copy()
    bits = x.view(np.uint32)
    # round-to-nearest: add half of the dropped ULP before truncating
    half = np.uint32(1 << (drop - 1))
    rounded = (bits + half) & np.uint32(~((1 << drop) - 1) & 0xFFFFFFFF)
    out = rounded.view(np.float32).copy()
    # preserve NaN/Inf exactly
    special = ~np.isfinite(x)
    if np.any(special):
        out[special] = x[special]
    return out


def to_bfloat16(x: np.ndarray) -> np.ndarray:
    """Emulate float32 -> bfloat16 -> float32 round-trip (8-bit mantissa -> 7 bits)."""
    return _round_mantissa(x, 7)


def to_tfloat32(x: np.ndarray) -> np.ndarray:
    """Emulate the tensorfloat-32 mantissa truncation used by Ampere tensor cores."""
    return _round_mantissa(x, 10)


def to_float16(x: np.ndarray) -> np.ndarray:
    """Round-trip through IEEE float16 (native in NumPy); the result is
    C-contiguous, like the other roundings."""
    return np.asarray(x, dtype=np.float32).astype(np.float16, order="C").astype(np.float32)


_CASTS = {
    "float32": lambda x: np.asarray(x, dtype=np.float32).copy(),
    "tfloat32": to_tfloat32,
    "bfloat16": to_bfloat16,
    "float16": to_float16,
}


def quantize(x: np.ndarray, dtype: str) -> np.ndarray:
    """Snap ``x`` onto the value grid of ``dtype`` (result stored as float32)."""
    if dtype not in _CASTS:
        raise ValueError(f"unsupported dtype {dtype!r}; expected one of {SUPPORTED_DTYPES}")
    return _CASTS[dtype](x)


def dtype_bytes(dtype: str) -> int:
    """Storage bytes per element for a logical dtype."""
    if dtype not in DTYPE_BYTES:
        raise ValueError(f"unsupported dtype {dtype!r}; expected one of {SUPPORTED_DTYPES}")
    return DTYPE_BYTES[dtype]


def tensor_core_operand(x: np.ndarray, dtype: str = "float32") -> np.ndarray:
    """``x`` rounded to the precision the Ampere tensor core multiplies in.

    float32 operands are truncated to tensorfloat-32 (Appendix A.1.2: "float
    data will be converted to tensorfloat-32 before wmma"); bfloat16 and
    float16 operands are rounded to their own grids.  The result is a fresh
    C-contiguous float32 array, whatever the strides of ``x``.
    """
    if dtype in ("float32", "tfloat32"):
        return to_tfloat32(x)
    if dtype == "bfloat16":
        return to_bfloat16(x)
    if dtype == "float16":
        return to_float16(x)
    raise ValueError(f"unsupported dtype {dtype!r}")


def simulate_tensor_core_matmul(a: np.ndarray, b: np.ndarray, dtype: str = "float32") -> np.ndarray:
    """Matrix multiply with operand precision matching the Ampere tensor core.

    Both operands go through :func:`tensor_core_operand`; accumulation is
    always performed in float32, as on the hardware.
    """
    return np.matmul(tensor_core_operand(a, dtype), tensor_core_operand(b, dtype))
