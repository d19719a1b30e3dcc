"""N:M fine-grained structured sparsity pattern descriptions.

An N:M pattern keeps the N entries of largest importance out of every M
consecutive entries along the last axis of a matrix.  The paper focuses on
1:2 (float32, one 32-bit value kept per pair) and 2:4 (bfloat16, two 16-bit
values kept per group of four) because they map onto the A100 sparse tensor
core, but the selection logic itself works for any N < M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class NMPattern:
    """Description of an N:M fine-grained structured sparsity pattern.

    Attributes
    ----------
    n:
        Number of entries kept per group.
    m:
        Group size (entries are grouped along the last matrix axis).
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n <= 0 or self.m <= 0:
            raise ValueError(f"N and M must be positive, got {self.n}:{self.m}")
        if self.n >= self.m:
            raise ValueError(
                f"N:M sparsity requires N < M, got {self.n}:{self.m}"
            )

    @property
    def density(self) -> float:
        """Fraction of entries that survive pruning (``N / M``)."""
        return self.n / self.m

    @property
    def sparsity(self) -> float:
        """Fraction of entries removed by pruning (``1 - N / M``)."""
        return 1.0 - self.density

    @property
    def name(self) -> str:
        return f"{self.n}:{self.m}"

    @property
    def metadata_bits_per_group(self) -> int:
        """Bits of index metadata per group in the hardware encoding.

        The A100 encoding spends 4 bits for every 1:2 or 2:4 group decision
        (Section 2.3 of the paper).  For general N:M we charge
        ``ceil(log2(C(M, N)))`` rounded up to a multiple of 4 to stay
        nibble-aligned, which reduces to 4 for 1:2 and 2:4.
        """
        from math import comb, ceil, log2

        raw = max(1, ceil(log2(comb(self.m, self.n))))
        return ((raw + 3) // 4) * 4

    def metadata_fraction(self, element_bits: int = 32) -> float:
        """Metadata size as a fraction of the dense matrix (in bits).

        For 2:4 with 16-bit elements and 1:2 with 32-bit elements this is
        1/16, matching the paper ("the metadata is only 1/16 of the original
        dense matrix in terms of bits").
        """
        return self.metadata_bits_per_group / (self.m * element_bits)

    def validate_length(self, length: int) -> None:
        """Raise if a row of ``length`` entries cannot be grouped into M-groups."""
        if length % self.m != 0:
            raise ValueError(
                f"last-axis length {length} is not divisible by M={self.m} "
                f"for pattern {self.name}; pad the sequence length"
            )

    def padded(self, length: int) -> int:
        """``length`` rounded up to whole M-groups (the inference forward's key axis)."""
        return -(-int(length) // self.m) * self.m

    def groups(self, length: int) -> int:
        """Number of M-groups in a row of ``length`` entries."""
        self.validate_length(length)
        return length // self.m

    def kept(self, length: int) -> int:
        """Number of surviving entries per row of ``length`` entries."""
        return self.groups(length) * self.n


#: The two patterns with off-the-shelf A100 sparse-tensor-core support.
PATTERN_1_2 = NMPattern(1, 2)
PATTERN_2_4 = NMPattern(2, 4)

_ALIASES = {
    "1:2": PATTERN_1_2,
    "2:4": PATTERN_2_4,
    "1_2": PATTERN_1_2,
    "2_4": PATTERN_2_4,
}


def resolve_pattern(pattern) -> NMPattern:
    """Coerce a pattern-like value into an :class:`NMPattern`.

    Accepts an :class:`NMPattern`, a ``(n, m)`` tuple, or a string such as
    ``"2:4"``.
    """
    if isinstance(pattern, NMPattern):
        return pattern
    if isinstance(pattern, str):
        key = pattern.strip()
        if key in _ALIASES:
            return _ALIASES[key]
        if ":" in key:
            n_str, m_str = key.split(":", 1)
            return NMPattern(int(n_str), int(m_str))
        raise ValueError(f"unrecognised N:M pattern string: {pattern!r}")
    if isinstance(pattern, (tuple, list)) and len(pattern) == 2:
        return NMPattern(int(pattern[0]), int(pattern[1]))
    raise TypeError(f"cannot interpret {pattern!r} as an N:M pattern")


def default_pattern_for_dtype(dtype: str) -> NMPattern:
    """Hardware-default pattern for a data type (Figure 1 of the paper).

    float32 uses 1:2 (each kept value occupies two 2-byte slots); bfloat16 and
    float16 use 2:4.
    """
    dtype = str(dtype)
    if dtype in ("float32", "float", "f32", "tf32"):
        return PATTERN_1_2
    if dtype in ("bfloat16", "bf16", "float16", "f16", "half"):
        return PATTERN_2_4
    raise ValueError(f"no default N:M pattern for dtype {dtype!r}")


def pattern_pair_shapes(rows: int, cols: int, pattern: NMPattern) -> Tuple[int, int]:
    """Shape ``(rows, kept_cols)`` of the compressed nonzero matrix."""
    return rows, pattern.kept(cols)
