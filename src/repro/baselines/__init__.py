"""Comparator mask mechanisms (forward-pass NumPy implementations).

Every efficient-transformer baseline the paper compares against (Table 4,
Figure 5) that works by masking the score matrix is implemented here behind
the common :class:`~repro.baselines.base.AttentionMechanism` interface, so
experiments can swap mechanisms freely; each exposes the sparsity mask it
induces, so the lottery-ticket quality metric can be evaluated on it, and
its trainable core in :mod:`repro.nn.attention_layer` runs the same
row-block structure.  The kernel and low-rank baselines (Linformer, Linear
Transformer, Performer, Nyströmformer, Synthesizer and the Nyströmformer and
Linformer DFSS combinations) are defined once, by their trainable cores;
build any mechanism with :func:`repro.registry.make_mechanism` or
:class:`repro.AttentionEngine`.
"""

from repro.baselines.base import AttentionMechanism
from repro.baselines.full import FullAttention
from repro.baselines.dfss import DfssMechanism
from repro.baselines.topk import ExplicitTopKAttention
from repro.baselines.fixed import (
    LocalWindowAttention,
    StridedSparseAttention,
    TruncatedAttention,
)
from repro.baselines.longformer import LongformerAttention
from repro.baselines.bigbird import BigBirdAttention
from repro.baselines.reformer import ReformerAttention
from repro.baselines.routing import RoutingTransformerAttention
from repro.baselines.sinkhorn import SinkhornAttention
from repro.baselines.combos import DfssBigBirdAttention

__all__ = [
    "AttentionMechanism",
    "FullAttention",
    "DfssMechanism",
    "ExplicitTopKAttention",
    "LocalWindowAttention",
    "StridedSparseAttention",
    "TruncatedAttention",
    "LongformerAttention",
    "BigBirdAttention",
    "ReformerAttention",
    "RoutingTransformerAttention",
    "SinkhornAttention",
    "DfssBigBirdAttention",
]
