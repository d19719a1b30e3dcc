"""Comparator attention mechanisms (forward-pass NumPy implementations).

Every efficient-transformer baseline the paper compares against (Table 4,
Figure 5) is implemented behind the common
:class:`~repro.baselines.base.AttentionMechanism` interface so experiments can
swap mechanisms freely.  The implementations are inference-path references —
the trainable counterparts used for the accuracy experiments live in
:mod:`repro.nn.attention_layer` — and they expose the sparsity masks they
induce so the lottery-ticket quality metric can be evaluated on them.
"""

from repro.baselines.base import AttentionMechanism, MECHANISM_REGISTRY
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
from repro.baselines.synthesizer import SynthesizerAttention
from repro.baselines.linformer import LinformerAttention
from repro.baselines.linear_transformer import LinearTransformerAttention
from repro.baselines.performer import PerformerAttention
from repro.baselines.reformer import ReformerAttention
from repro.baselines.routing import RoutingTransformerAttention
from repro.baselines.sinkhorn import SinkhornAttention
from repro.baselines.nystromformer import NystromformerAttention
from repro.baselines.combos import DfssBigBirdAttention, DfssLinformerAttention, DfssNystromformerAttention

__all__ = [
    "AttentionMechanism",
    "MECHANISM_REGISTRY",
    "FullAttention",
    "DfssMechanism",
    "ExplicitTopKAttention",
    "LocalWindowAttention",
    "StridedSparseAttention",
    "TruncatedAttention",
    "LongformerAttention",
    "BigBirdAttention",
    "SynthesizerAttention",
    "LinformerAttention",
    "LinearTransformerAttention",
    "PerformerAttention",
    "ReformerAttention",
    "RoutingTransformerAttention",
    "SinkhornAttention",
    "NystromformerAttention",
    "DfssBigBirdAttention",
    "DfssLinformerAttention",
    "DfssNystromformerAttention",
]
