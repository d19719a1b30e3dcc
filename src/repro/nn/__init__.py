"""NumPy autograd + transformer stack used by the accuracy experiments.

* :mod:`repro.nn.autograd` — reverse-mode autodiff Tensor;
* :mod:`repro.nn.functional` — softmax / gelu / layer-norm / cross-entropy;
* :mod:`repro.nn.layers` — Module, Linear, Embedding, LayerNorm, Dropout;
* :mod:`repro.nn.attention_layer` — multi-head attention with swappable
  mechanism (full / DFSS / all Table-4 baselines);
* :mod:`repro.nn.sparse_attention` — the compressed DFSS attention autograd
  op (sparse forward *and* analytic sparse backward);
* :mod:`repro.nn.transformer` — encoder models and task heads;
* :mod:`repro.nn.optim`, :mod:`repro.nn.trainer` — optimisers and loops.
"""

from repro.nn.autograd import Tensor, parameter
from repro.nn.attention_layer import MultiHeadSelfAttention
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear, Module, Sequential
from repro.nn.optim import SGD, Adam, AdamW, clip_grad_norm
from repro.nn.sparse_attention import dfss_sparse_attention
from repro.nn.trainer import Trainer, evaluate_classification, evaluate_mlm, evaluate_span_qa
from repro.nn.transformer import (
    DualSequenceClassifier,
    MaskedLanguageModel,
    SequenceClassifier,
    SpanQAModel,
    TransformerEncoder,
    TransformerEncoderLayer,
)

__all__ = [
    "Tensor",
    "parameter",
    "MultiHeadSelfAttention",
    "dfss_sparse_attention",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Linear",
    "Module",
    "Sequential",
    "SGD",
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "Trainer",
    "evaluate_classification",
    "evaluate_mlm",
    "evaluate_span_qa",
    "DualSequenceClassifier",
    "MaskedLanguageModel",
    "SequenceClassifier",
    "SpanQAModel",
    "TransformerEncoder",
    "TransformerEncoderLayer",
]
