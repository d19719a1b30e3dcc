"""Transformer encoder models with task heads (classification, span QA, MLM).

These are the models the accuracy experiments train: small BERT-style
encoders whose attention mechanism can be swapped (full / DFSS / any baseline)
before or after training.  The architecture follows the LRA reference setup:
token embedding + sinusoidal positions, pre-norm encoder layers with GELU
feed-forward blocks, and a task head on top.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn import functional as F
from repro.nn.attention_layer import MultiHeadSelfAttention
from repro.nn.autograd import Tensor
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear, Module
from repro.utils.seeding import new_rng


def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    """Standard sinusoidal positional encodings (not trained)."""
    positions = np.arange(max_len)[:, None].astype(np.float64)
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    table = np.zeros((max_len, dim), dtype=np.float32)
    table[:, 0::2] = np.sin(positions * div)
    table[:, 1::2] = np.cos(positions * div[: (dim // 2 + dim % 2)])[:, : table[:, 1::2].shape[1]]
    return table


class TransformerEncoderLayer(Module):
    """Pre-norm encoder layer: MHSA + GELU feed-forward, both with residuals."""

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        ffn_dim: int,
        mechanism: str = "full",
        dropout: float = 0.0,
        seed=0,
        max_len: int = 512,
        **mechanism_kwargs,
    ):
        super().__init__()
        rng = new_rng(seed)
        self.attention = MultiHeadSelfAttention(
            model_dim,
            num_heads,
            mechanism=mechanism,
            dropout=dropout,
            seed=rng.integers(1 << 31),
            max_len=max_len,
            **mechanism_kwargs,
        )
        self.norm1 = LayerNorm(model_dim)
        self.norm2 = LayerNorm(model_dim)
        self.ffn_in = Linear(model_dim, ffn_dim, seed=rng.integers(1 << 31))
        self.ffn_out = Linear(ffn_dim, model_dim, seed=rng.integers(1 << 31))
        self.dropout = Dropout(dropout, seed=rng.integers(1 << 31))

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attention(self.norm1(x))
        # no name for the GELU output: the graph does not keep it, so it dies
        # as soon as ffn_out has read it, before the residual sum
        return x + self.dropout(self.ffn_out(F.gelu(self.ffn_in(self.norm2(x)))))


class TransformerEncoder(Module):
    """Token embedding + positional encoding + a stack of encoder layers."""

    def __init__(
        self,
        vocab_size: int,
        max_len: int,
        model_dim: int = 64,
        num_heads: int = 4,
        num_layers: int = 2,
        ffn_dim: int = 128,
        mechanism: str = "full",
        dropout: float = 0.0,
        seed=0,
        **mechanism_kwargs,
    ):
        super().__init__()
        rng = new_rng(seed)
        self.vocab_size = vocab_size
        self.max_len = max_len
        self.model_dim = model_dim
        self.embedding = Embedding(vocab_size, model_dim, seed=rng.integers(1 << 31))
        self.positions = sinusoidal_positions(max_len, model_dim)
        self.final_norm = LayerNorm(model_dim)
        self.layers: List[TransformerEncoderLayer] = []
        for i in range(num_layers):
            layer = TransformerEncoderLayer(
                model_dim,
                num_heads,
                ffn_dim,
                mechanism=mechanism,
                dropout=dropout,
                seed=rng.integers(1 << 31),
                max_len=max_len,
                **mechanism_kwargs,
            )
            self.register_module(f"layer_{i}", layer)
            self.layers.append(layer)

    def set_mechanism(self, mechanism: str, **mechanism_kwargs) -> None:
        """Swap the attention mechanism of every layer (weights untouched)."""
        for layer in self.layers:
            layer.attention.set_mechanism(mechanism, **mechanism_kwargs)

    @property
    def mechanism(self) -> str:
        return self.layers[0].attention.mechanism if self.layers else "full"

    def forward(self, token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 2:
            raise ValueError("token_ids must have shape (batch, seq)")
        seq = token_ids.shape[1]
        if seq > self.max_len:
            raise ValueError(f"sequence length {seq} exceeds max_len {self.max_len}")
        x = self.embedding(token_ids) + Tensor(self.positions[:seq])
        for layer in self.layers:
            x = layer(x)
        return self.final_norm(x)

    def attention_weight_matrices(self, token_ids: np.ndarray) -> List[np.ndarray]:
        """Dense attention-weight matrices of the first layer (Figure-19 style).

        Returns one ``(batch, heads, seq, seq)`` array per mask-producing layer;
        non-mask mechanisms return the dense softmax weights.
        """
        from repro.core.softmax import dense_softmax, masked_dense_softmax

        token_ids = np.asarray(token_ids)
        x = self.embedding(token_ids) + Tensor(self.positions[: token_ids.shape[1]])
        maps = []
        for layer in self.layers:
            attn = layer.attention
            normed = layer.norm1(x)
            batch, seq, _ = normed.shape
            q = attn._split_heads(attn.q_proj(normed), batch, seq).data
            k = attn._split_heads(attn.k_proj(normed), batch, seq).data
            scores = np.matmul(q, np.swapaxes(k, -1, -2)) / np.sqrt(attn.head_dim)
            x = layer(x)
            # the mask this layer's forward just selected (None for cores
            # without one)
            mask = attn.core.last_mask()
            if mask is None:
                maps.append(dense_softmax(scores))
            else:
                maps.append(masked_dense_softmax(scores, mask))
        return maps


# -------------------------------------------------------------------- heads
class SequenceClassifier(Module):
    """Mean-pooled sequence classification head (LRA-style tasks)."""

    def __init__(self, encoder: TransformerEncoder, num_classes: int, seed=0):
        super().__init__()
        self.encoder = encoder
        self.head = Linear(encoder.model_dim, num_classes, seed=seed)
        self.num_classes = num_classes

    def forward(self, token_ids: np.ndarray) -> Tensor:
        hidden = self.encoder(token_ids)
        pooled = hidden.mean(axis=1)
        return self.head(pooled)

    def loss(self, token_ids: np.ndarray, labels: np.ndarray) -> Tensor:
        return F.cross_entropy(self.forward(token_ids), labels)

    def predict(self, token_ids: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(token_ids).data, axis=-1)


class DualSequenceClassifier(Module):
    """Two-tower classifier for the LRA document-retrieval task.

    Both documents are encoded by the *same* encoder; the pooled vectors are
    combined as ``[u, v, u*v, |u-v|]`` and classified.
    """

    def __init__(self, encoder: TransformerEncoder, num_classes: int = 2, seed=0):
        super().__init__()
        self.encoder = encoder
        self.head = Linear(4 * encoder.model_dim, num_classes, seed=seed)
        self.num_classes = num_classes

    def forward(self, token_ids_pair: np.ndarray) -> Tensor:
        from repro.nn.autograd import concatenate

        token_ids_pair = np.asarray(token_ids_pair)
        if token_ids_pair.ndim != 3 or token_ids_pair.shape[1] != 2:
            raise ValueError("expected token ids of shape (batch, 2, seq)")
        u = self.encoder(token_ids_pair[:, 0]).mean(axis=1)
        v = self.encoder(token_ids_pair[:, 1]).mean(axis=1)
        diff = u - v
        abs_diff = (diff * diff + 1e-12).sqrt()
        features = concatenate([u, v, u * v, abs_diff], axis=-1)
        return self.head(features)

    def loss(self, token_ids_pair: np.ndarray, labels: np.ndarray) -> Tensor:
        return F.cross_entropy(self.forward(token_ids_pair), labels)

    def predict(self, token_ids_pair: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(token_ids_pair).data, axis=-1)


class SpanQAModel(Module):
    """Span-extraction QA head (start / end logits), the SQuAD-style task."""

    def __init__(self, encoder: TransformerEncoder, seed=0):
        super().__init__()
        self.encoder = encoder
        self.span_head = Linear(encoder.model_dim, 2, seed=seed)

    def forward(self, token_ids: np.ndarray):
        hidden = self.encoder(token_ids)
        logits = self.span_head(hidden)  # (batch, seq, 2)
        start = logits[..., 0]
        end = logits[..., 1]
        return start, end

    def loss(self, token_ids: np.ndarray, spans: np.ndarray) -> Tensor:
        spans = np.asarray(spans)
        start_logits, end_logits = self.forward(token_ids)
        return (
            F.cross_entropy(start_logits, spans[:, 0])
            + F.cross_entropy(end_logits, spans[:, 1])
        ) * 0.5

    def predict(self, token_ids: np.ndarray) -> np.ndarray:
        start_logits, end_logits = self.forward(token_ids)
        starts = np.argmax(start_logits.data, axis=-1)
        ends = np.argmax(end_logits.data, axis=-1)
        ends = np.maximum(starts, ends)  # enforce a valid span
        return np.stack([starts, ends], axis=1)


class MaskedLanguageModel(Module):
    """Masked-token prediction head (the Wikitext MLM stand-in)."""

    def __init__(self, encoder: TransformerEncoder, seed=0):
        super().__init__()
        self.encoder = encoder
        self.lm_head = Linear(encoder.model_dim, encoder.vocab_size, seed=seed)

    def forward(self, token_ids: np.ndarray) -> Tensor:
        return self.lm_head(self.encoder(token_ids))

    def loss(self, token_ids: np.ndarray, targets: np.ndarray, ignore_index: int = -100) -> Tensor:
        logits = self.forward(token_ids)
        return F.cross_entropy(logits, targets, ignore_index=ignore_index)
