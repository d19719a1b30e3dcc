"""Tests for the transformer models, heads and the training loop."""

import numpy as np
import pytest

from repro.data.mlm import IGNORE_INDEX, SynthMLMConfig, generate_mlm_dataset
from repro.data.qa import SynthQAConfig, generate_qa_dataset
from repro.nn.trainer import (
    Trainer,
    evaluate_classification,
    evaluate_mlm,
    evaluate_span_qa,
    exact_match,
    iterate_minibatches,
    run_seeded_trials,
    span_f1,
)
from repro.nn.transformer import (
    DualSequenceClassifier,
    MaskedLanguageModel,
    SequenceClassifier,
    SpanQAModel,
    TransformerEncoder,
    sinusoidal_positions,
)


def _tiny_encoder(vocab=24, seq=16, mechanism="full", seed=0):
    return TransformerEncoder(
        vocab_size=vocab, max_len=seq, model_dim=16, num_heads=2, num_layers=1,
        ffn_dim=32, mechanism=mechanism, seed=seed,
    )


class TestEncoder:
    def test_positions_shape_and_range(self):
        table = sinusoidal_positions(32, 16)
        assert table.shape == (32, 16)
        assert np.abs(table).max() <= 1.0 + 1e-6

    def test_forward_shape(self):
        enc = _tiny_encoder()
        ids = np.random.default_rng(0).integers(0, 24, size=(2, 16))
        out = enc(ids)
        assert out.shape == (2, 16, 16)

    def test_rejects_bad_inputs(self):
        enc = _tiny_encoder()
        with pytest.raises(ValueError):
            enc(np.zeros((2, 32), dtype=np.int64))  # longer than max_len
        with pytest.raises(ValueError):
            enc(np.zeros(16, dtype=np.int64))  # not 2-D

    def test_set_mechanism_propagates_to_all_layers(self):
        enc = TransformerEncoder(24, 16, model_dim=16, num_heads=2, num_layers=3,
                                 ffn_dim=32, mechanism="full", seed=0)
        enc.set_mechanism("dfss", pattern="2:4")
        assert all(l.attention.mechanism == "dfss" for l in enc.layers)
        assert enc.mechanism == "dfss"

    def test_attention_weight_matrices(self):
        enc = _tiny_encoder(mechanism="dfss_2:4")
        ids = np.random.default_rng(1).integers(0, 24, size=(2, 16))
        maps = enc.attention_weight_matrices(ids)
        assert len(maps) == 1
        assert maps[0].shape == (2, 2, 16, 16)
        np.testing.assert_allclose(maps[0].sum(-1), 1.0, atol=1e-4)
        # DFSS maps have at most 50% nonzeros
        assert (maps[0] > 1e-9).mean() <= 0.5 + 1e-6

    def test_attention_weight_matrices_over_linformer_projection(self):
        # linformer_dfss selects over the projected keys (proj_dim < seq), so
        # it reports no dense mask and its maps are the dense softmax weights
        enc = TransformerEncoder(
            vocab_size=24, max_len=16, model_dim=16, num_heads=2, num_layers=1,
            ffn_dim=32, mechanism="linformer_dfss", proj_dim=8, seed=0,
        )
        ids = np.random.default_rng(1).integers(0, 24, size=(2, 16))
        maps = enc.attention_weight_matrices(ids)
        assert maps[0].shape == (2, 2, 16, 16)
        np.testing.assert_allclose(maps[0].sum(-1), 1.0, atol=1e-4)
        assert (maps[0] > 0).all()

    def test_state_dict_roundtrip(self):
        enc1 = _tiny_encoder(seed=0)
        enc2 = _tiny_encoder(seed=99)
        enc2.load_state_dict(enc1.state_dict())
        ids = np.random.default_rng(2).integers(0, 24, size=(1, 16))
        np.testing.assert_allclose(enc1(ids).data, enc2(ids).data, atol=1e-6)


class TestHeads:
    def test_sequence_classifier(self):
        model = SequenceClassifier(_tiny_encoder(), num_classes=3, seed=0)
        ids = np.random.default_rng(0).integers(0, 24, size=(4, 16))
        labels = np.array([0, 1, 2, 1])
        logits = model(ids)
        assert logits.shape == (4, 3)
        loss = model.loss(ids, labels)
        loss.backward()
        assert np.isfinite(loss.item())
        assert model.predict(ids).shape == (4,)

    def test_dual_classifier(self):
        model = DualSequenceClassifier(_tiny_encoder(), num_classes=2, seed=0)
        pairs = np.random.default_rng(1).integers(0, 24, size=(3, 2, 16))
        labels = np.array([0, 1, 0])
        assert model(pairs).shape == (3, 2)
        assert np.isfinite(model.loss(pairs, labels).item())
        with pytest.raises(ValueError):
            model(np.zeros((3, 16), dtype=np.int64))

    def test_span_qa_model(self):
        model = SpanQAModel(_tiny_encoder(), seed=0)
        ids = np.random.default_rng(2).integers(0, 24, size=(3, 16))
        spans = np.array([[2, 4], [5, 7], [0, 1]])
        start, end = model(ids)
        assert start.shape == (3, 16) and end.shape == (3, 16)
        assert np.isfinite(model.loss(ids, spans).item())
        preds = model.predict(ids)
        assert preds.shape == (3, 2)
        assert np.all(preds[:, 1] >= preds[:, 0])  # valid spans

    def test_mlm_model(self):
        model = MaskedLanguageModel(_tiny_encoder(), seed=0)
        tokens, targets = generate_mlm_dataset(
            SynthMLMConfig(num_examples=4, seq_len=16, vocab_size=24), seed=0
        )
        logits = model(tokens)
        assert logits.shape == (4, 16, 24)
        assert np.isfinite(model.loss(tokens, targets, ignore_index=IGNORE_INDEX).item())


class TestTrainerAndMetrics:
    def test_minibatch_iteration_covers_everything(self):
        x = np.arange(10)[:, None]
        y = np.arange(10)
        seen = []
        for xb, yb in iterate_minibatches(x, y, 3, rng=np.random.default_rng(0)):
            seen.extend(yb.tolist())
        assert sorted(seen) == list(range(10))

    def test_span_f1_and_exact_match(self):
        preds = np.array([[2, 4], [5, 6]])
        golds = np.array([[2, 4], [7, 8]])
        assert span_f1(preds, golds) == pytest.approx(0.5)
        assert exact_match(preds, golds) == pytest.approx(0.5)
        assert span_f1(np.array([[1, 3]]), np.array([[2, 4]])) == pytest.approx(2 / 3, abs=1e-6)

    def test_trainer_reduces_loss_on_separable_task(self):
        rng = np.random.default_rng(0)
        x0 = rng.integers(0, 12, size=(24, 16))
        x1 = rng.integers(12, 24, size=(24, 16))
        x = np.concatenate([x0, x1])
        y = np.array([0] * 24 + [1] * 24)
        model = SequenceClassifier(_tiny_encoder(mechanism="dfss_2:4"), num_classes=2, seed=0)
        trainer = Trainer(model, lr=3e-3, batch_size=16, seed=0)
        result = trainer.train_steps(x, y, max_steps=30)
        assert result.steps == 30
        assert result.losses[-1] < result.losses[0]
        assert evaluate_classification(model, x, y) > 0.9

    def test_evaluate_span_qa_and_mlm(self):
        cfg = SynthQAConfig(num_examples=8, seq_len=32, vocab_size=32)
        tokens, spans = generate_qa_dataset(cfg, seed=0)
        qa = SpanQAModel(_tiny_encoder(vocab=32, seq=32), seed=0)
        metrics = evaluate_span_qa(qa, tokens, spans)
        assert set(metrics) == {"f1", "exact_match"}
        assert 0.0 <= metrics["f1"] <= 1.0

        mlm_tokens, mlm_targets = generate_mlm_dataset(
            SynthMLMConfig(num_examples=6, seq_len=16, vocab_size=24), seed=0
        )
        mlm = MaskedLanguageModel(_tiny_encoder(), seed=0)
        metrics = evaluate_mlm(mlm, mlm_tokens, mlm_targets)
        assert metrics["perplexity"] >= 1.0

    def test_run_seeded_trials(self):
        stats = run_seeded_trials(lambda s: float(s % 3), seeds=[0, 1, 2, 3])
        assert stats["n"] == 4
        assert stats["mean"] == pytest.approx(np.mean([0, 1, 2, 0]))
        assert stats["ci95"] >= 0.0
