"""Table 6 (Appendix A.7): combining DFSS with Nyströmformer on the Image task.

Paper setup: a Nyströmformer is pretrained from scratch on LRA Image, then
finetuned for 1/10 of the training steps under plain Nyströmformer and under
Nyströmformer + DFSS 1:2 / 2:4; the combination matches or improves accuracy.
Here the task is the synthetic pixel-sequence dataset and the models are the
small encoders of the harness, with the same pretrain -> light-finetune
protocol (finetune budget = 1/10 of pretraining, as in the paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.data.image import generate_image_dataset
from repro.data.qa import train_test_split
from repro.experiments.common import build_encoder, image_config, model_scale, resolve_scale
from repro.nn.trainer import Trainer, evaluate_classification
from repro.nn.transformer import SequenceClassifier
from repro.utils.formatting import format_table

VARIANTS = (
    ("Nystromformer", "nystromformer", {"num_landmarks": 16}),
    ("Nystromformer + Dfss 1:2", "nystromformer_dfss", {"num_landmarks": 16, "pattern": "1:2"}),
    ("Nystromformer + Dfss 2:4", "nystromformer_dfss", {"num_landmarks": 16, "pattern": "2:4"}),
)


def run(scale: Optional[str] = None, seed: int = 0) -> Dict:
    scale = resolve_scale(scale)
    cfg = image_config(scale)
    ms = model_scale(scale)
    tokens, labels = generate_image_dataset(cfg, seed=seed)
    x_train, y_train, x_test, y_test = train_test_split(tokens, labels, seed=seed)

    # pretrain a standard Nystromformer from scratch
    encoder = build_encoder(cfg.vocab_size, cfg.seq_len, scale,
                            mechanism="nystromformer", seed=seed, num_landmarks=16)
    model = SequenceClassifier(encoder, num_classes=cfg.num_classes, seed=seed + 1)
    trainer = Trainer(model, lr=ms.lr, batch_size=ms.batch_size, seed=seed)
    trainer.train_steps(x_train, y_train, ms.train_steps)
    pretrain_acc = 100.0 * evaluate_classification(model, x_test, y_test)
    pretrained = model.state_dict()

    finetune_steps = max(1, ms.train_steps // 10)
    rows: List[List] = []
    for label, mechanism, kwargs in VARIANTS:
        model.load_state_dict(pretrained)
        model.encoder.set_mechanism(mechanism, **kwargs)
        trainer_ft = Trainer(model, lr=ms.lr / 3, batch_size=ms.batch_size, seed=seed + 7)
        trainer_ft.train_steps(x_train, y_train, finetune_steps)
        acc = 100.0 * evaluate_classification(model, x_test, y_test)
        rows.append([label, acc])

    return {
        "experiment": "table6",
        "scale": scale,
        "seed": seed,
        "pretraining_accuracy": pretrain_acc,
        "headers": ["model", "accuracy after finetuning"],
        "rows": rows,
    }


def format_result(result: Dict) -> str:
    table = format_table(result["headers"], result["rows"], digits=2,
                         title=f"Table 6 (Nystromformer + Dfss, scale={result['scale']})")
    return table + f"\nPretraining accuracy (Nystromformer): {result['pretraining_accuracy']:.2f}"
