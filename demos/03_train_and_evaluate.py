"""Train the dual-branch classifier, checkpoint it, and resume exactly.

A small run end to end: generate a corpus, train with Adam, report held-out
metrics, then demonstrate the exact-resume contract — a run interrupted at an
epoch boundary and restored from its float64 checkpoint finishes with
bit-identical parameters to an unbroken run.
"""

import os
import tempfile

import numpy as np

from gatedfusion.analysis import metrics
from gatedfusion.checkpoint import load_model, save_model
from gatedfusion.model import FusionModel, ModelConfig
from gatedfusion.synth import SynthSpec, generate, model_inputs
from gatedfusion.trainer import TrainConfig, evaluate, make_optimizer, train


def split_pairs(pairs, val_fraction, seed):
    """Deterministic disjoint train/validation split."""
    rng = np.random.default_rng([seed, 13])
    order = rng.permutation(len(pairs))
    val_idx = set(order[: int(round(len(pairs) * val_fraction))].tolist())
    train_pairs = [p for i, p in enumerate(pairs) if i not in val_idx]
    val_pairs = [p for i, p in enumerate(pairs) if i in val_idx]
    return train_pairs, val_pairs


def main():
    corpus = generate(SynthSpec(n_samples=150, seed=4))
    pairs = [model_inputs(s) for s in corpus.samples]
    train_pairs, val_pairs = split_pairs(pairs, val_fraction=0.25, seed=0)

    model_cfg = ModelConfig(d_a=corpus.d_a, d_t=corpus.d_t, d_model=16, n_heads=2,
                            n_layers=1, ff_mult=2, n_classes=corpus.n_classes, seed=0)
    train_cfg = TrainConfig(learning_rate=1e-3, epochs=12, batch_size=16, seed=0)

    model = FusionModel(model_cfg)
    result = train(model, train_pairs, train_cfg, val_pairs=val_pairs)
    for h in result.history[:: max(len(result.history) // 4, 1)]:
        print(f"epoch {h['epoch']:2d}: train loss {h['train_loss']:.4f} "
              f"val acc {h['val_acc']:.3f}")

    _, _, preds = evaluate(model, val_pairs)
    m = metrics(preds, [l for _, _, l in val_pairs], corpus.n_classes)
    print(f"\nvalidation: accuracy {m.accuracy:.3f}, macro F1 {m.macro_f1:.3f}")
    print("confusion matrix (rows = true class):")
    print(m.confusion)

    print("\n== exact resume ==")
    with tempfile.TemporaryDirectory() as tmp:
        half_cfg = TrainConfig(learning_rate=1e-3, epochs=6, batch_size=16, seed=0)
        interrupted = FusionModel(model_cfg)
        opt = make_optimizer(interrupted, half_cfg)
        train(interrupted, train_pairs, half_cfg, optimizer=opt)
        path = os.path.join(tmp, "mid.gfck")
        # the checkpoint stores the parameter vector, then Adam's step count and moment rows
        save_model(interrupted, path, opt)

        restored, ckpt = load_model(path)
        opt2 = make_optimizer(restored, train_cfg)
        opt2.load_state(ckpt.t, ckpt.rows)
        train(restored, train_pairs, train_cfg, start_epoch=6, optimizer=opt2)

        drift = max(float(np.abs(a.data - b.data).max())
                    for a, b in zip(model.parameters(), restored.parameters()))
        print(f"checkpoint at epoch 6, resumed to 12: max parameter drift vs "
              f"unbroken run = {drift} (expected exactly 0.0)")


if __name__ == "__main__":
    main()
