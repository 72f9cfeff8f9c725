"""Train a tiny four-stage model end to end on a synthetic separable
two-class set, once per token mixer, and watch every variant classify.

Run: python demos/train_tiny.py   (about 20 seconds)
"""

from mixerlab.metaformer import MetaFormer, ModelConfig
from mixerlab.mixers import MixerSpec
from mixerlab.trainer import TrainConfig, make_two_class_blobs, train_classifier

images, labels = make_two_class_blobs(64, hw=(32, 32), seed=7)
print(f"dataset: {len(labels)} images, class balance {labels.mean():.2f}\n")

for kind in ("identity", "pooling", "conv", "grouped_conv", "local_attn", "global_attn"):
    config = ModelConfig(
        stage_channels=(8, 16, 24, 32),
        stage_depths=(1, 1, 1, 1),
        signature=tuple(MixerSpec(kind, kernel=3) for _ in range(4)),
        input_hw=(32, 32),
        head="classify",
        num_classes=2,
    )
    model = MetaFormer(config, seed=11)
    cfg = TrainConfig(epochs=40, batch_size=16, warmup_epochs=5, seed=13, max_steps=160)
    result = train_classifier(model, images, labels, cfg)
    first = result.history[0]["loss"]
    last = result.history[-1]["loss"]
    print(
        f"{kind:>13}: loss {first:.3f} -> {last:.3f}, "
        f"train accuracy {result.final_train_accuracy:.2%}"
    )
