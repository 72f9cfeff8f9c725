"""perfbench's tracer wraps model parts by class and method name: a renamed
part must fail here, not only in a traced benchmark run."""

import importlib.util
import pathlib

import numpy as np

import mixerlab.cli  # noqa: F401  (the tracer wraps names in every mixerlab module)
from mixerlab import metaformer, mixers, tensor
from mixerlab.metaformer import MetaFormer, ModelConfig, parse_signature
from mixerlab.tensor import Tensor

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names():
    """Three names the tracer rebinds: a tensor op, its import into metaformer, a part's method."""
    return tensor.conv2d, metaformer.conv2d, vars(metaformer.ChannelMlp)["__call__"]


def test_tracer_times_model_parts_and_restores_the_originals():
    originals = traced_names()
    model = MetaFormer(ModelConfig(stage_channels=(8, 16, 24, 32), stage_depths=(1, 1, 1, 1),
                                   input_hw=(32, 32), num_classes=2), seed=0)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        model.forward_classify(Tensor(np.random.default_rng(0).standard_normal((1, 3, 32, 32))))
        times = tracer.take(1.0)
    finally:
        tracer.uninstall()
    for part in ("norm", "mlp", "patch_embed"):
        assert times[f"metaformer.{part}.s"] > 0, part
    assert all(now is before for now, before in zip(traced_names(), originals))


def test_tracer_times_every_mixer_kind_and_restores_the_mixers():
    tracing = load_tracing()
    originals = {name: getattr(mixers, name) for name in tracing.MIXER_FUNCS}
    signatures = ("identity,pooling:3,conv:3,grouped_conv:3", "local_attn:3,local_attn:3,global_attn,global_attn")
    models = [
        MetaFormer(ModelConfig(stage_channels=(16, 16, 16, 16), stage_depths=(1, 1, 1, 1), input_hw=(32, 32),
                               signature=parse_signature(text), num_classes=2), seed=0)
        for text in signatures
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for model in models:
            model.forward_classify(Tensor(np.random.default_rng(0).standard_normal((1, 3, 32, 32))))
        times = tracer.take(1.0)
    finally:
        tracer.uninstall()
    for kind in tracing.MIXER_FUNCS.values():
        assert times[f"mixers.{kind}.s"] > 0, kind
    assert all(getattr(mixers, name) is fn for name, fn in originals.items())
