"""Four-stage MetaFormer assembly with classification and segmentation heads.

The S12 layout (channels 64/128/320/512, depths 2/2/6/2) totals about
11.4M trainable parameters with parameter-free mixers: patch embeddings
downsample 4x then 2x per stage, every block is norm -> mixer ->
LayerScale -> residual, norm -> channel MLP -> LayerScale -> residual,
and a final norm feeds either GAP + linear (classify) or the all-MLP
decoder (segment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import FLOAT, HW, INT, INTS, TEXT, Key, ValueType
from .config import field_values, format_section, owned_by, read_ini
from .errors import ConfigError, ShapeError
from .mixers import MixerSpec, apply_mixer, head_count, init_mixer_params
from .tensor import (
    Registry,
    Tensor,
    add,
    bilinear_resize,
    conv2d,
    gelu,
    global_avg_pool,
    layer_norm,
    linear,
    matmul,
    mul,
    reshape,
    split,
    transpose,
)

# per-stage patch embedding geometry (kernel, stride, padding): stage 0
# downsamples by four, later stages halve
PATCH_EMBEDS = ((7, 4, 2), (3, 2, 1), (3, 2, 1), (3, 2, 1))


def parse_signature(text: str) -> tuple[MixerSpec, ...]:
    """Parse 'pooling:3,pooling:3,global_attn,global_attn' into MixerSpecs."""
    parts = [p.strip().partition(":") for p in text.split(",") if p.strip()]
    return tuple(MixerSpec(kind.strip(), kernel=int(kernel)) if sep else MixerSpec(kind)
                 for kind, sep, kernel in parts)


def format_signature(signature) -> str:
    return ",".join(f"{spec.kind}:{spec.kernel}" if spec.uses_kernel else spec.kind for spec in signature)


@dataclass(frozen=True)
class ModelConfig:
    stage_channels: tuple[int, ...] = (64, 128, 320, 512)
    stage_depths: tuple[int, ...] = (2, 2, 6, 2)
    signature: tuple[MixerSpec, ...] = tuple(MixerSpec("pooling", 3) for _ in range(4))
    mlp_ratio: int = 4
    head: str = "classify"  # classify | segment
    num_classes: int = 10
    decoder_dim: int = 256
    input_hw: tuple[int, int] = (224, 224)
    layerscale_init: float = 1e-5
    stochastic_depth_max: float = 0.1

    def __post_init__(self):
        if len(self.stage_channels) != 4 or len(self.stage_depths) != 4 or len(self.signature) != 4:
            raise ConfigError("exactly 4 stages: channels, depths and signature must each have 4 entries")
        if self.head not in ("classify", "segment"):
            raise ConfigError(f"head must be classify or segment, got {self.head!r}")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.mlp_ratio < 1:
            raise ConfigError("mlp_ratio must be >= 1")
        if min(self.stage_channels + self.input_hw) < 1 or self.decoder_dim < 1 or min(self.stage_depths) < 0:
            raise ConfigError("channels, input size and decoder_dim must be positive, depths non-negative")
        for c, spec in zip(self.stage_channels, self.signature):
            if spec.is_attention:
                head_count(c)  # raises if the head split does not work out

    def stage_hw(self) -> list[tuple[int, int]]:
        """Spatial size per stage: the input divided by each patch embedding's stride in turn."""
        h, w = self.input_hw
        out = []
        for i, (_, factor, _) in enumerate(PATCH_EMBEDS):
            if h % factor or w % factor:
                raise ConfigError(
                    f"stage {i} needs input divisible by {factor}, got {h}x{w} (no implicit crop)")
            h, w = h // factor, w // factor
            out.append((h, w))
        return out

    def to_ini(self) -> str:
        return format_section("model", MODEL_KEYS, {k.name: getattr(self, k.field) for k in MODEL_KEYS})

    @staticmethod
    def from_ini(text: str) -> "ModelConfig":
        values = read_ini(text, {"model": MODEL_KEYS})["model"]
        return ModelConfig(**field_values(MODEL_KEYS, values))


SIGNATURE = ValueType(parse_signature, format_signature)

# the [model] section, also the config text stored in checkpoints
MODEL_KEYS = owned_by(
    ModelConfig,
    Key("channels", INTS, field="stage_channels"),
    Key("depths", INTS, field="stage_depths"),
    Key("signature", SIGNATURE),
    Key("mlp_ratio", INT),
    Key("head", TEXT),
    Key("classes", INT, field="num_classes"),
    Key("decoder_dim", INT),
    Key("input", HW, field="input_hw"),
    Key("layerscale_init", FLOAT),
    Key("stochastic_depth", FLOAT, field="stochastic_depth_max"),
)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


class Norm:
    def __init__(self, params: Registry, prefix: str, c: int):
        self.gamma = params.new(f"{prefix}.gamma", (c,), 1.0)
        self.beta = params.new(f"{prefix}.beta", (c,), 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class ChannelMlp:
    """Pointwise two-layer MLP over the channel axis of (B, C, H, W)."""

    def __init__(self, params: Registry, prefix: str, c: int, ratio: int):
        self.fc1_w = params.new(f"{prefix}.fc1.weight", (ratio * c, c))
        self.fc1_b = params.new(f"{prefix}.fc1.bias", (ratio * c,), 0.0)
        self.fc2_w = params.new(f"{prefix}.fc2.weight", (c, ratio * c))
        self.fc2_b = params.new(f"{prefix}.fc2.bias", (c,), 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        t = transpose(x, (0, 2, 3, 1))
        t = linear(t, self.fc1_w, self.fc1_b)
        t = gelu(t)
        t = linear(t, self.fc2_w, self.fc2_b)
        return transpose(t, (0, 3, 1, 2))


class PatchEmbed:
    def __init__(self, params: Registry, prefix: str, cin: int, cout: int, k: int, stride: int,
                 padding: int):
        self.kernel = params.new(f"{prefix}.kernel", (cout, cin, k, k))
        self.bias = params.new(f"{prefix}.bias", (cout,), 0.0)
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[2] % self.stride or x.shape[3] % self.stride:
            raise ConfigError(
                f"input {x.shape[2]}x{x.shape[3]} not divisible by patch-embed stride {self.stride}"
            )
        return conv2d(x, self.kernel, self.bias, stride=self.stride, padding=self.padding)


def _drop_path(x: Tensor, p: float, training: bool, rng) -> Tensor:
    if not training or p <= 0.0:
        return x
    if rng is None:
        raise ConfigError("training with stochastic depth needs an rng")
    keep = 1.0 - p
    mask = (rng.random(x.shape[0]) < keep).astype(np.float64) / keep
    return mul(x, Tensor(mask.reshape(-1, 1, 1, 1)))


class Block:
    """One MetaFormer block: mixer branch plus channel-MLP branch.

    With both LayerScale vectors at zero and drop-path off, the block is
    exactly the identity map.
    """

    def __init__(self, params: Registry, prefix: str, c: int, spec: MixerSpec, mlp_ratio: int,
                 layerscale_init: float, droppath_p: float, pos_emb: Optional[Tensor] = None):
        self.channels = c
        self.spec = spec
        self.norm1 = Norm(params, f"{prefix}.norm1", c)
        self.mixer_params = init_mixer_params(spec, c, params, f"{prefix}.mixer")
        if pos_emb is not None:  # shared by the blocks of a stage, which makes it
            self.mixer_params["pos_emb"] = pos_emb
        self.ls1 = params.new(f"{prefix}.layerscale1", (c,), layerscale_init)
        self.norm2 = Norm(params, f"{prefix}.norm2", c)
        self.mlp = ChannelMlp(params, f"{prefix}.mlp", c, mlp_ratio)
        self.ls2 = params.new(f"{prefix}.layerscale2", (c,), layerscale_init)
        self.droppath_p = droppath_p

    def forward(self, x: Tensor, training: bool = False, rng=None) -> Tensor:
        c = self.channels
        scale1 = reshape(self.ls1, (1, c, 1, 1))
        branch = mul(apply_mixer(self.spec, self.mixer_params, self.norm1(x)), scale1)
        x = add(x, _drop_path(branch, self.droppath_p, training, rng))
        scale2 = reshape(self.ls2, (1, c, 1, 1))
        branch = mul(self.mlp(self.norm2(x)), scale2)
        return add(x, _drop_path(branch, self.droppath_p, training, rng))


class SegDecoder:
    """SegFormer's all-MLP decoder: each stage projected to ``dim`` channels (P_i, b_i),
    upsampled to the stage-0 grid, concatenated and fused, then GELU, a pointwise classifier
    and 4x upsampling. Resampling commutes with pointwise maps, so the fuse runs as ``fuse.bias
    + sum_i up((W_i P_i) f_i + W_i b_i)``, W_i the i-th ``dim`` columns of ``fuse.weight``: no
    map of 4 * dim channels is built. Constant feature maps give spatially constant logits."""

    def __init__(self, params: Registry, prefix: str, stage_channels, dim: int, num_classes: int):
        self.projs = [  # per-stage (weight, bias)
            (params.new(f"{prefix}.proj{i}.weight", (dim, c)),
             params.new(f"{prefix}.proj{i}.bias", (dim,), 0.0))
            for i, c in enumerate(stage_channels)
        ]
        self.fuse_w = params.new(f"{prefix}.fuse.weight", (dim, 4 * dim))
        self.fuse_b = params.new(f"{prefix}.fuse.bias", (dim,), 0.0)
        self.cls_w = params.new(f"{prefix}.classifier.weight", (num_classes, dim))
        self.cls_b = params.new(f"{prefix}.classifier.bias", (num_classes,), 0.0)

    def __call__(self, features: list[Tensor], out_hw: tuple[int, int]) -> Tensor:
        (h0, w0), dim = features[0].shape[2:], self.fuse_b.shape[0]
        t = reshape(self.fuse_b, (1, dim, 1, 1))
        for (p, b), w, feat in zip(self.projs, split(self.fuse_w, len(self.projs), axis=1), features):
            kernel = reshape(matmul(w, p), (dim, p.shape[1], 1, 1))
            t = add(t, bilinear_resize(conv2d(feat, kernel, linear(b, w)), h0, w0))
        logits = conv2d(gelu(t), reshape(self.cls_w, self.cls_w.shape + (1, 1)), self.cls_b)
        return bilinear_resize(logits, *out_hw)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


class MetaFormer:
    """The four-stage model. Its parameters draw from ``seed`` in creation
    order, or, given ``arrays`` (name -> array, as a checkpoint holds them),
    take their values from those arrays and draw nothing (see ``Registry``);
    an array that is missing, of the wrong shape or unused raises ShapeError."""

    def __init__(self, config: ModelConfig, seed: int = 0, arrays: Optional[dict] = None):
        self.config = config
        params = Registry(np.random.default_rng(seed) if arrays is None else None, arrays)
        chans = config.stage_channels
        stage_hw = config.stage_hw()

        self.patch_embeds = [  # stage 0 takes RGB
            PatchEmbed(params, f"patch_embed{i}", cin, cout, *PATCH_EMBEDS[i])
            for i, (cin, cout) in enumerate(zip((3,) + chans[:3], chans))
        ]

        total_blocks = sum(config.stage_depths)
        self.stages: list[list[Block]] = []
        block_index = 0
        for i in range(4):
            spec = config.signature[i]
            pos = None
            if spec.kind == "global_attn":
                pos = params.new(f"stage{i}.pos_emb", (chans[i],) + stage_hw[i])
            blocks = []
            for j in range(config.stage_depths[i]):
                p = config.stochastic_depth_max * block_index / max(total_blocks - 1, 1)
                blocks.append(Block(params, f"stage{i}.block{j}", chans[i], spec, config.mlp_ratio,
                                    config.layerscale_init, p, pos_emb=pos))
                block_index += 1
            self.stages.append(blocks)

        self.final_norm = Norm(params, "final_norm", chans[3])
        if config.head == "classify":
            self.head_w = params.new("head.weight", (config.num_classes, chans[3]))
            self.head_b = params.new("head.bias", (config.num_classes,), 0.0)
            self.decoder = None
        else:
            self.head_w = self.head_b = None
            self.decoder = SegDecoder(params, "decoder", chans, config.decoder_dim, config.num_classes)
        self._params = params.tensors
        extra = sorted(set(arrays or ()) - set(self._params))
        if extra:
            raise ShapeError(f"arrays the model does not use: {extra[:4]}")

    # -- forward ----------------------------------------------------------

    def forward_features(self, images: Tensor, training: bool = False, rng=None) -> list[Tensor]:
        """Run all four stages; returns the last feature map of each stage."""
        x = images
        feats = []
        for embed, blocks in zip(self.patch_embeds, self.stages):
            x = embed(x)
            for block in blocks:
                x = block.forward(x, training=training, rng=rng)
            feats.append(x)
        return feats

    def forward_classify(self, images: Tensor, training: bool = False, rng=None) -> Tensor:
        if self.config.head != "classify":
            raise ConfigError("model was built with a segmentation head")
        feats = self.forward_features(images, training, rng)
        x = self.final_norm(feats[-1])
        pooled = global_avg_pool(x)
        return linear(pooled, self.head_w, self.head_b)

    def forward_segment(self, images: Tensor, training: bool = False, rng=None) -> Tensor:
        if self.config.head != "segment":
            raise ConfigError("model was built with a classification head")
        feats = self.forward_features(images, training, rng)
        feats[-1] = self.final_norm(feats[-1])
        return self.decoder(feats, (images.shape[2], images.shape[3]))

    def forward(self, images: Tensor, training: bool = False, rng=None) -> Tensor:
        if self.config.head == "classify":
            return self.forward_classify(images, training, rng)
        return self.forward_segment(images, training, rng)

    # -- parameters --------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        """Every parameter by its dotted name, in creation (and draw) order."""
        return dict(self._params)

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}


def count_params(model: MetaFormer) -> dict[str, int]:
    """Exact integer parameter counts, bucketed by component."""
    buckets = {"backbone_ex_mixers": 0, "mixers": 0, "pos_emb": 0, "head": 0}
    for name, t in model.named_parameters().items():
        if ".mixer." in name:
            buckets["mixers"] += t.size
        elif name.endswith("pos_emb"):
            buckets["pos_emb"] += t.size
        elif name.startswith(("head.", "decoder.")):
            buckets["head"] += t.size
        else:
            buckets["backbone_ex_mixers"] += t.size
    buckets["total"] = sum(buckets.values())
    return buckets

