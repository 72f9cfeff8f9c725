"""Four-stage MetaFormer assembly with classification and segmentation heads.

The S12 layout (channels 64/128/320/512, depths 2/2/6/2) totals about
11.4M trainable parameters with parameter-free mixers: patch embeddings
downsample 4x then 2x per stage, every block is norm -> mixer ->
LayerScale -> residual, norm -> channel MLP -> LayerScale -> residual,
and a final norm feeds either GAP + linear (classify) or the all-MLP
decoder (segment).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import FLOAT, HW, INT, INTS, TEXT, Key, ValueType
from .config import field_values, format_section, owned_by, read_ini
from .errors import ConfigError, ShapeError
from .mixers import MixerSpec, NeighborhoodMask, apply_mixer, init_mixer_params, warm_start_remap
from .tensor import (
    Tensor,
    add,
    bilinear_resize,
    concat,
    conv2d,
    gelu,
    global_avg_pool,
    layer_norm,
    linear,
    mul,
    reshape,
    transpose,
)

# patch embedding geometry: (kernel, stride, padding); stage 0 downsamples
# by four, later stages halve
PATCH_EMBED_STAGE0 = (7, 4, 2)
PATCH_EMBED_LATER = (3, 2, 1)


def parse_signature(text: str) -> tuple[MixerSpec, ...]:
    """Parse 'pooling:3,pooling:3,global_attn,global_attn' into MixerSpecs."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    specs = []
    for part in parts:
        if ":" in part:
            kind, _, kernel = part.partition(":")
            specs.append(MixerSpec(kind.strip(), kernel=int(kernel)))
        else:
            specs.append(MixerSpec(part))
    return tuple(specs)


def format_signature(signature) -> str:
    parts = []
    for spec in signature:
        parts.append(f"{spec.kind}:{spec.kernel}" if spec.uses_kernel else spec.kind)
    return ",".join(parts)


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
                spec.heads(c)  # raises if the head split does not work out

    def stage_hw(self, input_hw: Optional[tuple[int, int]] = None) -> list[tuple[int, int]]:
        """Spatial size per stage: input/4, then halved at each stage entry."""
        h, w = input_hw or self.input_hw
        out = []
        for i in range(4):
            factor = 4 if i == 0 else 2
            if h % factor or w % factor:
                raise ConfigError(
                    f"stage {i} needs input divisible by {factor}, got {h}x{w} (no implicit crop)"
                )
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


def _weight(rng, *shape, scale=0.02):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def _zeros(*shape):
    return Tensor(np.zeros(shape), requires_grad=True)


@dataclass
class Norm:
    gamma: Tensor
    beta: Tensor

    @staticmethod
    def create(c: int) -> "Norm":
        return Norm(Tensor(np.ones(c), requires_grad=True), _zeros(c))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)

    def named(self, prefix):
        return [(f"{prefix}.gamma", self.gamma), (f"{prefix}.beta", self.beta)]


@dataclass
class ChannelMlp:
    """Pointwise two-layer MLP over the channel axis of (B, C, H, W)."""

    fc1_w: Tensor
    fc1_b: Tensor
    fc2_w: Tensor
    fc2_b: Tensor

    @staticmethod
    def create(c: int, ratio: int, rng) -> "ChannelMlp":
        hidden = ratio * c
        return ChannelMlp(_weight(rng, hidden, c), _zeros(hidden), _weight(rng, c, hidden), _zeros(c))

    def __call__(self, x: Tensor) -> Tensor:
        t = transpose(x, (0, 2, 3, 1))
        t = linear(t, self.fc1_w, self.fc1_b)
        t = gelu(t)
        t = linear(t, self.fc2_w, self.fc2_b)
        return transpose(t, (0, 3, 1, 2))

    def named(self, prefix):
        return [
            (f"{prefix}.fc1.weight", self.fc1_w),
            (f"{prefix}.fc1.bias", self.fc1_b),
            (f"{prefix}.fc2.weight", self.fc2_w),
            (f"{prefix}.fc2.bias", self.fc2_b),
        ]


@dataclass
class PatchEmbed:
    kernel: Tensor
    bias: Tensor
    stride: int
    padding: int

    @staticmethod
    def create(cin: int, cout: int, k: int, stride: int, padding: int, rng) -> "PatchEmbed":
        return PatchEmbed(_weight(rng, cout, cin, k, k), _zeros(cout), stride, padding)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[2] % self.stride or x.shape[3] % self.stride:
            raise ConfigError(
                f"input {x.shape[2]}x{x.shape[3]} not divisible by patch-embed stride {self.stride}"
            )
        return conv2d(x, self.kernel, self.bias, stride=self.stride, padding=self.padding)

    def named(self, prefix):
        return [(f"{prefix}.kernel", self.kernel), (f"{prefix}.bias", self.bias)]


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

    def __init__(self, c: int, spec: MixerSpec, mlp_ratio: int, layerscale_init: float,
                 droppath_p: float, hw: tuple[int, int], rng,
                 pos_emb: Optional[Tensor] = None):
        self.channels = c
        self.spec = spec
        self.norm1 = Norm.create(c)
        # positional embeddings are shared per stage, so blocks skip their own
        self.mixer_params = init_mixer_params(spec, c, hw, rng, with_pos=False)
        self.pos_emb = pos_emb
        self.ls1 = Tensor(np.full(c, layerscale_init), requires_grad=True)
        self.norm2 = Norm.create(c)
        self.mlp = ChannelMlp.create(c, mlp_ratio, rng)
        self.ls2 = Tensor(np.full(c, layerscale_init), requires_grad=True)
        self.droppath_p = droppath_p
        # neighborhood masks by spatial size, built once per size
        self._masks: dict[tuple[int, int], NeighborhoodMask] = {}

    def forward(self, x: Tensor, training: bool = False, rng=None) -> Tensor:
        c = self.channels
        params = self.mixer_params
        if self.pos_emb is not None:
            params = replace(params, pos_emb=self.pos_emb)
        scale1 = reshape(self.ls1, (1, c, 1, 1))
        branch = mul(apply_mixer(self.spec, params, self.norm1(x), masks=self._masks), scale1)
        x = add(x, _drop_path(branch, self.droppath_p, training, rng))
        scale2 = reshape(self.ls2, (1, c, 1, 1))
        branch = mul(self.mlp(self.norm2(x)), scale2)
        return add(x, _drop_path(branch, self.droppath_p, training, rng))

    def named(self, prefix):
        out = list(self.norm1.named(f"{prefix}.norm1"))
        if self.mixer_params is not None:
            out.extend(self.mixer_params.named(f"{prefix}.mixer"))
        out.append((f"{prefix}.layerscale1", self.ls1))
        out.extend(self.norm2.named(f"{prefix}.norm2"))
        out.extend(self.mlp.named(f"{prefix}.mlp"))
        out.append((f"{prefix}.layerscale2", self.ls2))
        return out


@dataclass
class SegDecoder:
    """All-MLP decoder: per-stage channel equalization to ``dim`` channels,
    bilinear upsampling to the stage-0 grid, concat, a two-layer pointwise
    MLP down to class logits, then 4x bilinear upsampling. Pointwise apart
    from the resampling, so constant feature maps give constant logits."""

    projs: list  # per-stage (weight, bias)
    fuse_w: Tensor
    fuse_b: Tensor
    cls_w: Tensor
    cls_b: Tensor

    @staticmethod
    def create(stage_channels, dim: int, num_classes: int, rng) -> "SegDecoder":
        projs = [(_weight(rng, dim, c), _zeros(dim)) for c in stage_channels]
        return SegDecoder(
            projs=projs,
            fuse_w=_weight(rng, dim, 4 * dim),
            fuse_b=_zeros(dim),
            cls_w=_weight(rng, num_classes, dim),
            cls_b=_zeros(num_classes),
        )

    def __call__(self, features: list[Tensor], out_hw: tuple[int, int]) -> Tensor:
        h0, w0 = features[0].shape[2], features[0].shape[3]
        mapped = []
        for (w, b), feat in zip(self.projs, features):
            t = transpose(feat, (0, 2, 3, 1))
            t = linear(t, w, b)
            t = transpose(t, (0, 3, 1, 2))
            mapped.append(bilinear_resize(t, h0, w0))
        fused = concat(mapped, axis=1)
        t = transpose(fused, (0, 2, 3, 1))
        t = gelu(linear(t, self.fuse_w, self.fuse_b))
        t = linear(t, self.cls_w, self.cls_b)
        logits = transpose(t, (0, 3, 1, 2))
        return bilinear_resize(logits, out_hw[0], out_hw[1])

    def named(self, prefix):
        out = []
        for i, (w, b) in enumerate(self.projs):
            out.append((f"{prefix}.proj{i}.weight", w))
            out.append((f"{prefix}.proj{i}.bias", b))
        out.extend(
            [
                (f"{prefix}.fuse.weight", self.fuse_w),
                (f"{prefix}.fuse.bias", self.fuse_b),
                (f"{prefix}.classifier.weight", self.cls_w),
                (f"{prefix}.classifier.bias", self.cls_b),
            ]
        )
        return out


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


class MetaFormer:
    def __init__(self, config: ModelConfig, seed: int = 0, in_channels: int = 3):
        self.config = config
        self.in_channels = in_channels
        rng = np.random.default_rng(seed)
        chans = config.stage_channels
        stage_hw = config.stage_hw()

        self.patch_embeds = []
        cin = in_channels
        for i, cout in enumerate(chans):
            k, s, p = PATCH_EMBED_STAGE0 if i == 0 else PATCH_EMBED_LATER
            self.patch_embeds.append(PatchEmbed.create(cin, cout, k, s, p, rng))
            cin = cout

        total_blocks = sum(config.stage_depths)
        self.pos_embs: list[Optional[Tensor]] = []
        self.stages: list[list[Block]] = []
        block_index = 0
        for i in range(4):
            spec = config.signature[i]
            pos = None
            if spec.kind == "global_attn":
                pos = _weight(rng, chans[i], *stage_hw[i])
            self.pos_embs.append(pos)
            blocks = []
            for _ in range(config.stage_depths[i]):
                if total_blocks > 1:
                    p = config.stochastic_depth_max * block_index / (total_blocks - 1)
                else:
                    p = 0.0
                blocks.append(
                    Block(
                        chans[i], spec, config.mlp_ratio, config.layerscale_init,
                        p, stage_hw[i], rng, pos_emb=pos,
                    )
                )
                block_index += 1
            self.stages.append(blocks)

        self.final_norm = Norm.create(chans[3])
        if config.head == "classify":
            self.head_w = _weight(rng, config.num_classes, chans[3])
            self.head_b = _zeros(config.num_classes)
            self.decoder = None
        else:
            self.head_w = self.head_b = None
            self.decoder = SegDecoder.create(chans, config.decoder_dim, config.num_classes, rng)

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
        out: dict[str, Tensor] = {}
        for i, embed in enumerate(self.patch_embeds):
            for name, t in embed.named(f"patch_embed{i}"):
                out[name] = t
        for i, (blocks, pos) in enumerate(zip(self.stages, self.pos_embs)):
            if pos is not None:
                out[f"stage{i}.pos_emb"] = pos
            for j, block in enumerate(blocks):
                for name, t in block.named(f"stage{i}.block{j}"):
                    out[name] = t
        for name, t in self.final_norm.named("final_norm"):
            out[name] = t
        if self.head_w is not None:
            out["head.weight"] = self.head_w
            out["head.bias"] = self.head_b
        if self.decoder is not None:
            for name, t in self.decoder.named("decoder"):
                out[name] = t
        return out

    def zero_grad(self):
        for t in self.named_parameters().values():
            t.grad = None

    def load_state(self, state: dict[str, np.ndarray]):
        params = self.named_parameters()
        missing = set(params) - set(state)
        extra = set(state) - set(params)
        if missing or extra:
            raise ShapeError(f"state mismatch: missing={sorted(missing)[:4]} extra={sorted(extra)[:4]}")
        for name, t in params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != t.shape:
                raise ShapeError(f"parameter {name}: checkpoint shape {arr.shape} != model shape {t.shape}")
            t.data[...] = arr

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters().items()}


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


def mixer_param_delta(config: ModelConfig) -> int:
    """Closed-form mixer parameters summed over every block placement."""
    total = 0
    for c, depth, spec in zip(config.stage_channels, config.stage_depths, config.signature):
        total += depth * spec.param_count(c)
    return total


def warm_start_model(source: MetaFormer, target: MetaFormer) -> MetaFormer:
    """Per-stage transfer of attention projections from a global-attention
    source model into an attention-mixer target model."""
    for i in range(4):
        src_spec = source.config.signature[i]
        dst_spec = target.config.signature[i]
        if src_spec.kind != "global_attn" or not dst_spec.is_attention:
            continue
        if len(source.stages[i]) != len(target.stages[i]):
            raise ShapeError(f"stage {i}: source and target depth differ")
        for src_block, dst_block in zip(source.stages[i], target.stages[i]):
            remapped = warm_start_remap(src_block.mixer_params, dst_block.mixer_params)
            dst_block.mixer_params = remapped
        if dst_spec.kind == "global_attn" and source.pos_embs[i] is not None:
            if target.pos_embs[i].shape != source.pos_embs[i].shape:
                raise ShapeError(f"stage {i}: positional embedding shapes differ")
            target.pos_embs[i].data[...] = source.pos_embs[i].data
    return target
