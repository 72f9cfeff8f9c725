"""The six interchangeable token mixers.

Every mixer maps (B, C, H, W) -> (B, C, H, W) without touching resolution
or channel count; everything else in a block (norms, channel MLP,
residuals) stays fixed. Kernel-based mixers run stride 1 with padding
(K-1)/2 and no bias. ``MIXER_KINDS`` holds what the paper publishes per
kind: kernel use, attention or not, parameter count and FLOPs term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CapacityError, ConfigError, ShapeError
from .tensor import (
    Registry,
    Tensor,
    add,
    avg_pool2d,
    conv2d,
    linear,
    matmul,
    mul,
    reshape,
    softmax,
    transpose,
)


@dataclass(frozen=True)
class MixerKind:
    """One row of the paper's cost table: whether the mixer takes a kernel
    K, whether it is attention, its own trainable parameters as a function
    of (C, K), and its FLOPs mixer term (the published FLOPs expression
    without the NC^2 channel-MLP share) as a function of (C, N, K). The
    formulas accept any K; only MixerSpec validates it."""

    uses_kernel: bool
    is_attention: bool
    params: Callable[[int, Optional[int]], int]
    flops: Callable[[int, int, Optional[int]], int]


# every fact about a mixer kind, in the paper's cost order
MIXER_KINDS = {
    "identity": MixerKind(False, False, lambda c, k: 0, lambda c, n, k: 0),
    "pooling": MixerKind(True, False, lambda c, k: 0, lambda c, n, k: n * k * k * c),
    "grouped_conv": MixerKind(True, False, lambda c, k: k * k * c, lambda c, n, k: n * 2 * k * k * c),
    "local_attn": MixerKind(True, True, lambda c, k: 4 * c * c,
                            lambda c, n, k: 4 * n * c * c + n * k * k * c + n + 2 * n * k * k),
    "conv": MixerKind(True, False, lambda c, k: k * k * c * c, lambda c, n, k: n * 2 * k * k * c * c),
    "global_attn": MixerKind(False, True, lambda c, k: 4 * c * c,
                             lambda c, n, k: 4 * n * c * c + n * n * c + n + 2 * n * n),
}

# largest allowed score matrix (B*M*N*N float64 elements) before a mixer
# refuses to materialize attention; mirrors running out of accelerator
# memory on huge inputs, but as an explicit error
SCORE_BUDGET = 2**26

HEADS_DIVISOR = 16


@dataclass(frozen=True)
class MixerSpec:
    """Which mixer to place at a stage, and its kernel / head geometry."""

    kind: str
    kernel: int = 3

    def __post_init__(self):
        if self.kind not in MIXER_KINDS:
            raise ConfigError(f"unknown mixer kind {self.kind!r}; choose from {tuple(MIXER_KINDS)}")
        if self.uses_kernel and (self.kernel < 3 or self.kernel % 2 == 0):
            raise ConfigError(f"kernel must be odd and >= 3, got {self.kernel}")

    @property
    def uses_kernel(self) -> bool:
        return MIXER_KINDS[self.kind].uses_kernel

    @property
    def is_attention(self) -> bool:
        return MIXER_KINDS[self.kind].is_attention


def head_count(channels: int) -> int:
    """Head count M = C // HEADS_DIVISOR, floored at one head.

    C must then be divisible by M so heads split evenly; the S12 stage
    widths (64..512) give M = 4/8/20/32.
    """
    m = max(1, channels // HEADS_DIVISOR)
    if channels % m:
        raise ConfigError(f"C={channels} not divisible by head count M={m}")
    return m


@dataclass
class NeighborhoodMask:
    """Allowed (query, key) pairs for local attention on an H x W grid.

    allowed[r, s] is True iff the unraveled coordinates satisfy
    |i - h| < K/2 and |j - w| < K/2 in both axes. The matrix is symmetric
    and every row contains at least the pixel itself.
    """

    kernel: int
    height: int
    width: int
    allowed: np.ndarray = field(repr=False)

    def to_additive(self) -> np.ndarray:
        """0 where allowed, -inf where masked; broadcastable over heads."""
        out = np.where(self.allowed, 0.0, -np.inf)
        return out


def build_neighborhood_mask(height: int, width: int, kernel: int) -> NeighborhoodMask:
    if kernel < 1:
        raise ConfigError("neighborhood kernel must be >= 1")
    if kernel % 2 == 0:
        raise ConfigError("neighborhood kernel must be odd")

    def band(size: int) -> np.ndarray:
        steps = np.arange(size)
        return np.abs(steps[:, None] - steps[None, :]) < kernel / 2.0

    # allowed[(i, j), (h, w)] = band_H[i, h] & band_W[j, w]: one outer product
    allowed = band(height)[:, None, :, None] & band(width)[None, :, None, :]
    n = height * width
    return NeighborhoodMask(kernel=kernel, height=height, width=width, allowed=allowed.reshape(n, n))


# ---------------------------------------------------------------------------
# mixer parameters
# ---------------------------------------------------------------------------


@dataclass
class ConvMixerParams:
    kernel: Tensor  # (Cout, Cin/groups, K, K), bias-free


@dataclass
class AttentionParams:
    """Projections for the key/value/query roles plus the head-merging map."""

    wk: Tensor
    wv: Tensor
    wq: Tensor
    wu: Tensor
    pos_emb: Optional[Tensor] = None  # (C, H, W), global attention only


def init_mixer_params(spec: MixerSpec, channels: int, registry: Registry, prefix: str = "mixer"):
    """Trainable parameters for one mixer placement, made in ``registry``
    under ``prefix`` (None if the mixer has none). Global attention's
    positional embedding is shared by the blocks of a stage, so the stage
    makes it."""
    c, k = channels, spec.kernel
    if spec.kind == "conv":
        return ConvMixerParams(registry.new(f"{prefix}.kernel", (c, c, k, k)))
    if spec.kind == "grouped_conv":
        return ConvMixerParams(registry.new(f"{prefix}.kernel", (c, 1, k, k)))
    if spec.is_attention:
        head_count(c)  # validate head split early
        return AttentionParams(*(registry.new(f"{prefix}.{w}", (c, c)) for w in ("wk", "wv", "wq", "wu")))
    return None


# ---------------------------------------------------------------------------
# the mixers
# ---------------------------------------------------------------------------


def mix_identity(x: Tensor) -> Tensor:
    return x


def mix_pool(x: Tensor, kernel: int) -> Tensor:
    return avg_pool2d(x, kernel, stride=1, padding=(kernel - 1) // 2)


def mix_conv(x: Tensor, params: ConvMixerParams, kernel: int) -> Tensor:
    return conv2d(x, params.kernel, stride=1, padding=(kernel - 1) // 2)


def mix_grouped_conv(x: Tensor, params: ConvMixerParams, kernel: int) -> Tensor:
    c = x.shape[1]
    return conv2d(x, params.kernel, stride=1, padding=(kernel - 1) // 2, groups=c)


def _budgeted_heads(x: Tensor) -> int:
    """Head count for x, refusing attention over budget before anything
    N x N is allocated."""
    b, c, h, w = x.shape
    m, n = head_count(c), h * w
    if b * m * n * n > SCORE_BUDGET:
        raise CapacityError(
            f"attention score matrix of {b}x{m}x{n}x{n} elements exceeds the budget of {SCORE_BUDGET}"
        )
    return m


def _attention(x: Tensor, params: AttentionParams, heads: int, additive_mask: Optional[np.ndarray]) -> Tensor:
    b, c, h, w = x.shape
    n = h * w
    m = heads
    d = c // m
    tokens = reshape(transpose(x, (0, 2, 3, 1)), (b, n, c))
    q = linear(tokens, params.wq)
    k = linear(tokens, params.wk)
    v = linear(tokens, params.wv)

    def split_heads(t):
        return transpose(reshape(t, (b, n, m, d)), (0, 2, 1, 3))

    # prescale q by 1/sqrt(D): same math as scaling the scores, better conditioned
    q = mul(split_heads(q), 1.0 / np.sqrt(d))
    k = split_heads(k)
    v = split_heads(v)
    scores = matmul(q, transpose(k, (0, 1, 3, 2)))
    attn = softmax(scores, axis=-1, additive_mask=additive_mask)
    ctx = matmul(attn, v)
    merged = reshape(transpose(ctx, (0, 2, 1, 3)), (b, n, c))
    out_tokens = linear(merged, params.wu)
    return transpose(reshape(out_tokens, (b, h, w, c)), (0, 3, 1, 2))


def mix_global_attn(x: Tensor, params: AttentionParams) -> Tensor:
    """Multi-head scaled dot-product over all N = H*W positions.

    The learned positional embedding (C, H, W) is added to x before the
    key/value/query projections.
    """
    b, c, h, w = x.shape
    if params.pos_emb is not None:
        if params.pos_emb.shape != (c, h, w):
            raise ShapeError(
                f"positional embedding shape {params.pos_emb.shape} does not match input {(c, h, w)}"
            )
        x = add(x, reshape(params.pos_emb, (1, c, h, w)))
    return _attention(x, params, _budgeted_heads(x), None)


def mix_local_attn(x: Tensor, params: AttentionParams, kernel: int) -> Tensor:
    """Attention restricted to the K x K neighborhood via an additive -inf
    mask, built for x's grid once the score budget admits it.

    No positional term: the restriction itself encodes locality, and the
    parameter count stays at the four projection matrices.
    """
    heads = _budgeted_heads(x)
    mask = build_neighborhood_mask(x.shape[2], x.shape[3], kernel)
    return _attention(x, params, heads, mask.to_additive())


def apply_mixer(spec: MixerSpec, params, x: Tensor) -> Tensor:
    """Dispatch to the mixer named by spec.kind."""
    if spec.kind == "identity":
        return mix_identity(x)
    if spec.kind == "pooling":
        return mix_pool(x, spec.kernel)
    if spec.kind == "conv":
        return mix_conv(x, params, spec.kernel)
    if spec.kind == "grouped_conv":
        return mix_grouped_conv(x, params, spec.kernel)
    if spec.kind == "local_attn":
        return mix_local_attn(x, params, spec.kernel)
    if spec.kind == "global_attn":
        return mix_global_attn(x, params)
    raise ConfigError(f"unknown mixer kind {spec.kind!r}")


def warm_start_remap(source: AttentionParams, target: AttentionParams) -> AttentionParams:
    """Copy the pretrained attention weight matrices from global to local attention.

    The four projections transfer verbatim; the local target has no
    positional-embedding slot to fill. Stage widths must match.
    """
    for name in ("wk", "wv", "wq", "wu"):
        src: Tensor = getattr(source, name)
        dst: Tensor = getattr(target, name)
        if src.shape != dst.shape:
            raise ShapeError(
                f"warm start {name}: source shape {src.shape} != target shape {dst.shape}"
            )
    for name in ("wk", "wv", "wq", "wu"):
        getattr(target, name).data[...] = getattr(source, name).data
    return target
