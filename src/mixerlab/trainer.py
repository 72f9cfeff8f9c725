"""Training recipe at desk scale: losses, AdamW, the warmup+cosine
schedule, light affine augmentation, class-balanced patch sampling, and
per-layer gradient-norm monitoring."""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericsError
from .evalrank import csv_text, dice_classes, f1_macro
from .metaformer import MetaFormer
from .tensor import Tape, Tensor, add, div, log_softmax, mul, reshape, softmax, sub, transpose, tsum

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
DICE_SMOOTH = 1e-5


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 16
    lr: float = 1e-3
    min_lr: float = 1e-5
    weight_decay: float = 0.1
    warmup_epochs: int = 5
    label_smoothing: float = 0.1
    class_weight_clamp: float = 10.0
    seed: int = 0
    augment_sigma: float = 0.0  # 0 disables affine augmentation
    max_steps: Optional[int] = None  # None: every step of every epoch

    def __post_init__(self):
        if not (self.lr > self.min_lr > 0):
            raise ConfigError("need lr > min_lr > 0")
        if not (0.0 <= self.label_smoothing < 1.0):
            raise ConfigError("label smoothing must be in [0, 1)")
        if self.class_weight_clamp < 1.0:
            raise ConfigError("class weight clamp must be >= 1")
        if self.weight_decay < 0.0 or self.augment_sigma < 0.0:
            raise ConfigError("weight_decay and augment_sigma must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError("max_steps must be positive")


# ---------------------------------------------------------------------------
# class weighting and losses
# ---------------------------------------------------------------------------


def class_weights(label_counts: Sequence[int], clamp: float = 10.0) -> np.ndarray:
    """Inverse-root-frequency weights, clamped, max-frequency class at 1.

    w_c = min(clamp, sqrt(max_count / count_c)); zero-count classes sit at
    the clamp (they never contribute to a weighted mean anyway).
    """
    counts = np.asarray(label_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ConfigError("label_counts must be a non-empty 1D sequence")
    if (counts < 0).any():
        raise ConfigError("label counts cannot be negative")
    top = counts.max()
    if top == 0:
        raise DataError("all class counts are zero")
    with np.errstate(divide="ignore"):
        w = np.sqrt(top / counts)
    return np.minimum(clamp, w)


def ce_loss(
    logits: Tensor,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
    smoothing: float = 0.0,
) -> Tensor:
    """Smoothed, class-weighted cross-entropy.

    The target distribution puts (1 - eps) on the true class and
    eps/num_classes on every other class. Accepts (B, K) logits with (B,)
    targets or (B, K, H, W) logits with (B, H, W) targets. Result is the
    weighted mean over elements.
    """
    if logits.ndim not in (2, 4):
        raise ConfigError(f"ce_loss expects 2D or 4D logits, got {logits.ndim}D")
    if logits.data.size == 0:
        raise DataError("ce_loss needs at least one element")
    k, flat_targets = logits.shape[1], np.asarray(targets).reshape(-1)
    flat_logits = logits if logits.ndim == 2 else reshape(transpose(logits, (0, 2, 3, 1)), (-1, k))
    if flat_targets.shape[0] != flat_logits.shape[0]:
        raise ConfigError("logits and targets disagree on the number of elements")

    if (flat_targets < 0).any() or (flat_targets >= k).any():
        raise DataError(f"target class ids must be in [0, {k})")

    q = np.full((flat_targets.shape[0], k), smoothing / k)
    q[np.arange(flat_targets.shape[0]), flat_targets] = 1.0 - smoothing

    if weights is None:
        row_w = np.ones(flat_targets.shape[0])
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (k,):
            raise ConfigError(f"weights must have shape ({k},)")
        row_w = weights[flat_targets]

    logp = log_softmax(flat_logits, axis=1)
    weighted_q = q * row_w[:, None]
    total = tsum(mul(logp, weighted_q))
    return mul(total, -1.0 / row_w.sum())


def dice_loss(logits: Tensor, target_mask: np.ndarray) -> Tensor:
    """1 - mean soft Dice over the classes ``dice_classes`` picks: the
    foreground classes in the target or in the hard prediction.

    Softmax runs internally over the class axis.
    """
    target_mask = np.asarray(target_mask)
    if logits.ndim != 4:
        raise ConfigError("dice_loss expects (B, K, H, W) logits")
    b, k, h, w = logits.shape
    if target_mask.shape != (b, h, w):
        raise ConfigError(f"mask shape {target_mask.shape} != {(b, h, w)}")
    if (target_mask < 0).any() or (target_mask >= k).any():
        raise DataError(f"mask class ids must be in [0, {k})")

    probs = softmax(logits, axis=1)
    onehot = (target_mask[:, None] == np.arange(k)[:, None, None]).astype(np.float64)
    keep = dice_classes(probs.data.argmax(axis=1), target_mask, k)
    if not keep.any():
        raise DataError("no class left to score in dice_loss")

    inter = tsum(mul(probs, onehot), axis=(0, 2, 3))
    psum = tsum(probs, axis=(0, 2, 3))
    tsum_const = onehot.sum(axis=(0, 2, 3))
    dice = div(add(mul(inter, 2.0), DICE_SMOOTH), add(psum, tsum_const + DICE_SMOOTH))
    mean_dice = mul(tsum(mul(dice, keep.astype(np.float64))), 1.0 / keep.sum())
    return sub(1.0, mean_dice)


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------


def adamw_step(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    weight_decay: float,
):
    """One decoupled-weight-decay Adam update, in place on param/m/v."""
    b1, b2 = ADAM_BETAS
    param *= 1.0 - lr * weight_decay
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    mhat = m / (1.0 - b1**t)
    vhat = v / (1.0 - b2**t)
    param -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


class AdamW:
    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.1):
        self.params = dict(params)
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros(p.shape) for name, p in self.params.items()}
        self.v = {name: np.zeros(p.shape) for name, p in self.params.items()}

    def step(self, lr: float):
        """Apply one update of step size ``lr``; aborts (no mutation) on any
        non-finite gradient."""
        bad = [
            name
            for name, p in self.params.items()
            if p.grad is not None and not np.isfinite(p.grad).all()
        ]
        if bad:
            raise NumericsError(f"non-finite gradients, step aborted: {sorted(bad)[:8]}")
        self.t += 1
        for name, p in self.params.items():
            if p.grad is None:
                continue
            adamw_step(p.data, p.grad, self.m[name], self.v[name], self.t, lr, self.weight_decay)


def lr_schedule(step: int, total_steps: int, warmup_steps: int, lr: float, min_lr: float) -> float:
    """Linear 0 -> lr over the warmup, then one cosine cycle down to min_lr."""
    if warmup_steps >= total_steps:
        raise ConfigError("warmup must be shorter than the total schedule")
    if not 0 <= step < total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps})")
    if warmup_steps > 0 and step < warmup_steps:
        return lr * step / warmup_steps
    span = total_steps - 1 - warmup_steps
    if span <= 0:
        return lr
    progress = (step - warmup_steps) / span
    return min_lr + 0.5 * (lr - min_lr) * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# augmentation and sampling
# ---------------------------------------------------------------------------


def affine_augment(image: np.ndarray, rng: np.random.Generator, sigma: float = 0.1) -> np.ndarray:
    """Resample through a jittered affine map: identity + N(0, sigma^2) per entry.

    Coordinates are centered and normalized to [-1, 1], so the two
    translation entries shift by sigma * half-extent pixels and the linear
    entries scale/shear by the same relative magnitude. Bilinear sampling,
    zero fill outside the source image.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise ConfigError("affine_augment expects (C, H, W)")
    mat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    if sigma > 0:
        mat = mat + rng.normal(0.0, sigma, size=(2, 3))
    return apply_affine(image, mat)


def apply_affine(image: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Warp with a 2x3 matrix in normalized centered coords (x right, y down)."""
    c, h, w = image.shape
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    half_h, half_w = (h - 1) / 2.0, (w - 1) / 2.0
    xn = (xs - half_w) / max(half_w, 1e-12)
    yn = (ys - half_h) / max(half_h, 1e-12)
    src_x = mat[0, 0] * xn + mat[0, 1] * yn + mat[0, 2]
    src_y = mat[1, 0] * xn + mat[1, 1] * yn + mat[1, 2]
    px = src_x * half_w + half_w
    py = src_y * half_h + half_h

    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx = px - x0
    fy = py - y0

    out = np.zeros_like(image)
    for dy in (0, 1):
        for dx in (0, 1):
            yy = y0 + dy
            xx = x0 + dx
            wgt = (fy if dy else 1 - fy) * (fx if dx else 1 - fx)
            inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            yc = np.clip(yy, 0, h - 1)
            xc = np.clip(xx, 0, w - 1)
            out += image[:, yc, xc] * (wgt * inside)
    return out


def weighted_patch_sample(
    masks: Sequence[np.ndarray],
    patch_hw: tuple[int, int],
    rng: np.random.Generator,
    n_samples: int = 1,
):
    """Draw patch corners with probability proportional to the inverse root
    frequency of the class under each candidate patch center.

    Returns an (n_samples, 3) array of (image_index, top, left).
    """
    ph, pw = patch_hw
    masks = [np.asarray(m) for m in masks]
    grids = []  # (rows, columns) of candidate corners, per image
    for m in masks:
        h, w = m.shape
        if ph > h or pw > w:
            raise DataError(f"patch {ph}x{pw} larger than image {h}x{w}")
        grids.append((h - ph + 1, w - pw + 1))
    classes = np.concatenate([m.reshape(-1) for m in masks])
    if classes.dtype.kind not in "biu" or (classes < 0).any():
        raise DataError("mask class ids must be non-negative integers")
    with np.errstate(divide="ignore"):  # absent classes: never a center
        cls_weight = 1.0 / np.sqrt(np.bincount(classes))
    rows, cols = np.array(grids).T
    centers = (m[ph // 2 : ph // 2 + r, pw // 2 : pw // 2 + c] for m, r, c in zip(masks, rows, cols))
    probs = np.concatenate([cls_weight[c].reshape(-1) for c in centers])
    probs = probs / probs.sum()
    chosen = rng.choice(probs.shape[0], size=n_samples, p=probs)
    sizes = rows * cols
    ends = np.cumsum(sizes)
    image = np.searchsorted(ends, chosen, side="right")
    top, left = np.divmod(chosen - (ends - sizes)[image], cols[image])
    return np.stack([image, top, left], axis=1)


# ---------------------------------------------------------------------------
# gradient monitoring
# ---------------------------------------------------------------------------


def grad_norm_monitor(model: MetaFormer) -> dict[str, float]:
    """Per-layer gradient L2 norms by parameter name (zero where no grad)."""
    return {
        name: 0.0 if p.grad is None else float(np.sqrt((p.grad * p.grad).sum()))
        for name, p in model.named_parameters().items()
    }


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    history: list[dict]
    final_train_accuracy: float
    best_val_f1: Optional[float]
    best_state: Optional[dict]


def train_classifier(
    model: MetaFormer,
    images: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    val: Optional[tuple[np.ndarray, np.ndarray]] = None,
    log_path: Optional[str] = None,
) -> TrainResult:
    """The classification recipe: AdamW, warmup+cosine, smoothed weighted CE.

    Keeps the state with the highest validation macro-F1 when a validation
    split is provided. Deterministic for a fixed config seed. The validation
    and final-accuracy passes predict ``cfg.batch_size`` images per forward.
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = images.shape[0]
    if labels.shape[0] != n:
        raise DataError("images and labels disagree on the number of cases")
    k = model.config.num_classes
    counts = np.bincount(labels, minlength=k)
    weights = class_weights(counts, cfg.class_weight_clamp)

    steps_per_epoch = max(1, math.ceil(n / cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    if cfg.max_steps is not None:
        total_steps = min(total_steps, cfg.max_steps)
    warmup_steps = min(cfg.warmup_epochs * steps_per_epoch, max(0, total_steps - 1))

    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.named_parameters(), weight_decay=cfg.weight_decay)
    history: list[dict] = []
    best_f1: Optional[float] = None
    best_state: Optional[dict] = None

    def batches():
        """(case indices, ends an epoch) per step; one permutation per epoch."""
        while True:
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                yield order[start : start + cfg.batch_size], start + cfg.batch_size >= n

    # zip reads the step range first, so the last step draws no permutation
    with open(log_path, "w") if log_path else contextlib.nullcontext() as log_fh:
        if log_fh:
            log_fh.write(csv_text([("step", "lr", "loss", "val_f1", "max_grad_norm")]))
        for step, (batch, epoch_end) in zip(range(total_steps), batches()):
            xb = images[batch]
            if cfg.augment_sigma > 0:
                xb = np.stack([affine_augment(im, rng, cfg.augment_sigma) for im in xb])
            yb = labels[batch]
            lr_t = lr_schedule(step, total_steps, warmup_steps, cfg.lr, cfg.min_lr)
            model.zero_grad()
            with Tape() as tape:
                logits = model.forward_classify(Tensor(xb), training=True, rng=rng)
                loss = ce_loss(logits, yb, weights, cfg.label_smoothing)
            tape.backward(loss)
            norms = grad_norm_monitor(model)
            opt.step(lr=lr_t)
            row = {
                "step": step,
                "lr": lr_t,
                "loss": float(loss.data),
                "val_f1": "",
                "max_grad_norm": max(norms.values(), default=0.0),
            }
            if epoch_end and val is not None:
                vf1 = f1_macro(predict_labels(model, val[0], cfg.batch_size), np.asarray(val[1]))
                row["val_f1"] = vf1
                if best_f1 is None or vf1 > best_f1:
                    best_f1 = vf1
                    best_state = model.state()
            history.append(row)
            if log_fh:
                log_fh.write(csv_text([row.values()]))

    acc = float((predict_labels(model, images, cfg.batch_size) == labels).mean())
    return TrainResult(history, acc, best_f1, best_state)


def _logits(model: MetaFormer, images: np.ndarray, batch_size: int) -> np.ndarray:
    """Classification logits of ``images``, ``batch_size`` images per forward pass."""
    out = []
    for start in range(0, images.shape[0], batch_size):
        out.append(model.forward_classify(Tensor(images[start : start + batch_size])).data)
    return np.concatenate(out)


def predict_labels(model: MetaFormer, images: np.ndarray, batch_size: int = TrainConfig.batch_size) -> np.ndarray:
    """Class ids of ``images``, one ``batch_size`` chunk (default: one training batch) per forward."""
    return _logits(model, images, batch_size).argmax(axis=1)


def predict_scores(model: MetaFormer, images: np.ndarray, batch_size: int = TrainConfig.batch_size) -> np.ndarray:
    """Class probabilities of ``images``, one ``batch_size`` chunk (default: one training batch) per forward."""
    return softmax(Tensor(_logits(model, images, batch_size)), axis=1).data


def make_two_class_blobs(n: int, hw: tuple[int, int] = (32, 32), seed: int = 0):
    """Seeded linearly separable toy set: class-signed mean shift plus a
    class-positioned blob over Gaussian noise."""
    rng = np.random.default_rng(seed)
    h, w = hw
    images = rng.normal(0.0, 0.2, size=(n, 3, h, w))
    labels = rng.integers(0, 2, size=n)
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    blob0 = np.exp(-(((yy - h / 4) ** 2 + (xx - w / 4) ** 2) / (h * w / 32)))
    blob1 = np.exp(-(((yy - 3 * h / 4) ** 2 + (xx - 3 * w / 4) ** 2) / (h * w / 32)))
    for i in range(n):
        shift = 0.5 if labels[i] == 1 else -0.5
        images[i, 0] += shift
        images[i, 1] += blob1 if labels[i] == 1 else blob0
    return images, labels
