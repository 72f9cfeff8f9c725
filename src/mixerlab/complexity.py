"""Static cost accounting for the six mixers, plus an executed MAC count.

The published FLOPs expressions are evaluated verbatim from the rows of
``mixers.MIXER_KINDS``, and a mixer's parameter term is the size of its
row's weights: a block's FLOPs are the kind's mixer term plus NC^2, its
parameters the mixer's own plus C^2, one multiply-accumulate counting as the
written factor 2. The NC^2 channel-MLP share undercounts a ratio-4 MLP; we
reproduce the published accounting rather than re-deriving it.

``empirical_mac_count`` checks the kernel-mixer terms against the
multiply-accumulates that the library's own ``conv2d`` and ``avg_pool2d``
execute when the mixer runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .evalrank import csv_text
from .metaformer import ModelConfig
from .mixers import MIXER_KINDS, MixerKind, MixerSpec, apply_mixer, init_mixer_params
from .tensor import Registry, Tensor, _executed_macs

KINDS = tuple(MIXER_KINDS)


def _row(kind: str, k: Optional[int]) -> MixerKind:
    if kind not in MIXER_KINDS:
        raise ConfigError(f"unknown mixer kind {kind!r}")
    if MIXER_KINDS[kind].uses_kernel and k is None:
        raise ConfigError(f"{kind} needs a kernel size K")
    return MIXER_KINDS[kind]


def flops_mixer_term(kind: str, c: int, n: int, k: Optional[int] = None) -> int:
    """The published FLOPs expression minus the NC^2 channel-MLP share."""
    return _row(kind, k).flops(c, n, k)


def flops_formula(kind: str, c: int, n: int, k: Optional[int] = None) -> int:
    """Evaluate the published FLOPs expression for one block placement."""
    return flops_mixer_term(kind, c, n, k) + n * c * c


def param_formula(kind: str, c: int, k: Optional[int] = None) -> int:
    """Evaluate the published parameter expression for one block placement."""
    return _row(kind, k).params(c, k) + c * c


@dataclass
class CostReport:
    stage: int
    kind: str
    channels: int
    positions: int  # N = H*W at the stage
    kernel: Optional[int]
    flops: int
    params: int
    empirical_macs: Optional[int] = None


def stage_sweep(config: ModelConfig, kernel: int = 3) -> list[CostReport]:
    """Cost reports for all 4 stages x all 6 mixer kinds.

    ``kernel`` is used for every kernel-based kind; identity and global
    attention ignore it. ``empirical_macs`` is ``empirical_mac_count`` where it
    is defined and its run is small (a formula mixer term of at most 2**32
    FLOPs over at most 2**24 input and weight elements), else None.
    """
    reports = []
    for stage, ((h, w), c) in enumerate(zip(config.stage_hw(), config.stage_channels)):
        n = h * w
        for kind, row in MIXER_KINDS.items():
            k = kernel if row.uses_kernel else None
            counted = (not row.is_attention and row.flops(c, n, k) <= 2**32
                       and c * n + row.params(c, k) <= 2**24)
            reports.append(
                CostReport(
                    stage=stage,
                    kind=kind,
                    channels=c,
                    positions=n,
                    kernel=k,
                    flops=flops_formula(kind, c, n, k),
                    params=param_formula(kind, c, k),
                    empirical_macs=empirical_mac_count(kind, c, h, w, k) if counted else None,
                )
            )
    return reports


def sweep_to_csv(reports: list[CostReport]) -> str:
    header = ("stage", "mixer", "K", "C", "N", "flops", "params", "macs")
    return csv_text([header] + [
        (r.stage, r.kind, r.kernel, r.channels, r.positions, r.flops, r.params, r.empirical_macs) for r in reports
    ])


# ---------------------------------------------------------------------------
# executed multiply-accumulate counting
# ---------------------------------------------------------------------------


def empirical_mac_count(kind: str, c: int, h: int, w: int, k: Optional[int] = None) -> int:
    """Multiply-accumulates one shape-preserving mixer forward executes.

    The mixer runs once through ``apply_mixer`` on a (1, C, H, W) zero
    input, and the count is what its ``conv2d`` and ``avg_pool2d`` calls
    report: output size x Cin/groups x K^2 for a convolution, output size x
    K^2 for pooling. The zero-padded ops execute every tap, border taps
    included, so the count matches the formula mixer term exactly (divided
    by the written factor 2 for the convolutions). Identity executes no op
    and counts 0.

    Defined for identity, pooling, conv and grouped_conv; the attention
    kinds run linear and matmul ops, which are not counted.
    """
    if _row(kind, k).is_attention:
        raise ConfigError(f"empirical MAC counting is defined for kernel mixers, not {kind!r}")
    spec = MixerSpec(kind, k)
    params = init_mixer_params(spec, c, Registry(np.random.default_rng(0)))
    return _executed_macs(lambda: apply_mixer(spec, params, Tensor(np.zeros((1, c, h, w)))))
