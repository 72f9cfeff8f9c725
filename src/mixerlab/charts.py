"""Hand-rolled minimal SVG bar charts (rects and axis text, nothing more)."""

from __future__ import annotations

import math

from .errors import ConfigError

_PALETTE = ("#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3", "#937860")


def grouped_bar_svg(title: str, group_labels: list[str], series: dict[str, list[float]]) -> str:
    """Grouped bars, one cluster per group label, one color per series, on
    a log scale: bar height is proportional to log10 of the value over the
    smallest positive value plotted.
    """
    if not series:
        raise ConfigError("no series to plot")
    n_groups = len(group_labels)
    for name, vals in series.items():
        if len(vals) != n_groups:
            raise ConfigError(f"series {name!r} has {len(vals)} values for {n_groups} groups")

    width, height = 900, 420
    margin_l, margin_b, margin_t = 70, 60, 40
    plot_w = width - margin_l - 20
    plot_h = height - margin_b - margin_t
    positives = [v for vals in series.values() for v in vals if v > 0]
    vmin = min(positives) if positives else 1.0
    vmax = max(positives) if positives else 1.0

    def bar_height(v: float) -> float:
        if v <= 0:
            return 0.0
        span = math.log10(vmax / vmin) or 1.0
        return plot_h * (math.log10(v / vmin) + 0.15 * span) / (1.15 * span)

    names = list(series)
    group_w = plot_w / n_groups
    bar_w = group_w / (len(names) + 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{margin_l}" y1="{height - margin_b}" x2="{width - 20}" '
        f'y2="{height - margin_b}" stroke="black"/>',
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{height - margin_b}" stroke="black"/>',
    ]
    for gi, label in enumerate(group_labels):
        x0 = margin_l + gi * group_w
        parts.append(
            f'<text x="{x0 + group_w / 2:.1f}" y="{height - margin_b + 18}" '
            f'text-anchor="middle" font-size="11">{label}</text>'
        )
        for si, name in enumerate(names):
            v = series[name][gi]
            h = bar_height(v)
            x = x0 + (si + 0.5) * bar_w
            y = height - margin_b - h
            color = _PALETTE[si % len(_PALETTE)]
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" '
                f'fill="{color}"><title>{name}={v}</title></rect>'
            )
    for si, name in enumerate(names):
        color = _PALETTE[si % len(_PALETTE)]
        x = margin_l + si * 130
        parts.append(f'<rect x="{x}" y="{height - 22}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{x + 16}" y="{height - 11}" font-size="11">{name}</text>')
    parts.append(
        f'<text x="16" y="{margin_t + plot_h / 2:.1f}" font-size="11" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2:.1f})">log scale</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
