"""Metrics, significance-based ranking, and Gaussian-blended inference.

The ranking pipeline turns per-case scores into pairwise significant wins
(bootstrap over AUC for classification, Wilcoxon signed-rank over per-case
Dice for segmentation), normalized [0.1, 1] rank scores with tie
averaging, and a geometric-mean aggregate across datasets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError


# ---------------------------------------------------------------------------
# case scores
# ---------------------------------------------------------------------------


@dataclass
class CaseScores:
    """Per-case results of one submission (mixer + kernel) on one dataset."""

    submission: str
    dataset: str
    case_ids: list[str]
    labels: Optional[np.ndarray] = None  # (n,) int, classification
    scores: Optional[np.ndarray] = None  # (n, k) float, classification
    dsc: Optional[np.ndarray] = None  # (n,) float, segmentation

    def __post_init__(self):
        n = len(self.case_ids)
        for name in ("labels", "scores", "dsc"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr)
                setattr(self, name, arr)
                if arr.shape[0] != n:
                    raise DataError(f"{name} has {arr.shape[0]} rows for {n} cases")
        if self.labels is not None and self.scores is not None and self.scores.ndim == 2:
            k = self.scores.shape[1]
            if not np.isin(self.labels, np.arange(k)).all():
                name = f"submission {self.submission!r} on {self.dataset!r}"
                raise DataError(f"{name}: labels must be in [0, {k})")

    def same_cases(self, other: "CaseScores") -> bool:
        return self.case_ids == other.case_ids


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _tie_groups(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one tie rule of every rank here, from one stable sort of 1-D
    ``values``: the sort ``order``, each sorted value's 1-based tie group
    ``g`` and the group ``edges``. Group g spans sorted positions
    [edges[g-1], edges[g]), and its values share the mean of their 1-based
    positions, the rank (edges[g-1] + 1 + edges[g]) / 2."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.r_[True, ordered[1:] != ordered[:-1]]
    return order, np.cumsum(new), np.r_[np.flatnonzero(new), values.size]


def auc_macro(scores: np.ndarray, labels: np.ndarray) -> float:
    """Macro one-vs-rest Mann-Whitney AUC (ties count one half) over the
    classes present in ``labels``.

    A class column with no positive labels is skipped with a warning;
    fewer than two present classes is an error.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 2 or scores.shape[0] != labels.shape[0]:
        raise DataError("scores must be (n, k) aligned with labels")
    if np.unique(labels).size < 2:
        raise DataError("AUC needs at least two classes present")
    for cls in range(scores.shape[1]):
        if not (labels == cls).any():
            warnings.warn(f"class {cls} absent from labels; skipped in macro AUC")
    return float(_auc_vector(scores, labels, np.ones((labels.shape[0], 1), dtype=np.int64))[0])


def _mean_dice(pred: np.ndarray, true: np.ndarray, classes) -> float:
    """Mean over ``classes`` of 2·TP / (2·TP + FP + FN), which is a class's
    F1 and also its Dice; each class must occur in ``pred`` or ``true``."""
    return float(np.mean([2.0 * ((pred == c) & (true == c)).sum() / ((pred == c).sum() + (true == c).sum())
                          for c in classes]))


def f1_macro(pred_labels: np.ndarray, true_labels: np.ndarray) -> float:
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.size == 0 or pred.shape != true.shape:
        raise DataError("f1_macro needs equal-length non-empty label arrays")
    return _mean_dice(pred, true, np.union1d(pred, true))


def dice_classes(pred: np.ndarray, true: np.ndarray, k: int) -> np.ndarray:
    """(k,) bool: the classes a Dice mean scores, the nonzero ones present
    in the hard prediction ``pred`` or in the target ``true`` (ids in [0, k))."""
    keep = (np.bincount(pred.reshape(-1), minlength=k) > 0) | (np.bincount(true.reshape(-1), minlength=k) > 0)
    keep[0] = False
    return keep


def dsc(pred_mask: np.ndarray, true_mask: np.ndarray) -> float:
    """Per-case Dice: mean over the foreground (nonzero) classes present in
    the prediction or in the target."""
    pred = np.asarray(pred_mask)
    true = np.asarray(true_mask)
    if pred.size == 0 or pred.shape != true.shape:
        raise DataError("dsc needs equal-shape non-empty masks")
    if any(m.dtype.kind not in "biu" or m.min() < 0 for m in (pred, true)):
        raise DataError("mask class ids must be non-negative integers")
    classes = np.flatnonzero(dice_classes(pred, true, int(max(pred.max(), true.max())) + 1))
    if not classes.size:
        raise DataError("no class to score (all empty)")
    return _mean_dice(pred, true, classes)


# ---------------------------------------------------------------------------
# significance comparators
# ---------------------------------------------------------------------------

A_WINS, B_WINS, TIE = "A_wins", "B_wins", "tie"


@dataclass
class BootstrapResult:
    verdict: str
    ci_low: float
    ci_high: float
    used_repeats: int


def _resample_draws(labels: np.ndarray, repeats: int, seed: int) -> np.ndarray:
    """(n, R') int counts of each case's draws by resample r < repeats, from
    ``default_rng(seed ^ r)``, less the resamples whose labels collapse to one class."""
    if repeats < 100:
        raise ConfigError("bootstrap needs at least 100 repeats")
    n = labels.shape[0]
    idx = np.stack([np.random.default_rng(seed ^ r).integers(0, n, size=n) for r in range(repeats)])
    idx = idx[(labels[idx] != labels[idx[:, :1]]).any(axis=1)]
    if idx.shape[0] == 0:
        raise DataError("every bootstrap resample was degenerate")
    r = len(idx)
    return np.bincount((idx * r + np.arange(r)[:, None]).ravel(), minlength=idx.size).reshape(n, r)


def _rank_sum(column: np.ndarray, pos: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """(R,) sum of the 1-based ranks of the positive draws in each resample
    of the (n, R) draw counts, from the ``_tie_groups`` of the n scores: a
    tie group's draws, after ``below`` lower ones up to draw ``upto``, share
    the rank (below + 1 + upto) / 2. The sum is exact, as a sort per resample's."""
    order, g, edges = _tie_groups(column)
    upto = np.zeros((column.size + 1, draws.shape[1]), dtype=draws.dtype)
    np.cumsum(draws[order], axis=0, out=upto[1:])  # upto[i]: the draws of the i lowest cases
    g, cases = g[pos[order]], order[pos[order]]  # each positive case and its tie group
    return (draws[cases] * (upto[edges[g - 1]] + 1 + upto[edges[g]])).sum(axis=0) / 2.0


def _auc_vector(scores: np.ndarray, labels: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Entry r is the macro AUC of the resample that draws case c ``draws[c, r]``
    times: each present class's Mann-Whitney U (``_rank_sum``) over npos * nneg,
    the kept classes averaged in ``np.mean``'s summation order."""
    n = draws.shape[0]
    aucs = np.empty((draws.shape[1], scores.shape[1]))
    kept = np.empty(aucs.shape, dtype=bool)
    for cls in range(scores.shape[1]):
        pos = labels == cls
        npos = draws[pos].sum(axis=0)
        kept[:, cls] = npos > 0  # a resample keeps two classes, so npos < n
        u = _rank_sum(scores[:, cls], pos, draws)
        aucs[:, cls] = (u - npos * (npos + 1) / 2.0) / np.maximum(npos * (n - npos), 1)
    out = np.empty(aucs.shape[0])
    for keep in np.unique(kept, axis=0):  # a C-contiguous row adds in np.mean(row[keep])'s order
        rows = (kept == keep).all(axis=1)
        out[rows] = np.ascontiguousarray(aucs[rows][:, keep]).mean(axis=1)
    return out


def _bootstrap_pairs(
    subs: Sequence[CaseScores], repeats: int = 5000, alpha: float = 0.05, seed: int = 0
) -> Callable[[int, int], BootstrapResult]:
    """Check every submission once, compute each one's macro AUCs from one
    shared (n, R) matrix of resample draw counts, one sort per class column,
    and return the CI of AUC(i) - AUC(j) by (i, j)."""
    first = subs[0]
    for sub in subs:
        name = f"submission {sub.submission!r} on {sub.dataset!r}"
        if sub.labels is None or sub.scores is None or sub.scores.ndim != 2:
            raise DataError(f"{name}: bootstrap comparison needs labels and (n, k) scores")
        if not np.array_equal(sub.labels, first.labels):
            raise DataError(f"{name} disagrees with {first.submission!r} on case labels")
    draws = _resample_draws(first.labels, repeats, seed)
    aucs = [_auc_vector(sub.scores, first.labels, draws) for sub in subs]

    def pair(i: int, j: int) -> BootstrapResult:
        diffs = aucs[i] - aucs[j]
        lo, hi = (float(q) for q in np.percentile(diffs, [100 * alpha / 2, 100 * (1 - alpha / 2)]))
        return BootstrapResult(A_WINS if lo > 0 else B_WINS if hi < 0 else TIE, lo, hi, diffs.size)

    return pair


def bootstrap_auc_win(
    a: CaseScores,
    b: CaseScores,
    repeats: int = 5000,
    alpha: float = 0.05,
    seed: int = 0,
) -> BootstrapResult:
    """Percentile bootstrap CI of AUC(A) - AUC(B) on shared cases.

    Resample r draws its case indices from a generator seeded with
    ``seed ^ r``, so repeats are reproducible and order-independent. A wins
    when the whole two-sided CI sits above zero, B when below; resamples
    that collapse to a single class are skipped. The indices do not depend
    on the pair, so this is the two-submission case of ``pairwise_wins``,
    which shares them and computes each submission's AUCs once.
    """
    if not a.same_cases(b):
        raise DataError("submissions must share the identical case list and order")
    return _bootstrap_pairs([a, b], repeats, alpha, seed)(0, 1)


@dataclass
class WilcoxonResult:
    verdict: str
    p_value: float
    w_pos: float
    w_neg: float
    n_effective: int


# the exact test's largest case count; its counts fit int64 up to 62
WILCOXON_EXACT_CASES = 25


def _wilcoxon_exact_tail(doubled_ranks: np.ndarray, w2: int) -> tuple[float, float]:
    """P(W+ <= w) and P(W+ >= w) over all 2^n sign assignments, exact.

    Works on ranks doubled into integers so tie-averaged half ranks stay
    exact; the counts sum to 2^n, which fits in int64 for n <= 62.
    """
    total = int(doubled_ranks.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for dr in doubled_ranks:
        shifted = np.zeros_like(counts)
        shifted[dr:] = counts[: total + 1 - dr]
        counts = counts + shifted
    denom = float(2 ** len(doubled_ranks))
    p_le = counts[: w2 + 1].sum() / denom
    p_ge = counts[w2:].sum() / denom
    return float(p_le), float(p_ge)


def wilcoxon_signed_rank(
    a_values: Sequence[float], b_values: Sequence[float], alpha: float = 0.05
) -> WilcoxonResult:
    """Two-sided paired signed-rank test on per-case values (zero
    differences dropped).

    The ranks of |d| are ``_tie_groups``'s, doubled into integers. Exact
    sign-assignment distribution up to ``WILCOXON_EXACT_CASES`` cases,
    normal approximation with tie correction beyond. The verdict combines
    significance with the direction of the rank sums.
    """
    a = np.asarray(a_values, dtype=np.float64)
    b = np.asarray(b_values, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise DataError("wilcoxon needs equal-length non-empty paired samples")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return WilcoxonResult(TIE, 1.0, 0.0, 0.0, 0)
    order, g, edges = _tie_groups(np.abs(d))
    doubled = np.empty(n, dtype=np.int64)
    doubled[order] = edges[g - 1] + 1 + edges[g]
    w2 = int(doubled[d > 0].sum())
    w_pos, w_neg = w2 / 2.0, int(doubled[d < 0].sum()) / 2.0

    if n <= WILCOXON_EXACT_CASES:
        p = min(1.0, 2.0 * min(_wilcoxon_exact_tail(doubled, w2)))
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        tie_counts = np.diff(edges)
        var -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
        if var <= 0:
            return WilcoxonResult(TIE, 1.0, w_pos, w_neg, n)
        z = (w_pos - mu) / math.sqrt(var)
        p = math.erfc(abs(z) / math.sqrt(2.0))

    if p < alpha and w_pos != w_neg:
        verdict = A_WINS if w_pos > w_neg else B_WINS
    else:
        verdict = TIE
    return WilcoxonResult(verdict, p, w_pos, w_neg, n)


# ---------------------------------------------------------------------------
# round-robin ranking
# ---------------------------------------------------------------------------


def pairwise_wins(
    submissions: Sequence[CaseScores],
    comparator: str = "bootstrap",
    **kwargs,
) -> dict[str, int]:
    """Round-robin significant-win counts over one dataset. The bootstrap
    gives each pair ``bootstrap_auc_win``'s verdict, but its resample indices
    are shared by every pair, so S submissions cost S vectors of AUCs."""
    if len(submissions) < 2:
        raise ConfigError("need at least two submissions to compare")
    first = submissions[0]
    for sub in submissions[1:]:
        if not first.same_cases(sub):
            raise DataError(
                f"case lists differ between {first.submission!r} and {sub.submission!r}"
            )
    if callable(comparator):
        compare: Callable = lambda i, j: comparator(submissions[i], submissions[j])
    elif comparator == "bootstrap":
        pair = _bootstrap_pairs(submissions, **kwargs)
        compare = lambda i, j: pair(i, j).verdict
    elif comparator == "wilcoxon":
        for sub in submissions:
            if sub.dsc is None:
                name = f"submission {sub.submission!r} on {sub.dataset!r}"
                raise DataError(f"{name}: wilcoxon comparison needs per-case dsc values")
        dsc = [sub.dsc for sub in submissions]
        compare = lambda i, j: wilcoxon_signed_rank(dsc[i], dsc[j], **kwargs).verdict
    else:
        raise ConfigError(f"unknown comparator {comparator!r}")
    wins = {sub.submission: 0 for sub in submissions}
    for i in range(len(submissions)):
        for j in range(i + 1, len(submissions)):
            verdict = compare(i, j)
            if verdict == A_WINS:
                wins[submissions[i].submission] += 1
            elif verdict == B_WINS:
                wins[submissions[j].submission] += 1
    return wins


def normalize_ranks(wins: dict[str, int]) -> dict[str, float]:
    """Positional scores on [0.1, 1]: ascending win order, the 1-indexed
    position p scores 0.1 + (p-1) * 0.9/(n-1), equal win counts (a
    ``_tie_groups`` group) share the arithmetic mean of their positions' scores."""
    n = len(wins)
    if n < 2:
        raise ConfigError("ranking needs at least two submissions")
    names = list(wins)
    order, g, edges = _tie_groups(np.array(list(wins.values())))
    step = 0.9 / (n - 1)
    scores = [0.1 + p * step for p in range(n)]
    shared = [float(np.mean(scores[lo:hi])) for lo, hi in zip(edges[:-1], edges[1:])]
    return {names[i]: shared[k - 1] for i, k in zip(order, g)}


def aggregate_geomean(per_dataset: dict[str, dict[str, Optional[float]]]) -> dict[str, float]:
    """Geometric mean of normalized ranks across datasets.

    Every dataset must carry an entry for every submission; an explicit
    None marks "did not submit" and drops that dataset from the mean.
    """
    if not per_dataset:
        raise ConfigError("no datasets to aggregate")
    datasets = list(per_dataset)
    submissions = list(per_dataset[datasets[0]])
    out: dict[str, float] = {}
    for sub in submissions:
        vals = []
        for ds in datasets:
            if sub not in per_dataset[ds]:
                raise DataError(f"submission {sub!r} missing from dataset {ds!r}")
            v = per_dataset[ds][sub]
            if v is None:
                continue
            if v <= 0:
                raise DataError(f"rank score must be positive, got {v}")
            vals.append(math.log(v))
        if not vals:
            raise DataError(f"submission {sub!r} has no scored dataset")
        out[sub] = math.exp(float(np.mean(vals)))
    return out


# ---------------------------------------------------------------------------
# sliding-window inference
# ---------------------------------------------------------------------------


def _axis_starts(size: int, patch: int, stride: int) -> list[int]:
    starts = list(range(0, size - patch + 1, stride))
    if starts[-1] != size - patch:
        starts.append(size - patch)
    return starts


def gaussian_importance(patch_hw: tuple[int, int], sigma: Optional[float] = None) -> np.ndarray:
    """Separable Gaussian weight map, peak 1 at the patch center, sigma
    defaulting to patch/8 per axis; strictly positive everywhere."""
    ph, pw = patch_hw
    maps = []
    for size in (ph, pw):
        s = (size / 8.0) if sigma is None else sigma
        coords = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
        maps.append(np.exp(-0.5 * (coords / s) ** 2))
    return np.outer(maps[0], maps[1])


def sliding_window_infer(
    predict: Callable[[np.ndarray], np.ndarray],
    image: np.ndarray,
    patch_hw: tuple[int, int],
    overlap: float = 0.25,
    sigma: Optional[float] = None,
) -> np.ndarray:
    """Tile the image with ``overlap``, weight per-patch logits with the
    Gaussian importance map, and blend by the accumulated weight.

    The grid strides by patch*(1-overlap) and clamps the final row/column
    to the image edge. A grid that is exactly one full-image window
    returns the model output directly (the weights cancel).
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise DataError("sliding_window_infer expects a (C, H, W) image")
    _, h, w = image.shape
    ph, pw = patch_hw
    if ph > h or pw > w:
        raise DataError(f"patch {ph}x{pw} larger than image {h}x{w}")
    if not (0.0 <= overlap < 1.0):
        raise ConfigError("overlap must be in [0, 1)")
    if (ph, pw) == (h, w):
        return np.asarray(predict(image), dtype=np.float64)

    stride_h = max(1, int(round(ph * (1.0 - overlap))))
    stride_w = max(1, int(round(pw * (1.0 - overlap))))
    weight = gaussian_importance(patch_hw, sigma)
    num = None
    den = np.zeros((h, w))
    for top in _axis_starts(h, ph, stride_h):
        for left in _axis_starts(w, pw, stride_w):
            logits = np.asarray(predict(image[:, top : top + ph, left : left + pw]))
            if num is None:
                num = np.zeros((logits.shape[0], h, w))
            num[:, top : top + ph, left : left + pw] += logits * weight
            den[top : top + ph, left : left + pw] += weight
    return num / den


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def csv_text(rows: Iterable[Iterable]) -> str:
    """The one CSV writer: a ``\\n``-ended line per row, fields joined by
    commas. ``None`` is an empty field, a float (``np.float64`` too) its
    shortest round-trip ``repr``, anything else ``str``. The dialect has no
    quoting, so a field holding a comma, a line break or a blank at either
    end is a DataError."""
    lines = []
    for row in rows:
        fields = ["" if v is None else repr(float(v)) if isinstance(v, float) else str(v) for v in row]
        for f in fields:  # a line break is any place where csv_table's splitlines breaks
            if "," in f or f.splitlines() not in ([], [f]):
                raise DataError(f"CSV field {f!r} holds a comma or a line break")
            if f != f.strip():  # csv_table strips each line, so an edge field would lose it
                raise DataError(f"CSV field {f!r} starts or ends with a blank")
        lines.append(",".join(fields) + "\n")
    return "".join(lines)


def write_case_scores_csv(cs: CaseScores) -> str:
    if cs.dsc is not None:
        return csv_text([("case_id", "dsc"), *zip(cs.case_ids, cs.dsc)])
    header = ["case_id", "label"] + [f"score_{i}" for i in range(cs.scores.shape[1])]
    rows = [[cid, int(label), *scores] for cid, label, scores in zip(cs.case_ids, cs.labels, cs.scores)]
    return csv_text([header] + rows)


def csv_table(text: str, source: str) -> tuple[list[str], list[list[str]]]:
    """Header fields and rows of CSV ``text``: lines stripped (so CRLF reads
    as LF), blank lines skipped, every row as long as the header. A file
    that breaks this is a one-line DataError naming ``source``."""
    lines = [ln for ln in (line.strip() for line in text.splitlines()) if ln]
    if not lines:
        raise DataError(f"{source}: empty CSV")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for row in rows:
        if len(row) != len(header):
            raise DataError(f"{source}: row {','.join(row)!r} has {len(row)} fields, not {len(header)}")
    return header, rows


def read_case_scores_csv(text: str, submission: str, dataset: str) -> CaseScores:
    """Parse ``case_id,dsc`` or ``case_id,label,score_0,...`` rows; a
    malformed row, an empty or repeated case_id or a non-finite value is a
    DataError."""
    source = f"case scores of {submission!r} on {dataset!r}"
    header, rows = csv_table(text, source)
    if header != ["case_id", "dsc"] and (
        header[:2] != ["case_id", "label"] or not all(h.startswith("score_") for h in header[2:])
    ):
        raise DataError(f"{source}: unrecognized header {header}")
    ids = [row[0] for row in rows]
    if "" in ids:
        raise DataError(f"{source}: empty case_id")
    if len(set(ids)) < len(ids):
        repeated = next(cid for i, cid in enumerate(ids) if cid in ids[:i])
        raise DataError(f"{source}: case_id {repeated!r} repeats")
    try:
        values = np.array([[float(v) for v in row[1:]] for row in rows]).reshape(len(rows), len(header) - 1)
        labels = np.array([int(row[1]) for row in rows]) if header[1] == "label" else None
    except ValueError as exc:
        raise DataError(f"{source}: {exc}") from None
    if not np.isfinite(values).all():
        raise DataError(f"{source}: non-finite value")
    if labels is None:
        return CaseScores(submission, dataset, ids, dsc=values[:, 0])
    return CaseScores(submission, dataset, ids, labels=labels, scores=values[:, 1:])


def rank_table_csv(
    dataset_order: list[str],
    wins_per_dataset: dict[str, dict[str, int]],
    ranks_per_dataset: dict[str, dict[str, Optional[float]]],
    global_ranks: dict[str, float],
) -> str:
    """Leaderboard CSV: one row per submission, best global rank first."""
    header = ["submission"]
    for ds in dataset_order:
        header.extend([f"{ds}_wins", f"{ds}_rank"])
    rows = [header + ["global"]]
    for sub in sorted(global_ranks, key=lambda s: (-global_ranks[s], s)):
        row = [sub]
        for ds in dataset_order:
            rank = ranks_per_dataset[ds].get(sub)
            row.extend([wins_per_dataset[ds].get(sub), None if rank is None else round(float(rank), 6)])
        rows.append(row + [round(float(global_ranks[sub]), 6)])
    return csv_text(rows)
