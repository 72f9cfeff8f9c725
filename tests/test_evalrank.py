"""Metrics against exhaustive oracles, the significance machinery, the
published ranking fixtures, and sliding-window blending."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import ranking_fixtures as fx
from mixerlab import evalrank
from mixerlab.errors import ConfigError, DataError
from mixerlab.evalrank import (
    A_WINS,
    B_WINS,
    TIE,
    WILCOXON_EXACT_CASES,
    CaseScores,
    _auc_vector,
    _resample_draws,
    _tie_groups,
    _wilcoxon_exact_tail,
    aggregate_geomean,
    auc_macro,
    bootstrap_auc_win,
    csv_table,
    csv_text,
    dice_classes,
    dsc,
    f1_macro,
    gaussian_importance,
    normalize_ranks,
    pairwise_wins,
    rank_table_csv,
    read_case_scores_csv,
    sliding_window_infer,
    wilcoxon_signed_rank,
    write_case_scores_csv,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def auc_pair_count_oracle(scores, labels):
    """Count concordant pairs (ties half) over every positive/negative pair."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def wilcoxon_enumeration_oracle(diffs, two_sided=True):
    """Two-sided exact p by enumerating all 2^n sign assignments of the
    observed tie-averaged ranks."""
    from scipy.stats import rankdata

    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    ranks = rankdata(np.abs(d), method="average")
    w_obs = ranks[d > 0].sum()
    n = len(ranks)
    le = ge = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w <= w_obs + 1e-12:
            le += 1
        if w >= w_obs - 1e-12:
            ge += 1
    p_le, p_ge = le / 2**n, ge / 2**n
    if two_sided:
        return min(1.0, 2.0 * min(p_le, p_ge))
    return p_ge if w_obs >= ranks.sum() / 2 else p_le


def auc_vector_oracle(scores, labels, idx):
    """Row r is the macro AUC of resample ``idx[r]`` (case indices), with a
    sort of every resample's scores: each present class's Mann-Whitney U
    from ``rankdata`` over npos * nneg, the kept classes averaged by ``np.mean``."""
    drawn, n = labels[idx], idx.shape[1]
    aucs = np.empty((idx.shape[0], scores.shape[1]))
    kept = np.empty(aucs.shape, dtype=bool)
    for cls in range(scores.shape[1]):
        pos = drawn == cls
        npos = pos.sum(axis=1)
        kept[:, cls] = npos > 0
        u = np.where(pos, rankdata(scores[idx, cls], axis=-1), 0.0).sum(axis=1)
        aucs[:, cls] = (u - npos * (npos + 1) / 2.0) / np.maximum(npos * (n - npos), 1)
    return np.array([np.mean(row[keep]) for row, keep in zip(aucs, kept)])


def wilcoxon_oracle(a_values, b_values, alpha=0.05):
    """``wilcoxon_signed_rank`` as it stood before ``_tie_groups``, with
    ``rankdata`` for its float ranks: the doubled ranks rounded back from
    them, the tie counts from ``np.unique`` of the ranks."""
    d = np.asarray(a_values, dtype=np.float64) - np.asarray(b_values, dtype=np.float64)
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return evalrank.WilcoxonResult(TIE, 1.0, 0.0, 0.0, 0)
    ranks = rankdata(np.abs(d))
    w_pos = float(ranks[d > 0].sum())
    w_neg = float(ranks[d < 0].sum())
    if n <= WILCOXON_EXACT_CASES:
        doubled = np.array([int(round(2 * r)) for r in ranks])
        p = min(1.0, 2.0 * min(_wilcoxon_exact_tail(doubled, int(round(2 * w_pos)))))
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(ranks, return_counts=True)
        var -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
        if var <= 0:
            return evalrank.WilcoxonResult(TIE, 1.0, w_pos, w_neg, n)
        p = math.erfc(abs((w_pos - mu) / math.sqrt(var)) / math.sqrt(2.0))
    verdict = TIE if p >= alpha or w_pos == w_neg else A_WINS if w_pos > w_neg else B_WINS
    return evalrank.WilcoxonResult(verdict, p, w_pos, w_neg, n)


def normalize_ranks_oracle(wins):
    """``normalize_ranks`` as it stood before ``_tie_groups``: a stable sort
    by wins, then a walk over each run of equal counts."""
    n = len(wins)
    by_wins = sorted(wins.items(), key=lambda kv: kv[1])
    step = 0.9 / (n - 1)
    scores = [0.1 + p * step for p in range(n)]
    out = {}
    i = 0
    while i < n:
        j = i
        while j < n and by_wins[j][1] == by_wins[i][1]:
            j += 1
        shared = float(np.mean(scores[i:j]))
        for name, _ in by_wins[i:j]:
            out[name] = shared
        i = j
    return out


def resample_indices_oracle(labels, repeats, seed):
    """(R', n) case indices: resample r drawn from ``default_rng(seed ^ r)``,
    less those whose labels collapse to one class."""
    n = labels.shape[0]
    idx = [np.random.default_rng(seed ^ r).integers(0, n, size=n) for r in range(repeats)]
    return np.array([i for i in idx if np.unique(labels[i]).size > 1]).reshape(-1, n)


def bootstrap_oracle(a, b, repeats=5000, alpha=0.05, seed=0):
    """One resample at a time: draw from ``default_rng(seed ^ r)``, skip a
    resample whose labels collapse to one class, take the two submissions'
    ``auc_vector_oracle``, then the percentile CI of the differences."""
    diffs = []
    for idx in resample_indices_oracle(a.labels, repeats, seed):
        auc_a, auc_b = (auc_vector_oracle(sub.scores, a.labels, idx[None])[0] for sub in (a, b))
        diffs.append(auc_a - auc_b)
    if not diffs:
        raise DataError("every bootstrap resample was degenerate")
    lo = float(np.percentile(diffs, 100 * alpha / 2))
    hi = float(np.percentile(diffs, 100 * (1 - alpha / 2)))
    verdict = A_WINS if lo > 0 else B_WINS if hi < 0 else TIE
    return verdict, lo, hi, len(diffs)


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------


class TestRanks:
    def test_bit_for_bit_with_rankdata(self):
        # the 1-D ranks that _tie_groups implies: group g's (edges[g-1] + 1 + edges[g]) / 2
        rng = np.random.default_rng(3)
        for trial in range(40):
            n = int(rng.integers(1, 30))
            untied = rng.standard_normal(n)
            tied = rng.choice([-1.0, 0.0, 0.25, 0.25, 3.0], size=n)
            for values in (untied, tied):
                order, g, edges = _tie_groups(values)
                got = np.empty(n)
                got[order] = (edges[g - 1] + 1 + edges[g]) / 2.0
                want = rankdata(values)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), values


class TestAuc:
    def test_perfect_ranking(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.stack([1 - labels, labels], axis=1).astype(float)
        assert auc_macro(scores, labels) == 1.0

    def test_constant_scores_give_half(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.ones((4, 2))
        assert auc_macro(scores, labels) == 0.5

    def test_six_point_case_vs_pair_count(self):
        labels = np.array([0, 1, 0, 1, 1, 0])
        s1 = np.array([0.1, 0.9, 0.4, 0.4, 0.8, 0.3])
        scores = np.stack([1 - s1, s1], axis=1)
        want = auc_pair_count_oracle(s1, labels)
        assert auc_macro(scores, labels) == want

    def test_exhaustive_binary_instances(self):
        rng = np.random.default_rng(0)
        for n in range(2, 13):
            for _ in range(20):
                labels = rng.integers(0, 2, size=n)
                if labels.min() == labels.max():
                    continue
                s1 = rng.choice([0.1, 0.25, 0.5, 0.5, 0.9], size=n)
                scores = np.stack([1 - s1, s1], axis=1)
                got = auc_macro(scores, labels)
                want = auc_pair_count_oracle(s1, labels)
                assert got == want, (n, labels.tolist(), s1.tolist())

    def test_absent_class_skipped_with_warning(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.random.default_rng(1).random((4, 3))
        with pytest.warns(UserWarning):
            auc_macro(scores, labels)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auc_macro(np.ones((3, 2)), np.zeros(3, dtype=int))

    @pytest.mark.parametrize("k", [2, 3, 8, 10])
    def test_identity_resample_equals_sort_oracle(self, k):
        rng = np.random.default_rng(k)
        for decimals in (1, 3):
            labels = np.r_[np.arange(k), rng.integers(0, k, size=5 * k)]
            scores = rng.random((labels.size, k)).round(decimals)
            want = auc_vector_oracle(scores, labels, np.arange(labels.size)[None])[0]
            assert auc_macro(scores, labels) == want


def f1_macro_oracle(pred, true):
    """Reference for f1_macro: its own per-class tp/fp/fn loop, with no code
    shared with dsc."""
    f1s = []
    for cls in np.union1d(np.unique(pred), np.unique(true)):
        tp = int(((pred == cls) & (true == cls)).sum())
        fp = int(((pred == cls) & (true != cls)).sum())
        fn = int(((pred != cls) & (true == cls)).sum())
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(f1s))


def dsc_oracle(pred, true):
    """Reference for dsc: its own per-class loop over dice_classes, with no
    code shared with f1_macro."""
    vals = []
    for cls in np.flatnonzero(dice_classes(pred, true, int(max(pred.max(), true.max())) + 1)):
        a = pred == cls
        b = true == cls
        vals.append(2.0 * np.logical_and(a, b).sum() / (a.sum() + b.sum()))
    return float(np.mean(vals))


class TestF1AndDsc:
    def test_perfect_prediction(self):
        y = np.array([0, 1, 2, 1])
        assert f1_macro(y, y) == 1.0

    def test_dsc_perfect_and_disjoint(self):
        a = np.array([[1, 1], [0, 0]])
        assert dsc(a, a) == 1.0
        b = np.array([[0, 0], [1, 1]])
        assert dsc(a, b) == 0.0

    def test_dsc_half_overlap(self):
        pred = np.array([[1, 1], [0, 0]])
        true = np.array([[1, 0], [1, 0]])
        assert dsc(pred, true) == pytest.approx(2 * 1 / (2 + 2))

    def test_dsc_skips_class_empty_in_both(self):
        pred = np.array([[1, 1], [2, 2]])
        true = np.array([[1, 1], [2, 0]])
        # class 3 absent from both masks entirely: only classes 1, 2 scored
        val = dsc(pred, true)
        assert val == pytest.approx((1.0 + 2 * 1 / (2 + 1)) / 2)

    def test_empty_inputs_rejected(self):
        with pytest.raises(DataError):
            f1_macro(np.array([]), np.array([]))
        with pytest.raises(DataError):
            dsc(np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int))

    @pytest.mark.parametrize("pred", [np.array([[1, -1]]), np.array([[1.0, 0.0]])])
    def test_class_ids_not_non_negative_integers_rejected(self, pred):
        with pytest.raises(DataError, match="non-negative integers"):
            dsc(pred, np.array([[1, 0]]))

    @pytest.mark.parametrize("seed", range(20))
    def test_dsc_bit_equal_to_union_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        pred, true = rng.integers(0, k, (2, 6, 5)) * (rng.random((2, 6, 5)) < 0.7)
        # the old rule: the sorted union of both masks' nonzero class ids
        classes = np.union1d(np.unique(pred), np.unique(true))
        vals = [2.0 * np.logical_and(pred == c, true == c).sum() / ((pred == c).sum() + (true == c).sum())
                for c in classes[classes != 0]]
        assert dsc(pred, true) == float(np.mean(vals))

    @pytest.mark.parametrize("seed", range(24))
    def test_f1_and_dsc_equal_their_loop_oracles(self, seed):
        rng = np.random.default_rng(seed)
        k = 1 + seed % 5  # 1-5 classes; k = 1 is a single-class input
        shape = (int(rng.integers(1, 40)),) if seed % 2 else tuple(int(n) for n in rng.integers(1, 9, 2))
        pred, true = rng.integers(0, k, shape), rng.integers(0, k, shape)
        assert f1_macro(pred, true) == f1_macro_oracle(pred, true)
        pred, true = pred + (rng.random(shape) < 0.6), true + (rng.random(shape) < 0.6)  # ids 0..k
        pred.flat[0] = max(pred.flat[0], 1)  # at least one foreground class
        assert dsc(pred, true) == dsc_oracle(pred, true)


# ---------------------------------------------------------------------------
# bootstrap comparator
# ---------------------------------------------------------------------------


def binary_cases(submission, labels, s1):
    scores = np.stack([1 - np.asarray(s1), np.asarray(s1)], axis=1)
    ids = [f"case{i}" for i in range(len(labels))]
    return CaseScores(submission, "toy", ids, labels=np.asarray(labels), scores=scores)


class TestBootstrap:
    def test_identical_submissions_tie(self):
        labels = np.tile([0, 1], 10)
        s = np.random.default_rng(2).random(20)
        a = binary_cases("a", labels, s)
        b = binary_cases("b", labels, s.copy())
        res = bootstrap_auc_win(a, b, repeats=200, seed=3)
        assert res.verdict == TIE
        assert res.ci_low == res.ci_high == 0.0

    def test_perfect_vs_antiperfect_golden(self):
        labels = np.tile([0, 1], 25)
        a = binary_cases("a", labels, labels.astype(float))
        b = binary_cases("b", labels, 1.0 - labels.astype(float))
        res = bootstrap_auc_win(a, b, repeats=500, seed=7)
        assert res.verdict == A_WINS
        assert res.ci_low > 0  # CI excludes zero
        # golden bounds from the seeded run: the AUC gap is identically 1
        assert res.ci_low == 1.0 and res.ci_high == 1.0

    def test_swap_is_antisymmetric(self):
        rng = np.random.default_rng(4)
        labels = np.tile([0, 1], 15)
        a = binary_cases("a", labels, np.clip(labels + rng.normal(0, 0.4, 30), 0, 1))
        b = binary_cases("b", labels, rng.random(30))
        r1 = bootstrap_auc_win(a, b, repeats=300, seed=5)
        r2 = bootstrap_auc_win(b, a, repeats=300, seed=5)
        flip = {A_WINS: B_WINS, B_WINS: A_WINS, TIE: TIE}
        assert r2.verdict == flip[r1.verdict]

    def test_too_few_repeats_rejected(self):
        labels = np.tile([0, 1], 5)
        a = binary_cases("a", labels, labels.astype(float))
        with pytest.raises(ConfigError):
            bootstrap_auc_win(a, a, repeats=50)

    def test_mismatched_cases_rejected(self):
        labels = np.tile([0, 1], 5)
        a = binary_cases("a", labels, labels.astype(float))
        b = binary_cases("b", labels, labels.astype(float))
        b.case_ids = list(reversed(b.case_ids))
        with pytest.raises(DataError):
            bootstrap_auc_win(a, b, repeats=200)


def random_submissions(rng, count, k=None):
    """``count`` submissions on one seeded draw of n in [6, 60] cases and k
    in {2, 3, 4} classes. Labels come from a random subset of at least two
    classes with skewed weights, so some classes are absent and small
    resamples collapse to one class; scores of growing skill are rounded
    to one or two decimals, so ranks tie."""
    n = int(rng.integers(6, 61))
    k = int(rng.integers(2, 5)) if k is None else k
    present = rng.choice(k, size=int(rng.integers(2, k + 1)), replace=False)
    labels = rng.choice(present, size=n, p=rng.dirichlet(np.full(present.size, 0.5)))
    labels[:2] = present[:2]
    ids = [f"case{i}" for i in range(n)]
    decimals = int(rng.integers(1, 3))
    return [
        CaseScores(f"s{i}", "toy", ids, labels=labels,
                   scores=(skill * np.eye(k)[labels] + rng.random((n, k))).round(decimals))
        for i, skill in enumerate(rng.permutation(np.linspace(0.0, 1.5, count)))
    ]


class TestBootstrapMatchesOracle:
    def test_pair_bit_for_bit(self):
        rng = np.random.default_rng(20)
        collapsed = absent = 0
        for case in range(50):
            a, b = random_submissions(rng, 2)
            seed, alpha = int(rng.integers(0, 2**16)), float(rng.choice([0.05, 0.1, 0.3]))
            want = bootstrap_oracle(a, b, repeats=100, alpha=alpha, seed=seed)
            res = bootstrap_auc_win(a, b, repeats=100, alpha=alpha, seed=seed)
            assert (res.verdict, res.ci_low, res.ci_high, res.used_repeats) == want, case
            collapsed += want[3] < 100
            absent += np.unique(a.labels).size < a.scores.shape[1]
        assert collapsed and absent  # the draws reach both skip rules

    def test_ten_classes_bit_for_bit(self):
        # from eight kept classes on, numpy's mean no longer sums in order
        rng = np.random.default_rng(25)
        labels = np.arange(60) % 10
        ids = [f"case{i}" for i in range(60)]
        a, b = (CaseScores(name, "toy", ids, labels=labels, scores=rng.random((60, 10)).round(2))
                for name in "ab")
        res = bootstrap_auc_win(a, b, repeats=100, seed=3)
        want = bootstrap_oracle(a, b, repeats=100, seed=3)
        assert (res.verdict, res.ci_low, res.ci_high, res.used_repeats) == want

    def test_all_resamples_degenerate(self):
        a, b = random_submissions(np.random.default_rng(23), 2)
        a.labels = b.labels = np.zeros_like(a.labels)
        for compare in (bootstrap_oracle, bootstrap_auc_win):
            with pytest.raises(DataError, match="degenerate"):
                compare(a, b, repeats=100)

    def test_tournament_equals_oracle_pair_by_pair(self):
        rng = np.random.default_rng(21)
        decided = 0
        for case in range(6):
            subs = random_submissions(rng, int(rng.integers(4, 6)))
            seed = int(rng.integers(0, 2**16))
            want = {sub.submission: 0 for sub in subs}
            for x, y in itertools.combinations(subs, 2):
                verdict = bootstrap_oracle(x, y, repeats=100, seed=seed)[0]
                if verdict != TIE:
                    want[(x if verdict == A_WINS else y).submission] += 1
            assert pairwise_wins(subs, repeats=100, seed=seed) == want, case
            decided += sum(want.values())
        assert decided  # not every pair tied

    @pytest.mark.parametrize("repeats", [100, 400])
    def test_tournament_ranks_each_class_column_once(self, monkeypatch, repeats):
        # one _rank_sum, which sorts a class column once, per submission and class
        calls, rank_sum = [], evalrank._rank_sum

        def counting_rank_sum(column, pos, draws):
            calls.append(draws.shape)
            return rank_sum(column, pos, draws)

        monkeypatch.setattr(evalrank, "_rank_sum", counting_rank_sum)
        subs = random_submissions(np.random.default_rng(22), 5, k=3)
        pairwise_wins(subs, repeats=repeats, seed=1)
        assert len(calls) == 5 * 3
        assert len(set(calls)) == 1  # every column reads the one shared draw count matrix


class TestAucVectorMatchesSortOracle:
    """The draw-count AUCs against ``auc_vector_oracle``, bit for bit."""

    @staticmethod
    def assert_bit_equal(scores, labels, repeats, seed):
        idx = resample_indices_oracle(labels, repeats, seed)
        draws = _resample_draws(labels, repeats, seed)
        r = np.arange(idx.shape[0])
        want_draws = np.zeros(draws.shape, dtype=np.int64)
        np.add.at(want_draws, (idx, r[:, None]), 1)
        assert draws.dtype == np.int64 and np.array_equal(draws, want_draws)
        got, want = _auc_vector(scores, labels, draws), auc_vector_oracle(scores, labels, idx)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        return idx

    @pytest.mark.parametrize("k", [2, 3, 8, 10])
    @pytest.mark.parametrize("repeats", [100, 1000])
    def test_ties_and_absent_classes(self, k, repeats):
        rng = np.random.default_rng([k, repeats])
        for decimals in (1, 6):  # one decimal: heavy ties
            n = int(rng.integers(3 * k, 8 * k))
            labels = rng.choice(k, size=n, p=rng.dirichlet(np.full(k, 0.7)))
            labels[:2] = [0, 1]
            scores = rng.random((n, k)).round(decimals)
            idx = self.assert_bit_equal(scores, labels, repeats, int(rng.integers(0, 2**16)))
            kept = np.stack([(labels[idx] == c).any(axis=1) for c in range(k)], axis=1)
            assert k == 2 or not kept.all()  # from three classes on, some resample misses one

    @pytest.mark.parametrize("k", [2, 3, 8, 10])
    def test_one_case_per_class(self, k):
        scores = np.random.default_rng(k).random((k, k)).round(1)
        self.assert_bit_equal(scores, np.arange(k), 100, 5)


# ---------------------------------------------------------------------------
# wilcoxon signed-rank
# ---------------------------------------------------------------------------


class TestWilcoxon:
    def test_identical_samples_tie(self):
        x = np.array([0.8, 0.9, 0.7, 0.95])
        res = wilcoxon_signed_rank(x, x.copy())
        assert res.verdict == TIE and res.p_value == 1.0

    def test_n6_all_positive(self):
        a = np.array([0.9, 0.8, 0.85, 0.7, 0.95, 0.75])
        b = a - np.array([0.01, 0.02, 0.03, 0.04, 0.05, 0.06])
        res = wilcoxon_signed_rank(a, b)
        assert res.p_value == pytest.approx(2 / 64)
        assert res.verdict == A_WINS

    def test_n4_all_positive_not_significant(self):
        a = np.array([0.9, 0.8, 0.85, 0.7])
        b = a - np.array([0.01, 0.02, 0.03, 0.04])
        res = wilcoxon_signed_rank(a, b)
        assert res.p_value == pytest.approx(2 / 16)
        assert res.verdict == TIE

    def test_exact_matches_sign_enumeration(self):
        rng = np.random.default_rng(6)
        for n in range(2, 13):
            for trial in range(10):
                d = rng.choice([-0.3, -0.1, 0.1, 0.1, 0.2, 0.4], size=n)
                if (d > 0).sum() == 0 and (d < 0).sum() == 0:
                    continue
                # feed differences exactly so tie structure is controlled
                res = wilcoxon_signed_rank(d, np.zeros(n))
                want = wilcoxon_enumeration_oracle(d)
                assert res.p_value == pytest.approx(want, abs=1e-12), (n, d.tolist())

    def test_normal_approximation_regime(self):
        rng = np.random.default_rng(8)
        a = rng.random(40) + 0.3
        b = a - rng.normal(0.1, 0.05, 40)
        res = wilcoxon_signed_rank(a, b)
        from scipy.stats import wilcoxon as scipy_wilcoxon

        ref = scipy_wilcoxon(a, b, zero_method="wilcox", correction=False, mode="approx")
        assert res.p_value == pytest.approx(float(ref.pvalue), rel=1e-9)

    def test_normal_tail_matches_scipy_ndtr(self):
        from scipy.special import ndtr

        for z in np.linspace(0.0, 8.0, 8001):
            want = 2.0 * float(ndtr(-z))
            assert math.erfc(z / math.sqrt(2.0)) == pytest.approx(want, rel=1e-12, abs=0.0), z

    def test_first_normal_approximation_case_matches_scipy(self):
        from scipy.stats import wilcoxon as scipy_wilcoxon

        n = WILCOXON_EXACT_CASES + 1
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.integers(0, 64, n) / 64.0
            b = a - rng.choice([-3, -2, -1, 1, 2, 3, 4, 5], n) / 64.0  # exact, so |a - b| ties
            assert np.unique(np.abs(a - b)).size < n
            res = wilcoxon_signed_rank(a, b)
            assert res.n_effective == n
            ref = scipy_wilcoxon(a, b, zero_method="wilcox", correction=False, mode="approx")
            assert res.p_value == pytest.approx(float(ref.pvalue), rel=1e-12)

    def test_all_zero_differences_tie(self):
        res = wilcoxon_signed_rank([1.0, 1.0], [1.0, 1.0])
        assert res.verdict == TIE and res.n_effective == 0

    def test_exact_limit_capped_where_counts_fit_int64(self):
        from scipy.stats import wilcoxon as scipy_wilcoxon

        rng = np.random.default_rng(10)
        a = rng.random(WILCOXON_EXACT_CASES)
        b = a - rng.normal(0.05, 0.1, WILCOXON_EXACT_CASES)
        assert WILCOXON_EXACT_CASES == 25 and np.count_nonzero(a - b) == 25
        res = wilcoxon_signed_rank(a, b)
        ref = scipy_wilcoxon(a, b, method="exact")
        assert res.p_value == pytest.approx(float(ref.pvalue), rel=1e-12)


class TestWilcoxonMatchesRankdataOracle:
    """Every field of the result, bit for bit, against the ranks of ``rankdata``."""

    def assert_same(self, a, b):
        got, want = wilcoxon_signed_rank(a, b), wilcoxon_oracle(a, b)
        assert got == want, (got, want)
        assert all(type(getattr(got, f)) is type(getattr(want, f)) for f in vars(want))

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 25, 26, 40, 60])
    def test_tied_untied_and_zero_differences(self, n):
        rng = np.random.default_rng(n)
        for trial in range(20):
            a = rng.random(n).round(2)  # two decimals, so |d| ties
            b = (a + rng.normal(0.03 * (trial % 3 - 1), 0.05, n)).round(2 if trial % 2 else 17)
            b[: trial % 4] = a[: trial % 4]  # some zero differences
            self.assert_same(a, b)

    @pytest.mark.parametrize("n", [25, 26])
    def test_every_difference_tied_or_zero(self, n):
        a = np.zeros(n)
        self.assert_same(a, np.full(n, 0.5))
        self.assert_same(a, np.r_[np.full(n // 2, 0.5), np.full(n - n // 2, -0.5)])
        self.assert_same(a, np.r_[np.zeros(n - 3), 0.25, -0.25, 0.25])
        self.assert_same(a, a.copy())


# ---------------------------------------------------------------------------
# round robin, normalization, aggregation
# ---------------------------------------------------------------------------


def dominance_verdicts(wins_by_name: dict[str, int]):
    """Build a consistent verdict table where each submission beats exactly
    its published number of weaker (tie-broken) opponents."""
    order = sorted(wins_by_name, key=lambda s: (wins_by_name[s], s))
    beats: dict[str, set] = {name: set() for name in order}
    for i, name in enumerate(order):
        need = wins_by_name[name]
        targets = order[:i] + [o for o in order[i + 1 :] if o != name]
        chosen = targets[:need]
        assert len(chosen) == need, f"cannot realize {need} wins for {name}"
        beats[name] = set(chosen)
    for a in order:
        for b in beats[a]:
            assert a not in beats[b], f"{a} and {b} beat each other"

    def verdict(x: CaseScores, y: CaseScores) -> str:
        if y.submission in beats[x.submission]:
            return A_WINS
        if x.submission in beats[y.submission]:
            return B_WINS
        return TIE

    return verdict


def dummy_cases(names):
    ids = ["c0", "c1"]
    return [CaseScores(n, "ds", list(ids), dsc=np.array([0.5, 0.5])) for n in names]


class TestPairwiseWins:
    def test_dominant_submission(self):
        labels = np.tile([0, 1], 20)
        rng = np.random.default_rng(9)
        strong = binary_cases("strong", labels, labels.astype(float))
        weak1 = binary_cases("weak1", labels, rng.random(40))
        weak2 = binary_cases("weak2", labels, rng.random(40))
        wins = pairwise_wins([strong, weak1, weak2], comparator="bootstrap", repeats=200, seed=11)
        assert wins["strong"] == 2
        assert wins["weak1"] <= 1 and wins["weak2"] <= 1

    def test_all_ties_give_zero(self):
        names = ["a", "b", "c"]
        wins = pairwise_wins(dummy_cases(names), comparator=lambda x, y: TIE)
        assert wins == {"a": 0, "b": 0, "c": 0}

    def test_imagewoof_column_from_stored_verdicts(self):
        published = fx.dataset_wins(fx.CLASSIFICATION_SCRATCH, "imagewoof")
        verdict = dominance_verdicts(published)
        wins = pairwise_wins(dummy_cases(sorted(published)), comparator=verdict)
        assert wins == published

    def test_mismatched_case_lists_rejected(self):
        a = CaseScores("a", "ds", ["c0", "c1"], dsc=np.array([1.0, 1.0]))
        b = CaseScores("b", "ds", ["c1", "c0"], dsc=np.array([1.0, 1.0]))
        with pytest.raises(DataError):
            pairwise_wins([a, b], comparator=lambda x, y: TIE)


class TestNormalizeRanks:
    def test_two_submissions_endpoints(self):
        assert normalize_ranks({"a": 0, "b": 5}) == {"a": 0.1, "b": 1.0}

    def test_three_way_tie(self):
        out = normalize_ranks({"a": 2, "b": 2, "c": 2})
        want = (0.1 + 0.55 + 1.0) / 3
        assert all(v == pytest.approx(want) for v in out.values())

    def test_single_submission_rejected(self):
        with pytest.raises(ConfigError):
            normalize_ranks({"a": 3})

    @given(
        wins=st.lists(st.integers(min_value=0, max_value=20), min_size=2, max_size=10),
        scale=st.integers(min_value=1, max_value=5),
        shift=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_monotone_transform(self, wins, scale, shift):
        names = [f"s{i}" for i in range(len(wins))]
        base = normalize_ranks(dict(zip(names, wins)))
        transformed = normalize_ranks({n: scale * w + shift for n, w in zip(names, wins)})
        for n in names:
            assert base[n] == pytest.approx(transformed[n])

    @given(wins=st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=14))
    @settings(max_examples=150, deadline=None)
    def test_range_and_extremes(self, wins):
        names = [f"s{i}" for i in range(len(wins))]
        out = normalize_ranks(dict(zip(names, wins)))
        assert all(0.1 - 1e-12 <= v <= 1.0 + 1e-12 for v in out.values())
        lo, hi = min(wins), max(wins)
        if wins.count(hi) == 1:
            best = names[wins.index(hi)]
            assert out[best] == pytest.approx(1.0)
        if wins.count(lo) == 1:
            worst = names[wins.index(lo)]
            assert out[worst] == pytest.approx(0.1)


class TestNormalizeRanksMatchesWalkOracle:
    @staticmethod
    def assert_same(wins):
        got, want = normalize_ranks(wins), normalize_ranks_oracle(wins)
        assert list(got.items()) == list(want.items()), (wins, got, want)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_integer_and_float_wins_with_many_ties(self, n):
        rng = np.random.default_rng(n)
        names = [f"s{i}" for i in range(n)]
        for high in (1, 3, n):
            wins = rng.integers(0, high, n).tolist()
            self.assert_same(dict(zip(names, wins)))
            self.assert_same(dict(zip(names, (rng.integers(0, high, n) / 2.0).tolist())))
            self.assert_same(dict(zip(names, [w if i % 2 else float(w) for i, w in enumerate(wins)])))
        self.assert_same(dict(zip(names, range(n))))

    def test_33_submissions_bottom_two_tied(self):
        wins = {f"s{i}": max(i, 1) for i in range(33)}
        self.assert_same(wins)
        # the mean of the two scores lands just above the 6-decimal boundary that
        # the mean rank's score 0.1140625 sits on, so rank_table.csv shows 0.114063
        assert round(normalize_ranks(wins)["s0"], 6) == 0.114063 != round(0.1140625, 6)


class TestPublishedRankingTables:
    @pytest.mark.parametrize("table", fx.ALL_TABLES, ids=["scratch", "pretrained", "segmentation"])
    def test_every_tuple_to_two_decimals(self, table):
        checked = 0
        for ds in table["datasets"]:
            wins = fx.dataset_wins(table, ds)
            got = normalize_ranks(wins)
            published = fx.dataset_published_ranks(table, ds)
            for name, want in published.items():
                assert abs(got[name] - want) <= 0.005 + 1e-9, (ds, name, got[name], want)
                checked += 1
        assert checked >= len(table["rows"])

    @pytest.mark.parametrize("table", fx.ALL_TABLES, ids=["scratch", "pretrained", "segmentation"])
    def test_geometric_means_within_half_percent(self, table):
        per_dataset = {}
        for ds in table["datasets"]:
            ranks = normalize_ranks(fx.dataset_wins(table, ds))
            cells = {}
            for name, row in table["rows"].items():
                if row["geomean"] is None:
                    continue
                cell = row["cells"].get(ds)
                cells[name] = None if cell is None else ranks[name]
            per_dataset[ds] = cells
        got = aggregate_geomean(per_dataset)
        for name, row in table["rows"].items():
            if row["geomean"] is None:
                continue
            assert abs(got[name] - row["geomean"]) <= 0.005, (name, got[name], row["geomean"])

    def test_total_tuple_coverage(self):
        total = sum(
            1
            for table in fx.ALL_TABLES
            for row in table["rows"].values()
            for cell in row["cells"].values()
            if cell is not None
        )
        assert total >= 72  # covers every published (wins, score) pair


class TestAggregateGeomean:
    def test_all_equal_scores(self):
        per_ds = {"d1": {"a": 0.4}, "d2": {"a": 0.4}}
        assert aggregate_geomean(per_ds)["a"] == pytest.approx(0.4)

    def test_hand_case(self):
        per_ds = {"d1": {"a": 0.72}, "d2": {"a": 0.34}}
        assert aggregate_geomean(per_ds)["a"] == pytest.approx(np.sqrt(0.72 * 0.34))

    def test_missing_entry_rejected(self):
        with pytest.raises(DataError):
            aggregate_geomean({"d1": {"a": 0.5}, "d2": {}})

    def test_none_marks_dns_and_is_skipped(self):
        per_ds = {"d1": {"a": 0.3}, "d2": {"a": None}}
        assert aggregate_geomean(per_ds)["a"] == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# sliding window
# ---------------------------------------------------------------------------


class TestSlidingWindow:
    def test_single_window_is_exact(self):
        rng = np.random.default_rng(12)
        image = rng.random((3, 16, 16))
        logits = rng.random((4, 16, 16))
        out = sliding_window_infer(lambda p: logits, image, (16, 16))
        np.testing.assert_array_equal(out, logits)

    def test_constant_model_gives_constant_map(self):
        image = np.random.default_rng(13).random((1, 20, 20))
        const = np.full((3, 8, 8), 1.7)
        out = sliding_window_infer(lambda p: const, image, (8, 8), overlap=0.25)
        assert out.shape == (3, 20, 20)
        assert np.ptp(out) < 1e-12

    def test_two_window_1d_hand_merge(self):
        # 1-pixel-high image, width 6, patch 4, overlap 0.5 -> windows at 0 and 2
        image = np.arange(6, dtype=float).reshape(1, 1, 6)

        def predict(patch):
            return patch[:1] * 2.0

        got = sliding_window_infer(predict, image, (1, 4), overlap=0.5)
        g = gaussian_importance((1, 4))
        num = np.zeros(6)
        den = np.zeros(6)
        for left in (0, 2):
            num[left : left + 4] += (image[0, 0, left : left + 4] * 2.0) * g[0]
            den[left : left + 4] += g[0]
        want = (num / den).reshape(1, 1, 6)
        assert np.abs(got - want).max() < 1e-10

    def test_uniform_weights_equal_plain_averaging(self):
        rng = np.random.default_rng(14)
        image = rng.random((2, 10, 10))

        def predict(patch):
            return patch * 3.0 + 1.0

        got = sliding_window_infer(predict, image, (6, 6), overlap=0.5, sigma=1e9)
        num = np.zeros((2, 10, 10))
        den = np.zeros((10, 10))
        for top in (0, 3, 4):
            for left in (0, 3, 4):
                num[:, top : top + 6, left : left + 6] += image[:, top : top + 6, left : left + 6] * 3.0 + 1.0
                den[top : top + 6, left : left + 6] += 1.0
        want = num / den
        assert np.abs(got - want).max() < 1e-10

    def test_weights_strictly_positive(self):
        w = gaussian_importance((768, 768))
        assert w.min() > 0

    def test_patch_larger_than_image_rejected(self):
        with pytest.raises(DataError):
            sliding_window_infer(lambda p: p, np.zeros((1, 4, 4)), (8, 8))


class TestCsvRoundTrips:
    def test_classification_scores(self):
        labels = np.array([0, 1, 1])
        scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.4, 0.6]])
        cs = CaseScores("m", "ds", ["a", "b", "c"], labels=labels, scores=scores)
        text = write_case_scores_csv(cs)
        back = read_case_scores_csv(text, "m", "ds")
        assert back.case_ids == cs.case_ids
        np.testing.assert_array_equal(back.labels, labels)
        np.testing.assert_array_equal(back.scores, scores)

    def test_dsc_scores(self):
        cs = CaseScores("m", "ds", ["a", "b"], dsc=np.array([0.5, 0.75]))
        back = read_case_scores_csv(write_case_scores_csv(cs), "m", "ds")
        np.testing.assert_array_equal(back.dsc, cs.dsc)

    def test_rank_table_layout(self):
        wins = {"ds": {"a": 2, "b": 0}}
        ranks = {"ds": {"a": 1.0, "b": 0.1}}
        glob = {"a": 1.0, "b": 0.1}
        text = rank_table_csv(["ds"], wins, ranks, glob)
        lines = text.strip().split("\n")
        assert lines[0] == "submission,ds_wins,ds_rank,global"
        assert lines[1].startswith("a,2,")  # leaderboard order: best first

    def test_bad_header_rejected(self):
        with pytest.raises(DataError):
            read_case_scores_csv("who,knows\n1,2\n", "m", "ds")


_CSV_VALUES = st.one_of(
    st.none(),
    st.integers(),
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
)


def _assert_field_round_trips(field: str, value):
    if value is None:
        assert field == ""
    elif isinstance(value, float):
        assert struct.pack("<d", float(field)) == struct.pack("<d", value)
    else:
        assert int(field) == value


class TestCsvText:
    def test_field_spellings(self):
        assert csv_text([("a", None, 7, 0.1, np.float64(0.5)), ("b", "", -1, -0.0, 1e308)]) == (
            "a,,7,0.1,0.5\nb,,-1,-0.0,1e+308\n"
        )

    @given(st.integers(2, 5).flatmap(
        lambda n: st.lists(st.lists(_CSV_VALUES, min_size=n, max_size=n), max_size=8)))
    @settings(max_examples=200, deadline=None)
    def test_csv_table_reads_back_every_field(self, rows):
        width = 2 if not rows else len(rows[0])
        header = [f"col{i}" for i in range(width)]
        found, back = csv_table(csv_text([header] + rows), "t")
        assert found == header and len(back) == len(rows)
        for fields, values in zip(back, rows):
            for field, value in zip(fields, values):
                _assert_field_round_trips(field, value)

    @pytest.mark.parametrize(
        "value", [-0.0, 5e-324, 2.5e-310, 1e308, np.float64(-0.0), np.float64(5e-324), np.float64(0.1)]
    )
    def test_float_edge_values_round_trip(self, value):
        _, back = csv_table(csv_text([("case_id", "v"), ("c0", value)]), "t")
        _assert_field_round_trips(back[0][1], value)

    @pytest.mark.parametrize("field", ["a,x", "a\nx", "a\rx", "x\n", "a\x85x", "a\u2028x"])
    def test_comma_or_line_break_in_a_field_is_data_error(self, field):
        with pytest.raises(DataError, match="holds a comma or a line break$"):
            csv_text([("case_id", "dsc"), (field, 0.5)])

    @pytest.mark.parametrize("field", [" a", "a ", "\ta", "a\xa0", " "])
    def test_blank_at_a_field_edge_is_data_error(self, field):
        # csv_table strips each line, so the first and last fields would lose it
        with pytest.raises(DataError, match="starts or ends with a blank$"):
            csv_text([("case_id", "dsc"), (field, 0.5)])
