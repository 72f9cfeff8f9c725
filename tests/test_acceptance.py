"""Acceptance gate: the eight shipping criteria, each at its stated
tolerance, printing one pass/fail line apiece.

Run as part of pytest, or standalone with ``python tests/test_acceptance.py``
to see the per-criterion report.
"""

import itertools
import sys
import zlib

import numpy as np
import pytest

import ranking_fixtures as fx
from conftest import fd_grad, rel_err
from mixerlab.complexity import empirical_mac_count, flops_formula, flops_mixer_term
from mixerlab.errors import MixerlabError
from mixerlab.evalrank import (
    A_WINS,
    B_WINS,
    TIE,
    CaseScores,
    aggregate_geomean,
    auc_macro,
    bootstrap_auc_win,
    normalize_ranks,
    sliding_window_infer,
    wilcoxon_signed_rank,
)
from mixerlab.metaformer import Block, MetaFormer, ModelConfig, count_params
from mixerlab.mixers import (
    MixerSpec,
    mix_global_attn,
    mix_local_attn,
    warm_start_remap,
)
from mixerlab.tensor import Registry, Tape, Tensor, mul, tsum
from mixerlab.trainer import TrainConfig, make_two_class_blobs, train_classifier

PLACEMENT_C2 = 2 * 64**2 + 2 * 128**2 + 6 * 320**2 + 2 * 512**2  # 1,179,648
PLACEMENT_C = 2 * 64 + 2 * 128 + 6 * 320 + 2 * 512  # 3,328


def _report(num: int, name: str, body):
    try:
        body()
    except BaseException:
        print(f"[ACCEPTANCE] criterion {num} ({name}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {num} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1. parameter-count reproduction
# ---------------------------------------------------------------------------


def s12(kind, kernel=3):
    return ModelConfig(
        signature=tuple(MixerSpec(kind, kernel=kernel) for _ in range(4)),
        head="classify",
        num_classes=10,
        input_hw=(224, 224),
    )


PUBLISHED_TOTALS_M = [
    ("pooling", 3, 11.4),
    ("pooling", 5, 11.4),
    ("pooling", 7, 11.4),
    ("identity", 3, 11.4),
    ("grouped_conv", 3, 11.4),
    ("grouped_conv", 5, 11.5),
    ("grouped_conv", 7, 11.6),
    ("conv", 3, 22.0),
    ("conv", 5, 40.9),
    ("conv", 7, 69.2),
    ("local_attn", 3, 16.1),
    ("global_attn", 3, 16.5),
]


def test_criterion_1_parameter_counts():
    def body():
        for kind, kernel, published_m in PUBLISHED_TOTALS_M:
            counts = count_params(MetaFormer(s12(kind, kernel), seed=0))
            total = counts["total"]
            assert abs(total - published_m * 1e6) / (published_m * 1e6) < 0.03, (
                kind, kernel, total, published_m,
            )
            # mixer deltas are exact closed forms
            if kind == "conv":
                assert counts["mixers"] == kernel * kernel * PLACEMENT_C2
            elif kind == "grouped_conv":
                assert counts["mixers"] == kernel * kernel * PLACEMENT_C
            elif kind in ("local_attn", "global_attn"):
                assert counts["mixers"] == 4 * PLACEMENT_C2 == 4_718_592
            else:
                assert counts["mixers"] == 0
        assert 7 * 7 * PLACEMENT_C2 == 57_802_752
        assert 3 * 3 * PLACEMENT_C2 == 10_616_832
        assert 5 * 5 * PLACEMENT_C2 == 29_491_200

    _report(1, "parameter-count reproduction", body)


# ---------------------------------------------------------------------------
# 2. ranking-pipeline reproduction
# ---------------------------------------------------------------------------


def test_criterion_2_ranking_pipeline():
    def body():
        tuples_checked = 0
        for table in fx.ALL_TABLES:
            per_dataset = {}
            for ds in table["datasets"]:
                wins = fx.dataset_wins(table, ds)
                got = normalize_ranks(wins)
                for name, want in fx.dataset_published_ranks(table, ds).items():
                    assert abs(got[name] - want) <= 0.005 + 1e-9, (ds, name)
                    tuples_checked += 1
                per_dataset[ds] = got
            cells = {
                ds: {
                    name: (per_dataset[ds][name] if row["cells"].get(ds) is not None else None)
                    for name, row in table["rows"].items()
                    if row["geomean"] is not None
                }
                for ds in table["datasets"]
            }
            geo = aggregate_geomean(cells)
            for name, row in table["rows"].items():
                if row["geomean"] is not None:
                    assert abs(geo[name] - row["geomean"]) <= 0.005, (name, geo[name])
        assert tuples_checked >= 72
        # the named exemplars
        scratch = fx.CLASSIFICATION_SCRATCH["rows"]
        seg = fx.SEGMENTATION["rows"]
        for rows, name, want in (
            (scratch, "pooling_k3", 0.691),
            (scratch, "grouped_conv_k3", 0.767),
            (seg, "grouped_conv_k7", 0.832),
            (seg, "global_attn", 0.192),
        ):
            assert rows[name]["geomean"] == want

    _report(2, "ranking-pipeline reproduction", body)


# ---------------------------------------------------------------------------
# 3. published complexity-formula validation
# ---------------------------------------------------------------------------


def test_criterion_3_formula_validation():
    def body():
        grid = [
            (c, k, h, w)
            for c in (2, 3, 4)
            for k in (3, 5)
            for (h, w) in ((4, 4), (5, 6), (8, 8))
            if k <= min(h, w)
        ]
        for c, k, h, w in grid:
            n = h * w
            for kind, factor in (("pooling", 1), ("grouped_conv", 2), ("conv", 2)):
                macs = empirical_mac_count(kind, c, h, w, k)
                assert macs * factor == flops_mixer_term(kind, c, n, k), (kind, c, k, h, w)
        # attention-term ratio is exactly N/K^2 in integer arithmetic
        for c in (64, 512):
            for n in (24 * 24, 56 * 56):
                for k in (3, 7, 9):
                    g = flops_formula("global_attn", c, n) - 5 * n * c * c - n
                    l = flops_formula("local_attn", c, n, k) - 5 * n * c * c - n
                    assert g * k * k == l * n

    _report(3, "published complexity-formula validation", body)


# ---------------------------------------------------------------------------
# 4. local/global attention degeneracy
# ---------------------------------------------------------------------------


def test_criterion_4_attention_degeneracy():
    def body():
        c = 16
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            mk = lambda: Tensor(rng.standard_normal((c, c)) * 0.5, requires_grad=True)
            source = dict(
                wk=mk(), wv=mk(), wq=mk(), wu=mk(),
                pos_emb=Tensor(np.zeros((c, h, w)), requires_grad=True),
            )
            x = Tensor(rng.standard_normal((2, c, h, w)))
            kernel = 2 * max(h, w) + 1
            global_out = mix_global_attn(x, source).data
            local_direct = mix_local_attn(x, source, kernel).data
            assert np.abs(local_direct - global_out).max() < 1e-10
            # warm start into fresh local parameters preserves the equality
            target = dict(wk=mk(), wv=mk(), wq=mk(), wu=mk())
            warm_start_remap(source, target)
            local_warm = mix_local_attn(x, target, kernel).data
            assert np.abs(local_warm - global_out).max() < 1e-10

    _report(4, "local/global attention degeneracy", body)


# ---------------------------------------------------------------------------
# 5. gradient correctness on a full block per mixer
# ---------------------------------------------------------------------------


def test_criterion_5_block_gradients():
    def body():
        c, h, w = 16, 6, 6
        for kind in ("identity", "pooling", "conv", "grouped_conv", "local_attn", "global_attn"):
            # crc32, unlike str hash, is not salted per process: same data every run
            rng = np.random.default_rng(zlib.crc32(kind.encode()))
            pos = (
                Tensor(rng.standard_normal((c, h, w)) * 0.3, requires_grad=True)
                if kind == "global_attn"
                else None
            )
            registry = Registry(rng)
            block = Block(registry, "blk", c, MixerSpec(kind, 3), 4, 0.7, 0.0,
                          None if pos is None else {"pos_emb": pos})
            x0 = rng.standard_normal((1, c, h, w)) * 0.5
            probe = rng.standard_normal((1, c, h, w))
            params = dict(registry.tensors)
            if pos is not None:
                params["blk.pos_emb"] = pos
            names = sorted(params)
            arrays = [params[n].data for n in names]

            def closure(arrs):
                for n, a in zip(names, arrs):
                    params[n].data[...] = a
                return float((block.forward(Tensor(x0)).data * probe).sum())

            fd = fd_grad(closure, arrays, h=1e-5)
            for n in names:
                params[n].grad = None
            with Tape() as tape:
                loss = tsum(mul(block.forward(Tensor(x0)), probe))
            tape.backward(loss)
            for n, expected in zip(names, fd):
                err = rel_err(params[n].grad, expected)
                assert err < 1e-4, (kind, n, err)

    _report(5, "block gradient correctness", body)


# ---------------------------------------------------------------------------
# 6. training sanity for every mixer
# ---------------------------------------------------------------------------


def tiny_config(kind, kernel=3):
    return ModelConfig(
        stage_channels=(8, 16, 24, 32),
        stage_depths=(1, 1, 1, 1),
        signature=tuple(MixerSpec(kind, kernel=kernel) for _ in range(4)),
        input_hw=(32, 32),
        head="classify",
        num_classes=2,
    )


def test_criterion_6_training_sanity():
    def body():
        images, labels = make_two_class_blobs(64, hw=(32, 32), seed=7)
        for kind in ("identity", "pooling", "conv", "grouped_conv", "local_attn", "global_attn"):
            model = MetaFormer(tiny_config(kind), seed=11)
            cfg = TrainConfig(epochs=75, batch_size=16, warmup_epochs=5, seed=13, max_steps=300)
            result = train_classifier(model, images, labels, cfg)
            assert len(result.history) <= 300
            assert result.final_train_accuracy >= 0.95, (kind, result.final_train_accuracy)

    _report(6, "training sanity across mixers", body)


# ---------------------------------------------------------------------------
# 7. statistics oracles
# ---------------------------------------------------------------------------


def pair_count_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return total / (len(pos) * len(neg))


def enumerate_wilcoxon_p(diffs):
    from scipy.stats import rankdata

    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    ranks = rankdata(np.abs(d), method="average")
    w_obs = ranks[d > 0].sum()
    le = ge = 0
    for signs in itertools.product((0, 1), repeat=len(ranks)):
        w = sum(r for r, s in zip(ranks, signs) if s)
        le += w <= w_obs + 1e-12
        ge += w >= w_obs - 1e-12
    half = 2 ** len(ranks)
    return min(1.0, 2.0 * min(le / half, ge / half))


def test_criterion_7_statistics_oracles():
    def body():
        rng = np.random.default_rng(21)
        # auc == exhaustive pair counting on binary instances up to n = 12
        for n in range(2, 13):
            for _ in range(25):
                labels = rng.integers(0, 2, n)
                if labels.min() == labels.max():
                    continue
                s1 = rng.choice([0.0, 0.2, 0.2, 0.5, 0.8, 1.0], size=n)
                scores = np.stack([1 - s1, s1], axis=1)
                assert auc_macro(scores, labels) == pair_count_auc(s1, labels)
        # exact wilcoxon == full sign enumeration up to n = 12
        for n in range(2, 13):
            for _ in range(10):
                d = rng.choice([-0.4, -0.2, 0.1, 0.1, 0.3], size=n)
                if not (d != 0).any():
                    continue
                res = wilcoxon_signed_rank(d, np.zeros(n))
                assert res.p_value == pytest.approx(enumerate_wilcoxon_p(d), abs=1e-12)
        # bootstrap: identical inputs tie; swapping is antisymmetric
        labels = np.tile([0, 1], 12)
        ids = [f"c{i}" for i in range(24)]
        mk = lambda name, s: CaseScores(
            name, "ds", list(ids), labels=labels, scores=np.stack([1 - s, s], axis=1)
        )
        s = rng.random(24)
        same = bootstrap_auc_win(mk("a", s), mk("b", s.copy()), repeats=300, seed=5)
        assert same.verdict == TIE
        better = np.clip(labels + rng.normal(0, 0.3, 24), 0, 1)
        r_ab = bootstrap_auc_win(mk("a", better), mk("b", s), repeats=300, seed=5)
        r_ba = bootstrap_auc_win(mk("b", s), mk("a", better), repeats=300, seed=5)
        flip = {A_WINS: B_WINS, B_WINS: A_WINS, TIE: TIE}
        assert r_ba.verdict == flip[r_ab.verdict]

    _report(7, "statistics oracles", body)


# ---------------------------------------------------------------------------
# 8. sliding-window correctness
# ---------------------------------------------------------------------------


def test_criterion_8_sliding_window():
    def body():
        rng = np.random.default_rng(23)
        # single window: exact equality with the direct forward
        image = rng.random((3, 12, 12))
        logits = rng.random((5, 12, 12))
        out = sliding_window_infer(lambda p: logits, image, (12, 12))
        assert np.array_equal(out, logits)
        # constant model: constant merged maps for every grid
        const = np.full((2, 6, 6), -0.75)
        for hw in ((12, 12), (13, 17), (20, 9)):
            img = rng.random((1,) + hw)
            merged = sliding_window_infer(lambda p: const, img, (6, 6), overlap=0.25)
            assert np.ptp(merged) < 1e-12
        # uniform-weight limit equals plain overlap averaging
        img = rng.random((2, 11, 11))
        predict = lambda p: p * 2.0 - 1.0
        via_sigma = sliding_window_infer(predict, img, (6, 6), overlap=0.5, sigma=1e9)
        num = np.zeros((2, 11, 11))
        den = np.zeros((11, 11))
        for top in (0, 3, 5):
            for left in (0, 3, 5):
                num[:, top : top + 6, left : left + 6] += img[:, top : top + 6, left : left + 6] * 2.0 - 1.0
                den[top : top + 6, left : left + 6] += 1.0
        plain = num / den
        assert np.abs(via_sigma - plain).max() < 1e-10

    _report(8, "sliding-window correctness", body)


def main() -> int:
    failures = 0
    for fn in (
        test_criterion_1_parameter_counts,
        test_criterion_2_ranking_pipeline,
        test_criterion_3_formula_validation,
        test_criterion_4_attention_degeneracy,
        test_criterion_5_block_gradients,
        test_criterion_6_training_sanity,
        test_criterion_7_statistics_oracles,
        test_criterion_8_sliding_window,
    ):
        try:
            fn()
        except MixerlabError as exc:
            failures += 1
            print(f"  error: {exc}", file=sys.stderr)
        except AssertionError as exc:
            failures += 1
            print(f"  assertion: {exc}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
