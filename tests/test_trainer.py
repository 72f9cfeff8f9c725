"""Losses against hand oracles, optimizer behavior, the schedule,
augmentation, patch sampling, and gradient monitoring."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_grad, rel_err, tape_grads
from mixerlab import cli
from mixerlab.errors import ConfigError, DataError, NumericsError
from mixerlab.metaformer import MetaFormer, ModelConfig
from mixerlab.mixers import MixerSpec
from mixerlab.tensor import Tensor, _active_tape, add, div, mul, softmax, sub, tsum
from mixerlab.trainer import (
    DICE_SMOOTH,
    AdamW,
    TrainConfig,
    adamw_step,
    affine_augment,
    apply_affine,
    ce_loss,
    class_weights,
    dice_loss,
    grad_norm_monitor,
    lr_schedule,
    make_two_class_blobs,
    predict_labels,
    predict_scores,
    train_classifier,
    weighted_patch_sample,
)


def smoothed_ce_oracle(logits, targets, weights, eps):
    """Hand formula: q puts (1-eps) on the true class, eps/K elsewhere;
    weighted mean over elements."""
    n, k = logits.shape
    total, wsum = 0.0, 0.0
    for i in range(n):
        z = logits[i] - logits[i].max()
        logp = z - math.log(np.exp(z).sum())
        q = np.full(k, eps / k)
        q[targets[i]] = 1.0 - eps
        w = 1.0 if weights is None else weights[targets[i]]
        total += -w * float((q * logp).sum())
        wsum += w
    return total / wsum


def dice_loss_oracle(logits, mask):
    """Reference soft Dice loss: a meshgrid one-hot and a per-class
    presence loop, background skipped."""
    b, k, h, w = logits.shape
    probs = softmax(logits, axis=1)
    onehot = np.zeros((b, k, h, w))
    bidx, hidx, widx = np.meshgrid(np.arange(b), np.arange(h), np.arange(w), indexing="ij")
    onehot[bidx, mask, hidx, widx] = 1.0
    hard = probs.data.argmax(axis=1)
    keep = np.ones(k, dtype=bool)
    keep[0] = False
    for c in range(k):
        if not (mask == c).any() and not (hard == c).any():
            keep[c] = False
    inter = tsum(mul(probs, onehot), axis=(0, 2, 3))
    psum = tsum(probs, axis=(0, 2, 3))
    tsum_const = onehot.sum(axis=(0, 2, 3))
    dice = div(add(mul(inter, 2.0), DICE_SMOOTH), add(psum, tsum_const + DICE_SMOOTH))
    mean_dice = mul(tsum(mul(dice, keep.astype(np.float64))), 1.0 / keep.sum())
    return sub(1.0, mean_dice)


def weighted_patch_sample_oracle(masks, patch_hw, rng, n_samples=1):
    """The sampler as a count dict, a per-center lookup and an (N, 3)
    coordinate table of every candidate corner."""
    ph, pw = patch_hw
    masks = [np.asarray(m) for m in masks]
    counts = {}
    for m in masks:
        vals, cnt = np.unique(m, return_counts=True)
        for vv, cc in zip(vals, cnt):
            counts[int(vv)] = counts.get(int(vv), 0) + int(cc)
    cls_weight = {c: 1.0 / math.sqrt(n) for c, n in counts.items()}
    cand_weights, cand_coords = [], []
    for idx, m in enumerate(masks):
        h, w = m.shape
        tops = np.arange(h - ph + 1)
        lefts = np.arange(w - pw + 1)
        centers = m[tops[:, None] + ph // 2, lefts[None, :] + pw // 2]
        cand_weights.append(np.vectorize(cls_weight.get)(centers).astype(np.float64).reshape(-1))
        tt, ll = np.meshgrid(tops, lefts, indexing="ij")
        cand_coords.append(np.stack([np.full(tt.size, idx), tt.reshape(-1), ll.reshape(-1)], axis=1))
    probs = np.concatenate(cand_weights)
    probs = probs / probs.sum()
    coords = np.concatenate(cand_coords, axis=0)
    return coords[rng.choice(coords.shape[0], size=n_samples, p=probs)]


class TestClassWeights:
    def test_balanced_counts(self):
        np.testing.assert_allclose(class_weights([50, 50, 50]), 1.0)

    def test_clamp_boundary(self):
        np.testing.assert_allclose(class_weights([100, 1]), [1.0, 10.0])

    def test_sqrt_ratio(self):
        np.testing.assert_allclose(class_weights([100, 25]), [1.0, 2.0])

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            class_weights([0, 0])

    @given(
        counts=st.lists(st.integers(min_value=1, max_value=1000), min_size=2, max_size=6),
        k=st.integers(min_value=2, max_value=9),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, counts, k):
        a = class_weights(counts)
        b = class_weights([k * c for c in counts])
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestCeLoss:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((5, 7)))
        loss = ce_loss(logits, np.arange(5) % 7, smoothing=0.0)
        assert float(loss.data) == pytest.approx(math.log(7), abs=1e-12)

    def test_confident_logits_drive_loss_to_zero(self):
        targets = np.array([0, 1])
        logits = Tensor(np.array([[50.0, 0.0], [0.0, 50.0]]))
        loss = ce_loss(logits, targets, smoothing=0.0)
        assert float(loss.data) < 1e-12

    def test_random_case_vs_hand_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((6, 3))
        targets = rng.integers(0, 3, 6)
        weights = np.array([1.0, 2.0, 0.5])
        for eps in (0.0, 0.1, 0.3):
            got = float(ce_loss(Tensor(logits), targets, weights, eps).data)
            want = smoothed_ce_oracle(logits, targets, weights, eps)
            assert got == pytest.approx(want, abs=1e-12)

    def test_invalid_class_id(self):
        with pytest.raises(DataError):
            ce_loss(Tensor(np.zeros((2, 3))), np.array([0, 5]))

    @pytest.mark.parametrize("logits_shape", [(0, 3), (0, 3, 2, 2)])
    def test_zero_elements_is_data_error(self, logits_shape):
        targets = np.zeros((0,) + logits_shape[2:], dtype=np.int64)
        with pytest.raises(DataError, match="at least one element"):
            ce_loss(Tensor(np.zeros(logits_shape)), targets)

    def test_segmentation_layout_and_gradient(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((2, 3, 2, 2))
        mask = rng.integers(0, 3, (2, 2, 2))

        def run(arrs):
            flat = arrs[0].transpose(0, 2, 3, 1).reshape(-1, 3)
            tg = mask.reshape(-1)
            return smoothed_ce_oracle(flat, tg, None, 0.1)

        want = fd_grad(run, [logits.copy()])
        x = Tensor(logits, requires_grad=True)
        got = tape_grads(lambda ts: ce_loss(ts[0], mask, smoothing=0.1), [x])
        assert rel_err(got[0], want[0]) < 1e-6


class TestDiceLoss:
    def test_one_hot_prediction_near_zero(self):
        mask = np.array([[[0, 1], [1, 0]]])
        logits = np.zeros((1, 2, 2, 2))
        logits[0, 1] = np.where(mask[0] == 1, 40.0, -40.0)
        logits[0, 0] = -logits[0, 1]
        loss = dice_loss(Tensor(logits), mask)
        assert float(loss.data) < 1e-4

    def test_uniform_half_vs_hand_oracle(self):
        # 4-pixel balanced binary mask, logits all equal -> p = 1/2 everywhere
        mask = np.array([[[0, 0], [1, 1]]])
        logits = Tensor(np.zeros((1, 2, 2, 2)))
        delta = DICE_SMOOTH
        got = float(dice_loss(logits, mask).data)
        per_class = (2 * (0.5 * 2) + delta) / (0.5 * 4 + 2 + delta)
        want = 1.0 - per_class  # background is skipped; class 1 alone
        assert got == pytest.approx(want, abs=1e-12)

    def test_class_empty_in_target_and_prediction_skipped(self):
        mask = np.array([[[1, 1], [1, 1]]])
        logits = np.zeros((1, 3, 2, 2))
        logits[0, 1] = 40.0  # class 2 never predicted, never in target
        a = float(dice_loss(Tensor(logits), mask).data)
        b = float(dice_loss(Tensor(logits[:, :2]), mask).data)
        assert a == pytest.approx(b, abs=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((1, 2, 2, 2))
        mask = np.array([[[0, 1], [1, 0]]])
        delta = DICE_SMOOTH

        def run(arrs):
            z = arrs[0]
            e = np.exp(z - z.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            onehot = np.stack([(mask == 0), (mask == 1)], axis=1).astype(float)
            dices = []
            for c in (1,):  # the foreground class; background is never scored
                inter = (p[:, c] * onehot[:, c]).sum()
                dices.append((2 * inter + delta) / (p[:, c].sum() + onehot[:, c].sum() + delta))
            return 1.0 - float(np.mean(dices))

        want = fd_grad(run, [logits.copy()])
        x = Tensor(logits, requires_grad=True)
        got = tape_grads(lambda ts: dice_loss(ts[0], mask), [x])
        assert rel_err(got[0], want[0]) < 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_value_and_gradient_bit_equal_to_oracle(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((2, 3, 5, 4))
        mask = rng.integers(0, 3 if seed % 2 else 2, (2, 5, 4))  # odd seeds: class 2 in the target
        x = Tensor(logits, requires_grad=True)
        got = tape_grads(lambda ts: dice_loss(ts[0], mask), [x])
        want = tape_grads(lambda ts: dice_loss_oracle(ts[0], mask), [Tensor(logits, requires_grad=True)])
        assert got[0].tobytes() == want[0].tobytes()
        assert dice_loss(Tensor(logits), mask).data.tobytes() == dice_loss_oracle(Tensor(logits), mask).data.tobytes()

    def test_no_class_to_score_is_data_error(self):
        logits = np.zeros((1, 2, 2, 2))
        logits[0, 0] = 40.0  # predicts background everywhere, target is all background
        with pytest.raises(DataError, match="no class left"):
            dice_loss(Tensor(logits), np.zeros((1, 2, 2), dtype=int))


class TestAdamW:
    def test_zero_grads_no_decay_keeps_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = AdamW({"p": p}, weight_decay=0.0)
        opt.step(lr=1.0)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_decoupled_decay_scales_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = AdamW({"p": p}, weight_decay=0.1)
        opt.step(lr=1.0)
        np.testing.assert_allclose(p.data, [0.9, -1.8], atol=1e-12)

    def test_quadratic_convergence(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.0)
        for _ in range(2000):
            p.grad = 2.0 * (p.data - 1.5)
            opt.step(lr=0.05)
            if abs(p.data[0] - 1.5) < 1e-6:
                break
        assert abs(p.data[0] - 1.5) < 1e-6

    def test_nonfinite_grad_aborts_without_mutation(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        opt = AdamW({"p": p}, weight_decay=0.5)
        with pytest.raises(NumericsError):
            opt.step(lr=1.0)
        np.testing.assert_array_equal(p.data, [1.0])

    def test_functional_core_matches_class(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal(3)
        grads = [rng.standard_normal(3) for _ in range(5)]
        p = Tensor(data.copy(), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.1)
        raw = data.copy()
        m = np.zeros(3)
        v = np.zeros(3)
        for t, g in enumerate(grads, start=1):
            p.grad = g.copy()
            opt.step(lr=0.01)
            adamw_step(raw, g, m, v, t, 0.01, 0.1)
        np.testing.assert_allclose(p.data, raw, atol=1e-15)


class TestLrSchedule:
    def test_boundary_values(self):
        assert lr_schedule(0, 100, 10, 1e-3, 1e-5) == 0.0
        assert lr_schedule(10, 100, 10, 1e-3, 1e-5) == pytest.approx(1e-3)
        assert lr_schedule(99, 100, 10, 1e-3, 1e-5) == pytest.approx(1e-5, abs=1e-12)

    def test_cosine_midpoint(self):
        lr, mn = 1e-3, 1e-5
        # midpoint of the cosine phase: warmup 10, total 101 -> step 55
        assert lr_schedule(55, 101, 10, lr, mn) == pytest.approx((lr + mn) / 2)

    def test_continuity_at_joint(self):
        before = lr_schedule(9, 100, 10, 1e-3, 1e-5)
        joint = lr_schedule(10, 100, 10, 1e-3, 1e-5)
        after = lr_schedule(11, 100, 10, 1e-3, 1e-5)
        assert before < joint and abs(joint - after) < 2e-5

    def test_warmup_must_fit(self):
        with pytest.raises(ConfigError):
            lr_schedule(0, 10, 10, 1e-3, 1e-5)

    @given(step=st.integers(min_value=0, max_value=199))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_lr(self, step):
        val = lr_schedule(step, 200, 20, 1e-3, 1e-5)
        assert 0.0 <= val <= 1e-3 + 1e-15


class TestAffineAugment:
    def test_sigma_zero_is_identity(self):
        rng = np.random.default_rng(5)
        img = rng.random((3, 9, 9))
        out = affine_augment(img, rng, sigma=0.0)
        np.testing.assert_allclose(out, img, atol=1e-12)

    def test_pure_translation_shifts_delta(self):
        img = np.zeros((1, 9, 9))
        img[0, 4, 4] = 1.0
        # +0.5 normalized x-translation = 2 pixels with half-extent 4:
        # output samples the source 2 px to the right, so the delta lands 2 left
        mat = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]])
        out = apply_affine(img, mat)
        want = np.zeros((1, 9, 9))
        want[0, 4, 2] = 1.0
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_shape_preserved(self):
        rng = np.random.default_rng(6)
        img = rng.random((3, 7, 11))
        out = affine_augment(img, rng, sigma=0.1)
        assert out.shape == img.shape


class TestWeightedPatchSample:
    def test_single_class_uniform(self):
        mask = np.zeros((6, 6), dtype=int)
        rng = np.random.default_rng(7)
        picks = weighted_patch_sample([mask], (3, 3), rng, n_samples=20000)
        tops = picks[:, 1]
        counts = np.bincount(tops, minlength=4)
        assert counts.min() > 0.8 * counts.max()

    def test_inverse_root_frequency_odds(self):
        mask = np.zeros((10, 10), dtype=int)
        mask[:2] = 1  # 20 rare pixels vs 80 common: weight ratio sqrt(4) = 2
        rng = np.random.default_rng(8)
        picks = weighted_patch_sample([mask], (1, 1), rng, n_samples=100_000)
        classes = mask[picks[:, 1], picks[:, 2]]
        rare_rate = (classes == 1).mean() / 20
        common_rate = (classes == 0).mean() / 80
        assert rare_rate / common_rate == pytest.approx(2.0, rel=0.05)

    def test_deterministic_under_seed(self):
        mask = np.arange(16).reshape(4, 4) % 3
        a = weighted_patch_sample([mask], (2, 2), np.random.default_rng(9), n_samples=10)
        b = weighted_patch_sample([mask], (2, 2), np.random.default_rng(9), n_samples=10)
        np.testing.assert_array_equal(a, b)

    def test_patch_too_large(self):
        with pytest.raises(DataError):
            weighted_patch_sample([np.zeros((4, 4), dtype=int)], (5, 5), np.random.default_rng(0))

    @pytest.mark.parametrize("mask", [np.array([[0, -1], [1, 0]]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    def test_class_ids_not_non_negative_integers_are_data_error(self, mask):
        with pytest.raises(DataError, match="non-negative integers"):
            weighted_patch_sample([mask], (1, 1), np.random.default_rng(0))

    @pytest.mark.parametrize("seed", range(24))
    def test_picks_equal_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        shape = tuple(int(v) for v in rng.integers(1, 9, 2))  # one size for all images: some are non-square
        masks = [rng.integers(0, k, shape) for _ in range(seed % 3 + 1)]
        # 1x1 patches, image-sized patches, and anything between
        patch = [(1, 1), shape, tuple(int(rng.integers(1, v + 1)) for v in shape)][seed // 3 % 3]
        got = weighted_patch_sample(masks, patch, np.random.default_rng(seed), n_samples=50)
        want = weighted_patch_sample_oracle(masks, patch, np.random.default_rng(seed), n_samples=50)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_images_of_different_sizes_equal_oracle(self):
        rng = np.random.default_rng(40)
        masks = [rng.integers(0, 3, (5, 9)), rng.integers(0, 3, (7, 4)), rng.integers(0, 3, (4, 4))]
        got = weighted_patch_sample(masks, (3, 2), np.random.default_rng(41), n_samples=500)
        want = weighted_patch_sample_oracle(masks, (3, 2), np.random.default_rng(41), n_samples=500)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert set(got[:, 0]) == {0, 1, 2}


class TestGradMonitor:
    def make_model(self):
        cfg = ModelConfig(
            stage_channels=(8, 16, 24, 32),
            stage_depths=(1, 1, 1, 1),
            signature=tuple(MixerSpec("identity") for _ in range(4)),
            input_hw=(32, 32),
            head="classify",
            num_classes=2,
        )
        return MetaFormer(cfg, seed=0)

    def test_zero_grads_zero_norms(self):
        model = self.make_model()
        norms = grad_norm_monitor(model)
        assert all(v == 0.0 for v in norms.values())

    def test_three_four_five(self):
        model = self.make_model()
        params = model.named_parameters()
        name = "head.weight"
        g = np.zeros(params[name].shape)
        g.flat[0], g.flat[1] = 3.0, 4.0
        params[name].grad = g
        assert grad_norm_monitor(model)[name] == pytest.approx(5.0)


class TestTrainingLoop:
    def test_loss_decreases_and_log_written(self, tmp_path):
        cfg = ModelConfig(
            stage_channels=(8, 16, 24, 32),
            stage_depths=(1, 1, 1, 1),
            signature=tuple(MixerSpec("pooling", 3) for _ in range(4)),
            input_hw=(32, 32),
            head="classify",
            num_classes=2,
            layerscale_init=1.0,
        )
        model = MetaFormer(cfg, seed=1)
        images, labels = make_two_class_blobs(48, seed=2)
        tc = TrainConfig(epochs=5, batch_size=16, warmup_epochs=1, seed=3, max_steps=15)
        log = tmp_path / "train.csv"
        result = train_classifier(model, images, labels, tc, log_path=str(log))
        first, last = result.history[0]["loss"], result.history[-1]["loss"]
        assert last < first
        lines = log.read_text().strip().split("\n")
        assert lines[0] == "step,lr,loss,val_f1,max_grad_norm"
        assert len(lines) == 16

    def test_validation_keeps_best_state(self):
        cfg = ModelConfig(
            stage_channels=(8, 16, 24, 32),
            stage_depths=(1, 1, 1, 1),
            signature=tuple(MixerSpec("identity") for _ in range(4)),
            input_hw=(32, 32),
            head="classify",
            num_classes=2,
            layerscale_init=1.0,
        )
        model = MetaFormer(cfg, seed=4)
        images, labels = make_two_class_blobs(32, seed=5)
        tc = TrainConfig(epochs=2, batch_size=16, warmup_epochs=1, seed=6)
        result = train_classifier(model, images, labels, tc, val=(images[:16], labels[:16]))
        assert result.best_val_f1 is not None
        assert result.best_state is not None

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=1e-5, min_lr=1e-3)
        with pytest.raises(ConfigError):
            TrainConfig(label_smoothing=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(class_weight_clamp=0.5)
        with pytest.raises(ConfigError):
            TrainConfig(max_steps=0)
        TrainConfig(weight_decay=0.0, augment_sigma=0.0)  # zero turns either off; below zero is refused


class TestPrediction:
    def test_chunking_does_not_change_bytes(self):
        # 70 images cross the 64-image chunk boundary
        cfg = ModelConfig(
            stage_channels=(8, 16, 24, 32),
            stage_depths=(1, 1, 1, 1),
            signature=tuple(MixerSpec("conv", 3) for _ in range(4)),
            input_hw=(32, 32),
            head="classify",
            num_classes=2,
        )
        model = MetaFormer(cfg, seed=7)
        images, _ = make_two_class_blobs(70, seed=8)
        chunked = predict_scores(model, images, batch_size=64)
        single = predict_scores(model, images, batch_size=1)
        assert chunked.shape == (70, 2)
        assert chunked.tobytes() == single.tobytes()
        labels = predict_labels(model, images, batch_size=64)
        assert labels.tobytes() == predict_labels(model, images, batch_size=1).tobytes()
        assert predict_scores(model, images).tobytes() == single.tobytes()  # the default chunk

    def test_no_prediction_pass_holds_more_than_one_training_batch(self, tmp_path, monkeypatch):
        seen = []  # the batch of every forward made with no active tape
        forward = MetaFormer.forward_classify

        def recording(self, x, *args, **kwargs):
            if _active_tape() is None:
                seen.append(x.shape[0])
            return forward(self, x, *args, **kwargs)

        monkeypatch.setattr(MetaFormer, "forward_classify", recording)
        train_ini = tmp_path / "train.ini"
        train_ini.write_text(
            "[model]\nchannels = 8,16,24,32\ndepths = 1,1,1,1\nsignature = identity,identity,identity,identity\n"
            "input = 32x32\nclasses = 2\n[train]\nepochs = 1\nbatch_size = 8\nwarmup_epochs = 0\n"
            "[data]\nn = 40\nval_n = 24\n"
        )
        assert cli.main(["train", "--config", str(train_ini), "--out", str(tmp_path / "run")]) == 0
        assert sum(seen) == 24 + 40 and max(seen) == 8  # the validation pass, then the final accuracy

        seen.clear()
        eval_ini = tmp_path / "eval.ini"
        eval_ini.write_text(f"[eval]\ncheckpoint = {tmp_path / 'run' / 'checkpoint.mxlc'}\n[data]\nn = 40\n")
        assert cli.main(["eval", "--config", str(eval_ini), "--out", str(tmp_path / "eval")]) == 0
        assert sum(seen) == 40 and max(seen) == TrainConfig.batch_size
