"""Model assembly: block contracts, stage geometry, parameter accounting,
checkpoint round-trips, and the spatial invariants."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import fd_grad, rel_err
from mixerlab.checkpoint import load_arrays, load_model, save_arrays, save_model
from mixerlab.errors import CapacityError, ConfigError, ShapeError
from mixerlab.metaformer import (
    Block,
    MetaFormer,
    ModelConfig,
    SegDecoder,
    count_params,
    format_signature,
    parse_signature,
)
from mixerlab.mixers import MIXER_KINDS, MixerSpec, mix_local_attn, warm_start_remap
from mixerlab.tensor import (
    Registry,
    Tape,
    Tensor,
    add,
    bilinear_resize,
    concat,
    gelu,
    global_avg_pool,
    linear,
    mul,
    transpose,
    tsum,
)

TINY = dict(stage_channels=(8, 16, 24, 32), stage_depths=(1, 1, 1, 1), input_hw=(32, 32))


def tiny_config(kind="pooling", kernel=3, head="classify", num_classes=2, **kw):
    sig = tuple(MixerSpec(kind, kernel=kernel) for _ in range(4))
    merged = {**TINY, **kw}
    return ModelConfig(signature=sig, head=head, num_classes=num_classes, **merged)


def concat_decoder_oracle(dec: SegDecoder, features, out_hw):
    """The decoder as SegFormer writes it: each stage projected and upsampled
    to the stage-0 grid, the 4 * dim channel concat, then the fuse layer."""
    h0, w0 = features[0].shape[2], features[0].shape[3]
    mapped = []
    for (w, b), feat in zip(dec.projs, features):
        t = transpose(feat, (0, 2, 3, 1))
        t = linear(t, w, b)
        t = transpose(t, (0, 3, 1, 2))
        mapped.append(bilinear_resize(t, h0, w0))
    fused = concat(mapped, axis=1)
    t = transpose(fused, (0, 2, 3, 1))
    t = gelu(linear(t, dec.fuse_w, dec.fuse_b))
    t = linear(t, dec.cls_w, dec.cls_b)
    logits = transpose(t, (0, 3, 1, 2))
    return bilinear_resize(logits, out_hw[0], out_hw[1])


class TestModelConfig:
    def test_stage_resolutions_224(self):
        cfg = ModelConfig()
        assert cfg.stage_hw() == [(56, 56), (28, 28), (14, 14), (7, 7)]

    def test_stage_resolutions_768(self):
        cfg = ModelConfig(input_hw=(768, 768))
        hw = cfg.stage_hw()
        assert hw[0] == (192, 192) and hw[0][0] * hw[0][1] == 36864

    def test_indivisible_input_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(input_hw=(225, 225)).stage_hw()

    def test_signature_roundtrip(self):
        sig = (
            MixerSpec("pooling", 3),
            MixerSpec("pooling", 3),
            MixerSpec("global_attn"),
            MixerSpec("global_attn"),
        )
        assert parse_signature(format_signature(sig)) == sig

    def test_ini_roundtrip(self):
        cfg = tiny_config("grouped_conv", kernel=5, head="segment", num_classes=4)
        again = ModelConfig.from_ini(cfg.to_ini())
        assert again == cfg

    def test_unknown_ini_key_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_ini("[model]\nchannles = 1,2,3,4\n")

    @pytest.mark.parametrize("p", [1.0, 1.5, -0.1])
    def test_stochastic_depth_outside_0_1_rejected(self, p):
        # at p = 1 the drop path divides 0 by 0, and a negative p is no probability
        with pytest.raises(ConfigError, match=r"stochastic_depth must be in \[0, 1\)"):
            ModelConfig(stochastic_depth_max=p)


class TestBlock:
    def test_zero_layerscale_is_identity(self):
        rng = np.random.default_rng(0)
        block = Block(Registry(rng), "b", 8, MixerSpec("pooling", 3), 4, 0.0, 0.0)
        x = Tensor(rng.standard_normal((2, 8, 6, 6)))
        y = block.forward(x)
        np.testing.assert_array_equal(y.data, x.data)

    def test_identity_mixer_zero_mlp(self):
        rng = np.random.default_rng(1)
        block = Block(Registry(rng), "b", 8, MixerSpec("identity"), 4, 1.0, 0.0)
        block.ls1.data[...] = 0.0  # silence the mixer branch
        for t in (block.mlp.fc1_w, block.mlp.fc1_b, block.mlp.fc2_w, block.mlp.fc2_b):
            t.data[...] = 0.0
        x = Tensor(rng.standard_normal((1, 8, 6, 6)))
        y = block.forward(x)
        np.testing.assert_array_equal(y.data, x.data)

    def test_shape_preserved_per_mixer(self):
        rng = np.random.default_rng(2)
        for kind in ("identity", "pooling", "conv", "grouped_conv", "local_attn", "global_attn"):
            pos = Tensor(rng.standard_normal((16, 4, 4)), requires_grad=True) if kind == "global_attn" else None
            block = Block(Registry(rng), "b", 16, MixerSpec(kind, 3), 4, 0.5, 0.0,
                          None if pos is None else {"pos_emb": pos})
            x = Tensor(rng.standard_normal((2, 16, 4, 4)))
            assert block.forward(x).shape == x.shape

    def test_local_attn_mask_follows_the_input_size(self):
        rng = np.random.default_rng(5)
        block = Block(Registry(rng), "b", 16, MixerSpec("local_attn", 3), 4, 0.5, 0.0)
        block.ls1.data[...] = 1.0  # the block adds the bare mixer output
        block.ls2.data[...] = 0.0  # and nothing of the channel MLP
        for hw in ((4, 4), (6, 6), (4, 4)):
            x = Tensor(rng.standard_normal((1, 16) + hw))
            mixed = mix_local_attn(block.norm1(x), block.mixer_params, 3)
            assert block.forward(x).data.tobytes() == add(x, mixed).data.tobytes(), hw

    def test_local_attn_refused_before_mask_is_built(self, monkeypatch):
        import mixerlab.mixers as mixers

        built = []
        monkeypatch.setattr(mixers, "build_neighborhood_mask", lambda *a: built.append(a))
        rng = np.random.default_rng(6)
        # one head, B*M*N*K^2 over the 2**26 budget: at 96x96 with K = 87 the
        # dense path (N <= 4 K^2), at 131x131 with K = 65 the window path
        for hw, kernel in (((96, 96), 87), ((131, 131), 65)):
            block = Block(Registry(rng), "b", 16, MixerSpec("local_attn", kernel), 4, 0.5, 0.0)
            with pytest.raises(CapacityError):
                block.forward(Tensor(rng.standard_normal((1, 16) + hw)))
        assert built == []

    def test_block_gradcheck_pooling(self):
        # full criterion (all six mixers at C=16, 6x6) runs in the acceptance suite
        rng = np.random.default_rng(3)
        registry = Registry(rng)
        block = Block(registry, "b", 4, MixerSpec("pooling", 3), 2, 1.0, 0.0)
        x0 = rng.standard_normal((1, 4, 3, 3))
        params = registry.tensors
        names = sorted(params)
        arrays = [params[n].data for n in names]

        def closure(arrs):
            for n, a in zip(names, arrs):
                params[n].data[...] = a
            return float(block.forward(Tensor(x0)).data.sum())

        want = fd_grad(closure, arrays)
        for n in names:
            params[n].grad = None
        with Tape() as tape:
            loss = tsum(block.forward(Tensor(x0)))
        tape.backward(loss)
        for n, e in zip(names, want):
            assert rel_err(params[n].grad, e) < 1e-4, n

    @pytest.mark.parametrize("kind", list(MIXER_KINDS))
    @pytest.mark.parametrize("c,k", [(16, 3), (32, 5)])
    def test_block_registers_exactly_its_kinds_weights(self, kind, c, k):
        registry = Registry(np.random.default_rng(0))
        block = Block(registry, "stage1.block0", c, MixerSpec(kind, k), 4, 0.5, 0.0)
        prefix = "stage1.block0.mixer."
        built = [(n[len(prefix):], t.shape) for n, t in registry.tensors.items() if n.startswith(prefix)]
        assert built == list(MIXER_KINDS[kind].weights(c, k).items())
        assert [(n, t.shape) for n, t in block.mixer_params.items()] == built

    def test_droppath_requires_rng(self):
        rng = np.random.default_rng(4)
        block = Block(Registry(rng), "b", 8, MixerSpec("identity"), 4, 1.0, 0.5)
        x = Tensor(np.ones((2, 8, 4, 4)))
        with pytest.raises(ConfigError):
            block.forward(x, training=True, rng=None)
        block.forward(x, training=True, rng=np.random.default_rng(0))


class TestForwardClassify:
    def test_identical_images_identical_logits(self):
        model = MetaFormer(tiny_config(), seed=0)
        rng = np.random.default_rng(5)
        one = rng.standard_normal((1, 3, 32, 32))
        batch = Tensor(np.repeat(one, 3, axis=0))
        logits = model.forward_classify(batch).data
        assert np.all(logits == logits[0])

    def test_batch_permutation_permutes_logits(self):
        model = MetaFormer(tiny_config(), seed=0)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3, 32, 32))
        perm = np.array([2, 0, 3, 1])
        a = model.forward_classify(Tensor(x)).data
        b = model.forward_classify(Tensor(x[perm])).data
        np.testing.assert_array_equal(a[perm], b)

    def test_jacobian_vector_probe(self):
        model = MetaFormer(tiny_config(), seed=1)
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal((1, 3, 32, 32))
        probe = rng.standard_normal((1, 2))
        direction = rng.standard_normal(x0.shape)
        h = 1e-5

        def score(xv):
            return float((model.forward_classify(Tensor(xv)).data * probe).sum())

        fd = (score(x0 + h * direction) - score(x0 - h * direction)) / (2 * h)
        xt = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            loss = tsum(mul(model.forward_classify(xt), probe))
        tape.backward(loss)
        analytic = float((xt.grad * direction).sum())
        assert abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8) < 1e-4

    def test_wrong_head_rejected(self):
        model = MetaFormer(tiny_config(head="segment"), seed=0)
        with pytest.raises(ConfigError):
            model.forward_classify(Tensor(np.zeros((1, 3, 32, 32))))

    def test_indivisible_input_rejected(self):
        model = MetaFormer(tiny_config(), seed=0)
        with pytest.raises(ConfigError):
            model.forward_classify(Tensor(np.zeros((1, 3, 33, 33))))


class TestForwardSegment:
    def test_output_matches_input_resolution(self):
        model = MetaFormer(tiny_config(head="segment", num_classes=4), seed=2)
        x = Tensor(np.random.default_rng(8).standard_normal((2, 3, 32, 32)))
        logits = model.forward_segment(x)
        assert logits.shape == (2, 4, 32, 32)

    def test_constant_feature_maps_give_spatially_constant_logits(self):
        # the decoder is pointwise + bilinear, so per-channel-constant stage
        # features must come out spatially constant
        rng = np.random.default_rng(80)
        dec = SegDecoder(Registry(rng), "decoder", (8, 16, 24, 32), 16, 3)
        feats = [
            Tensor(np.broadcast_to(rng.standard_normal((1, c, 1, 1)), (1, c, hw, hw)).copy())
            for c, hw in zip((8, 16, 24, 32), (8, 4, 2, 1))
        ]
        logits = dec(feats, (32, 32)).data
        assert np.ptp(logits.reshape(1, 3, -1), axis=2).max() < 1e-9

    def test_decoder_parameter_count_near_525k(self):
        cfg = ModelConfig(head="segment", num_classes=5)
        model = MetaFormer(cfg, seed=0)
        decoder_params = sum(
            t.size for name, t in model.named_parameters().items() if name.startswith("decoder.")
        )
        assert abs(decoder_params - 525_000) <= 0.01 * 525_000

    def test_decoder_flip_equivariance(self):
        # pointwise maps + half-pixel bilinear resampling commute with flips
        rng = np.random.default_rng(9)
        dec = SegDecoder(Registry(rng), "decoder", (8, 16, 24, 32), 16, 3)
        feats = [Tensor(rng.standard_normal((1, c, hw, hw))) for c, hw in zip((8, 16, 24, 32), (8, 4, 2, 1))]
        flipped = [Tensor(f.data[:, :, :, ::-1].copy()) for f in feats]
        a = dec(feats, (32, 32)).data
        b = dec(flipped, (32, 32)).data
        assert np.abs(a[:, :, :, ::-1] - b).max() < 1e-12


class TestDecoderFold:
    """The decoder folds each block of the fuse layer into its stage's
    projection; it must agree with the concat graph it replaces."""

    CHANNELS = (8, 16, 24, 32)

    def decoder(self, seed, dim=12):
        rng = np.random.default_rng(seed)
        params = Registry(rng)
        dec = SegDecoder(params, "decoder", self.CHANNELS, dim, 3)
        for t in params.tensors.values():  # biases too, which start at zero
            t.data[...] = rng.standard_normal(t.shape) * 0.3
        return dec, params.tensors

    @staticmethod
    def features(rng, bsz, hw):
        h, w = hw[0] // 4, hw[1] // 4
        return [Tensor(rng.standard_normal((bsz, c, h >> i, w >> i)), True)
                for i, c in enumerate(TestDecoderFold.CHANNELS)]

    def run(self, forward, params, feats, probe, out_hw):
        """Logits, then the gradients of <logits, probe> by parameter name and per stage."""
        for t in list(params.values()) + feats:
            t.grad = None
        with Tape() as tape:
            logits = forward(feats, out_hw)
            loss = tsum(mul(logits, probe))
        tape.backward(loss)
        return logits.data, {n: t.grad for n, t in params.items()}, [f.grad for f in feats]

    @pytest.mark.parametrize("bsz,hw", [(1, (64, 64)), (2, (64, 96)), (1, (96, 64))])
    def test_matches_concat_oracle(self, bsz, hw):
        dec, params = self.decoder(30 + bsz)
        rng = np.random.default_rng(31)
        feats = self.features(rng, bsz, hw)
        probe = rng.standard_normal((bsz, 3) + hw)
        want = self.run(lambda f, o: concat_decoder_oracle(dec, f, o), params, feats, probe, hw)
        got = self.run(dec, params, feats, probe, hw)
        assert got[0].shape == (bsz, 3) + hw
        assert rel_err(got[0], want[0]) < 1e-12
        assert set(got[1]) == {n for n in params if n.startswith("decoder.")}
        for name in got[1]:
            assert rel_err(got[1][name], want[1][name]) < 1e-12, name
        for i, (g, e) in enumerate(zip(got[2], want[2])):
            assert rel_err(g, e) < 1e-12, f"stage {i}"

    @pytest.mark.parametrize("name,entries", [
        ("decoder.fuse.weight", [(0, 0), (5, 13), (11, 47)]),
        ("decoder.proj0.weight", [(0, 0), (7, 3)]),
        ("decoder.proj3.bias", [(0,), (9,)]),
    ])
    def test_gradient_entries_match_finite_differences(self, name, entries):
        dec, params = self.decoder(40)
        rng = np.random.default_rng(41)
        feats = self.features(rng, 2, (32, 48))
        probe = rng.standard_normal((2, 3, 32, 48))
        grad = self.run(dec, params, feats, probe, (32, 48))[1][name]
        arr, h = params[name].data, 1e-5
        for at in entries:
            orig = arr[at]
            arr[at] = orig + h
            fp = float((dec(feats, (32, 48)).data * probe).sum())
            arr[at] = orig - h
            fm = float((dec(feats, (32, 48)).data * probe).sum())
            arr[at] = orig
            assert abs((fp - fm) / (2 * h) - grad[at]) < 1e-6 * max(1.0, abs(grad[at])), at


class TestBatchInvariance:
    """A sample's output does not depend on its batch position or the batch size."""

    @pytest.mark.parametrize("head", ["classify", "segment"])
    @pytest.mark.parametrize("kind", ["identity", "pooling", "conv", "grouped_conv", "local_attn", "global_attn"])
    def test_rows_equal_single_sample_runs(self, kind, head):
        model = MetaFormer(tiny_config(kind, head=head, num_classes=3), seed=11)
        x = np.random.default_rng(12).standard_normal((16, 3, 32, 32))
        alone = [model.forward(Tensor(x[i : i + 1])).data for i in range(16)]
        for bsz in (1, 2, 3, 16):
            out = model.forward(Tensor(x[:bsz])).data
            for i in range(bsz):
                assert out[i : i + 1].tobytes() == alone[i].tobytes(), f"B={bsz}, row {i}"


class TestParameterCounts:
    # closed-form per-block sum over the S12 placements:
    # 2*64^2 + 2*128^2 + 6*320^2 + 2*512^2 = 1,179,648
    PLACEMENT_C2 = 2 * 64**2 + 2 * 128**2 + 6 * 320**2 + 2 * 512**2
    PLACEMENT_C = 2 * 64 + 2 * 128 + 6 * 320 + 2 * 512

    def s12(self, kind, kernel=3):
        sig = tuple(MixerSpec(kind, kernel=kernel) for _ in range(4))
        return ModelConfig(signature=sig, head="classify", num_classes=10)

    def test_pooling_total_near_11_4m(self):
        counts = count_params(MetaFormer(self.s12("pooling"), seed=0))
        assert counts["mixers"] == 0
        assert abs(counts["total"] - 11.4e6) / 11.4e6 < 0.03

    @pytest.mark.parametrize("k,want", [(3, 10_616_832), (5, 29_491_200), (7, 57_802_752)])
    def test_conv_delta_exact(self, k, want):
        assert want == k * k * self.PLACEMENT_C2
        cfg = self.s12("conv", k)
        counts = count_params(MetaFormer(cfg, seed=0))
        assert counts["mixers"] == want

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_grouped_delta_exact(self, k):
        cfg = self.s12("grouped_conv", k)
        want = k * k * self.PLACEMENT_C
        assert count_params(MetaFormer(cfg, seed=0))["mixers"] == want

    def test_attention_delta_exact(self):
        cfg = self.s12("local_attn", 3)
        assert 4 * self.PLACEMENT_C2 == 4_718_592
        counts = count_params(MetaFormer(cfg, seed=0))
        assert counts["mixers"] == 4_718_592
        assert counts["pos_emb"] == 0

    def test_global_attention_pos_emb_count(self):
        cfg = self.s12("global_attn")
        counts = count_params(MetaFormer(cfg, seed=0))
        want_pos = 56 * 56 * 64 + 28 * 28 * 128 + 14 * 14 * 320 + 7 * 7 * 512
        assert counts["pos_emb"] == want_pos == 388_864
        assert counts["mixers"] == 4_718_592

    def test_identity_collapse(self):
        model = MetaFormer(tiny_config("conv"), seed=4)
        for name, t in model.named_parameters().items():
            if "layerscale" in name:
                t.data[...] = 0.0
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 3, 32, 32)))
        got = model.forward_classify(x).data
        # pure patch-embed chain + final norm + GAP + head
        h = x
        for embed in model.patch_embeds:
            h = embed(h)
        h = model.final_norm(h)
        want = linear(global_avg_pool(h), model.head_w, model.head_b).data
        np.testing.assert_array_equal(got, want)


class TestHybridSignature:
    def test_mixed_stage_signature_forward_and_counts(self):
        # pooling early, attention late, purely through the spec list
        sig = (
            MixerSpec("pooling", 3),
            MixerSpec("pooling", 3),
            MixerSpec("local_attn", 3),
            MixerSpec("global_attn"),
        )
        cfg = ModelConfig(
            stage_channels=(8, 16, 24, 32),
            stage_depths=(1, 1, 1, 1),
            signature=sig,
            input_hw=(32, 32),
            head="classify",
            num_classes=2,
        )
        model = MetaFormer(cfg, seed=6)
        x = Tensor(np.random.default_rng(15).standard_normal((2, 3, 32, 32)))
        assert model.forward_classify(x).shape == (2, 2)
        counts = count_params(model)
        assert counts["mixers"] == 4 * 24 * 24 + 4 * 32 * 32
        assert counts["pos_emb"] == 32 * 1 * 1  # stage-3 grid is 1x1 at 32x32 input


class TestSpatialInvariants:
    def test_translation_by_total_stride(self):
        # content sits on a zero canvas with margins wide enough that its
        # influence never reaches a padded border cell at any stage, so a
        # 32-pixel shift only permutes identical cell values under GAP
        cfg = tiny_config("conv", kernel=3, input_hw=(512, 512))
        model = MetaFormer(cfg, seed=5)
        rng = np.random.default_rng(11)
        x = np.zeros((1, 3, 512, 512))
        x[:, :, 240:272, 240:272] = rng.standard_normal((1, 3, 32, 32))
        a = model.forward_classify(Tensor(x)).data
        b = model.forward_classify(Tensor(np.roll(x, 32, axis=3))).data
        assert np.abs(a - b).max() < 1e-10

    def test_mixer_flip_equivariance_symmetric_kernels(self):
        from mixerlab.mixers import mix_conv, mix_grouped_conv, mix_pool

        rng = np.random.default_rng(12)
        x = rng.standard_normal((1, 4, 8, 8))
        flip = lambda a: a[:, :, :, ::-1]
        y = mix_pool(Tensor(x), 3).data
        y2 = mix_pool(Tensor(flip(x).copy()), 3).data
        assert np.abs(flip(y) - y2).max() < 1e-12
        w = rng.standard_normal((4, 4, 3, 3))
        w = 0.5 * (w + w[:, :, :, ::-1])  # symmetrize left-right
        y = mix_conv(Tensor(x), {"kernel": Tensor(w)}, 3).data
        y2 = mix_conv(Tensor(flip(x).copy()), {"kernel": Tensor(w)}, 3).data
        assert np.abs(flip(y) - y2).max() < 1e-12
        wg = rng.standard_normal((4, 1, 3, 3))
        wg = 0.5 * (wg + wg[:, :, :, ::-1])
        y = mix_grouped_conv(Tensor(x), {"kernel": Tensor(wg)}, 3).data
        y2 = mix_grouped_conv(Tensor(flip(x).copy()), {"kernel": Tensor(wg)}, 3).data
        assert np.abs(flip(y) - y2).max() < 1e-12

    def test_seed_determinism(self):
        a = MetaFormer(tiny_config("grouped_conv"), seed=7)
        b = MetaFormer(tiny_config("grouped_conv"), seed=7)
        x = np.random.default_rng(13).standard_normal((1, 3, 32, 32))
        ya = a.forward_classify(Tensor(x)).data
        yb = b.forward_classify(Tensor(x)).data
        assert ya.tobytes() == yb.tobytes()


class TestParameterRegistry:
    """Names, order and shapes of ``named_parameters()`` and the CRC-32 of the
    ``state()`` bytes and of a saved checkpoint, at seed 7. The values were
    computed before parameters were named in one registry, so checkpoints
    written before and after are byte-identical."""

    # signature, head, count, CRC-32 of the manifest, of state(), of the checkpoint
    PINNED = [
        ("identity", "classify", 62, 0x9d1c1765, 0xd8343e42, 0xa0c9d376),
        ("pooling:3", "classify", 62, 0x9d1c1765, 0xd8343e42, 0x21af937e),
        ("conv:3", "classify", 67, 0x97bd6ab8, 0xb74e3ce1, 0x709aaff3),
        ("grouped_conv:3", "classify", 67, 0xa9351c4e, 0xff120b19, 0xe8347535),
        ("local_attn:3", "classify", 82, 0xb7f79203, 0x68b934df, 0xba437c34),
        ("global_attn", "classify", 86, 0xb43eb95e, 0xc2353b41, 0x7482b76e),
        ("pooling:3,conv:5,local_attn:3,global_attn", "classify", 76, 0x3751a349, 0xc4215180, 0xb3d65a71),
        ("identity", "segment", 72, 0x2ee3e53e, 0x74a8a29e, 0xa6024bbe),
        ("pooling:3", "segment", 72, 0x2ee3e53e, 0x74a8a29e, 0x06dfd646),
        ("conv:3", "segment", 77, 0x553ff3ae, 0x2c0ec7e8, 0x71a65dc5),
        ("grouped_conv:3", "segment", 77, 0x531ab9e0, 0xcaa1457c, 0xd1cb21dc),
        ("local_attn:3", "segment", 92, 0xb10d7d5a, 0x3a4a29e3, 0xfd5265f2),
        ("global_attn", "segment", 96, 0x8ecd2c78, 0x11cebfbb, 0xd9f84b1c),
        ("pooling:3,conv:5,local_attn:3,global_attn", "segment", 86, 0x6bfc2b24, 0x667122a1, 0x6e53aa7b),
    ]

    @pytest.mark.parametrize("text,head,count,manifest_crc,state_crc,file_crc", PINNED,
                             ids=[f"{text}-{head}" for text, head, *_ in PINNED])
    def test_manifest_state_and_checkpoint_bytes(self, tmp_path, text, head, count, manifest_crc,
                                                 state_crc, file_crc):
        specs = parse_signature(text)
        cfg = ModelConfig(
            stage_channels=(8, 16, 24, 32), stage_depths=(1, 1, 1, 2),
            signature=specs * 4 if len(specs) == 1 else specs,
            head=head, num_classes=3, decoder_dim=16, input_hw=(64, 64),
        )
        model = MetaFormer(cfg, seed=7)
        params = model.named_parameters()
        manifest = "".join(f"{name}{t.shape}\n" for name, t in params.items())
        crc = 0
        for name, arr in model.state().items():
            crc = zlib.crc32(arr.tobytes(), zlib.crc32(name.encode(), crc))
        path = tmp_path / "model.mxlc"
        save_model(str(path), model)
        assert list(params)[:2] == ["patch_embed0.kernel", "patch_embed0.bias"]
        assert (len(params), zlib.crc32(manifest.encode()), crc) == (count, manifest_crc, state_crc)
        assert zlib.crc32(path.read_bytes()) == file_crc

    @pytest.mark.parametrize("kind", list(MIXER_KINDS))
    def test_stage_weights_come_from_the_row(self, kind):
        """A stage makes exactly the weights its kind's row names in
        ``stage_weights``, before its first block, and every block of the
        stage holds the same Tensor."""
        cfg = tiny_config(kind, stage_depths=(2, 1, 2, 3))
        model = MetaFormer(cfg, seed=0)
        params = model.named_parameters()
        names = list(params)
        for i, (c, hw, blocks) in enumerate(zip(cfg.stage_channels, cfg.stage_hw(), model.stages)):
            want = MIXER_KINDS[kind].stage_weights(c, hw)
            stage_level = [n for n in names if n.startswith(f"stage{i}.") and n.count(".") == 1]
            made = {n.split(".")[1]: params[n].shape for n in stage_level}
            assert made == want
            first_block = names.index(f"stage{i}.block0.norm1.gamma")
            for name in want:
                assert names.index(f"stage{i}.{name}") < first_block
                assert all(block.mixer_params[name] is params[f"stage{i}.{name}"] for block in blocks)

    def test_load_model_draws_nothing(self, tmp_path, monkeypatch):
        signature = parse_signature("conv:3,grouped_conv:3,local_attn:3,global_attn")
        cfg = ModelConfig(signature=signature, head="segment", num_classes=3, **TINY)
        model = MetaFormer(cfg, seed=5)
        path = str(tmp_path / "model.mxlc")
        save_model(path, model)

        def refuse(*args, **kwargs):
            raise AssertionError("load_model made a random generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        again = load_model(path)
        monkeypatch.undo()
        want, got = model.state(), again.state()
        assert list(got) == list(want)
        assert all(got[name].tobytes() == want[name].tobytes() for name in want)


def old_save_arrays(path, config_text, arrays):
    """The reference checkpoint writer: a float64 copy of every array, then
    its bytes as a second copy."""
    cfg = config_text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"MXLC" + struct.pack("<IQ", 1, len(cfg)) + cfg + struct.pack("<Q", len(arrays)))
        for name, arr in arrays.items():
            raw = name.encode("utf-8")
            arr = np.asarray(arr, dtype=np.float64)
            fh.write(struct.pack(f"<H{len(raw)}sB{arr.ndim}I", len(raw), raw, arr.ndim, *arr.shape))
            fh.write(np.ascontiguousarray(arr).astype("<f8").tobytes())


CHECKPOINT_CFG = ModelConfig(stage_channels=(32, 64, 96, 128), stage_depths=(1, 1, 2, 1),
                             signature=tuple(MixerSpec("conv", 3) for _ in range(4)), input_hw=(32, 32))


class TestCheckpoint:
    def test_save_holds_no_copy_of_the_weights(self, tmp_path):
        model = MetaFormer(CHECKPOINT_CFG, seed=15)
        weights = sum(t.data.nbytes for t in model.named_parameters().values())
        path = str(tmp_path / "model.mxlc")
        tracemalloc.start()
        try:
            save_model(path, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * weights, (peak, weights)

    def test_save_writes_the_old_bytes_for_any_array(self, tmp_path):
        base = np.random.default_rng(16).standard_normal((3, 5))
        arrays = {
            "transposed": base.T,
            "float32": base.astype(np.float32),
            "int": np.arange(-4, 8).reshape(3, 4),
            "zero_d": np.array(2.5),
            "float64": base,
        }
        new, old = tmp_path / "new.mxlc", tmp_path / "old.mxlc"
        save_arrays(str(new), "[model]\n", arrays)
        old_save_arrays(str(old), "[model]\n", arrays)
        assert new.read_bytes() == old.read_bytes()

    def test_loaded_arrays_become_the_parameters(self, tmp_path):
        path = str(tmp_path / "model.mxlc")
        save_model(path, MetaFormer(CHECKPOINT_CFG, seed=15))
        config_text, arrays = load_arrays(path)
        for arr in arrays.values():
            assert arr.dtype == np.float64 and arr.flags.owndata and arr.flags.writeable
            assert arr.flags.c_contiguous
        model = MetaFormer(ModelConfig.from_ini(config_text), arrays=arrays)
        params = model.named_parameters()
        assert list(params) == list(arrays)
        for name, t in params.items():
            assert t.data is arrays[name]

    def test_load_holds_one_copy_of_the_weights(self, tmp_path):
        path = str(tmp_path / "model.mxlc")
        save_model(path, MetaFormer(CHECKPOINT_CFG, seed=15))
        weights = sum(a.nbytes for a in load_arrays(path)[1].values())
        tracemalloc.start()
        try:
            model = load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(t.data.nbytes for t in model.named_parameters().values()) == weights
        assert peak < 1.1 * weights, (peak, weights)

    def test_roundtrip_bits(self, tmp_path):
        model = MetaFormer(tiny_config("grouped_conv"), seed=8)
        path = str(tmp_path / "model.mxlc")
        save_model(path, model)
        again = load_model(path)
        for name, t in model.named_parameters().items():
            assert again.named_parameters()[name].data.tobytes() == t.data.tobytes()
        x = np.random.default_rng(14).standard_normal((1, 3, 32, 32))
        np.testing.assert_array_equal(
            model.forward_classify(Tensor(x)).data,
            again.forward_classify(Tensor(x)).data,
        )

    def test_container_is_little_endian_and_named(self, tmp_path):
        model = MetaFormer(tiny_config(), seed=9)
        path = str(tmp_path / "model.mxlc")
        save_model(path, model)
        config_text, arrays = load_arrays(path)
        assert "stage0.block0.mlp.fc1.weight" in arrays
        assert config_text.startswith("[model]")
        with open(path, "rb") as fh:
            assert fh.read(4) == b"MXLC"

    @pytest.mark.parametrize(
        "mismatch,message",
        [
            ("missing", "parameter stage1.block0.mlp.fc2.bias: model shape (16,), checkpoint has none"),
            ("extra", "arrays the model does not use: ['stage1.block0.mlp.fc3.bias']"),
            ("wrong_shape", "parameter stage1.block0.mlp.fc2.bias: model shape (16,), checkpoint shape (3,)"),
        ],
    )
    def test_arrays_that_do_not_match_the_config(self, tmp_path, mismatch, message):
        model = MetaFormer(tiny_config(), seed=9)
        arrays = model.state()
        name = "stage1.block0.mlp.fc2.bias"
        if mismatch == "missing":
            del arrays[name]
        elif mismatch == "extra":
            arrays["stage1.block0.mlp.fc3.bias"] = np.zeros(16)
        else:
            arrays[name] = np.zeros(3)
        path = str(tmp_path / "model.mxlc")
        save_arrays(path, model.config.to_ini(), arrays)
        with pytest.raises(ShapeError) as info:
            load_model(path)
        assert str(info.value) == message
        if mismatch == "extra":
            return
        # every parameter, the mixers' weights and a positional embedding
        # included, is checked as the model adopts its array
        signature = parse_signature("conv:3,grouped_conv:3,local_attn:3,global_attn")
        config = ModelConfig(signature=signature, **TINY)
        model = MetaFormer(config, seed=9)
        mixer_names = {"stage0.block0.mixer.kernel", "stage2.block0.mixer.wu", "stage3.pos_emb"}
        assert mixer_names <= set(model.named_parameters())
        for name, t in model.named_parameters().items():
            arrays = model.state()
            if mismatch == "missing":
                del arrays[name]
                got = "has none"
            else:
                arrays[name] = np.zeros(t.shape[:-1] + (t.shape[-1] + 1,))
                got = f"shape {arrays[name].shape}"
            with pytest.raises(ShapeError) as info:
                MetaFormer(config, arrays=arrays)
            assert str(info.value) == f"parameter {name}: model shape {t.shape}, checkpoint {got}"

    def test_warm_start_across_checkpoints(self, tmp_path):
        src_cfg = tiny_config("global_attn", input_hw=(32, 32))
        src = MetaFormer(src_cfg, seed=10)
        path = str(tmp_path / "global.mxlc")
        save_model(path, src)

        reloaded = load_model(path)
        dst = MetaFormer(tiny_config("local_attn", kernel=3), seed=11)
        for i in range(4):
            for sb, db in zip(reloaded.stages[i], dst.stages[i]):
                warm_start_remap(sb.mixer_params, db.mixer_params)
                assert db.mixer_params["wq"].data.tobytes() == sb.mixer_params["wq"].data.tobytes()
