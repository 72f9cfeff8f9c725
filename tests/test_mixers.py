"""Token mixers: contracts, parameter counts, the neighborhood mask, and
attention against a direct two-loop oracle."""

import tracemalloc

import numpy as np
import pytest

from mixerlab.errors import CapacityError, ConfigError, ShapeError
from mixerlab.mixers import (
    MIXER_KINDS,
    MixerSpec,
    apply_mixer,
    build_neighborhood_mask,
    head_count,
    init_mixer_params,
    mix_conv,
    mix_global_attn,
    mix_grouped_conv,
    mix_identity,
    mix_local_attn,
    mix_pool,
    warm_start_remap,
)
from mixerlab.tensor import Registry, Tensor


def attention_oracle(x, wk, wv, wq, wu, heads, pos=None, allowed=None):
    """O(N^2) two-loop attention, one query row at a time; no shared code."""
    c, h, w = x.shape
    n = h * w
    d = c // heads
    if pos is not None:
        x = x + pos
    toks = x.reshape(c, n).T
    k = toks @ wk.T
    v = toks @ wv.T
    q = toks @ wq.T
    out = np.zeros((n, c))
    for m in range(heads):
        sl = slice(m * d, (m + 1) * d)
        for r in range(n):
            keys = [s for s in range(n) if allowed is None or allowed[r, s]]
            sc = np.array([float(q[r, sl] @ k[s, sl]) / np.sqrt(d) for s in keys])
            e = np.exp(sc - sc.max())
            p = e / e.sum()
            z = np.zeros(d)
            for i, s in enumerate(keys):
                z += p[i] * v[s, sl]
            out[r, sl] = z
    return (out @ wu.T).T.reshape(c, h, w)


def make_attn_params(c, hw=None, seed=0, with_pos=False, zero_pos=False):
    rng = np.random.default_rng(seed)
    mk = lambda: Tensor(rng.standard_normal((c, c)) * 0.5, requires_grad=True)
    pos = None
    if with_pos:
        data = np.zeros((c,) + hw) if zero_pos else rng.standard_normal((c,) + hw) * 0.5
        pos = Tensor(data, requires_grad=True)
    return dict(wk=mk(), wv=mk(), wq=mk(), wu=mk(), pos_emb=pos)


class TestMixerSpec:
    def test_kind_validation(self):
        with pytest.raises(ConfigError):
            MixerSpec("fourier")

    def test_kernel_validation(self):
        with pytest.raises(ConfigError):
            MixerSpec("pooling", kernel=4)
        with pytest.raises(ConfigError):
            MixerSpec("conv", kernel=1)
        MixerSpec("identity", kernel=1)  # kernel ignored for identity

    def test_head_rule(self):
        assert head_count(64) == 4
        assert head_count(512) == 32
        assert head_count(16) == 1
        assert head_count(8) == 1  # small stages fall back to a single head
        assert head_count(24) == 1

    @pytest.mark.parametrize(
        "kind,kernel,c,want",
        [
            ("identity", 3, 64, 0),
            ("pooling", 3, 64, 0),
            ("conv", 3, 64, 9 * 64 * 64),
            ("conv", 7, 320, 49 * 320 * 320),
            ("grouped_conv", 3, 64, 9 * 64),
            ("grouped_conv", 5, 512, 25 * 512),
            ("local_attn", 3, 64, 4 * 64 * 64),
            ("global_attn", 3, 128, 4 * 128 * 128),
        ],
    )
    def test_param_counts_match_table_terms(self, kind, kernel, c, want):
        assert MIXER_KINDS[kind].params(c, kernel) == want


class TestIdentity:
    def test_returns_input_bitwise(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        y = mix_identity(x)
        assert y is x

    def test_zero_parameters(self):
        assert MIXER_KINDS["identity"].params(64, 3) == 0


class TestPooling:
    def test_constant_interior_unchanged(self):
        x = Tensor(np.full((1, 2, 6, 6), 4.2))
        y = mix_pool(x, 3)
        np.testing.assert_allclose(y.data[:, :, 1:-1, 1:-1], 4.2, atol=1e-12)

    def test_zero_parameters(self):
        assert MIXER_KINDS["pooling"].params(64, 5) == 0

    def test_matches_frozen_uniform_grouped_conv(self):
        rng = np.random.default_rng(1)
        c, k = 4, 3
        x = Tensor(rng.standard_normal((2, c, 6, 6)))
        pooled = mix_pool(x, k)
        uniform = Tensor(np.full((c, 1, k, k), 1.0 / (k * k)))
        from mixerlab.tensor import conv2d

        conved = conv2d(x, uniform, stride=1, padding=1, groups=c)
        assert np.abs(pooled.data - conved.data).max() < 1e-12

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            mix_pool(Tensor(np.zeros((1, 1, 4, 4))), 4)


class TestConvMixers:
    def test_grouped_delta_kernel_is_identity(self):
        rng = np.random.default_rng(2)
        c, k = 3, 3
        x = Tensor(rng.standard_normal((1, c, 5, 5)))
        delta = np.zeros((c, 1, k, k))
        delta[:, 0, 1, 1] = 1.0
        y = mix_grouped_conv(x, {"kernel": Tensor(delta)}, k)
        np.testing.assert_allclose(y.data, x.data, atol=1e-15)

    def test_block_diagonal_embedding_reproduces_grouped(self):
        rng = np.random.default_rng(3)
        c, k = 4, 3
        x = Tensor(rng.standard_normal((2, c, 5, 5)))
        wg = rng.standard_normal((c, 1, k, k))
        grouped = mix_grouped_conv(x, {"kernel": Tensor(wg)}, k)
        wf = np.zeros((c, c, k, k))
        for i in range(c):
            wf[i, i] = wg[i, 0]
        full = mix_conv(x, {"kernel": Tensor(wf)}, k)
        assert np.abs(grouped.data - full.data).max() < 1e-12

    def test_shape_preserved(self):
        rng = np.random.default_rng(4)
        for kind in ("conv", "grouped_conv"):
            spec = MixerSpec(kind, kernel=5)
            params = init_mixer_params(spec, 8, Registry(rng))
            x = Tensor(rng.standard_normal((2, 8, 6, 6)))
            y = apply_mixer(spec, params, x)
            assert y.shape == x.shape

    def test_translation_equivariance_interior(self):
        rng = np.random.default_rng(5)
        c, k = 3, 3
        x = rng.standard_normal((1, c, 8, 8))
        for kind in ("pooling", "conv", "grouped_conv"):
            spec = MixerSpec(kind, kernel=k)
            params = init_mixer_params(spec, c, Registry(rng))
            y1 = apply_mixer(spec, params, Tensor(x)).data
            y2 = apply_mixer(spec, params, Tensor(np.roll(x, 1, axis=3))).data
            rolled = np.roll(y1, 1, axis=3)
            assert np.abs(y2[:, :, :, k:-k] - rolled[:, :, :, k:-k]).max() < 1e-12


def meshgrid_mask_oracle(height, width, kernel):
    """Allowed pairs from the unraveled coordinates of every position pair."""
    hh, ww = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    rows = hh.reshape(-1)
    cols = ww.reshape(-1)
    half = kernel / 2.0
    dy = np.abs(rows[:, None] - rows[None, :]) < half
    dx = np.abs(cols[:, None] - cols[None, :]) < half
    return dy & dx


class TestNeighborhoodMask:
    @pytest.mark.parametrize("kernel", [1, 3, 5, 7, 9])
    @pytest.mark.parametrize("h,w", [(1, 1), (5, 5), (8, 8), (3, 7), (6, 4), (1, 9), (9, 1)])
    def test_separable_mask_equals_meshgrid_oracle(self, h, w, kernel):
        m = build_neighborhood_mask(h, w, kernel)
        assert m.allowed.dtype == bool and m.allowed.shape == (h * w, h * w)
        np.testing.assert_array_equal(m.allowed, meshgrid_mask_oracle(h, w, kernel))

    def test_single_pixel(self):
        m = build_neighborhood_mask(1, 1, 3)
        assert m.allowed.shape == (1, 1) and m.allowed[0, 0]

    def test_3x3_kernel3_center_and_corner(self):
        m = build_neighborhood_mask(3, 3, 3)
        center = 1 * 3 + 1
        assert m.allowed[center].sum() == 9
        corner = 0
        keys = {(int(s // 3), int(s % 3)) for s in np.nonzero(m.allowed[corner])[0]}
        assert keys == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_full_coverage_threshold(self):
        m = build_neighborhood_mask(4, 4, 9)
        assert m.allowed.all()

    def test_symmetry_and_self_membership(self):
        for h, w, k in [(3, 5, 3), (4, 4, 5), (2, 7, 3)]:
            m = build_neighborhood_mask(h, w, k)
            assert (m.allowed == m.allowed.T).all()
            assert np.diag(m.allowed).all()
            assert m.allowed.any(axis=1).all()

    def test_invalid_kernel(self):
        with pytest.raises(ConfigError):
            build_neighborhood_mask(3, 3, 0)
        with pytest.raises(ConfigError):
            build_neighborhood_mask(3, 3, 2)

    def test_additive_values(self):
        m = build_neighborhood_mask(2, 2, 1)
        add = m.to_additive()
        assert np.isneginf(add[0, 1]) and add[0, 0] == 0.0


class TestGlobalAttention:
    def test_single_position_closed_form(self):
        c = 16
        params = make_attn_params(c, hw=(1, 1), seed=6, with_pos=True)
        rng = np.random.default_rng(7)
        xv = rng.standard_normal((1, c, 1, 1))
        y = mix_global_attn(Tensor(xv), params)
        shifted = xv[0, :, 0, 0] + params["pos_emb"].data[:, 0, 0]
        want = params["wu"].data @ (params["wv"].data @ shifted)
        np.testing.assert_allclose(y.data[0, :, 0, 0], want, atol=1e-10)

    def test_vs_two_loop_oracle(self):
        c, h, w = 16, 2, 2
        params = make_attn_params(c, hw=(h, w), seed=8, with_pos=True)
        rng = np.random.default_rng(9)
        xv = rng.standard_normal((1, c, h, w))
        got = mix_global_attn(Tensor(xv), params).data[0]
        want = attention_oracle(
            xv[0],
            params["wk"].data,
            params["wv"].data,
            params["wq"].data,
            params["wu"].data,
            heads=1,
            pos=params["pos_emb"].data,
        )
        assert np.abs(got - want).max() < 1e-10

    def test_multihead_vs_oracle(self):
        c, h, w = 32, 3, 2
        params = make_attn_params(c, hw=(h, w), seed=10, with_pos=True)
        rng = np.random.default_rng(11)
        xv = rng.standard_normal((2, c, h, w))
        got = mix_global_attn(Tensor(xv), params).data
        for b in range(2):
            want = attention_oracle(
                xv[b],
                params["wk"].data,
                params["wv"].data,
                params["wq"].data,
                params["wu"].data,
                heads=2,
                pos=params["pos_emb"].data,
            )
            assert np.abs(got[b] - want).max() < 1e-10

    def test_param_count_with_positional_embedding(self):
        c, n = 64, 49
        assert MIXER_KINDS["global_attn"].params(c, 3) == 4 * c * c
        params = make_attn_params(c, hw=(7, 7), seed=12, with_pos=True)
        total = sum(t.size for t in params.values())
        assert total == 4 * c * c + n * c

    def test_positional_embedding_shape_checked(self):
        params = make_attn_params(16, hw=(2, 2), seed=60, with_pos=True)
        with pytest.raises(ShapeError):
            mix_global_attn(Tensor(np.zeros((1, 16, 3, 3))), params)

    def test_capacity_error(self):
        # 96x96: one head over N = 9216 positions exceeds the 2**26 budget
        c = 16
        params = make_attn_params(c, hw=(96, 96), seed=13, with_pos=True)
        x = Tensor(np.zeros((1, c, 96, 96)))
        with pytest.raises(CapacityError):
            mix_global_attn(x, params)


class TestLocalAttention:
    def test_self_only_mask_closed_form(self):
        c = 16
        params = make_attn_params(c, seed=16)
        rng = np.random.default_rng(17)
        xv = rng.standard_normal((1, c, 2, 3))
        y = mix_local_attn(Tensor(xv), params, 1)
        want = np.einsum("oc,chw->ohw", params["wu"].data @ params["wv"].data, xv[0])
        np.testing.assert_allclose(y.data[0], want, atol=1e-10)

    def test_corner_pixel_vs_hand_restricted_oracle(self):
        c, h, w = 16, 3, 3
        params = make_attn_params(c, seed=18)
        rng = np.random.default_rng(19)
        xv = rng.standard_normal((1, c, h, w))
        got = mix_local_attn(Tensor(xv), params, 3).data[0]
        want = attention_oracle(
            xv[0],
            params["wk"].data,
            params["wv"].data,
            params["wq"].data,
            params["wu"].data,
            heads=1,
            allowed=build_neighborhood_mask(h, w, 3).allowed,
        )
        assert np.abs(got - want).max() < 1e-10

    def test_degenerates_to_global_with_full_coverage(self):
        c, h, w = 16, 4, 5
        for seed in range(20, 40):
            params = make_attn_params(c, hw=(h, w), seed=seed, with_pos=True, zero_pos=True)
            rng = np.random.default_rng(seed + 1000)
            x = Tensor(rng.standard_normal((1, c, h, w)))
            local = mix_local_attn(x, params, 2 * max(h, w) + 1).data
            global_ = mix_global_attn(x, params).data
            assert np.abs(local - global_).max() < 1e-10

    def test_output_depends_only_on_its_window(self):
        # masked keys carry exactly zero weight, so changing one pixel of
        # sample 0 leaves bit for bit every output pixel whose K x K window
        # excludes it, and all of sample 1
        c, h, w = 16, 5, 6
        ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        for seed in range(50, 80):
            kernel = 3 if seed % 2 else 5
            params = make_attn_params(c, seed=seed)
            rng = np.random.default_rng(seed + 1000)
            xv = rng.standard_normal((2, c, h, w))
            i, j = int(rng.integers(h)), int(rng.integers(w))
            changed = xv.copy()
            changed[0, :, i, j] += rng.standard_normal(c)
            before = mix_local_attn(Tensor(xv), params, kernel).data
            after = mix_local_attn(Tensor(changed), params, kernel).data
            outside = (np.abs(ys - i) > kernel // 2) | (np.abs(xs - j) > kernel // 2)
            assert outside.any() and not np.array_equal(after[0], before[0])
            assert np.array_equal(after[0][:, outside], before[0][:, outside]), seed
            assert np.array_equal(after[1], before[1]), seed

    def test_refusal_allocates_nothing_n_squared(self):
        # 96x96: one head over N = 9216 positions exceeds the 2**26 budget;
        # the bool mask alone would be N^2 bytes and its additive form 8 N^2
        c, h, w = 16, 96, 96
        n = h * w
        params = make_attn_params(c, seed=43)
        x = Tensor(np.random.default_rng(44).standard_normal((1, c, h, w)))
        calls = (
            lambda: apply_mixer(MixerSpec("local_attn", 3), params, x),
            lambda: mix_local_attn(x, params, 3),
        )
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(CapacityError):
                    call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n * n


class TestWarmStartRemap:
    def test_values_copied_bit_exactly(self):
        src = make_attn_params(16, hw=(2, 2), seed=43, with_pos=True)
        dst = make_attn_params(16, seed=44)
        warm_start_remap(src, dst)
        for name in ("wk", "wv", "wq", "wu"):
            assert dst[name].data.tobytes() == src[name].data.tobytes()
        assert dst.get("pos_emb") is None

    def test_remapped_local_matches_source_global(self):
        c, h, w = 16, 3, 3
        src = make_attn_params(c, hw=(h, w), seed=45, with_pos=True, zero_pos=True)
        dst = make_attn_params(c, seed=46)
        warm_start_remap(src, dst)
        rng = np.random.default_rng(47)
        x = Tensor(rng.standard_normal((1, c, h, w)))
        local = mix_local_attn(x, dst, 2 * max(h, w) + 1).data
        global_ = mix_global_attn(x, src).data
        assert np.abs(local - global_).max() < 1e-10

    def test_width_mismatch_rejected(self):
        src = make_attn_params(16, seed=48)
        dst = make_attn_params(32, seed=49)
        with pytest.raises(ShapeError):
            warm_start_remap(src, dst)


class TestShapePreservation:
    @pytest.mark.parametrize("kind", ["identity", "pooling", "conv", "grouped_conv", "local_attn", "global_attn"])
    def test_every_mixer_preserves_shape(self, kind):
        rng = np.random.default_rng(50)
        c, h, w = 16, 4, 6
        spec = MixerSpec(kind, kernel=3)
        params = init_mixer_params(spec, c, Registry(rng))
        x = Tensor(rng.standard_normal((2, c, h, w)))
        y = apply_mixer(spec, params, x)
        assert y.shape == (2, c, h, w)
