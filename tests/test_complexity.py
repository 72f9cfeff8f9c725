"""Cost formulas, the stage sweep, and formula/executed MAC agreement."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixerlab.complexity import (
    KINDS,
    empirical_mac_count,
    flops_formula,
    flops_mixer_term,
    param_formula,
    stage_sweep,
    sweep_to_csv,
)
from mixerlab.errors import ConfigError
from mixerlab.metaformer import MetaFormer, ModelConfig, count_params
from mixerlab.mixers import MixerSpec
from mixerlab.tensor import Tensor, _executed_macs, _state, avg_pool2d, conv2d


def loop_mac_count(kind, c, h, w, k):
    """Reference count: one MAC per output channel, output pixel, input
    channel and tap of a shape-preserving K x K window mixer."""
    cin_per_out = c if kind == "conv" else 1
    macs = 0
    for co in range(c):
        for oy in range(h):
            for ox in range(w):
                for ci in range(cin_per_out):
                    for ky in range(k):
                        for kx in range(k):
                            macs += 1
    return macs


class TestFlopsFormula:
    def test_identity_at_stage0_768(self):
        n = 192 * 192
        assert n == 36864
        assert flops_formula("identity", 64, n) == 36864 * 4096 == 150_994_944

    def test_pooling_k1_equals_identity_plus_nc(self):
        c, n = 64, 1000
        assert flops_formula("pooling", c, n, 1) == flops_formula("identity", c, n) + n * c

    def test_global_vs_local_term_ratio(self):
        c, k = 512, 7
        n = 24 * 24
        global_term = n * n * c
        local_term = n * k * k * c
        assert global_term * k * k == local_term * n  # exact N/K^2 ratio
        assert global_term == 576 * 576 * 512
        assert local_term == 576 * 49 * 512

    def test_missing_kernel_rejected(self):
        with pytest.raises(ConfigError):
            flops_formula("pooling", 64, 100)
        with pytest.raises(ConfigError):
            param_formula("conv", 64)

    @given(
        c=st.integers(min_value=1, max_value=256),
        n=st.integers(min_value=1, max_value=4096),
        k=st.integers(min_value=1, max_value=9),
        kind=st.sampled_from(KINDS),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_each_argument(self, c, n, k, kind):
        kk = k if kind in ("pooling", "grouped_conv", "local_attn", "conv") else None
        base = flops_formula(kind, c, n, kk)
        assert flops_formula(kind, c + 1, n, kk) >= base
        assert flops_formula(kind, c, n + 1, kk) >= base
        if kk is not None:
            assert flops_formula(kind, c, n, kk + 1) >= base


class TestParamFormula:
    def test_grouped_conv_hand_case(self):
        assert param_formula("grouped_conv", 64, 3) == 9 * 64 + 64 * 64 == 4672

    def test_identity_is_c_squared(self):
        for c in (16, 64, 320):
            assert param_formula("identity", c) == c * c

    def test_attention_variants_equal(self):
        for c in (64, 128, 512):
            assert param_formula("local_attn", c, 3) == param_formula("global_attn", c) == 5 * c * c

    @pytest.mark.parametrize("kind,k", [("identity", None), ("pooling", 3), ("grouped_conv", 5), ("conv", 7), ("local_attn", 3), ("global_attn", None)])
    def test_mixer_terms_match_model_deltas(self, kind, k):
        spec_kind = kind
        spec = MixerSpec(spec_kind, kernel=k or 3)
        cfg = ModelConfig(
            stage_channels=(16, 32, 48, 64),
            stage_depths=(1, 1, 1, 1),
            signature=tuple(spec for _ in range(4)),
            input_hw=(32, 32),
            head="classify",
            num_classes=2,
        )
        model = MetaFormer(cfg, seed=0)
        got = count_params(model)["mixers"]
        want = sum(param_formula(kind, c, k) - c * c for c in cfg.stage_channels)
        assert got == want


class TestStageSweep:
    def test_768_stage_positions(self):
        reports = stage_sweep(ModelConfig(input_hw=(768, 768)))
        ns = sorted({r.positions for r in reports}, reverse=True)
        assert ns == [36864, 9216, 2304, 576]
        assert len(reports) == 24

    def test_global_attention_dominates_stage0(self):
        reports = stage_sweep(ModelConfig(input_hw=(768, 768)), kernel=9)
        stage0 = {r.kind: r.flops for r in reports if r.stage == 0}
        for kind, flops in stage0.items():
            if kind != "global_attn":
                assert stage0["global_attn"] > flops

    def test_zero_positions_gives_zero(self):
        for kind in KINDS:
            k = 3 if kind in ("pooling", "grouped_conv", "local_attn", "conv") else None
            assert flops_formula(kind, 64, 0, k) == 0

    def test_csv_shape_and_determinism(self):
        reports = stage_sweep(ModelConfig(input_hw=(768, 768)))
        csv1 = sweep_to_csv(reports)
        csv2 = sweep_to_csv(stage_sweep(ModelConfig(input_hw=(768, 768))))
        assert csv1 == csv2
        lines = csv1.strip().split("\n")
        assert lines[0] == "stage,mixer,K,C,N,flops,params,macs"
        assert len(lines) == 25

    @pytest.mark.parametrize("kernel", [3, 5])
    def test_filled_macs_match_formula_terms(self, kernel):
        factor = {"identity": 1, "pooling": 1, "grouped_conv": 2, "conv": 2}
        reports = stage_sweep(ModelConfig(input_hw=(96, 128)), kernel=kernel)
        filled = [r for r in reports if r.empirical_macs is not None]
        assert len(filled) == 16 and {r.kind for r in filled} == set(factor)
        for r in filled:
            term = flops_mixer_term(r.kind, r.channels, r.positions, r.kernel)
            assert r.empirical_macs * factor[r.kind] == term, r
        macs_cells = [line.rsplit(",", 1)[1] for line in sweep_to_csv(reports).split("\n")[1:-1]]
        assert macs_cells == ["" if r.empirical_macs is None else str(r.empirical_macs) for r in reports]

    def test_large_mixer_runs_are_not_counted(self):
        def uncounted(reports):
            attention = ("local_attn", "global_attn")
            return [(r.stage, r.kind) for r in reports if r.empirical_macs is None and r.kind not in attention]

        # at 768x768 with K = 5 every conv term is above 2**32 FLOPs
        reports = stage_sweep(ModelConfig(input_hw=(768, 768)), kernel=5)
        assert uncounted(reports) == [(stage, "conv") for stage in range(4)]
        # at K = 9, stage 3's 512 x 512 x 81 conv weights are above 2**24 elements
        assert uncounted(stage_sweep(ModelConfig(), kernel=9)) == [(3, "conv")]


class TestEmpiricalMacs:
    def test_grouped_conv_wrap_hand_case(self):
        assert empirical_mac_count("grouped_conv", 4, 8, 8, 3) == 64 * 9 * 4 == 2304

    def test_identity_is_zero(self):
        assert empirical_mac_count("identity", 8, 4, 4) == 0

    def test_conv_is_grouped_times_c(self):
        c = 3
        grouped = empirical_mac_count("grouped_conv", c, 6, 6, 3)
        full = empirical_mac_count("conv", c, 6, 6, 3)
        assert full == grouped * c

    @pytest.mark.parametrize("kind", ["pooling", "grouped_conv", "conv"])
    @pytest.mark.parametrize("c,h,w,k", [(2, 4, 4, 3), (3, 5, 4, 3), (2, 6, 6, 5)])
    def test_wrap_matches_formula_mixer_term(self, kind, c, h, w, k):
        n = h * w
        macs = empirical_mac_count(kind, c, h, w, k)
        term = flops_mixer_term(kind, c, n, k)
        factor = 2 if kind in ("grouped_conv", "conv") else 1
        assert macs * factor == term

    @pytest.mark.parametrize("kind", ["pooling", "grouped_conv", "conv"])
    def test_executed_count_matches_loop_oracle(self, kind):
        grids = ((4, 4), (5, 6), (7, 7), (8, 8), (7, 9))
        for c in (1, 2, 3, 4):
            for k in (3, 5, 7):
                for h, w in grids:
                    if k <= min(h, w):
                        want = loop_mac_count(kind, c, h, w, k)
                        assert empirical_mac_count(kind, c, h, w, k) == want, (c, k, h, w)

    def test_paper_scale_conv_is_fast(self):
        start = time.perf_counter()
        assert empirical_mac_count("conv", 64, 14, 14, 3) == 7_225_344
        assert time.perf_counter() - start < 0.5

    def test_attention_not_defined(self):
        with pytest.raises(ConfigError):
            empirical_mac_count("global_attn", 16, 4, 4)
        with pytest.raises(ConfigError):
            empirical_mac_count("local_attn", 16, 4, 4, 3)

    @pytest.mark.parametrize("k", [None, 4])
    def test_missing_or_even_kernel_rejected(self, k):
        for kind in ("pooling", "grouped_conv", "conv"):
            with pytest.raises(ConfigError):
                empirical_mac_count(kind, 2, 4, 4, k)


class TestMacCounter:
    def test_ops_report_output_size_times_window(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 4, 7, 7)))
        kernel = Tensor(rng.standard_normal((6, 2, 3, 3)))
        # output (2, 6, 4, 4), Cin/G = 2, K^2 = 9
        assert _executed_macs(lambda: conv2d(x, kernel, stride=2, padding=1, groups=2)) == 2 * 6 * 16 * 2 * 9
        # output (2, 4, 3, 3), K^2 = 25
        assert _executed_macs(lambda: avg_pool2d(x, 5, stride=2, padding=1)) == 2 * 4 * 9 * 25

    def test_off_outside_a_count_and_after_a_raise(self):
        x = Tensor(np.ones((1, 2, 4, 4)))
        avg_pool2d(x, 3)
        assert getattr(_state, "macs", None) is None
        assert empirical_mac_count("pooling", 2, 4, 4, 3) == 2 * 16 * 9
        assert _state.macs is None

        def raising():
            avg_pool2d(x, 3)
            raise RuntimeError("inside the count")

        with pytest.raises(RuntimeError):
            _executed_macs(raising)
        assert _state.macs is None

    def test_other_threads_are_not_counted(self):
        x = Tensor(np.ones((1, 2, 4, 4)))

        def pool_on_another_thread():
            t = threading.Thread(target=avg_pool2d, args=(x, 3))
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()

        assert _executed_macs(pool_on_another_thread) == 0
