"""Tensor engine: forward semantics against independent oracles, gradients
against central finite differences, and the tape contract."""

import gc
import inspect
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from conftest import fd_grad, rel_err, tape_grads
from mixerlab import metaformer, tensor
from mixerlab.errors import ConfigError, NumericsError, ShapeError
from mixerlab.metaformer import ChannelMlp, MetaFormer, ModelConfig, parse_signature
from mixerlab.mixers import MixerSpec, apply_mixer, head_count, init_mixer_params
from mixerlab.tensor import (
    Registry,
    Tape,
    Tensor,
    add,
    avg_pool2d,
    backward,
    bilinear_resize,
    concat,
    conv2d,
    div,
    exp,
    gelu,
    gelu_linear,
    global_avg_pool,
    layer_norm,
    linear,
    log,
    log_softmax,
    matmul,
    mul,
    neg,
    neighborhood_attention,
    power,
    reshape,
    softmax,
    split,
    sqrt,
    sub,
    tmean,
    transpose,
    tsum,
)
from mixerlab.trainer import ce_loss


# ---------------------------------------------------------------------------
# independent oracles (written before the ops they check)
# ---------------------------------------------------------------------------


def conv2d_oracle(x, w, b, stride, padding, groups):
    """Direct summation over every output element; no shared code with conv2d."""
    bsz, cin, h, wdt = x.shape
    cout, cg, k, _ = w.shape
    og = cout // groups
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wdt + 2 * padding - k) // stride + 1
    out = np.zeros((bsz, cout, ho, wo))
    for n in range(bsz):
        for co in range(cout):
            g = co // og
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ci in range(cg):
                        for ky in range(k):
                            for kx in range(k):
                                iy = oy * stride + ky - padding
                                ix = ox * stride + kx - padding
                                if 0 <= iy < h and 0 <= ix < wdt:
                                    acc += x[n, g * cg + ci, iy, ix] * w[co, ci, ky, kx]
                    out[n, co, oy, ox] = acc + (b[co] if b is not None else 0.0)
    return out


def linear_oracle(x, w, b):
    cout, cin = w.shape
    flat = x.reshape(-1, cin)
    out = np.zeros((flat.shape[0], cout))
    for r in range(flat.shape[0]):
        for o in range(cout):
            acc = 0.0
            for i in range(cin):
                acc += flat[r, i] * w[o, i]
            out[r, o] = acc + (b[o] if b is not None else 0.0)
    return out.reshape(x.shape[:-1] + (cout,))


def tap_slices(k, stride, ho, wo):
    """Each tap (ky, kx) of a K x K window with the row and column slices of
    the padded input it reads for the ho x wo output positions."""
    for ky in range(k):
        for kx in range(k):
            rows = slice(ky, ky + (ho - 1) * stride + 1, stride)
            yield ky, kx, rows, slice(kx, kx + (wo - 1) * stride + 1, stride)


def pad_hw(x, padding):
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def conv2d_tap_loop(x, w, stride, padding, groups, g):
    """conv2d as one stacked GEMM per tap: the output, and the input and
    kernel gradients for the output gradient g."""
    bsz, cin, h, wd = x.shape
    cout, cg, k, _ = w.shape
    og, (ho, wo) = cout // groups, g.shape[2:]
    xp = pad_hw(x, padding).reshape(bsz, groups, cg, h + 2 * padding, wd + 2 * padding)
    wg = w.reshape(groups, og, cg, k, k)
    gg = g.reshape(bsz, groups, og, ho * wo)
    y, gxp, dw = np.zeros(gg.shape), np.zeros(xp.shape), np.zeros(wg.shape)
    for ky, kx, rows, cols in tap_slices(k, stride, ho, wo):
        win = xp[:, :, :, rows, cols].reshape(bsz, groups, cg, ho * wo)
        tap = wg[:, :, :, ky, kx]
        y += tap @ win
        gxp[:, :, :, rows, cols] += (tap.swapaxes(-1, -2) @ gg).reshape(win.shape[:3] + (ho, wo))
        dw[:, :, :, ky, kx] = (gg @ win.swapaxes(-1, -2)).sum(axis=0)
    gx = gxp.reshape(bsz, cin, h + 2 * padding, wd + 2 * padding)
    return y.reshape(g.shape), gx[:, :, padding : padding + h, padding : padding + wd], dw.reshape(w.shape)


def avg_pool2d_tap_loop(x, k, stride, padding, g):
    """avg_pool2d as one strided add per tap: the output, and the input
    gradient for the output gradient g."""
    h, wd = x.shape[2:]
    ho, wo = g.shape[2:]
    xp = pad_hw(x, padding)
    acc, gxp = np.zeros(g.shape), np.zeros(xp.shape)
    scale = 1.0 / (k * k)
    for _, _, rows, cols in tap_slices(k, stride, ho, wo):
        acc += xp[:, :, rows, cols]
        gxp[:, :, rows, cols] += g * scale
    return acc * scale, gxp[:, :, padding : padding + h, padding : padding + wd]


def bilinear_gather_oracle(x, out_h, out_w, g):
    """bilinear_resize as a four-corner gather: the output, and the input
    gradient for the output gradient g as four np.add.at scatters."""

    def axis(n_in, n_out):
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        i0 = np.floor(src).astype(np.int64)
        return np.clip(i0, 0, n_in - 1), np.clip(i0 + 1, 0, n_in - 1), src - i0

    y0, y1, fy = axis(x.shape[2], out_h)
    x0, x1, fx = axis(x.shape[3], out_w)
    wy0, wy1 = (1.0 - fy)[:, None], fy[:, None]
    wx0, wx1 = (1.0 - fx)[None, :], fx[None, :]
    y, gx = np.zeros(g.shape), np.zeros(x.shape)
    for rows, cols, weight in [(y0, x0, wy0 * wx0), (y0, x1, wy0 * wx1), (y1, x0, wy1 * wx0), (y1, x1, wy1 * wx1)]:
        corner = (slice(None), slice(None), rows[:, None], cols[None, :])
        y += x[corner] * weight
        np.add.at(gx, corner, g * weight)
    return y, gx


def run_with_grads(op, *arrays):
    """op's output on fresh leaves and each leaf's gradient for a seeded
    probe of the output."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        y = op(*leaves)
        probe = np.random.default_rng(41).standard_normal(y.shape)
        loss = tsum(mul(y, probe))
    tape.backward(loss)
    return probe, y.data, [t.grad for t in leaves]


def backward_oracle(tape, loss):
    """The reverse walk as it was before records were released: visit every
    (output node, closure) record in reverse and keep them all, so the tape's
    closures stay alive after it. Gradients are keyed by node, and a leaf
    gets its grad if it is still alive."""
    tape._consumed = True
    grads = {loss._node: np.ones((), dtype=np.float64)}
    for node, backward_fn in reversed(tape._records):
        g = grads.pop(node, None)
        if g is None:
            continue
        for n, gt in backward_fn(g):
            grads[n] = grads[n] + gt if n in grads else np.array(gt, dtype=np.float64, copy=True)
    for n, g in grads.items():
        t = n()
        if t is not None:
            t.grad = g if t.grad is None else t.grad + g


def windows_oracle(padded, k, stride, writeable=False):
    """tensor._windows as three numpy calls: a sliding_window_view, a strided
    slice of its window origins and a move of the tap axes to the front."""
    view = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(-2, -1), writeable=writeable)
    return np.moveaxis(view[..., ::stride, ::stride, :, :], (-2, -1), (-4, -3))


def assert_rows_match_single_runs(op, x):
    """Row i of op(x[:B]) and its input gradient equal those of op(x[i:i+1]), bit for bit."""
    probe = np.random.default_rng(99).standard_normal(op(Tensor(x)).shape)

    def run(xv, pv):
        xt = Tensor(xv, requires_grad=True)
        with Tape() as tape:
            y = op(xt)
            loss = tsum(mul(y, pv))
        tape.backward(loss)
        return y.data, xt.grad

    alone = [run(x[i : i + 1], probe[i : i + 1]) for i in range(len(x))]
    for bsz in (1, 2, 3, len(x)):
        y, gx = run(x[:bsz], probe[:bsz])
        for i in range(bsz):
            assert y[i : i + 1].tobytes() == alone[i][0].tobytes(), f"output, B={bsz}, row {i}"
            assert gx[i : i + 1].tobytes() == alone[i][1].tobytes(), f"input grad, B={bsz}, row {i}"


# hand oracle output of bilinear half-pixel resize for [[0,1],[2,3]] -> 4x4
BILINEAR_2X2_TO_4X4 = np.array(
    [
        [0.00, 0.25, 0.75, 1.00],
        [0.50, 0.75, 1.25, 1.50],
        [1.50, 1.75, 2.25, 2.50],
        [2.00, 2.25, 2.75, 3.00],
    ]
)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.arange(9.0).reshape(1, 1, 3, 3))
        k = Tensor(np.ones((1, 1, 1, 1)))
        y = conv2d(x, k)
        np.testing.assert_array_equal(y.data, x.data)

    def test_zero_padding_arithmetic(self):
        c = 2.5
        x = Tensor(np.full((1, 1, 4, 4), c))
        k = Tensor(np.ones((1, 1, 3, 3)))
        y = conv2d(x, k, stride=1, padding=1).data
        assert y[0, 0, 1, 1] == pytest.approx(9 * c, abs=1e-12)
        assert y[0, 0, 0, 0] == pytest.approx(4 * c, abs=1e-12)

    def test_grouped_random_vs_direct_summation(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 4, 5, 5))
        w = rng.standard_normal((6, 2, 3, 3))
        b = rng.standard_normal(6)
        want = conv2d_oracle(x, w, b, stride=1, padding=1, groups=2)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1, groups=2)
        assert np.abs(got.data - want).max() < 1e-12

    @pytest.mark.parametrize("stride,padding,k", [
        pytest.param(1, 0, 3, id="1-0"), pytest.param(2, 1, 3, id="2-1"), pytest.param(2, 2, 3, id="2-2"),
        pytest.param(4, 2, 3, id="4-2"), pytest.param(1, 0, 1, id="1-0-k1"),
    ])
    def test_strides_vs_oracle(self, stride, padding, k):
        rng = np.random.default_rng(stride * 10 + padding)
        x = rng.standard_normal((1, 3, 9, 9))
        w = rng.standard_normal((4, 3, k, k))
        want = conv2d_oracle(x, w, None, stride, padding, 1)
        got = conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        assert got.data.shape == want.shape
        assert np.abs(got.data - want).max() < 1e-12

    @pytest.mark.parametrize("k,groups", [(1, 1), (3, 1), (3, 2)])
    def test_unpadded_input_is_read_in_place(self, monkeypatch, k, groups):
        # at padding 0 conv2d reads the input itself, not a copy of it, and
        # its output and gradients keep every bit of the copying path
        grid = np.ones((1, 2, 3, 3))
        assert tensor._pad(grid, 0) is grid
        rng = np.random.default_rng(k + groups)
        arrays = [rng.standard_normal(s) for s in ((2, 4, 7, 6), (6, 4 // groups, k, k), (6,))]
        probe = rng.standard_normal((2, 6, 8 - k, 7 - k))

        def run():
            ts = [Tensor(a, True) for a in arrays]
            grads = tape_grads(lambda ts: tsum(mul(conv2d(*ts, groups=groups), probe)), ts)
            return [conv2d(*ts, groups=groups).data] + grads

        in_place = run()
        copying = tensor._pad
        monkeypatch.setattr(tensor, "_pad", lambda a, padding: copying(a, padding).copy())
        for got, want in zip(in_place, run()):
            assert got.tobytes() == want.tobytes()

    def test_group_divisibility_error(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((4, 1, 3, 3)))
        with pytest.raises(ConfigError):
            conv2d(x, w, groups=2)

    def test_kernel_channel_mismatch(self):
        x = Tensor(np.zeros((1, 4, 4, 4)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        with pytest.raises(ShapeError):
            conv2d(x, w)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))

    def test_full_conv_reproduces_grouped_via_block_diagonal(self):
        rng = np.random.default_rng(7)
        c, k = 6, 3
        x = rng.standard_normal((2, c, 5, 5))
        wg = rng.standard_normal((c, 1, k, k))
        grouped = conv2d(Tensor(x), Tensor(wg), groups=c, padding=1)
        wf = np.zeros((c, c, k, k))
        for i in range(c):
            wf[i, i] = wg[i, 0]
        full = conv2d(Tensor(x), Tensor(wf), padding=1)
        assert np.abs(grouped.data - full.data).max() < 1e-12

    @pytest.mark.parametrize(
        "cin,cout,hw,k,stride,padding,groups",
        [(16, 24, 6, 3, 1, 1, 1), (16, 24, 12, 3, 2, 1, 1), (16, 16, 8, 3, 1, 1, 16), (24, 48, 8, 5, 2, 2, 4)],
    )
    def test_batch_invariant(self, cin, cout, hw, k, stride, padding, groups):
        rng = np.random.default_rng(cin * cout + k * stride + groups)
        w = Tensor(rng.standard_normal((cout, cin // groups, k, k)))
        b = Tensor(rng.standard_normal(cout))
        x = rng.standard_normal((16, cin, hw, hw))
        assert_rows_match_single_runs(lambda t: conv2d(t, w, b, stride=stride, padding=padding, groups=groups), x)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        xv = rng.standard_normal((2, 4, 5, 5))
        wv = rng.standard_normal((6, 2, 3, 3))
        bv = rng.standard_normal(6)
        probe = rng.standard_normal((2, 6, 5, 5))

        def run(arrs):
            return float((conv2d_oracle(arrs[0], arrs[1], arrs[2], 1, 1, 2) * probe).sum())

        want = fd_grad(run, [xv, wv, bv])
        x, w, b = Tensor(xv, True), Tensor(wv, True), Tensor(bv, True)
        got = tape_grads(
            lambda ts: tsum(mul(conv2d(ts[0], ts[1], ts[2], stride=1, padding=1, groups=2), probe)),
            [x, w, b],
        )
        for a, e in zip(got, want):
            assert rel_err(a, e) < 1e-6

    @pytest.mark.parametrize(
        "bsz,cin,cout,hw,k,stride,padding,groups",
        [
            (2, 8, 12, 11, 3, 1, 1, 1),
            (2, 8, 12, 11, 3, 2, 1, 4),
            (2, 8, 8, 13, 5, 1, 2, 8),
            (2, 6, 4, 17, 7, 4, 2, 1),
            (1, 3, 64, 224, 7, 4, 2, 1),  # S12 stem
            (1, 64, 64, 56, 3, 1, 1, 1),  # S12 stage convs
            (1, 128, 128, 28, 3, 1, 1, 1),
            (1, 320, 320, 14, 3, 1, 1, 1),
            (1, 512, 512, 7, 3, 1, 1, 1),
            (1, 64, 64, 56, 3, 1, 1, 64),  # S12 stage-0 depthwise conv
            (1, 64, 128, 56, 3, 2, 1, 1),  # S12 downsample
        ],
    )
    def test_matches_tap_loop(self, bsz, cin, cout, hw, k, stride, padding, groups):
        rng = np.random.default_rng(cin + cout + hw + k + stride + groups)
        xv, wv = rng.standard_normal((bsz, cin, hw, hw)), rng.standard_normal((cout, cin // groups, k, k))
        probe, y, (gx, gw) = run_with_grads(
            lambda x, w: conv2d(x, w, stride=stride, padding=padding, groups=groups), xv, wv)
        for got, want in zip((y, gx, gw), conv2d_tap_loop(xv, wv, stride, padding, groups, probe)):
            assert rel_err(got, want) < 1e-12

    def test_column_blocks_agree_with_one_block(self, monkeypatch):
        rng = np.random.default_rng(31)
        xv, wv, bv = (rng.standard_normal(s) for s in [(3, 4, 9, 7), (6, 2, 3, 3), (6,)])

        def op(x, w, b):
            return conv2d(x, w, b, stride=1, padding=1, groups=2)

        _, y_whole, grads_whole = run_with_grads(op, xv, wv, bv)
        row_bytes = 2 * 3 * 3 * 7 * 8  # Cin/G * K * K * Wo float64 columns per output row
        monkeypatch.setattr(tensor, "_COLUMN_BYTES", 2 * row_bytes)
        # blocks of two rows of one sample and one group
        assert len(tensor._column_blocks(3, 2, 9, row_bytes)) == 3 * 2 * 5
        _, y, grads = run_with_grads(op, xv, wv, bv)
        for got, want in zip([y] + grads, [y_whole] + grads_whole):
            assert rel_err(got, want) < 1e-12
        assert rel_err(y, conv2d_oracle(xv, wv, bv, 1, 1, 2)) < 1e-12
        assert_rows_match_single_runs(lambda t: op(t, Tensor(wv), Tensor(bv)), xv)


# ---------------------------------------------------------------------------
# avg_pool2d
# ---------------------------------------------------------------------------


class TestAvgPool2d:
    def test_constant_field(self):
        c = 3.7
        x = Tensor(np.full((1, 2, 5, 5), c))
        y = avg_pool2d(x, 3, stride=1, padding=1)
        np.testing.assert_allclose(y.data[:, :, 1:-1, 1:-1], c, atol=1e-12)

    def test_fixed_divisor_hand_case(self):
        # zero-fill K x K window with fixed divisor K^2 = 9: the single real
        # row contributes [0+3, 0+3+6, 3+6] and the padded rows nothing.
        x = Tensor(np.array([0.0, 3.0, 6.0]).reshape(1, 1, 1, 3))
        y = avg_pool2d(x, 3, stride=1, padding=1)
        np.testing.assert_allclose(y.data.reshape(-1), [1.0 / 3.0, 1.0, 1.0], atol=1e-12)

    def test_even_pool_rejected(self):
        with pytest.raises(ConfigError):
            avg_pool2d(Tensor(np.zeros((1, 1, 4, 4))), 2)

    def test_matches_uniform_grouped_conv(self):
        rng = np.random.default_rng(11)
        c, k = 3, 5
        x = rng.standard_normal((2, c, 7, 7))
        pooled = avg_pool2d(Tensor(x), k, stride=1, padding=(k - 1) // 2)
        w = np.full((c, 1, k, k), 1.0 / (k * k))
        conved = conv2d(Tensor(x), Tensor(w), groups=c, stride=1, padding=(k - 1) // 2)
        assert np.abs(pooled.data - conved.data).max() < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(12)
        xv = rng.standard_normal((1, 2, 5, 5))
        probe = rng.standard_normal((1, 2, 5, 5))

        def run(arrs):
            w = np.full((2, 1, 3, 3), 1.0 / 9.0)
            return float((conv2d_oracle(arrs[0], w, None, 1, 1, 2) * probe).sum())

        want = fd_grad(run, [xv])
        x = Tensor(xv, True)
        got = tape_grads(lambda ts: tsum(mul(avg_pool2d(ts[0], 3, 1, 1), probe)), [x])
        assert rel_err(got[0], want[0]) < 1e-6

    @pytest.mark.parametrize("k", [3, 7, 31])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("same", [False, True])
    @pytest.mark.parametrize("grid", ["square", "wide"])
    def test_matches_tap_loop_bit_for_bit(self, k, stride, same, grid):
        padding = (k - 1) // 2 if same else 0
        shape = (2, 3, k + 9, k + 9) if grid == "square" else (2, 3, k + 4, k + 11)
        xv = np.random.default_rng(k * stride).standard_normal(shape)
        probe, y, (gx,) = run_with_grads(lambda x: avg_pool2d(x, k, stride=stride, padding=padding), xv)
        want_y, want_gx = avg_pool2d_tap_loop(xv, k, stride, padding, probe)
        assert y.tobytes() == want_y.tobytes()
        assert gx.tobytes() == want_gx.tobytes()


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------


class TestWindows:
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("stride", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(2, 3, 9, 11), (2, 2, 3, 10, 7)])
    @pytest.mark.parametrize("writeable", [False, True])
    def test_one_strided_view_equals_the_three_call_oracle(self, k, stride, shape, writeable):
        grid = np.random.default_rng(19).standard_normal(shape)
        for padded in (grid, grid[..., 1:, ::-1]):  # a contiguous and a strided, offset grid
            got, want = tensor._windows(padded, k, stride, writeable), windows_oracle(padded, k, stride, writeable)
            assert (got.shape, got.strides) == (want.shape, want.strides)
            assert got.flags.writeable == want.flags.writeable == writeable
            np.testing.assert_array_equal(got, want)
            assert np.shares_memory(got, padded)


    def test_add_windows_factor_equals_the_materialized_product(self):
        rng = np.random.default_rng(20)
        wgrad, factor = rng.standard_normal((2, 1, 3, 3, 4, 5)), rng.standard_normal((2, 3, 4, 5))
        got, want = np.zeros((2, 3, 6, 7)), np.zeros((2, 3, 6, 7))
        tensor._add_windows(got, wgrad, 1, factor)
        tensor._add_windows(want, wgrad * factor[:, :, None, None], 1)
        assert got.tobytes() == want.tobytes()


class TestNeighborhoodAttention:
    def test_gradients_match_finite_differences(self):
        # two heads of two channels on a 3x4 grid, so windows are cut at every edge
        rng = np.random.default_rng(22)
        arrays = [rng.standard_normal((2, 3, 4, 4)) for _ in range(3)]
        probe = rng.standard_normal((2, 3, 4, 4))
        run = lambda arrs: float((neighborhood_attention(*map(Tensor, arrs), 3, 2).data * probe).sum())
        want = fd_grad(run, arrays)
        got = tape_grads(lambda ts: tsum(mul(neighborhood_attention(*ts, 3, 2), probe)),
                         [Tensor(a, requires_grad=True) for a in arrays])
        for name, g, e in zip("qkv", got, want):
            assert rel_err(g, e) < 1e-6, name

    def test_inputs_of_another_shape_raise_shape_error(self):
        # a k of q's size but another grid would otherwise be read as q's grid
        q, k = Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 4, 3, 4)))
        for args in ((q, k, q, 3, 2), (q, q, k, 3, 2), (q, q, q, 3, 3), (Tensor(np.zeros((3, 4, 4))),) * 3 + (3, 2)):
            with pytest.raises(ShapeError, match="neighborhood_attention"):
                neighborhood_attention(*args)

    def test_single_tap_returns_the_values(self):
        # K = 1: each query's only key is itself, so its softmax weight is 1
        v = np.random.default_rng(23).standard_normal((2, 3, 5, 4))
        q, k = (Tensor(np.random.default_rng(s).standard_normal(v.shape)) for s in (24, 25))
        np.testing.assert_array_equal(neighborhood_attention(q, k, Tensor(v), 1, 2).data, v)

    @pytest.mark.parametrize("shape", [(4, 6, 5, 8), (4, 1, 1, 8), (4, 1, 9, 2)])
    def test_rows_match_single_runs(self, shape):
        x = np.random.default_rng(26).standard_normal(shape)
        assert_rows_match_single_runs(lambda t: neighborhood_attention(t, t, t, 3, 2), x)


class TestLinear:
    def test_identity_weight(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        y = linear(x, Tensor(np.eye(3)))
        np.testing.assert_array_equal(y.data, x.data)

    def test_hand_case(self):
        y = linear(Tensor([1.0, 2.0]), Tensor([[1.0, 1.0], [1.0, -1.0]]), Tensor([0.0, 0.0]))
        np.testing.assert_allclose(y.data, [3.0, -1.0], atol=1e-12)

    def test_random_vs_direct_summation(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 5))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(4)
        want = linear_oracle(x, w, b)
        got = linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.abs(got.data - want).max() < 1e-12

    @pytest.mark.parametrize("shape", [(16, 32), (16, 5, 6, 32)])
    def test_batch_invariant(self, shape):
        rng = np.random.default_rng(len(shape))
        w, b = Tensor(rng.standard_normal((48, 32))), Tensor(rng.standard_normal(48))
        assert_rows_match_single_runs(lambda t: linear(t, w, b), rng.standard_normal(shape))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        xv, wv, bv = rng.standard_normal((3, 4)), rng.standard_normal((2, 4)), rng.standard_normal(2)
        probe = rng.standard_normal((3, 2))

        def run(arrs):
            return float((linear_oracle(arrs[0], arrs[1], arrs[2]) * probe).sum())

        want = fd_grad(run, [xv, wv, bv])
        ts = [Tensor(xv, True), Tensor(wv, True), Tensor(bv, True)]
        got = tape_grads(lambda ts: tsum(mul(linear(ts[0], ts[1], ts[2]), probe)), ts)
        for a, e in zip(got, want):
            assert rel_err(a, e) < 1e-6


class TestGeluLinear:
    """``gelu_linear`` against its definition, ``linear(gelu(x), w, b)``, bit for bit."""

    @staticmethod
    def run(op, xv, wv, bv, probe):
        ts = [Tensor(v, requires_grad=True) if v is not None else None for v in (xv, wv, bv)]
        with Tape() as tape:
            y = op(*ts)
            loss = tsum(mul(y, probe))
        tape.backward(loss)
        return [y.data.tobytes()] + [t.grad.tobytes() for t in ts if t is not None]

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("shape", [(1, 24), (3, 24), (1, 5, 6, 24), (3, 5, 6, 24)])
    def test_equals_gelu_then_linear(self, shape, bias):
        rng = np.random.default_rng(len(shape) + shape[0])
        xv, wv = rng.standard_normal(shape) * 2.0, rng.standard_normal((7, 24))
        bv = rng.standard_normal(7) if bias else None
        probe = rng.standard_normal(shape[:-1] + (7,))
        want = self.run(lambda x, w, b: linear(gelu(x), w, b), xv, wv, bv, probe)
        assert self.run(gelu_linear, xv, wv, bv, probe) == want

    @pytest.mark.parametrize("shape", [(16, 32), (16, 5, 6, 32)])
    def test_batch_invariant(self, shape):
        rng = np.random.default_rng(len(shape) + 10)
        w, b = Tensor(rng.standard_normal((48, 32))), Tensor(rng.standard_normal(48))
        assert_rows_match_single_runs(lambda t: gelu_linear(t, w, b), rng.standard_normal(shape))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError, match="gelu_linear"):
            gelu_linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


# ---------------------------------------------------------------------------
# softmax / log_softmax
# ---------------------------------------------------------------------------


class TestSoftmax:
    def test_uniform_rows(self):
        y = softmax(Tensor(np.zeros((3, 5))), axis=1)
        np.testing.assert_allclose(y.data, 0.2, atol=1e-12)

    def test_closed_form(self):
        y = softmax(Tensor([0.0, np.log(3.0)]), axis=0)
        np.testing.assert_allclose(y.data, [0.25, 0.75], atol=1e-12)

    def test_masked_hand_case(self):
        y = softmax(Tensor([5.0, 1.0, 2.0]), axis=0, additive_mask=np.array([0.0, -np.inf, 0.0]))
        want = np.array([0.9525741268224334, 0.0, 0.04742587317756678])
        np.testing.assert_allclose(y.data, want, atol=1e-12)

    def test_rows_sum_to_one_and_bounded(self):
        rng = np.random.default_rng(6)
        y = softmax(Tensor(rng.standard_normal((4, 9)) * 30), axis=1)
        np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-9)
        assert (y.data >= 0).all() and (y.data <= 1).all()

    def test_all_masked_slice_rejected(self):
        with pytest.raises(ConfigError):
            softmax(Tensor([1.0, 2.0]), axis=0, additive_mask=np.array([-np.inf, -np.inf]))

    def test_gradient(self):
        rng = np.random.default_rng(8)
        xv = rng.standard_normal((2, 5))
        probe = rng.standard_normal((2, 5))
        mask = np.array([0.0, 0.0, -np.inf, 0.0, 0.0])

        def run(arrs):
            s = arrs[0] + mask
            e = np.exp(s - s.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            return float((p * probe).sum())

        want = fd_grad(run, [xv])
        x = Tensor(xv, True)
        got = tape_grads(lambda ts: tsum(mul(softmax(ts[0], 1, mask), probe)), [x])
        assert rel_err(got[0], want[0]) < 1e-6

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(9)
        xv = rng.standard_normal((3, 4))
        probe = rng.standard_normal((3, 4))

        def run(arrs):
            s = arrs[0]
            lse = np.log(np.exp(s - s.max(1, keepdims=True)).sum(1, keepdims=True)) + s.max(1, keepdims=True)
            return float(((s - lse) * probe).sum())

        want = fd_grad(run, [xv])
        x = Tensor(xv, True)
        got = tape_grads(lambda ts: tsum(mul(log_softmax(ts[0], 1), probe)), [x])
        assert rel_err(got[0], want[0]) < 1e-6


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------


class TestLayerNorm:
    def test_constant_channels_give_zero(self):
        x = Tensor(np.full((2, 4, 3, 3), 1.23))
        y = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(y.data, 0.0, atol=1e-12)

    def test_two_channel_closed_form(self):
        x = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1, 1))
        y = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(y.data.reshape(-1), [-1.0, 1.0], atol=1e-5)

    def test_statistics_after_norm(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 16, 4, 4)) * 3 + 1)
        y = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert np.abs(y.mean(axis=1)).max() < 1e-9
        assert np.abs(y.var(axis=1) - 1.0).max() < 1e-6

    def test_gradients(self):
        rng = np.random.default_rng(13)
        xv = rng.standard_normal((2, 5, 2, 2))
        gv = rng.standard_normal(5)
        bv = rng.standard_normal(5)
        probe = rng.standard_normal((2, 5, 2, 2))
        eps = 1e-6

        def run(arrs):
            x, g, b = arrs
            mu = x.mean(axis=1, keepdims=True)
            var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
            xh = (x - mu) / np.sqrt(var + eps)
            y = xh * g.reshape(1, -1, 1, 1) + b.reshape(1, -1, 1, 1)
            return float((y * probe).sum())

        want = fd_grad(run, [xv, gv, bv])
        ts = [Tensor(xv, True), Tensor(gv, True), Tensor(bv, True)]
        got = tape_grads(lambda ts: tsum(mul(layer_norm(ts[0], ts[1], ts[2]), probe)), ts)
        for a, e in zip(got, want):
            assert rel_err(a, e) < 1e-5


# ---------------------------------------------------------------------------
# bilinear_resize / global_avg_pool
# ---------------------------------------------------------------------------


class TestBilinearResize:
    def test_identity_size(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((1, 2, 5, 7)))
        y = bilinear_resize(x, 5, 7)
        np.testing.assert_array_equal(y.data, x.data)

    def test_constant_stays_constant(self):
        x = Tensor(np.full((1, 1, 3, 3), 2.5))
        for oh, ow in [(1, 1), (2, 5), (9, 4)]:
            y = bilinear_resize(x, oh, ow)
            np.testing.assert_allclose(y.data, 2.5, atol=1e-12)

    def test_hand_weight_oracle_2x2_to_4x4(self):
        x = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2))
        y = bilinear_resize(x, 4, 4)
        assert np.abs(y.data[0, 0] - BILINEAR_2X2_TO_4X4).max() < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(15)
        xv = rng.standard_normal((1, 2, 3, 3))
        probe = rng.standard_normal((1, 2, 5, 4))

        def run(arrs):
            out = np.zeros((1, 2, 5, 4))
            for ch in range(2):
                x2 = arrs[0][0, ch]
                h, w = x2.shape
                for i in range(5):
                    for j in range(4):
                        sy = (i + 0.5) * h / 5 - 0.5
                        sx = (j + 0.5) * w / 4 - 0.5
                        y0, x0 = int(np.floor(sy)), int(np.floor(sx))
                        fy, fx = sy - y0, sx - x0
                        y0c, y1c = max(0, min(h - 1, y0)), max(0, min(h - 1, y0 + 1))
                        x0c, x1c = max(0, min(w - 1, x0)), max(0, min(w - 1, x0 + 1))
                        out[0, ch, i, j] = (
                            (1 - fy) * (1 - fx) * x2[y0c, x0c]
                            + (1 - fy) * fx * x2[y0c, x1c]
                            + fy * (1 - fx) * x2[y1c, x0c]
                            + fy * fx * x2[y1c, x1c]
                        )
            return float((out * probe).sum())

        want = fd_grad(run, [xv])
        x = Tensor(xv, True)
        got = tape_grads(lambda ts: tsum(mul(bilinear_resize(ts[0], 5, 4), probe)), [x])
        assert rel_err(got[0], want[0]) < 1e-6

    @pytest.mark.parametrize(
        "shape,out_hw",
        [
            ((2, 3, 7, 7), (28, 28)),  # upsample
            ((1, 2, 28, 14), (7, 7)),  # downsample, non-square input
            ((2, 3, 5, 9), (11, 4)),  # up one axis, down the other
            ((1, 2, 6, 4), (6, 13)),  # one axis kept
            ((1, 3, 1, 1), (6, 5)),  # 1 -> n
            ((1, 3, 6, 9), (1, 1)),  # n -> 1
            ((2, 1, 1, 8), (5, 1)),  # 1 -> n on one axis, n -> 1 on the other
            ((1, 256, 7, 7), (56, 56)),  # a decoder resize
        ],
    )
    def test_matches_gather_oracle(self, shape, out_hw):
        xv = np.random.default_rng(sum(shape)).standard_normal(shape)
        probe, y, (gx,) = run_with_grads(lambda t: bilinear_resize(t, *out_hw), xv)
        want_y, want_gx = bilinear_gather_oracle(xv, *out_hw, probe)
        assert rel_err(y, want_y, floor=1.0) < 1e-12
        assert rel_err(gx, want_gx, floor=1.0) < 1e-12

    # on (7, 33) -> (12, 70), folding the batch into the GEMM's rows changes
    # bits on OpenBLAS's SkylakeX dgemm
    @pytest.mark.parametrize(
        "shape,out_hw", [((3, 4, 7, 5), (28, 20)), ((3, 2, 12, 16), (5, 6)), ((3, 2, 7, 33), (12, 70))])
    def test_batch_invariant(self, shape, out_hw):
        x = np.random.default_rng(len(shape)).standard_normal(shape)
        assert_rows_match_single_runs(lambda t: bilinear_resize(t, *out_hw), x)

    def test_interpolation_matrices_are_cached_and_read_only(self):
        r = tensor._interp(7, 28)
        assert tensor._interp(7, 28) is r
        assert not r.flags.writeable
        with pytest.raises(ValueError):
            r[0, 0] = 1.0
        np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-15)

    def test_infinite_input_raises(self):
        x = Tensor(np.ones((1, 2, 4, 4)))
        x.data[0, 1, 2, 3] = np.inf
        with pytest.raises(NumericsError, match="produced by bilinear_resize$"):
            bilinear_resize(x, 8, 8)


class TestGlobalAvgPool:
    def test_constant(self):
        y = global_avg_pool(Tensor(np.full((2, 3, 4, 4), 1.5)))
        np.testing.assert_allclose(y.data, 1.5, atol=1e-12)

    def test_hand_case(self):
        y = global_avg_pool(Tensor(np.array([0.0, 1.0, 2.0, 3.0]).reshape(1, 1, 2, 2)))
        assert y.data[0, 0] == pytest.approx(1.5)

    def test_gradient_is_uniform(self):
        rng = np.random.default_rng(16)
        xv = rng.standard_normal((2, 3, 4, 5))

        def run(arrs):
            return float(arrs[0].mean(axis=(2, 3)).sum())

        want = fd_grad(run, [xv])
        x = Tensor(xv, True)
        got = tape_grads(lambda ts: tsum(global_avg_pool(ts[0])), [x])
        np.testing.assert_allclose(got[0], 1.0 / 20.0, atol=1e-12)
        assert rel_err(got[0], want[0]) < 1e-6


# every public op: (op name a NumericsError carries, op over input tensors, input shapes)
OP_CASES = {
    "add": ("add", add, [(2, 3), (3,)]),
    "sub": ("sub", sub, [(2, 3), (2, 3)]),
    "mul": ("mul", mul, [(2, 3), (2, 1)]),
    "div": ("div", div, [(2, 3), (2, 3)]),
    "neg": ("neg", neg, [(2, 3)]),
    "power": ("power", lambda a: power(a, 2.0), [(2, 3)]),
    "exp": ("exp", exp, [(2, 3)]),
    "log": ("log", log, [(2, 3)]),
    "sqrt": ("sqrt", sqrt, [(2, 3)]),
    "gelu": ("gelu", gelu, [(2, 3)]),
    "reshape": ("reshape", lambda a: reshape(a, (3, 2)), [(2, 3)]),
    "transpose": ("transpose", lambda a: transpose(a, (1, 0)), [(2, 3)]),
    "concat": ("concat", lambda a, b: concat([a, b], axis=1), [(2, 3), (2, 2)]),
    # piece 0: the contract plants its NaN in the input's first entry
    "split": ("split", lambda a: split(a, 3, axis=1)[0], [(2, 3)]),
    "tsum": ("sum", lambda a: tsum(a, axis=1), [(2, 3)]),
    "tmean": ("sum", tmean, [(2, 3)]),
    "matmul": ("matmul", matmul, [(2, 3, 4), (2, 4, 2)]),
    "linear": ("linear", linear, [(2, 5, 3), (4, 3), (4,)]),
    "gelu_linear": ("gelu_linear", gelu_linear, [(2, 5, 3), (4, 3), (4,)]),
    "softmax": ("softmax", softmax, [(2, 3)]),
    "neighborhood_attention": (
        "neighborhood_attention",
        lambda q, k, v: neighborhood_attention(q, k, v, 3, 2),
        [(2, 4, 5, 4), (2, 4, 5, 4), (2, 4, 5, 4)],
    ),
    "log_softmax": ("log_softmax", log_softmax, [(2, 3)]),
    "layer_norm": ("layer_norm", layer_norm, [(2, 3, 4, 4), (3,), (3,)]),
    "conv2d": (
        "conv2d",
        lambda x, w, b: conv2d(x, w, b, stride=2, padding=1, groups=2),
        [(2, 4, 5, 5), (6, 2, 3, 3), (6,)],
    ),
    "avg_pool2d": ("avg_pool2d", lambda x: avg_pool2d(x, 3, stride=2, padding=1), [(2, 2, 5, 5)]),
    "global_avg_pool": ("global_avg_pool", global_avg_pool, [(2, 2, 5, 5)]),
    "bilinear_resize": ("bilinear_resize", lambda x: bilinear_resize(x, 7, 3), [(2, 2, 5, 5)]),
    "bilinear_resize:same_size": ("bilinear_resize", lambda x: bilinear_resize(x, 5, 5), [(2, 2, 5, 5)]),
}


def op_inputs(shapes, grad_at=None):
    rng = np.random.default_rng(21)
    return [Tensor(rng.uniform(0.5, 1.5, s), requires_grad=i == grad_at) for i, s in enumerate(shapes)]


# ---------------------------------------------------------------------------
# tape and backward contract
# ---------------------------------------------------------------------------


class TestBackward:
    def test_sum_gradient_all_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = tsum(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = tsum(mul(x, x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)

    def test_double_backward_is_error(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            loss = tsum(x)
        tape.backward(loss)
        with pytest.raises(ConfigError):
            tape.backward(loss)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_free_function_backward(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape():
            loss = tsum(mul(x, x))
        backward(loss)
        np.testing.assert_allclose(x.grad, [6.0], atol=1e-12)

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(ConfigError):
                with Tape():
                    pass

    def test_unrecorded_loss_rejected(self):
        x = Tensor([3.0], requires_grad=True)
        y = tsum(x)  # no active tape
        with pytest.raises(ConfigError):
            backward(y)

    def test_reused_tensor_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = tsum(add(mul(x, x), mul(x, x)))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [8.0], atol=1e-12)

    def test_leaf_accumulates_across_tapes(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = tsum(mul(x, 3.0))
        tape.backward(loss)
        with Tape() as tape:
            loss = tsum(mul(x, x))
        tape.backward(loss)  # no zero_grad in between
        np.testing.assert_array_equal(x.grad, [3.0 + 2.0, 3.0 + 4.0])

    def test_output_of_consumed_tape_is_a_leaf(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as first:
            y = mul(x, 3.0)
            loss = tsum(y)
        first.backward(loss)
        with Tape() as second:
            loss = tsum(mul(y, y))
        second.backward(loss)
        np.testing.assert_array_equal(y.grad, [6.0, 12.0])
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])  # the second tape stops at y

    def test_shared_subexpression(self):
        rng = np.random.default_rng(17)
        xv = rng.standard_normal(4)

        def run(arrs):
            y = arrs[0] * 2.0
            return float((y * y).sum())

        want = fd_grad(run, [xv])
        x = Tensor(xv, True)
        got = tape_grads(lambda ts: tsum(mul(mul(ts[0], 2.0), mul(ts[0], 2.0))), [x])
        assert rel_err(got[0], want[0]) < 1e-6


class TestOnlyNeededGradients:
    def test_constant_input_gradient_never_runs(self):
        def bwd(g, needs):
            if needs != [False, True]:
                raise AssertionError(f"backward asked for the gradients {needs}, not only x's")
            return [None, g * c.data]

        x, c = Tensor([1.0, 2.0], requires_grad=True), Tensor([3.0, 4.0])
        with Tape() as tape:
            loss = tsum(tensor._op("probe", x.data * c.data, [c, x], bwd))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])
        assert c.grad is None

    def test_conv2d_constant_image_makes_no_input_gradient_product(self, monkeypatch):
        rng = np.random.default_rng(23)
        xv, wv, probe = (rng.standard_normal(s) for s in [(2, 4, 6, 6), (6, 2, 3, 3), (2, 6, 6, 6)])
        real = tensor._add_windows

        def run(image_grad):
            x, w = Tensor(xv, requires_grad=image_grad), Tensor(wv, requires_grad=True)
            with Tape() as tape:
                loss = tsum(mul(conv2d(x, w, padding=1, groups=2), probe))
            calls = []
            monkeypatch.setattr(tensor, "_add_windows", lambda *a: calls.append(1) or real(*a))
            tape.backward(loss)
            monkeypatch.setattr(tensor, "_add_windows", real)
            return len(calls), w.grad.tobytes()

        # with the image on the tape, one scatter of the input-gradient columns
        assert run(False) == (0, run(True)[1])
        assert run(True)[0] == 1

    @pytest.mark.parametrize("needed,windows", [("qkv", 4), ("v", 1), ("q", 2)])
    def test_neighborhood_attention_makes_the_scores_gradient_once(self, monkeypatch, needed, windows):
        # the scores' gradient reads the value windows once (for q and k alike); q's gradient then
        # reads the key windows, and k's and v's each scatter through one window view
        rng = np.random.default_rng(29)
        q, k, v = (Tensor(rng.standard_normal((2, 5, 6, 8)), requires_grad=n in needed) for n in "qkv")
        with Tape() as tape:
            loss = tsum(mul(neighborhood_attention(q, k, v, 3, 2), rng.standard_normal((2, 5, 6, 8))))
        real, calls = tensor._windows, []
        monkeypatch.setattr(tensor, "_windows", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        tape.backward(loss)
        assert len(calls) == windows
        assert [t.grad is not None for t in (q, k, v)] == [n in needed for n in "qkv"]


# two four-stage signatures that between them place all six mixer kinds
RELEASE_SIGNATURES = ("identity,pooling:3,grouped_conv:3,conv:3", "pooling:3,local_attn:3,global_attn,conv:3")


class WatchedTape(Tape):
    """A tape that keeps a weak reference to every output and backward
    closure it records."""

    def __init__(self):
        super().__init__()
        self.refs = []

    def record(self, out, backward_fn):
        super().record(out, backward_fn)
        self.refs += [weakref.ref(out), weakref.ref(backward_fn)]


def tiny_multi_mixer(signature):
    config = ModelConfig(signature=parse_signature(signature), stage_channels=(16, 16, 32, 32),
                         stage_depths=(1, 1, 1, 1), input_hw=(32, 32), num_classes=3)
    return MetaFormer(config, seed=3)


def tiny_logits(model):
    """A training-mode forward (drop path on) of two fixed images."""
    images = Tensor(np.random.default_rng(5).uniform(0.0, 1.0, (2, 3, 32, 32)))
    return model.forward_classify(images, training=True, rng=np.random.default_rng(6))


@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees memory while the test runs."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


class TestTapeRelease:
    @pytest.mark.parametrize("signature", RELEASE_SIGNATURES)
    def test_consumed_tape_frees_every_record(self, signature, no_cyclic_gc):
        model = tiny_multi_mixer(signature)
        with WatchedTape() as tape:
            loss = ce_loss(tiny_logits(model), np.array([0, 2]), None, smoothing=0.1)
        tape.backward(loss)
        assert loss._tape is None
        del loss
        assert tape._records == []
        assert len(tape.refs) > 100
        assert all(ref() is None for ref in tape.refs)

    @pytest.mark.parametrize("signature", RELEASE_SIGNATURES)
    def test_aborted_forward_frees_every_record(self, signature, no_cyclic_gc):
        model = tiny_multi_mixer(signature)
        try:
            with WatchedTape() as tape:
                log(neg(exp(tiny_logits(model))))  # log of negative values: NumericsError
        except NumericsError:
            pass
        else:
            pytest.fail("the forward did not raise")
        assert tape._records == []
        assert len(tape.refs) > 100
        assert all(ref() is None for ref in tape.refs)

    @pytest.mark.parametrize("signature", RELEASE_SIGNATURES)
    def test_backward_equals_oracle_bit_for_bit(self, signature):
        model = tiny_multi_mixer(signature)

        def gradients(walk):
            model.zero_grad()
            with Tape() as tape:
                loss = ce_loss(tiny_logits(model), np.array([0, 2]), None, smoothing=0.1)
            walk(tape, loss)
            return {name: None if p.grad is None else p.grad.tobytes()
                    for name, p in model.named_parameters().items()}

        want = gradients(backward_oracle)
        assert sum(g is not None for g in want.values()) > 20
        assert gradients(Tape.backward) == want

    @pytest.mark.parametrize("op", [add, sub, mul, div])
    @pytest.mark.parametrize("constant_first", [False, True])
    def test_constant_operand_freed_during_the_forward(self, op, constant_first, no_cyclic_gc):
        x = Tensor(np.full((2, 3), 1.5), requires_grad=True)
        with Tape() as tape:
            c = Tensor(np.full((2, 1), 2.0))
            ref = weakref.ref(c)
            loss = tsum(op(c, x) if constant_first else op(x, c))
            del c
            assert ref() is None
        tape.backward(loss)
        assert x.grad.shape == (2, 3)

    def test_drop_path_mask_freed_during_the_forward(self, monkeypatch, no_cyclic_gc):
        masks = []

        def watched(data, requires_grad=False):  # metaformer builds only the drop-path masks
            t = Tensor(data, requires_grad)
            masks.append(weakref.ref(t))
            return t

        model = tiny_multi_mixer(RELEASE_SIGNATURES[0])
        monkeypatch.setattr(metaformer, "Tensor", watched)
        with Tape() as tape:
            loss = ce_loss(tiny_logits(model), np.array([0, 2]), None, smoothing=0.1)
            assert len(masks) >= 4
            assert all(ref() is None for ref in masks)
        tape.backward(loss)

    @pytest.mark.parametrize("case", sorted(OP_CASES))
    def test_gradient_closures_hold_arrays_not_tensors(self, case):
        def held(fn):  # what a function's closure and defaults hold, a tuple of functions unpacked
            values = [cell.cell_contents for cell in fn.__closure__ or ()] + list(fn.__defaults__ or ())
            return values + [v for t in values if isinstance(t, tuple) for v in t]

        _, op, shapes = OP_CASES[case]
        with Tape() as tape:
            op(*[Tensor(t.data, requires_grad=True) for t in op_inputs(shapes)])
        assert tape._records
        for _, backward_fn in tape._records:
            # the record's one backward function, and each per-input function it wraps
            (bwd,) = [v for v in held(backward_fn) if inspect.isfunction(v)]
            fns = [bwd] + [v for v in held(bwd) if inspect.isfunction(v)]
            assert not [v for fn in fns for v in held(fn) if isinstance(v, Tensor)]

    def test_constant_factor_keeps_no_array_of_its_partner(self, no_cyclic_gc):
        # the constant's gradient is never taken, so nothing holds the other operand's array
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = add(x, 1.0)
            ref = weakref.ref(y.data)
            loss = tsum(mul(y, Tensor([3.0, 4.0])))
            del y
            assert ref() is None
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])

    def test_score_matrix_freed_during_the_forward(self, no_cyclic_gc):
        rng = np.random.default_rng(31)
        qv, kv, probe = rng.standard_normal((2, 5, 3)), rng.standard_normal((2, 3, 5)), rng.standard_normal((2, 5, 5))

        def gradients(walk):
            q, k = Tensor(qv, requires_grad=True), Tensor(kv, requires_grad=True)
            with Tape() as tape:
                scores = matmul(q, k)
                refs = [weakref.ref(scores), weakref.ref(scores.data)]
                attn = softmax(scores)
                del scores
                assert [ref() for ref in refs] == [None, None]
                loss = tsum(mul(attn, probe))
            walk(tape, loss)
            return q.grad.tobytes(), k.grad.tobytes()

        assert gradients(Tape.backward) == gradients(backward_oracle)

    def test_leaf_nobody_holds_gets_no_grad(self, no_cyclic_gc):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            leaf = Tensor([3.0, 4.0], requires_grad=True)
            ref = weakref.ref(leaf)
            loss = tsum(mul(x, leaf))
            del leaf
        assert ref() is None
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])

    def test_aborted_forward_detaches_every_surviving_output(self, no_cyclic_gc):
        x = Tensor([1.0, 2.0], requires_grad=True)
        kept = []
        with pytest.raises(NumericsError):
            with Tape():
                kept.append(mul(x, 2.0))
                kept.append(neg(exp(kept[0])))  # the exp output dies here
                log(kept[1])
        assert len(kept) == 2 and all(t.requires_grad and t._tape is None for t in kept)

    @pytest.mark.parametrize("kind", ["global_attn", "local_attn:3"])
    def test_attention_forward_holds_under_two_score_matrices(self, kind, no_cyclic_gc):
        name, _, k = kind.partition(":")
        spec = MixerSpec(name, int(k or 3))
        params = init_mixer_params(spec, 16, Registry(np.random.default_rng(0)))
        x = Tensor(np.random.default_rng(1).standard_normal((1, 16, 16, 16)), requires_grad=True)
        score_bytes = 1 * head_count(16) * (16 * 16) ** 2 * 8  # B * M * N^2 float64
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                out = apply_mixer(spec, params, x)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2 * score_bytes, f"{held / score_bytes:.2f} score matrices held by {out}"

    def test_channel_mlp_forward_holds_two_hidden_arrays(self, no_cyclic_gc):
        c, ratio, hw = 16, 4, 16
        mlp = ChannelMlp(Registry(np.random.default_rng(0)), "mlp", c, ratio)
        x = Tensor(np.random.default_rng(1).standard_normal((1, c, hw, hw)), requires_grad=True)
        token_bytes = hw * hw * c * 8  # one C-wide array; a hidden array is ratio times that
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                out = mlp(x)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # fc1's input and the output are C wide; the rest is fc1's output and
        # GELU's cdf, not also their product
        hidden = (held - 2 * token_bytes) / (ratio * token_bytes)
        assert hidden < 2.25, f"{hidden:.2f} hidden-width arrays held by {out}"


class TestNumericsPolicy:
    def test_forward_nan_raises(self):
        x = Tensor([1.0, -1.0])
        with pytest.raises(NumericsError):
            from mixerlab.tensor import log

            log(x)

    def test_overflow_raises(self):
        from mixerlab.tensor import exp

        with pytest.raises(NumericsError):
            exp(Tensor([1000.0]))

    def test_op_outputs_are_frozen(self):
        y = add(Tensor([1.0]), Tensor([2.0]))
        with pytest.raises(ValueError):
            y.data[0] = 5.0


class TestOpContract:
    def test_cases_cover_every_public_op(self):
        public = {
            name
            for name, fn in vars(tensor).items()
            if inspect.isfunction(fn) and fn.__module__ == tensor.__name__ and not name.startswith("_")
        }
        assert public - {"backward"} == {case.split(":")[0] for case in OP_CASES}

    @pytest.mark.parametrize("case", sorted(OP_CASES))
    def test_contract(self, case):
        name, op, shapes = OP_CASES[case]
        # the output is frozen, C-contiguous and owns an array no input shares
        inputs = op_inputs(shapes)
        out = op(*inputs)
        assert not out.data.flags.writeable
        assert out.data.flags.c_contiguous and out.data.flags.owndata
        assert not any(np.shares_memory(out.data, t.data) for t in inputs)
        # recorded iff some input requires grad
        for grad_at in [None] + list(range(len(shapes))):
            with Tape() as tape:
                out = op(*op_inputs(shapes, grad_at))
            assert (out._tape is tape) == out.requires_grad == (grad_at is not None)
        # a non-finite result raises NumericsError naming the op
        inputs = op_inputs(shapes)
        inputs[0].data.flat[0] = np.nan
        with pytest.raises(NumericsError, match=f"produced by {name}$"):
            op(*inputs)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        rng1 = np.random.default_rng(123)
        rng2 = np.random.default_rng(123)

        def pipeline(rng):
            x = Tensor(rng.standard_normal((2, 4, 6, 6)))
            w = Tensor(rng.standard_normal((4, 2, 3, 3)))
            y = conv2d(x, w, stride=1, padding=1, groups=2)
            y = gelu(y)
            y = layer_norm(y, Tensor(np.ones(4)), Tensor(np.zeros(4)))
            return global_avg_pool(y).data

        a, b = pipeline(rng1), pipeline(rng2)
        assert a.tobytes() == b.tobytes()


class TestShapeOps:
    @pytest.mark.parametrize("axes", [(2, 0, 1), (-1, 0, 1)])
    def test_reshape_transpose_concat_roundtrip(self, axes):
        rng = np.random.default_rng(18)
        xv = rng.standard_normal((2, 3, 4))
        probe = rng.standard_normal((4, 2, 6))

        def run(arrs):
            y = np.transpose(arrs[0], axes).reshape(4, 2, 3)
            y = np.concatenate([y, y], axis=2)
            return float((y * probe).sum())

        want = fd_grad(run, [xv])
        x = Tensor(xv, True)

        def build(ts):
            y = reshape(transpose(ts[0], axes), (4, 2, 3))
            return tsum(mul(concat([y, y], axis=2), probe))

        got = tape_grads(build, [x])
        assert rel_err(got[0], want[0]) < 1e-6

    @pytest.mark.parametrize("shape,sections,axis", [((2, 6), 3, 1), ((4, 3, 2), 2, 0), ((2, 3, 4), 4, -1)])
    def test_split_is_the_adjoint_of_concat(self, shape, sections, axis):
        rng = np.random.default_rng(sum(shape))
        x = Tensor(rng.standard_normal(shape), True)
        pieces = split(x, sections, axis)
        assert len(pieces) == sections
        assert concat(pieces, axis).data.tobytes() == x.data.tobytes()
        # each piece's gradient lands in its own slice of x's gradient
        probes = [rng.standard_normal(p.shape) for p in pieces]

        def loss(ts):
            return tsum(concat([mul(p, q) for p, q in zip(split(ts[0], sections, axis), probes)], axis))

        got = tape_grads(loss, [x])[0]
        assert got.tobytes() == np.concatenate(probes, axis).tobytes()

    def test_split_needs_equal_sections(self):
        with pytest.raises(ShapeError, match=r"^split: 4 sections do not divide axis 1 of shape \(2, 6\)$"):
            split(Tensor(np.zeros((2, 6))), 4, axis=1)
        with pytest.raises(ShapeError, match="^split: 0 sections"):
            split(Tensor(np.zeros((2, 6))), 0, axis=1)

    def test_matmul_gradient(self):
        rng = np.random.default_rng(19)
        av = rng.standard_normal((2, 3, 4))
        bv = rng.standard_normal((2, 4, 5))
        probe = rng.standard_normal((2, 3, 5))

        def run(arrs):
            return float(((arrs[0] @ arrs[1]) * probe).sum())

        want = fd_grad(run, [av, bv])
        ta, tb = Tensor(av, True), Tensor(bv, True)
        got = tape_grads(lambda ts: tsum(mul(matmul(ts[0], ts[1]), probe)), [ta, tb])
        for a, e in zip(got, want):
            assert rel_err(a, e) < 1e-6

    def test_gelu_gradient(self):
        xv = np.linspace(-3, 3, 13)

        def run(arrs):
            from scipy.special import erf

            x = arrs[0]
            return float((0.5 * x * (1 + erf(x / np.sqrt(2)))).sum())

        want = fd_grad(run, [xv.copy()])
        x = Tensor(xv, True)
        got = tape_grads(lambda ts: tsum(gelu(ts[0])), [x])
        assert rel_err(got[0], want[0]) < 1e-7


class TestErf:
    """``tensor._erf`` against scipy.special.erf, which evaluates the same Cephes forms."""

    @staticmethod
    def ulps(a, b):
        return np.abs(a.view(np.int64) - b.view(np.int64))

    @staticmethod
    def erf(x):
        """``tensor._erf`` of a copy of ``x``, with every warning an error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return tensor._erf(x.copy())

    def test_dense_grid_bit_equal_inside_one_ulp_outside(self):
        x = np.linspace(-8.0, 8.0, 2_000_001)
        got, want = self.erf(x), scipy_erf(x)
        inside = np.abs(x) <= 1.0
        assert np.array_equal(got[inside], want[inside])
        assert self.ulps(got, want).max() <= 1

    @pytest.mark.parametrize("n", [1, 2, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 7])
    def test_block_edges(self, n):
        x = np.random.default_rng(n).standard_normal(n) * 2.0
        got = self.erf(x)
        assert got.shape == (n,)
        assert self.ulps(got, scipy_erf(x)).max() <= 1
        # a block's result does not depend on the block it sits in
        np.testing.assert_array_equal(got[-1:], self.erf(x[-1:]))

    def test_shapes_and_non_contiguous_inputs(self):
        x = np.random.default_rng(4).standard_normal((3, 5, 40, 70)) * 1.5
        for view in (lambda a: a.transpose(3, 1, 0, 2), lambda a: a[:, ::2, :, 1::3], lambda a: a[..., 0],
                     np.asfortranarray):
            v = view(x.copy())  # _erf consumes it
            want = scipy_erf(v)
            got = tensor._erf(v)
            assert not v.flags.c_contiguous and got.shape == v.shape and self.ulps(got, want).max() <= 1
        want = scipy_erf(x)
        got = tensor._erf(x)  # C-contiguous: the result takes the input's buffer
        assert np.shares_memory(got, x) and got.shape == x.shape and self.ulps(got, want).max() <= 1
        assert self.erf(np.zeros((0, 3))).shape == (0, 3)

    def test_special_values(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e300, -1e300])
        got, want = self.erf(x), scipy_erf(x)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        np.testing.assert_array_equal(got[6:10], [scipy_erf(1.0), -scipy_erf(1.0), 1.0, -1.0])

    def test_gelu_bit_equal_to_the_scipy_expression(self):
        x = np.concatenate([np.linspace(-1.4, 1.4, 20001), np.random.default_rng(5).standard_normal(20000)])
        g = np.random.default_rng(6).standard_normal(x.size)
        cdf = 0.5 * (1.0 + scipy_erf(x * (1.0 / np.sqrt(2.0))))
        want_y = x * cdf
        want_g = g * (cdf + x * (np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))))
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            loss = tsum(mul(gelu(t), g))
        got_y = gelu(x).data
        tape.backward(loss)
        inside = np.abs(x * (1.0 / np.sqrt(2.0))) <= 1.0
        assert inside.sum() > 20000
        np.testing.assert_array_equal(got_y[inside], want_y[inside])
        np.testing.assert_array_equal(t.grad[inside], want_g[inside])
        # outside, one ulp of erf moves cdf by at most 2^-54
        np.testing.assert_allclose(got_y, want_y, rtol=0, atol=1e-15)
        np.testing.assert_allclose(t.grad, want_g, rtol=0, atol=1e-15)
