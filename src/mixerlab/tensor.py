"""Dense float64 tensors with tape-based reverse-mode differentiation.

Image tensors follow the (B, C, H, W) layout. Everything is computed in
64-bit floats with fixed reduction orders, so identical inputs produce
bit-identical outputs across runs. Any op whose output contains NaN/Inf
raises NumericsError on the spot instead of propagating poison values.

Recording: each op hands ``_op`` its inputs and one backward function that
returns every input's gradient, told which inputs require grad: a backward
computes only those, and what two of them share once. On the thread-local
active ``Tape`` (entered via ``with Tape():``) it is recorded with the output;
without one, ops just compute. A record names tensors by identity nodes that
refer to them weakly, and backward functions keep arrays, not tensors, so an
array lives as long as the forward code or a backward function references it. A
consumed or aborted tape releases every record and detaches its surviving
outputs, so reference counting, not the cyclic GC, frees a pass's
activations. ``conv2d``, ``avg_pool2d`` and ``neighborhood_attention`` read every K x K window
through one strided view of the padded input and send window gradients back through its
adjoint (``_windows``, ``_add_windows``); ``conv2d`` copies the view into im2col column blocks of
at most ``_COLUMN_BYTES``. The first two add the MACs they execute to a thread-local count while one is open.
``bilinear_resize`` multiplies each (sample, channel) slice by two cached
one-axis interpolation matrices (``_interp``), forward and backward.
``gelu_linear`` runs ``linear(gelu(x), w, b)`` as one op that keeps x and GELU's
cdf but not their product, and makes the product again for the weight gradient.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import weakref
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericsError, ShapeError

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
LAYER_NORM_EPS = 1e-6

_state = threading.local()


def _active_tape() -> Optional["Tape"]:
    return getattr(_state, "tape", None)


def _executed_macs(run: Callable[[], object]) -> int:
    """Multiply-accumulates that conv2d and avg_pool2d execute on this thread
    during ``run()``. The count is off again afterwards, also after a raise."""
    _state.macs = 0
    try:
        run()
        return _state.macs
    finally:
        _state.macs = None


def _count_macs(n: int):
    if getattr(_state, "macs", None) is not None:
        _state.macs += n


class Tensor:
    """Dense float64 array, optionally participating in gradient recording.

    ``grad`` is populated on requires_grad leaves by ``backward``. Data of
    op outputs is frozen (read-only); leaves stay writable so optimizers
    can update parameters in place between recorded passes.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._tape: Optional["Tape"] = None
        self._node: Optional[_Node] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class _Node(weakref.ref):
    """A tensor's place on tapes: it hashes by identity and, called, gives the
    tensor while it lives, so no record keeps an output's array alive."""

    __slots__ = ()
    __hash__ = object.__hash__
    __eq__ = object.__eq__


def _node_of(t: Tensor) -> _Node:
    if t._node is None:
        t._node = _Node(t)
    return t._node


class Tape:
    """Wengert list of primitive applications.

    Ops are appended in execution order, so walking the records backwards
    visits nodes in reverse topological order. A record is (output node,
    backward closure); the node refers to the output weakly. A tape can be
    consumed by ``backward`` exactly once; re-recording requires a fresh
    tape. Tapes are not shareable across threads (the active tape is
    thread-local). ``backward`` releases each record as it visits it, and
    leaving the ``with`` block on an exception releases them all; either way
    each surviving output is detached (its ``_tape`` is None).
    """

    def __init__(self):
        self._records: list[tuple[_Node, Callable]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        if getattr(_state, "tape", None) is not None:
            raise ConfigError("a tape is already active on this thread")
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = None
        if exc_type is not None:  # an aborted forward frees what it recorded
            for node, _ in self._records:
                if (out := node()) is not None:
                    out._tape = None
            self._records.clear()
        return False

    def record(self, out: Tensor, backward_fn: Callable):
        if self._consumed:
            raise ConfigError("tape already consumed by backward; record on a fresh tape")
        out.requires_grad = True
        out._tape = self
        self._records.append((_node_of(out), backward_fn))

    def backward(self, loss: Tensor):
        """Populate ``grad`` on every requires_grad leaf reachable from loss."""
        if self._consumed:
            raise ConfigError("backward called twice on one tape")
        if loss.data.ndim != 0:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if loss._tape is not self:
            raise ConfigError("loss was not recorded on this tape")
        self._consumed = True

        # grads is keyed by node. Each record, and its output's gradient, is
        # popped on its own visit, after all its consumers (recorded later)
        # have added to it: what grads holds at the end belongs to leaves, and
        # each closure is freed as soon as the walk passes it. A leaf that
        # nobody holds any more gets no grad.
        grads: dict[_Node, np.ndarray] = {loss._node: np.ones((), dtype=np.float64)}
        while self._records:
            node, backward_fn = self._records.pop()
            if (out := node()) is not None:
                out._tape = None
            g = grads.pop(node, None)
            if g is None:
                continue
            for n, gt in backward_fn(g):
                grads[n] = grads[n] + gt if n in grads else np.array(gt, dtype=np.float64, copy=True)
        for n, g in grads.items():
            if (t := n()) is not None:
                t.grad = g if t.grad is None else t.grad + g


def backward(loss: Tensor):
    """Run reverse-mode differentiation from a scalar recorded loss."""
    if loss._tape is None:
        raise ConfigError("loss is not attached to a tape; run the forward pass inside `with Tape():`")
    loss._tape.backward(loss)


class Registry:
    """Trainable tensors by full dotted name, in creation order.

    ``new`` is the one place a parameter is made. Its values are the seeded
    draw N(0, 0.02^2) when ``fill`` is None, else the constant ``fill``. A
    registry over ``arrays`` (name -> array, as a checkpoint holds them)
    takes each value from there instead and draws nothing; a missing or
    wrong-shaped array raises ShapeError naming the parameter. A
    float64, C-contiguous, writable array that owns its data becomes the
    tensor's storage as it is, so loaded weights are not held twice.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None, arrays: Optional[dict] = None):
        self.rng = rng
        self.arrays = arrays
        self.tensors: dict[str, Tensor] = {}

    def new(self, name: str, shape: tuple[int, ...], fill: Optional[float] = None) -> Tensor:
        shape = tuple(shape)
        if self.arrays is not None:
            data = self.arrays.get(name)
            if data is None or data.shape != shape:
                got = "has none" if data is None else f"shape {data.shape}"
                raise ShapeError(f"parameter {name}: model shape {shape}, checkpoint {got}")
        elif fill is None:
            data = self.rng.standard_normal(shape) * 0.02
        else:
            data = np.full(shape, float(fill))
        flags = data.flags
        adopt = data.dtype == np.float64 and flags.c_contiguous and flags.writeable and flags.owndata
        self.tensors[name] = t = Tensor(() if adopt else data, requires_grad=True)
        if adopt:
            t.data = data
        return t


# ---------------------------------------------------------------------------
# op plumbing
# ---------------------------------------------------------------------------


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _op(name: str, data: np.ndarray, inputs: Sequence[Optional[Tensor]], bwd: Callable) -> Tensor:
    """The exit of every op: freeze ``data`` as the output and record it.

    ``inputs`` are the op's inputs (None for an absent one, such as a missing
    bias). ``bwd(g, needs)`` maps the output's gradient to one gradient per
    input, in input order; ``needs[i]`` is False for an input that is absent
    or does not require grad, and ``bwd`` computes nothing for it: its entry
    is never read. Non-finite data raises NumericsError naming the op. The
    output owns a C-contiguous array. On an active tape, the output is
    recorded with one closure over ``bwd`` when some input needs a gradient.
    """
    arr = np.asarray(data, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values produced by {name}")
    if arr.base is not None or not arr.flags.c_contiguous or not arr.flags.owndata:
        arr = np.array(arr, dtype=np.float64, order="C")
    arr.flags.writeable = False
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.requires_grad = False
    out.grad = None
    out._tape = None
    out._node = None
    tape = _active_tape()
    if tape is not None:
        needs = [t is not None and t.requires_grad for t in inputs]
        if True in needs:
            nodes = list(map(_node_of, itertools.compress(inputs, needs)))
            tape.record(out, lambda g: zip(nodes, itertools.compress(bwd(g, needs), needs)))
    return out


def _each(*vjps: Callable) -> Callable:
    """``bwd`` for an op whose inputs' gradients share nothing: one function per input."""
    return lambda g, needs: [need and vjp(g) for vjp, need in zip(vjps, needs)]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _op("add", a.data + b.data, [a, b],
               _each(lambda g, s=a.shape: _unbroadcast(g, s), lambda g, s=b.shape: _unbroadcast(g, s)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _op("sub", a.data - b.data, [a, b],
               _each(lambda g, s=a.shape: _unbroadcast(g, s), lambda g, s=b.shape: _unbroadcast(-g, s)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    # only an operand that takes a gradient holds its partner's array: a constant factor frees the other's
    x, y = a.data if b.requires_grad else None, b.data if a.requires_grad else None
    return _op("mul", a.data * b.data, [a, b],
               _each(lambda g, s=a.shape: _unbroadcast(g * y, s), lambda g, s=b.shape: _unbroadcast(g * x, s)))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = a.data / b.data
    return _op("div", y, [a, b], _each(lambda g, s=a.shape, v=b.data: _unbroadcast(g / v, s),
                                       lambda g, s=b.shape, u=a.data, v=b.data: _unbroadcast(-g * u / (v * v), s)))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _op("neg", -a.data, [a], lambda g, _: [-g])


def power(a, p: float) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(invalid="ignore", over="ignore"):
        y = a.data**p
    return _op("power", y, [a], lambda g, _, x=a.data: [g * p * x ** (p - 1.0)])


def exp(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        y = np.exp(a.data)
    return _op("exp", y, [a], lambda g, _: [g * y])


def log(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(a.data)
    return _op("log", y, [a], lambda g, _, x=a.data: [g / x])


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(invalid="ignore"):
        y = np.sqrt(a.data)
    return _op("sqrt", y, [a], lambda g, _: [g * 0.5 / y])


# Cephes ndtr.c (Moshier, after Cody 1969), as scipy.special.erf runs it: erf(x) = x T(x^2) / U(x^2)
# on |x| <= 1, else sign(x) (1 - exp(-x^2) P(|x|) / Q(|x|)); U, Q monic, Cephes' doubles in short form.
_ERF_T = (9.604973739870516, 90.02601972038427, 2232.005345946843, 7003.325141128051, 55592.30130103949)
_ERF_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801, 22629.000061389095, 49267.39426086359)
_ERF_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699, 48.63719709856814, 196.5208329560771,
          526.4451949954773, 934.5285271719576, 1027.5518868951572, 557.5353353693994)
_ERF_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199, 975.7085017432055,
          1823.9091668790973, 2246.3376081871097, 1656.6630919416134, 557.5353408177277)
_ERF_BLOCK = 1 << 15  # elements per pass, so a pass's buffers stay in cache


def _horner(v: np.ndarray, coefs: tuple, out: Optional[np.ndarray] = None) -> np.ndarray:
    out = np.multiply(v, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= v
    return np.add(out, coefs[-1], out=out)


def _erf(x: np.ndarray) -> np.ndarray:
    """erf, bit-equal to scipy.special.erf on |x| <= 1, else within 1 ulp; consumes ``x``."""
    flat = x.reshape(-1)
    z, p, q = np.empty((3, min(x.size, _ERF_BLOCK)))
    with np.errstate(over="ignore", invalid="ignore"):  # a huge or infinite x is overwritten
        for lo in range(0, x.size, _ERF_BLOCK):
            xb = flat[lo : lo + _ERF_BLOCK]
            zb = np.multiply(xb, xb, out=z[: xb.size])
            big = np.flatnonzero(zb > 1.0)  # their |x| <= 1 form is overwritten below
            xs = xb[big]
            xb *= _horner(zb, _ERF_T, p[: xb.size])
            xb /= _horner(zb, _ERF_U, q[: xb.size])
            if big.size:
                t = np.minimum(np.abs(xs), 8.0)  # 1 - erfc(x) rounds to 1 from 8 on
                xb[big] = np.copysign(1.0 - np.exp(-(t * t)) * _horner(t, _ERF_P) / _horner(t, _ERF_Q), xs)
    return flat.reshape(x.shape)


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(x * _INV_SQRT2))  # numpy adds and scales the erf temporary in place


def _gelu_grad(x: np.ndarray, cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """GELU's input gradient g * (cdf + x * (exp(-0.5 * x * x) / sqrt(2 pi))), in one buffer."""
    d = np.multiply(x, -0.5) * x
    np.exp(d, out=d)
    d *= _INV_SQRT_2PI
    d *= x
    d += cdf
    return np.multiply(d, g, out=d)


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU; smooth everywhere, so finite differences apply."""
    a = _as_tensor(a)
    x, cdf = a.data, _gelu_cdf(a.data)
    return _op("gelu", x * cdf, [a], lambda g, _: [_gelu_grad(x, cdf, g)])


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    return _op("reshape", a.data.reshape(shape), [a], lambda g, _, s=a.shape: [g.reshape(s)])


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(ax % a.ndim for ax in axes)
    inv = sorted(range(len(axes)), key=axes.__getitem__)  # argsort, without numpy's per-call cost
    return _op("transpose", np.transpose(a.data, axes), [a], lambda g, _: [np.transpose(g, inv)])


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    bounds = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return _op("concat", np.concatenate([t.data for t in tensors], axis=axis), tensors,
               lambda g, _: np.split(g, bounds, axis=axis))


def split(a, sections: int, axis: int) -> list[Tensor]:
    """The adjoint of ``concat``: ``sections`` equal pieces of ``a`` along ``axis``."""
    a = _as_tensor(a)
    n, ax = a.shape[axis], axis % a.ndim
    if sections < 1 or n % sections:
        raise ShapeError(f"split: {sections} sections do not divide axis {axis} of shape {a.shape}")
    step = n // sections
    pads = [[(0, 0)] * ax + [(i, n - step - i)] + [(0, 0)] * (a.ndim - ax - 1) for i in range(0, n, step)]
    return [_op("split", piece, [a], lambda g, _, pad=pad: [np.pad(g, pad)])
            for piece, pad in zip(np.split(a.data, sections, axis=axis), pads)]


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    kept = keepdims or axis is None  # g broadcasts against a as it is
    return _op("sum", a.data.sum(axis=axis, keepdims=keepdims), [a],
               lambda g, _, s=a.shape: [np.broadcast_to(g if kept else np.expand_dims(g, axis), s).copy()])


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    ax = range(a.ndim) if axis is None else (axis,) if isinstance(axis, int) else axis
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / math.prod(a.shape[i] for i in ax))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Batched matrix product; leading batch dims of a and b must match."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dims differ: {a.shape} vs {b.shape}")
    return _op("matmul", a.data @ b.data, [a, b],
               _each(lambda g, y=b.data: g @ np.swapaxes(y, -1, -2), lambda g, x=a.data: np.swapaxes(x, -1, -2) @ g))


def linear(x, weight, bias=None) -> Tensor:
    """Affine map over the last axis: y[..., o] = sum_i x[..., i] w[o, i] + b[o].

    Axis 0 is the sample axis. Each sample's rows go through a GEMM of their
    own, so a sample's output (and its input gradient) does not depend on its
    position in the batch or on the batch size.
    """
    return _linear("linear", _as_tensor(x), weight, bias, None)


def gelu_linear(x, weight, bias=None) -> Tensor:
    """``linear(gelu(x), weight, bias)`` bit for bit. It holds x and GELU's cdf,
    not their product, which it makes again for the weight gradient."""
    x = _as_tensor(x)
    return _linear("gelu_linear", x, weight, bias, _gelu_cdf(x.data))


def _linear(name: str, x: Tensor, weight, bias, cdf: Optional[np.ndarray]) -> Tensor:
    weight = _as_tensor(weight)
    cout, cin = weight.shape
    if x.shape[-1] != cin:
        raise ShapeError(f"{name} expects last axis {cin}, got input shape {x.shape}")
    # one (M, Cin) matrix per sample: x's rows, or with GELU's cdf those of x * cdf
    bsz, m = (x.shape[0], math.prod(x.shape[1:-1])) if x.ndim > 1 else (1, 1)
    xd = x.data
    rows = lambda: (xd if cdf is None else xd * cdf).reshape(bsz, m, cin)
    rows_grad = lambda g, w=weight.data, s=x.shape: (g.reshape(bsz, m, cout) @ w).reshape(s)
    y = (rows() @ weight.data.T).reshape(x.shape[:-1] + (cout,))
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (cout,):
            raise ShapeError(f"{name} bias shape {bias.shape} != ({cout},)")
        y = y + bias.data
    return _op(name, y, [x, weight, bias], _each(
        rows_grad if cdf is None else lambda g: _gelu_grad(xd, cdf, rows_grad(g)),
        lambda g: g.reshape(-1, cout).T @ rows().reshape(-1, cin),
        lambda g: g.reshape(-1, cout).sum(axis=0),
    ))


# ---------------------------------------------------------------------------
# normalization and attention-style ops
# ---------------------------------------------------------------------------


def softmax(x, axis: int = -1, additive_mask=None) -> Tensor:
    """Max-stabilized softmax along ``axis``.

    ``additive_mask`` holds 0 for allowed entries and -inf for disallowed
    ones (broadcastable against x); masked entries come out exactly 0. A
    slice with every entry masked has no valid key and is a config error.
    """
    x = _as_tensor(x)
    s = x.data if additive_mask is None else x.data + additive_mask
    m = np.max(s, axis=axis, keepdims=True)
    if np.isneginf(m).any():
        raise ConfigError("softmax slice is fully masked (no valid key)")
    # a NaN or +inf in s makes y non-finite, which _op reports
    with np.errstate(invalid="ignore"):
        e = np.exp(s - m)
    denom = e.sum(axis=axis, keepdims=True)
    y = e / denom
    return _op("softmax", y, [x], lambda g, _: [y * (g - (g * y).sum(axis=axis, keepdims=True))])


def neighborhood_attention(q, k, v, kernel: int, heads: int) -> Tensor:
    """Attention of each position of (B, H, W, C) grids over the K x K window of keys centred on it (odd K),
    in ``heads`` heads of D = C / heads channels; window taps outside the grid score -inf. The (B, M, K, K,
    H, W) scores and the context read the zero-padded key and value grids through ``_windows`` tap by tap,
    and the gradients go back through ``_add_windows``: no N x N array is made."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 4 or not q.shape == k.shape == v.shape or q.shape[3] % heads:
        raise ShapeError(f"neighborhood_attention needs q, k, v of one (B, H, W, C) shape, C divisible by {heads} "
                         f"heads; got {q.shape}, {k.shape}, {v.shape}")
    (b, h, w, c), r = q.shape, kernel // 2
    zeros = lambda pad=0: np.moveaxis(np.zeros((c // heads, h + 2 * pad, w + 2 * pad, b, heads)), (3, 4), (0, 1))
    merge = lambda a: a.transpose(0, 3, 4, 1, 2).reshape(b, h, w, c)  # (B, M, D, H, W) to (B, H, W, C)

    def grid(a, pad=0):  # (B, H, W, C) to (B, M, D, H, W), pad zeros around; stored (D, H, W, B, M): long tap rows
        out = zeros(pad)
        out[..., pad : pad + h, pad : pad + w] = a.reshape(b, h, w, heads, -1).transpose(0, 3, 4, 1, 2)
        return out

    def tap_dots(a, padded):  # (B, M, K, K, H, W) dot products over D of a with each tap
        out, win = np.moveaxis(np.empty((kernel, kernel, h, w, b, heads)), (4, 5), (0, 1)), _windows(padded, kernel, 1)
        for ky, kx in np.ndindex(kernel, kernel):
            np.einsum("bmdhw,bmdhw->bmhw", a, win[:, :, :, ky, kx], out=out[:, :, ky, kx])
        return out

    def tap_sum(weights, padded):  # sum over taps of the weights times each tap
        out, win = zeros(), _windows(padded, kernel, 1)
        for ky, kx in np.ndindex(kernel, kernel):
            out += weights[:, :, None, ky, kx] * win[:, :, :, ky, kx]
        return merge(out)

    def grid_grad(weights, factor):  # the adjoint of reading a padded grid through the windows
        out = zeros(r)
        _add_windows(out, weights[:, :, None], 1, factor)
        return merge(out[..., r : r + h, r : r + w])

    qh, kp, vp = grid(q.data), grid(k.data, r), grid(v.data, r)
    s = tap_dots(qh, kp)
    s[:, :, ~_windows(np.pad(np.ones((h, w), dtype=bool), r), kernel, 1)] = -np.inf
    s -= s.max(axis=(2, 3), keepdims=True)
    p = np.exp(s, out=s)
    p /= p.sum(axis=(2, 3), keepdims=True)

    def score_grad(g):
        gp = tap_dots(grid(g), vp)
        return p * (gp - (gp * p).sum(axis=(2, 3), keepdims=True))

    def bwd(g, needs):  # the scores' gradient is made once, for q's gradient and for k's
        ds = (needs[0] or needs[1]) and score_grad(g)
        return [needs[0] and tap_sum(ds, kp), needs[1] and grid_grad(ds, qh), needs[2] and grid_grad(p, grid(g))]

    return _op("neighborhood_attention", tap_sum(p, vp), [q, k, v], bwd)


def log_softmax(x, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    m = np.max(x.data, axis=axis, keepdims=True)
    lse = m + np.log(np.exp(x.data - m).sum(axis=axis, keepdims=True))
    y = x.data - lse
    return _op("log_softmax", y, [x], lambda g, _: [g - np.exp(y) * g.sum(axis=axis, keepdims=True)])


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize over the channel axis (axis 1) per spatial location.

    For (B, C, H, W) input, every (b, h, w) column of C values is brought
    to zero mean / unit variance, then scaled and shifted per channel.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layer_norm affine shape must be ({c},)")
    bshape = (1, c) + (1,) * (x.ndim - 2)
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    y = xhat * gamma.data.reshape(bshape) + beta.data.reshape(bshape)
    gsum_axes = tuple(i for i in range(x.ndim) if i != 1)
    xd, gd = x.data, gamma.data.reshape(bshape)

    def grad_x(g, xhat):
        gy = g * gd
        mean_gy = gy.mean(axis=1, keepdims=True)
        mean_gyx = (gy * xhat).mean(axis=1, keepdims=True)
        return inv * (gy - mean_gy - xhat * mean_gyx)

    def bwd(g, needs):  # x's and gamma's gradients share xhat = (x - mu) * inv, made again here, not kept
        xhat = (needs[0] or needs[1]) and (xd - mu) * inv
        return [needs[0] and grad_x(g, xhat), needs[1] and (g * xhat).sum(axis=gsum_axes),
                needs[2] and g.sum(axis=gsum_axes)]

    return _op("layer_norm", y, [x, gamma, beta], bwd)


# ---------------------------------------------------------------------------
# spatial ops on (B, C, H, W)
# ---------------------------------------------------------------------------


def _out_hw(h: int, w: int, k: int, stride: int, padding: int) -> tuple[int, int]:
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"window {k}x{k} does not fit input {h}x{w} with padding {padding}")
    return ho, wo


def _pad(a: np.ndarray, padding: int) -> np.ndarray:
    """Copy of (B, C, H, W) ``a`` with ``padding`` zero cells around H and W (``a`` at 0)."""
    if padding == 0:
        return a
    bsz, c, h, w = a.shape
    out = np.zeros((bsz, c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    out[:, :, padding : padding + h, padding : padding + w] = a
    return out


_COLUMN_BYTES = 1 << 25  # per column block: a K=127 conv needs 3-26 GB of columns per sample


def _windows(padded: np.ndarray, k: int, stride: int, writeable: bool = False) -> np.ndarray:
    """View (..., K, K, Ho, Wo) of ``padded`` (..., Hp, Wp), read-only unless ``writeable``:
    [..., ky, kx, i, j] is padded[..., i*stride + ky, j*stride + kx]."""
    *lead, hp, wp = padded.shape
    sh, sw = padded.strides[-2:]
    shape = (*lead, k, k, (hp - k) // stride + 1, (wp - k) // stride + 1)
    strides = padded.strides[:-2] + (sh, sw, sh * stride, sw * stride)
    return np.lib.stride_tricks.as_strided(padded, shape, strides, writeable=writeable)


def _add_windows(out: np.ndarray, wgrad: np.ndarray, stride: int, factor: Optional[np.ndarray] = None):
    """The adjoint of ``_windows``: add each window gradient (..., K, K, Ho, Wo), times ``factor``
    (broadcast against one tap) if given, into the grid ``out`` the windows were read from, tap by tap."""
    k = wgrad.shape[-3]
    view = _windows(out, k, stride, writeable=True)
    for ky, kx in np.ndindex(k, k):
        view[..., ky, kx, :, :] += wgrad[..., ky, kx, :, :] if factor is None else wgrad[..., ky, kx, :, :] * factor


def _column_blocks(bsz: int, groups: int, ho: int, row_bytes: int) -> list[tuple[slice, slice, slice]]:
    """(samples, groups, output rows) slices that cut column matrices of ``row_bytes`` per
    output row into blocks of at most _COLUMN_BYTES, or one row of one matrix. The rows per
    block depend on one matrix alone, so a sample's GEMMs are the same whatever the batch."""
    rows = max(1, min(ho, _COLUMN_BYTES // row_bytes))
    ng = max(1, min(groups, _COLUMN_BYTES // (rows * row_bytes)))
    nb = max(1, min(bsz, _COLUMN_BYTES // (ng * rows * row_bytes)))
    return [(slice(b, b + nb), slice(g, g + ng), slice(r, min(r + rows, ho)))
            for b in range(0, bsz, nb) for g in range(0, groups, ng) for r in range(0, ho, rows)]


def conv2d(x, kernel, bias=None, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Grouped 2D cross-correlation with zero-fill padding.

    kernel has shape (Cout, Cin/groups, K, K) with odd K. Output height is
    floor((H + 2*padding - K)/stride) + 1, likewise width.

    im2col: each (sample, group) output is one GEMM of the group's kernel
    against columns copied from the ``_windows`` view of the padded input, in
    output-row blocks of at most _COLUMN_BYTES. The kernel gradient is the GEMM
    against the same columns, rebuilt in backward; the input gradient is one
    kernel-transpose GEMM followed by ``_add_windows``. Each sample goes
    through GEMMs of its own, so a sample's output (and its input gradient)
    does not depend on its position in the batch or on the batch size.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError("conv2d expects 4D input and 4D kernel")
    bsz, cin, h, w = x.shape
    cout, cg, kh, kw = kernel.shape
    if kh != kw:
        raise ConfigError("conv2d kernels must be square")
    k = kh
    if k % 2 == 0:
        raise ConfigError("conv2d kernel size must be odd")
    if stride < 1 or padding < 0 or groups < 1:
        raise ConfigError("conv2d needs stride >= 1, padding >= 0, groups >= 1")
    if cin % groups or cout % groups:
        raise ConfigError(f"groups={groups} must divide Cin={cin} and Cout={cout}")
    if cg != cin // groups:
        raise ShapeError(f"kernel expects Cin/groups={cg}, input has Cin/groups={cin // groups}")
    og, ckk = cout // groups, cg * k * k
    ho, wo = _out_hw(h, w, k, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    wm = kernel.data.reshape(groups, og, ckk)
    blocks = _column_blocks(bsz, groups, ho, ckk * wo * 8)

    def columns(xw, b, g, r):  # one block's (groups, Cin/G*K*K, samples, rows*Wo) columns
        win = np.moveaxis(xw[b, g, ..., r, :], 0, -3)
        return win.reshape(win.shape[:1] + (ckk, win.shape[-3], -1))

    xw = _windows(_pad(x.data, padding).reshape(bsz, groups, cg, hp, wp), k, stride)
    y = np.empty((bsz, groups, og, ho * wo), dtype=np.float64)
    for b, g, r in blocks:
        y[b, g, :, r.start * wo : r.stop * wo] = wm[g] @ columns(xw, b, g, r).transpose(2, 0, 1, 3)
    y = y.reshape(bsz, cout, ho, wo)
    _count_macs(y.size * ckk)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (cout,):
            raise ShapeError(f"conv2d bias shape {bias.shape} != ({cout},)")
        y = y + bias.data.reshape(1, cout, 1, 1)

    def grad_x(g):
        gg = g.reshape(bsz, groups, og, ho * wo)
        gxp = np.zeros((bsz, groups, cg, hp, wp), dtype=np.float64)
        for b, gs, r in blocks:
            wt, gy = wm[gs].swapaxes(-1, -2), gg[b, gs, :, r.start * wo : r.stop * wo]
            gcols = wt * gy if og == 1 else wt @ gy  # a length-1 contraction is faster broadcast
            gwin = gcols.reshape(gcols.shape[:2] + (cg, k, k, -1, wo))
            _add_windows(gxp[b, gs, :, r.start * stride : (r.stop - 1) * stride + k], gwin, stride)
        return gxp.reshape(bsz, cin, hp, wp)[:, :, padding : padding + h, padding : padding + w]

    def grad_kernel(g, xd=x.data):
        # rebuild the columns rather than keep them alive until backward
        xw = _windows(_pad(xd, padding).reshape(bsz, groups, cg, hp, wp), k, stride)
        gg = g.reshape(bsz, groups, og, ho * wo)
        dw = np.zeros_like(wm) if len(blocks) != 1 else None  # one block: its GEMM sums the samples
        for b, gs, r in blocks:
            gy, cols = np.moveaxis(gg[b, gs, :, r.start * wo : r.stop * wo], 0, 2), columns(xw, b, gs, r)
            part = gy.reshape(gy.shape[:2] + (-1,)) @ cols.reshape(cols.shape[:2] + (-1,)).swapaxes(-1, -2)
            if dw is None:
                return part.reshape(cout, cg, k, k)
            dw[gs] += part
        return dw.reshape(cout, cg, k, k)

    return _op("conv2d", y, [x, kernel, bias], _each(
        grad_x, grad_kernel, lambda g: g.reshape(bsz, groups, og, ho * wo).sum(axis=(0, 3)).reshape(cout)))


def avg_pool2d(x, k: int, stride: int = 1, padding: int = 0) -> Tensor:
    """Average pooling with a fixed K*K divisor (padded cells count).

    stride 1 with padding (K-1)/2 preserves the spatial size, which is the
    token-mixer configuration. The output adds the taps of the ``_windows``
    view in place, one after another in tap order, and the input gradient
    is its adjoint.
    """
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeError("avg_pool2d expects (B, C, H, W)")
    if k % 2 == 0 or k < 1:
        raise ConfigError("avg_pool2d pool size must be odd and positive")
    if stride < 1 or padding < 0:
        raise ConfigError("avg_pool2d needs stride >= 1 and padding >= 0")
    bsz, c, h, w = x.shape
    ho, wo = _out_hw(h, w, k, stride, padding)
    # one whole-grid add per tap: a reduction over the tap axes pays numpy's per-row overhead
    view = _windows(_pad(x.data, padding), k, stride)
    acc = view[..., 0, 0, :, :].copy()
    for ky, kx in list(np.ndindex(k, k))[1:]:
        acc += view[..., ky, kx, :, :]
    scale = 1.0 / (k * k)
    acc *= scale
    _count_macs(acc.size * k * k)

    def grad_x(g):
        gxp = np.zeros((bsz, c, h + 2 * padding, w + 2 * padding))
        _add_windows(gxp, np.broadcast_to((g * scale)[:, :, None, None], (bsz, c, k, k, ho, wo)), stride)
        return gxp[:, :, padding : padding + h, padding : padding + w]

    return _op("avg_pool2d", acc, [x], lambda g, _: [grad_x(g)])


def global_avg_pool(x) -> Tensor:
    """Collapse (B, C, H, W) to (B, C) by averaging the spatial axes."""
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeError("global_avg_pool expects (B, C, H, W)")
    _, _, h, w = x.shape
    return _op("global_avg_pool", x.data.mean(axis=(2, 3)), [x],
               lambda g, _, s=x.shape: [np.broadcast_to(g[:, :, None, None] / (h * w), s).copy()])


@functools.lru_cache(maxsize=64)
def _interp(n_in: int, n_out: int) -> np.ndarray:
    """The read-only (n_out, n_in) matrix that resamples one axis with
    half-pixel centers: row i holds output i's two blend weights, summed into
    one entry where the edge clamp makes both source pixels the same."""
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    lo = np.floor(src)
    rows, cols, frac = np.arange(n_out), lo.astype(np.int64), src - lo
    r = np.zeros((n_out, n_in))
    r[rows, np.clip(cols, 0, n_in - 1)] = 1.0 - frac
    r[rows, np.clip(cols + 1, 0, n_in - 1)] += frac
    r.flags.writeable = False
    return r


def bilinear_resize(x, out_h: int, out_w: int) -> Tensor:
    """Bilinear resample with half-pixel centers (align-corners false): each
    (sample, channel) slice becomes ``R_h @ x @ R_w.T`` with the cached
    matrices of ``_interp``, a product of its own, so no sample's result
    depends on the batch. The input gradient is ``R_h.T @ g @ R_w``."""
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeError("bilinear_resize expects (B, C, H, W)")
    if out_h < 1 or out_w < 1:
        raise ConfigError("bilinear_resize output size must be >= 1")
    h, w = x.shape[2:]
    if (out_h, out_w) == (h, w):
        # a copy, so the output never shares (and freezes) the input's array
        return _op("bilinear_resize", x.data.copy(), [x], lambda g, _: [g])
    r_h, r_w = _interp(h, out_h), _interp(w, out_w)
    with np.errstate(invalid="ignore"):  # 0 * inf in a product is NaN, which _op reports
        y = r_h @ (x.data @ r_w.T)
    return _op("bilinear_resize", y, [x], lambda g, _: [r_h.T @ (g @ r_w)])
