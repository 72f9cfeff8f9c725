"""Outside-in tracing: timing wrappers around mixerlab's public API.

``Tracer.install`` replaces public functions and methods with wrappers that
record one span each (name, start, end, parent) plus exact counts, and
``Tracer.uninstall`` puts the originals back. A function is rebound in
every mixerlab module that imported it, so ``metaformer.conv2d`` is traced
as well as ``tensor.conv2d``. Only public names are touched.

Span names are the per-layer metric keys. A key's time is the union of
its spans: a span nested inside another span of the same key (``tmean``
calling ``tsum``) is not counted twice.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from collections import Counter

# span key -> tensor functions; a group's members share one key
TENSOR_GROUPS = {
    "tensor.elementwise": ("add", "sub", "mul", "div", "neg", "power", "exp", "log", "sqrt",
                           "tsum", "tmean", "log_softmax", "global_avg_pool"),
    "tensor.layout": ("reshape", "transpose", "concat"),
}
TENSOR_OPS = ("conv2d", "linear", "matmul", "softmax", "layer_norm", "gelu",
              "avg_pool2d", "bilinear_resize")
MAC_OPS = ("conv2d", "linear", "matmul")
MIXER_FUNCS = {
    "mix_identity": "identity", "mix_pool": "pooling", "mix_conv": "conv",
    "mix_grouped_conv": "grouped_conv", "mix_local_attn": "local_attn",
    "mix_global_attn": "global_attn",
}
# (module, function names, span key) for everything else that is traced
FUNCTIONS = [
    ("mixerlab.tensor", ("backward",), "tensor.backward"),
    ("mixerlab.mixers", ("build_neighborhood_mask",), "mixers.mask_build"),
    ("mixerlab.trainer", ("train_classifier",), "trainer.train"),
    ("mixerlab.trainer", ("ce_loss",), "trainer.loss"),
    ("mixerlab.trainer", ("grad_norm_monitor",), "trainer.grad_monitor"),
    ("mixerlab.trainer", ("predict_labels", "predict_scores"), "trainer.predict"),
    ("mixerlab.evalrank", ("pairwise_wins",), "evalrank.pairwise"),
    ("mixerlab.evalrank", ("wilcoxon_signed_rank",), "evalrank.wilcoxon"),
    ("mixerlab.evalrank", ("read_case_scores_csv",), "evalrank.csv_read"),
    ("mixerlab.evalrank", ("sliding_window_infer",), "evalrank.sliding_window"),
    ("mixerlab.checkpoint", ("load_model",), "checkpoint.load"),
    ("mixerlab.checkpoint", ("save_model",), "checkpoint.save"),
    ("mixerlab.imageio", ("read_pgm", "read_ppm", "read_image_as_float", "read_raw_f64"),
     "imageio.read"),
    ("mixerlab.imageio", ("write_pgm", "write_ppm", "write_raw_f64"), "imageio.write"),
    ("mixerlab.cli", ("main",), "cli.main"),
]
METHODS = [
    ("mixerlab.tensor", "Tape", "backward", "tensor.backward"),
    ("mixerlab.mixers", "NeighborhoodMask", "to_additive", "mixers.mask_build"),
    ("mixerlab.metaformer", "PatchEmbed", "__call__", "metaformer.patch_embed"),
    ("mixerlab.metaformer", "ChannelMlp", "__call__", "metaformer.mlp"),
    ("mixerlab.metaformer", "Norm", "__call__", "metaformer.norm"),
    ("mixerlab.metaformer", "SegDecoder", "__call__", "metaformer.decoder"),
    ("mixerlab.metaformer", "MetaFormer", "forward", "metaformer.forward"),
    ("mixerlab.metaformer", "MetaFormer", "forward_classify", "metaformer.forward"),
    ("mixerlab.metaformer", "MetaFormer", "forward_segment", "metaformer.forward"),
    ("mixerlab.trainer", "AdamW", "step", "trainer.optimizer"),
]

# every per-layer metric the traced run reports, with its unit
PER_LAYER = (
    [(f"tensor.{op}.{m}", u) for op in MAC_OPS for m, u in (("s", "s"), ("calls", "count"), ("macs", "MAC"))]
    + [(f"tensor.{op}.s", "s") for op in TENSOR_OPS if op not in MAC_OPS]
    + [(f"{g}.{m}", u) for g in TENSOR_GROUPS for m, u in (("s", "s"), ("calls", "count"))]
    + [("tensor.out_bytes", "B"), ("tensor.backward.s", "s")]
    + [(f"mixers.{k}.s", "s") for k in MIXER_FUNCS.values()]
    + [("mixers.mask_build.s", "s"), ("mixers.capacity_refusals", "count")]
    + [(f"metaformer.stage{i}.s", "s") for i in range(4)]
    + [(f"metaformer.{p}.s", "s") for p in ("patch_embed", "mlp", "norm", "decoder", "init")]
    + [("trainer.steps", "count")]
    + [(f"trainer.{p}.s", "s") for p in ("forward", "loss", "optimizer", "grad_monitor", "predict")]
    + [("evalrank.bootstrap.s", "s"), ("evalrank.bootstrap.pairs", "count"),
       ("evalrank.auc.calls", "count"), ("evalrank.auc.s", "s"),
       ("evalrank.resample_yield", "ratio"), ("evalrank.wilcoxon.s", "s"),
       ("evalrank.csv_read.s", "s"), ("evalrank.sliding_window.self_s", "s"),
       ("evalrank.windows", "count")]
    + [("checkpoint.load.s", "s"), ("checkpoint.save.s", "s"), ("checkpoint.bytes", "B"),
       ("imageio.read.s", "s"), ("imageio.write.s", "s"), ("cli.self_s", "s")]
    + [("trace.attributed_share", "ratio"), ("trace.overhead", "ratio")]
)


def _second(args, kwargs, name):
    return args[1] if len(args) > 1 else kwargs[name]


def _macs(op, args, kwargs, out) -> int:
    """Multiply-accumulates of one call, from the operand shapes."""
    size = out.data.size
    if op == "conv2d":
        cg, k, _ = _second(args, kwargs, "kernel").shape[1:]
        return size * cg * k * k
    if op == "linear":
        return size * _second(args, kwargs, "weight").shape[1]
    return size * args[0].shape[-1]  # matmul


class Tracer:
    """Records spans and counts while installed; aggregates them per round."""

    def __init__(self):
        self.spans: list[list] = []  # [key, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.block_stage: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, key, on_exit=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keyed = callable(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [key(args) if keyed else key, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(args, kwargs, out)
            return out

        return wrapper

    def _count(self, key):
        counts = self.counts

        def on_exit(args, kwargs, out):
            counts[key] += 1

        return on_exit

    def _tensor_exit(self, op, calls_key):
        counts = self.counts

        def on_exit(args, kwargs, out):
            counts[calls_key] += 1
            counts["tensor.out_bytes"] += out.data.nbytes
            if op in MAC_OPS:
                counts[f"tensor.{op}.macs"] += _macs(op, args, kwargs, out)

        return on_exit

    def _bootstrap_exit(self, args, kwargs, out):
        self.counts["evalrank.bootstrap.pairs"] += 1
        self.counts["bootstrap.used"] += out.used_repeats
        self.counts["bootstrap.requested"] += args[2] if len(args) > 2 else kwargs.get("repeats", 5000)

    def _file_bytes(self, args, kwargs, out):
        self.counts["checkpoint.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])

    def _register_stages(self, args, kwargs, out):
        self.register_model(args[0])

    def register_model(self, model):
        """Map each block of ``model`` to its stage index via ``model.stages``."""
        for i, blocks in enumerate(model.stages):
            for block in blocks:
                self.block_stage[block] = i

    def _block_key(self, args):
        return f"metaformer.stage{self.block_stage.get(args[0], 'x')}"

    def _mixer(self, fn, kind):
        wrapped = self._wrap(fn, f"mixers.{kind}")
        counts = self.counts
        capacity_error = sys.modules["mixerlab.errors"].CapacityError

        @functools.wraps(fn)
        def refusal_counter(*args, **kwargs):
            try:
                return wrapped(*args, **kwargs)
            except capacity_error:
                counts["mixers.capacity_refusals"] += 1
                raise

        return refusal_counter

    # -- installation ----------------------------------------------------

    def _wrappers(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for every traced function."""
        mod = sys.modules
        table: dict[int, tuple[object, object]] = {}

        def add(fn, wrapper):
            table[id(fn)] = (fn, wrapper)

        tensor = mod["mixerlab.tensor"]
        for group, names in TENSOR_GROUPS.items():
            for name in names:
                fn = getattr(tensor, name)
                add(fn, self._wrap(fn, group, self._tensor_exit(name, f"{group}.calls")))
        for op in TENSOR_OPS:
            fn = getattr(tensor, op)
            add(fn, self._wrap(fn, f"tensor.{op}", self._tensor_exit(op, f"tensor.{op}.calls")))
        mixers = mod["mixerlab.mixers"]
        for name, kind in MIXER_FUNCS.items():
            fn = getattr(mixers, name)
            add(fn, self._mixer(fn, kind))
        evalrank = mod["mixerlab.evalrank"]
        add(evalrank.bootstrap_auc_win,
            self._wrap(evalrank.bootstrap_auc_win, "evalrank.bootstrap", self._bootstrap_exit))
        add(evalrank.auc_macro,
            self._wrap(evalrank.auc_macro, "evalrank.auc", self._count("evalrank.auc.calls")))
        checkpoint = mod["mixerlab.checkpoint"]
        for name, key in (("load_arrays", "checkpoint.load"), ("save_arrays", "checkpoint.save")):
            fn = getattr(checkpoint, name)
            add(fn, self._wrap(fn, key, self._file_bytes))
        for module, names, key in FUNCTIONS:
            for name in names:
                fn = getattr(mod[module], name)
                add(fn, self._wrap(fn, key))
        return table

    def install(self):
        table = self._wrappers()
        for name, module in list(sys.modules.items()):
            if name != "mixerlab" and not name.startswith("mixerlab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = table.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        metaformer = sys.modules["mixerlab.metaformer"]
        self._patch(metaformer.Block, "forward",
                    self._wrap(metaformer.Block.forward, self._block_key))
        self._patch(metaformer.MetaFormer, "__init__",
                    self._wrap(metaformer.MetaFormer.__init__, "metaformer.init", self._register_stages))
        for module, cls, name, key in METHODS:
            owner = getattr(sys.modules[module], cls)
            on_exit = self._count("trainer.steps") if key == "trainer.optimizer" else None
            self._patch(owner, name, self._wrap(vars(owner)[name], key, on_exit))

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------

    def take(self, wall_s: float) -> dict[str, float]:
        """Per-layer totals of the spans recorded since the last call."""
        spans, counts = self.spans, self.counts
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        # ancestor key sets, computed parent-first (parents precede children)
        anc: list[frozenset] = [frozenset()] * n
        below: dict[int, frozenset] = {}
        for i, (key, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
                if parent not in below:
                    below[parent] = anc[parent] | {spans[parent][0]}
                anc[i] = below[parent]
        time_of: Counter = Counter()
        self_of: Counter = Counter()
        top = 0.0
        for i, (key, _, _, parent) in enumerate(spans):
            self_of[key] += dur[i] - child[i]
            if parent < 0:
                top += dur[i]
            if key in anc[i]:
                continue
            time_of[key] += dur[i]
            if key == "metaformer.forward":
                if "trainer.train" in anc[i] and "trainer.predict" not in anc[i]:
                    time_of["trainer.forward"] += dur[i]
                if "evalrank.sliding_window" in anc[i]:
                    counts["evalrank.windows"] += 1

        out: dict[str, float] = {}
        for name, _ in PER_LAYER:
            base, _, field = name.rpartition(".")
            if field == "s":
                out[name] = time_of[base]
            elif field == "self_s":
                out[name] = self_of["cli.main" if base == "cli" else base]
            else:
                out[name] = float(counts[name])
        requested = counts["bootstrap.requested"]
        out["evalrank.resample_yield"] = counts["bootstrap.used"] / requested if requested else 0.0
        out["trace.attributed_share"] = top / wall_s
        spans.clear()
        counts.clear()
        return out
