"""The four workloads: train, s12, infer and rank.

A workload prepares its inputs from the seed, then runs rounds. A round is
a fixed list of operations; each operation is one CLI command (or, for
s12, one forward+backward pass) timed on its own and followed by an output
check outside the timed region. A failed command, a MixerlabError or a
failed check marks the operation failed and the run goes on.

Checks never compare floats against stored digests: outputs are compared
with the first round of the same process, and against bounds.
"""

from __future__ import annotations

import csv
import io
import os
import statistics
import sys
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

import inputs


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    parts: dict = field(default_factory=dict)  # sub-timings, such as fwd and bwd
    error: str = ""


def _mixerlab(name: str):
    return sys.modules[f"mixerlab.{name}"]


def cli_op(name: str, command: str, config: str, seed: int, out: str, check) -> Op:
    """One in-process ``mixerlab`` command, timed, then ``check(out)``.

    A traceback counts as exit 1. ``check`` returns an error message, or ""
    when the output is right; output it cannot read fails the operation.
    """
    argv = [command, "--config", config, "--seed", str(seed), "--out", out]
    start = time.perf_counter()
    try:
        rc, error = _mixerlab("cli").main(argv), ""
    except SystemExit as exc:
        rc, error = (exc.code if isinstance(exc.code, int) else 1), "SystemExit"
    except Exception as exc:  # the CLI boundary: any escape is a failed command
        rc, error = 1, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if rc == 0:
        try:
            error = check(out)
        except (OSError, ValueError, KeyError) as exc:
            error = f"unreadable output: {exc}"
    elif not error:
        error = f"exit {rc}"
    return Op(name, seconds, not error, error=error)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Workload:
    name = ""
    # a shared host's speed can swing by tens of percent from second to
    # second, so a run averages several rounds even where one round is long
    min_rounds = 3

    def __init__(self, work_dir: str, seed: int):
        self.dir = work_dir
        self.seed = seed
        self.reference: dict[str, object] = {}

    def prepare(self):
        """Write every input from the seed; called several times for set-up timing."""
        raise NotImplementedError

    def run_round(self) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> list[Op]:
        """Operations run before the timed rounds, so caches and lazy set-up
        fill: a whole round by default, since s12 keeps its models across rounds."""
        return self.run_round()

    def named(self, means: dict[str, float], parts: dict[str, float]) -> dict[str, tuple[float, str]]:
        """The workload's own headline numbers, from per-operation means."""
        raise NotImplementedError

    def live_models(self) -> list:
        return []

    def same_as_first(self, key: str, value) -> bool:
        first = self.reference.setdefault(key, value)
        return first == value


class Train(Workload):
    """``mixerlab train`` once per mixer kind on the tiny configuration."""

    name = "train"
    SAMPLES = inputs.TRAIN_MAX_STEPS * inputs.TRAIN_BATCH  # TRAIN_N is a multiple of the batch

    def prepare(self):
        self.configs = inputs.write_train_inputs(os.path.join(self.dir, "in"), self.seed)

    def _one(self, config: str) -> Op:
        kind = os.path.basename(config)[len("train_"):-len(".ini")]

        def check(out):
            text = _read(os.path.join(out, "train_summary.csv")).decode()
            acc = float(dict(line.split(",", 1) for line in text.split())["final_train_accuracy"])
            if not os.path.getsize(os.path.join(out, "checkpoint.mxlc")):
                return "empty checkpoint"
            return "" if acc >= 0.95 else f"final_train_accuracy {acc}"

        return cli_op(kind, "train", config, self.seed, os.path.join(self.dir, "out", kind), check)

    def warm_up(self) -> list[Op]:
        return [self._one(self.configs[0])]  # every command builds its own model

    def run_round(self) -> list[Op]:
        return [self._one(c) for c in self.configs]

    def named(self, means, parts):
        total = sum(means.values())
        return {"train_samples_per_s": (self.SAMPLES * len(means) / total, "1/s")}


class S12(Workload):
    """S12 at 224x224, B=1: training-mode forward, smoothed CE and
    ``Tape.backward`` per signature, through the library API."""

    name = "s12"
    min_rounds = 2  # BLAS-bound passes vary little, and warm-up costs a round already
    SIGNATURES = (
        "identity", "pooling:3", "grouped_conv:3", "conv:3",
        "pooling:3,pooling:3,local_attn:7,local_attn:7",
        "pooling:3,pooling:3,global_attn,global_attn",
    )

    def prepare(self):
        mf = _mixerlab("metaformer")
        rng = np.random.default_rng([self.seed, 4])
        self.image = rng.uniform(0.0, 1.0, size=(1, 3, 224, 224))
        self.target = rng.integers(0, 10, size=1)
        self.models = None  # release the previous set before building the next
        models = []
        for text in self.SIGNATURES:
            specs = mf.parse_signature(text)
            specs = specs * 4 if len(specs) == 1 else specs
            models.append(mf.MetaFormer(mf.ModelConfig(signature=specs), seed=self.seed))
        self.models = models

    def live_models(self):
        return self.models

    def _pass(self, text: str, model) -> Op:
        tensor, trainer = _mixerlab("tensor"), _mixerlab("trainer")
        errors = _mixerlab("errors")
        fwd = bwd = 0.0
        try:
            start = time.perf_counter()
            with tensor.Tape() as tape:
                logits = model.forward_classify(
                    tensor.Tensor(self.image), training=True, rng=np.random.default_rng(self.seed))
                loss = trainer.ce_loss(logits, self.target, None, smoothing=0.1)
            mid = time.perf_counter()
            tape.backward(loss)
            fwd, bwd = mid - start, time.perf_counter() - mid
        except errors.MixerlabError as exc:
            model.zero_grad()
            return Op(text, fwd + bwd, False, {"fwd": fwd, "bwd": bwd}, f"{type(exc).__name__}: {exc}")
        # CRC-32 catches any burst of up to 32 flipped bits, so a rerun that
        # moves one last bit of one gradient shows
        crc = zlib.crc32(np.asarray(loss.data).tobytes())
        finite = bool(np.isfinite(loss.data))
        for name, p in model.named_parameters().items():
            if p.grad is not None:
                finite = finite and bool(np.isfinite(p.grad).all())
                crc = zlib.crc32(np.ascontiguousarray(p.grad).data, zlib.crc32(name.encode(), crc))
        model.zero_grad()
        ok = finite and self.same_as_first(text, crc)
        error = "" if ok else ("non-finite loss or gradient" if not finite else "rerun differs")
        return Op(text, fwd + bwd, ok, {"fwd": fwd, "bwd": bwd}, error)

    def run_round(self) -> list[Op]:
        return [self._pass(t, m) for t, m in zip(self.SIGNATURES, self.models)]

    def named(self, means, parts):
        return {"s12_fwd_s": (parts["fwd"], "s"), "s12_bwd_s": (parts["bwd"], "s")}


class Infer(Workload):
    """``mixerlab infer`` on a seeded S12 pooling:3 segmentation checkpoint."""

    name = "infer"

    def prepare(self):
        mf, ckpt = _mixerlab("metaformer"), _mixerlab("checkpoint")
        self.config = inputs.write_infer_inputs(
            os.path.join(self.dir, "in"), self.seed, mf.MetaFormer, mf.ModelConfig, ckpt.save_model)

    def run_round(self) -> list[Op]:
        def check(out):
            path = os.path.join(out, "mask.pgm")
            shape = inputs.read_pgm(path).shape
            if shape != inputs.INFER_HW:
                return f"mask shape {shape}"
            return "" if self.same_as_first("mask", _read(path)) else "rerun differs"

        return [cli_op("infer", "infer", self.config, self.seed, os.path.join(self.dir, "out"), check)]

    def named(self, means, parts):
        mpix = inputs.INFER_HW[0] * inputs.INFER_HW[1] / 1e6
        return {"infer_mpix_per_s": (mpix / means["infer"], "Mpix/s")}


class Rank(Workload):
    """``mixerlab rank`` with mode = scores: a 12-submission bootstrap
    tournament over AUC and a small exact-Wilcoxon one over DSC."""

    name = "rank"
    min_rounds = 5  # one round is a single interpreter-bound command of 5-8 s
    PAIRS = inputs.RANK_SUBMISSIONS * (inputs.RANK_SUBMISSIONS - 1) // 2

    def prepare(self):
        self.configs = inputs.write_rank_inputs(os.path.join(self.dir, "in"), self.seed)

    def _one(self, name: str, config: str, submissions: int) -> Op:
        def check(out):
            table = _read(os.path.join(out, "rank_table.csv"))
            rows = list(csv.DictReader(io.StringIO(table.decode())))
            wins = [int(v) for row in rows for k, v in row.items() if k.endswith("_wins")]
            if len(rows) != submissions or not all(0 <= w <= submissions - 1 for w in wins):
                return "win count out of range"
            return "" if self.same_as_first(name, table) else "rerun differs"

        return cli_op(name, "rank", config, self.seed, os.path.join(self.dir, "out", name), check)

    def run_round(self) -> list[Op]:
        boot, wilcoxon = self.configs
        return [
            self._one("bootstrap", boot, inputs.RANK_SUBMISSIONS),
            self._one("wilcoxon", wilcoxon, inputs.WILCOXON_SUBMISSIONS),
        ]

    def warm_up(self) -> list[Op]:
        return [self._one("wilcoxon", self.configs[1], inputs.WILCOXON_SUBMISSIONS)]

    def named(self, means, parts):
        return {"rank_pairs_per_s": (self.PAIRS / means["bootstrap"], "1/s")}


WORKLOADS = {w.name: w for w in (Train, S12, Infer, Rank)}


def means(rounds: list[list[Op]]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-operation mean seconds, and each sub-timing's means summed.

    A mean, not a median: a shared host's CPU can switch between a fast and
    a slow speed within seconds, and only the average over the whole run
    settles between them. The median of a few rounds lands on one speed or
    the other, and which one varies from run to run.
    """
    by_op: dict[str, list[Op]] = {}
    for ops in rounds:
        for op in ops:
            by_op.setdefault(op.name, []).append(op)
    op_mean = {name: statistics.fmean(o.seconds for o in ops) for name, ops in by_op.items()}
    parts: dict[str, float] = {}
    for ops in by_op.values():
        for key in ops[0].parts:
            parts[key] = parts.get(key, 0.0) + statistics.fmean(o.parts[key] for o in ops)
    return op_mean, parts
