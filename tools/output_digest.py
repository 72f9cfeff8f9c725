"""One digest per output of a mixerlab checkout, to check that a change
keeps every output byte-identical.

    python3 tools/output_digest.py ROOT

runs the mixerlab in ``ROOT/src`` in a subprocess on the seed-1 inputs
that ``perfbench/inputs.py`` (next to this script) writes, and prints one
``name digest`` line per output:

- ``train`` for each of perfbench's six mixer-kind configs;
- ``infer`` on perfbench's S12 checkpoint, with its ``logits.f64``;
- ``rank`` on perfbench's bootstrap and Wilcoxon configs, on a wins CSV,
  at the default 5,000 bootstrap repeats on tied ten-class scores that
  this script writes, with Wilcoxon on 40 tied two-decimal Dice cases
  (the normal approximation and its tie correction; two submissions are
  identical), and on a wins CSV of 33 submissions whose bottom two tie;
- ``flops`` at S12, and ``params`` for the six kinds and one mixed signature;
- a synthetic ``train`` with validation and augmentation, ``eval`` of
  its checkpoint with ``f1`` and with ``auc``, and ``eval`` of the
  ``case_scores.csv`` that the second one writes, through ``scores_csv``;
- the CRC-32 of every S12 parameter gradient, per perfbench ``s12``
  signature, as perfbench computes it;
- the CRC-32 of every parameter gradient of a small seeded segmentation
  model after one training-mode ``forward_segment``, cross-entropy plus
  Dice loss and backward: the one line that covers the decoder's backward;
- ``local_attn_stage0``: the CRC-32 of the output and of the input and
  weight gradients of one ``local_attn:7`` mixer at S12's stage-0 size
  (C=64, 56x56) and B=2, or ``refused <error>`` where the mixer refuses.

A digest is the first 16 hex digits of the file's SHA-256; in
``resolved_config.ini`` the temporary directory is replaced by ``<tmp>``
first. A command that fails prints ``name exit <code>``. Everything is
written under a temporary directory, which is removed at exit. Run it on
two checkouts and diff the two outputs:

    python3 tools/output_digest.py ../base > base.txt
    python3 tools/output_digest.py . > head.txt
    diff base.txt head.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import zlib

import numpy as np

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SEED = 1
SYNTHETIC_TRAIN = """[model]
channels = 8,16,24,32
depths = 1,1,1,1
signature = pooling:3,conv:3,grouped_conv:3,global_attn
input = 32x32
head = classify
classes = 2
[train]
epochs = 4
batch_size = 8
warmup_epochs = 1
augment_sigma = 0.05
max_steps = 12
[data]
kind = synthetic
n = 32
val_n = 8
"""
WINS = "submission,dataset,wins\npooling,ds1,2\nconv,ds1,0\nglobal_attn,ds1,1\npooling,ds2,0\nconv,ds2,1\n"
PARAMS = "[params]\nsignatures = identity; pooling:3; conv:3; grouped_conv:3; local_attn:7; global_attn; " \
         "pooling:3,pooling:3,local_attn:7,global_attn\n"


def _segment_grads_crc(mixerlab) -> str:
    """One training-mode segmentation step's loss and parameter gradients,
    chained into one CRC-32 the way perfbench's ``s12`` chains them."""
    mf, tensor, trainer = mixerlab.metaformer, mixerlab.tensor, mixerlab.trainer
    cfg = mf.ModelConfig(stage_channels=(8, 16, 24, 32), stage_depths=(1, 1, 2, 1), head="segment",
                         num_classes=3, decoder_dim=16, input_hw=(32, 32),
                         signature=mf.parse_signature("pooling:3,conv:3,local_attn:3,global_attn"))
    model = mf.MetaFormer(cfg, seed=SEED)
    rng = np.random.default_rng(SEED)
    image, mask = rng.uniform(0.0, 1.0, (2, 3, 32, 32)), rng.integers(0, 3, (2, 32, 32))
    with tensor.Tape() as tape:
        logits = model.forward_segment(tensor.Tensor(image), training=True, rng=rng)
        loss = tensor.add(trainer.ce_loss(logits, mask), trainer.dice_loss(logits, mask))
    tape.backward(loss)
    crc = zlib.crc32(np.asarray(loss.data).tobytes())
    for name, p in model.named_parameters().items():
        if p.grad is not None:
            crc = zlib.crc32(np.ascontiguousarray(p.grad).data, zlib.crc32(name.encode(), crc))
    return f"{crc:08x}"


def _local_attn_stage0_crc(mixerlab) -> str:
    """One ``local_attn:7`` mixer at C=64, 56x56, B=2 and a seeded probe of
    its output: the output and the gradients of x and of the four weights,
    chained into one CRC-32."""
    mixers, tensor = mixerlab.mixers, mixerlab.tensor
    spec = mixers.MixerSpec("local_attn", 7)
    params = mixers.init_mixer_params(spec, 64, tensor.Registry(np.random.default_rng(SEED)))
    rng = np.random.default_rng(SEED)
    x = tensor.Tensor(rng.standard_normal((2, 64, 56, 56)), requires_grad=True)
    try:
        with tensor.Tape() as tape:
            y = mixers.apply_mixer(spec, params, x)
            loss = tensor.tsum(tensor.mul(y, rng.standard_normal(y.shape)))
        tape.backward(loss)
    except mixerlab.errors.MixerlabError as exc:
        return f"refused {type(exc).__name__}"
    crc = zlib.crc32(y.data.tobytes())
    for name, grad in [("x", x.grad)] + [(name, p.grad) for name, p in params.items()]:
        crc = zlib.crc32(np.ascontiguousarray(grad).data, zlib.crc32(name.encode(), crc))
    return f"{crc:08x}"


def _digest(path: str, tmp: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "resolved_config.ini":
        data = data.replace(tmp.encode(), b"<tmp>")
    return hashlib.sha256(data).hexdigest()[:16]


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _write_tied_scores(root: str) -> str:
    """Four submissions of rising skill over 60 cases and ten classes, some
    classes rare, so that resamples miss them; scores have one decimal, so
    that ranks tie. Returns the scores directory."""
    rng = np.random.default_rng(SEED)
    labels = np.r_[np.arange(10), rng.choice(10, size=50, p=rng.dirichlet(np.full(10, 0.7)))]
    ids = [f"case{i}" for i in range(labels.size)]
    os.makedirs(root)
    for s, skill in enumerate((0.0, 0.1, 0.2, 0.6)):
        scores = (skill * np.eye(10)[labels] + rng.random((labels.size, 10))).round(1)
        lines = ["case_id,label," + ",".join(f"score_{k}" for k in range(10))]
        for cid, label, row in zip(ids, labels, scores):
            lines.append(f"{cid},{label}," + ",".join(map(repr, row.tolist())))
        _write(os.path.join(root, f"tied__s{s}.csv"), "\n".join(lines) + "\n")
    return root


def _write_tied_dice(root: str) -> str:
    """Four submissions over 40 cases, Dice at two decimals, so that |d|
    ties; ``s1`` repeats ``s0``, so that pair's differences are all zero.
    Returns the scores directory."""
    rng = np.random.default_rng(SEED)
    base = rng.random(40) * 0.5 + 0.3
    dice = [base, base] + [base + shift + rng.normal(0.0, 0.03, 40) for shift in (0.02, 0.06)]
    os.makedirs(root)
    for s, values in enumerate(dice):
        rows = "".join(f"c{i},{v!r}\n" for i, v in enumerate(values.round(2).tolist()))
        _write(os.path.join(root, f"dice__s{s}.csv"), "case_id,dsc\n" + rows)
    return root


def run_program(root: str, tmp: str) -> list[str]:
    """Every output of the checkout at ``root``, as ``name digest`` lines."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path[:0] = [src, PERFBENCH]
    import mixerlab.cli
    import inputs
    import workloads

    if not os.path.abspath(mixerlab.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"mixerlab was imported from {mixerlab.cli.__file__}, not {src}")
    lines: list[str] = []

    def command(name: str, cmd: str, config: str):
        out = os.path.join(tmp, "out", name)
        rc = mixerlab.cli.main([cmd, "--config", config, "--seed", str(SEED), "--out", out])
        if rc:
            lines.append(f"{name} exit {rc}")
        for file in sorted(os.listdir(out)) if os.path.isdir(out) else ():
            lines.append(f"{name}/{file} {_digest(os.path.join(out, file), tmp)}")
        return out

    for config in inputs.write_train_inputs(os.path.join(tmp, "train"), SEED):
        command(os.path.basename(config)[:-len(".ini")], "train", config)
    mf, ckpt = mixerlab.metaformer, mixerlab.checkpoint
    config = inputs.write_infer_inputs(os.path.join(tmp, "infer"), SEED, mf.MetaFormer, mf.ModelConfig,
                                       ckpt.save_model)
    with open(config) as fh:
        command("infer", "infer", _write(config, fh.read() + "save_logits = true\n"))
    for config in inputs.write_rank_inputs(os.path.join(tmp, "rank"), SEED):
        command(os.path.basename(config)[:-len(".ini")], "rank", config)
    wins = _write(os.path.join(tmp, "wins.csv"), WINS)
    command("rank_wins", "rank", _write(os.path.join(tmp, "rank_wins.ini"), f"[rank]\nwins_csv = {wins}\n"))
    tied = _write_tied_scores(os.path.join(tmp, "tied_scores"))
    text = f"[rank]\nmode = scores\nscores_dir = {tied}\n"  # the default bootstrap and repeats
    command("rank_tied", "rank", _write(os.path.join(tmp, "rank_tied.ini"), text))
    dice = _write_tied_dice(os.path.join(tmp, "tied_dice"))
    text = f"[rank]\nmode = scores\nscores_dir = {dice}\ncomparator = wilcoxon\n"
    command("rank_wilcoxon_tied", "rank", _write(os.path.join(tmp, "rank_wilcoxon_tied.ini"), text))
    wins = _write(os.path.join(tmp, "wins_tied.csv"), "submission,dataset,wins\n" + "".join(
        f"s{i},ds1,{max(i - 1, 0)}\n" for i in range(33)))  # s0 and s1 tie at the bottom
    command("rank_wins_tied", "rank", _write(os.path.join(tmp, "rank_wins_tied.ini"), f"[rank]\nwins_csv = {wins}\n"))
    command("flops", "flops", _write(os.path.join(tmp, "flops.ini"), "[flops]\nkernel = 3\n"))
    command("params", "params", _write(os.path.join(tmp, "params.ini"), PARAMS))
    trained = command("train_synthetic", "train", _write(os.path.join(tmp, "synthetic.ini"), SYNTHETIC_TRAIN))
    for metric in ("f1", "auc"):
        text = f"[eval]\nmetric = {metric}\ncheckpoint = {trained}/checkpoint.mxlc\n[data]\nn = 16\n"
        evaluated = command(f"eval_{metric}", "eval", _write(os.path.join(tmp, f"eval_{metric}.ini"), text))
    text = f"[eval]\nmetric = f1\nscores_csv = {evaluated}/case_scores.csv\n"
    command("eval_scores_csv", "eval", _write(os.path.join(tmp, "eval_scores_csv.ini"), text))

    lines.append(f"segment_grads {_segment_grads_crc(mixerlab)}")
    lines.append(f"local_attn_stage0 {_local_attn_stage0_crc(mixerlab)}")

    # perfbench's s12 pass, one signature at a time so that one S12 model is alive
    s12 = workloads.S12(os.path.join(tmp, "s12"), SEED)
    for signature in workloads.S12.SIGNATURES:
        s12.SIGNATURES = (signature,)
        s12.prepare()
        op = s12.run_round()[0]
        crc = s12.reference.get(signature)
        lines.append(f"s12/{signature} " + (f"{crc:08x}" if op.ok else f"failed {op.error}"))
        s12.models = None
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--in-subprocess":
        print("\n".join(run_program(argv[1], argv[2])))
        return 0
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "src", "mixerlab")):
        print("usage: python3 tools/output_digest.py ROOT  (ROOT holds src/mixerlab)", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # write nothing into either checkout
    with tempfile.TemporaryDirectory(prefix="output_digest_") as tmp:
        child = [sys.executable, os.path.abspath(__file__), "--in-subprocess", os.path.abspath(argv[0]), tmp]
        done = subprocess.run(child, cwd=tmp, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
