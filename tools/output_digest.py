"""One digest per output of a mixerlab checkout, to check that a change
keeps every output byte-identical.

    python3 tools/output_digest.py ROOT

runs the mixerlab in ``ROOT/src`` in a subprocess on the seed-1 inputs
that ``perfbench/inputs.py`` (next to this script) writes, and prints one
``name digest`` line per output:

- ``train`` for each of perfbench's six mixer-kind configs;
- ``infer`` on perfbench's S12 checkpoint, with its ``logits.f64``;
- ``rank`` on perfbench's bootstrap and Wilcoxon configs;
- ``flops`` at S12, and ``params`` for the six kinds and one mixed signature;
- a synthetic ``train`` with validation and augmentation, and ``eval`` of
  its checkpoint with ``f1`` and with ``auc``;
- the CRC-32 of every S12 parameter gradient, per perfbench ``s12``
  signature, as perfbench computes it.

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
PARAMS = "[params]\nsignatures = identity; pooling:3; conv:3; grouped_conv:3; local_attn:7; global_attn; " \
         "pooling:3,pooling:3,local_attn:7,global_attn\n"


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
    command("flops", "flops", _write(os.path.join(tmp, "flops.ini"), "[flops]\nkernel = 3\n"))
    command("params", "params", _write(os.path.join(tmp, "params.ini"), PARAMS))
    trained = command("train_synthetic", "train", _write(os.path.join(tmp, "synthetic.ini"), SYNTHETIC_TRAIN))
    for metric in ("f1", "auc"):
        text = f"[eval]\nmetric = {metric}\ncheckpoint = {trained}/checkpoint.mxlc\n[data]\nn = 16\n"
        command(f"eval_{metric}", "eval", _write(os.path.join(tmp, f"eval_{metric}.ini"), text))

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
