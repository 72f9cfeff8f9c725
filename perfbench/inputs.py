"""Seeded input generation for every workload.

Every file the program reads is written here from the workload seed: the
two-class training images, the segmentation checkpoint, the inference
image and the per-case score CSVs. The same seed gives the same bytes.
The program itself only ever receives an INI config that points at them.
"""

from __future__ import annotations

import os

import numpy as np

TRAIN_N = 64
TRAIN_HW = (32, 32)
TRAIN_KINDS = ("identity", "pooling:3", "conv:3", "grouped_conv:3", "local_attn:3", "global_attn")
TRAIN_MAX_STEPS = 40
TRAIN_BATCH = 16

INFER_HW = (300, 410)  # neither side is a multiple of the 168-pixel stride
INFER_CLASSES = 3

RANK_SUBMISSIONS = 12
RANK_CASES = 200
RANK_CLASSES = 3
RANK_REPEATS = 100  # the bootstrap's documented floor
WILCOXON_SUBMISSIONS = 6
WILCOXON_CASES = 20  # at most 25 nonzero differences keeps the test exact


def write_ppm(path: str, rgb: np.ndarray):
    """Binary P6 from a (3, H, W) uint8 array."""
    _, h, w = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode() + rgb.transpose(1, 2, 0).tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Parse a binary P5 file written by the program (no comments, maxval 255)."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, w, h, maxval, body = data.split(maxsplit=4)
    if magic != b"P5" or int(maxval) != 255 or len(body) != int(w) * int(h):
        raise ValueError(f"{path}: not an 8-bit P5 image")
    return np.frombuffer(body, dtype=np.uint8).reshape(int(h), int(w))


def _to_u8(x: np.ndarray) -> np.ndarray:
    return np.clip(np.round(x * 255.0), 0, 255).astype(np.uint8)


def two_class_images(rng: np.random.Generator, n: int, hw: tuple[int, int]):
    """Class 0 has a bright blob top-left, class 1 bottom-right and a warmer
    red channel; Gaussian noise on a mid-grey background."""
    h, w = hw
    labels = np.arange(n) % 2
    rng.shuffle(labels)
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    blobs = [
        np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (h * w / 32))
        for cy, cx in ((h / 4, w / 4), (3 * h / 4, 3 * w / 4))
    ]
    images = 0.5 + rng.normal(0.0, 0.1, size=(n, 3, h, w))
    for i, label in enumerate(labels):
        images[i, 0] += 0.3 if label else -0.3
        images[i, 1] += 0.45 * blobs[label]
    return _to_u8(images), labels


def write_train_inputs(root: str, seed: int) -> list[str]:
    """Image directory, labels CSV and one config per mixer kind."""
    rng = np.random.default_rng([seed, 1])
    image_dir = os.path.join(root, "images")
    os.makedirs(image_dir, exist_ok=True)
    images, labels = two_class_images(rng, TRAIN_N, TRAIN_HW)
    rows = ["path,label"]
    for i, (image, label) in enumerate(zip(images, labels)):
        name = f"case_{i:03d}.ppm"
        write_ppm(os.path.join(image_dir, name), image)
        rows.append(f"{name},{label}")
    labels_csv = os.path.join(root, "labels.csv")
    with open(labels_csv, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    configs = []
    for kind in TRAIN_KINDS:
        path = os.path.join(root, f"train_{kind.partition(':')[0]}.ini")
        with open(path, "w") as fh:
            fh.write(
                "[model]\n"
                "channels = 8,16,24,32\n"
                "depths = 1,1,1,1\n"
                f"signature = {','.join([kind] * 4)}\n"
                f"input = {TRAIN_HW[0]}x{TRAIN_HW[1]}\n"
                "head = classify\n"
                "classes = 2\n"
                "[train]\n"
                "epochs = 100\n"
                f"batch_size = {TRAIN_BATCH}\n"
                "warmup_epochs = 2\n"
                f"max_steps = {TRAIN_MAX_STEPS}\n"
                "[data]\n"
                "kind = image_dir\n"
                f"image_dir = {image_dir}\n"
                f"labels_csv = {labels_csv}\n"
            )
        configs.append(path)
    return configs


def smooth_rgb(rng: np.random.Generator, hw: tuple[int, int]) -> np.ndarray:
    """A few random Gaussian blobs per channel over noise, as uint8."""
    h, w = hw
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    image = 0.3 + rng.normal(0.0, 0.05, size=(3, h, w))
    for c in range(3):
        for cy, cx, r, a in zip(rng.uniform(0, h, 4), rng.uniform(0, w, 4),
                                rng.uniform(20, 80, 4), rng.uniform(0.2, 0.6, 4)):
            image[c] += a * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * r * r))
    return _to_u8(image)


def write_infer_inputs(root: str, seed: int, model_cls, config_cls, save_model) -> str:
    """An S12 pooling:3 segmentation checkpoint with seeded weights, an RGB
    PPM and the infer config. The checkpoint goes through the program's own
    writer, so its format always matches the reader under test."""
    rng = np.random.default_rng([seed, 2])
    os.makedirs(root, exist_ok=True)
    image = os.path.join(root, "scene.ppm")
    write_ppm(image, smooth_rgb(rng, INFER_HW))
    config = config_cls(head="segment", num_classes=INFER_CLASSES)
    checkpoint = os.path.join(root, "seg_s12.mxlc")
    save_model(checkpoint, model_cls(config, seed=int(rng.integers(2**31))))
    path = os.path.join(root, "infer.ini")
    with open(path, "w") as fh:
        fh.write(f"[infer]\ncheckpoint = {checkpoint}\nimage = {image}\n")
    return path


def write_rank_inputs(root: str, seed: int) -> tuple[str, str]:
    """Bootstrap (AUC) and Wilcoxon (DSC) score directories plus configs."""
    rng = np.random.default_rng([seed, 3])
    auc_dir = os.path.join(root, "auc_scores")
    os.makedirs(auc_dir, exist_ok=True)
    labels = np.arange(RANK_CASES) % RANK_CLASSES
    rng.shuffle(labels)
    onehot = np.eye(RANK_CLASSES)[labels]
    ids = [f"case_{i:04d}" for i in range(RANK_CASES)]
    # a quality ladder, so some pairs differ significantly and others tie
    for s, skill in enumerate(np.linspace(0.2, 2.0, RANK_SUBMISSIONS)):
        logits = skill * onehot + rng.normal(0.0, 1.0, size=onehot.shape)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        lines = ["case_id,label," + ",".join(f"score_{k}" for k in range(RANK_CLASSES))]
        for cid, label, row in zip(ids, labels, probs):
            lines.append(f"{cid},{label}," + ",".join(repr(float(v)) for v in row))
        with open(os.path.join(auc_dir, f"cls__sub{s:02d}.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")

    dsc_dir = os.path.join(root, "dsc_scores")
    os.makedirs(dsc_dir, exist_ok=True)
    base = rng.uniform(0.55, 0.8, WILCOXON_CASES)
    for s in range(WILCOXON_SUBMISSIONS):
        dsc = np.clip(base + 0.03 * s + rng.normal(0.0, 0.04, WILCOXON_CASES), 0.0, 1.0)
        lines = ["case_id,dsc"] + [f"c{i:02d},{float(v)!r}" for i, v in enumerate(dsc)]
        with open(os.path.join(dsc_dir, f"seg__sub{s:02d}.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")

    configs = []
    for name, body in (
        ("rank_bootstrap.ini",
         f"mode = scores\nscores_dir = {auc_dir}\ncomparator = bootstrap\nrepeats = {RANK_REPEATS}\n"),
        ("rank_wilcoxon.ini", f"mode = scores\nscores_dir = {dsc_dir}\ncomparator = wilcoxon\n"),
    ):
        path = os.path.join(root, name)
        with open(path, "w") as fh:
            fh.write("[rank]\n" + body)
        configs.append(path)
    return configs[0], configs[1]
