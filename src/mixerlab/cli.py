"""Command-line surface: flops, params, train, eval, rank, infer.

Every command is a pure function of (config file, seed, input files) and
writes byte-identical outputs on re-runs. An INI config is read once,
against one schema table per section: unknown sections or keys and values
that do not parse are config errors, and every run that succeeds writes
``resolved_config.ini`` with every effective value, defaults included.
Exit codes: 0 ok, 2 config error, 3 data error (including a file that
cannot be read or written), 4 numeric abort.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any

import numpy as np

from . import checkpoint as ckpt
from .charts import grouped_bar_svg
from .complexity import KINDS, stage_sweep, sweep_to_csv
from .config import BOOL, COUNT, FLOAT, FRACTION, INT, KERNEL, NONNEG, TEXT, Key, choice
from .config import field_values, format_section, owned_by, parse_value, read_ini
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    MixerlabError,
    NumericsError,
    ShapeError,
)
from .evalrank import (
    CaseScores,
    aggregate_geomean,
    auc_macro,
    csv_table,
    csv_text,
    f1_macro,
    normalize_ranks,
    pairwise_wins,
    rank_table_csv,
    read_case_scores_csv,
    sliding_window_infer,
    write_case_scores_csv,
)
from .imageio import read_image_as_float, write_pgm, write_raw_f64
from .metaformer import MODEL_KEYS, MetaFormer, ModelConfig, count_params
from .metaformer import format_signature, parse_signature
from .tensor import Tensor
from .trainer import (
    TrainConfig,
    grad_norm_monitor,
    make_two_class_blobs,
    predict_scores,
    train_classifier,
)

TRAIN_KEYS = owned_by(
    TrainConfig,
    Key("epochs", INT),
    Key("batch_size", INT),
    Key("lr", FLOAT),
    Key("min_lr", FLOAT),
    Key("weight_decay", FLOAT),
    Key("warmup_epochs", NONNEG),
    Key("label_smoothing", FLOAT),
    Key("class_weight_clamp", FLOAT),
    Key("augment_sigma", FLOAT),
    Key("max_steps", COUNT),
)

# params counts S12-layout models; of the [model] keys it takes only these
PARAMS_KEYS = (Key("signatures", TEXT),) + tuple(
    k for k in MODEL_KEYS if k.field in ("head", "num_classes", "input_hw")
)

SCHEMA = {
    "model": MODEL_KEYS,
    "train": TRAIN_KEYS,
    "data": (
        Key("kind", choice("synthetic", "image_dir"), "synthetic"),
        Key("n", COUNT, 128),
        Key("val_n", NONNEG, 0),
        Key("image_dir", TEXT),
        Key("labels_csv", TEXT),
    ),
    "eval": (
        Key("metric", choice("auc", "f1"), "auc"),
        Key("scores_csv", TEXT),
        Key("checkpoint", TEXT),
        Key("dataset", TEXT, "dataset"),
        Key("submission", TEXT, "model"),
    ),
    "rank": (
        Key("mode", choice("wins", "scores"), "wins"),
        Key("wins_csv", TEXT),
        Key("scores_dir", TEXT),
        Key("comparator", choice("bootstrap", "wilcoxon"), "bootstrap"),
        Key("repeats", INT, 5000),
        Key("alpha", FRACTION, 0.05),
    ),
    "infer": (
        Key("checkpoint", TEXT),
        Key("image", TEXT),
        Key("overlap", FLOAT, 0.25),
        Key("save_logits", BOOL, False),
    ),
    "flops": (Key("kernel", KERNEL, 3),),
    "params": PARAMS_KEYS,
    "run": (Key("seed", NONNEG, 0),),
}

Config = dict[str, dict[str, Any]]


def load_config(path: str, command: str) -> Config:
    """Typed values of every section ``command`` reads, defaults filled in."""
    schema = {section: SCHEMA[section] for section in _COMMANDS[command][1]}
    return read_ini(_read_text(path, ConfigError), schema)


def resolved_ini(cfg: Config) -> str:
    """Deterministic dump of the fully resolved configuration."""
    return "\n".join(format_section(section, SCHEMA[section], values) for section, values in cfg.items())


def _read_text(path: str, error: type[MixerlabError] = DataError) -> str:
    """UTF-8 text of a file; a missing file or other bytes raise ``error``."""
    if not os.path.isfile(path):
        raise error(f"file not found: {path}")
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _csv_rows(path: str, header: str) -> list[list[str]]:
    """The rows of a CSV file that starts with ``header``: at least one, and no empty field."""
    found, rows = csv_table(_read_text(path), path)
    if found != header.split(","):
        raise DataError(f"{path} must start with {header!r}")
    if not rows:
        raise DataError(f"{path}: no rows")
    for row in rows:
        if "" in row:
            raise DataError(f"{path}: row {','.join(row)!r} has an empty field")
    return rows


def _write(out_dir: str, name: str, content: str | bytes):
    os.makedirs(out_dir, exist_ok=True)
    mode = "wb" if isinstance(content, bytes) else "w"
    with open(os.path.join(out_dir, name), mode) as fh:
        fh.write(content)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_flops(cfg: Config, out_dir: str):
    config = ModelConfig(**field_values(MODEL_KEYS, cfg["model"]))
    reports = stage_sweep(config, kernel=cfg["flops"]["kernel"])
    _write(out_dir, "flops.csv", sweep_to_csv(reports))
    series = {kind: [r.flops for r in reports if r.kind == kind] for kind in KINDS}
    svg = grouped_bar_svg("token-mixer FLOPs per stage", [f"stage{i}" for i in range(4)], series)
    _write(out_dir, "flops.svg", svg)


def cmd_params(cfg: Config, out_dir: str):
    sec = cfg["params"]
    if sec["signatures"] is None:
        raise ConfigError("[params] needs `signatures`")
    entries = [e.strip() for e in sec["signatures"].split(";") if e.strip()]
    rows = [("signature", "backbone_ex_mixers", "mixers", "pos_emb", "head", "total")]
    for entry in entries:
        try:
            specs = parse_signature(entry)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"invalid signature {entry!r}: {exc}") from exc
        if len(specs) == 1:
            specs = tuple(specs[0] for _ in range(4))
        if len(specs) != 4:
            raise ConfigError(f"signature {entry!r} must name 1 or 4 mixers")
        config = ModelConfig(signature=specs, **field_values(PARAMS_KEYS, sec))
        counts = count_params(MetaFormer(config, seed=cfg["run"]["seed"]))
        sig_label = format_signature(specs).replace(",", "|")
        rows.append([sig_label] + [counts[k] for k in rows[0][1:]])
    _write(out_dir, "params.csv", csv_text(rows))


def _load_dataset(data: dict[str, Any], config: ModelConfig, seed: int):
    kind, others = data["kind"], {"synthetic": ("image_dir", "labels_csv"), "image_dir": ("n", "val_n")}
    for key in SCHEMA["data"]:
        if key.name in others[kind] and data[key.name] != key.default:
            raise ConfigError(f"[data] {key.name} is not read with kind = {kind}")
    if kind == "synthetic":
        images, labels = make_two_class_blobs(data["n"], hw=config.input_hw, seed=seed)
        val = None
        if data["val_n"] > 0:
            val = make_two_class_blobs(data["val_n"], hw=config.input_hw, seed=seed + 1)
        return images, labels, val
    image_dir, labels_csv = data["image_dir"], data["labels_csv"]
    if not image_dir or not labels_csv:
        raise ConfigError("[data] kind=image_dir needs image_dir and labels_csv")
    rows = _csv_rows(labels_csv, "path,label")
    try:
        labels = np.array([int(label) for _, label in rows])
    except ValueError:
        raise DataError(f"{labels_csv}: labels must be integers") from None
    if ((labels < 0) | (labels >= config.num_classes)).any():
        raise DataError(f"{labels_csv}: labels must be in [0, {config.num_classes})")
    paths = [os.path.normpath(rel) for rel, _ in rows]
    if len(set(paths)) < len(paths):
        repeated = next(p for i, p in enumerate(paths) if p in paths[:i])
        raise DataError(f"{labels_csv}: image {repeated!r} repeats")
    images = [read_image_as_float(os.path.join(image_dir, rel)) for rel, _ in rows]
    if len({im.shape for im in images}) > 1:
        raise DataError(f"{image_dir}: images differ in size")
    return np.stack(images), labels, None


def cmd_train(cfg: Config, out_dir: str):
    seed = cfg["run"]["seed"]
    config = ModelConfig(**field_values(MODEL_KEYS, cfg["model"]))
    if config.head != "classify":
        raise ConfigError("train needs head = classify")
    tc = TrainConfig(seed=seed, **field_values(TRAIN_KEYS, cfg["train"]))
    images, labels, val = _load_dataset(cfg["data"], config, seed)
    model = MetaFormer(config, seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    try:
        result = train_classifier(
            model, images, labels, tc, val=val,
            log_path=os.path.join(out_dir, "train_log.csv"),
        )
    except NumericsError:
        worst = sorted(grad_norm_monitor(model).items(), key=lambda kv: -kv[1])[:8]
        print("numeric abort; largest gradient norms:", file=sys.stderr)
        for name, val_ in worst:
            print(f"  {name}: {val_!r}", file=sys.stderr)
        raise
    if result.best_state is not None:
        model = MetaFormer(config, arrays=result.best_state)
    ckpt.save_model(os.path.join(out_dir, "checkpoint.mxlc"), model)
    summary = [("final_train_accuracy", result.final_train_accuracy), ("best_val_f1", result.best_val_f1)]
    _write(out_dir, "train_summary.csv", csv_text(row for row in summary if row[1] is not None))


def cmd_eval(cfg: Config, out_dir: str):
    sec = cfg["eval"]
    if sec["scores_csv"] is not None:
        text = _read_text(sec["scores_csv"])
        cs = read_case_scores_csv(text, sec["submission"], sec["dataset"])
        if cs.scores is None:
            raise DataError(f"{sec['scores_csv']}: eval needs label and score columns")
    else:
        if sec["checkpoint"] is None:
            raise ConfigError("[eval] needs either scores_csv or checkpoint")
        model = ckpt.load_model(sec["checkpoint"])
        if model.config.head != "classify":
            raise ConfigError("eval needs a classification checkpoint")
        images, labels, _ = _load_dataset(cfg["data"], model.config, cfg["run"]["seed"])
        scores = predict_scores(model, images)
        ids = [f"case_{i:05d}" for i in range(len(labels))]
        cs = CaseScores(sec["submission"], sec["dataset"], ids, labels=labels, scores=scores)
        _write(out_dir, "case_scores.csv", write_case_scores_csv(cs))

    metric = sec["metric"]
    if metric == "auc":
        value = auc_macro(cs.scores, cs.labels)
    else:
        value = f1_macro(cs.scores.argmax(axis=1), cs.labels)
    _write(out_dir, "metrics.csv", csv_text([("metric", "value"), (metric, value)]))


def _read_wins_csv(path: str) -> dict[str, dict[str, int]]:
    per_dataset: dict[str, dict[str, int]] = {}
    try:
        for sub, ds, wins in _csv_rows(path, "submission,dataset,wins"):
            if sub in per_dataset.setdefault(ds, {}):
                raise DataError(f"{path}: submission {sub!r} repeats on dataset {ds!r}")
            per_dataset[ds][sub] = int(wins)
    except ValueError:
        raise DataError(f"{path}: wins must be integers") from None
    return per_dataset


def cmd_rank(cfg: Config, out_dir: str):
    sec = cfg["rank"]
    if sec["mode"] == "wins":
        if sec["wins_csv"] is None:
            raise ConfigError("[rank] mode=wins needs wins_csv")
        wins_per_dataset = _read_wins_csv(sec["wins_csv"])
    else:
        scores_dir = sec["scores_dir"]
        if scores_dir is None:
            raise ConfigError("[rank] mode=scores needs scores_dir")
        comparator = sec["comparator"]
        kwargs = {"alpha": sec["alpha"]}
        if comparator == "bootstrap":
            kwargs.update(repeats=sec["repeats"], seed=cfg["run"]["seed"])
        grouped: dict[str, list[CaseScores]] = {}
        for name in sorted(os.listdir(scores_dir)):
            if not name.endswith(".csv"):
                continue
            stem = name[:-4]
            ds, sep, sub = stem.partition("__")
            if not (ds and sep and sub):
                raise DataError(f"scores file {name!r} must be named <dataset>__<submission>.csv")
            text = _read_text(os.path.join(scores_dir, name))
            grouped.setdefault(ds, []).append(read_case_scores_csv(text, sub, ds))
        if not grouped:
            raise DataError(f"{scores_dir}: no score files")
        wins_per_dataset = {
            ds: pairwise_wins(subs, comparator=comparator, **kwargs)
            for ds, subs in grouped.items()
        }

    datasets = sorted(wins_per_dataset)
    all_subs = sorted({s for wins in wins_per_dataset.values() for s in wins})
    ranks_per_dataset: dict[str, dict[str, float | None]] = {}
    for ds in datasets:
        ranks = normalize_ranks(wins_per_dataset[ds])
        ranks_per_dataset[ds] = {sub: ranks.get(sub) for sub in all_subs}
    global_ranks = aggregate_geomean(ranks_per_dataset)
    _write(
        out_dir,
        "rank_table.csv",
        rank_table_csv(datasets, wins_per_dataset, ranks_per_dataset, global_ranks),
    )


def cmd_infer(cfg: Config, out_dir: str):
    sec = cfg["infer"]
    for key in ("checkpoint", "image"):
        if sec[key] is None:
            raise ConfigError(f"[infer] needs {key}")
    image = read_image_as_float(sec["image"])  # first, so a missing image exits 3 whatever the checkpoint
    model = ckpt.load_model(sec["checkpoint"])
    if model.config.head != "segment":
        raise ConfigError("infer needs a segmentation checkpoint")
    if model.config.num_classes > 256:
        raise ConfigError(f"infer writes an 8-bit mask: at most 256 classes, not {model.config.num_classes}")

    def predict(patch: np.ndarray) -> np.ndarray:
        return model.forward_segment(Tensor(patch[None])).data[0]

    logits = sliding_window_infer(predict, image, model.config.input_hw, overlap=sec["overlap"])
    mask = logits.argmax(axis=0)
    os.makedirs(out_dir, exist_ok=True)
    write_pgm(os.path.join(out_dir, "mask.pgm"), mask)
    if sec["save_logits"]:
        write_raw_f64(os.path.join(out_dir, "logits.f64"), logits)


# each command and the sections it reads, in resolved_config.ini order
_COMMANDS = {
    "flops": (cmd_flops, ("model", "flops", "run")),
    "params": (cmd_params, ("params", "run")),
    "train": (cmd_train, ("model", "train", "data", "run")),
    "eval": (cmd_eval, ("eval", "data", "run")),
    "rank": (cmd_rank, ("rank", "run")),
    "infer": (cmd_infer, ("infer", "run")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mixerlab",
        description="token-mixer lab: complexity sweeps, training, evaluation, ranking, inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--seed", default=None, help="overrides [run] seed")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        if args.seed is not None:
            cfg["run"]["seed"] = parse_value(NONNEG, args.seed, "--seed")
        _COMMANDS[args.command][0](cfg, args.out)
        _write(args.out, "resolved_config.ini", resolved_ini(cfg))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"data error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 3
    except (NumericsError, CapacityError) as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 4
    except MixerlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
