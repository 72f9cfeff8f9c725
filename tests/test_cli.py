"""Command-line surface: outputs, determinism, exit codes, round trips."""

import errno
import json
import os
import resource
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ranking_fixtures as fx
from mixerlab.checkpoint import load_arrays, load_model, save_arrays, save_model
from mixerlab import cli
from mixerlab.cli import SCHEMA, load_config, main, resolved_ini
from mixerlab.errors import DataError
from mixerlab.imageio import (
    read_image_as_float, read_pgm, read_ppm, read_raw_f64, write_pgm, write_ppm, write_raw_f64,
)
from mixerlab.metaformer import MetaFormer, ModelConfig
from mixerlab.mixers import MixerSpec
from mixerlab.tensor import Tensor

TINY_MODEL = """
[model]
channels = 8,16,24,32
depths = 1,1,1,1
signature = pooling:3,pooling:3,pooling:3,pooling:3
input = 32x32
head = classify
classes = 2
layerscale_init = 1.0
"""


def run_cli(*argv):
    return main(list(argv))


def seg_checkpoint(tmp_path, seed=3, classes=3):
    cfg = ModelConfig(
        stage_channels=(8, 16, 24, 32),
        stage_depths=(1, 1, 1, 1),
        signature=tuple(MixerSpec("grouped_conv", 3) for _ in range(4)),
        input_hw=(32, 32),
        head="segment",
        num_classes=classes,
        layerscale_init=1.0,
    )
    model = MetaFormer(cfg, seed=seed)
    path = tmp_path / "seg.mxlc"
    save_model(str(path), model)
    return model, path


class TestFlopsCommand:
    def test_csv_and_svg(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[model]\ninput = 768x768\n[flops]\nkernel = 3\n")
        out = tmp_path / "out"
        assert run_cli("flops", "--config", str(cfg), "--out", str(out)) == 0
        lines = (out / "flops.csv").read_text().strip().split("\n")
        assert len(lines) == 25  # header + 4 stages x 6 mixers
        # identity rows carry exactly N*C^2
        for line in lines[1:]:
            cells = line.split(",")
            if cells[1] == "identity":
                _, _, _, c, n, flops = cells[:6]
                assert int(flops) == int(n) * int(c) ** 2
        svg = (out / "flops.svg").read_text()
        root = ET.fromstring(svg)  # well-formed XML
        assert root.tag.endswith("svg")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[model]\n[flops]\nkernel = 5\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("flops", "--config", str(cfg), "--out", str(out1))
        run_cli("flops", "--config", str(cfg), "--out", str(out2))
        for name in ("flops.csv", "flops.svg", "resolved_config.ini"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestParamsCommand:
    def test_breakdown_rows(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[params]\nsignatures = pooling:3;grouped_conv:3\nclasses = 2\ninput = 32x32\n"
        )
        out = tmp_path / "out"
        assert run_cli("params", "--config", str(cfg), "--out", str(out)) == 0
        lines = (out / "params.csv").read_text().strip().split("\n")
        assert lines[0] == "signature,backbone_ex_mixers,mixers,pos_emb,head,total"
        assert len(lines) == 3
        pool_row = lines[1].split(",")
        grouped_row = lines[2].split(",")
        assert int(pool_row[2]) == 0
        want_grouped = 9 * (2 * 64 + 2 * 128 + 6 * 320 + 2 * 512)
        assert int(grouped_row[2]) == want_grouped

    def test_invalid_signature_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[params]\nsignatures = fourier:3\n")
        assert run_cli("params", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2


def image_dir_config(tmp_path, rows):
    """A train config on `kind = image_dir`: 32x32 images c0.ppm and c1.ppm,
    and a labels CSV with ``rows`` (``path,label`` lines)."""
    rng = np.random.default_rng(6)
    for name in ("c0.ppm", "c1.ppm"):
        write_ppm(str(tmp_path / name), (rng.random((3, 32, 32)) * 255).astype(np.uint8))
    labels = tmp_path / "labels.csv"
    labels.write_text("path,label\n" + "".join(f"{row}\n" for row in rows))
    cfg = tmp_path / "train.ini"
    cfg.write_text(
        TINY_MODEL + f"[train]\nepochs = 1\nbatch_size = 2\n"
        f"[data]\nkind = image_dir\nimage_dir = {tmp_path}\nlabels_csv = {labels}\n"
    )
    return cfg, labels


class TestTrainEvalCommands:
    def train_cfg(self, tmp_path, seed=5):
        cfg = tmp_path / "train.ini"
        cfg.write_text(
            TINY_MODEL
            + f"""
[train]
epochs = 2
batch_size = 16
warmup_epochs = 1
max_steps = 6
[data]
kind = synthetic
n = 32
[run]
seed = {seed}
"""
        )
        return cfg

    def test_same_seed_identical_bits(self, tmp_path):
        cfg = self.train_cfg(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("train", "--config", str(cfg), "--out", str(out1)) == 0
        assert run_cli("train", "--config", str(cfg), "--out", str(out2)) == 0
        assert (out1 / "train_log.csv").read_bytes() == (out2 / "train_log.csv").read_bytes()
        assert (out1 / "checkpoint.mxlc").read_bytes() == (out2 / "checkpoint.mxlc").read_bytes()

    def test_eval_from_checkpoint_emits_case_scores(self, tmp_path):
        cfg = self.train_cfg(tmp_path)
        out = tmp_path / "run"
        run_cli("train", "--config", str(cfg), "--out", str(out))
        eval_cfg = tmp_path / "eval.ini"
        eval_cfg.write_text(
            f"""
[eval]
metric = auc
checkpoint = {out / 'checkpoint.mxlc'}
dataset = toy
submission = pooling_k3
[data]
kind = synthetic
n = 24
"""
        )
        eout = tmp_path / "eval_out"
        assert run_cli("eval", "--config", str(eval_cfg), "--out", str(eout), "--seed", "9") == 0
        scores = (eout / "case_scores.csv").read_text().strip().split("\n")
        assert scores[0] == "case_id,label,score_0,score_1"
        assert len(scores) == 25
        metrics = (eout / "metrics.csv").read_text().strip().split("\n")
        assert metrics[0] == "metric,value"

    def test_train_on_segment_head_exits_2_before_any_output(self, tmp_path, capsys):
        cfg = self.train_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace("head = classify", "head = segment"))
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == "config error: train needs head = classify\n"
        assert not out.exists()

    def test_eval_on_segmentation_checkpoint_exits_2_before_any_output(self, tmp_path, capsys):
        _, ckpt_path = seg_checkpoint(tmp_path)
        cfg = tmp_path / "eval.ini"
        cfg.write_text(f"[eval]\ncheckpoint = {ckpt_path}\n[data]\nkind = synthetic\nn = 8\n")
        out = tmp_path / "out"
        assert run_cli("eval", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == "config error: eval needs a classification checkpoint\n"
        assert not out.exists()

    def test_image_dir_dataset_trains(self, tmp_path):
        cfg, _ = image_dir_config(tmp_path, ["c0.ppm,0", "./c1.ppm,1"])
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
        assert (tmp_path / "o" / "checkpoint.mxlc").exists()

    @pytest.mark.parametrize("line", ["n = 999", "val_n = 2"])
    def test_synthetic_data_key_with_image_dir_is_config_error(self, tmp_path, capsys, line):
        cfg, _ = image_dir_config(tmp_path, ["c0.ppm,0", "c1.ppm,1"])
        cfg.write_text(cfg.read_text() + line + "\n")
        out = tmp_path / "o"
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 2
        key = line.split()[0]
        assert capsys.readouterr().err == f"config error: [data] {key} is not read with kind = image_dir\n"
        assert not (out / "resolved_config.ini").exists()

    @pytest.mark.parametrize("key", ["image_dir", "labels_csv"])
    def test_image_dir_data_key_with_synthetic_is_config_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "train.ini"
        cfg.write_text(TINY_MODEL + f"[train]\nepochs = 1\n[data]\nn = 4\n{key} = {tmp_path}\n")
        out = tmp_path / "o"
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"config error: [data] {key} is not read with kind = synthetic\n"
        assert not (out / "resolved_config.ini").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_images_not_of_the_model_input_size_are_data_error(self, tmp_path, capsys, command):
        cfg, labels = image_dir_config(tmp_path, ["c0.ppm,0", "c1.ppm,1"])  # 32x32 images
        model_64 = TINY_MODEL.replace("input = 32x32", "input = 64x64")
        if command == "train":
            cfg.write_text(cfg.read_text().replace(TINY_MODEL, model_64))
        else:
            ckpt_path = tmp_path / "c64.mxlc"
            save_model(str(ckpt_path), MetaFormer(ModelConfig.from_ini(model_64), seed=1))
            cfg.write_text(f"[eval]\ncheckpoint = {ckpt_path}\n"
                           f"[data]\nkind = image_dir\nimage_dir = {tmp_path}\nlabels_csv = {labels}\n")
        out = tmp_path / "o"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == f"data error: {tmp_path}: images are 32x32, [model] input is 64x64\n"
        assert not out.exists()

    def test_image_dir_dataset_loads_as_the_stacked_images(self, tmp_path):
        rows = ["c1.ppm,1", "g.pgm,0", "c0.ppm,0"]  # a grayscale image is replicated to 3 channels
        _, labels = image_dir_config(tmp_path, rows)
        write_pgm(str(tmp_path / "g.pgm"), (np.arange(32 * 32).reshape(32, 32) % 256).astype(np.uint8))
        data = {"kind": "image_dir", "image_dir": str(tmp_path), "labels_csv": str(labels)}
        images, got_labels, val = cli._load_dataset(data, ModelConfig.from_ini(TINY_MODEL), seed=0)
        want = np.stack([read_image_as_float(str(tmp_path / row.split(",")[0])) for row in rows])
        assert images.tobytes() == want.tobytes() and images.shape == (3, 3, 32, 32)
        assert got_labels.tolist() == [1, 0, 0] and val is None

    @pytest.mark.parametrize("rows", [["c0.ppm,0", "c1.ppm,1", "c2.ppm,0"], ["c2.ppm,0", "c0.ppm,1"]])
    def test_images_of_two_sizes_are_data_error(self, tmp_path, capsys, rows):
        cfg, _ = image_dir_config(tmp_path, rows)
        write_ppm(str(tmp_path / "c2.ppm"), np.zeros((3, 16, 32), dtype=np.uint8))
        out = tmp_path / "o"
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == f"data error: {tmp_path}: images differ in size\n"
        assert not out.exists()

    def test_data_keys_at_their_defaults_are_accepted_with_image_dir(self, tmp_path):
        cfg, _ = image_dir_config(tmp_path, ["c0.ppm,0", "c1.ppm,1"])
        cfg.write_text(cfg.read_text() + "n = 128\nval_n = 0\n")
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0

    @pytest.mark.parametrize("second", ["c0.ppm,1", "./c0.ppm,1", "c0.ppm,0"])
    def test_labels_csv_listing_an_image_twice_is_data_error(self, tmp_path, capsys, second):
        cfg, labels = image_dir_config(tmp_path, ["c0.ppm,0", "c1.ppm,1", second])
        out = tmp_path / "o"
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == f"data error: {labels}: image 'c0.ppm' repeats\n"
        assert not out.exists()

    @pytest.mark.parametrize("row", [",0", "c1.ppm,"])
    def test_labels_csv_with_an_empty_field_is_data_error(self, tmp_path, capsys, row):
        cfg, labels = image_dir_config(tmp_path, ["c0.ppm,0", row])
        out = tmp_path / "o"
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == f"data error: {labels}: row {row!r} has an empty field\n"
        assert not out.exists()

    def test_empty_case_id_is_data_error(self, tmp_path, capsys):
        scores_csv = tmp_path / "scores.csv"
        scores_csv.write_text("case_id,label,score_0,score_1\nc0,0,0.9,0.1\n,1,0.2,0.8\n")
        cfg = tmp_path / "eval.ini"
        cfg.write_text(f"[eval]\nmetric = f1\nscores_csv = {scores_csv}\n")
        out = tmp_path / "o"
        assert run_cli("eval", "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == "data error: case scores of 'model' on 'dataset': empty case_id\n"
        assert not out.exists()

    def test_eval_perfect_oracle_scores(self, tmp_path):
        scores_csv = tmp_path / "scores.csv"
        rows = ["case_id,label,score_0,score_1"]
        for i in range(10):
            label = i % 2
            rows.append(f"c{i},{label},{1.0 - label!r},{float(label)!r}")
        scores_csv.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "eval.ini"
        cfg.write_text(f"[eval]\nmetric = auc\nscores_csv = {scores_csv}\n")
        out = tmp_path / "out"
        assert run_cli("eval", "--config", str(cfg), "--out", str(out)) == 0
        assert (out / "metrics.csv").read_text().strip().split("\n")[1] == "auc,1.0"

    def test_scores_csv_eval_lists_no_data_section(self, tmp_path):
        (tmp_path / "s.csv").write_text("case_id,label,score_0,score_1\nc0,0,0.9,0.1\nc1,1,0.2,0.8\nc2,1,0.4,0.6\n")
        cfg = tmp_path / "eval.ini"
        cfg.write_text(f"[eval]\nscores_csv = {tmp_path / 's.csv'}\n")
        out = tmp_path / "out"
        assert run_cli("eval", "--config", str(cfg), "--out", str(out)) == 0
        assert "[data]" not in (out / "resolved_config.ini").read_text()  # the run reads no [data] key


class TestRankCommand:
    def write_wins_csv(self, path, table):
        rows = ["submission,dataset,wins"]
        for name, row in table["rows"].items():
            for ds, cell in row["cells"].items():
                if cell is not None:
                    rows.append(f"{name},{ds},{cell[0]}")
        path.write_text("\n".join(rows) + "\n")

    def test_published_fixture_reproduction(self, tmp_path):
        wins_csv = tmp_path / "wins.csv"
        self.write_wins_csv(wins_csv, fx.SEGMENTATION)
        cfg = tmp_path / "rank.ini"
        cfg.write_text(f"[rank]\nmode = wins\nwins_csv = {wins_csv}\n")
        out = tmp_path / "out"
        assert run_cli("rank", "--config", str(cfg), "--out", str(out)) == 0
        text = (out / "rank_table.csv").read_text().strip().split("\n")
        header = text[0].split(",")
        gcol = header.index("global")
        got = {line.split(",")[0]: float(line.split(",")[gcol]) for line in text[1:]}
        for name, row in fx.SEGMENTATION["rows"].items():
            if row["geomean"] is None:
                continue
            assert abs(got[name] - row["geomean"]) <= 0.005, name

    def test_single_dataset_global_equals_rank(self, tmp_path):
        wins_csv = tmp_path / "wins.csv"
        wins_csv.write_text("submission,dataset,wins\na,ds,2\nb,ds,1\nc,ds,0\n")
        cfg = tmp_path / "rank.ini"
        cfg.write_text(f"[rank]\nmode = wins\nwins_csv = {wins_csv}\n")
        out = tmp_path / "out"
        run_cli("rank", "--config", str(cfg), "--out", str(out))
        lines = (out / "rank_table.csv").read_text().strip().split("\n")
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[2]) == float(cells[3])  # ds_rank == global

    def test_row_order_invariant_to_input_permutation(self, tmp_path):
        rows = ["submission,dataset,wins", "a,ds,2", "b,ds,1", "c,ds,0"]
        perm = ["submission,dataset,wins", "c,ds,0", "a,ds,2", "b,ds,1"]
        outs = []
        for i, content in enumerate((rows, perm)):
            wins_csv = tmp_path / f"wins{i}.csv"
            wins_csv.write_text("\n".join(content) + "\n")
            cfg = tmp_path / f"rank{i}.ini"
            cfg.write_text(f"[rank]\nmode = wins\nwins_csv = {wins_csv}\n")
            out = tmp_path / f"out{i}"
            run_cli("rank", "--config", str(cfg), "--out", str(out))
            outs.append((out / "rank_table.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_scores_mode_with_wilcoxon(self, tmp_path):
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        rng = np.random.default_rng(0)
        base = rng.random(12) * 0.2 + 0.7
        for sub, shift in (("good", 0.08), ("mid", 0.0), ("bad", -0.08)):
            rows = ["case_id,dsc"]
            for i, v in enumerate(base + shift):
                rows.append(f"c{i},{float(v)!r}")
            (scores_dir / f"seg__{sub}.csv").write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "rank.ini"
        cfg.write_text(f"[rank]\nmode = scores\nscores_dir = {scores_dir}\ncomparator = wilcoxon\n")
        out = tmp_path / "out"
        assert run_cli("rank", "--config", str(cfg), "--out", str(out)) == 0
        lines = (out / "rank_table.csv").read_text().strip().split("\n")
        assert lines[1].startswith("good,2,")

    @pytest.mark.parametrize("comparator", ["wilcoxon", "bootstrap"])
    def test_crlf_scores_files_rank_as_lf(self, tmp_path, comparator):
        # a DSC file for the Wilcoxon tournament, a label/score file for the bootstrap one
        rng = np.random.default_rng(3)
        files = {}
        for sub in ("alpha", "beta", "gamma"):
            if comparator == "wilcoxon":
                rows = ["case_id,dsc"] + [f"c{i},{float(v)!r}" for i, v in enumerate(rng.random(10))]
            else:
                rows = ["case_id,label,score_0,score_1"] + [
                    f"c{i},{i % 2},{float(s)!r},{float(1 - s)!r}" for i, s in enumerate(rng.random(10))
                ]
            files[f"ds__{sub}.csv"] = rows
        tables = []
        for newline in ("\n", "\r\n"):
            scores_dir = tmp_path / f"scores{len(newline)}"
            scores_dir.mkdir()
            for name, rows in files.items():
                (scores_dir / name).write_bytes((newline.join(rows) + newline).encode())
            cfg = tmp_path / f"rank{len(newline)}.ini"
            cfg.write_text(
                f"[rank]\nmode = scores\nscores_dir = {scores_dir}\ncomparator = {comparator}\n"
                + ("repeats = 100\n" if comparator == "bootstrap" else "")  # the Wilcoxon test reads no repeats
            )
            out = tmp_path / f"out{len(newline)}"
            assert run_cli("rank", "--config", str(cfg), "--out", str(out)) == 0
            tables.append((out / "rank_table.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_wilcoxon_input_error_names_the_submission(self, tmp_path, capsys):
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        (scores_dir / "seg__alpha.csv").write_text("case_id,dsc\nc0,0.5\nc1,0.7\n")
        (scores_dir / "seg__odd.csv").write_text("case_id,label,score_0,score_1\nc0,0,0.4,0.6\nc1,1,0.3,0.7\n")
        cfg = tmp_path / "rank.ini"
        cfg.write_text(f"[rank]\nmode = scores\nscores_dir = {scores_dir}\ncomparator = wilcoxon\n")
        assert run_cli("rank", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: submission 'odd' on 'seg': ") and err.count("\n") == 1

    def test_repeated_case_id_is_data_error(self, tmp_path, capsys):
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        for sub in ("a", "b"):
            (scores_dir / f"seg__{sub}.csv").write_text("case_id,dsc\nc0,0.5\nc1,0.7\nc1,0.6\n")
        cfg = tmp_path / "rank.ini"
        cfg.write_text(f"[rank]\nmode = scores\nscores_dir = {scores_dir}\ncomparator = wilcoxon\n")
        out = tmp_path / "o"
        assert run_cli("rank", "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == "data error: case scores of 'a' on 'seg': case_id 'c1' repeats\n"
        assert not (out / "rank_table.csv").exists()

    def test_repeated_wins_pair_is_data_error(self, tmp_path, capsys):
        wins_csv = tmp_path / "wins.csv"
        wins_csv.write_text("submission,dataset,wins\na,d,1\nb,d,0\na,d,5\n")
        cfg = tmp_path / "rank.ini"
        cfg.write_text(f"[rank]\nmode = wins\nwins_csv = {wins_csv}\n")
        out = tmp_path / "o"
        assert run_cli("rank", "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == f"data error: {wins_csv}: submission 'a' repeats on dataset 'd'\n"
        assert not (out / "rank_table.csv").exists()

    def test_empty_submission_in_wins_csv_is_data_error(self, tmp_path, capsys):
        wins_csv = tmp_path / "wins.csv"
        wins_csv.write_text("submission,dataset,wins\na,ds,2\n,ds,1\n")
        cfg = tmp_path / "rank.ini"
        cfg.write_text(f"[rank]\nmode = wins\nwins_csv = {wins_csv}\n")
        out = tmp_path / "o"
        assert run_cli("rank", "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == f"data error: {wins_csv}: row ',ds,1' has an empty field\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["wins", "scores"])
    def test_dataset_with_one_submission_is_data_error(self, tmp_path, capsys, mode):
        if mode == "wins":
            (tmp_path / "wins.csv").write_text("submission,dataset,wins\na,ds1,0\nb,ds2,1\nc,ds2,0\n")
            config = f"[rank]\nwins_csv = {tmp_path / 'wins.csv'}\n"
        else:
            (tmp_path / "scores").mkdir()
            (tmp_path / "scores" / "ds1__a.csv").write_text("case_id,dsc\nc0,0.5\nc1,0.7\n")
            config = f"[rank]\nmode = scores\nscores_dir = {tmp_path / 'scores'}\ncomparator = wilcoxon\n"
        cfg = tmp_path / "rank.ini"
        cfg.write_text(config)
        out = tmp_path / "o"
        assert run_cli("rank", "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == "data error: dataset 'ds1' has one submission; ranking needs at least two\n"
        assert not out.exists()

    def test_negative_wins_is_data_error(self, tmp_path, capsys):
        wins_csv = tmp_path / "wins.csv"
        wins_csv.write_text("submission,dataset,wins\na,ds1,-3\nb,ds1,2\n")
        cfg = tmp_path / "rank.ini"
        cfg.write_text(f"[rank]\nwins_csv = {wins_csv}\n")
        out = tmp_path / "o"
        assert run_cli("rank", "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == f"data error: {wins_csv}: wins must not be negative\n"
        assert not out.exists()

    @pytest.mark.parametrize("rows,k,top,s", [
        ("a,ds1,99\nb,ds1,0\n", 1, 99, 2),  # above S - 1
        ("a,ds1,2\nb,ds1,1\nc,ds1,1\n", 3, 4, 3),  # each at most S - 1, the sum above C(S, 2)
        ("a,ds1,3\nb,ds1,3\nc,ds1,0\nd,ds1,0\n", 2, 6, 4),  # within both, yet a and b meet once
    ])
    def test_wins_no_round_robin_gives_is_data_error(self, tmp_path, capsys, rows, k, top, s):
        wins_csv = tmp_path / "wins.csv"
        wins_csv.write_text("submission,dataset,wins\nx,ds2,0\ny,ds2,0\n" + rows)
        cfg = tmp_path / "rank.ini"
        cfg.write_text(f"[rank]\nwins_csv = {wins_csv}\n")
        out = tmp_path / "o"
        assert run_cli("rank", "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == (f"data error: {wins_csv}: on dataset 'ds1' the {k} largest win counts "
                                           f"sum to {top}, more than a round robin of {s} submissions gives them\n")
        assert not out.exists()

    @pytest.mark.parametrize("table", range(len(fx.ALL_TABLES)))
    def test_published_and_extreme_round_robins_are_read(self, tmp_path, table):
        wins_csv = tmp_path / "wins.csv"
        self.write_wins_csv(wins_csv, fx.ALL_TABLES[table])
        assert cli._read_wins_csv(str(wins_csv))
        # every game decided, in a strict order and in a cycle
        wins_csv.write_text("submission,dataset,wins\na,o,3\nb,o,2\nc,o,1\nd,o,0\na,c,1\nb,c,1\nc,c,1\n")
        assert cli._read_wins_csv(str(wins_csv)) == {"o": {"a": 3, "b": 2, "c": 1, "d": 0},
                                                     "c": {"a": 1, "b": 1, "c": 1}}

    @pytest.mark.parametrize("name", ["ds__.csv", "__a.csv", "ds.csv"])
    def test_scores_file_without_both_names_is_data_error(self, tmp_path, capsys, name):
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        for file_name in ("ds__b.csv", name):
            (scores_dir / file_name).write_text("case_id,dsc\nc0,0.5\nc1,0.7\nc2,0.6\n")
        cfg = tmp_path / "rank.ini"
        cfg.write_text(f"[rank]\nmode = scores\nscores_dir = {scores_dir}\ncomparator = wilcoxon\n")
        out = tmp_path / "o"
        assert run_cli("rank", "--config", str(cfg), "--out", str(out)) == 3
        want = f"data error: scores file {name!r} must be named <dataset>__<submission>.csv\n"
        assert capsys.readouterr().err == want
        assert not out.exists()

    def test_submission_name_with_a_comma_is_data_error(self, tmp_path, capsys):
        # the name would become one more field of its rank_table.csv row
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        for sub in ("a,x", "b"):
            (scores_dir / f"ds__{sub}.csv").write_text("case_id,dsc\nc0,0.5\nc1,0.7\nc2,0.6\n")
        cfg = tmp_path / "rank.ini"
        cfg.write_text(f"[rank]\nmode = scores\nscores_dir = {scores_dir}\ncomparator = wilcoxon\n")
        out = tmp_path / "o"
        assert run_cli("rank", "--config", str(cfg), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err == "data error: CSV field 'a,x' holds a comma or a line break\n"
        assert not (out / "rank_table.csv").exists() and not (out / "resolved_config.ini").exists()

    def test_submission_name_with_an_edge_blank_is_data_error(self, tmp_path, capsys):
        # csv_table strips each line, so ` a` would read back as `a`
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        for sub in (" a", "b"):
            (scores_dir / f"ds__{sub}.csv").write_text("case_id,dsc\nc0,0.5\nc1,0.7\nc2,0.6\n")
        cfg = tmp_path / "rank.ini"
        cfg.write_text(f"[rank]\nmode = scores\nscores_dir = {scores_dir}\ncomparator = wilcoxon\n")
        out = tmp_path / "o"
        assert run_cli("rank", "--config", str(cfg), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err == "data error: CSV field ' a' starts or ends with a blank\n"
        assert not (out / "rank_table.csv").exists() and not (out / "resolved_config.ini").exists()

    @pytest.mark.parametrize("odd_file", ["dsc_only", "other_labels", "label_out_of_range"])
    def test_bootstrap_input_error_names_the_submission(self, tmp_path, capsys, odd_file):
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        rng = np.random.default_rng(1)
        labels = np.arange(12) % 2
        odd_labels = labels + 1 if odd_file == "label_out_of_range" else 1 - labels
        for sub, file_labels in (("alpha", labels), ("beta", labels), ("odd", odd_labels)):
            rows = ["case_id,label,score_0,score_1"]
            for i, (label, (s0, s1)) in enumerate(zip(file_labels, rng.random((12, 2)))):
                rows.append(f"c{i},{label},{float(s0)!r},{float(s1)!r}")
            if sub == "odd" and odd_file == "dsc_only":
                rows = ["case_id,dsc"] + [f"c{i},0.5" for i in range(12)]
            (scores_dir / f"cls__{sub}.csv").write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "rank.ini"
        cfg.write_text(
            f"[rank]\nmode = scores\nscores_dir = {scores_dir}\n"
            "comparator = bootstrap\nrepeats = 100\n"
        )
        assert run_cli("rank", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: submission 'odd' ") and err.count("\n") == 1


class TestInferCommand:
    def write_image(self, tmp_path, hw, seed=4):
        rng = np.random.default_rng(seed)
        img = (rng.random((3,) + hw) * 255).astype(np.uint8)
        path = tmp_path / "image.ppm"
        write_ppm(str(path), img)
        return img, path

    def test_single_window_equals_direct_argmax(self, tmp_path):
        model, ckpt_path = seg_checkpoint(tmp_path)
        img, img_path = self.write_image(tmp_path, (32, 32))
        cfg = tmp_path / "infer.ini"
        cfg.write_text(f"[infer]\ncheckpoint = {ckpt_path}\nimage = {img_path}\nsave_logits = true\n")
        out = tmp_path / "out"
        assert run_cli("infer", "--config", str(cfg), "--out", str(out)) == 0
        mask = read_pgm(str(out / "mask.pgm"))
        direct = model.forward_segment(Tensor(img[None].astype(np.float64) / 255.0)).data[0]
        np.testing.assert_array_equal(mask, direct.argmax(axis=0).astype(np.uint8))

    def test_constant_logit_checkpoint_gives_constant_mask(self, tmp_path):
        model, ckpt_path = seg_checkpoint(tmp_path)
        # zero the decoder classifier: logits collapse to a constant map
        for name, t in model.named_parameters().items():
            if name.startswith("decoder.classifier"):
                t.data[...] = 0.0
        save_model(str(ckpt_path), model)
        _, img_path = self.write_image(tmp_path, (48, 48))
        cfg = tmp_path / "infer.ini"
        cfg.write_text(f"[infer]\ncheckpoint = {ckpt_path}\nimage = {img_path}\n")
        out = tmp_path / "out"
        assert run_cli("infer", "--config", str(cfg), "--out", str(out)) == 0
        mask = read_pgm(str(out / "mask.pgm"))
        assert np.unique(mask).size == 1

    def test_golden_mask_stable_across_runs(self, tmp_path):
        _, ckpt_path = seg_checkpoint(tmp_path)
        _, img_path = self.write_image(tmp_path, (48, 40))
        cfg = tmp_path / "infer.ini"
        cfg.write_text(f"[infer]\ncheckpoint = {ckpt_path}\nimage = {img_path}\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run_cli("infer", "--config", str(cfg), "--out", str(out1))
        run_cli("infer", "--config", str(cfg), "--out", str(out2))
        assert (out1 / "mask.pgm").read_bytes() == (out2 / "mask.pgm").read_bytes()

    def test_image_smaller_than_patch_is_data_error(self, tmp_path, capsys):
        _, ckpt_path = seg_checkpoint(tmp_path)
        _, img_path = self.write_image(tmp_path, (16, 40))
        cfg = tmp_path / "infer.ini"
        cfg.write_text(f"[infer]\ncheckpoint = {ckpt_path}\nimage = {img_path}\n")
        out = tmp_path / "o"
        assert run_cli("infer", "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == "data error: patch 32x32 larger than image 16x40\n"
        assert not out.exists()

    def test_classification_checkpoint_exits_2_and_leaves_no_output(self, tmp_path, capsys):
        ckpt_path = tmp_path / "classify.mxlc"
        save_model(str(ckpt_path), MetaFormer(ModelConfig.from_ini(TINY_MODEL), seed=1))
        _, img_path = self.write_image(tmp_path, (32, 32))
        cfg = tmp_path / "infer.ini"
        cfg.write_text(f"[infer]\ncheckpoint = {ckpt_path}\nimage = {img_path}\n")
        out = tmp_path / "o"
        assert run_cli("infer", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == "config error: infer needs a segmentation checkpoint\n"
        assert not out.exists()


    def test_more_than_256_classes_is_refused_before_any_window(self, tmp_path, capsys, monkeypatch):
        _, ckpt_path = seg_checkpoint(tmp_path, classes=257)
        _, img_path = self.write_image(tmp_path, (32, 32))
        windows = []
        monkeypatch.setattr(cli, "sliding_window_infer", lambda *args, **kwargs: windows.append(args))
        cfg = tmp_path / "infer.ini"
        cfg.write_text(f"[infer]\ncheckpoint = {ckpt_path}\nimage = {img_path}\n")
        out = tmp_path / "o"
        assert run_cli("infer", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == "config error: infer writes an 8-bit mask: at most 256 classes, not 257\n"
        assert windows == [] and not out.exists()

    def test_256_classes_write_a_mask(self, tmp_path):
        model, ckpt_path = seg_checkpoint(tmp_path, classes=256)
        img, img_path = self.write_image(tmp_path, (32, 32))
        cfg = tmp_path / "infer.ini"
        cfg.write_text(f"[infer]\ncheckpoint = {ckpt_path}\nimage = {img_path}\n")
        out = tmp_path / "o"
        assert run_cli("infer", "--config", str(cfg), "--out", str(out)) == 0
        direct = model.forward_segment(Tensor(img[None].astype(np.float64) / 255.0)).data[0]
        np.testing.assert_array_equal(read_pgm(str(out / "mask.pgm")), direct.argmax(axis=0))


class TestMissingInputFiles:
    """An input path that names nothing, or the wrong kind of file, exits 3
    with one line naming the path and the system's reason, and writes no
    output."""

    def expect_data_error(self, tmp_path, capsys, command, config, path, code):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(config)
        out = tmp_path / "o"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == f"data error: {path}: {os.strerror(code)}\n"
        assert not out.exists()

    def test_eval_missing_checkpoint(self, tmp_path, capsys):
        nope = tmp_path / "nope.mxlc"
        config = f"[eval]\ncheckpoint = {nope}\n[data]\nkind = synthetic\nn = 8\n"
        self.expect_data_error(tmp_path, capsys, "eval", config, nope, errno.ENOENT)

    @pytest.mark.parametrize("missing", ["checkpoint", "image", "both"])
    def test_infer_missing_checkpoint_or_image(self, tmp_path, capsys, missing):
        _, ckpt_path = seg_checkpoint(tmp_path)
        _, img_path = TestInferCommand().write_image(tmp_path, (32, 32))
        if missing in ("checkpoint", "both"):
            ckpt_path = tmp_path / "nope.mxlc"
        if missing in ("image", "both"):
            img_path = tmp_path / "nope.ppm"
        config = f"[infer]\ncheckpoint = {ckpt_path}\nimage = {img_path}\n"
        named = ckpt_path if missing == "checkpoint" else img_path
        self.expect_data_error(tmp_path, capsys, "infer", config, named, errno.ENOENT)

    def test_infer_missing_image_with_a_classification_checkpoint(self, tmp_path, capsys):
        ckpt_path = tmp_path / "classify.mxlc"
        save_model(str(ckpt_path), MetaFormer(ModelConfig.from_ini(TINY_MODEL), seed=1))
        nope = tmp_path / "nope.ppm"
        config = f"[infer]\ncheckpoint = {ckpt_path}\nimage = {nope}\n"
        self.expect_data_error(tmp_path, capsys, "infer", config, nope, errno.ENOENT)

    def test_infer_directory_as_checkpoint(self, tmp_path, capsys):
        _, img_path = TestInferCommand().write_image(tmp_path, (32, 32))
        config = f"[infer]\ncheckpoint = {tmp_path}\nimage = {img_path}\n"
        self.expect_data_error(tmp_path, capsys, "infer", config, tmp_path, errno.EISDIR)

    def test_train_missing_image(self, tmp_path, capsys):
        cfg, _ = image_dir_config(tmp_path, ["c0.ppm,0", "c2.ppm,1"])
        config = cfg.read_text()
        self.expect_data_error(tmp_path, capsys, "train", config, tmp_path / "c2.ppm", errno.ENOENT)

    def test_rank_missing_scores_dir(self, tmp_path, capsys):
        nope = tmp_path / "nope"
        config = f"[rank]\nmode = scores\nscores_dir = {nope}\n"
        self.expect_data_error(tmp_path, capsys, "rank", config, nope, errno.ENOENT)

    def test_rank_file_as_scores_dir(self, tmp_path, capsys):
        afile = tmp_path / "afile.csv"
        afile.write_text("case_id,dsc\nc0,0.5\n")
        config = f"[rank]\nmode = scores\nscores_dir = {afile}\n"
        self.expect_data_error(tmp_path, capsys, "rank", config, afile, errno.ENOTDIR)


class TestImageWriters:
    @pytest.mark.parametrize("value", [256, -1, 300.0, np.nan])
    def test_value_outside_8_bits_is_data_error(self, tmp_path, value):
        for write, shape in [(write_pgm, (4, 5)), (write_ppm, (3, 4, 5))]:
            image = np.zeros(shape)
            image.flat[7] = value
            path = tmp_path / "image"
            with pytest.raises(DataError, match=r"values must lie in 0\.\.255$"):
                write(str(path), image)
            assert not path.exists()

    def test_values_in_0_to_255_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        mask, rgb = rng.integers(0, 256, (4, 5)), rng.integers(0, 256, (3, 4, 5))
        write_pgm(str(tmp_path / "m.pgm"), mask)
        write_ppm(str(tmp_path / "i.ppm"), rgb)
        np.testing.assert_array_equal(read_pgm(str(tmp_path / "m.pgm")), mask)
        np.testing.assert_array_equal(read_ppm(str(tmp_path / "i.ppm")), rgb)


class TestImageAndRawReaders:
    @pytest.mark.parametrize("hw", [(1, 1), (3, 7), (7, 3)])
    def test_pgm_and_ppm_round_trip_any_shape(self, tmp_path, hw):
        rng = np.random.default_rng(9)
        mask, rgb = rng.integers(0, 256, hw), rng.integers(0, 256, (3,) + hw)
        write_pgm(str(tmp_path / "m.pgm"), mask)
        write_ppm(str(tmp_path / "i.ppm"), rgb)
        np.testing.assert_array_equal(read_pgm(str(tmp_path / "m.pgm")), mask)
        np.testing.assert_array_equal(read_ppm(str(tmp_path / "i.ppm")), rgb)

    @pytest.mark.parametrize("write,read,image,kind", [
        (write_pgm, read_pgm, np.zeros((4, 5)), "PGM"),
        (write_ppm, read_ppm, np.zeros((3, 4, 5)), "PPM"),
    ])
    def test_truncated_body_is_data_error(self, tmp_path, write, read, image, kind):
        path = tmp_path / "image"
        write(str(path), image)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataError, match=f"truncated {kind} body$"):
            read(str(path))

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)])
    def test_raw_f64_round_trip(self, tmp_path, shape):
        arr = np.random.default_rng(2).standard_normal(shape)
        write_raw_f64(str(tmp_path / "a.f64"), arr)
        back = read_raw_f64(str(tmp_path / "a.f64"))
        assert back.shape == shape and back.tobytes() == arr.tobytes()

    @pytest.mark.parametrize("header", [
        b"mixerlab-f64 x 3",     # ndim not an integer
        b"mixerlab-f64",         # no ndim
        b"mixerlab-f64 1 \xff",  # not ASCII
        b"mixerlab-f64 2 3",     # declares 2 dimensions, gives 1
        b"mixerlab-f64 1",       # declares 1 dimension, gives 0
        b"mixerlab-f64 1 -3",    # negative dimension
        b"mixerlab-f64 1 2.5",   # non-integer dimension
        b"\xff\xfe 1 3",         # not the magic word
    ])
    def test_malformed_raw_f64_header_is_data_error(self, tmp_path, header):
        path = tmp_path / "a.f64"
        path.write_bytes(header + b"\n" + np.zeros(3).tobytes())
        with pytest.raises(DataError):
            read_raw_f64(str(path))


class TestNumericAbort:
    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_exploding_lr_exits_4_with_grad_dump(self, tmp_path, capsys):
        cfg = tmp_path / "train.ini"
        cfg.write_text(
            TINY_MODEL
            + """
[train]
epochs = 3
batch_size = 16
warmup_epochs = 1
lr = 1e18
min_lr = 1e12
max_steps = 8
[data]
kind = synthetic
n = 32
[run]
seed = 1
"""
        )
        code = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 4
        err = capsys.readouterr().err
        assert "numeric abort" in err
        assert "gradient norms" in err


@pytest.mark.parametrize("model", ["channels = 8,16,24,4000000000\n",  # a 6.29 TiB patch-embed kernel
                                   "input = 100000x100000\n"])  # a 3.49 TiB batch
def test_allocation_that_cannot_succeed_exits_4(tmp_path, model):
    """numpy refuses either allocation at once, and main reports it in one
    line. The child's address space is capped, so that a host which
    overcommits memory refuses it too, before a page is touched."""
    cfg = tmp_path / "train.ini"
    cfg.write_text(f"[model]\n{model}depths = 1,1,1,1\n[train]\nmax_steps = 1\n[data]\nkind = synthetic\nn = 16\n")
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-m", "mixerlab", "train", "--config", str(cfg), "--out", str(out)],
                          env=env, capture_output=True, text=True,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (4 * 10**9, 4 * 10**9)))
    assert done.returncode == 4, done.stderr
    assert done.stderr.startswith("numeric abort: ") and done.stderr.count("\n") == 1, done.stderr
    assert not out.exists()


def test_commands_run_with_scipy_blocked(tmp_path):
    """scipy is a test oracle only: with every scipy import refused, a tiny
    train, an infer and a bootstrap and a Wilcoxon rank all exit 0."""
    (tmp_path / "train.ini").write_text(TINY_MODEL + "[train]\nepochs = 1\nbatch_size = 8\nmax_steps = 2\n"
                                        "[data]\nkind = synthetic\nn = 16\n")
    _, ckpt = seg_checkpoint(tmp_path)
    write_ppm(str(tmp_path / "image.ppm"), np.zeros((3, 40, 40), dtype=np.uint8))
    (tmp_path / "infer.ini").write_text(f"[infer]\ncheckpoint = {ckpt}\nimage = {tmp_path / 'image.ppm'}\n")
    rng = np.random.default_rng(0)
    # 30 cases: the Wilcoxon test takes its normal approximation
    for comparator, header, n in (("bootstrap", "label,score_0,score_1", 20), ("wilcoxon", "dsc", 30)):
        scores = tmp_path / comparator
        scores.mkdir()
        for sub in ("a", "b", "c"):
            values = enumerate(rng.random(n).tolist())
            rows = [f"c{i},{i % 2},{v!r},{1 - v!r}" if n == 20 else f"c{i},{v!r}" for i, v in values]
            (scores / f"ds__{sub}.csv").write_text("\n".join([f"case_id,{header}"] + rows) + "\n")
        repeats = "repeats = 100\n" if comparator == "bootstrap" else ""  # the Wilcoxon test reads no repeats
        (tmp_path / f"{comparator}.ini").write_text(
            f"[rank]\nmode = scores\nscores_dir = {scores}\ncomparator = {comparator}\n{repeats}")
    runs = [[cmd, "--config", str(tmp_path / f"{name}.ini"), "--out", str(tmp_path / f"out_{name}")]
            for cmd, name in (("train", "train"), ("infer", "infer"), ("rank", "bootstrap"), ("rank", "wilcoxon"))]
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None  # any import of scipy or of a submodule now raises ImportError\n"
            "from mixerlab import cli\n"
            "print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == [0, 0, 0, 0], done.stderr
    assert (tmp_path / "out_infer" / "mask.pgm").exists()
    assert (tmp_path / "out_wilcoxon" / "rank_table.csv").exists()


class TestExitCodesAndConfig:
    def test_missing_config_is_2(self, tmp_path):
        assert run_cli("flops", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)) == 2

    def test_unknown_key_is_2(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[model]\nchannles = 1,2,3,4\n")
        assert run_cli("flops", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2

    def test_unknown_section_is_2(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[mystery]\nx = 1\n")
        assert run_cli("flops", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2

    def test_missing_data_file_is_3(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[rank]\nmode = wins\nwins_csv = {tmp_path / 'none.csv'}\n")
        assert run_cli("rank", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3

    def test_out_naming_a_file_is_one_line_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[flops]\nkernel = 3\n")
        afile = tmp_path / "afile"
        afile.write_text("")
        assert run_cli("flops", "--config", str(cfg), "--out", str(afile)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {afile}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_resolved_config_round_trips(self, tmp_path):
        import configparser

        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[model]\ninput = 768x768\n[flops]\nkernel = 7\n[run]\nseed = 3\n")
        out = tmp_path / "out"
        run_cli("flops", "--config", str(cfg), "--out", str(out))
        text = (out / "resolved_config.ini").read_text()
        parsed = configparser.ConfigParser()
        parsed.read_string(text)
        assert parsed.get("model", "input") == "768x768"
        assert parsed.get("flops", "kernel") == "7"
        assert parsed.get("run", "seed") == "3"
        # emitting again from the reloaded dump is byte-identical
        again = resolved_ini(load_config(str(out / "resolved_config.ini"), "flops"))
        assert again == text


# case: (command, config bytes, text the message must contain, extra arguments...)
MISSING_IMAGES = b"[data]\nkind = image_dir\nimage_dir = no_such_dir\nlabels_csv = no_such.csv\n"
BAD_CONFIGS = {
    "model_input": ("flops", b"[model]\ninput = 32\n", "model.input"),
    "flops_kernel": ("flops", b"[flops]\nkernel = x\n", "flops.kernel"),
    # every mixer refuses an even kernel or one below 3
    "flops_kernel_even": ("flops", b"[flops]\nkernel = 4\n", "flops.kernel = '4': must be an odd integer >= 3"),
    "flops_kernel_one": ("flops", b"[flops]\nkernel = 1\n", "flops.kernel = '1'"),
    "model_signature": ("flops", b"[model]\nsignature = conv:x\n", "model.signature"),
    "train_epochs": ("train", b"[train]\nepochs = ten\n", "train.epochs"),
    "rank_repeats": ("rank", b"[rank]\nrepeats = abc\n", "rank.repeats"),
    "utf16_bom": ("flops", b"\xff\xfe[\x00m\x00", "UTF-8"),
    "train_loss": ("train", b"[train]\nloss = ce\n", "loss"),
    "train_ignore_background": ("train", b"[train]\nignore_background = true\n", "ignore_background"),
    "infer_patch": ("infer", b"[infer]\npatch = 32x32\n", "patch"),
    # `kind = image_dir` with no paths makes code that accepts the key stop before training
    "train_grad_norm_alarm": ("train", b"[train]\ngrad_norm_alarm = 5\n[data]\nkind = image_dir\n", "grad_norm_alarm"),
    "run_seed": ("train", b"[run]\nseed = -1\n", "run.seed"),
    "train_seed_flag": ("train", b"", "--seed", "--seed", "-1"),
    "params_seed_flag": ("params", b"", "--seed", "--seed", "-2"),
    "rank_seed_flag": ("rank", b"", "--seed", "--seed", "-1"),
    "eval_seed_flag": ("eval", b"", "--seed", "--seed", "-3"),
    # a step budget of zero, a negative warm-up and a negative validation size;
    # `kind = image_dir` again stops code that accepts the value before training
    "train_max_steps_zero": ("train", b"[train]\nmax_steps = 0\n[data]\nkind = image_dir\n",
                             "train.max_steps = '0': must be a positive integer"),
    "train_warmup_negative": ("train", b"[train]\nwarmup_epochs = -3\n[data]\nkind = image_dir\n",
                              "train.warmup_epochs = '-3'"),
    "data_val_n_negative": ("train", b"[data]\nval_n = -1\nkind = image_dir\n", "data.val_n = '-1'"),
    # AdamW would grow the weights, and a negative sigma would turn augmentation off unsaid;
    # the missing image directory stops code that accepts the value before training
    "train_weight_decay_negative": ("train", b"[train]\nweight_decay = -0.1\n" + MISSING_IMAGES,
                                    "weight_decay and augment_sigma must be >= 0"),
    "train_augment_sigma_negative": ("train", b"[train]\naugment_sigma = -0.5\n" + MISSING_IMAGES,
                                     "weight_decay and augment_sigma must be >= 0"),
    "model_stochastic_depth": ("flops", b"[model]\nstochastic_depth = 1.0\n", "stochastic_depth must be in [0, 1)"),
}

# One rule for every section: a key the run needs must be set, and a key it
# would not read must stay at its default. case: (command, config with {tmp}
# for the directory of the inputs, the message)
WINS = "[rank]\nwins_csv = {tmp}/w.csv\n"
WILCOXON = "[rank]\nmode = scores\nscores_dir = {tmp}/dsc\ncomparator = wilcoxon\n"
EVAL_SCORES = "[eval]\nscores_csv = {tmp}/s.csv\n"
KEY_RULE_REFUSALS = {
    "rank_scores_dir_with_wins": ("rank", WINS + "scores_dir = {tmp}/dsc\n",
                                  "[rank] scores_dir is not read with mode = wins"),
    "rank_comparator_with_wins": ("rank", WINS + "comparator = wilcoxon\n",
                                  "[rank] comparator is not read with mode = wins"),
    "rank_repeats_with_wins": ("rank", WINS + "repeats = 7\n", "[rank] repeats is not read with mode = wins"),
    "rank_alpha_with_wins": ("rank", WINS + "alpha = 0.1\n", "[rank] alpha is not read with mode = wins"),
    "rank_wins_csv_with_scores": ("rank", WILCOXON + "wins_csv = {tmp}/w.csv\n",
                                  "[rank] wins_csv is not read with mode = scores"),
    "rank_repeats_with_wilcoxon": ("rank", WILCOXON + "repeats = 100\n",
                                   "[rank] repeats is not read with comparator = wilcoxon"),
    "eval_checkpoint_with_scores_csv": ("eval", EVAL_SCORES + "checkpoint = {tmp}/nope.mxlc\n",
                                        "[eval] checkpoint is not read with scores_csv = {tmp}/s.csv"),
    "eval_data_kind_with_scores_csv": (
        "eval", EVAL_SCORES + "[data]\nkind = image_dir\nimage_dir = {tmp}\nlabels_csv = {tmp}/l.csv\n",
        "[data] kind is not read with [eval] scores_csv set"),
    "eval_data_n_with_scores_csv": ("eval", EVAL_SCORES + "[data]\nn = 16\n",
                                    "[data] n is not read with [eval] scores_csv set"),
    "eval_data_val_n_with_scores_csv": ("eval", EVAL_SCORES + "[data]\nval_n = 4\n",
                                        "[data] val_n is not read with [eval] scores_csv set"),
    "eval_data_image_dir_with_scores_csv": ("eval", EVAL_SCORES + "[data]\nimage_dir = {tmp}\n",
                                            "[data] image_dir is not read with kind = synthetic"),
    "eval_data_labels_csv_with_scores_csv": ("eval", EVAL_SCORES + "[data]\nlabels_csv = {tmp}/l.csv\n",
                                             "[data] labels_csv is not read with kind = synthetic"),
    "params_needs_signatures": ("params", "", "[params] needs signatures"),
    "infer_needs_checkpoint": ("infer", "[infer]\nimage = {tmp}/i.ppm\n", "[infer] needs checkpoint"),
    "infer_needs_image": ("infer", "[infer]\ncheckpoint = {tmp}/c.mxlc\n", "[infer] needs image"),
    "eval_needs_checkpoint": ("eval", "[eval]\nmetric = f1\n", "[eval] needs checkpoint with scores_csv unset"),
    "rank_needs_wins_csv": ("rank", "", "[rank] needs wins_csv with mode = wins"),
    "rank_needs_scores_dir": ("rank", "[rank]\nmode = scores\n", "[rank] needs scores_dir with mode = scores"),
    "train_needs_image_dir": ("train", "[data]\nkind = image_dir\nlabels_csv = {tmp}/l.csv\n",
                              "[data] needs image_dir with kind = image_dir"),
    "train_needs_labels_csv": ("train", "[data]\nkind = image_dir\nimage_dir = {tmp}\n",
                               "[data] needs labels_csv with kind = image_dir"),
}
# a key that is not read, set to its default, changes nothing: (command, config, the keys added)
KEYS_AT_DEFAULT = {
    "rank_scores_keys_with_wins": ("rank", WINS, "comparator = bootstrap\nrepeats = 5000\nalpha = 0.05\n"),
    "rank_repeats_with_wilcoxon": ("rank", WILCOXON, "repeats = 5000\n"),
    "eval_data_with_scores_csv": ("eval", EVAL_SCORES, "[data]\nkind = synthetic\nn = 128\nval_n = 0\n"),
}


def _checkpoint_with_config_bytes(cfg: bytes) -> bytes:
    return b"MXLC" + struct.pack("<IQ", 1, len(cfg)) + cfg + struct.pack("<Q", 0)


class TestInputBoundary:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_is_one_line_config_error(self, tmp_path, capsys, case):
        command, content, named, *extra = BAD_CONFIGS[case]
        cfg = tmp_path / "cfg.ini"
        cfg.write_bytes(content)
        assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o"), *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert err.count("\n") == 1
        assert named in err

    @pytest.fixture
    def key_rule_inputs(self, tmp_path):
        """A wins CSV, a case scores CSV and a directory of two DSC files,
        which each config of the key rule tables reads."""
        (tmp_path / "w.csv").write_bytes(VALID_WINS)
        (tmp_path / "s.csv").write_bytes(VALID_SCORES)
        (tmp_path / "dsc").mkdir()
        for sub, dsc in (("a", 0.5), ("b", 0.25)):
            rows = "".join(f"c{i},{dsc + i / 100!r}\n" for i in range(8))
            (tmp_path / "dsc" / f"ds__{sub}.csv").write_text("case_id,dsc\n" + rows)
        return tmp_path

    @pytest.mark.parametrize("case", sorted(KEY_RULE_REFUSALS))
    def test_key_rule_refusal_is_one_exact_line(self, key_rule_inputs, capsys, case):
        command, text, message = (part.replace("{tmp}", str(key_rule_inputs)) for part in KEY_RULE_REFUSALS[case])
        cfg = key_rule_inputs / "cfg.ini"
        cfg.write_text(text)
        out = key_rule_inputs / "o"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (out / "resolved_config.ini").exists()

    @pytest.mark.parametrize("case", sorted(KEYS_AT_DEFAULT))
    def test_unread_keys_at_their_defaults_change_nothing(self, key_rule_inputs, case):
        command, text, added = (part.replace("{tmp}", str(key_rule_inputs)) for part in KEYS_AT_DEFAULT[case])
        resolved = []
        for name, config in (("plain", text), ("added", text + added)):
            cfg = key_rule_inputs / f"{name}.ini"
            cfg.write_text(config)
            assert run_cli(command, "--config", str(cfg), "--out", str(key_rule_inputs / name)) == 0
            resolved.append((key_rule_inputs / name / "resolved_config.ini").read_bytes())
        assert resolved[0] == resolved[1]

    def test_each_selector_comes_earlier_in_its_section(self):
        # read_ini decides whether a key is read from the keys before it
        for section, keys in SCHEMA.items():
            names = [k.name for k in keys]
            for i, key in enumerate(keys):
                assert key.when is None or key.when[0] in names[:i], (section, key.name)

    def test_resolved_config_lists_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.csv").write_text("submission,dataset,wins\na,ds,1\nb,ds,0\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[rank]\nwins_csv = w.csv\n")
        assert run_cli("rank", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
        text = (tmp_path / "o" / "resolved_config.ini").read_text()
        assert text == "[rank]\nmode = wins\nwins_csv = w.csv\n\n[run]\nseed = 0\n"  # no key the run did not read

    def infer_files(self, tmp_path):
        _, ckpt_path = seg_checkpoint(tmp_path)
        _, img_path = TestInferCommand().write_image(tmp_path, (32, 32))
        return ckpt_path, img_path

    @pytest.mark.parametrize(
        "which",
        ["truncated_header", "truncated_data", "config_not_utf8", "nan_weights", "trailing_bytes", "repeated_name"])
    def test_bad_checkpoint_is_data_error(self, tmp_path, capsys, which):
        ckpt_path, img_path = self.infer_files(tmp_path)
        if which == "truncated_header":
            ckpt_path.write_bytes(b"MXLC\x01\x00")
        elif which == "truncated_data":
            # the last array's header is whole and its data four bytes short
            ckpt_path.write_bytes(ckpt_path.read_bytes()[:-4])
        elif which == "config_not_utf8":
            ckpt_path.write_bytes(_checkpoint_with_config_bytes(b"[model]\n\xff\xfe"))
        elif which == "trailing_bytes":
            ckpt_path.write_bytes(ckpt_path.read_bytes() + bytes(8))
        elif which == "repeated_name":
            # the same length and shape, so only the repeat is wrong with the file
            raw = ckpt_path.read_bytes()
            ckpt_path.write_bytes(raw.replace(b"stage0.block0.norm2.gamma", b"stage0.block0.norm1.gamma"))
        else:
            model = load_model(str(ckpt_path))
            model.named_parameters()["stage1.block0.mlp.fc2.bias"].data[3] = np.nan
            save_model(str(ckpt_path), model)
        cfg = tmp_path / "infer.ini"
        cfg.write_text(f"[infer]\ncheckpoint = {ckpt_path}\nimage = {img_path}\n")
        assert run_cli("infer", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        named = {
            "truncated_data": "truncated checkpoint",
            "nan_weights": "stage1.block0.mlp.fc2.bias",
            "trailing_bytes": "8 bytes after the last array",
            "repeated_name": "'stage0.block0.norm1.gamma' repeats",
        }
        assert named.get(which, "") in err

    @pytest.mark.parametrize("mismatch", ["missing", "extra", "wrong_shape"])
    def test_mismatched_checkpoint_is_one_line_data_error(self, tmp_path, capsys, mismatch):
        ckpt_path, img_path = self.infer_files(tmp_path)
        config_text, arrays = load_arrays(str(ckpt_path))
        name = "stage2.block0.mixer.kernel"
        if mismatch == "missing":
            del arrays[name]
        elif mismatch == "extra":
            arrays["stage2.block0.mixer.bias"] = np.zeros(24)
        else:
            arrays[name] = np.zeros((24, 1, 5, 5))
        save_arrays(str(ckpt_path), config_text, arrays)
        cfg = tmp_path / "infer.ini"
        cfg.write_text(f"[infer]\ncheckpoint = {ckpt_path}\nimage = {img_path}\n")
        assert run_cli("infer", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert ("stage2.block0.mixer.bias" if mismatch == "extra" else name) in err

    def test_bad_ppm_header_is_data_error(self, tmp_path):
        ckpt_path, img_path = self.infer_files(tmp_path)
        img_path.write_bytes(b"P6\nab 3")
        cfg = tmp_path / "infer.ini"
        cfg.write_text(f"[infer]\ncheckpoint = {ckpt_path}\nimage = {img_path}\n")
        assert run_cli("infer", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3

    def test_bad_case_scores_row_is_data_error(self, tmp_path):
        scores_csv = tmp_path / "scores.csv"
        scores_csv.write_text("case_id,label,score_0,score_1\nc0,0,0.5,0.5\nc1,x,0.5\n")
        cfg = tmp_path / "eval.ini"
        cfg.write_text(f"[eval]\nscores_csv = {scores_csv}\n")
        assert run_cli("eval", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3

    @pytest.mark.parametrize("label,metric", [(5, "auc"), (-1, "f1")])
    def test_label_outside_score_columns_is_data_error(self, tmp_path, capsys, label, metric):
        scores_csv = tmp_path / "scores.csv"
        scores_csv.write_text(
            "case_id,label,score_0,score_1\nc0,0,0.9,0.1\nc1,1,0.2,0.8\nc2,0,0.7,0.3\n"
            f"c3,{label},0.4,0.6\n"
        )
        cfg = tmp_path / "eval.ini"
        cfg.write_text(f"[eval]\nmetric = {metric}\nscores_csv = {scores_csv}\n")
        out = tmp_path / "o"
        assert run_cli("eval", "--config", str(cfg), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "labels must be in [0, 2)" in err
        assert not (out / "metrics.csv").exists()

    def test_bad_wins_row_is_data_error(self, tmp_path):
        wins_csv = tmp_path / "wins.csv"
        wins_csv.write_text("submission,dataset,wins\na,b\n")
        cfg = tmp_path / "rank.ini"
        cfg.write_text(f"[rank]\nwins_csv = {wins_csv}\n")
        assert run_cli("rank", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3


def _mutations(valid: bytes):
    """Random bytes, a truncation of ``valid``, or ``valid`` with one byte replaced."""
    return st.one_of(
        st.binary(max_size=64),
        st.integers(0, len(valid)).map(lambda i: valid[:i]),
        st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
            lambda t: valid[: t[0]] + bytes([t[1]]) + valid[t[0] + 1 :]
        ),
    )


_NAMES = sorted({k.name for keys in SCHEMA.values() for k in keys} | {"threads", "loss"})
_SECTIONS = sorted(SCHEMA) + ["DEFAULT", "mystery"]
_VALUE = st.text(alphabet="0123456789x,.:;-_ abcdeilmnopstuw\t\n%", max_size=14)
_INI = st.lists(
    st.tuples(st.sampled_from(_SECTIONS), st.lists(st.tuples(st.sampled_from(_NAMES), _VALUE), max_size=4)),
    max_size=3,
).map(lambda secs: "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv) for s, kv in secs))

VALID_SCORES = b"case_id,label,score_0,score_1\nc0,0,0.9,0.1\nc1,1,0.2,0.8\nc2,1,0.4,0.6\n"
VALID_WINS = b"submission,dataset,wins\na,ds,2\nb,ds,1\nc,ds,0\n"


class TestBoundaryFuzz:
    """``main`` ends in a documented exit code and never raises, whatever
    the bytes of its config, checkpoint, image or CSV input."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        _, ckpt_path = seg_checkpoint(root)
        _, img_path = TestInferCommand().write_image(root, (32, 32))
        return root, ckpt_path.read_bytes(), img_path.read_bytes()

    def run_main(self, root, command, config: bytes, inputs: dict[str, bytes]) -> int:
        for name, content in inputs.items():
            (root / name).write_bytes(content)
        (root / "cfg.ini").write_bytes(config)
        (root / "out" / "resolved_config.ini").unlink(missing_ok=True)
        cwd = os.getcwd()
        os.chdir(root)  # any relative path a fuzzed config names stays inside root
        try:
            return main([command, "--config", "cfg.ini", "--out", "out"])
        finally:
            os.chdir(cwd)

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["flops", "eval", "rank", "infer"]),
           config=st.one_of(st.binary(max_size=64), _INI.map(str.encode)))
    def test_config_bytes(self, files, command, config):
        root, _, _ = files
        assert self.run_main(root, command, config, {}) in (0, 2, 3, 4)
        resolved = root / "out" / "resolved_config.ini"
        if resolved.exists():  # the config parsed: its dump reloads to the same dump
            assert resolved_ini(load_config(str(resolved), command)) == resolved.read_text()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_checkpoint_bytes(self, files, data):
        root, ckpt_bytes, img_bytes = files
        ckpt = data.draw(_mutations(ckpt_bytes))
        config = b"[infer]\ncheckpoint = c.mxlc\nimage = i.ppm\n"
        code = self.run_main(root, "infer", config, {"c.mxlc": ckpt, "i.ppm": img_bytes})
        assert code in (0, 2, 3, 4)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ppm_bytes(self, files, data):
        root, ckpt_bytes, img_bytes = files
        img = data.draw(_mutations(img_bytes[:40]).map(lambda head: head + img_bytes[40:]))
        config = b"[infer]\ncheckpoint = c.mxlc\nimage = i.ppm\n"
        code = self.run_main(root, "infer", config, {"c.mxlc": ckpt_bytes, "i.ppm": img})
        assert code in (0, 2, 3, 4)

    @settings(max_examples=100, deadline=None)
    @given(scores=_mutations(VALID_SCORES), wins=_mutations(VALID_WINS))
    def test_csv_bytes(self, files, scores, wins):
        root, _, _ = files
        inputs = {"s.csv": scores, "w.csv": wins}
        assert self.run_main(root, "eval", b"[eval]\nscores_csv = s.csv\n", inputs) in (0, 2, 3, 4)
        assert self.run_main(root, "rank", b"[rank]\nwins_csv = w.csv\n", inputs) in (0, 2, 3, 4)
