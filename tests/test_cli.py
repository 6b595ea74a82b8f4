import json
import os
import shutil
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import oracles
import pytest

import reidapt.cli as cli
from reidapt.cli import main
from reidapt.data import l2_normalize, read_features, write_features, write_labels
from reidapt.encoder import init_encoder, load_checkpoint, save_checkpoint
from reidapt.evaluate import pairwise_fscore
from reidapt.trainer import TrainConfig, extract_features


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_args(out, ids=10, per_id=8, seed=5, noise=0.3, shift=2.0):
    return ["gen-data", "--ids", str(ids), "--per-id", str(per_id),
            "--cameras", "3", "--dim", "12", "--noise", str(noise),
            "--camera-shift", "0.3", "--domain-shift", str(shift),
            "--seed", str(seed), "--out", str(out)]


def fast_config(tmp_path, **kw):
    doc = dict(pretrain_epochs=8, epochs=2, batch_p=4, batch_k=4, feat_dim=12,
               k_rr=8, eps_percentile=1.5, min_pts=3, base_lr=2e-3, seed=5)
    doc.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def data_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, stdout, _ = run_cli(capsys, *gen_args(out))
    assert code == 0
    return out


class TestGenData:
    def test_writes_four_split_pairs(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, stdout, _ = run_cli(capsys, *gen_args(out))
        assert code == 0
        doc = json.loads(stdout)
        assert set(doc["splits"]) == {"source", "target_train",
                                      "target_query", "target_gallery"}
        for split in doc["splits"].values():
            assert (tmp_path / split["features"]).exists() or \
                   json.dumps(split["features"])  # absolute path recorded
        assert doc["splits"]["target_train"]["samples"] == 80

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen-data", "--ids", "4", "--per-id", "4"])
        assert err.value.code == 2

    def test_rerun_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, *gen_args(a))
        run_cli(capsys, *gen_args(b))
        for name in ("source.drft", "target_train.drft", "target_train.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_spec_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen-data", "--ids", "0", "--per-id", "4",
                               "--out", str(tmp_path / "x"))
        assert code == 2
        assert "invalid" in err

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--spread", "nan"),
                                             ("--noise", "inf")])
    def test_unusable_spec_exit_2_before_out_is_made(self, tmp_path, capsys, flag, value):
        # a negative seed crashed the generator; a NaN or infinite scale gave
        # splits that every later command refuses
        code, stdout, err = run_cli(capsys, "gen-data", "--ids", "4", "--per-id", "4",
                                    flag, value, "--out", str(tmp_path / "x"))
        assert code == 2 and stdout == ""
        assert err.startswith("error: invalid dataset spec")
        assert not (tmp_path / "x").exists()

    def test_single_camera_rejected(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "gen-data", "--ids", "4", "--per-id", "4",
                             "--cameras", "1", "--out", str(tmp_path / "x"))
        assert code == 2


def assert_same_files(run_a, run_b, epochs):
    """Both run directories hold byte-equal CSVs, final checkpoint and
    checkpoints of epochs 0 to ``epochs`` - 1."""
    checkpoints = [f"ckpt_epoch_{epoch:03d}.npz" for epoch in range(epochs)]
    for run in (run_a, run_b):
        assert sorted(p.name for p in run.glob("ckpt_epoch_*")) == checkpoints
    for name in ("metrics.csv", "losses.csv", "final.npz", *checkpoints):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name


class _Stop(BaseException):
    """A process stopped from outside, a kill say, in the middle of a write."""


# the commands that read a checkpoint given by --ckpt
_CKPT_READERS = [["cluster"], ["eval"], ["eval", "--cluster-stats"], ["adapt", "--out", "run"]]


def _damage_checkpoint(path, damage):
    """Rewrite the checkpoint file ``path`` with the named damage."""
    with np.load(path) as npz:
        arrays = dict(npz)
    if damage == "empty":
        path.write_bytes(b"")
    elif damage == "not-zip":
        path.write_bytes(b"not a checkpoint")
    elif damage == "truncated":
        path.write_bytes(path.read_bytes()[:200])
    elif damage == "bare-npy":
        with open(path, "wb") as fh:
            np.save(fh, arrays["w1"])
    elif damage == "missing-array":
        np.savez(path, **{name: a for name, a in arrays.items() if name != "t"})
    elif damage == "unchained":
        np.savez(path, **dict(arrays, w2=arrays["w2"][1:]))
    elif damage == "short-moments":
        np.savez(path, **dict(arrays, m=arrays["m"][1:]))
    elif damage == "float32":
        np.savez(path, **{name: a.astype(np.float32) if a.ndim else a
                          for name, a in arrays.items()})
    else:
        raise AssertionError(damage)


class TestPipeline:
    def test_pretrain_adapt_eval_chain(self, data_dir, tmp_path, capsys):
        cfg = fast_config(tmp_path)
        code, stdout, _ = run_cli(capsys, "pretrain", "--data", str(data_dir),
                                  "--config", cfg, "--out", str(tmp_path / "pre"))
        assert code == 0
        pre = json.loads(stdout)
        assert "source_top1" in pre

        code, stdout, _ = run_cli(capsys, "adapt", "--data", str(data_dir),
                                  "--ckpt", pre["checkpoint"], "--config", cfg,
                                  "--out", str(tmp_path / "run"))
        assert code == 0
        ada = json.loads(stdout)
        assert ada["epochs_run"] == 2
        assert (tmp_path / "run" / "manifest.json").exists()
        assert (tmp_path / "run" / "metrics.csv").exists()
        assert (tmp_path / "run" / "losses.csv").exists()

        code, stdout, _ = run_cli(capsys, "eval", "--ckpt", ada["final_checkpoint"],
                                  "--data", str(data_dir), "--config", cfg)
        assert code == 0
        doc = json.loads(stdout)
        assert 0.0 <= doc["mAP"] <= 1.0
        assert doc["R1"] <= doc["R5"] <= doc["R10"]

    def test_adapt_without_ckpt_pretrains(self, data_dir, tmp_path, capsys):
        cfg = fast_config(tmp_path, epochs=1)
        code, stdout, _ = run_cli(capsys, "adapt", "--data", str(data_dir),
                                  "--config", cfg, "--out", str(tmp_path / "run"))
        assert code == 0
        assert (tmp_path / "run" / "pretrain.npz").exists()

    def test_adapt_dumps_per_epoch_labels(self, data_dir, tmp_path, capsys):
        cfg = fast_config(tmp_path, epochs=2)
        code, _, _ = run_cli(capsys, "adapt", "--data", str(data_dir),
                             "--config", cfg, "--out", str(tmp_path / "run"),
                             "--dump-labels", str(tmp_path / "snapshots"))
        assert code == 0
        for epoch in (0, 1):
            snap = tmp_path / "snapshots" / f"labels_epoch_{epoch:03d}.csv"
            lines = snap.read_text().splitlines()
            assert lines[0] == "index,coarse,refined"
            assert len(lines) == 81  # header plus one row per sample

    def test_cluster_reports_fscore(self, data_dir, tmp_path, capsys):
        cfg = fast_config(tmp_path)
        _, stdout, _ = run_cli(capsys, "pretrain", "--data", str(data_dir),
                               "--config", cfg, "--out", str(tmp_path / "pre"))
        ckpt = json.loads(stdout)["checkpoint"]
        code, stdout, _ = run_cli(capsys, "cluster", "--ckpt", ckpt,
                                  "--data", str(data_dir), "--config", cfg,
                                  "--dump-labels", str(tmp_path / "labels"),
                                  "--dump-jaccard", str(tmp_path / "dj.drft"))
        assert code == 0
        doc = json.loads(stdout)
        assert {"L", "N", "N_outlier", "fscore", "precision", "recall"} <= set(doc)
        labels = (tmp_path / "labels" / "labels_epoch_000.csv").read_text()
        assert labels.startswith("index,coarse,refined")
        # the dump lists the stored pairs as (i, j, d_J) rows, i < j; every
        # absent pair is at 1.0, and densified it is the dense oracle's d_J
        rows = read_features(tmp_path / "dj.drft")
        assert rows.ndim == 2 and rows.shape[1] == 3 and 0 < len(rows) < 80 * 79 // 2
        i, j = rows[:, 0].astype(int), rows[:, 1].astype(int)
        assert np.all(i < j)
        dumped = np.ones((80, 80))
        dumped[i, j] = dumped[j, i] = rows[:, 2]
        np.fill_diagonal(dumped, 0.0)
        state, _ = load_checkpoint(ckpt)
        feats = extract_features(state, read_features(data_dir / "target_train.drft"))
        want = oracles.dense_chain(feats, k_rr=8)[3]
        assert np.array_equal(dumped, want.astype(np.float32).astype(np.float64))

    def test_eval_cluster_stats_schema(self, data_dir, tmp_path, capsys):
        cfg = fast_config(tmp_path)
        _, stdout, _ = run_cli(capsys, "pretrain", "--data", str(data_dir),
                               "--config", cfg, "--out", str(tmp_path / "pre"))
        ckpt = json.loads(stdout)["checkpoint"]
        code, stdout, _ = run_cli(capsys, "eval", "--ckpt", ckpt,
                                  "--data", str(data_dir), "--config", cfg,
                                  "--cluster-stats")
        assert code == 0
        doc = json.loads(stdout)
        assert {"mAP", "R1", "R5", "R10", "precision", "recall", "fscore",
                "N", "N_outlier"} <= set(doc)

    def test_each_labeling_scored_once(self, data_dir, tmp_path, capsys, monkeypatch):
        import reidapt.cli as cli
        import reidapt.trainer as trainer
        cfg = fast_config(tmp_path)
        _, stdout, _ = run_cli(capsys, "pretrain", "--data", str(data_dir),
                               "--config", cfg, "--out", str(tmp_path / "pre"))
        ckpt = json.loads(stdout)["checkpoint"]
        calls = []

        def counted(pseudo, truth):
            calls.append(pseudo)
            return pairwise_fscore(pseudo, truth)

        for module in (cli, trainer):
            monkeypatch.setattr(module, "pairwise_fscore", counted)
        # the coarse and the refined labels once each; eval reads the refined only
        for argv, want in ((["cluster"], 2), (["eval", "--cluster-stats"], 1)):
            calls.clear()
            code, _, _ = run_cli(capsys, *argv, "--ckpt", ckpt,
                                 "--data", str(data_dir), "--config", cfg)
            assert code == 0
            assert len(calls) == want, argv

    def test_resume_continues_epochs(self, data_dir, tmp_path, capsys):
        cfg2 = fast_config(tmp_path, epochs=2)
        _, stdout, _ = run_cli(capsys, "adapt", "--data", str(data_dir),
                               "--config", cfg2, "--out", str(tmp_path / "runA"))
        cfg3 = fast_config(tmp_path, epochs=3)
        code, stdout, _ = run_cli(capsys, "adapt", "--data", str(data_dir),
                                  "--config", cfg3, "--resume", str(tmp_path / "runA"),
                                  "--out", str(tmp_path / "runB"))
        assert code == 0
        doc = json.loads(stdout)
        assert doc["epochs_run"] == 1  # epoch 2 only
        assert (tmp_path / "runB" / "ckpt_epoch_002.npz").exists()

    def test_resume_skips_stray_checkpoint_names(self, data_dir, tmp_path, capsys):
        run = tmp_path / "runA"
        run.mkdir()
        rng = np.random.default_rng(0)
        save_checkpoint(run / "ckpt_epoch_000", init_encoder(12, 24, 12, rng),
                        l2_normalize(rng.standard_normal((80, 12))))
        (run / "ckpt_epoch_000.bak.npz").write_bytes((run / "ckpt_epoch_000.npz").read_bytes())
        code, stdout, _ = run_cli(capsys, "adapt", "--data", str(data_dir),
                                  "--config", fast_config(tmp_path, epochs=2),
                                  "--resume", str(run), "--out", str(tmp_path / "runB"))
        assert code == 0
        assert json.loads(stdout)["epochs_run"] == 1  # epoch 1 only
        assert (tmp_path / "runB" / "ckpt_epoch_001.npz").exists()

    def test_resume_keeps_earlier_epoch_rows(self, data_dir, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "adapt", "--data", str(data_dir), "--config",
                             fast_config(tmp_path, epochs=2), "--out", str(tmp_path / "first"))
        assert code == 0
        first = {name: (tmp_path / "first" / name).read_bytes()
                 for name in ("metrics.csv", "losses.csv")}
        shutil.copytree(tmp_path / "first", tmp_path / "same")
        cfg3 = fast_config(tmp_path, epochs=3)
        # into the run directory itself, and into a directory of its own
        for resume, out in (("same", "same"), ("first", "other")):
            code, _, _ = run_cli(capsys, "adapt", "--data", str(data_dir), "--config", cfg3,
                                 "--resume", str(tmp_path / resume),
                                 "--out", str(tmp_path / out))
            assert code == 0
            for name, before in first.items():
                after = (tmp_path / out / name).read_bytes()
                # epochs 0-1 as the first run wrote them
                assert after.startswith(before)
                epochs = [line.split(b",")[0] for line in after.splitlines()[1:]]
                assert list(dict.fromkeys(epochs)) == [b"0", b"1", b"2"]

    def test_resume_equals_an_uninterrupted_run(self, data_dir, tmp_path, capsys):
        # 3 epochs against 2 and then --resume 1 into the same directory:
        # checkpoints hold the float64 encoder, its Adam slot and the bank,
        # so every file of the two runs agrees to the last byte
        adapt = ["adapt", "--data", str(data_dir)]
        whole, cut = str(tmp_path / "whole"), str(tmp_path / "cut")
        for epochs, argv in ((3, ["--out", whole, "--dump-bank", whole + ".drft"]),
                             (2, ["--out", cut]),
                             (3, ["--resume", cut, "--out", cut, "--dump-bank", cut + ".drft"])):
            code, _, err = run_cli(capsys, *adapt, "--config",
                                   fast_config(tmp_path, epochs=epochs), *argv)
            assert code == 0, err
        assert_same_files(tmp_path / "whole", tmp_path / "cut", epochs=3)
        assert (tmp_path / "whole.drft").read_bytes() == (tmp_path / "cut.drft").read_bytes()

    def test_adapt_from_a_checkpoint_equals_pretraining_in_process(self, data_dir, tmp_path,
                                                                   capsys):
        # the pretrained checkpoint carries the encoder's Adam slot, so adapt
        # --ckpt continues exactly as adapt does after pretraining itself
        cfg = fast_config(tmp_path, epochs=2)
        code, stdout, _ = run_cli(capsys, "pretrain", "--data", str(data_dir),
                                  "--config", cfg, "--out", str(tmp_path / "pre"))
        assert code == 0
        adapt = ["adapt", "--data", str(data_dir), "--config", cfg]
        for name, start in (("from_ckpt", ["--ckpt", json.loads(stdout)["checkpoint"]]),
                            ("in_process", [])):
            code, _, err = run_cli(capsys, *adapt, *start, "--out", str(tmp_path / name),
                                   "--dump-bank", str(tmp_path / f"{name}.drft"))
            assert code == 0, err
        assert_same_files(tmp_path / "from_ckpt", tmp_path / "in_process", epochs=2)
        assert ((tmp_path / "from_ckpt.drft").read_bytes()
                == (tmp_path / "in_process.drft").read_bytes())
        assert ((tmp_path / "pre" / "pretrain.npz").read_bytes()
                == (tmp_path / "in_process" / "pretrain.npz").read_bytes())

    def test_csvs_keep_finished_epochs_on_exit_4(self, data_dir, tmp_path, capsys,
                                                 monkeypatch):
        import reidapt.trainer as trainer
        cfg = fast_config(tmp_path, epochs=3)
        pre = tmp_path / "pre"
        code, stdout, _ = run_cli(capsys, "pretrain", "--data", str(data_dir),
                                  "--config", cfg, "--out", str(pre))
        assert code == 0
        ckpt = json.loads(stdout)["checkpoint"]
        code, _, _ = run_cli(capsys, "adapt", "--data", str(data_dir), "--ckpt", ckpt,
                             "--config", cfg, "--out", str(tmp_path / "whole"))
        assert code == 0

        real = trainer.offline_epoch

        def no_clusters_at_epoch_1(state, raw, cfg, epoch, *rest, **kw):
            if epoch == 1:
                raise trainer.TrainingDivergedError("epoch 1: every sample is an outlier")
            return real(state, raw, cfg, epoch, *rest, **kw)

        monkeypatch.setattr(trainer, "offline_epoch", no_clusters_at_epoch_1)
        code, _, err = run_cli(capsys, "adapt", "--data", str(data_dir), "--ckpt", ckpt,
                               "--config", cfg, "--out", str(tmp_path / "cut"))
        assert code == 4
        assert "training diverged: epoch 1: every sample is an outlier" in err
        for name in ("metrics.csv", "losses.csv"):
            cut = (tmp_path / "cut" / name).read_text().splitlines()
            whole = (tmp_path / "whole" / name).read_text().splitlines()
            epochs = [line.split(",")[0] for line in cut[1:]]
            # the header and every epoch-0 row, as the completed run wrote them
            assert epochs and set(epochs) == {"0"}
            assert cut == whole[:len(cut)]
            assert whole[len(cut)].split(",")[0] == "1"

    @pytest.mark.parametrize("torn", ["ckpt_epoch_001.npz", "metrics.csv"])
    def test_resume_after_a_stop_mid_epoch_lists_every_epoch_once(
            self, data_dir, tmp_path, capsys, monkeypatch, torn):
        # a run stopped while it writes one of epoch 1's files resumes from
        # epoch 0: epoch 1's checkpoint is written after the rest, under a
        # .tmp name that only a whole file leaves
        cfg = fast_config(tmp_path, epochs=3)
        code, stdout, _ = run_cli(capsys, "pretrain", "--data", str(data_dir),
                                  "--config", cfg, "--out", str(tmp_path / "pre"))
        assert code == 0
        adapt = ["adapt", "--data", str(data_dir), "--config", cfg]
        ckpt = ["--ckpt", json.loads(stdout)["checkpoint"]]
        code, _, _ = run_cli(capsys, *adapt, *ckpt, "--out", str(tmp_path / "whole"))
        assert code == 0

        real_savez, real_append = np.savez, cli._append_lines

        def stop_in_checkpoint(fh, **arrays):
            if Path(fh.name).name == torn + ".tmp":
                fh.write(b"PK\x03\x04")  # a zip entry cut short
                raise _Stop
            real_savez(fh, **arrays)

        def stop_in_rows(path, lines):
            if Path(path).name == torn and lines[0].startswith("1,"):
                with open(path, "a") as fh:
                    fh.write(lines[0][:5])  # a row cut short
                raise _Stop
            real_append(path, lines)

        cut = str(tmp_path / "cut")
        with monkeypatch.context() as patch:
            patch.setattr(np, "savez", stop_in_checkpoint)
            patch.setattr(cli, "_append_lines", stop_in_rows)
            with pytest.raises(_Stop):
                main([*adapt, *ckpt, "--out", cut])
        capsys.readouterr()
        assert not (tmp_path / "cut" / "ckpt_epoch_001.npz").exists()

        code, stdout, err = run_cli(capsys, *adapt, "--resume", cut, "--out", cut)
        assert code == 0, err
        assert json.loads(stdout)["epochs_run"] == 2  # epochs 1 and 2
        for name in ("metrics.csv", "losses.csv"):
            resumed, whole = ([line.split(",")[0] for line in
                               (tmp_path / run / name).read_text().splitlines()[1:]]
                              for run in ("cut", "whole"))
            assert list(dict.fromkeys(resumed)) == ["0", "1", "2"]
            assert resumed == whole

    def test_resume_drops_a_row_cut_short(self, tmp_path):
        # a run stopped while it appends a row of epoch 10 or later can leave
        # a line that reads like the start of an earlier epoch's row
        path = tmp_path / "metrics.csv"
        rows = [f"{epoch},5" for epoch in range(10)]
        path.write_text("\n".join(["epoch,num_clusters", *rows, "1"]))
        assert cli._rows_through(path, last=9) == rows

    @pytest.mark.parametrize("fault", ["write", "rename"])
    def test_resume_into_its_own_directory_keeps_the_csvs_on_a_failed_rewrite(
            self, data_dir, tmp_path, capsys, monkeypatch, fault):
        # --resume into the run's own directory rewrites both CSVs through a
        # .tmp name: a write stopped midway or a rename that fails leaves the
        # rows of every finished epoch as they were
        run = tmp_path / "run"
        adapt = ["adapt", "--data", str(data_dir), "--out", str(run)]
        code, _, _ = run_cli(capsys, *adapt, "--config", fast_config(tmp_path, epochs=2))
        assert code == 0
        before = {name: (run / name).read_bytes() for name in ("metrics.csv", "losses.csv")}
        resume = [*adapt, "--config", fast_config(tmp_path, epochs=3), "--resume", str(run)]

        real_write, real_replace = Path.write_text, os.replace

        def stop_midway(path, text):
            real_write(path, text[:len(text) // 2])
            raise _Stop

        def fail_csv_rename(src, dst):
            if str(src).endswith(".csv.tmp"):
                raise OSError(f"cannot rename {src}")
            real_replace(src, dst)

        with monkeypatch.context() as patch:
            if fault == "write":
                patch.setattr(Path, "write_text", stop_midway)
                with pytest.raises(_Stop):
                    main(resume)
            else:
                patch.setattr(os, "replace", fail_csv_rename)
                assert main(resume) == 3
        capsys.readouterr()
        assert {name: (run / name).read_bytes() for name in before} == before


class TestValidation:
    def test_alpha_out_of_range_names_key(self, data_dir, tmp_path, capsys):
        cfg = fast_config(tmp_path, alpha=1.3)
        code, _, err = run_cli(capsys, "adapt", "--data", str(data_dir),
                               "--config", cfg, "--out", str(tmp_path / "run"))
        assert code == 2
        assert "alpha" in err

    def test_unknown_config_key(self, data_dir, tmp_path, capsys):
        # bank_mode is the bank-rule key of configs from before the instant
        # bank became momentum at tau 0, and the last five were keys before
        # they became constants of the reference regime: the config of an
        # earlier manifest.json still names them
        for key, value in (("alhpa", 0.5), ("bank_mode", "momentum"),
                           ("spread_margin", 0.35), ("warmup_epochs", 10),
                           ("pretrain_decay_epochs", [40, 70]), ("decay_factor", 10.0),
                           ("weight_decay", 5e-4)):
            cfg = fast_config(tmp_path, **{key: value})
            code, stdout, err = run_cli(capsys, "adapt", "--data", str(data_dir),
                                        "--config", cfg, "--out", str(tmp_path / "run"))
            assert code == 2 and stdout == ""
            assert err.startswith("error:") and len(err.splitlines()) == 1
            assert key in err

    def test_adapt_rejects_decreasing_decay_epochs(self, data_dir, tmp_path, capsys):
        cfg = fast_config(tmp_path, adapt_decay_epochs=[5, 2])
        code, _, err = run_cli(capsys, "adapt", "--data", str(data_dir),
                               "--config", cfg, "--out", str(tmp_path / "run"))
        assert code == 2
        assert "adapt_decay_epochs" in err

    def test_pretrain_rejects_repeated_decay_epochs(self, data_dir, tmp_path, capsys):
        cfg = fast_config(tmp_path, adapt_decay_epochs=[5, 5])
        code, _, err = run_cli(capsys, "pretrain", "--data", str(data_dir),
                               "--config", cfg, "--out", str(tmp_path / "run"))
        assert code == 2
        assert "adapt_decay_epochs" in err

    def test_non_integer_epochs_rejected(self, data_dir, tmp_path, capsys):
        for value in (1.5, True):
            cfg = fast_config(tmp_path, epochs=value)
            code, _, err = run_cli(capsys, "adapt", "--data", str(data_dir),
                                   "--config", cfg, "--out", str(tmp_path / "run"))
            assert code == 2
            assert "epochs" in err

    def test_non_number_float_keys_rejected(self, data_dir, tmp_path, capsys):
        for key, value in (("alpha", True), ("base_lr", "x")):
            cfg = fast_config(tmp_path, **{key: value})
            code, _, err = run_cli(capsys, "adapt", "--data", str(data_dir),
                                   "--config", cfg, "--out", str(tmp_path / "run"))
            assert code == 2
            assert key in err

    def test_config_must_be_a_json_object(self, data_dir, tmp_path, capsys):
        path = tmp_path / "config.json"
        for doc in ("null", "3", "[[1]]", "[1]"):
            path.write_text(doc)
            for seed in ((), ("--seed", "1")):
                code, _, err = run_cli(capsys, "adapt", "--data", str(data_dir),
                                       "--config", str(path),
                                       "--out", str(tmp_path / "run"), *seed)
                assert code == 2
                assert "JSON object" in err

    def test_readme_config_table_lists_the_config_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("### Config schema", 1)[1].split("\n## ", 1)[0]
        rows = [[cell.strip() for cell in line.split("|")[1:-1]]
                for line in table.splitlines() if line.startswith("| `")]
        keys = [row[0].strip("`") for row in rows]
        assert keys == [f.name for f in fields(TrainConfig)]
        # the default column, read as the JSON a --config would give
        defaults = json.loads(json.dumps(asdict(TrainConfig())))
        assert {key: json.loads(row[2]) for key, row in zip(keys, rows)} == defaults

    def test_missing_data_is_io_error(self, tmp_path, capsys):
        cfg = fast_config(tmp_path)
        code, _, err = run_cli(capsys, "pretrain", "--data", str(tmp_path / "nope"),
                               "--config", cfg, "--out", str(tmp_path / "run"))
        assert code == 3

    def test_unwritable_output_is_io_error(self, data_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        for argv in (gen_args(taken),
                     ["pretrain", "--data", str(data_dir), "--config",
                      fast_config(tmp_path), "--out", str(taken)],
                     ["adapt", "--data", str(data_dir),
                      "--config", fast_config(tmp_path, epochs=1),
                      "--out", str(tmp_path / "run"),
                      "--dump-bank", str(tmp_path / "missing" / "bank.drft")]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 3
            assert err.startswith("error:")

    def test_dump_bank_directory_checked_before_training(self, data_dir, tmp_path, capsys,
                                                         monkeypatch):
        import reidapt.cli as cli

        def forbidden(*args, **kw):
            raise AssertionError("training ran before the output path was checked")

        monkeypatch.setattr(cli, "pretrain_source", forbidden)
        monkeypatch.setattr(cli, "adapt", forbidden)
        code, _, err = run_cli(capsys, "adapt", "--data", str(data_dir),
                               "--config", fast_config(tmp_path, epochs=1),
                               "--out", str(tmp_path / "run"),
                               "--dump-bank", str(tmp_path / "missing" / "bank.drft"))
        assert code == 3
        assert err.startswith("error:") and "missing" in err

    def test_dump_jaccard_directory_checked_before_labeling(self, data_dir, tmp_path,
                                                           capsys, monkeypatch):
        import reidapt.cli as cli

        def forbidden(*args, **kw):
            raise AssertionError("labeling ran before the output path was checked")

        monkeypatch.setattr(cli, "offline_epoch", forbidden)
        save_checkpoint(tmp_path / "ckpt", init_encoder(12, 24, 12, np.random.default_rng(0)))
        code, stdout, err = run_cli(capsys, "cluster", "--ckpt", str(tmp_path / "ckpt"),
                                    "--data", str(data_dir), "--config", fast_config(tmp_path),
                                    "--dump-jaccard", str(tmp_path / "missing" / "dj.drft"))
        assert code == 3 and stdout == ""
        assert err.startswith("error:") and "missing" in err

    @pytest.mark.parametrize("argv, dump", [
        (["adapt", "--ckpt", "ckpt", "--out", "R", "--dump-bank", "R/bank.drft"],
         "R/bank.drft"),
        (["cluster", "--ckpt", "ckpt", "--dump-labels", "D", "--dump-jaccard", "D/j.drft"],
         "D/j.drft"),
    ], ids=["adapt-bank", "cluster-jaccard"])
    def test_dump_inside_new_output_directory(self, data_dir, tmp_path, capsys, argv, dump):
        # the command makes the directory, so the dump has one to go to
        save_checkpoint(tmp_path / "ckpt", init_encoder(12, 24, 12, np.random.default_rng(0)))
        argv = [str(tmp_path / a) if a in ("ckpt", "R", "D", dump) else a for a in argv]
        code, stdout, err = run_cli(capsys, *argv, "--data", str(data_dir),
                                    "--config", fast_config(tmp_path, epochs=1))
        assert code == 0, err
        assert (tmp_path / dump).is_file()
        json.loads(stdout)

    def test_resume_and_ckpt_together_is_usage_error(self, data_dir, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["adapt", "--data", str(data_dir), "--resume", str(tmp_path / "run"),
                  "--ckpt", str(tmp_path / "nonexistent"), "--out", str(tmp_path / "out")])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, split, rows", [
        (["adapt", "--ckpt", "ckpt", "--out", "run"], "target_train", 80),
        (["adapt", "--out", "run"], "target_train", 80),  # pretraining on source first
        (["cluster", "--ckpt", "ckpt"], "target_train", 80),
        (["eval", "--ckpt", "ckpt"], "target_gallery", 60),
        (["eval", "--cluster-stats", "--ckpt", "ckpt"], "target_train", 80),
    ], ids=["adapt-ckpt", "adapt-pretrain", "cluster", "eval", "eval-cluster-stats"])
    def test_split_of_other_width_refused_before_any_work(self, data_dir, tmp_path, capsys,
                                                          monkeypatch, argv, split, rows):
        # the checkpoint, or for adapt without one the source split, is 12
        # wide; the named split is cut to 8 columns
        import reidapt.cli as cli

        def forbidden(*args, **kw):
            raise AssertionError("work ran before the splits were checked")

        for name in ("pretrain_source", "adapt", "offline_epoch", "retrieval_eval"):
            monkeypatch.setattr(cli, name, forbidden)
        save_checkpoint(tmp_path / "ckpt", init_encoder(12, 24, 12, np.random.default_rng(0)))
        path = data_dir / f"{split}.drft"
        write_features(path, read_features(path)[:, :8])
        argv = [str(tmp_path / a) if a in ("ckpt", "run") else a for a in argv]
        code, stdout, err = run_cli(capsys, *argv, "--data", str(data_dir),
                                    "--config", fast_config(tmp_path))
        assert code == 3 and stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert split in err and "(N, 12)" in err and f"({rows}, 8)" in err

    def test_one_sample_target_split_is_io_error(self, tmp_path, capsys, monkeypatch):
        # a k-NN row needs another sample, so no labeling pass can run on
        # the split; adapt refuses it before spending time on pretraining
        import reidapt.cli as cli

        def forbidden(*args, **kw):
            raise AssertionError("training ran before the split was checked")

        monkeypatch.setattr(cli, "pretrain_source", forbidden)
        monkeypatch.setattr(cli, "adapt", forbidden)
        data = tmp_path / "one"
        assert run_cli(capsys, *gen_args(data, ids=1, per_id=1))[0] == 0
        save_checkpoint(tmp_path / "ckpt", init_encoder(12, 24, 12, np.random.default_rng(0)))
        cfg = fast_config(tmp_path)
        for argv in (["adapt", "--out", str(tmp_path / "run")],
                     ["cluster", "--ckpt", str(tmp_path / "ckpt")],
                     ["eval", "--cluster-stats", "--ckpt", str(tmp_path / "ckpt")]):
            code, stdout, err = run_cli(capsys, *argv, "--data", str(data), "--config", cfg)
            assert code == 3 and stdout == ""
            assert err.startswith("error:") and "target_train" in err
            assert len(err.splitlines()) == 1

    def test_all_outliers_exit_4_in_cluster_and_eval(self, data_dir, tmp_path, capsys):
        save_checkpoint(tmp_path / "ckpt", init_encoder(12, 24, 12, np.random.default_rng(0)))
        cfg = fast_config(tmp_path, min_pts=200)  # more than the 80 samples
        for argv in (["cluster"], ["eval", "--cluster-stats"]):
            code, _, err = run_cli(capsys, *argv, "--ckpt", str(tmp_path / "ckpt"),
                                   "--data", str(data_dir), "--config", cfg)
            assert code == 4
            assert err.startswith("error:") and "outlier" in err

    def test_missing_checkpoint_is_io_error(self, data_dir, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "eval", "--ckpt", str(tmp_path / "ghost"),
                             "--data", str(data_dir))
        assert code == 3

    def test_adapt_rejects_checkpoint_of_other_width(self, data_dir, tmp_path, capsys):
        # the split is 12 wide, the checkpoint reads 8
        save_checkpoint(tmp_path / "narrow", init_encoder(8, 24, 12, np.random.default_rng(0)))
        code, _, err = run_cli(capsys, "adapt", "--data", str(data_dir),
                               "--ckpt", str(tmp_path / "narrow"),
                               "--config", fast_config(tmp_path),
                               "--out", str(tmp_path / "run"))
        assert code == 3
        assert "(N, 8)" in err and "(80, 12)" in err

    def test_cluster_rejects_checkpoint_of_other_width(self, data_dir, tmp_path, capsys):
        save_checkpoint(tmp_path / "narrow", init_encoder(8, 24, 12, np.random.default_rng(0)))
        code, _, err = run_cli(capsys, "cluster", "--ckpt", str(tmp_path / "narrow"),
                               "--data", str(data_dir), "--config", fast_config(tmp_path))
        assert code == 3
        assert "(N, 8)" in err and "(80, 12)" in err

    @pytest.mark.parametrize("rows, want", [(59, ["(59, 12)", "(80, 12)"]),
                                            (None, ["ckpt_epoch_000", "holds no bank"])],
                             ids=["59-rows", "no-bank"])
    def test_resume_rejects_bank_of_other_size(self, data_dir, tmp_path, capsys, rows, want):
        # a run directory whose epoch checkpoint holds a bank of 59 rows, or
        # none, resumed on an 80-sample split
        run = tmp_path / "runA"
        run.mkdir()
        rng = np.random.default_rng(0)
        save_checkpoint(run / "ckpt_epoch_000", init_encoder(12, 24, 12, rng),
                        None if rows is None else l2_normalize(rng.standard_normal((rows, 12))))
        code, stdout, err = run_cli(capsys, "adapt", "--data", str(data_dir),
                                    "--config", fast_config(tmp_path), "--resume", str(run),
                                    "--out", str(tmp_path / "runB"))
        assert code == 3 and stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert all(part in err for part in want), err

    def test_eval_of_empty_query_split_is_io_error(self, data_dir, tmp_path, capsys):
        # the split is refused as it loads, so stdout holds no "mAP": NaN
        save_checkpoint(tmp_path / "ckpt", init_encoder(12, 24, 12, np.random.default_rng(0)))
        write_features(data_dir / "target_query.drft", np.empty((0, 12)))
        write_labels(data_dir / "target_query.csv", [], [])
        code, stdout, err = run_cli(capsys, "eval", "--ckpt", str(tmp_path / "ckpt"),
                                    "--data", str(data_dir))
        assert code == 3 and stdout == ""
        assert err.startswith("error:") and "target_query" in err

    @pytest.mark.parametrize("argv, damage", [
        # one NaN weight (ids argv0-argv3), and each damaged file np.load
        # meets: EOFError, ValueError, BadZipFile, TypeError and KeyError,
        # then arrays that load but do not make an encoder
        *(pytest.param(argv, "nan", id=f"argv{i}") for i, argv in enumerate(_CKPT_READERS)),
        *(pytest.param(argv, damage, id=f"{damage}-argv{i}")
          for damage in ("empty", "not-zip", "truncated", "bare-npy", "missing-array",
                         "unchained", "short-moments", "float32")
          for i, argv in enumerate(_CKPT_READERS)),
    ])
    def test_non_finite_checkpoint_is_io_error(self, data_dir, tmp_path, capsys, argv,
                                               damage):
        # one NaN weight makes every feature NaN; without the file check the
        # labeling pass crashed inside the k-NN and plain eval scored NaNs.
        # Every other damaged checkpoint exits 3 the same way, with no traceback
        state = init_encoder(12, 24, 12, np.random.default_rng(0))
        if damage == "nan":
            state.w1[3, 5] = np.nan
        save_checkpoint(tmp_path / "ckpt", state)
        if damage != "nan":
            _damage_checkpoint(tmp_path / "ckpt.npz", damage)
        argv = [str(tmp_path / a) if a == "run" else a for a in argv]
        code, stdout, err = run_cli(capsys, *argv, "--ckpt", str(tmp_path / "ckpt"),
                                    "--data", str(data_dir), "--config", fast_config(tmp_path))
        assert code == 3 and stdout == ""
        assert err.startswith("error: cannot load checkpoint") and len(err.splitlines()) == 1
        assert "ckpt.npz" in err
        if damage == "nan":
            assert "NaN or infinite" in err

    @pytest.mark.parametrize("argv", [
        ["pretrain", "--out", "run"],
        ["adapt", "--out", "run"],
        ["adapt", "--ckpt", "zero", "--out", "run"],
        ["cluster", "--ckpt", "zero"],
        ["eval", "--ckpt", "zero"],
    ], ids=["pretrain", "adapt-pretrain", "adapt-ckpt", "cluster", "eval"])
    def test_numerical_divergence_exits_4(self, tmp_path, capsys, argv):
        # a huge learning rate drives pretraining to a non-finite loss; a
        # checkpoint whose last layer is zero maps every sample to a zero
        # feature, which no labeling, bank or retrieval can normalize
        data = tmp_path / "data"
        assert run_cli(capsys, *gen_args(data, ids=12, per_id=6))[0] == 0
        state = init_encoder(12, 24, 12, np.random.default_rng(0))
        state.w2[:], state.b2[:] = 0.0, 0.0
        save_checkpoint(tmp_path / "zero", state)
        cfg = fast_config(tmp_path, pretrain_epochs=3, base_lr=1e6, batch_p=4, batch_k=2)
        argv = [str(tmp_path / a) if a in ("run", "zero") else a for a in argv]
        code, stdout, err = run_cli(capsys, *argv, "--data", str(data), "--config", cfg)
        assert code == 4 and stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        if argv[:2] == ["adapt", "--ckpt"]:
            # divergence is caught before any Adam step takes a non-finite
            # value in, so the state adapt leaves at exit 4 loads
            diverged, bank = load_checkpoint(tmp_path / "run" / "diverged")
            assert bank is None
            for name in ("w1", "b1", "w2", "b2"):
                assert getattr(diverged, name).tobytes() == getattr(state, name).tobytes()

    def test_stdout_always_json(self, data_dir, tmp_path, capsys):
        cfg = fast_config(tmp_path)
        for argv in (gen_args(tmp_path / "d2", seed=9),
                     ["pretrain", "--data", str(data_dir), "--config", cfg,
                      "--out", str(tmp_path / "p2")]):
            code, stdout, _ = run_cli(capsys, *argv)
            assert code == 0
            json.loads(stdout)


class TestManifestAndDeterminism:
    def test_manifest_written_with_config_snapshot(self, data_dir, tmp_path, capsys):
        cfg = fast_config(tmp_path, epochs=1)
        run_cli(capsys, "adapt", "--data", str(data_dir), "--config", cfg,
                "--out", str(tmp_path / "run"))
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["epochs"] == 1
        assert manifest["version"]

    def test_adapt_byte_identical_metrics_and_checkpoints(self, data_dir, tmp_path, capsys):
        cfg = fast_config(tmp_path, epochs=2)
        outs = []
        for name in ("r1", "r2"):
            code, _, _ = run_cli(capsys, "adapt", "--data", str(data_dir),
                                 "--config", cfg, "--out", str(tmp_path / name))
            assert code == 0
            outs.append(tmp_path / name)
        for fname in ("metrics.csv", "losses.csv", "final.npz", "ckpt_epoch_001.npz"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @pytest.mark.filterwarnings(r"ignore:.*only \d+ clusters; reducing batch labels:UserWarning")
    def test_seed_flag_overrides_config(self, data_dir, tmp_path, capsys):
        cfg = fast_config(tmp_path, epochs=1)
        _, stdout_a, _ = run_cli(capsys, "adapt", "--data", str(data_dir),
                                 "--config", cfg, "--seed", "77",
                                 "--out", str(tmp_path / "s77"))
        manifest = json.loads((tmp_path / "s77" / "manifest.json").read_text())
        assert manifest["seed"] == 77
