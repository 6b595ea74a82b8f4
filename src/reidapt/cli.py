"""Command-line front end: dataset generation, pretraining, adaptation,
one-shot clustering, and retrieval evaluation.

Every subcommand prints one machine-readable JSON document on stdout and a
short human-readable summary on stderr. Exit codes: 2 usage or config
errors, 3 file and I/O errors, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    FeatureFileError,
    LabelFileError,
    SynthSpec,
    generate_synthetic,
    read_features,
    read_labels,
    write_features,
    write_labels,
)
from .encoder import load_checkpoint, save_checkpoint
from .evaluate import pairwise_fscore, retrieval_eval
from .membank import MemoryBank, TrainingDivergedError
from .trainer import (
    ConfigError,
    TrainConfig,
    adapt,
    extract_features,
    loss_csv_lines,
    metrics_csv_lines,
    offline_epoch,
    pretrain_source,
    source_top1_accuracy,
)

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4

SPLITS = ("source", "target_train", "target_query", "target_gallery")


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _emit(doc: dict, human_lines=()):
    print(json.dumps(doc, sort_keys=True))
    for line in human_lines:
        print(line, file=sys.stderr)


def _load_config(args) -> TrainConfig:
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as err:
            raise CliError(f"cannot read config: {err}", EXIT_IO)
        except json.JSONDecodeError as err:
            raise CliError(f"config is not valid JSON: {err}", EXIT_USAGE)
        if not isinstance(doc, dict):
            raise CliError("config must be a JSON object", EXIT_USAGE)
    if args.seed is not None:
        doc["seed"] = args.seed
    try:
        return TrainConfig.from_dict(doc)
    except ConfigError as err:
        raise CliError(str(err), EXIT_USAGE)


def _read_split(data_dir, split, width=None, reader="checkpoint"):
    """A split's (raw, identity, camera); exit 3 unless its labels match its
    rows, its rows are the ``width`` that ``reader`` expects (any for None),
    and a target_train split holds the two samples a k-NN row needs."""
    base = Path(data_dir) / split
    try:
        raw = read_features(f"{base}.drft")
        identity, camera = read_labels(f"{base}.csv")
    except (OSError, FeatureFileError, LabelFileError) as err:
        raise CliError(f"cannot load split {split!r}: {err}", EXIT_IO)
    if len(identity) != len(raw):
        raise CliError(f"split {split!r}: labels do not match features", EXIT_IO)
    if width is not None and raw.shape[1] != width:
        raise CliError(f"{reader} expects (N, {width}) input, split {split!r} "
                       f"has shape {raw.shape}", EXIT_IO)
    if split == "target_train" and len(raw) < 2:
        raise CliError(f"split 'target_train' has {len(raw)} sample(s), fewer than "
                       "the 2 a labeling pass needs", EXIT_IO)
    return raw, identity, camera


def _load_ckpt(prefix):
    try:
        return load_checkpoint(prefix)
    except (OSError, FeatureFileError, ValueError, KeyError) as err:
        raise CliError(f"cannot load checkpoint {prefix}: {err}", EXIT_IO)


def _check_parent(path):
    """An output file written after the work must have a directory to go to."""
    if path and not Path(path).parent.is_dir():
        raise CliError(f"cannot write {path}: no such directory", EXIT_IO)


def _write_manifest(run_dir: Path, cfg: TrainConfig, command, data_dir, artifacts):
    manifest = {
        "command": command,
        "config": asdict(cfg),
        "seed": cfg.seed,
        "data_dir": str(data_dir),
        "artifacts": {k: str(v) for k, v in artifacts.items()},
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
    }
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _out_dir(path) -> Path | None:
    """The output directory ``path``, made before any work; None for no path."""
    if not path:
        return None
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _append_lines(path, lines):
    with open(path, "a") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _write_label_snapshot(path, labels):
    with open(path, "w") as fh:
        fh.write("index,coarse,refined\n")
        for i, (c, r) in enumerate(zip(labels.coarse, labels.refined)):
            fh.write(f"{i},{c},{r}\n")


def cmd_gen_data(args):
    try:
        spec = SynthSpec(
            num_identities=args.ids, samples_per_identity=args.per_id,
            num_cameras=args.cameras, d_in=args.dim,
            identity_spread=args.spread, intra_noise=args.noise,
            camera_shift_scale=args.camera_shift, domain_shift=args.domain_shift,
            seed=args.seed)
    except ValueError as err:
        raise CliError(f"invalid dataset spec: {err}", EXIT_USAGE)
    out = _out_dir(args.out)
    datasets = generate_synthetic(spec)
    files = {}
    for split, ds in zip(SPLITS, datasets):
        write_features(out / f"{split}.drft", ds.raw)
        write_labels(out / f"{split}.csv", ds.identity, ds.camera)
        files[split] = {"features": str(out / f"{split}.drft"),
                        "labels": str(out / f"{split}.csv"),
                        "samples": len(ds)}
    _emit({"splits": files, "seed": spec.seed, "d_in": spec.d_in},
          [f"wrote {len(datasets)} splits to {out}"])


def cmd_pretrain(args):
    cfg = _load_config(args)
    raw, identity, _ = _read_split(args.data, "source")
    run_dir = _out_dir(args.out)
    ckpt = run_dir / "pretrain"
    _write_manifest(run_dir, cfg, "pretrain", args.data, {"checkpoint": ckpt})
    state = pretrain_source(raw, identity, cfg)
    save_checkpoint(ckpt, state)
    top1 = source_top1_accuracy(state, raw, identity)
    _emit({"checkpoint": str(ckpt), "epochs": cfg.pretrain_epochs,
           "source_top1": top1},
          [f"pretrained {cfg.pretrain_epochs} epochs, source top-1 {top1:.3f}"])


def _find_resume_point(resume_dir: Path):
    """The last epoch with a checkpoint; other names (backups, say) are skipped."""
    epochs = [int(m.group(1)) for p in resume_dir.glob("ckpt_epoch_*.json")
              if (m := re.fullmatch(r"ckpt_epoch_(\d+)\.json", p.name))]
    if not epochs:
        raise CliError(f"no epoch checkpoints under {resume_dir}", EXIT_IO)
    return max(epochs)


def _rows_through(path: Path, last: int) -> list[str]:
    """A run's CSV rows of epochs 0 to ``last``; none without the file."""
    done = {str(epoch) for epoch in range(last + 1)}
    try:
        return [row for row in path.read_text().splitlines()[1:]
                if row.split(",", 1)[0] in done]
    except FileNotFoundError:
        return []


def cmd_adapt(args):
    cfg = _load_config(args)
    start_epoch = 0
    state = bank = None
    if args.resume:
        resume_dir = Path(args.resume)
        last = _find_resume_point(resume_dir)
        state = _load_ckpt(resume_dir / f"ckpt_epoch_{last:03d}")
        try:
            bank = MemoryBank(v=read_features(resume_dir / f"bank_epoch_{last:03d}.drft"))
        except (OSError, FeatureFileError) as err:
            raise CliError(f"cannot load bank snapshot: {err}", EXIT_IO)
        start_epoch = last + 1
    elif args.ckpt:
        state = _load_ckpt(args.ckpt)
    else:  # pretrained on the source split once every input has passed
        src_raw, src_identity, _ = _read_split(args.data, "source")
    width, reader = ((src_raw.shape[1], "the encoder pretrained on split 'source'")
                     if state is None else (state.d_in, "checkpoint"))
    raw, identity, _ = _read_split(args.data, "target_train", width, reader)
    if bank is not None and bank.v.shape != (len(raw), state.feat_dim):
        raise CliError(f"bank snapshot has shape {bank.v.shape}, split 'target_train' "
                       f"needs {(len(raw), state.feat_dim)}", EXIT_IO)
    run_dir = _out_dir(args.out)
    labels_dir = _out_dir(args.dump_labels)
    _check_parent(args.dump_bank)  # the final bank is written last
    if state is None:
        state = pretrain_source(src_raw, src_identity, cfg)
        save_checkpoint(run_dir / "pretrain", state)

    final = run_dir / "final"
    metrics_csv, losses_csv = run_dir / "metrics.csv", run_dir / "losses.csv"
    _write_manifest(run_dir, cfg, "adapt", args.data,
                    {"final": final, "metrics": metrics_csv, "losses": losses_csv})
    # headers and a resumed run's rows now, and rows as each epoch ends, so a
    # run that stops early keeps the rows of the epochs it finished
    for path, lines in ((metrics_csv, metrics_csv_lines([])), (losses_csv, loss_csv_lines([]))):
        if args.resume:
            lines += _rows_through(Path(args.resume) / path.name, last)
        path.write_text("\n".join(lines) + "\n")

    def on_epoch(metrics, epoch_state, epoch_bank, reports, labels):
        # the checkpoint last: --resume trusts an epoch once it has one
        _append_lines(metrics_csv, metrics_csv_lines([metrics])[1:])
        _append_lines(losses_csv, loss_csv_lines(
            (metrics.epoch, i, r) for i, r in enumerate(reports))[1:])
        if labels_dir:
            _write_label_snapshot(
                labels_dir / f"labels_epoch_{metrics.epoch:03d}.csv", labels)
        write_features(run_dir / f"bank_epoch_{metrics.epoch:03d}.drft", epoch_bank.v)
        save_checkpoint(run_dir / f"ckpt_epoch_{metrics.epoch:03d}", epoch_state)

    try:
        state, history, bank = adapt(state, raw, cfg, truth=identity, bank=bank,
                                     start_epoch=start_epoch, on_epoch=on_epoch)
    except TrainingDivergedError as err:
        save_checkpoint(run_dir / "diverged", state)
        raise CliError(f"training diverged: {err}", EXIT_DIVERGED)

    save_checkpoint(final, state)
    if args.dump_bank:
        write_features(args.dump_bank, bank.v)
    summary = {
        "final_checkpoint": str(final),
        "epochs_run": len(history),
        "metrics_csv": str(metrics_csv),
        "losses_csv": str(losses_csv),
    }
    if history:
        summary["last_epoch"] = {
            "num_clusters": history[-1].num_clusters,
            "outliers": history[-1].outliers,
            "fscore_refined": history[-1].fscore_refined,
            "total_loss": history[-1].total,
        }
    human = [f"epoch {m.epoch}: L={m.num_clusters} outliers={m.outliers} "
             f"total={m.total:.4f}" for m in history[-3:]]
    _emit(summary, human)


def cmd_cluster(args):
    cfg = _load_config(args)
    state = _load_ckpt(args.ckpt)
    raw, identity, _ = _read_split(args.data, "target_train", state.d_in)
    dump_dir = _out_dir(args.dump_labels)
    _check_parent(args.dump_jaccard)  # the graph is written last
    es = offline_epoch(state, raw, cfg, epoch=0, keep_graph=bool(args.dump_jaccard))
    doc = {
        "N": len(raw),
        "N_outlier": es.outliers,
        "L": es.num_clusters,
        "eps": es.eps,
        "relabeled_fraction": es.labels.relabel_fraction(),
    }
    labels = es.labels
    precision, recall, fscore = pairwise_fscore(labels.refined, identity)
    doc.update(precision=precision, recall=recall, fscore=fscore,
               fscore_coarse=pairwise_fscore(labels.coarse, identity)[2],
               fscore_refined=fscore)
    if dump_dir:
        path = dump_dir / "labels_epoch_000.csv"
        _write_label_snapshot(path, labels)
        doc["labels_csv"] = str(path)
    if args.dump_jaccard:
        d_j = es.d_j
        write_features(args.dump_jaccard, np.column_stack([d_j.pairs, d_j.values]))
        doc["jaccard"] = str(args.dump_jaccard)
    _emit(doc, [f"L={doc['L']} outliers={doc['N_outlier']} fscore={fscore:.4f}"])


def cmd_eval(args):
    cfg = _load_config(args)
    state = _load_ckpt(args.ckpt)
    q_raw, q_id, q_cam = _read_split(args.data, "target_query", state.d_in)
    g_raw, g_id, g_cam = _read_split(args.data, "target_gallery", state.d_in)
    if args.cluster_stats:
        raw, identity, _ = _read_split(args.data, "target_train", state.d_in)
    try:
        result = retrieval_eval(extract_features(state, q_raw), q_id, q_cam,
                                extract_features(state, g_raw), g_id, g_cam)
    except ValueError as err:
        raise CliError(f"evaluation failed: {err}", EXIT_IO)
    doc = {"mAP": result.map, "R1": result.r1, "R5": result.r5, "R10": result.r10,
           "num_queries": len(q_raw), "num_gallery": len(g_raw)}
    if args.cluster_stats:
        es = offline_epoch(state, raw, cfg, epoch=0)
        precision, recall, fscore = pairwise_fscore(es.labels.refined, identity)
        doc.update(precision=precision, recall=recall, fscore=fscore,
                   N=len(raw), N_outlier=es.outliers)
    _emit(doc, [f"mAP {result.map:.4f}  R1 {result.r1:.4f}  "
                f"R5 {result.r5:.4f}  R10 {result.r10:.4f}"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reidapt",
        description="Feature-space unsupervised domain adaptation for identity retrieval")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="JSON config; keys mirror TrainConfig")
        p.add_argument("--seed", type=int, help="override the config seed")
        if out_required:
            p.add_argument("--out", required=True, help="run directory")

    gen = sub.add_parser("gen-data", help="write synthetic dataset splits")
    gen.add_argument("--ids", type=int, required=True)
    gen.add_argument("--per-id", type=int, required=True, dest="per_id")
    gen.add_argument("--cameras", type=int, default=4)
    gen.add_argument("--dim", type=int, default=32)
    gen.add_argument("--spread", type=float, default=1.0)
    gen.add_argument("--noise", type=float, default=0.6)
    gen.add_argument("--camera-shift", type=float, default=0.6, dest="camera_shift")
    gen.add_argument("--domain-shift", type=float, default=12.0, dest="domain_shift")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_data)

    pre = sub.add_parser("pretrain", help="train the encoder on the source split")
    pre.add_argument("--data", required=True)
    common(pre)
    pre.set_defaults(func=cmd_pretrain)

    ada = sub.add_parser("adapt", help="alternating adaptation on target_train")
    ada.add_argument("--data", required=True)
    start = ada.add_mutually_exclusive_group()
    start.add_argument("--ckpt", help="pretrained checkpoint prefix (else pretrain first)")
    start.add_argument("--resume", help="run directory to continue from")
    ada.add_argument("--dump-bank", dest="dump_bank", help="write the final bank")
    ada.add_argument("--dump-labels", dest="dump_labels",
                     help="write per-epoch label snapshots into this directory")
    common(ada)
    ada.set_defaults(func=cmd_adapt)

    clu = sub.add_parser("cluster", help="one off-line labeling pass")
    clu.add_argument("--ckpt", required=True)
    clu.add_argument("--data", required=True)
    clu.add_argument("--dump-labels", dest="dump_labels")
    clu.add_argument("--dump-jaccard", dest="dump_jaccard",
                     help="write the stored Jaccard pairs as (i, j, d_J) rows, i < j; "
                          "every absent pair is at 1.0")
    common(clu, out_required=False)
    clu.set_defaults(func=cmd_cluster)

    eva = sub.add_parser("eval", help="retrieval metrics for a checkpoint")
    eva.add_argument("--ckpt", required=True)
    eva.add_argument("--data", required=True)
    eva.add_argument("--cluster-stats", action="store_true", dest="cluster_stats",
                     help="also report pseudo-label quality on target_train")
    common(eva, out_required=False)
    eva.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except TrainingDivergedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
