"""Command-line entry point for the full pipeline.

Subcommands: synth, ingest, train, eval, gradcheck, profile, errmap.
Exit codes are a stable contract: 0 success, 1 usage error, 2 IO error,
3 numerical failure. Every artifact a command writes is listed on stdout
as a path relative to the working directory. The DDCN_SEED environment
variable supplies a seed at the lowest precedence (defaults < DDCN_SEED <
config file < flags).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import metrics as metrics_mod
from . import profile as profile_mod
from . import train as train_mod
from .data import DatasetFormatError
from .metrics import MAPE_MASK_THRESHOLD
from .model import DDCN, ModelConfig
from .numerics import CheckpointFormatError, NumericalError, atomic_write, load_checkpoint
from .train import TrainConfig

__all__ = ["main", "entrypoint", "UsageError"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

_MODEL_FIELDS = {f.name for f in fields(ModelConfig)}
_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}


class UsageError(ValueError):
    """Bad flags or config values; maps to exit code 1, as every ValueError does."""


class _ConfigParseError(Exception):
    """A config file that is not UTF-8 JSON; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit_artifact(path):
    print(os.path.relpath(str(path)))


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
            raise _ConfigParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(doc) - _MODEL_FIELDS - _TRAIN_FIELDS - {"data", "out"})
    if unknown:
        raise UsageError(f"unknown config fields in {path}: {unknown}")
    return doc


def _configs(doc, args=None, **defaults):
    """The one config resolver of every subcommand. Values merge in the
    order ``defaults`` < DDCN_SEED < the config document ``doc`` < each
    given flag whose argparse dest is a config field; a malformed value
    raises ValueError, a usage error. Returns (ModelConfig, TrainConfig)."""
    values = dict(defaults)
    raw = os.environ.get("DDCN_SEED")
    if raw is not None:
        try:
            values["seed"] = int(raw)
        except ValueError:
            raise UsageError(f"DDCN_SEED must be an integer, got {raw!r}")
    values.update(doc)
    flags = {} if args is None else vars(args)
    values.update((k, v) for k, v in flags.items()
                  if k in _MODEL_FIELDS | _TRAIN_FIELDS and v is not None)
    return (ModelConfig.from_dict({k: v for k, v in values.items() if k in _MODEL_FIELDS}),
            TrainConfig.from_dict({k: v for k, v in values.items() if k in _TRAIN_FIELDS}))


def _write_json(path, doc):
    """Write ``doc`` as indented JSON, atomically, and list the artifact."""
    with atomic_write(path) as f:
        json.dump(doc, f, indent=2)
    _emit_artifact(path)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    # synth_traffic's ValueError for a size < 1 or a bad --interval is a usage error.
    spec = data_mod.SynthSpec(
        height=args.h, width=args.w, steps=args.steps, seed=_configs({}, args)[1].seed,
        interval_minutes=args.interval, name=args.name,
    )
    ds = data_mod.synth_traffic(spec)
    data_mod.save_dataset(ds, args.out)
    _emit_artifact(args.out)
    return EXIT_OK


def cmd_ingest(args) -> int:
    try:
        arr = np.load(args.raw)
    except (EOFError, ValueError) as exc:  # empty, pickled or corrupt
        raise DatasetFormatError(f"{args.raw} is not a .npy array: {exc}") from exc
    if not isinstance(arr, np.ndarray):
        arr.close()
        raise DatasetFormatError(f"{args.raw} is an .npz archive, not a .npy array")
    ds = data_mod.ingest_array(arr, layout=args.layout, interval_minutes=args.interval,
                               name=args.name)
    data_mod.save_dataset(ds, args.out)
    _emit_artifact(args.out)
    return EXIT_OK


def cmd_train(args) -> int:
    dataset = data_mod.load_dataset(args.data)
    model_cfg, train_cfg = _configs(_load_config_file(args.config), args,
                                    in_channels=dataset.frames.shape[1])
    out_dir = Path(args.out)
    model = DDCN(model_cfg, dataset.frames.shape[2:], seed=train_cfg.seed)
    # A ValueError from train_loop (a dataset too short to split) is a usage error (see main).
    run = train_mod.train_loop(
        model, dataset, train_cfg, out_dir=out_dir,
        mask_threshold=args.mape_threshold, log=print if args.verbose else None,
    )
    _write_json(out_dir / "config.json", {**asdict(model_cfg), **asdict(train_cfg),
                                          "data": str(args.data), "out": str(args.out)})
    for name in ("best.ckpt", "record.jsonl", "summary.json"):
        _emit_artifact(out_dir / name)
    test = run.final["test"]["metrics"]
    print(f"best epoch {run.best_epoch}  val L1 {run.best_val_l1:.6f}")
    print(
        f"test: RMSE {test['rmse']:.4f}  MAE {test['mae']:.4f}  "
        f"MAPE {test['mape'] if test['mape'] is not None else 'undefined'}"
    )
    return EXIT_OK


def _load_run(args):
    """Restore a trained run for ``eval`` and ``errmap``.

    ``args.checkpoint`` is a run directory or a .ckpt file; the run's config
    echo is ``args.config`` or the config.json beside the checkpoint. Returns
    (checkpoint path, restored model, train config, dataset splits, train
    split stats).
    """
    dataset = data_mod.load_dataset(args.data)
    path = Path(args.checkpoint)
    ckpt = path / "best.ckpt" if path.is_dir() else path
    if not ckpt.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    config_path = Path(args.config) if args.config else ckpt.parent / "config.json"
    if not config_path.exists():
        raise FileNotFoundError(f"run config not found: {config_path}")
    model_cfg, train_cfg = _configs(_load_config_file(config_path))
    model = DDCN(model_cfg, dataset.frames.shape[2:], seed=train_cfg.seed)
    model.load_state(load_checkpoint(ckpt))
    parts = data_mod.split(data_mod.make_windows(dataset, model_cfg.input_steps))
    return ckpt, model, train_cfg, parts, data_mod.stats_from_windows(parts.train)


def cmd_eval(args) -> int:
    ckpt, model, train_cfg, parts, stats = _load_run(args)
    part = getattr(parts, args.split)
    l1, report = train_mod.evaluate(model, part, stats, train_cfg.batch_size,
                                    args.mape_threshold)
    print(f"split {args.split}: {report.format()}")
    print(f"normalized L1 {l1:.6f}")
    out_path = Path(args.out) if args.out else ckpt.parent / f"eval_{args.split}.json"
    _write_json(out_path, {"split": args.split, "l1_normalized": l1, **report.to_dict()})
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    check = train_mod.gradcheck_ops if args.scope == "ops" else train_mod.gradcheck_model
    report = check(tol=args.tol, instances=args.instances, seed=_configs({}, args)[1].seed)
    for line in report.lines():
        print(line)
    if not report.passed:
        print("gradient check FAILED")
        return EXIT_NUMERICAL
    print("gradient check passed")
    return EXIT_OK


def _mape_threshold(text) -> float:
    """argparse type of --mape-threshold: a finite float >= 0."""
    if not 0 <= float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return float(text)


def _count(text) -> int:
    """argparse type of --limit: an integer >= 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _parse_shape(text) -> tuple:
    try:
        shape = tuple(int(s) for s in text.lower().replace("x", ",").split(","))
    except ValueError:
        raise UsageError(f"bad shape {text!r}; expected e.g. 1,4,2,32,32")
    return profile_mod._input_dims(shape)


def cmd_profile(args) -> int:
    shape = _parse_shape(args.shape)
    if args.search:
        hits = [c for c in profile_mod.search_reference_configs(shape) if c.matches]
        print(
            f"search over (embed_dim, depth, patch_size) at input {shape}: "
            f"{len(hits)} configs within +-{profile_mod.TOLERANCE:.0%} of "
            f"{profile_mod.TARGET_PARAMS / 1e6:.2f}M params and "
            f"{profile_mod.TARGET_FLOPS / 1e9:.2f}G "
            "published FLOPs (matched against MACs; MAC=2 figure also shown)"
        )
        for c in hits[: args.limit]:
            print(
                f"  D={c.embed_dim:<4d} depth={c.depth} p={c.patch_size:<2d} "
                f"params={c.params / 1e6:.3f}M macs={c.macs / 1e9:.4f}G "
                f"flops(MAC=2)={c.flops / 1e9:.4f}G"
            )
        if args.out:
            _write_json(args.out, [asdict(c) for c in hits])
        return EXIT_OK

    cfg, _ = _configs(_load_config_file(args.config), args,
                      in_channels=shape[2], input_steps=shape[1])
    report = profile_mod.cost_report(cfg, shape)  # a ValueError is a usage error (see main)
    print(report.format())
    if args.time:
        import time as _time

        model = DDCN(cfg, shape[3:], seed=0)
        x = np.zeros(shape, dtype=np.float32)
        model.predict(x)  # warm caches once
        t0 = _time.perf_counter()
        model.predict(x)
        elapsed = _time.perf_counter() - t0
        print(f"one forward at {shape}: {elapsed * 1e3:.1f} ms "
              "(single uncalibrated run, not a benchmark)")
    if args.out:
        _write_json(args.out, report.to_dict())
    return EXIT_OK


def cmd_errmap(args) -> int:
    _, model, _, parts, stats = _load_run(args)
    if not 0 <= args.index < len(parts.test):
        raise UsageError(
            f"--index {args.index} out of range for test split of {len(parts.test)} windows"
        )
    sample = parts.test[args.index]
    xb, _ = next(train_mod.iter_batches([sample], stats, 1, dtype=model.dtype))
    pred = data_mod.minmax_denormalize(model.predict(xb)[0], stats)
    emap = metrics_mod.error_map(pred, sample.target)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"errmap_{args.index}.csv"
    pgm_path = out_dir / f"errmap_{args.index}.pgm"
    metrics_mod.save_error_map_csv(emap, csv_path)
    metrics_mod.save_error_map_pgm(emap, pgm_path)
    _emit_artifact(csv_path)
    _emit_artifact(pgm_path)
    print(f"max per-cell error {emap.max():.4f}, mean {emap.mean():.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="ddcn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic GRDT dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--h", type=int, default=16)
    p.add_argument("--w", type=int, default=8)
    p.add_argument("--steps", type=int, default=512)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--interval", type=int, default=30, help="minutes per frame, 1 to 1440")
    p.add_argument("--name", default="synth")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="convert a raw .npy array dump to GRDT")
    p.add_argument("--raw", required=True, help=".npy file of shape (T,C,H,W) or (T,H,W,C)")
    p.add_argument("--layout", choices=("tchw", "thwc"), default="tchw")
    p.add_argument("--interval", type=int, default=30, help="minutes per frame, at least 1")
    p.add_argument("--name", default="ingested")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train on a GRDT dataset")
    p.add_argument("--config", default=None, help="JSON config (model + train fields)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--embed-dim", dest="embed_dim", type=int, default=None)
    p.add_argument("--patch-size", dest="patch_size", type=int, default=None)
    p.add_argument("--input-steps", dest="input_steps", type=int, default=None)
    p.add_argument("--no-ddc", dest="use_ddc", action="store_false", default=None)
    p.add_argument("--no-involution3d", dest="use_involution3d", action="store_false",
                   default=None)
    p.add_argument("--mape-threshold", type=_mape_threshold, default=MAPE_MASK_THRESHOLD)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--checkpoint", required=True, help="run directory or .ckpt file")
    p.add_argument("--config", default=None, help="config echo override")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--mape-threshold", type=_mape_threshold, default=MAPE_MASK_THRESHOLD)
    p.add_argument("--out", default=None, help="metrics JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--scope", choices=("ops", "model"), default="ops")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--instances", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("profile", help="analytic params/FLOPs accounting")
    p.add_argument("--config", default=None)
    p.add_argument("--shape", default="1,4,2,32,32", help="input as B,T,C,H,W")
    p.add_argument("--search", action="store_true",
                   help="scan (embed_dim, depth, patch_size) for reference-scale configs")
    p.add_argument("--limit", type=_count, default=10)
    p.add_argument("--time", action="store_true",
                   help="also print a single-run forward timing (not a benchmark)")
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("errmap", help="export per-cell |pred - actual| for a test window")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_errmap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (DatasetFormatError, CheckpointFormatError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _ConfigParseError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # UsageError included
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
