"""Command-line entry point: train -> measure -> bounds -> figures, plus the
tiny-instance Rademacher probe.

Subcommands: train, measure, bounds, rad, figure, all.  Every ExperimentConfig
field is both a flag and a ``key=value`` line in a config file passed via
--config; flags win.  Exit codes: 0 success, 2 config error, 3 data error
(also any file that cannot be opened or made).
"""

import argparse
import csv
import json
import os
import sys
from contextlib import suppress
from dataclasses import dataclass, field, fields

import numpy as np

from . import bounds as bounds_mod
from . import datasets as data_mod
from . import figures as fig_mod
from .files import atomic_open, write_csv
from .linalg import fork_rng, make_rng
from .measures import (MEASURE_CSV_FIELDS, measure_report, measure_row,
                       report_from_row)
from .model import (ACTIVATIONS, Checkpoint, checkpoint_header,
                    checkpoint_load, checkpoint_save, init_kaiming)
from .rademacher import RADIUS_GUARD, RadConfig, check_scale, mc_rad_estimate
from .trainer import TrainConfig, TrainingDiverged, sgd_train

BOUNDS_CSV_FIELDS = ["dataset", "seed", "m", "method", "value", "delta",
                     "data_dependent", "qualitative"]
RAD_CSV_FIELDS = ["n", "d", "m", "R_W", "R_V", "estimate", "std_error",
                  "upper_bound_path", "lower_bound", "margin"]
# the RadConfig fields that `rad` takes as flags, with RadConfig's defaults
_RAD_KNOBS = ("seed", "sigma_samples", "pga_steps", "pga_restarts")

DEFAULT_TASKS = {
    "mnist": data_mod.TaskSpec("mnist", 1, 7),
    "cifar10": data_mod.TaskSpec("cifar10", 0, 1),
}


class ConfigError(Exception):
    pass


def _int_list(text):
    """Comma-separated integers, e.g. ``64,128``."""
    try:
        return [int(v) for v in str(text).split(",") if v != ""]
    except ValueError:
        raise ValueError(f"bad integer list {text!r}") from None


_INT_LIST = {"type": _int_list}


@dataclass
class ExperimentConfig(TrainConfig):
    """Every experiment knob: the training knobs of TrainConfig, then the
    experiment's own.  Flags and config-file keys derive from the fields,
    whose metadata may give a parser (``type``) and ``choices``."""
    max_epochs: int = 0  # 0 = source default (20 MNIST / 50 CIFAR)
    dataset: str = field(default="mnist",
                         metadata={"choices": tuple(DEFAULT_TASKS)})
    mnist_dir: str = ""
    cifar_dir: str = ""
    out: str = "runs"
    widths: list = field(default_factory=lambda: [64, 128], metadata=_INT_LIST)
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4], metadata=_INT_LIST)
    delta: float = 0.01
    subsample: int = 0  # 0 = full dataset
    activation: str = field(default="relu",
                            metadata={"choices": tuple(ACTIVATIONS)})

    def __post_init__(self):
        for f in fields(self):
            allowed = f.metadata.get("choices")
            value = getattr(self, f.name)
            if allowed and value not in allowed:
                raise ConfigError(f"unknown {f.name} {value!r}")
        if not self.widths or sorted(set(self.widths)) != self.widths:
            raise ConfigError("widths must be nonempty and strictly increasing")
        if self.widths[0] < 1:
            raise ConfigError("widths must be >= 1")
        if not self.seeds or len(set(self.seeds)) < len(self.seeds):
            raise ConfigError("seeds must be nonempty and distinct")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be >= 0")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if self.subsample < 0:
            raise ConfigError("subsample must be >= 0 (0 = full dataset)")
        try:
            super().__post_init__()  # TrainConfig checks the training knobs
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.max_epochs == 0:
            self.max_epochs = 20 if self.dataset == "mnist" else 50


def parse_config_file(path):
    """Flat key=value file; blank lines and '#' comments ignored."""
    values = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not UTF-8 text") from None
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    return values


def _parse(f):
    """The parser of an ExperimentConfig field's flag and config-file value."""
    return f.metadata.get("type", f.type)


def build_experiment_config(args):
    """ExperimentConfig from the --config file, overridden by any flag given."""
    values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(values) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(unknown)}")
    kwargs = {}
    try:
        for f in fields(ExperimentConfig):
            if f.name in values:
                kwargs[f.name] = _parse(f)(values[f.name])
            if getattr(args, f.name, None) is not None:
                kwargs[f.name] = getattr(args, f.name)
        return ExperimentConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def load_task_dataset(cfg):
    task = DEFAULT_TASKS[cfg.dataset]
    if cfg.dataset == "mnist":
        if not cfg.mnist_dir:
            raise ConfigError("--mnist-dir is required for the mnist dataset")
        raw = data_mod.load_mnist_dir(cfg.mnist_dir)
    else:
        if not cfg.cifar_dir:
            raise ConfigError("--cifar-dir is required for the cifar10 dataset")
        raw = data_mod.load_cifar_dir(cfg.cifar_dir)
    ds = data_mod.load_prepared_task(raw, task, cfg.out)
    if cfg.subsample > ds.n:
        raise ConfigError(f"subsample={cfg.subsample} exceeds the {ds.n} "
                          f"examples of the {cfg.dataset} task")
    if cfg.subsample:
        ds = data_mod.subsample(ds, cfg.subsample, fork_rng(0, 999))
    return ds


def _read_measures(out):
    """(row, MeasureReport) per measures.csv row; DataError if absent or empty."""
    path = os.path.join(out, "measures.csv")
    if not os.path.exists(path):
        raise data_mod.DataError(f"{path} not found; run `snnbounds measure` first")
    with open(path, newline="", encoding="utf-8") as f:
        try:
            rows = list(csv.DictReader(f))
        except UnicodeDecodeError:
            raise data_mod.DataError(f"{path} is not UTF-8 text") from None
    if not rows:
        raise data_mod.DataError(f"no rows found in {path}")
    return [(row, report_from_row(row)) for row in rows]


def _ckpt_path(cfg, seed, m):
    return os.path.join(cfg.out, f"ckpt_{cfg.dataset}_s{seed}_m{m}.snn")


def _remove_derived(out, first):
    """Delete the stage output ``first`` of --out and every file derived from it."""
    derived = ["measures.csv", "bounds.csv"]
    derived += [kind + ext for kind in fig_mod.FIGURE_KINDS for ext in (".csv", ".svg")]
    for name in derived[derived.index(first):]:
        with suppress(FileNotFoundError):
            os.remove(os.path.join(out, name))


def cmd_train(cfg, ds):
    _remove_derived(cfg.out, "measures.csv")  # derived from the models replaced here
    failures = []
    cells = []
    for m in cfg.widths:
        for seed in cfg.seeds:
            params, snapshot = init_kaiming(
                fork_rng(seed, m), m, ds.d, 1, ACTIVATIONS[cfg.activation])
            try:
                report = sgd_train(params, ds, cfg, seed)
            except TrainingDiverged as exc:
                failures.append({"seed": seed, "m": m, "error": str(exc)})
                with suppress(FileNotFoundError):  # lest measure take the old one
                    os.remove(_ckpt_path(cfg, seed, m))
                continue
            ck = Checkpoint(params, snapshot, seed=seed,
                            epochs=report.epochs_run,
                            final_train_error=report.final_train_error)
            checkpoint_save(ck, _ckpt_path(cfg, seed, m))
            cells.append({"seed": seed, "m": m,
                          "epochs": report.epochs_run,
                          "train_error": report.final_train_error,
                          "ramp_risk": report.final_ramp_risk,
                          "loss_curve": report.loss_curve,
                          "error_curve": report.error_curve,
                          "wall_time": report.wall_time})
    manifest = {
        "version": 1,
        "config": {k: getattr(cfg, k) for k in vars(cfg)},
        "dataset_name": ds.name, "n": ds.n, "d": ds.d,
        "data_fingerprint": ds.fingerprint, "numpy": np.__version__,
        "cells": cells, "failures": failures,
    }
    with atomic_open(os.path.join(cfg.out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return 0


def _read_manifest(out):
    """The manifest.json of --out, None if there is none (checkpoints of
    other code are measured as they are); DataError if not a JSON object."""
    path = os.path.join(out, "manifest.json")
    try:
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        return None
    except (OSError, ValueError):  # a directory, not JSON, or not UTF-8
        manifest = None
    if not isinstance(manifest, dict):
        raise data_mod.DataError(f"{path} is not a JSON object")
    return manifest


def _grid_checkpoints(cfg):
    """(seed, path, d) of each checkpoint on the grid, d from its header;
    DataError if there is none, or for a header checkpoint_header refuses,
    such as one with other than c = 1 outputs."""
    found = [(seed, path) for m in cfg.widths for seed in cfg.seeds
             if os.path.exists(path := _ckpt_path(cfg, seed, m))]
    if not found:
        raise data_mod.DataError(f"no checkpoints found under {cfg.out}")
    checkpoints = []
    for seed, path in found:
        with open(path, "rb") as f:
            checkpoints.append((seed, path, checkpoint_header(f).d))
    return checkpoints


def cmd_measure(cfg, ds, checkpoints, manifest):
    """measures.csv of the (seed, path, d) checkpoints of _grid_checkpoints;
    ConfigError if the manifest of _read_manifest records other data than
    ds, DataError if a checkpoint's d is not the data's."""
    for key, value in (("n", ds.n), ("d", ds.d),
                       ("data_fingerprint", ds.fingerprint)):
        if manifest is not None and manifest.get(key) != value:
            raise ConfigError(
                f"{os.path.join(cfg.out, 'manifest.json')} gives {key} "
                f"{manifest.get(key)!r} but the loaded data has {value!r}; "
                "measure with the data and --subsample that `snnbounds "
                "train` used")
    for _, path, d in checkpoints:
        if d != ds.d:
            raise data_mod.DataError(f"{path} has d = {d} inputs but the "
                                     f"data has d = {ds.d}")
    rows = []
    for seed, path, _ in checkpoints:
        ck = checkpoint_load(path)
        report = measure_report(ck.params, ck.snapshot, ds)
        rows.append(measure_row(report, ds.name, seed))
    _remove_derived(cfg.out, "bounds.csv")  # derived from the old measures.csv
    write_csv(os.path.join(cfg.out, "measures.csv"), MEASURE_CSV_FIELDS, rows)
    return 0


def cmd_bounds(cfg):
    """bounds.csv from measures.csv alone, the bounds of every row."""
    rows = []
    for row, report in _read_measures(cfg.out):
        for bv in bounds_mod.all_bound_values(report, delta=cfg.delta):
            rows.append([row["dataset"], row["seed"], row["m"], bv.method,
                         repr(bv.value), repr(cfg.delta), bv.data_dependent,
                         bv.qualitative])
    write_csv(os.path.join(cfg.out, "bounds.csv"), BOUNDS_CSV_FIELDS, rows)
    return 0


def cmd_figure(cfg):
    """Every figure from measures.csv alone, the bounds at --delta."""
    # every row is checked before the first figure file is written
    reports = [report for _, report in _read_measures(cfg.out)]
    for kind in fig_mod.FIGURE_KINDS:
        fig_mod.emit_figure(kind, reports, cfg.delta,
                            os.path.join(cfg.out, f"{kind}.csv"),
                            os.path.join(cfg.out, f"{kind}.svg"))
    return 0


def cmd_rad(args):
    """Tiny-instance Rademacher probe: MC feasible estimate vs. the bounds."""
    n, d, m, R_W, R_V = args.n, args.d, args.m, args.rw, args.rv
    if min(n, d, m) < 1:
        raise ConfigError("n, d and m must be >= 1")
    if not all(0.0 <= r <= RADIUS_GUARD for r in (R_W, R_V)):
        raise ConfigError(f"radii must lie in [0, {RADIUS_GUARD:g}]")
    try:  # RadConfig's counts and seed, and both scale guards, before any draw
        cfg = RadConfig(**{name: getattr(args, name) for name in _RAD_KNOBS})
        check_scale(n, d, m, cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    act = ACTIVATIONS[args.activation]
    rng = make_rng(cfg.seed)
    X = rng.standard_normal((d, n))
    X /= np.linalg.norm(X, axis=0)
    W0 = init_kaiming(rng, m, d, 1, act)[1].W0
    ds = data_mod.Dataset(X, np.ones(n), name="rad_probe")
    measures = bounds_mod.class_bound_inputs(ds, W0, act, R_W, R_V)
    est = mc_rad_estimate(X, W0, R_W, R_V, act, cfg=cfg)
    upper = bounds_mod.rad_upper_path(measures)
    lower = bounds_mod.rad_lower(measures)
    row = [n, d, m, R_W, R_V, est.mean, est.std_error, upper,
           float("nan") if lower is None else lower, upper - est.mean]
    write_csv(args.out_csv, RAD_CSV_FIELDS, [row])
    return 0


def _flag(name):
    return "--" + name.replace("_", "-")


def _add_experiment_flags(p):
    p.add_argument("--config")
    for f in fields(ExperimentConfig):
        p.add_argument(_flag(f.name), dest=f.name, type=_parse(f),
                       choices=f.metadata.get("choices"))


def build_parser():
    parser = argparse.ArgumentParser(prog="snnbounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "measure", "bounds", "figure", "all"):
        _add_experiment_flags(sub.add_parser(name))
    rad = sub.add_parser("rad")
    rad.add_argument("--n", type=int, default=8)
    rad.add_argument("--d", type=int, default=4)
    rad.add_argument("--m", type=int, default=4)
    rad.add_argument("--rw", type=float, default=1.0)
    rad.add_argument("--rv", type=float, default=1.0)
    for name in _RAD_KNOBS:
        rad.add_argument(_flag(name), dest=name, type=int,
                         default=getattr(RadConfig, name))
    rad.add_argument("--activation", choices=tuple(ACTIVATIONS), default="relu")
    rad.add_argument("--out-csv", dest="out_csv")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rad":
            return cmd_rad(args)
        cfg = build_experiment_config(args)
        if args.command == "bounds":
            return cmd_bounds(cfg)
        if args.command == "figure":
            return cmd_figure(cfg)
        if args.command == "measure":
            # every checkpoint's header and the manifest are read before the
            # data is prepared
            checkpoints, manifest = _grid_checkpoints(cfg), _read_manifest(cfg.out)
            return cmd_measure(cfg, load_task_dataset(cfg), checkpoints, manifest)
        # train and measure share one load of the data within `all`; train
        # makes --out first, so that the load can keep the prepared data there
        os.makedirs(cfg.out, exist_ok=True)
        ds = load_task_dataset(cfg)
        if args.command == "train":
            return cmd_train(cfg, ds)
        return (cmd_train(cfg, ds)  # all
                or cmd_measure(cfg, ds, _grid_checkpoints(cfg),
                               _read_manifest(cfg.out))
                or cmd_bounds(cfg) or cmd_figure(cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (data_mod.DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
