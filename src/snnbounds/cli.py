"""Command-line entry point: train -> measure -> bounds -> figures, plus the
tiny-instance Rademacher probe.

Subcommands: train, measure, bounds, rad, figure, all.  Every ExperimentConfig
field is both a flag and a ``key=value`` line in a config file passed via
--config; flags win.  Exit codes: 0 success, 2 config error, 3 data error
(also any file that cannot be opened or made).  `train` trains a large grid
in worker processes (train_processes, worker_main).
"""

import argparse
import csv
import functools
import json
import os
import selectors
import signal
import subprocess
import sys
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, field, fields

import numpy as np

from . import bounds as bounds_mod
from . import datasets as data_mod
from . import figures as fig_mod
from .activations import ACTIVATIONS
from .files import atomic_open, write_csv
from .linalg import fork_rng, make_rng
from .measures import (MEASURE_CSV_FIELDS, CellConstants, cell_constants,
                       cell_key, measure_report, measure_row, report_from_row)
from .model import (Checkpoint, InitSnapshot, checkpoint_header,
                    checkpoint_load, checkpoint_save, init_kaiming)
from .rademacher import RadConfig, check_scale, mc_rad_estimate
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

# `train` runs a grid of two or more cells in worker processes, one per CPU
# of the affinity mask and at most one per cell, when the grid's training
# work, bounded above by the sum over its cells of m * d * n * max_epochs,
# exceeds this; below it the cells train in-process.  Measured on 2 CPUs
# (n = 13007, d = 1024, numpy 2.4 with OpenBLAS 0.3.31), the two paths break
# even between 2.6e10 and 3.8e10: two workers were up to 31% slower at
# 0.7e10-1.5e10 and 17-23% faster at 5.3e10 (the sweep's widths 64..1024
# for 2 epochs).
WORKER_MIN_WORK = 3e10
# each worker runs one BLAS thread; the cells are what runs in parallel
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
WORKER_STOP_S = 10.0  # a done or stopped worker's grace to end


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
    max_epochs: int = None  # None = source default (20 MNIST / 50 CIFAR)
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
        if min(self.seeds) < 0 or max(self.seeds) >= 2 ** 64:
            raise ConfigError("seeds must lie in [0, 2**64), as a checkpoint "
                              "stores its seed as a uint64")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if self.subsample < 0:
            raise ConfigError("subsample must be >= 0 (0 = full dataset)")
        if self.max_epochs is None:
            self.max_epochs = 20 if self.dataset == "mnist" else 50
        try:
            super().__post_init__()  # TrainConfig checks the training knobs
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


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


def read_raw(cfg):
    """The RawImageSet of cfg's dataset; ConfigError without its directory."""
    if cfg.dataset == "mnist":
        if not cfg.mnist_dir:
            raise ConfigError("--mnist-dir is required for the mnist dataset")
        return data_mod.load_mnist_dir(cfg.mnist_dir)
    if not cfg.cifar_dir:
        raise ConfigError("--cifar-dir is required for the cifar10 dataset")
    return data_mod.load_cifar_dir(cfg.cifar_dir)


def load_task_dataset(cfg, raw=None):
    """cfg's task from raw, read here when not given, through the prepared
    data of --out (datasets.load_prepared_task), then --subsample."""
    raw = read_raw(cfg) if raw is None else raw
    ds = data_mod.load_prepared_task(raw, DEFAULT_TASKS[cfg.dataset], cfg.out)
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


def _train_cell(cfg, ds32, seed, m):
    """Train cell (seed, m) of the grid on the float32 data ds32 and save its
    checkpoint; its manifest record, under failures if it diverged."""
    # trained in float32 from the rounded Kaiming draw, which is the
    # snapshot, so W - W0 is the training displacement alone;
    # checkpoint_save writes the exact float64 upcast
    params = init_kaiming(fork_rng(seed, m), m, ds32.d, 1,
                          ACTIVATIONS[cfg.activation])[0].astype(np.float32)
    snapshot = InitSnapshot(params.W, params.V)
    try:
        report = sgd_train(params, ds32, cfg, seed)
    except TrainingDiverged as exc:
        with suppress(FileNotFoundError):  # lest measure take the old one
            os.remove(_ckpt_path(cfg, seed, m))
        return {"seed": seed, "m": m, "error": str(exc)}
    ck = Checkpoint(params, snapshot, seed=seed, epochs=report.epochs_run,
                    final_train_error=report.final_train_error)
    checkpoint_save(ck, _ckpt_path(cfg, seed, m))
    return {"seed": seed, "m": m, "epochs": report.epochs_run,
            "train_error": report.final_train_error,
            "ramp_risk": report.final_ramp_risk,
            "loss_curve": report.loss_curve,
            "error_curve": report.error_curve,
            "wall_time": report.wall_time}


def cmd_train(cfg, ds, workers):
    """Train every cell of the grid, in the workers of _train_workers if
    there are any, and write manifest.json in grid order."""
    _remove_derived(cfg.out, "measures.csv")  # derived from the models replaced here
    grid = [(seed, m) for m in cfg.widths for seed in cfg.seeds]
    if workers:
        records = _train_in_workers(workers, grid)
    else:
        # every network trains on one float32 copy of X, half the size of
        # ds.X; ds itself stays float64, for `all` to measure
        ds32 = ds.astype(np.float32)
        records = {cell: _train_cell(cfg, ds32, *cell) for cell in grid}
    records = [records[cell] for cell in grid]
    manifest = {
        "version": 1,
        "config": {k: getattr(cfg, k) for k in vars(cfg)},
        "dataset_name": ds.name, "n": ds.n, "d": ds.d,
        "data_fingerprint": ds.fingerprint, "numpy": np.__version__,
        "cells": [r for r in records if "error" not in r],
        "failures": [r for r in records if "error" in r],
        "train_processes": len(workers) or 1,
    }
    with atomic_open(os.path.join(cfg.out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def train_processes(cfg, n):
    """The number of processes that train cfg's grid on n examples: 1, the
    calling one, unless its work bound exceeds WORKER_MIN_WORK; else one
    worker per CPU of this process's affinity mask (which `taskset` sets),
    at most one per cell."""
    work = (sum(cfg.widths) * len(cfg.seeds) * data_mod.TARGET_SIDE ** 2
            * n * cfg.max_epochs)
    if work <= WORKER_MIN_WORK:
        return 1
    return min(len(os.sched_getaffinity(0)), len(cfg.widths) * len(cfg.seeds))


@contextmanager
def _train_workers(cfg, n):
    """The worker processes that train cfg's grid of n examples, none when
    train_processes gives 1.  Each is started with WORKER_ENV, is sent cfg,
    and reads the raw data while this process prepares it.  On a normal
    exit, with its input closed, each has WORKER_STOP_S to end; then, or on
    an error, one still running is stopped and every one is waited for."""
    processes = train_processes(cfg, n)
    procs = []
    with ExitStack() as stack:
        for _ in range(processes if processes > 1 else 0):
            proc = stack.enter_context(subprocess.Popen(
                _worker_argv(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, env={**os.environ, **WORKER_ENV}))
            stack.callback(_stop_worker, proc)  # before Popen's own wait
            procs.append(proc)
            _send(proc, vars(cfg))
        yield procs
        for proc in procs:
            with suppress(subprocess.TimeoutExpired):
                proc.wait(WORKER_STOP_S)


def _worker_argv():
    """This interpreter, with its warning options and dev mode, importing
    the snnbounds package this module belongs to and running worker_main."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    flags = [f"-W{option}" for option in sys.warnoptions]
    flags += ["-X", "dev"] if sys.flags.dev_mode else []
    return [sys.executable, *flags, "-c",
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from snnbounds.cli import worker_main; sys.exit(worker_main())",
            root]


def _stop_worker(proc):
    """Close proc's input, then end proc unless it has ended."""
    with suppress(BrokenPipeError):  # the line a dead worker did not take
        proc.stdin.close()
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(WORKER_STOP_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _worker_died(proc):
    return RuntimeError(f"training worker {proc.pid} exited with status "
                        f"{proc.wait()} before it returned its cells")


def _send(proc, message):
    """One JSON line to a worker."""
    try:
        proc.stdin.write(json.dumps(message) + "\n")
        proc.stdin.flush()
    except BrokenPipeError:
        raise _worker_died(proc) from None


def _train_in_workers(procs, grid):
    """{(seed, m): record} of _train_cell for each cell of the grid, trained
    by procs, largest m first: a worker is sent its next cell when it has
    returned its last, and the end of its input when no cell is left.  A
    worker's data error (a DataError or an OSError) is raised here as a
    DataError, and a worker that ends without its record as RuntimeError."""
    queue = sorted(grid, key=lambda cell: -cell[1])  # grid order within an m
    records, busy = {}, {}
    with selectors.DefaultSelector() as selector:

        def hand_out(proc):
            if queue:
                busy[proc] = queue.pop(0)
                _send(proc, busy[proc])
            else:
                selector.unregister(proc.stdout)
                proc.stdin.close()

        for proc in procs:
            selector.register(proc.stdout, selectors.EVENT_READ, proc)
            hand_out(proc)
        while busy:
            for key, _ in selector.select():
                proc = key.data
                # one line is written per cell sent, so none waits in a buffer
                line = proc.stdout.readline()
                if not line.endswith("\n"):  # cut short by the worker's end
                    raise _worker_died(proc)
                reply = json.loads(line)
                if "record" not in reply:
                    raise data_mod.DataError(reply["error"])
                records[busy.pop(proc)] = reply["record"]
                hand_out(proc)
    return records


def worker_main():
    """A `train` worker, started by _train_workers, talking JSON lines: it
    reads the config from stdin and the raw data, then trains each (seed, m)
    cell it reads and writes {"record": ...} to stdout, or {"error": ...}
    for a data error, on which `train` exits with 3.  The first cell comes
    once the parent has prepared the data, whose X this maps read-only from
    the prepared-data file and casts to float32 once."""
    replies, sys.stdout = sys.stdout, sys.stderr  # stdout holds replies alone
    # a stopped worker unwinds, so atomic_open removes its temporary file;
    # Ctrl-C is the parent's to handle, which stops its workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    line = sys.stdin.readline()
    if not line:
        return 0
    cfg = ExperimentConfig(**json.loads(line))
    try:
        raw = read_raw(cfg)
        ds32 = None
        for line in sys.stdin:
            if ds32 is None:
                ds = load_task_dataset(cfg, raw)
                del raw  # neither the raw images nor X's map is kept
                ds32 = ds.astype(np.float32)
                del ds
            reply = {"record": _train_cell(cfg, ds32, *json.loads(line))}
            print(json.dumps(reply), file=replies, flush=True)
    except (data_mod.DataError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=replies, flush=True)
    return 0


def _read_manifest(out):
    """The manifest.json of --out, None if there is none (checkpoints of
    other code are measured as they are); DataError if not a JSON object
    whose cells are a list of objects with integer seed and m."""
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
    cells = manifest.get("cells")
    if not (isinstance(cells, list) and all(isinstance(c, dict) and all(
            type(c.get(k)) is int for k in ("seed", "m")) for c in cells)):
        raise data_mod.DataError(f"{path} has no list of cells of integer seed and m")
    return manifest


def _grid_checkpoints(cfg, manifest):
    """(seed, m, path, d) of each checkpoint on the grid, d from its header;
    DataError if there is none, for one left from an earlier run (no cell of
    the manifest of _read_manifest), or for a header checkpoint_header refuses."""
    found = [(seed, m, path) for m in cfg.widths for seed in cfg.seeds
             if os.path.exists(path := _ckpt_path(cfg, seed, m))]
    if not found:
        raise data_mod.DataError(f"no checkpoints found under {cfg.out}")
    cells = {(c["seed"], c["m"]) for c in manifest["cells"]} if manifest else set()
    checkpoints = []
    for seed, m, path in found:
        if manifest is not None and (seed, m) not in cells:
            raise data_mod.DataError(
                f"{path} is not a cell of {os.path.join(cfg.out, 'manifest.json')}"
                " but left from an earlier run; rerun `snnbounds train` for "
                "this grid")
        with open(path, "rb") as f:
            checkpoints.append((seed, m, path, checkpoint_header(f).d))
    return checkpoints


def _read_cell_constants(path):
    """{cell key: CellConstants} of the cell-constants file at path: none for
    a file that is missing or no JSON object, and no entry whose value is
    not the keyword arguments of a CellConstants that its rules accept."""
    try:
        with open(path, encoding="utf-8") as f:
            entries = json.load(f).items()
    except (OSError, ValueError, AttributeError):  # unreadable, no JSON object
        return {}
    kept = {}
    for key, value in entries:
        with suppress(TypeError, ValueError):
            kept[key] = CellConstants(**value)
    return kept


def cmd_measure(cfg, ds, checkpoints, manifest):
    """measures.csv of the (seed, m, path, d) checkpoints of _grid_checkpoints;
    ConfigError if the manifest of _read_manifest records other data than
    ds, DataError for a checkpoint whose d differs.  The constants of each
    cell are read from cell_constants.json in --out when it holds the
    cell's key, and computed otherwise; the file is then replaced by the
    constants of these cells."""
    manifest_path = os.path.join(cfg.out, "manifest.json")
    for key, value in (("n", ds.n), ("d", ds.d),
                       ("data_fingerprint", ds.fingerprint)):
        if manifest is not None and manifest.get(key) != value:
            raise ConfigError(
                f"{manifest_path} gives {key} {manifest.get(key)!r} but the "
                f"loaded data has {value!r}; measure with the data and "
                "--subsample that `snnbounds train` used")
    for _, _, path, d in checkpoints:
        if d != ds.d:
            raise data_mod.DataError(f"{path} has d = {d} inputs but the "
                                     f"data has d = {ds.d}")
    constants_path = os.path.join(cfg.out, "cell_constants.json")
    cached, kept = _read_cell_constants(constants_path), {}
    rows = []
    for seed, _, path, _ in checkpoints:
        ck = checkpoint_load(path)
        key = cell_key(ck.snapshot.W0, ds, ck.params.activation)
        try:  # the records refuse a norm that overflows
            with np.errstate(over="ignore", invalid="ignore"):
                constants = cached.get(key) or cell_constants(
                    ck.snapshot.W0, ds, ck.params.activation)
                report = measure_report(ck.params, ck.snapshot, ds, constants)
        except ValueError as exc:  # LinAlgError too
            raise data_mod.DataError(f"{path} cannot be measured: {exc}") from None
        kept[key] = constants
        rows.append(measure_row(report, ds.name, seed))
    _remove_derived(cfg.out, "bounds.csv")  # derived from the old measures.csv
    write_csv(os.path.join(cfg.out, "measures.csv"), MEASURE_CSV_FIELDS, rows)
    with atomic_open(constants_path, "w") as f:
        json.dump({key: vars(c) for key, c in kept.items()}, f, indent=2,
                  sort_keys=True)


def cmd_bounds(cfg):
    """bounds.csv from measures.csv alone, the bounds of every row."""
    rows = []
    for row, report in _read_measures(cfg.out):
        for bv in bounds_mod.all_bound_values(report, delta=cfg.delta):
            rows.append([row["dataset"], row["seed"], row["m"], bv.method,
                         repr(bv.value), repr(cfg.delta), bv.data_dependent,
                         bv.qualitative])
    write_csv(os.path.join(cfg.out, "bounds.csv"), BOUNDS_CSV_FIELDS, rows)


def cmd_figure(cfg):
    """Every figure from measures.csv alone, the bounds at --delta."""
    # every row is checked before the first figure file is written
    reports = [report for _, report in _read_measures(cfg.out)]
    for kind in fig_mod.FIGURE_KINDS:
        fig_mod.emit_figure(kind, reports, cfg.delta,
                            os.path.join(cfg.out, f"{kind}.csv"),
                            os.path.join(cfg.out, f"{kind}.svg"))


def cmd_rad(args):
    """Tiny-instance Rademacher probe: MC feasible estimate vs. the bounds."""
    n, d, m, R_W, R_V = args.n, args.d, args.m, args.rw, args.rv
    try:  # RadConfig's counts and seed, and the probe's limits, before any draw
        cfg = RadConfig(**{name: getattr(args, name) for name in _RAD_KNOBS})
        check_scale(n, d, m, R_W, R_V, cfg)
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


def _flag(name):
    return "--" + name.replace("_", "-")


def _add_experiment_flags(p):
    p.add_argument("--config")
    for f in fields(ExperimentConfig):
        p.add_argument(_flag(f.name), dest=f.name, type=_parse(f),
                       choices=f.metadata.get("choices"))


# built once per process, not once per main call; callers parse with the
# shared parser and do not change it
@functools.cache
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
        cfg = None if args.command == "rad" else build_experiment_config(args)
        if args.command == "rad":
            cmd_rad(args)
        elif args.command == "bounds":
            cmd_bounds(cfg)
        elif args.command == "figure":
            cmd_figure(cfg)
        elif args.command == "measure":
            # every checkpoint's header and the manifest are read before the
            # data is prepared
            manifest = _read_manifest(cfg.out)
            checkpoints = _grid_checkpoints(cfg, manifest)
            cmd_measure(cfg, load_task_dataset(cfg), checkpoints, manifest)
        else:
            # train and measure share one load of the data within `all`;
            # train makes --out first, so that the load can keep the
            # prepared data there.  Workers start before the data is
            # prepared, which hides their start-up behind that work.
            os.makedirs(cfg.out, exist_ok=True)
            raw = read_raw(cfg)
            n = cfg.subsample or data_mod.task_size(raw, DEFAULT_TASKS[cfg.dataset])
            with _train_workers(cfg, n) as workers:
                ds = load_task_dataset(cfg, raw)
                del raw  # not held through training
                cmd_train(cfg, ds, workers)
            if args.command == "all":
                manifest = _read_manifest(cfg.out)
                cmd_measure(cfg, ds, _grid_checkpoints(cfg, manifest), manifest)
                cmd_bounds(cfg)
                cmd_figure(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (data_mod.DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
