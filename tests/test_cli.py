import argparse
import csv
import glob
import json
import math
import os
import re
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

from snnbounds import (ACTIVATIONS, RELU, Checkpoint, InitSnapshot,
                       SnnParams, all_bound_values, checkpoint_load,
                       checkpoint_save, init_kaiming, make_rng,
                       measure_report, report_from_row)
from snnbounds import build_binary_task
from snnbounds import cli as cli_mod
from snnbounds import datasets as datasets_mod
from snnbounds import rademacher as rademacher_mod
from snnbounds.bounds import class_bound_inputs
from snnbounds.datasets import Dataset
from snnbounds.files import write_csv
from snnbounds.measures import measure_row
from snnbounds.trainer import TrainConfig, TrainingDiverged
from snnbounds.cli import (BOUNDS_CSV_FIELDS, RAD_CSV_FIELDS, ConfigError,
                           ExperimentConfig, build_parser, load_task_dataset,
                           main, parse_config_file)
from conftest import (encode_cifar10_bin, encode_idx_images, encode_idx_labels,
                      write_fake_mnist_dir, write_two_output_checkpoint)


def _run(argv):
    """The exit code of `snnbounds argv`; argparse usage errors exit 2."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _base_args(mnist_dir, out, widths="4", seeds="0"):
    return ["--dataset", "mnist", "--mnist-dir", mnist_dir, "--out", out,
            "--widths", widths, "--seeds", seeds, "--max-epochs", "3"]


def test_config_defaults_and_validation():
    cfg = ExperimentConfig()
    assert cfg.max_epochs == 20  # mnist default
    assert ExperimentConfig(dataset="cifar10", cifar_dir="x").max_epochs == 50
    assert ExperimentConfig(max_epochs=0).max_epochs == 0
    with pytest.raises(ConfigError):
        ExperimentConfig(widths=[8, 4])
    with pytest.raises(ConfigError):
        ExperimentConfig(widths=[])
    with pytest.raises(ConfigError):
        ExperimentConfig(seeds=[])
    with pytest.raises(ConfigError):
        ExperimentConfig(delta=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset="svhn")
    with pytest.raises(ConfigError):
        ExperimentConfig(max_epochs=-1)
    with pytest.raises(ConfigError, match="unknown activation 'foo'"):
        ExperimentConfig(activation="foo")


def test_config_file_parsing(tmp_path):
    path = os.path.join(tmp_path, "exp.cfg")
    with open(path, "w") as f:
        f.write("# comment\n\nwidths = 4,8\nseeds=1\ndelta = 0.05\n")
    values = parse_config_file(path)
    assert values == {"widths": "4,8", "seeds": "1", "delta": "0.05"}
    bad = os.path.join(tmp_path, "bad.cfg")
    with open(bad, "w") as f:
        f.write("widths 4,8\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)


def test_flags_override_config_file(tmp_path, mnist_dir):
    path = os.path.join(tmp_path, "exp.cfg")
    with open(path, "w") as f:
        f.write("delta=0.5\nwidths=2,4\nactivation=tanh\n")
    parser = build_parser()
    args = parser.parse_args(["train", "--config", path, "--delta", "0.1"])
    from snnbounds.cli import build_experiment_config
    cfg = build_experiment_config(args)
    assert cfg.delta == 0.1       # flag wins
    assert cfg.widths == [2, 4]   # file survives where no flag given
    assert cfg.activation == "tanh"


def test_experiment_config_extends_train_config(tmp_path, mnist_dir):
    # the training knobs are TrainConfig's fields, declared there alone
    assert isinstance(ExperimentConfig(), TrainConfig)
    out = os.path.join(tmp_path, "run")
    assert _run(["train"] + _base_args(mnist_dir, out)) == 0
    with open(os.path.join(out, "manifest.json")) as f:
        config = json.load(f)["config"]
    assert sorted(config) == [
        "activation", "batch_size", "cifar_dir", "dataset", "delta",
        "learning_rate", "max_epochs", "mnist_dir", "momentum", "out",
        "seeds", "subsample", "target_train_error", "widths"]


@pytest.mark.parametrize("given_in", ["flag", "config file"])
def test_max_epochs_zero_trains_no_epoch(tmp_path, mnist_dir, given_in):
    # 0 epochs, not the dataset default: the checkpoint is the rounded
    # Kaiming draw, the untrained baseline
    out = os.path.join(tmp_path, "run")
    argv = ["train", "--mnist-dir", mnist_dir, "--out", out, "--widths", "4",
            "--seeds", "0"]
    if given_in == "flag":
        argv += ["--max-epochs", "0"]
    else:
        path = os.path.join(tmp_path, "exp.cfg")
        with open(path, "w") as f:
            f.write("max_epochs=0\n")
        argv += ["--config", path]
    assert _run(argv) == 0
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["config"]["max_epochs"] == 0
    [cell] = manifest["cells"]
    assert (cell["epochs"], cell["loss_curve"], cell["error_curve"]) == (
        0, [], [])
    ck = checkpoint_load(os.path.join(out, "ckpt_mnist_s0_m4.snn"))
    assert ck.epochs == 0
    assert np.array_equal(ck.params.W, ck.snapshot.W0)
    assert np.array_equal(ck.params.V, ck.snapshot.V0)


def test_exit_code_config_error(tmp_path):
    # mnist without --mnist-dir is a config error
    assert _run(["train", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("flag, value", [
    ("--batch-size", "0"), ("--momentum", "1.5"), ("--momentum", "-0.1"),
    ("--learning-rate", "-1"), ("--learning-rate", "nan"),
    ("--learning-rate", "inf"), ("--target-train-error", "nan"),
    ("--max-epochs", "-1"), ("--subsample", "-1"),
    ("--widths", "0,4"), ("--seeds", "-1"), ("--widths", "4,x"),
    ("--seeds", "1,,x"), ("--seeds", "0,0"),
    ("--seeds", "18446744073709551616"),  # 2**64; a checkpoint holds a uint64
])
def test_exit_code_bad_training_flag(tmp_path, flag, value):
    # rejected before the dataset is read: a missing directory would give 3
    out = os.path.join(tmp_path, "run")
    rc = _run(["train", "--mnist-dir", os.path.join(tmp_path, "nope"),
               "--out", out, flag, value])
    assert rc == 2
    assert not os.path.exists(out)


def test_exit_code_bad_config_file_value(tmp_path, capsys):
    # rejected before the dataset is read (a missing directory would give 3)
    # and before any stage writes to --out
    for command, line in [("train", "batch_size=many"), ("train", "widths=4,x"),
                          ("train", "activation=foo"), ("train", "dataset=svhn"),
                          ("all", "activation=foo"), ("train", "batchsize=0")]:
        path = os.path.join(tmp_path, "exp.cfg")
        with open(path, "w") as f:
            f.write(line + "\n")
        out = os.path.join(tmp_path, "run")
        assert _run([command, "--config", path, "--out", out, "--mnist-dir",
                     os.path.join(tmp_path, "nope")]) == 2, line
        assert not os.path.exists(out), line
    assert capsys.readouterr().err.endswith(
        "config error: unknown config key(s) batchsize\n")


def test_exit_code_config_file_not_utf8(tmp_path, capsys):
    path = os.path.join(tmp_path, "exp.cfg")
    with open(path, "wb") as f:
        f.write(b"batch_size=\xff\n")
    out = os.path.join(tmp_path, "run")
    assert _run(["train", "--config", path, "--out", out, "--mnist-dir",
                 os.path.join(tmp_path, "nope")]) == 2
    assert capsys.readouterr().err == f"config error: {path} is not UTF-8 text\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("name", ["missing.cfg", "."],
                         ids=["missing", "directory"])
def test_exit_code_config_file_unreadable(tmp_path, capsys, name):
    path = os.path.join(tmp_path, name)
    out = os.path.join(tmp_path, "run")
    assert _run(["train", "--config", path, "--out", out, "--mnist-dir",
                 os.path.join(tmp_path, "nope")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {path}: "), err
    assert not os.path.exists(out)


EXPERIMENT_SURFACE = [
    ("--config", "config", None, None),
    # TrainConfig's fields, which ExperimentConfig inherits, come first
    ("--batch-size", "batch_size", None, None),
    ("--momentum", "momentum", None, None),
    ("--learning-rate", "learning_rate", None, None),
    ("--max-epochs", "max_epochs", None, None),
    ("--target-train-error", "target_train_error", None, None),
    ("--dataset", "dataset", ("mnist", "cifar10"), None),
    ("--mnist-dir", "mnist_dir", None, None),
    ("--cifar-dir", "cifar_dir", None, None),
    ("--out", "out", None, None),
    ("--widths", "widths", None, None),
    ("--seeds", "seeds", None, None),
    ("--delta", "delta", None, None),
    ("--subsample", "subsample", None, None),
    ("--activation", "activation", ("relu", "tanh", "sigmoid"), None),
]
RAD_SURFACE = [
    ("--n", "n", None, 8),
    ("--d", "d", None, 4),
    ("--m", "m", None, 4),
    ("--rw", "rw", None, 1.0),
    ("--rv", "rv", None, 1.0),
    ("--seed", "seed", None, 0),
    ("--sigma-samples", "sigma_samples", None, 200),
    ("--pga-steps", "pga_steps", None, 200),
    ("--pga-restarts", "pga_restarts", None, 5),
    ("--activation", "activation", ("relu", "tanh", "sigmoid"), "relu"),
    ("--out-csv", "out_csv", None, None),
]


def test_parser_surface_pinned():
    """Every subcommand's options: option string, dest, choices, default."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    want = {name: EXPERIMENT_SURFACE
            for name in ("train", "measure", "bounds", "figure", "all")}
    want["rad"] = RAD_SURFACE
    assert list(sub.choices) == ["train", "measure", "bounds", "figure",
                                 "all", "rad"]
    for name, parser in sub.choices.items():
        got = [(*a.option_strings, a.dest,
                tuple(a.choices) if a.choices else None, a.default)
               for a in parser._actions if a.dest != "help"]
        assert got == want[name], name


def test_exit_code_oversized_subsample(tmp_path, mnist_dir):
    out = os.path.join(tmp_path, "run")
    assert _run(["train", "--subsample", "41"]
                + _base_args(mnist_dir, out)) == 2
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_exit_code_data_error(tmp_path):
    missing = os.path.join(tmp_path, "nope")
    rc = _run(["train", "--mnist-dir", missing, "--out", str(tmp_path)])
    assert rc == 3


def _train_on_raw_mnist(tmp_path, images, labels):
    """The exit code of `train` on an MNIST directory of these IDX file
    bytes; the output directory must stay empty."""
    raw = os.path.join(tmp_path, "mnist")
    os.mkdir(raw)
    for name, blob in (("train-images-idx3-ubyte", images),
                       ("train-labels-idx1-ubyte", labels)):
        with open(os.path.join(raw, name), "wb") as f:
            f.write(blob)
    out = os.path.join(tmp_path, "run")
    rc = _run(["train", "--mnist-dir", raw, "--out", out])
    assert os.listdir(out) == []  # no checkpoint, no prepared_mnist.bin
    return rc


@pytest.mark.parametrize("n, h, w, payload", [
    (1, 0xFFFFFFE4, 0xFFFFFFE4, 784),  # sides of 2^32 - 28, not -28
    (2, 0, 28, 0),
], ids=["sides-above-2^31", "zero-height"])
def test_train_exit_3_on_idx_image_sides_out_of_range(tmp_path, capsys,
                                                      n, h, w, payload):
    # the IDX header's counts are unsigned; a side below 1 has no image
    assert _train_on_raw_mnist(
        tmp_path, struct.pack(">4I", 0x803, n, h, w) + bytes(payload),
        encode_idx_labels(np.resize([1, 7], n))) == 3
    assert capsys.readouterr().err.startswith("data error")


_IMAGES = encode_idx_images(np.full((4, 28, 28), 9))
_LABELS = encode_idx_labels([1, 7, 1, 7])


@pytest.mark.parametrize("images, labels, message", [
    (_IMAGES, encode_idx_labels([1, 7, 1]), "images and labels length mismatch"),
    (_IMAGES[:10], _LABELS, "header truncated at byte 10"),
    (_IMAGES, _LABELS[:5], "header truncated at byte 5"),
    (encode_idx_images(np.zeros((0, 28, 28))), encode_idx_labels([]),
     "empty image set"),
], ids=["count-mismatch", "image-header-truncated", "label-header-truncated",
        "empty"])
def test_train_exit_3_on_malformed_raw_mnist(tmp_path, capsys, images, labels,
                                             message):
    assert _train_on_raw_mnist(tmp_path, images, labels) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and message in err


def test_train_cardinality_contract(tmp_path, mnist_dir):
    out = os.path.join(tmp_path, "run")
    assert _run(["train"] + _base_args(mnist_dir, out)) == 0
    assert os.path.exists(os.path.join(out, "ckpt_mnist_s0_m4.snn"))
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["n"] == 40 and manifest["d"] == 1024
    assert len(manifest["cells"]) == 1 and manifest["failures"] == []
    cell = manifest["cells"][0]
    assert len(cell["loss_curve"]) == len(cell["error_curve"]) == cell["epochs"]
    assert cell["error_curve"][-1] == cell["train_error"]

    assert _run(["measure"] + _base_args(mnist_dir, out)) == 0
    with open(os.path.join(out, "measures.csv"), newline="") as f:
        mrows = list(csv.DictReader(f))
    assert len(mrows) == 1

    assert _run(["bounds"] + _base_args(mnist_dir, out)) == 0
    with open(os.path.join(out, "bounds.csv"), newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        brows = list(reader)
    assert header == BOUNDS_CSV_FIELDS
    assert len(brows) >= 14


def test_rerun_bitwise_identical(tmp_path, mnist_dir):
    outs = []
    for name in ("run_a", "run_b"):
        out = os.path.join(tmp_path, name)
        for cmd in ("train", "measure", "bounds", "figure"):
            assert _run([cmd] + _base_args(mnist_dir, out, widths="4,8")) == 0
        outs.append(out)
    for fname in ("measures.csv", "bounds.csv", "fig1b.csv", "fig3.svg",
                  "ckpt_mnist_s0_m4.snn"):
        with open(os.path.join(outs[0], fname), "rb") as a, \
                open(os.path.join(outs[1], fname), "rb") as b:
            assert a.read() == b.read(), fname


def test_widths_partition_bounds_rows(tmp_path, mnist_dir):
    out = os.path.join(tmp_path, "run")
    for cmd in ("train", "measure", "bounds"):
        assert _run([cmd] + _base_args(mnist_dir, out, widths="4,8")) == 0
    with open(os.path.join(out, "bounds.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    by_m = {}
    for r in rows:
        by_m.setdefault(int(r["m"]), []).append(r["method"])
    assert sorted(by_m) == [4, 8]
    # same method set for every width, no gaps
    assert set(by_m[4]) == set(by_m[8])
    assert len(by_m[4]) == len(by_m[8]) >= 14


def test_all_subcommand_emits_figures(tmp_path, mnist_dir):
    out = os.path.join(tmp_path, "run")
    assert _run(["all"] + _base_args(mnist_dir, out, widths="4,8",
                                     seeds="0,1")) == 0
    for kind in ("fig1a", "fig1b", "fig2", "fig3"):
        assert os.path.exists(os.path.join(out, f"{kind}.csv"))
        with open(os.path.join(out, f"{kind}.svg")) as f:
            assert f.read().startswith("<svg")


def test_all_loads_data_once_and_matches_stages(tmp_path, mnist_dir,
                                                monkeypatch):
    loads = []

    def counting_load(cfg, *args):
        loads.append(cfg.dataset)
        return load_task_dataset(cfg, *args)

    monkeypatch.setattr(cli_mod, "load_task_dataset", counting_load)
    args = dict(widths="4,8", seeds="0,1")
    together = os.path.join(tmp_path, "all")
    assert _run(["all"] + _base_args(mnist_dir, together, **args)) == 0
    assert loads == ["mnist"]
    staged = os.path.join(tmp_path, "staged")
    for cmd in ("train", "measure", "bounds", "figure"):
        assert _run([cmd] + _base_args(mnist_dir, staged, **args)) == 0
    names = sorted(os.listdir(together))
    assert names == sorted(os.listdir(staged))
    for name in names:
        if name == "manifest.json":  # per-cell wall times differ
            continue
        with open(os.path.join(together, name), "rb") as a, \
                open(os.path.join(staged, name), "rb") as b:
            assert a.read() == b.read(), name


def test_train_then_measure_builds_once_and_records_fingerprint(
        tmp_path, mnist_dir, monkeypatch):
    builds = []

    def counting_build(raw, spec):
        builds.append(spec)
        return build_binary_task(raw, spec)

    monkeypatch.setattr(datasets_mod, "build_binary_task", counting_build)
    out = os.path.join(tmp_path, "run")
    for cmd in ("train", "measure"):
        assert _run([cmd] + _base_args(mnist_dir, out)) == 0
    assert len(builds) == 1
    with open(os.path.join(out, "prepared_mnist.bin"), "rb") as f:
        key = f.read(64).decode()
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    fingerprint = datasets_mod.data_fingerprint(
        datasets_mod.load_mnist_dir(mnist_dir), cli_mod.DEFAULT_TASKS["mnist"])
    assert manifest["data_fingerprint"] == fingerprint
    assert key == datasets_mod.prepared_key(fingerprint)
    assert manifest["numpy"] == np.__version__


def test_measure_after_a_source_edit_rebuilds_the_prepared_data(
        tmp_path, mnist_dir, monkeypatch):
    """An edit to the code that prepares X changes the prepared file's key,
    not the data fingerprint: measure rebuilds the file and accepts the run
    trained before the edit."""
    out = os.path.join(tmp_path, "run")
    assert _run(["train"] + _base_args(mnist_dir, out)) == 0
    path = os.path.join(out, "prepared_mnist.bin")
    with open(path, "rb") as f:
        old_key = f.read(64).decode()
    edited = os.path.join(tmp_path, "datasets.py")
    shutil.copy(datasets_mod.__file__, edited)
    with open(edited, "a") as f:
        f.write("# an edit\n")
    monkeypatch.setattr(datasets_mod, "__file__", edited)
    builds = []

    def counting_build(raw, spec):
        builds.append(spec)
        return build_binary_task(raw, spec)

    monkeypatch.setattr(datasets_mod, "build_binary_task", counting_build)
    assert _run(["measure"] + _base_args(mnist_dir, out)) == 0
    assert len(builds) == 1
    with open(path, "rb") as f:
        new_key = f.read(64).decode()
    assert new_key != old_key
    with open(os.path.join(out, "manifest.json")) as f:
        assert new_key == datasets_mod.prepared_key(
            json.load(f)["data_fingerprint"])
    assert os.path.exists(os.path.join(out, "measures.csv"))


def test_train_exit_3_on_out_that_is_a_file(tmp_path, mnist_dir, capsys):
    out = os.path.join(tmp_path, "run")
    with open(out, "w") as f:
        f.write("not a directory")
    assert _run(["train"] + _base_args(mnist_dir, out)) == 3
    assert capsys.readouterr().err.startswith("data error")


def test_measure_into_missing_out_writes_nothing(tmp_path, mnist_dir):
    out = os.path.join(tmp_path, "typo")
    assert _run(["measure"] + _base_args(mnist_dir, out)) == 3
    assert not os.path.exists(out)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_measures_csv_columns_parse_as_finite_floats(tmp_path, mnist_dir,
                                                     activation):
    """Every column but dataset, seed and m reads with float() and is
    finite, as the benchmark's checks read them; d and activation read
    back as the checkpoint's ints."""
    out = os.path.join(tmp_path, "run")
    args = _base_args(mnist_dir, out) + ["--activation", activation]
    for cmd in ("train", "measure"):
        assert _run([cmd] + args) == 0
    with open(os.path.join(out, "measures.csv"), newline="") as f:
        (row,) = list(csv.DictReader(f))
    for key, value in row.items():
        if key not in ("dataset", "seed", "m"):
            assert math.isfinite(float(value)), key
    report = report_from_row(row)
    params = checkpoint_load(os.path.join(out, "ckpt_mnist_s0_m4.snn")).params
    got = (report.d, report.activation)
    assert all(type(v) is int for v in got)
    assert got == (params.d, ACTIVATIONS[activation].id)


def test_diverged_retrain_removes_the_old_checkpoint(tmp_path, mnist_dir,
                                                     monkeypatch, capsys):
    out = os.path.join(tmp_path, "run")
    assert _run(["train"] + _base_args(mnist_dir, out)) == 0
    assert os.path.exists(os.path.join(out, "ckpt_mnist_s0_m4.snn"))

    def diverging(*args, **kwargs):
        raise TrainingDiverged(1, 0)

    monkeypatch.setattr(cli_mod, "sgd_train", diverging)
    assert _run(["train"] + _base_args(mnist_dir, out)) == 0
    with open(os.path.join(out, "manifest.json")) as f:
        assert [c["m"] for c in json.load(f)["failures"]] == [4]
    assert not os.path.exists(os.path.join(out, "ckpt_mnist_s0_m4.snn"))
    capsys.readouterr()
    assert _run(["measure"] + _base_args(mnist_dir, out)) == 3
    assert "no checkpoints found" in capsys.readouterr().err


def test_train_records_an_overflowing_run_as_a_failure(tmp_path, mnist_dir):
    # a step of size 1e300 overflows the weights (in float32, lr itself is
    # inf); the cell is a failure and leaves no checkpoint, so measure finds
    # nothing to measure
    out = os.path.join(tmp_path, "run")
    args = _base_args(mnist_dir, out) + ["--learning-rate", "1e300",
                                         "--batch-size", "1000"]
    assert _run(["train"] + args) == 0
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["cells"] == []
    (failure,) = manifest["failures"]
    assert failure["m"] == 4 and "epoch 0" in failure["error"]
    assert not os.path.exists(os.path.join(out, "ckpt_mnist_s0_m4.snn"))
    assert _run(["measure"] + args) == 3


def _recording_sgd_train(monkeypatch):
    """Wrap cli.sgd_train; the returned list gets, per call, copies of the
    weights it started from and of the ones it returned."""
    calls = []
    real = cli_mod.sgd_train

    def recording(params, ds, cfg, seed):
        start = (params.W.copy(), params.V.copy())
        report = real(params, ds, cfg, seed)
        calls.append({"start": start, "end": (params.W.copy(), params.V.copy()),
                      "cfg": cfg})
        return report

    monkeypatch.setattr(cli_mod, "sgd_train", recording)
    return calls


def test_float32_checkpoint_starts_where_sgd_started(tmp_path, mnist_dir,
                                                     monkeypatch):
    # train trains in float32; its checkpoint holds float64 arrays: W0 and
    # V0 are the start bit for bit, W and V the exact upcast of the end
    calls = _recording_sgd_train(monkeypatch)
    out = os.path.join(tmp_path, "run")
    assert _run(["train"] + _base_args(mnist_dir, out)) == 0
    (call,) = calls
    assert all(a.dtype == np.float32 for a in call["start"] + call["end"])
    ck = checkpoint_load(os.path.join(out, "ckpt_mnist_s0_m4.snn"))
    arrays = (ck.params.W, ck.params.V, ck.snapshot.W0, ck.snapshot.V0)
    assert all(a.dtype == np.float64 for a in arrays)
    assert np.array_equal(ck.snapshot.W0, call["start"][0])
    assert np.array_equal(ck.snapshot.V0, call["start"][1])
    assert np.array_equal(ck.params.W, call["end"][0])
    assert np.array_equal(ck.params.V, call["end"][1])
    assert not np.array_equal(ck.params.W, ck.snapshot.W0)  # it trained


def test_measure_of_a_float32_run_is_the_float64_measure(tmp_path, mnist_dir,
                                                         monkeypatch):
    calls = _recording_sgd_train(monkeypatch)
    out = os.path.join(tmp_path, "run")
    args = _base_args(mnist_dir, out)
    for cmd in ("train", "measure"):
        assert _run([cmd] + args) == 0
    (call,) = calls
    ds = load_task_dataset(call["cfg"])
    W, V = (a.astype(np.float64) for a in call["end"])
    W0, V0 = call["start"]
    want = measure_row(measure_report(SnnParams(W, V, RELU),
                                      InitSnapshot(W0, V0), ds), ds.name, 0)
    with open(os.path.join(out, "measures.csv"), newline="") as f:
        (_, row) = list(csv.reader(f))
    assert row == [str(v) for v in want]


def test_all_trains_on_one_float32_copy_and_measures_float64(
        tmp_path, mnist_dir, monkeypatch):
    trained, measured = [], []
    real_train, real_measure = cli_mod.sgd_train, cli_mod.measure_report

    def recording_train(params, ds, cfg, seed):
        trained.append(ds)
        return real_train(params, ds, cfg, seed)

    def recording_measure(params, snapshot, ds, *args):
        measured.append(ds)
        return real_measure(params, snapshot, ds, *args)

    monkeypatch.setattr(cli_mod, "sgd_train", recording_train)
    monkeypatch.setattr(cli_mod, "measure_report", recording_measure)
    out = os.path.join(tmp_path, "run")
    assert _run(["all"] + _base_args(mnist_dir, out, "4,8", "0,1")) == 0
    assert len(trained) == len(measured) == 4
    assert all(ds is trained[0] for ds in trained)  # one copy for the stage
    assert all(ds is measured[0] for ds in measured)
    assert trained[0].X.dtype == np.float32 and trained[0].X.flags.f_contiguous
    assert measured[0].X.dtype == np.float64
    assert np.array_equal(trained[0].X, measured[0].X.astype(np.float32))
    assert trained[0].y is measured[0].y


def test_train_stage_holds_at_most_one_float32_copy_of_x(tmp_path, monkeypatch):
    # d = 1024 >> m, so X dominates.  Traced from the start of the stage,
    # after the load, to its end: the float32 copy is half of X, and
    # anything more of X's size would show.
    mnist = write_fake_mnist_dir(os.path.join(tmp_path, "mnist"),
                                 n_per_class=2000)
    peaks = []
    real = cli_mod.cmd_train

    def traced(cfg, ds, *args):
        tracemalloc.start()
        try:
            code = real(cfg, ds, *args)
            peaks.append((tracemalloc.get_traced_memory()[1], ds.X.nbytes))
        finally:
            tracemalloc.stop()
        return code

    monkeypatch.setattr(cli_mod, "cmd_train", traced)
    out = os.path.join(tmp_path, "run")
    args = ["--mnist-dir", mnist, "--out", out, "--widths", "8", "--seeds",
            "0", "--max-epochs", "1"]
    assert _run(["train"] + args) == 0
    ((peak, x_bytes),) = peaks
    assert x_bytes == 1024 * 4000 * 8  # the float64 X, 33 MB
    assert peak < 0.6 * x_bytes


def test_csv_write_failing_midway_keeps_previous_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("cannot format")

    path = os.path.join(tmp_path, "out.csv")
    write_csv(path, ["a", "b"], [[1, 2]])
    with open(path) as f:
        before = f.read()
    with pytest.raises(RuntimeError, match="cannot format"):
        write_csv(path, ["a", "b"], [[3, 4], [Unprintable(), 5]])
    with open(path) as f:
        assert f.read() == before
    assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize("make_dir", [True, False])
def test_figure_exit_3_without_measures_csv(tmp_path, capsys, make_dir):
    out = os.path.join(tmp_path, "empty")
    if make_dir:
        os.makedirs(out)
    assert _run(["figure", "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "snnbounds measure" in err


def _figure_bytes(out):
    """{name: bytes} of the figure files in out."""
    figures = {}
    for name in sorted(os.listdir(out)):
        if name.startswith("fig"):
            with open(os.path.join(out, name), "rb") as f:
                figures[name] = f.read()
    return figures


def test_figure_needs_no_bounds_csv(tmp_path, mnist_dir):
    # fig2 and fig3 evaluate the bounds from measures.csv, as `bounds` does
    out = os.path.join(tmp_path, "run")
    for cmd in ("train", "measure", "bounds", "figure"):
        assert _run([cmd] + _base_args(mnist_dir, out, widths="4,8")) == 0
    with_bounds = _figure_bytes(out)
    assert len(with_bounds) == 8
    for name in ["bounds.csv", *with_bounds]:
        os.remove(os.path.join(out, name))
    assert _run(["figure", "--out", out]) == 0
    assert _figure_bytes(out) == with_bounds
    assert not os.path.exists(os.path.join(out, "bounds.csv"))


def test_figure_after_remeasure_plots_the_new_measures(tmp_path, mnist_dir):
    # measure deletes the bounds.csv and figures of the measures.csv it
    # replaces, and figure plots the widths of the new one alone
    out = os.path.join(tmp_path, "run")
    assert _run(["all"] + _base_args(mnist_dir, out, widths="4,8")) == 0
    assert _run(["measure"] + _base_args(mnist_dir, out, widths="4")) == 0
    assert not os.path.exists(os.path.join(out, "bounds.csv"))
    assert not _figure_bytes(out)
    assert _run(["figure", "--out", out]) == 0
    with open(os.path.join(out, "fig3.csv"), newline="") as f:
        assert {r["m"] for r in csv.DictReader(f)} == {"4"}
    assert not os.path.exists(os.path.join(out, "bounds.csv"))


def test_figure_exit_3_on_measures_csv_without_rows(tmp_path, capsys):
    with open(os.path.join(tmp_path, "measures.csv"), "w") as f:
        f.write("dataset,seed,m\n")
    assert _run(["figure", "--out", str(tmp_path)]) == 3
    assert "data error: no rows found" in capsys.readouterr().err


def test_subsample_flag(tmp_path, mnist_dir):
    out = os.path.join(tmp_path, "run")
    assert _run(["train", "--subsample", "10"]
                + _base_args(mnist_dir, out)) == 0
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["n"] == 10


def _write_cifar_batches(directory):
    """Five CIFAR-10 binary train batches of four images, classes 0 and 1 in
    turn."""
    rng = make_rng(0)
    os.makedirs(directory)
    for i in range(1, 6):
        images = rng.integers(1, 256, size=(4, 32, 32, 3))
        labels = np.resize([0, 1], 4)
        with open(os.path.join(directory, f"data_batch_{i}.bin"), "wb") as f:
            f.write(encode_cifar10_bin(images, labels))


@pytest.mark.parametrize("subdir", ["", "cifar-10-batches-bin"],
                         ids=["flat", "batches-bin"])
def test_all_on_cifar10_batches(tmp_path, subdir):
    cifar = os.path.join(tmp_path, "cifar")
    _write_cifar_batches(os.path.join(cifar, subdir))
    out = os.path.join(tmp_path, "run")
    assert _run(["all", "--dataset", "cifar10", "--cifar-dir", cifar,
                 "--out", out, "--widths", "4,8", "--seeds", "0,1",
                 "--max-epochs", "1"]) == 0
    with open(os.path.join(out, "manifest.json")) as f:
        assert json.load(f)["n"] == 20
    with open(os.path.join(out, "measures.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    assert sorted((int(r["m"]), int(r["seed"])) for r in rows) == [
        (4, 0), (4, 1), (8, 0), (8, 1)]
    assert {r["dataset"] for r in rows} == {"cifar10_0v1"}


def test_cifar10_exit_3_on_missing_batch(tmp_path, capsys):
    cifar = os.path.join(tmp_path, "cifar")
    _write_cifar_batches(cifar)
    os.remove(os.path.join(cifar, "data_batch_5.bin"))
    out = os.path.join(tmp_path, "run")
    assert _run(["train", "--dataset", "cifar10", "--cifar-dir", cifar,
                 "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and "data_batch_5.bin" in err
    assert os.listdir(out) == []  # no checkpoint, no prepared_cifar10.bin


def test_cifar10_without_cifar_dir_exits_2(tmp_path, capsys):
    out = os.path.join(tmp_path, "run")
    assert _run(["train", "--dataset", "cifar10", "--out", out]) == 2
    assert "--cifar-dir is required" in capsys.readouterr().err


def test_measure_exit_2_on_data_other_than_trained(tmp_path, mnist_dir,
                                                    capsys):
    out = os.path.join(tmp_path, "run")
    assert _run(["train", "--subsample", "10"]
                + _base_args(mnist_dir, out)) == 0
    assert _run(["measure"] + _base_args(mnist_dir, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "gives n 10" in err
    assert not os.path.exists(os.path.join(out, "measures.csv"))
    assert _run(["measure", "--subsample", "10"]
                + _base_args(mnist_dir, out)) == 0
    assert os.path.exists(os.path.join(out, "measures.csv"))


def test_measure_exit_2_on_manifest_of_other_data(tmp_path, mnist_dir, capsys):
    out = os.path.join(tmp_path, "run")
    assert _run(["train"] + _base_args(mnist_dir, out)) == 0
    path = os.path.join(out, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    manifest["data_fingerprint"] = "0" * 64
    with open(path, "w") as f:
        json.dump(manifest, f)
    assert _run(["measure"] + _base_args(mnist_dir, out)) == 2
    assert "gives data_fingerprint '000" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "measures.csv"))


@pytest.mark.parametrize("content", [b'{"n": 300, "d"', b"[]", b"\xff", None],
                         ids=["cut-short", "not-an-object", "not-utf8",
                              "directory"])
def test_measure_exit_3_on_damaged_manifest(tmp_path, mnist_dir, capsys,
                                            monkeypatch, content):
    out = os.path.join(tmp_path, "run")
    assert _run(["train"] + _base_args(mnist_dir, out)) == 0
    path = os.path.join(out, "manifest.json")
    if content is None:
        os.remove(path)
        os.mkdir(path)
    else:
        with open(path, "wb") as f:
            f.write(content)
    # refused before the data is prepared
    monkeypatch.setattr(cli_mod, "load_task_dataset",
                        lambda *a: pytest.fail("prepared the data first"))
    capsys.readouterr()
    assert _run(["measure"] + _base_args(mnist_dir, out)) == 3
    assert capsys.readouterr().err == (
        f"data error: {path} is not a JSON object\n")
    assert not os.path.exists(os.path.join(out, "measures.csv"))


@pytest.mark.parametrize("cells", [[{"seed": 0}], "x", [0], None],
                         ids=["cell-without-m", "string", "not-objects", "null"])
def test_measure_exit_3_on_malformed_manifest_cells(tmp_path, mnist_dir, capsys,
                                                    monkeypatch, cells):
    out = os.path.join(tmp_path, "run")
    assert _run(["train", *_base_args(mnist_dir, out), "--max-epochs", "1"]) == 0
    path = os.path.join(out, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    manifest["cells"] = cells
    with open(path, "w") as f:
        json.dump(manifest, f)
    # refused before the data is prepared
    monkeypatch.setattr(cli_mod, "load_task_dataset",
                        lambda *a: pytest.fail("prepared the data first"))
    capsys.readouterr()
    assert _run(["measure"] + _base_args(mnist_dir, out)) == 3
    assert capsys.readouterr().err.startswith(f"data error: {path} ")
    assert not os.path.exists(os.path.join(out, "measures.csv"))


def test_measure_without_manifest_measures_the_checkpoints(tmp_path,
                                                            mnist_dir):
    # checkpoints of other code come without a manifest.json
    out = os.path.join(tmp_path, "run")
    assert _run(["train"] + _base_args(mnist_dir, out, seeds="0,1")) == 0
    os.remove(os.path.join(out, "manifest.json"))
    assert _run(["measure"] + _base_args(mnist_dir, out, seeds="0,1")) == 0
    with open(os.path.join(out, "measures.csv"), newline="") as f:
        assert [r["seed"] for r in csv.DictReader(f)] == ["0", "1"]


def test_measure_exit_3_on_checkpoint_the_manifest_does_not_list(
        tmp_path, mnist_dir, capsys, monkeypatch):
    # a tanh run of four cells, then a relu retrain of one: the other three
    # tanh checkpoints stay, but the new manifest lists (0, 4) alone
    out = os.path.join(tmp_path, "run")
    grid = _base_args(mnist_dir, out, widths="4,8", seeds="0,1")
    assert _run(["all", *grid, "--max-epochs", "1", "--activation", "tanh"]) == 0
    assert _run(["train", *_base_args(mnist_dir, out),
                 "--learning-rate", "0"]) == 0
    capsys.readouterr()
    loads = []
    monkeypatch.setattr(cli_mod, "load_task_dataset", loads.append)
    assert _run(["measure", *grid]) == 3
    assert loads == []  # refused before the data is prepared
    err = capsys.readouterr().err
    stale = os.path.join(out, "ckpt_mnist_s1_m4.snn")
    assert err.startswith(f"data error: {stale} is not a cell of")
    assert "rerun `snnbounds train`" in err
    assert not os.path.exists(os.path.join(out, "measures.csv"))


def test_rad_subcommand(tmp_path):
    out_csv = os.path.join(tmp_path, "rad.csv")
    rc = _run(["rad", "--n", "6", "--d", "3", "--m", "3", "--rw", "1.5",
               "--rv", "1.0", "--pga-steps", "40", "--pga-restarts", "2",
               "--out-csv", out_csv])
    assert rc == 0
    with open(out_csv, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        row = next(reader)
    assert header == RAD_CSV_FIELDS
    vals = dict(zip(header, row))
    assert float(vals["estimate"]) <= float(vals["upper_bound_path"]) + 1e-12
    assert float(vals["margin"]) >= -1e-12
    assert float(vals["std_error"]) == 0.0  # n=6 runs the exhaustive mode


def _rad_row(tmp_path, *flags):
    out_csv = os.path.join(tmp_path, "rad.csv")
    assert _run(["rad", *flags, "--pga-steps", "20", "--pga-restarts", "2",
                 "--out-csv", out_csv]) == 0
    with open(out_csv, newline="") as f:
        return {k: float(v) for k, v in next(csv.DictReader(f)).items()}


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
def test_rad_lower_bound_nan_without_relu(tmp_path, activation):
    # the lower bound is proved for ReLU only; the ReLU formula gives 7.27
    # here, above the cap R_V sqrt(m) = 1.73 that |tanh| <= 1 sets
    row = _rad_row(tmp_path, "--activation", activation, "--rw", "100",
                   "--n", "6", "--d", "3", "--m", "3")
    assert math.isnan(row["lower_bound"])
    assert row["estimate"] <= row["upper_bound_path"]


def test_rad_lower_bound_below_r0_is_top_layer_term(tmp_path):
    n, d, m, seed, R_W, R_V = 5, 3, 2, 4, 0.05, 1.3
    row = _rad_row(tmp_path, "--n", str(n), "--d", str(d), "--m", str(m),
                   "--seed", str(seed), "--rw", repr(R_W), "--rv", repr(R_V))
    # the instance `rad` draws from its seed
    rng = make_rng(seed)
    X = rng.standard_normal((d, n))
    X /= np.linalg.norm(X, axis=0)
    W0 = np.asarray(init_kaiming(rng, m, d, 1, RELU)[1].W0)
    assert R_W < np.min(np.linalg.norm(W0, axis=1))  # R_W < r0
    inputs = class_bound_inputs(Dataset(X, np.ones(n)), W0, RELU, R_W, R_V)
    top = R_V * inputs.init_term / (2 * math.sqrt(2) * n)
    assert row["lower_bound"] == pytest.approx(top, rel=1e-12)
    assert row["lower_bound"] <= row["upper_bound_path"]


@pytest.mark.parametrize("shape", [
    # an exhaustive probe reads no --sigma-samples, so 1 is allowed
    ["--n", "4", "--d", "2", "--m", "2", "--sigma-samples", "1"],
    ["--n", "20", "--d", "10", "--m", "10", "--sigma-samples", "50"],
], ids=["exhaustive", "sampled"])
def test_rad_at_the_radius_guard_is_finite(tmp_path, shape):
    guard = repr(rademacher_mod.RADIUS_GUARD)
    row = _rad_row(tmp_path, *shape, "--rw", guard, "--rv", guard)
    assert all(math.isfinite(v) for v in row.values())
    assert row["lower_bound"] <= row["estimate"] <= row["upper_bound_path"]


@pytest.mark.parametrize("flags", [
    ["--sigma-samples", "0"],
    ["--n", "100", "--d", "100", "--m", "100"],
    ["--n", "0"],
    ["--rw", "-1"],
    ["--rw", "nan"],
    ["--rv", "inf"],
    # above RADIUS_GUARD: ||V*||^2 overflowed, the PGA's starts were all
    # projected to 0, and std_error became inf
    ["--n", "4", "--d", "2", "--m", "2", "--rv", "1e155"],
    ["--n", "4", "--d", "2", "--m", "2", "--rw", "1e155"],
    ["--n", "20", "--d", "10", "--m", "10", "--sigma-samples", "50",
     "--rw", "1e100", "--rv", "1e100"],
    ["--seed", "-1"],
    # one sampled sign vector has no standard error: numpy warned and wrote
    # std_error = nan
    ["--n", "11", "--d", "1", "--m", "1", "--sigma-samples", "1"],
], ids=["radconfig-count", "scale-guard", "n-below-1", "negative-radius",
        "nan-radius", "infinite-radius", "huge-rv", "huge-rw", "huge-both",
        "negative-seed", "one-sampled-sign-vector"])
def test_rad_exit_2_on_bad_arguments(tmp_path, capsys, flags):
    out_csv = os.path.join(tmp_path, "rad.csv")
    assert _run(["rad", *flags, "--out-csv", out_csv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "allow_large" not in err  # no flag lifts the scale guard
    assert not os.path.exists(out_csv)


@pytest.mark.parametrize("flags, guard", [
    # n * m * d = 180000
    (["--n", "2", "--d", "300", "--m", "300"], "instance size"),
    # PGA iterates of 2^9 sign vectors * 5 restarts * m * (d + n) floats:
    # 281.6M, and 7.4G with 100000 restarts
    (["--n", "10", "--d", "1", "--m", "10000"], "PGA iterate size"),
    (["--n", "10", "--d", "8", "--m", "8", "--pga-restarts", "100000"],
     "PGA iterate size"),
], ids=["instance", "pga-width", "pga-restarts"])
def test_rad_scale_guard_refuses_before_drawing(tmp_path, monkeypatch, capsys,
                                                flags, guard):
    calls = []

    def forbidden(*args):
        calls.append(args)
        raise AssertionError("drew an instance over the scale guard")

    monkeypatch.setattr(cli_mod, "init_kaiming", forbidden)
    out_csv = os.path.join(tmp_path, "rad.csv")
    assert _run(["rad", *flags, "--out-csv", out_csv]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {guard}")
    assert calls == []
    assert not os.path.exists(out_csv)


@pytest.fixture(scope="module")
def measured_run(tmp_path_factory, mnist_dir):
    """Output directory with checkpoints for widths 4, 8 and their measures."""
    out = str(tmp_path_factory.mktemp("measured") / "run")
    for cmd in ("train", "measure"):
        assert _run([cmd] + _base_args(mnist_dir, out, widths="4,8")) == 0
    return out


def _copy_run(measured_run, tmp_path):
    out = os.path.join(tmp_path, "run")
    shutil.copytree(measured_run, out)
    return out


def _bounds_only(out, widths="4,8"):
    """bounds with no data directory: it reads measures.csv alone."""
    return _run(["bounds", "--out", out, "--widths", widths, "--seeds", "0"])


def test_bounds_reads_measures_csv_without_data(tmp_path, mnist_dir,
                                                measured_run):
    out = _copy_run(measured_run, tmp_path)
    assert _bounds_only(out) == 0
    with open(os.path.join(out, "bounds.csv"), newline="") as f:
        got = [(r["dataset"], r["m"], r["method"], r["value"])
               for r in csv.DictReader(f)]
    cfg = ExperimentConfig(mnist_dir=mnist_dir, out=out, widths=[4, 8],
                           seeds=[0])
    ds = load_task_dataset(cfg)
    want = []
    for m in (4, 8):
        ck = checkpoint_load(os.path.join(out, f"ckpt_mnist_s0_m{m}.snn"))
        report = measure_report(ck.params, ck.snapshot, ds)
        want += [(ds.name, str(m), bv.method, repr(bv.value))
                 for bv in all_bound_values(report, delta=0.01)]
    assert got == want


def test_bounds_reads_no_checkpoint(tmp_path, measured_run):
    out = _copy_run(measured_run, tmp_path)
    assert _bounds_only(out) == 0
    with open(os.path.join(out, "bounds.csv"), "rb") as f:
        with_checkpoints = f.read()
    os.remove(os.path.join(out, "bounds.csv"))
    checkpoints = glob.glob(os.path.join(out, "ckpt_*.snn"))
    assert len(checkpoints) == 2
    for path in checkpoints:
        os.remove(path)
    assert _bounds_only(out) == 0
    with open(os.path.join(out, "bounds.csv"), "rb") as f:
        assert f.read() == with_checkpoints


def test_bounds_exit_3_without_measures_csv(tmp_path, measured_run, capsys):
    out = _copy_run(measured_run, tmp_path)
    os.remove(os.path.join(out, "measures.csv"))
    assert _bounds_only(out) == 3
    assert "snnbounds measure" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "bounds.csv"))


def test_bounds_exit_3_on_measures_csv_directory(tmp_path, capsys):
    out = os.path.join(tmp_path, "run")
    os.makedirs(os.path.join(out, "measures.csv"))
    assert _bounds_only(out) == 3
    assert capsys.readouterr().err.startswith("data error")
    assert not os.path.exists(os.path.join(out, "bounds.csv"))


def test_bounds_cells_are_measures_rows(tmp_path, mnist_dir, measured_run):
    # the m = 8 checkpoint stays, but has no measures row, and --widths
    # names it: bounds follows measures.csv, not the grid
    out = _copy_run(measured_run, tmp_path)
    assert _run(["measure"] + _base_args(mnist_dir, out, widths="4")) == 0
    assert _bounds_only(out) == 0

    def cells(name):
        with open(os.path.join(out, name), newline="") as f:
            return {(r["seed"], r["m"]) for r in csv.DictReader(f)}

    assert cells("bounds.csv") == cells("measures.csv") == {("0", "4")}


def _old_schema_run(measured_run, tmp_path):
    """A copy of measured_run whose measures.csv lacks the n, r0 columns."""
    out = _copy_run(measured_run, tmp_path)
    path = os.path.join(out, "measures.csv")
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    header = [k for k in rows[0] if k not in ("n", "r0")]
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=header, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return out


def test_bounds_exit_3_on_old_measures_schema(tmp_path, measured_run, capsys):
    out = _old_schema_run(measured_run, tmp_path)
    assert _bounds_only(out) == 3
    assert "rerun `snnbounds measure`" in capsys.readouterr().err


def test_figure_exit_3_on_old_measures_schema(tmp_path, measured_run, capsys):
    # the rows are rejected before any figure file is written
    out = _old_schema_run(measured_run, tmp_path)
    assert _run(["figure", "--out", out]) == 3
    assert "rerun `snnbounds measure`" in capsys.readouterr().err
    assert not [name for name in os.listdir(out) if name.startswith("fig")]


def test_bounds_and_figure_exit_3_on_measures_csv_not_utf8(
        tmp_path, measured_run, capsys):
    out = _copy_run(measured_run, tmp_path)
    path = os.path.join(out, "measures.csv")
    with open(path, "ab") as f:
        f.write(b"mnist_1v7,\xff\n")
    for command in ("bounds", "figure"):
        assert _run([command, "--out", out]) == 3, command
        assert capsys.readouterr().err == (
            f"data error: {path} is not UTF-8 text\n")
    assert not [name for name in os.listdir(out)
                if name.startswith(("bounds", "fig"))]


def test_bounds_exit_3_on_retrain_after_measure(tmp_path, mnist_dir,
                                                measured_run, capsys):
    out = _copy_run(measured_run, tmp_path)
    assert _bounds_only(out) == 0
    assert _run(["figure", "--out", out]) == 0
    retrain = _base_args(mnist_dir, out, widths="4,8")
    retrain[retrain.index("--max-epochs") + 1] = "1"
    assert _run(["train"] + retrain) == 0
    for name in ("measures.csv", "bounds.csv"):
        assert not os.path.exists(os.path.join(out, name)), name
    assert not [name for name in os.listdir(out) if name.startswith("fig")]
    assert _bounds_only(out) == 3
    assert "snnbounds measure" in capsys.readouterr().err
    assert _run(["figure", "--out", out]) == 3


def _set_first_measure(out, column, value):
    """Rewrite the first row of out's measures.csv with column = value;
    returns that row."""
    path = os.path.join(out, "measures.csv")
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    rows[0][column] = value
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return rows[0]


@pytest.mark.parametrize("column,value", [
    ("n", "0"), ("m", "0"), ("c", "0"), ("c", "2"), ("d", "-1"),
    ("R_W", "-1.0"), ("kappa_s", "-1.0"), ("b_x", "0.0"), ("R_W", "nan"),
    ("X_fro", "inf"), ("kappa_s", "nan"), ("X_fro", "0.0"),
    ("m", "1" + "0" * 400)])
def test_bounds_and_figure_exit_3_on_out_of_range_measures(
        tmp_path, measured_run, capsys, column, value):
    # values no network gives are refused where measures.csv is read, not
    # met later as a traceback in a bound or a figure series; c, which
    # measures.csv no longer has, is refused as a column of its own
    out = _copy_run(measured_run, tmp_path)
    _set_first_measure(out, column, value)
    for command in ("bounds", "figure"):
        assert _run([command, "--out", out]) == 3, command
        err = capsys.readouterr().err
        assert err.startswith("data error") and f"{column} = {value}" in err
    assert not [name for name in os.listdir(out)
                if name.startswith(("bounds", "fig"))]


def test_bounds_and_figure_exit_3_on_zero_gram_spectral_norm(
        tmp_path, measured_run, capsys):
    # at R_W = R_V = 1e200 the peeling constant is inf, which the data term
    # multiplies by gram_spec_sqrt: 0 would make pn_ours NaN
    out = _copy_run(measured_run, tmp_path)
    for column, value in (("R_W", "1e200"), ("R_V", "1e200"),
                          ("gram_spec_sqrt", "0.0")):
        _set_first_measure(out, column, value)
    for command in ("bounds", "figure"):
        assert _run([command, "--out", out]) == 3, command
        assert capsys.readouterr().err == (
            "data error: measures.csv: gram_spec_sqrt = 0.0 must be > 0\n")
    assert not [name for name in os.listdir(out)
                if name.startswith(("bounds", "fig"))]


def test_figure_draws_an_infinite_bound_at_the_top_edge(tmp_path,
                                                        measured_run):
    # valid measures whose pn_ours overflows: a vacuous bound of inf, kept
    # as such in bounds.csv and fig3.csv
    for name, changes in [
            ("kappa", [("kappa", "1e200")]),  # the union weight overflows
            ("radii", [("R_W", "1e200"), ("R_V", "1e200")]),  # so does cm'
    ]:
        out = _copy_run(measured_run, os.path.join(tmp_path, name))
        for column, value in changes:
            first = _set_first_measure(out, column, value)
        m = first["m"]
        assert _bounds_only(out) == 0, name
        with open(os.path.join(out, "bounds.csv"), newline="") as f:
            assert [r["value"] for r in csv.DictReader(f)
                    if (r["seed"], r["m"], r["method"])
                    == (first["seed"], m, "pn_ours")] == ["inf"], name
        assert _run(["figure", "--out", out]) == 0, name
        with open(os.path.join(out, "fig3.csv"), newline="") as f:
            pn = {r["m"]: r["mean"] for r in csv.DictReader(f)
                  if r["series"] == "pn_ours"}
        assert pn[m] == "inf", name
        with open(os.path.join(out, "fig3.svg")) as f:
            points = re.findall(r'points="([^"]*)"', f.read())
        coords = [float(v) for p in points for xy in p.split()
                  for v in xy.split(",")]
        assert coords and all(math.isfinite(v) for v in coords), name


@pytest.mark.parametrize("column, before, copied", [
    ("c", "d", None),                    # c = 1, the binary head
    ("v_spectral", "init_term", "R_V"),  # after R_V, a copy of it
], ids=["c", "v_spectral"])
def test_bounds_and_figure_exit_3_on_measures_with_old_column(
        tmp_path, measured_run, capsys, column, before, copied):
    # a measures.csv of an earlier schema, which gave the head size c a
    # column, or repeated R_V as v_spectral, is refused naming the column
    # rather than read without it
    out = _copy_run(measured_run, tmp_path)
    path = os.path.join(out, "measures.csv")
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    header = list(rows[0])
    header.insert(header.index(before), column)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=header)
        writer.writeheader()
        writer.writerows({**row, column: row[copied] if copied else "1"}
                         for row in rows)
    for command in ("bounds", "figure"):
        assert _run([command, "--out", out]) == 3, command
        err = capsys.readouterr().err
        assert err.startswith("data error") and "rerun `snnbounds measure`" in err
        assert f"({column} = " in err
    assert not [name for name in os.listdir(out)
                if name.startswith(("bounds", "fig"))]


def test_measure_exit_3_on_two_output_checkpoint(tmp_path, mnist_dir,
                                                 monkeypatch, capsys):
    # every stage after the checkpoint takes a binary head, so measure
    # refuses a c = 2 checkpoint, naming it, from the headers alone: before
    # it prepares the data or measures anything
    out = str(tmp_path / "run")
    assert _run(["train"] + _base_args(mnist_dir, out)) == 0
    path = os.path.join(out, "ckpt_mnist_s0_m4.snn")
    d = checkpoint_load(path).params.d
    write_two_output_checkpoint(path, 4, d)
    monkeypatch.setattr(cli_mod, "measure_report",
                        lambda *a: pytest.fail("measured a c = 2 checkpoint"))
    monkeypatch.setattr(cli_mod, "load_task_dataset",
                        lambda *a: pytest.fail("prepared the data first"))
    capsys.readouterr()
    assert _run(["measure"] + _base_args(mnist_dir, out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and path in err and "c = 2" in err
    assert not os.path.exists(os.path.join(out, "measures.csv"))


@pytest.mark.parametrize("offset, value, message", [
    (24, 3, "unknown activation id 3"),
    (12, 2 ** 25, "implausible dimensions m=33554432"),
], ids=["activation-id", "m-2^25"])
def test_measure_exit_3_on_refused_checkpoint_header(
        tmp_path, mnist_dir, monkeypatch, capsys, offset, value, message):
    # one uint32 of the header (magic, version, m, d, c, activation id,
    # seed) rewritten; refused from the header alone, before the data is
    # prepared
    out = str(tmp_path / "run")
    assert _run(["train"] + _base_args(mnist_dir, out)) == 0
    path = os.path.join(out, "ckpt_mnist_s0_m4.snn")
    with open(path, "r+b") as f:
        f.seek(offset)
        f.write(struct.pack("<I", value))
    monkeypatch.setattr(cli_mod, "load_task_dataset",
                        lambda *a: pytest.fail("prepared the data first"))
    capsys.readouterr()
    assert _run(["measure"] + _base_args(mnist_dir, out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and path in err and message in err
    assert not os.path.exists(os.path.join(out, "measures.csv"))


def test_measure_exit_3_on_checkpoint_of_other_d(tmp_path, mnist_dir,
                                                 monkeypatch, capsys):
    # with no manifest to compare, a checkpoint whose input dimension is not
    # the data's is refused, naming it and both d values, before any cell is
    # measured; it is found only once the data is prepared, so this is not
    # a case of the c = 2 test above
    out = str(tmp_path / "run")
    assert _run(["train"] + _base_args(mnist_dir, out)) == 0
    os.remove(os.path.join(out, "manifest.json"))
    d = checkpoint_load(os.path.join(out, "ckpt_mnist_s0_m4.snn")).params.d
    path = os.path.join(out, "ckpt_mnist_s0_m8.snn")
    checkpoint_save(Checkpoint(*init_kaiming(make_rng(0), 8, 5, 1)), path)
    monkeypatch.setattr(cli_mod, "measure_report",
                        lambda *a: pytest.fail("measured a checkpoint"))
    capsys.readouterr()
    assert _run(["measure"] + _base_args(mnist_dir, out, widths="4,8")) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and path in err
    assert "d = 5" in err and f"d = {d}" in err
    assert not os.path.exists(os.path.join(out, "measures.csv"))


@pytest.mark.parametrize("array", ["W", "V0"])
def test_measure_exit_3_on_non_finite_checkpoint(tmp_path, mnist_dir, capsys,
                                                 array):
    out = str(tmp_path / "run")
    assert _run(["train"] + _base_args(mnist_dir, out)) == 0
    path = os.path.join(out, "ckpt_mnist_s0_m4.snn")
    # a NaN as the first float of W, after the 36-byte header, or as the
    # last of V0, before the 12-byte trailer
    at = 36 if array == "W" else os.path.getsize(path) - 12 - 8
    with open(path, "r+b") as f:
        f.seek(at)
        f.write(struct.pack("<d", math.nan))
    capsys.readouterr()
    assert _run(["measure"] + _base_args(mnist_dir, out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and path in err and "non-finite" in err
    assert not os.path.exists(os.path.join(out, "measures.csv"))


@pytest.mark.parametrize("w, message", [
    (2e152, "w_dist_12 = inf"),  # the l1 sums of W's columns overflow
    (4e152, "R_W = inf"),        # so do ||W - W0||_F and three more norms
    (6e152, ""),                 # the Gram eigensolve does not converge
], ids=["2e152", "4e152", "6e152"])
def test_measure_exit_3_on_checkpoint_whose_measures_overflow(
        tmp_path, mnist_dir, capsys, w, message):
    # finite weights, which checkpoint_load accepts, whose norms overflow:
    # refused, naming the checkpoint, as bounds would refuse the row, and
    # without a numpy warning
    out = str(tmp_path / "run")
    assert _run(["train"] + _base_args(mnist_dir, out)) == 0
    path = os.path.join(out, "ckpt_mnist_s0_m4.snn")
    ck = checkpoint_load(path)
    ck.params.W[...] = w
    checkpoint_save(ck, path)
    capsys.readouterr()
    assert _run(["measure"] + _base_args(mnist_dir, out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path} cannot be measured: ")
    assert message in err and "measures.csv:" not in err
    assert not os.path.exists(os.path.join(out, "measures.csv"))


def test_measure_exit_3_on_truncated_checkpoint(tmp_path, mnist_dir, capsys):
    out = str(tmp_path / "run")
    assert _run(["train"] + _base_args(mnist_dir, out)) == 0
    path = os.path.join(out, "ckpt_mnist_s0_m4.snn")
    with open(path, "r+b") as f:
        f.truncate(os.path.getsize(path) - 5)
    capsys.readouterr()
    assert _run(["measure"] + _base_args(mnist_dir, out)) == 3
    assert capsys.readouterr().err.startswith("data error")
    assert not os.path.exists(os.path.join(out, "measures.csv"))
