"""`snnbounds train` in worker processes: the same checkpoints and manifest
as in-process training, and no process left behind on any path.

The worker path is forced on tiny grids by setting the work threshold to 0
and the affinity mask to two CPUs. The `paper` case, which runs when
SNNBOUNDS_MNIST_DIR holds MNIST-format train files, trains the paper's
widths up to 4096 on them.
"""

import hashlib
import json
import os
import subprocess
import time

import pytest

import snnbounds.cli as cli_mod
from snnbounds.cli import ExperimentConfig, main, train_processes
from conftest import requires_mnist

GRID = ["--widths", "4,8", "--seeds", "0,1", "--max-epochs", "3"]
# the benchmark's sweep widths and the paper's widest, m = 4096, for 2
# epochs: at that width, after 2 epochs, a BLAS product of the output layer
# gave other bytes at one thread and at two
PAPER_GRID = ["--widths", "64,128,256,512,1024,4096", "--seeds", "0",
              "--max-epochs", "2", "--target-train-error", "0"]


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(cli_mod, "WORKER_MIN_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _train(mnist_dir, out, grid=GRID):
    return main(["train", "--mnist-dir", mnist_dir, "--out", out, *grid])


def _outputs(out):
    """sha256 of each checkpoint, and the manifest without what may differ
    between two runs into two directories: wall times, the process count
    and --out."""
    digests = {}
    for name in sorted(os.listdir(out)):
        if name.startswith("ckpt_"):
            with open(os.path.join(out, name), "rb") as f:
                digests[name] = hashlib.sha256(f.read()).hexdigest()
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    processes = manifest.pop("train_processes")
    del manifest["config"]["out"]
    for cell in manifest["cells"]:
        del cell["wall_time"]
    return digests, manifest, processes


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# lr 1e12 overflows some cells of the subsample grid, not all
@pytest.mark.parametrize("mnist, grid, diverging", [
    pytest.param("tiny", GRID, False, id="full"),
    pytest.param("tiny", [*GRID, "--subsample", "30", "--learning-rate",
                          "1e12"], True, id="subsample-diverging"),
    pytest.param("paper", PAPER_GRID, False, marks=requires_mnist,
                 id="paper")], indirect=["mnist"])
def test_workers_write_what_in_process_training_writes(
        tmp_path, mnist, monkeypatch, grid, diverging):
    # in-process at the default BLAS thread count, the workers at one
    # thread each
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    in_process = str(tmp_path / "in_process")
    assert _train(mnist, in_process, grid) == 0
    digests, manifest, processes = _outputs(in_process)
    assert processes == 1

    monkeypatch.setattr(cli_mod, "WORKER_MIN_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    environ = dict(os.environ)
    workers = str(tmp_path / "workers")
    assert _train(mnist, workers, grid) == 0
    assert dict(os.environ) == environ
    _assert_no_child_left()
    assert _outputs(workers) == (digests, manifest, 2)
    assert len(digests) == len(manifest["cells"])
    assert bool(manifest["failures"]) is diverging
    assert manifest["cells"]
    assert all("non-finite" in f["error"] for f in manifest["failures"])


def test_workers_end_by_themselves(tmp_path, mnist_dir, monkeypatch,
                                   two_workers):
    # each worker's input is closed once its last record is in, so it ends
    # with status 0 and none is sent SIGTERM
    procs, terminated = [], []
    real_send, real_terminate = cli_mod._send, subprocess.Popen.terminate

    def send(proc, message):
        if proc not in procs:
            procs.append(proc)
        real_send(proc, message)

    def terminate(proc):
        terminated.append(proc)
        real_terminate(proc)

    monkeypatch.setattr(cli_mod, "_send", send)
    monkeypatch.setattr(subprocess.Popen, "terminate", terminate)
    assert _train(mnist_dir, str(tmp_path / "run")) == 0
    assert terminated == []
    assert [proc.returncode for proc in procs] == [0, 0]
    _assert_no_child_left()


def test_worker_oserror_exits_3_without_manifest(tmp_path, mnist_dir, capsys,
                                                 two_workers):
    # the checkpoint of cell (seed 0, m 8) cannot replace a directory
    out = tmp_path / "run"
    blocked = out / "ckpt_mnist_s0_m8.snn"
    blocked.mkdir(parents=True)
    assert _train(mnist_dir, str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(blocked) in err
    assert not (out / "manifest.json").exists()
    assert not [p for p in os.listdir(out) if p.endswith(".tmp")]
    _assert_no_child_left()


@pytest.mark.parametrize("when", [dict, tuple], ids=["at-start", "mid-cell"])
def test_killed_worker_ends_the_stage_and_leaves_no_child(
        tmp_path, mnist_dir, monkeypatch, two_workers, when):
    # the first worker is killed once sent its config (dict) or its first
    # cell (tuple); the stage ends with a RuntimeError and stops the other
    procs, killed = [], []
    real_send = cli_mod._send

    def send(proc, message):
        real_send(proc, message)
        if proc not in procs:
            procs.append(proc)
        if isinstance(message, when) and not killed:
            proc.kill()
            killed.append(proc)

    monkeypatch.setattr(cli_mod, "_send", send)
    out = tmp_path / "run"
    begin = time.monotonic()
    with pytest.raises(RuntimeError, match="training worker .* exited with status -9"):
        _train(mnist_dir, str(out))
    assert time.monotonic() - begin < 60
    assert len(procs) == 2 and killed
    assert all(proc.returncode is not None for proc in procs)
    assert not (out / "manifest.json").exists()
    _assert_no_child_left()


def test_worker_imports_this_package(tmp_path, mnist_dir, monkeypatch,
                                     two_workers):
    # a worker that imported another snnbounds, here a decoy first on the
    # PYTHONPATH that it inherits, could not train
    decoy = tmp_path / "decoy" / "snnbounds"
    decoy.mkdir(parents=True)
    (decoy / "__init__.py").write_text("raise ImportError('the decoy')\n")
    monkeypatch.setenv("PYTHONPATH", str(decoy.parent))
    out = str(tmp_path / "run")
    assert _train(mnist_dir, out) == 0
    assert _outputs(out)[2] == 2
    _assert_no_child_left()


def test_measure_reads_a_manifest_without_train_processes(tmp_path, mnist_dir):
    # manifests written before the field was added
    out = str(tmp_path / "run")
    assert _train(mnist_dir, out) == 0
    path = os.path.join(out, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    del manifest["train_processes"]
    with open(path, "w") as f:
        json.dump(manifest, f)
    assert main(["measure", "--mnist-dir", mnist_dir, "--out", out, *GRID]) == 0


def test_train_processes(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    n = 13007
    big = ExperimentConfig(widths=[1024, 2048], seeds=[0, 1, 2], max_epochs=20)
    assert train_processes(big, n) == 6  # at most one worker per cell
    assert train_processes(ExperimentConfig(widths=[4096], seeds=[0]), n) == 1
    assert train_processes(ExperimentConfig(widths=[1024, 2048], seeds=[0],
                                            max_epochs=0), n) == 1
    # the largest grid of the CLI tests, on their 40 examples, stays
    # in-process, so their wrappers of cli.sgd_train see every call
    assert train_processes(ExperimentConfig(widths=[4, 8], seeds=[0, 1],
                                            max_epochs=20), 40) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert train_processes(big, n) == 1
