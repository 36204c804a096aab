"""The cell constants of `snnbounds measure`: computed once per cell and
kept in cell_constants.json of --out, keyed by everything they depend on.

A kept entry must give the bytes of a cold measure, one of the same
checkpoints in a fresh --out without the file, and every change to what the
constants depend on, or to the file, must recompute them. The `paper`
cases, which run when SNNBOUNDS_MNIST_DIR holds MNIST-format train files,
measure the benchmark's sweep widths on them.
"""

import glob
import json
import math
import os
import shutil

import pytest

from snnbounds import activations as activations_mod
from snnbounds import datasets as datasets_mod
from snnbounds import linalg as linalg_mod
from snnbounds import measures as measures_mod
from snnbounds import model as model_mod
from snnbounds.cli import main
from conftest import requires_mnist, write_fake_mnist_dir

CONSTANTS = "cell_constants.json"


@pytest.fixture
def init_terms(monkeypatch):
    """The list of the m of every init-term pass `measure` makes."""
    calls = []
    real = measures_mod.init_activation_term

    def counting(W0, X, activation):
        calls.append(W0.shape[0])
        return real(W0, X, activation)

    monkeypatch.setattr(measures_mod, "init_activation_term", counting)
    return calls


# (MNIST directory, widths, seeds) of a case: widths 4 and 8, seeds 0 and 1,
# on the fake MNIST files, or the benchmark's sweep widths 64..1024, seed 0,
# on those of SNNBOUNDS_MNIST_DIR
TINY = ("tiny", "4,8", "0,1")
PAPER = ("paper", "64,128,256,512,1024", "0")


def _cells(widths, seeds):
    return len(widths.split(",")) * len(seeds.split(","))


def _args(mnist, out, widths="4,8", seeds="0", *flags):
    return ["--mnist-dir", mnist, "--out", out, "--widths", widths,
            "--seeds", seeds, "--max-epochs", "2", *flags]


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _cold(out, tmp_path, mnist, *args):
    """measures.csv bytes of `measure` on out's checkpoints and manifest,
    copied to a fresh --out, which has no cell constants."""
    fresh = os.path.join(tmp_path, "cold")
    shutil.rmtree(fresh, ignore_errors=True)
    os.mkdir(fresh)
    for path in glob.glob(os.path.join(out, "ckpt_*.snn")) + [
            os.path.join(out, "manifest.json")]:
        shutil.copy(path, fresh)
    assert main(["measure", *_args(mnist, fresh, *args)]) == 0
    return _read(os.path.join(fresh, "measures.csv"))


def _keys(out):
    with open(os.path.join(out, CONSTANTS)) as f:
        return set(json.load(f))


@pytest.mark.parametrize("mnist, widths, seeds, rate", [
    pytest.param(*TINY, "0.3", id="tiny"),
    pytest.param(*PAPER, "0.002", marks=requires_mnist, id="paper")],
    indirect=["mnist"])
def test_one_init_term_per_cell_none_on_remeasure_or_retrain(
        tmp_path, init_terms, mnist, widths, seeds, rate):
    cells = _cells(widths, seeds)
    out = str(tmp_path / "run")
    assert main(["all", *_args(mnist, out, widths, seeds)]) == 0
    assert sorted(init_terms) == sorted(
        int(m) for m in widths.split(",") for _ in seeds.split(","))
    assert len(_keys(out)) == cells
    first = _read(os.path.join(out, "measures.csv"))
    assert _cold(out, tmp_path, mnist, widths, seeds) == first

    init_terms.clear()
    assert main(["measure", *_args(mnist, out, widths, seeds)]) == 0
    assert init_terms == []
    assert len(_keys(out)) == cells
    assert _read(os.path.join(out, "measures.csv")) == first

    # W0 comes from fork_rng(seed, m) alone, so a retrain at another
    # learning rate keeps every cell's constants
    assert main(["all", *_args(mnist, out, widths, seeds,
                               "--learning-rate", rate)]) == 0
    assert init_terms == []
    assert len(_keys(out)) == cells
    retrained = _read(os.path.join(out, "measures.csv"))
    assert retrained != first  # the weights moved otherwise
    assert _cold(out, tmp_path, mnist, widths, seeds) == retrained
    assert len(init_terms) == cells  # the cold measure computes them all


def _flip_w0_byte(out):
    # W0 follows the 36-byte header, W (m x d) and V (1 x m) as float64;
    # byte 5 of its first entry holds mantissa bits 40-47, so the entry moves
    # by about 3% and stays finite
    path = os.path.join(out, "ckpt_mnist_s0_m4.snn")
    with open(path, "r+b") as f:
        f.seek(36 + 8 * (4 * 1024 + 4) + 5)
        byte = f.read(1)[0]
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([byte ^ 0x80]))


def _change_raw_image(mnist):
    # the first pixel of the first image, after the 16-byte IDX header;
    # every pixel is in 1..255, so the image keeps a nonzero norm
    with open(os.path.join(mnist, "train-images-idx3-ubyte"), "r+b") as f:
        f.seek(16)
        pixel = f.read(1)[0]
        f.seek(16)
        f.write(bytes([pixel ^ 2]))


def _edit_entry(out, value):
    """One entry's init_term replaced by the JSON text value."""
    path = os.path.join(out, CONSTANTS)
    with open(path) as f:
        entries = json.load(f)
    key = sorted(entries)[0]
    text = json.dumps(entries).replace(
        json.dumps(entries[key]["init_term"]), value, 1)
    with open(path, "w") as f:
        f.write(text)


def _rewrite(out, edit):
    """The file's text replaced by edit(text)."""
    path = os.path.join(out, CONSTANTS)
    text = edit(_read(path).decode())
    with open(path, "w") as f:
        f.write(text)


def _file_case(name, edit, recomputed):
    """A miss of a damaged file: the checkpoints and the data are as they
    were, so measures.csv must be too."""
    return pytest.param(lambda out, mnist: edit(out), "measure", (),
                        recomputed, True, id=name)


# change to the run or to the file, the command and flags run after it, how
# many of the grid's two cells it recomputes, and whether measures.csv must
# stay as it was
MISSES = [
    pytest.param(lambda out, mnist: _flip_w0_byte(out), "measure", (), 1,
                 False, id="w0-byte"),
    pytest.param(None, "all", ("--activation", "tanh"), 2, False,
                 id="activation"),
    pytest.param(None, "all", ("--subsample", "30"), 2, False, id="subsample"),
    pytest.param(lambda out, mnist: _change_raw_image(mnist), "all", (), 2,
                 False, id="raw-image"),
    _file_case("truncated", lambda out: _rewrite(out, lambda t: t[:len(t) // 2]),
               2),
    _file_case("not-json", lambda out: _rewrite(out, lambda t: "\xff" + t), 2),
    _file_case("json-list", lambda out: _rewrite(
        out, lambda t: json.dumps(list(json.loads(t).items()))), 2),
    _file_case("nan", lambda out: _edit_entry(out, "NaN"), 1),
    _file_case("infinity", lambda out: _edit_entry(out, "Infinity"), 1),
    _file_case("negative", lambda out: _edit_entry(out, "-1.0"), 1),
    # an integer would be written back as "2", not as a float's repr
    _file_case("integer", lambda out: _edit_entry(out, "2"), 1),
]


@pytest.mark.parametrize("change, command, flags, recomputed, same", MISSES)
def test_every_miss_recomputes_and_gives_the_cold_result(
        tmp_path, init_terms, change, command, flags, recomputed, same):
    mnist = write_fake_mnist_dir(str(tmp_path / "mnist"))
    out = str(tmp_path / "run")
    assert main(["all", *_args(mnist, out)]) == 0
    first = _read(os.path.join(out, "measures.csv"))
    if change is not None:
        change(out, mnist)
    init_terms.clear()
    assert main([command, *_args(mnist, out, "4,8", "0", *flags)]) == 0
    assert len(init_terms) == recomputed
    warm = _read(os.path.join(out, "measures.csv"))
    assert (warm == first) is same
    assert len(_keys(out)) == 2
    init_terms.clear()
    assert main(["measure", *_args(mnist, out, "4,8", "0", *flags)]) == 0
    assert init_terms == []  # the file holds the recomputed constants
    assert _cold(out, tmp_path, mnist, "4,8", "0", *flags) == warm


def _measure_after_an_edit(tmp_path, monkeypatch, init_terms, module, mnist,
                           widths, seeds):
    """(measures.csv bytes, cell keys) of a run of the grid, then of a
    `measure` of it with a comment appended to the source of module."""
    out = str(tmp_path / "run")
    assert main(["all", *_args(mnist, out, widths, seeds)]) == 0
    first = _read(os.path.join(out, "measures.csv")), _keys(out)
    edited = str(tmp_path / os.path.basename(module.__file__))
    shutil.copy(module.__file__, edited)
    with open(edited, "a") as f:
        f.write("# an edit\n")
    monkeypatch.setattr(module, "__file__", edited)
    init_terms.clear()
    assert main(["measure", *_args(mnist, out, widths, seeds)]) == 0
    return first, (_read(os.path.join(out, "measures.csv")), _keys(out))


# linalg's spectral_norm and column_blocks compute the constants, and
# datasets.prepared_key, which the cell key takes, covers linalg.py
@pytest.mark.parametrize("module, mnist, widths, seeds", [
    pytest.param(measures_mod, *TINY, id="measures"),
    pytest.param(activations_mod, *TINY, id="activations"),
    pytest.param(datasets_mod, *TINY, id="datasets"),
    pytest.param(linalg_mod, *TINY, id="linalg"),
    pytest.param(activations_mod, *PAPER, marks=requires_mnist,
                 id="activations-paper")], indirect=["mnist"])
def test_a_source_edit_recomputes(tmp_path, monkeypatch, init_terms, module,
                                  mnist, widths, seeds):
    # the key covers the code that computes the constants, as the prepared
    # data's key covers the code that prepares X
    (first, keys), (again, new_keys) = _measure_after_an_edit(
        tmp_path, monkeypatch, init_terms, module, mnist, widths, seeds)
    assert len(init_terms) == len(keys) == _cells(widths, seeds)
    assert again == first
    assert not keys & new_keys


@pytest.mark.parametrize("mnist, widths, seeds", [
    pytest.param(*TINY, id="tiny"),
    pytest.param(*PAPER, marks=requires_mnist, id="paper")],
    indirect=["mnist"])
def test_a_model_edit_keeps_the_constants(tmp_path, monkeypatch, init_terms,
                                          mnist, widths, seeds):
    # model.py computes none of the constants: W0 reaches them through its
    # checkpoint reader as float64, and the key hashes W0's dtype
    before, after = _measure_after_an_edit(tmp_path, monkeypatch, init_terms,
                                           model_mod, mnist, widths, seeds)
    assert init_terms == []
    assert after == before
    assert len(after[1]) == _cells(widths, seeds)


def test_a_measure_of_a_smaller_grid_keeps_only_its_cells(tmp_path, mnist_dir,
                                                          init_terms):
    out = str(tmp_path / "run")
    assert main(["all", *_args(mnist_dir, out, "4,8", "0,1")]) == 0
    both = _keys(out)
    init_terms.clear()
    assert main(["measure", *_args(mnist_dir, out, "8", "1")]) == 0
    assert init_terms == []
    (key,) = _keys(out)
    assert key in both
    with open(os.path.join(out, CONSTANTS)) as f:
        (entry,) = json.load(f).values()
    assert sorted(entry) == ["init_term", "r0", "w0_spectral"]
    assert all(type(v) is float and math.isfinite(v) for v in entry.values())
