"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Criteria needing the real MNIST train split (3, 4, 5 and the cardinality part
of 8) skip with an explicit reason when the IDX files are not present; point
SNNBOUNDS_MNIST_DIR at a directory containing train-images-idx3-ubyte and
train-labels-idx1-ubyte to enable them.  The code of criteria 3-5 also runs
without MNIST, on a synthetic stand-in, with only the assertions that hold
on any data.
"""

import math
import os
import time

import numpy as np
import pytest

from snnbounds import (RELU, TANH, InitSnapshot, RadConfig, TaskSpec,
                       TrainConfig, build_binary_task, init_kaiming, fork_rng,
                       make_rng, mc_rad_estimate, measure_report, rad_lower,
                       rad_upper_path, sgd_train, spectral_norm, subsample,
                       path_norm, gen_bound_pn, all_bound_values, Dataset)
from snnbounds.bounds import class_bound_inputs
from snnbounds.datasets import load_mnist_dir
from snnbounds.rademacher import _pga_best_values
from snnbounds.trainer import _batch_grads, bce_logits
from conftest import (MNIST_DIR, encode_cifar10_bin, encode_idx_images,
                      encode_idx_labels, mnist_available, random_unit_dataset,
                      requires_mnist)
from oracles import closed_form_toplayer_sup, khintchine_sandwich_check


def _report(k, name):
    print(f"ACCEPTANCE {k} ({name}): PASS")


def _load_mnist_task(path=MNIST_DIR):
    raw = load_mnist_dir(path)
    return build_binary_task(raw, TaskSpec("mnist", 1, 7))


def test_criterion_1_sandwich_property():
    """1000 tiny ReLU configs: rad_lower <= rad_upper_path and every
    exhaustive Monte-Carlo feasible estimate <= rad_upper_path."""
    t0 = time.monotonic()
    cfg_tpl = dict(pga_steps=25, pga_restarts=2, step_size=0.1)
    failures = 0
    for i in range(1000):
        rng = make_rng(i)
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        X = rng.standard_normal((d, n))
        X /= np.linalg.norm(X, axis=0)
        _, snap = init_kaiming(rng, m, d, 1)
        W0 = np.asarray(snap.W0)
        r0 = float(np.min(np.linalg.norm(W0, axis=1)))
        R_W = r0 + float(np.abs(rng.standard_normal()))
        R_V = float(rng.uniform(0.1, 2.0))
        ds = Dataset(X, np.ones(n))
        inputs = class_bound_inputs(ds, W0, RELU, R_W=R_W, R_V=R_V)
        upper = rad_upper_path(inputs)
        lower = rad_lower(inputs)
        est = mc_rad_estimate(X, W0, R_W, R_V, RELU,
                              cfg=RadConfig(seed=i, **cfg_tpl))
        if not (lower <= upper + 1e-12 and est.mean <= upper + 1e-12):
            failures += 1
    elapsed = time.monotonic() - t0
    assert failures == 0, f"{failures}/1000 configs violated the sandwich"
    assert elapsed < 300, f"runtime {elapsed:.1f}s exceeds 5 min"
    _report(1, "sandwich property, 1000/1000 tiny configs")


def test_criterion_2_path_norm_inequality():
    """kappa <= sqrt(c) R_W R_V on 1000 random triples; the uniform witness
    attains equality to 1e-10."""
    t0 = time.monotonic()
    for i in range(1000):
        rng = make_rng(10_000 + i)
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 6))
        c = int(rng.integers(1, 4))
        W0 = rng.standard_normal((m, d))
        W = W0 + rng.standard_normal((m, d))
        V = rng.standard_normal((c, m))
        kappa = path_norm(V, W - W0)
        R_W = float(np.linalg.norm(W - W0))
        R_V = float(np.linalg.norm(V))
        assert kappa <= math.sqrt(c) * R_W * R_V + 1e-9

        # uniform witness: |v_kj| = R_V/sqrt(cm), ||w_j - w_j0|| = R_W/sqrt(m)
        dirs = rng.standard_normal((m, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        Ww = W0 + (R_W / math.sqrt(m)) * dirs
        Vw = np.full((c, m), R_V / math.sqrt(c * m))
        kw = path_norm(Vw, Ww - W0)
        assert abs(kw - math.sqrt(c) * R_W * R_V) < 1e-10
    assert time.monotonic() - t0 < 10
    _report(2, "path-norm Cauchy-Schwarz bound and witness equality")


CRITERIA_WIDTHS = [2 ** p for p in range(6, 13)]


def _subset(ds, n_sub):
    return subsample(ds, n_sub, fork_rng(0, 999))


def _init_term_cells(ds, widths):
    """Criterion 3's two sides at Kaiming init, per width: (m, init term,
    b_x times the spectral norm of W0)."""
    b_x = float(np.max(np.linalg.norm(ds.X, axis=0)))
    for m in widths:
        _, snap = init_kaiming(fork_rng(0, m), m, ds.d, 1)
        A = RELU.fn(np.asarray(snap.W0) @ ds.X)
        init_term = float(np.sqrt(np.sum(A * A)))
        proxy = b_x * spectral_norm(snap.W0)
        yield m, init_term, proxy


def _train_sweep(ds, widths, seeds):
    """Each cell trained as `snnbounds train` trains it: in float32 on one
    float32 copy of X, from the rounded Kaiming draw, which is the snapshot.
    The cells hold the float64 upcast that a checkpoint stores."""
    ds32 = ds.astype(np.float32)
    cells = {}
    for m in widths:
        for seed in seeds:
            params = init_kaiming(fork_rng(seed, m), m, ds.d, 1)[0].astype(np.float32)
            snap = InitSnapshot(params.W, params.V)
            sgd_train(params, ds32, TrainConfig(), seed)
            cells[(m, seed)] = (params.astype(np.float64), snap)
    return cells


def _cell_bounds(ds, m, params, snap):
    """Criterion 5's quantities for one trained cell: its MeasureReport,
    gen_bound_pn with delta = 0.01, and every bound value."""
    report = measure_report(params, snap, ds)
    values = all_bound_values(report, delta=0.01)
    return report, gen_bound_pn(report, 0.01), values


@requires_mnist
def test_criterion_3_init_term_dominance():
    """At Kaiming init on an MNIST subset, the activation-at-init term is
    dominated by the spectral-norm proxy at every width 2^6..2^12."""
    ds = _subset(_load_mnist_task(), 2000)
    for m, init_term, proxy in _init_term_cells(ds, CRITERIA_WIDTHS):
        assert init_term / ds.n <= proxy / math.sqrt(ds.n), f"m={m}"
    _report(3, "init-term dominance across widths 2^6..2^12")


@requires_mnist
def test_criterion_4_width_insensitivity():
    """After training 1-vs-7 at widths 2^6..2^12 (3 seeds): kappa < kappa_s in
    every cell and the path-norm grows strictly slower with width."""
    widths = CRITERIA_WIDTHS
    cells = _train_sweep(_subset(_load_mnist_task(), 4000), widths, [0, 1, 2])
    kappas, kappas_s = {}, {}
    for (m, seed), (params, snap) in cells.items():
        k = path_norm(params.V, params.W - snap.W0)
        ks = path_norm(params.V, params.W)
        assert k < ks, f"kappa >= kappa_s at m={m}, seed={seed}"
        kappas.setdefault(m, []).append(k)
        kappas_s.setdefault(m, []).append(ks)
    lo, hi = widths[0], widths[-1]
    mean = lambda v: sum(v) / len(v)
    growth_s = mean(kappas_s[hi]) / mean(kappas_s[lo])
    growth = mean(kappas[hi]) / mean(kappas[lo])
    assert growth < growth_s
    _report(4, "path-norm width-insensitivity after training")


@requires_mnist
def test_criterion_5_bound_below_one():
    """gen_bound_pn < 1 at every (seed, m) cell with delta = 0.01 and minimal
    among full bounds at the largest width."""
    widths = CRITERIA_WIDTHS
    ds = _load_mnist_task()  # full n = 13007
    cells = _train_sweep(ds, widths, [0, 1, 2])
    largest = widths[-1]
    for (m, seed), (params, snap) in cells.items():
        _, value, bound_values = _cell_bounds(ds, m, params, snap)
        assert value < 1.0, f"bound {value} >= 1 at m={m}, seed={seed}"
        if m == largest:
            full = {v.method: v.value
                    for v in bound_values
                    if not v.qualitative and v.method != "rad_lower"}
            assert value <= min(full.values()) + 1e-12
    _report(5, "generalization bound below 1 across the sweep")


# The stand-in is small enough for widths 2^6..2^10 in a few seconds.
STAND_IN_WIDTHS = [2 ** p for p in range(6, 11)]


def _write_stand_in(path, n_per_class=1050, seed=0):
    """MNIST-format train files: 1s are a vertical stroke and 7s a bar with
    a diagonal, over sparse noise, plus 100 3s that the 1-vs-7 task drops."""
    rng = make_rng(seed)
    strokes = {cls: np.zeros((28, 28)) for cls in (1, 7, 3)}
    strokes[1][4:24, 13:15] = 1.0
    strokes[7][5:7, 6:22] = 1.0
    rows = np.arange(7, 24)
    strokes[7][rows, 21 - (rows - 7) * 11 // 17] = 1.0
    strokes[3][[5, 14, 23], 8:20] = 1.0
    images, labels = [], []
    for cls, count in ((1, n_per_class), (7, n_per_class), (3, 100)):
        noise = rng.uniform(0.0, 50.0, size=(count, 28, 28))
        noise *= rng.uniform(size=(count, 28, 28)) < 0.1
        images.append((200.0 * strokes[cls] + noise).astype(np.uint8))
        labels.append(np.full(count, cls))
    images, labels = np.concatenate(images), np.concatenate(labels)
    order = rng.permutation(len(labels))
    with open(os.path.join(path, "train-images-idx3-ubyte"), "wb") as f:
        f.write(encode_idx_images(images[order]))
    with open(os.path.join(path, "train-labels-idx1-ubyte"), "wb") as f:
        f.write(encode_idx_labels(labels[order]))


@pytest.fixture(scope="module")
def stand_in_task(tmp_path_factory):
    path = tmp_path_factory.mktemp("mnist_stand_in")
    _write_stand_in(str(path))
    return _load_mnist_task(str(path))


def test_criterion_3_code_path_on_stand_in(stand_in_task):
    ds = _subset(stand_in_task, 2000)
    for m, init_term, proxy in _init_term_cells(ds, STAND_IN_WIDTHS):
        assert math.isfinite(init_term) and math.isfinite(proxy)
        # ||relu(W0 X)||_F <= ||W0 X||_F <= sqrt(n) b_x ||W0||_2
        assert init_term / ds.n <= proxy / math.sqrt(ds.n), f"m={m}"


def test_criteria_4_and_5_code_path_on_stand_in(stand_in_task):
    ds = stand_in_task
    cells = _train_sweep(ds, STAND_IN_WIDTHS, [0])
    for (m, seed), (params, snap) in cells.items():
        report, value, bound_values = _cell_bounds(ds, m, params, snap)
        values = {v.method: v.value for v in bound_values}
        assert all(math.isfinite(x) for x in
                   [value, *values.values(), *vars(report).values()]), m
        assert report.kappa <= report.R_W * report.R_V * (1 + 1e-12), m
        assert values["rad_lower"] <= values["rad_upper_path"], m


def test_criterion_6_gradient_correctness():
    """BCE network gradients vs central finite differences, 100 tanh and
    100 ReLU instances at safe pre-activation points, rel. err < 1e-4."""
    t0 = time.monotonic()
    for idx, act in enumerate([TANH] * 100 + [RELU] * 100):
        rng = make_rng(20_000 + idx)
        m, d, n = 3, 3, 4
        for _ in range(50):  # resample until pre-activations are safe
            params, _ = init_kaiming(rng, m, d, 1, act)
            X = rng.standard_normal((d, n))
            X /= np.linalg.norm(X, axis=0)
            if np.min(np.abs(params.W @ X)) > 1e-3:
                break
        y01 = rng.integers(0, 2, n).astype(float)
        _, gW, gV = _batch_grads(params, X, y01)

        def loss_at(W, V):
            s = (V @ act.fn(W @ X))[0]
            return float(np.mean(bce_logits(s, y01)[0]))

        h = 1e-6
        fdW = np.zeros_like(params.W)
        for i in range(m):
            for j in range(d):
                Wp, Wm = params.W.copy(), params.W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                fdW[i, j] = (loss_at(Wp, params.V)
                             - loss_at(Wm, params.V)) / (2 * h)
        fdV = np.zeros_like(params.V)
        for j in range(m):
            Vp, Vm = params.V.copy(), params.V.copy()
            Vp[0, j] += h
            Vm[0, j] -= h
            fdV[0, j] = (loss_at(params.W, Vp)
                         - loss_at(params.W, Vm)) / (2 * h)
        g = np.concatenate([gW.ravel(), gV.ravel()])
        fd = np.concatenate([fdW.ravel(), fdV.ravel()])
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4, f"activation {act.name}, instance {idx}: {rel}"
    assert time.monotonic() - t0 < 60
    _report(6, "gradients match finite differences, 200/200 networks")


def test_criterion_7_khintchine_sandwich():
    """Exact-enumeration Khintchine sandwich on 50 random datasets, n <= 10."""
    for i in range(50):
        rng = make_rng(30_000 + i)
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 7))
        X = rng.standard_normal((d, n))
        mean, lower, upper = khintchine_sandwich_check(X)
        assert lower - 1e-12 <= mean <= upper + 1e-12
    _report(7, "Khintchine sandwich exact on 50/50 datasets")


def test_criterion_8_oracle_agreements():
    """Spectral norm vs dense SVD, PGA vs closed-form suprema, parser
    round-trips; the MNIST cardinality check runs only when data is present."""
    # spectral norm vs SVD oracle, 200 matrices up to 12x12
    for i in range(200):
        rng = make_rng(40_000 + i)
        M = rng.standard_normal((int(rng.integers(1, 13)),
                                 int(rng.integers(1, 13))))
        want = np.linalg.svd(M, compute_uv=False)[0]
        assert abs(spectral_norm(M) - want) <= 1e-8 * max(want, 1e-300)

    # PGA feasible estimates never exceed restricted-class closed forms
    for i in range(100):
        rng = make_rng(50_000 + i)
        d, n, m = 3, 5, 3
        X = rng.standard_normal((d, n))
        X /= np.linalg.norm(X, axis=0)
        _, snap = init_kaiming(rng, m, d, 1)
        W0 = np.asarray(snap.W0)
        sigma = np.sign(rng.standard_normal(n))
        R_V = float(rng.uniform(0.1, 2.0))
        exact = closed_form_toplayer_sup(sigma, X, W0, R_V, RELU)
        (got,) = _pga_best_values(sigma[None, :], X, W0, 0.0, R_V, RELU,
                                  RadConfig(pga_steps=40, pga_restarts=2,
                                            step_size=0.1, seed=i))
        assert got <= exact + 1e-9

    # byte-identical parser round-trips on both formats
    from snnbounds import parse_cifar10_bin, parse_idx_images, parse_idx_labels
    rng = make_rng(60_000)
    imgs = rng.integers(0, 256, size=(4, 28, 28)).astype(np.uint8)
    labs = rng.integers(0, 10, size=4).astype(np.uint8)
    blob = encode_idx_images(imgs)
    assert encode_idx_images(parse_idx_images(blob)) == blob
    lblob = encode_idx_labels(labs)
    assert encode_idx_labels(parse_idx_labels(lblob)) == lblob
    cimgs = rng.integers(0, 256, size=(3, 32, 32, 3)).astype(np.uint8)
    cblob = encode_cifar10_bin(cimgs, labs[:3])
    raw = parse_cifar10_bin(cblob)
    assert encode_cifar10_bin(raw.images, raw.labels) == cblob

    if mnist_available():
        ds = _load_mnist_task()
        assert ds.n == 13007, f"MNIST 1-vs-7 cardinality {ds.n} != 13007"
        card = "cardinality 13007 verified"
    else:
        card = "cardinality check skipped, no MNIST data"
    _report(8, f"oracle agreements; {card}")
