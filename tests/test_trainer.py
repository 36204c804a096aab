import math
import tracemalloc

import numpy as np
import pytest

from snnbounds import (Dataset, RELU, TANH, RawImageSet, SnnParams,
                       TaskSpec, TrainConfig, bce_logits, build_binary_task,
                       init_kaiming, make_rng, margins, ramp_risk, sgd_train,
                       zero_one_error)
from snnbounds.linalg import COLUMN_BLOCK, fork_rng
from snnbounds.model import forward
from snnbounds.trainer import TrainingDiverged, _batch_grads
from conftest import random_unit_dataset


def test_bce_at_zero():
    loss, grad = bce_logits(0.0, 1.0)
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)
    assert grad == pytest.approx(-0.5, abs=1e-15)


def test_bce_saturation_stable():
    loss, grad = bce_logits(50.0, 1.0)
    assert 0.0 <= loss < 1e-20
    assert abs(grad) < 1e-20
    loss2, grad2 = bce_logits(-50.0, 0.0)
    assert 0.0 <= loss2 < 1e-20
    assert abs(grad2) < 1e-20
    # far into the tails, still finite
    loss3, _ = bce_logits(np.array([1e4, -1e4]), np.array([0.0, 1.0]))
    assert np.all(np.isfinite(loss3))


def test_bce_gradient_finite_difference():
    rng = make_rng(11)
    s = rng.standard_normal(20) * 3
    y = rng.integers(0, 2, 20).astype(float)
    _, grad = bce_logits(s, y)
    h = 1e-6
    fd = (bce_logits(s + h, y)[0] - bce_logits(s - h, y)[0]) / (2 * h)
    assert np.max(np.abs(fd - grad)) < 1e-6


def test_zero_lr_leaves_params():
    rng = make_rng(0)
    ds = random_unit_dataset(rng, 3, 16)
    params, _ = init_kaiming(rng, 4, 3, 1)
    W, V = params.W.copy(), params.V.copy()
    sgd_train(params, ds, TrainConfig(learning_rate=0.0, max_epochs=3))
    assert np.array_equal(params.W, W) and np.array_equal(params.V, V)


def test_single_full_batch_step_matches_gd_oracle():
    """momentum 0, batch = n, 1 epoch must equal one plain gradient step."""
    rng = make_rng(1)
    ds = random_unit_dataset(rng, 3, 8)
    params, _ = init_kaiming(rng, 4, 3, 1)
    W, V = params.W.copy(), params.V.copy()

    # independent oracle: mean BCE gradient computed from first principles
    y01 = (ds.y + 1.0) / 2.0
    Z = W @ ds.X
    A = np.maximum(Z, 0.0)
    s = (V @ A)[0]
    sig = 1.0 / (1.0 + np.exp(-s))
    ds_ = (sig - y01) / ds.n
    gV = ds_[None, :] @ A.T
    gW = ((V.T @ ds_[None, :]) * (Z > 0)) @ ds.X.T
    lr = 0.05
    cfg = TrainConfig(batch_size=ds.n, momentum=0.0, learning_rate=lr,
                      max_epochs=1, target_train_error=0.0)
    sgd_train(params, ds, cfg)
    assert np.max(np.abs(params.W - (W - lr * gW))) < 1e-12
    assert np.max(np.abs(params.V - (V - lr * gV))) < 1e-12


def test_training_deterministic():
    rng = make_rng(2)
    ds = random_unit_dataset(rng, 4, 30)
    reports = []
    finals = []
    for _ in range(2):
        params, _ = init_kaiming(make_rng(9), 6, 4, 1)
        reports.append(sgd_train(params, ds,
                                 TrainConfig(batch_size=8, max_epochs=5,
                                             learning_rate=0.05,
                                             target_train_error=0.0),
                                 seed=3))
        finals.append((params.W.copy(), params.V.copy()))
    assert reports[0].loss_curve == reports[1].loss_curve
    assert reports[0].final_train_error == reports[1].final_train_error
    assert np.array_equal(finals[0][0], finals[1][0])
    assert np.array_equal(finals[0][1], finals[1][1])


def test_training_reduces_loss():
    rng = make_rng(4)
    ds = random_unit_dataset(rng, 4, 64)
    params, _ = init_kaiming(rng, 16, 4, 1)
    report = sgd_train(params, ds,
                       TrainConfig(batch_size=16, learning_rate=0.5,
                                   max_epochs=30, target_train_error=0.0))
    assert report.loss_curve[-1] < report.loss_curve[0]
    assert report.epochs_run == 30


def test_early_stop_on_target_error():
    # trivially separable: one point, generous target
    ds = Dataset(np.ones((2, 1)) / math.sqrt(2), np.array([1.0]))
    params, _ = init_kaiming(make_rng(0), 4, 2, 1)
    report = sgd_train(params, ds,
                       TrainConfig(max_epochs=50, learning_rate=0.5,
                                   target_train_error=1.5))
    assert report.epochs_run == 1


def test_divergence_reported_with_location():
    ds = random_unit_dataset(make_rng(5), 3, 8)
    X = ds.X.copy()
    X[0, 0] = np.nan
    bad = Dataset(X, ds.y)
    params, _ = init_kaiming(make_rng(0), 4, 3, 1)
    with pytest.raises(TrainingDiverged) as exc:
        sgd_train(params, bad, TrainConfig(max_epochs=2))
    assert exc.value.epoch == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow
def test_divergence_on_overflowing_weights_names_the_epoch():
    # every batch loss is finite, as it is taken before the step; the step
    # of size 1e300 overflows the weights, and so the margins
    ds = random_unit_dataset(make_rng(5), 3, 8)
    params, _ = init_kaiming(make_rng(0), 4, 3, 1)
    with pytest.raises(TrainingDiverged,
                       match="non-finite margins at the end of epoch 0"):
        sgd_train(params, ds, TrainConfig(max_epochs=2, learning_rate=1e300,
                                          batch_size=8))


def test_zero_one_error_tie_rule():
    params = SnnParams(np.ones((2, 3)), np.zeros((1, 2)), RELU)
    ds = random_unit_dataset(make_rng(6), 3, 10)
    assert zero_one_error(margins(params, ds)) == 1.0  # all-zero scores count as errors


def test_zero_one_error_perfect_separation():
    # single unit copying x1; labels follow sign of x1
    params = SnnParams(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                       np.array([[1.0, -1.0]]), RELU)
    X = np.array([[0.6, -0.8], [0.8, 0.6]])
    y = np.array([1.0, -1.0])
    assert zero_one_error(margins(params, Dataset(X, y))) == 0.0


def test_ramp_risk_branches():
    params = SnnParams(np.array([[1.0]]), np.array([[1.0]]), RELU)

    def ds_with_margin(t):
        # x scalar positive, label +1, so y * psi = t
        return Dataset(np.array([[t]]), np.array([1.0]))

    assert ramp_risk(margins(params, ds_with_margin(2.0))) == 0.0
    assert ramp_risk(margins(params, ds_with_margin(0.25))) == pytest.approx(0.75)
    neg = Dataset(np.array([[3.0]]), np.array([-1.0]))  # y * psi = -3
    assert ramp_risk(margins(params, neg)) == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=-1)


def test_batch_grads_match_finite_differences():
    rng = make_rng(12)
    ds = random_unit_dataset(rng, 3, 6)
    params, _ = init_kaiming(rng, 4, 3, 1, RELU)
    y01 = (ds.y + 1.0) / 2.0
    _, gW, gV = _batch_grads(params, ds.X, y01)

    def loss_at(W, V):
        s = (V @ np.maximum(W @ ds.X, 0.0))[0]
        return float(np.mean(bce_logits(s, y01)[0]))

    h = 1e-6
    for i in range(params.m):
        for j in range(params.d):
            Wp, Wm = params.W.copy(), params.W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            fd = (loss_at(Wp, params.V) - loss_at(Wm, params.V)) / (2 * h)
            assert abs(fd - gW[i, j]) < 1e-5


def _reference_sgd(params, ds, cfg, seed):
    """Straightforward loop: column-gathered batches, momentum buffers
    reallocated every step, and separate 0-1 / ramp evaluations."""
    def error():
        return float(np.mean(ds.y * forward(params, ds.X)[0] <= 0.0))

    def ramp():
        t = ds.y * forward(params, ds.X)[0]
        return float(np.mean(np.clip(1.0 - t, 0.0, 1.0)))

    y01 = (ds.y + 1.0) / 2.0
    uW = np.zeros_like(params.W)
    uV = np.zeros_like(params.V)
    loss_curve, error_curve = [], []
    for epoch in range(cfg.max_epochs):
        order = fork_rng(seed, epoch).permutation(ds.n)
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, ds.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, gW, gV = _batch_grads(params, ds.X[:, idx], y01[idx])
            uW = cfg.momentum * uW + gW
            uV = cfg.momentum * uV + gV
            params.W -= cfg.learning_rate * uW
            params.V -= cfg.learning_rate * uV
            epoch_loss += loss
            n_batches += 1
        loss_curve.append(epoch_loss / n_batches)
        error_curve.append(error())
        if error() < cfg.target_train_error:
            break
    return loss_curve, error_curve, error(), ramp()


def _learnable_dataset(d, n):
    rng = make_rng(21)
    X = rng.standard_normal((d, n))
    X /= np.linalg.norm(X, axis=0)
    y = np.where(rng.standard_normal(d) @ X > 0, 1.0, -1.0)
    return Dataset(X, y, name="halfspace")


@pytest.mark.parametrize("n, batch_size, max_epochs, target, act", [
    pytest.param(90, 16, 3, 0.0, RELU, id="partial-last-batch"),
    pytest.param(81, 16, 2, 0.0, RELU, id="last-batch-of-one"),
    pytest.param(90, 16, 10, 0.1, RELU, id="early-stop"),
    pytest.param(90, 16, 0, 0.0, RELU, id="zero-epochs"),
    pytest.param(90, 32, 3, 0.0, TANH, id="tanh"),
])
def test_sgd_train_bitwise_matches_reference_loop(n, batch_size, max_epochs,
                                                  target, act):
    ds = _learnable_dataset(48, n)
    cfg = TrainConfig(batch_size=batch_size, learning_rate=0.5,
                      max_epochs=max_epochs, target_train_error=target)
    params, _ = init_kaiming(make_rng(3), 32, ds.d, 1, act)
    ref = SnnParams(params.W.copy(), params.V.copy(), act)
    loss_curve, error_curve, err, ramp = _reference_sgd(ref, ds, cfg, seed=4)
    report = sgd_train(params, ds, cfg, seed=4)
    assert np.array_equal(params.W, ref.W)
    assert np.array_equal(params.V, ref.V)
    assert report.loss_curve == loss_curve
    assert report.error_curve == error_curve
    assert report.final_train_error == err
    assert report.final_ramp_risk == ramp
    assert report.epochs_run == len(loss_curve)
    if target > 0:
        assert report.epochs_run < max_epochs


@pytest.mark.parametrize("max_epochs, target, act", [
    pytest.param(3, 0.0, RELU, id="relu"),
    pytest.param(10, 0.05, RELU, id="early-stop"),
    pytest.param(3, 0.0, TANH, id="tanh"),
])
def test_sgd_train_blocked_margins_match_whole_array(max_epochs, target, act):
    # n spans three column blocks of the epoch-end forward
    ds = _learnable_dataset(16, 2 * COLUMN_BLOCK + 37)
    cfg = TrainConfig(batch_size=64, learning_rate=0.5, max_epochs=max_epochs,
                      target_train_error=target)
    params, _ = init_kaiming(make_rng(3), 32, ds.d, 1, act)
    ref = SnnParams(params.W.copy(), params.V.copy(), act)
    loss_curve, error_curve, err, ramp = _reference_sgd(ref, ds, cfg, seed=4)
    report = sgd_train(params, ds, cfg, seed=4)
    assert np.array_equal(params.W, ref.W)
    assert np.array_equal(params.V, ref.V)
    assert report.loss_curve == loss_curve
    assert report.error_curve == error_curve
    assert report.final_train_error == err
    assert report.final_ramp_risk == pytest.approx(ramp, rel=1e-12, abs=0.0)
    if target > 0:
        assert report.epochs_run < max_epochs


def test_epoch_peak_memory_well_below_one_m_by_n_array():
    m, n = 256, 20000
    rng = make_rng(7)
    ds = random_unit_dataset(rng, 8, n)
    params, _ = init_kaiming(rng, m, ds.d, 1)
    tracemalloc.start()
    try:
        sgd_train(params, ds, TrainConfig(max_epochs=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * n * 8 / 4  # one m x n float64 array is 41 MB


def test_epoch_peak_memory_well_below_a_copy_of_x():
    # d = 1024 >> m: X dominates, so an (n, d) copy of it would show.  X comes
    # from the 28x28 build, whose blocks are C-ordered until copied into X.
    m, n = 8, 4000
    rng = make_rng(8)
    raw = RawImageSet(rng.integers(1, 256, size=(n, 28, 28), dtype=np.uint8),
                      np.resize(np.array([1, 7], dtype=np.uint8), n))
    ds = build_binary_task(raw, TaskSpec("mnist", 1, 7))
    params, _ = init_kaiming(rng, m, ds.d, 1)
    tracemalloc.start()
    try:
        sgd_train(params, ds, TrainConfig(max_epochs=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ds.X.nbytes / 2  # X is 33 MB
