import math
import re

import numpy as np
import pytest

from snnbounds import (RELU, SIGMOID, TANH, Dataset, RadConfig,
                       enumerate_signs, init_kaiming, make_rng,
                       mc_rad_estimate, rad_upper_path, sample_signs)
from snnbounds.bounds import class_bound_inputs
from snnbounds.cli import main
from snnbounds.linalg import fork_rng
from snnbounds.rademacher import _pga_best_values
from conftest import random_unit_dataset
from oracles import (closed_form_linear_sup, closed_form_toplayer_sup,
                     khintchine_sandwich_check)

FAST = RadConfig(sigma_samples=50, pga_steps=40, pga_restarts=2,
                 step_size=0.1, seed=0)


def test_linear_sup_hand_345():
    assert closed_form_linear_sup([1.0], np.array([[3.0], [4.0]]), 1.0) \
        == pytest.approx(5.0)


def test_linear_sup_sign_symmetry_and_zero_radius():
    rng = make_rng(2)
    X = rng.standard_normal((3, 6))
    sigma = np.sign(rng.standard_normal(6))
    a = closed_form_linear_sup(sigma, X, 2.0)
    assert a == pytest.approx(closed_form_linear_sup(-sigma, X, 2.0), rel=1e-12)
    assert closed_form_linear_sup(sigma, X, 0.0) == 0.0


def test_linear_sup_is_attained():
    # w = R * X sigma / ||X sigma|| attains the closed form; random feasible
    # w never exceed it
    rng = make_rng(3)
    X = rng.standard_normal((4, 7))
    sigma = np.sign(rng.standard_normal(7))
    R = 1.7
    sup = closed_form_linear_sup(sigma, X, R)
    v = X @ sigma
    attained = float(R * v @ v / np.linalg.norm(v))
    assert attained == pytest.approx(sup, rel=1e-12)
    for _ in range(200):
        w = rng.standard_normal(4)
        w = R * w / np.linalg.norm(w)
        assert float(sigma @ (X.T @ w)) <= sup + 1e-9


def test_toplayer_sup_zero_init_relu():
    X = make_rng(4).standard_normal((3, 5))
    sigma = np.ones(5)
    assert closed_form_toplayer_sup(sigma, X, np.zeros((2, 3)), 1.0, RELU) == 0.0


def test_pga_frozen_class_is_zero():
    ds = random_unit_dataset(make_rng(5), 3, 6)
    _, snap = init_kaiming(make_rng(5), 2, 3, 1)
    W0 = np.asarray(snap.W0)
    sigma = np.ones((1, 6))
    val = _pga_best_values(sigma, ds.X, W0, 0.0, 0.0, RELU, FAST)
    assert val.tolist() == [0.0]


def test_pga_bounded_by_toplayer_closed_form():
    """With R_W = 0 the class is linear in V; PGA must stay at or below the
    exact supremum and essentially attain it."""
    ratios = []
    for seed in range(20):
        rng = make_rng(seed)
        d, n, m = 3, 6, 3
        X = rng.standard_normal((d, n))
        X /= np.linalg.norm(X, axis=0)
        _, snap = init_kaiming(rng, m, d, 1)
        W0 = np.asarray(snap.W0)
        sigma = np.sign(rng.standard_normal(n))
        R_V = 1.5
        exact = closed_form_toplayer_sup(sigma, X, W0, R_V, RELU)
        (got,) = _pga_best_values(sigma[None, :], X, W0, 0.0, R_V, RELU,
                                  RadConfig(pga_steps=150, pga_restarts=3,
                                            step_size=0.1, seed=seed))
        assert got <= exact + 1e-9
        if exact > 1e-12:
            ratios.append(got / exact)
    assert min(ratios) > 0.95


def test_pga_restart_monotonicity():
    ds = random_unit_dataset(make_rng(6), 3, 5)
    _, snap = init_kaiming(make_rng(6), 3, 3, 1)
    W0 = np.asarray(snap.W0)
    sigmas = enumerate_signs(5)
    vals = []
    for restarts in (1, 2, 4):
        cfg = RadConfig(pga_steps=30, pga_restarts=restarts, step_size=0.1,
                        seed=0)
        vals.append(_pga_best_values(sigmas, ds.X, W0, 0.8, 1.0, RELU, cfg))
    assert np.all(vals[1] >= vals[0] - 1e-12)
    assert np.all(vals[2] >= vals[1] - 1e-12)


@pytest.mark.parametrize("activation", [RELU, TANH, SIGMOID],
                         ids=lambda a: a.name)
def test_pga_sign_flip_bitwise_equal(activation):
    """sup(-sigma) = sup(sigma) under V -> -V; the W-only PGA from the same
    starts follows the same W path for both, so the values are equal."""
    rng = make_rng(12)
    ds = random_unit_dataset(rng, 4, 7)
    _, snap = init_kaiming(rng, 3, 4, 1, activation)
    W0 = np.asarray(snap.W0)
    sigma = np.sign(rng.standard_normal(7))[None, :]
    pos = _pga_best_values(sigma, ds.X, W0, 0.7, 1.3, activation, FAST)
    neg = _pga_best_values(-sigma, ds.X, W0, 0.7, 1.3, activation, FAST)
    assert pos[0] > 0.0
    assert np.array_equal(pos, neg)


def test_mc_estimate_exhaustive_searches_half_the_signs():
    n = 5
    ds = random_unit_dataset(make_rng(13), 3, n)
    _, snap = init_kaiming(make_rng(13), 4, 3, 1)
    W0 = np.asarray(snap.W0)
    est = mc_rad_estimate(ds.X, W0, 0.6, 1.2, RELU, cfg=FAST)
    half = enumerate_signs(n)[2 ** (n - 1):]
    assert np.all(half[:, 0] == 1.0) and len(half) == 2 ** (n - 1)
    sups = _pga_best_values(half, ds.X, W0, 0.6, 1.2, RELU, FAST)
    assert est.mean == float(np.mean(sups / n))
    assert est.samples == 2 ** n


@pytest.mark.parametrize("activation", [RELU, TANH], ids=lambda a: a.name)
def test_pga_frozen_w_matches_toplayer_closed_form(activation):
    """With R_W = 0 only V moves, and V* attains R_V ||gamma(W0 X) sigma||."""
    rng = make_rng(14)
    ds = random_unit_dataset(rng, 3, 6)
    _, snap = init_kaiming(rng, 4, 3, 1, activation)
    W0 = np.asarray(snap.W0)
    for _ in range(5):
        sigma = np.sign(rng.standard_normal(6))
        exact = closed_form_toplayer_sup(sigma, ds.X, W0, 1.7, activation)
        (got,) = _pga_best_values(sigma[None, :], ds.X, W0, 0.0, 1.7,
                                  activation, FAST)
        assert got == pytest.approx(exact, rel=1e-12)


def test_mc_estimate_sampled_draws_signs_in_one_call():
    """Sampled mode (n > 10) searches the sigma_samples rows of one
    sample_signs draw from the stream forked for it."""
    n = 12
    ds = random_unit_dataset(make_rng(15), 3, n)
    _, snap = init_kaiming(make_rng(15), 3, 3, 1)
    W0 = np.asarray(snap.W0)
    est = mc_rad_estimate(ds.X, W0, 0.8, 1.0, RELU, cfg=FAST)
    sigmas = sample_signs(fork_rng(FAST.seed, 2), FAST.sigma_samples, n)
    per_sigma = _pga_best_values(sigmas, ds.X, W0, 0.8, 1.0, RELU, FAST) / n
    assert est.samples == FAST.sigma_samples
    assert est.mean == float(np.mean(per_sigma)) > 0.0
    assert est.std_error == float(np.std(per_sigma, ddof=1)
                                  / math.sqrt(FAST.sigma_samples))


@pytest.mark.parametrize("activation,n,want", [
    (RELU, 6, 0.8909376714469519), (TANH, 6, 0.8196840576268659),
    (SIGMOID, 6, 0.5609243371859274), (RELU, 12, 0.6629237119085747)],
    ids=["relu", "tanh", "sigmoid", "sampled"])
def test_mc_estimate_pinned(activation, n, want):
    """Estimates pinned bit for bit to those of the multi-output probe the
    single-output one replaced: exhaustive runs for each activation and a
    sampled run (n > 10)."""
    rng = make_rng(22 if n <= 10 else 23)
    ds = random_unit_dataset(rng, 3, n)
    _, snap = init_kaiming(rng, 4, 3, 1, activation)
    est = mc_rad_estimate(ds.X, snap.W0, 0.7, 1.3, activation, cfg=FAST)
    assert est.mean == want


def test_enumerate_signs():
    S = enumerate_signs(3)
    assert S.shape == (8, 3)
    assert set(np.unique(S)) == {-1.0, 1.0}
    assert len({tuple(row) for row in S}) == 8


def test_mc_estimate_zero_class():
    ds = random_unit_dataset(make_rng(7), 2, 4)
    W0 = np.zeros((2, 2))
    est = mc_rad_estimate(ds.X, W0, 0.0, 0.0, RELU, cfg=FAST)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_mc_estimate_exhaustive_mode():
    ds = random_unit_dataset(make_rng(8), 2, 4)
    _, snap = init_kaiming(make_rng(8), 2, 2, 1)
    est = mc_rad_estimate(ds.X, np.asarray(snap.W0), 0.5, 1.0, RELU, cfg=FAST)
    assert est.samples == 2 ** 4
    assert est.std_error == 0.0


def test_mc_estimate_sampled_mode():
    ds = random_unit_dataset(make_rng(9), 2, 11)  # n > 10 samples the signs
    _, snap = init_kaiming(make_rng(9), 2, 2, 1)
    est = mc_rad_estimate(ds.X, np.asarray(snap.W0), 0.5, 1.0, RELU, cfg=FAST)
    assert est.samples == FAST.sigma_samples
    assert est.std_error > 0.0


def test_mc_estimate_below_upper_bound():
    ds = random_unit_dataset(make_rng(10), 3, 6)
    _, snap = init_kaiming(make_rng(10), 3, 3, 1)
    W0 = np.asarray(snap.W0)
    R_W, R_V = 0.9, 1.1
    est = mc_rad_estimate(ds.X, W0, R_W, R_V, RELU, cfg=FAST)
    inputs = class_bound_inputs(ds, W0, RELU, R_W=R_W, R_V=R_V)
    assert est.mean <= rad_upper_path(inputs) + 1e-12


def _dead_start_instance(w0_2):
    # two copies of x = +1 and two units with negative w0: a random start
    # leaves both units inactive on both points unless it moves unit 2 by
    # more than -w0_2 <= R_W, so most starts have a zero gradient
    X = np.array([[1.0, 1.0]])
    W0 = np.array([[-3.78], [w0_2]])
    return Dataset(X, np.ones(2)), W0


def test_mc_estimate_replaces_dead_starts():
    ds, W0 = _dead_start_instance(-2.17)
    R_W, R_V = 2.32, 1.0
    # every restart from this seed starts dead
    est = mc_rad_estimate(ds.X, W0, R_W, R_V, RELU, cfg=RadConfig(seed=1))
    upper = rad_upper_path(class_bound_inputs(ds, W0, RELU, R_W=R_W, R_V=R_V))
    assert 0.0 < est.mean <= upper
    # the sup puts all of R_W on unit 2: sigma = (+1, +1) gives
    # 2 R_V (R_W + w0_2), sigma = (+1, -1) gives 0, each divided by n = 2
    assert est.mean == pytest.approx(R_V * (R_W - 2.17) / 2.0, rel=1e-12)


def test_mc_estimate_zero_when_every_feasible_w_is_dead():
    ds, W0 = _dead_start_instance(-2.5)
    est = mc_rad_estimate(ds.X, W0, 2.32, 1.0, RELU, cfg=RadConfig(seed=1))
    assert est.mean == 0.0


@pytest.mark.parametrize("step_size", [0.0, -0.1], ids=["zero", "negative"])
def test_rad_config_refuses_a_step_size_not_above_zero(step_size):
    # `rad` has no --step-size flag, so its CLI tests do not reach this check
    with pytest.raises(ValueError, match="step_size must be positive"):
        RadConfig(step_size=step_size)


def test_scale_guard():
    X = np.ones((100, 100))
    W0 = np.zeros((100, 100))
    with pytest.raises(ValueError):
        mc_rad_estimate(X, W0, 1.0, 1.0, RELU, cfg=FAST)


@pytest.mark.parametrize("n, d, m, R_W, R_V, samples", [
    (0, 4, 4, 1.0, 1.0, 200), (8, 4, 4, -1.0, 1.0, 200),
    (8, 4, 4, math.nan, 1.0, 200), (8, 4, 4, 1.0, math.inf, 200),
    (4, 2, 2, 1.0, 1e155, 200), (4, 2, 2, 1e155, 1.0, 200),
    (11, 1, 1, 1.0, 1.0, 1),
], ids=["n-below-1", "negative-radius", "nan-radius", "infinite-radius",
        "huge-rv", "huge-rw", "one-sampled-sign-vector"])
def test_mc_estimate_refuses_what_rad_refuses(capsys, n, d, m, R_W, R_V,
                                              samples):
    # the instance `rad` would draw, refused with the message `rad` prints
    rng = make_rng(0)
    X = rng.standard_normal((d, n))
    X /= np.linalg.norm(X, axis=0)
    W0 = init_kaiming(rng, m, d, 1)[1].W0
    assert main(["rad", "--n", str(n), "--d", str(d), "--m", str(m),
                 "--rw", repr(R_W), "--rv", repr(R_V),
                 "--sigma-samples", str(samples)]) == 2
    err = capsys.readouterr().err
    with pytest.raises(ValueError) as exc:
        mc_rad_estimate(X, W0, R_W, R_V, RELU, RadConfig(sigma_samples=samples))
    assert err == f"config error: {exc.value}\n"


@pytest.mark.parametrize("shape", [(2, 5), (4,)], ids=["other-d", "1-d"])
def test_mc_estimate_refuses_w0_not_m_by_d(shape):
    # numpy's matmul or unpacking error came from inside the PGA before
    X = random_unit_dataset(make_rng(0), 3, 4).X
    msg = f"W0 {shape} is not (m, d) for X (d, n) = (3, 4)"
    with pytest.raises(ValueError, match=re.escape(msg)):
        mc_rad_estimate(X, np.ones(shape), 1.0, 1.0, RELU, FAST)


@pytest.mark.parametrize("shape", [(4,), (2, 3, 4)], ids=["1-d-x", "3-d-x"])
def test_mc_estimate_refuses_x_not_d_by_n(shape):
    # numpy's unpacking error came from reading X's shape as (d, n) before
    with pytest.raises(ValueError, match=re.escape(f"X {shape} is not (d, n)")):
        mc_rad_estimate(np.ones(shape), np.ones((2, 3)), 1.0, 1.0, RELU, FAST)


def test_khintchine_single_vector_exact():
    x = np.array([[3.0], [4.0]])
    mean, lower, upper = khintchine_sandwich_check(x)
    assert mean == pytest.approx(5.0, rel=1e-12)
    assert upper == pytest.approx(5.0, rel=1e-12)
    assert lower == pytest.approx(5.0 / math.sqrt(2.0), rel=1e-12)


def test_khintchine_sampled_mode():
    X = make_rng(11).standard_normal((4, 20))
    mean, lower, upper = khintchine_sandwich_check(X, samples=2000)
    assert lower <= upper
    assert mean > 0


def test_khintchine_validates_samples():
    with pytest.raises(ValueError):
        khintchine_sandwich_check(np.ones((2, 2)), samples=10)
