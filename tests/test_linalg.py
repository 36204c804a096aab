import math

import numpy as np
import pytest

from snnbounds import (InitSnapshot, RELU, SnnParams, fork_rng, make_rng,
                       measure_report, sample_signs, spectral_norm)
from conftest import random_unit_dataset


# The measures' Frobenius and (p, q) norms are numpy expressions taken inside
# measure_report; these check them on a network built by hand:
# W = [[1, -2], [3, 4]], W0 = W - I and V = V0 = [[-2, 1]]
def _hand_report():
    W = np.array([[1.0, -2.0], [3.0, 4.0]])
    V = np.array([[-2.0, 1.0]])
    snap = InitSnapshot(W - np.eye(2), V)
    return measure_report(SnnParams(W, V, RELU), snap,
                          random_unit_dataset(make_rng(12), 2, 5))


def test_frobenius_zero_matrix():
    assert _hand_report().v_dist == 0.0  # V = V0


def test_frobenius_identity():
    rep = _hand_report()
    assert rep.R_W == pytest.approx(math.sqrt(2), abs=1e-15)  # ||I||_F
    assert rep.R_V == pytest.approx(math.sqrt(5), abs=1e-15)


def test_pq_identity_12():
    # the l2 norm of I's column l1 norms (1, 1)
    assert _hand_report().w_dist_12 == pytest.approx(math.sqrt(2), abs=1e-15)


def test_pq_hand_inf1():
    # the sum of the column max-norms
    rep = _hand_report()
    assert rep.w_inf1 == 7.0  # 3 + 4
    assert rep.v_inf1 == 3.0  # |-2| + |1|: V has one row


def test_spectral_identity():
    assert spectral_norm(np.eye(4)) == pytest.approx(1.0, rel=1e-10)


def test_spectral_diagonal():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-10)


def test_spectral_near_degenerate_top_singular_values():
    # a gap of 1e-6 between the two largest singular values stalls power
    # iteration below the true value; the eigensolve is exact
    assert spectral_norm(np.diag([1.0, 1.0 - 1e-6, 0.5])) == pytest.approx(1.0, rel=1e-12)


def test_spectral_zero_matrix():
    assert spectral_norm(np.zeros((3, 5))) == 0.0


def test_spectral_empty_rejected():
    with pytest.raises(ValueError, match="empty matrix"):
        spectral_norm(np.empty((0, 3)))


def test_spectral_single_row_is_l2_norm():
    v = make_rng(4).standard_normal((1, 37))
    assert spectral_norm(v) == pytest.approx(np.linalg.norm(v), rel=1e-12)
    assert spectral_norm(v.T) == pytest.approx(np.linalg.norm(v), rel=1e-12)


def test_spectral_matches_svd_oracle():
    rng = make_rng(3)
    for _ in range(50):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        M = rng.standard_normal((rows, cols))
        want = np.linalg.svd(M, compute_uv=False)[0]
        got = spectral_norm(M)
        assert abs(got - want) <= 1e-8 * max(want, 1e-300)


def test_spectral_float_coercion():
    assert type(spectral_norm(np.eye(2))) is float
    assert type(spectral_norm(np.array([[3, 4]]))) is float
    assert spectral_norm(np.array([[3, 4]])) == pytest.approx(5.0, rel=1e-12)


def test_sample_signs_deterministic_and_valid():
    a = sample_signs(make_rng(7), 4, 3)
    b = sample_signs(make_rng(7), 4, 3)
    assert a.shape == (4, 3) and np.array_equal(a, b)
    assert set(np.unique(a)) <= {-1.0, 1.0}
    with pytest.raises(ValueError):
        sample_signs(make_rng(0), 0, 1)


def test_rng_fork_independence():
    # same (seed, keys) reproduces; different keys give different streams
    assert fork_rng(0, 1).integers(0, 1 << 30) == fork_rng(0, 1).integers(0, 1 << 30)
    draws = {fork_rng(0, k).integers(0, 1 << 62) for k in range(8)}
    assert len(draws) == 8
