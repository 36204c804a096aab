import numpy as np
import pytest

from snnbounds import (fork_rng, frobenius_norm, make_rng, pq_norm,
                       sample_signs, spectral_norm)


def test_frobenius_zero_matrix():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0


def test_frobenius_identity():
    assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2), abs=1e-15)


def test_frobenius_matches_entrywise_sum():
    rng = make_rng(1)
    M = rng.standard_normal((5, 4))
    brute = np.sqrt(sum(M[i, j] ** 2 for i in range(5) for j in range(4)))
    assert frobenius_norm(M) == pytest.approx(brute, rel=1e-13)


def test_frobenius_empty_rejected():
    with pytest.raises(ValueError):
        frobenius_norm(np.empty((0, 3)))


def test_pq_identity_12():
    assert pq_norm(np.eye(2), 1, 2) == pytest.approx(np.sqrt(2), abs=1e-15)


def test_pq_hand_inf1():
    M = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert pq_norm(M, np.inf, 1) == pytest.approx(7.0, abs=1e-15)


def test_pq_22_equals_frobenius():
    rng = make_rng(2)
    M = rng.standard_normal((6, 3))
    assert abs(pq_norm(M, 2, 2) - frobenius_norm(M)) < 1e-14


def test_pq_unsupported_order():
    with pytest.raises(ValueError):
        pq_norm(np.eye(2), 3, 2)


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
