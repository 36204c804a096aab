"""Test oracles: closed-form suprema of restricted sub-classes, which the
PGA of snnbounds.rademacher must not exceed, and the Khintchine sandwich."""

import math

import numpy as np

from snnbounds.linalg import fork_rng, sample_signs
from snnbounds.rademacher import EXHAUSTIVE_MAX_N, enumerate_signs


def closed_form_linear_sup(sigma, X, radius):
    """sup over ||w||_2 <= radius of sum_i sigma_i w^T x_i = radius * ||X sigma||_2."""
    sigma = np.asarray(sigma, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.shape[1] != sigma.size:
        raise ValueError("sigma length must match number of columns of X")
    return float(radius * np.linalg.norm(X @ sigma))


def closed_form_toplayer_sup(sigma, X, W0, R_V, activation):
    """sup over ||v||_2 <= R_V with W pinned at W0: R_V * ||M sigma||_2.

    M has rows gamma(x_i^T w_j0) indexed by hidden unit j.
    """
    sigma = np.asarray(sigma, dtype=float)
    M = activation.fn(np.asarray(W0, dtype=float) @ np.asarray(X, dtype=float))
    return float(R_V * np.linalg.norm(M @ sigma))


def khintchine_sandwich_check(X, samples=1000, rng=None):
    """Monte-Carlo E||sum_i sigma_i x_i||_2 with its analytic sandwich.

    Returns (mc_mean, lower, upper) where lower = (sum ||x_i||^2)^(1/2)/sqrt(2)
    and upper = (sum ||x_i||^2)^(1/2).  Exact enumeration replaces sampling
    for n <= EXHAUSTIVE_MAX_N.  Raises AssertionError if the sandwich fails
    beyond 3 standard errors.
    """
    if samples < 100:
        raise ValueError("samples must be >= 100")
    X = np.asarray(X, dtype=float)
    d, n = X.shape
    rss = float(np.linalg.norm(X))
    lower = rss / math.sqrt(2.0)
    upper = rss
    exhaustive = n <= EXHAUSTIVE_MAX_N
    if exhaustive:
        sigmas = enumerate_signs(n)
    else:
        sigmas = sample_signs(rng or fork_rng(0, 3), samples, n)
    norms = np.linalg.norm(X @ sigmas.T, axis=0)
    mean = float(np.mean(norms))
    se = 0.0 if exhaustive else float(np.std(norms, ddof=1) / math.sqrt(samples))
    if not (lower - 3 * se - 1e-12 <= mean <= upper + 3 * se + 1e-12):
        raise AssertionError(
            f"Khintchine sandwich violated: {lower} <= {mean} <= {upper}")
    return mean, lower, upper
