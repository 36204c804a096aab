"""Numerical probes of the empirical Rademacher complexity on tiny instances.

The supremum over the constrained class {||W - W0||_F <= R_W, ||V||_F <= R_V}
is estimated per sign vector by projected gradient ascent (PGA) over W only:
for a fixed W the sup over V is attained in closed form, at
V* = R_V G^T / ||G||_2 with G = gamma(W X) sigma.  Exhaustive mode searches
only the 2^(n-1) sign vectors with sigma_1 = +1, since sigma and -sigma have
the same supremum.  The returned value is always re-evaluated at a verified
feasible (W, V*), so every estimate is a certified lower bound on the true
per-sigma supremum.  Restricted sub-classes (pure linear, top-layer-only)
admit closed-form suprema which serve as oracles for the PGA.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import fork_rng, frobenius_norm, sample_signs

SCALE_GUARD = 100_000  # max n * m * d
RADIUS_GUARD = 1e50  # max R_W, R_V; squared norms overflow from about 1e154
# max floats in one of the PGA's iterate arrays, (sign vectors) x restarts x
# m x (d + n): 256 MB; the PGA's peak is about five such arrays
PGA_GUARD = 2 ** 25
EXHAUSTIVE_MAX_N = 10  # sign vectors are enumerated, not sampled, up to here
STEP_DECAY = 0.99  # PGA step size factor per step


@dataclass
class RadConfig:
    sigma_samples: int = 200
    pga_steps: int = 200
    pga_restarts: int = 5
    step_size: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if min(self.sigma_samples, self.pga_steps, self.pga_restarts) < 1:
            raise ValueError("counts must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class RadEstimate:
    mean: float
    std_error: float
    samples: int


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


def _pga_best_values(sigmas, X, W0, R_W, R_V, activation, cfg):
    """Certified feasible sup estimates for a batch of sign vectors.

    sigmas has shape (S, n).  The PGA maximizes R_V ||gamma(W X) sigma||_2,
    the sup over V in closed form, over the deviation D = W - W0, with
    cfg.pga_restarts restarts per sigma run simultaneously.  Per sigma it
    returns the best value, evaluated at a checked feasible (W, V*).
    """
    X = np.asarray(X, dtype=float)
    W0 = np.asarray(W0, dtype=float)
    S, n = sigmas.shape
    m, d = W0.shape
    R = cfg.pga_restarts
    B = S * R
    # The B = S * R iterates are stacked along one axis of B * m hidden units,
    # unit j of iterate b = s * R + r in column b * m + j, so each product
    # with X is one GEMM and per-iterate factors broadcast along that axis.
    sig = np.repeat(sigmas.T, R * m, axis=1)                  # (n, B*m)

    def per_iterate_dot(M, N):
        return np.einsum("ibj,ibj->b", M.reshape(-1, B, m), N.reshape(-1, B, m))

    def sup_over_v(Z):
        """G^T (B*m,) and ||G||_2 per iterate, for Z = (W X)^T (n, B*m)."""
        G = np.einsum("ik,ik->k", activation.fn(Z), sig)
        return G, np.sqrt(per_iterate_dot(G, G))

    # restart starts come from per-restart forked streams so that adding
    # restarts never changes (only extends) the set of starting points
    D = np.empty((S, R, m, d))
    for r_idx in range(R):
        D[:, r_idx] = fork_rng(cfg.seed, 10, r_idx).standard_normal((S, m, d))
    D = D.reshape(B * m, d).T.copy()                          # (d, B*m)
    D *= np.repeat(R_W / np.maximum(np.sqrt(per_iterate_dot(D, D)), 1e-30), m)
    Z0 = np.tile((W0 @ X).T, (1, B))                          # (n, B*m)
    # A start at which gamma' vanishes for every unit on every point (all
    # ReLU units inactive) has a zero gradient and would never move.  It is
    # replaced by the start that moves the one unit j* by R_W along x_i*,
    # where (j*, i*) maximises w0_j . x_i + R_W ||x_i||.  For ReLU, if that
    # maximum is <= 0, every feasible W is dead and 0 is the exact sup.
    dead = ~np.any(activation.deriv(X.T @ D + Z0).reshape(n, B, m),
                   axis=(0, 2))
    if dead.any():
        x_norms = np.linalg.norm(X, axis=0)
        j, i = np.unravel_index(np.argmax(W0 @ X + R_W * x_norms), (m, n))
        D[:, np.repeat(dead, m)] = 0.0
        D[:, np.flatnonzero(dead) * m + j] = (
            R_W / max(x_norms[i], 1e-30)) * X[:, i, None]

    step = cfg.step_size
    for _ in range(cfg.pga_steps):
        Z = X.T @ D
        Z += Z0
        G, gnorm = sup_over_v(Z)
        # grad_W R_V ||G||_2 = ((U sigma^T) * gamma'(W X)) X^T with
        # U = R_V G / ||G||_2, here transposed
        G *= np.repeat(R_V / np.maximum(gnorm, 1e-30), m)
        dZ = sig * G
        dZ *= activation.deriv(Z)
        D += step * (X @ dZ)
        # project after every step
        norms = np.sqrt(per_iterate_dot(D, D))
        D *= np.repeat(np.minimum(1.0, R_W / np.maximum(norms, 1e-30)), m)
        step *= STEP_DECAY

    # certify feasibility of W, then evaluate at (W, V*)
    W0_tiled = np.tile(W0.T, (1, B))                          # (d, B*m)
    Ws = W0_tiled + D
    dWs = Ws - W0_tiled
    if np.any(np.sqrt(per_iterate_dot(dWs, dWs)) > R_W * (1 + 1e-9) + 1e-12):
        raise RuntimeError("projection failure: infeasible PGA iterate")
    G, gnorm = sup_over_v(X.T @ Ws)
    V_star = G * np.repeat(R_V / np.maximum(gnorm, 1e-30), m)   # V*^T
    if np.any(np.sqrt(per_iterate_dot(V_star, V_star))
              > R_V * (1 + 1e-9) + 1e-12):
        raise RuntimeError("closed-form V outside its ball")
    return per_iterate_dot(V_star, G).reshape(S, R).max(axis=1)


def enumerate_signs(n):
    """All 2^n sign vectors as a (2^n, n) array of +-1."""
    grid = np.indices((2,) * n).reshape(n, -1).T
    return (2.0 * grid - 1.0).astype(float)


def check_scale(n, d, m, cfg):
    """ValueError if the instance size n * m * d exceeds SCALE_GUARD, or the
    PGA's iterate size (sign vectors) * restarts * m * (d + n) under cfg
    exceeds PGA_GUARD."""
    if n * m * d > SCALE_GUARD:
        raise ValueError(
            f"instance size n*m*d = {n * m * d} exceeds {SCALE_GUARD}")
    signs = 2 ** (n - 1) if n <= EXHAUSTIVE_MAX_N else cfg.sigma_samples
    size = signs * cfg.pga_restarts * m * (d + n)
    if size > PGA_GUARD:
        raise ValueError(
            f"PGA iterate size (sign vectors)*restarts*m*(d+n) = {size} "
            f"exceeds {PGA_GUARD}")


def mc_rad_estimate(X, W0, R_W, R_V, activation, cfg=None):
    """Empirical Rademacher complexity estimate (1/n) E_sigma sup(...).

    Sign vectors are enumerated exhaustively when n <= EXHAUSTIVE_MAX_N
    (exact sigma-expectation over the 2^(n-1) pairs {sigma, -sigma};
    ``samples`` counts all 2^n), otherwise sampled.  Every per-sigma value
    is a certified feasible lower estimate, so the result lower-bounds the
    true complexity up to sigma-sampling error.
    """
    cfg = cfg or RadConfig()
    X = np.asarray(X, dtype=float)
    W0 = np.asarray(W0, dtype=float)
    d, n = X.shape
    check_scale(n, d, W0.shape[0], cfg)
    exhaustive = n <= EXHAUSTIVE_MAX_N
    if exhaustive:
        # sup(-sigma) = sup(sigma) under V -> -V, and from the same starts the
        # W-only PGA gives -sigma the value of sigma: search sigma_1 = +1 only
        sigmas = enumerate_signs(n)[2 ** (n - 1):]           # (2^(n-1), n)
    else:
        sigmas = sample_signs(fork_rng(cfg.seed, 2), cfg.sigma_samples, n)
    sups = _pga_best_values(sigmas, X, W0, R_W, R_V, activation, cfg)
    per_sigma = sups / n
    mean = float(np.mean(per_sigma))
    if exhaustive:
        return RadEstimate(mean, 0.0, 2 ** n)
    std_error = float(np.std(per_sigma, ddof=1) / math.sqrt(len(per_sigma)))
    return RadEstimate(mean, std_error, len(per_sigma))


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
    rss = frobenius_norm(X)
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
