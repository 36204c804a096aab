"""Numerics that need their own code: the exact spectral norm, the dtype
rule, column blocks of full-data passes, seeded RNG and sign draws.  The
other norms of the measures are numpy's, called where they are taken.

All randomness in the package flows through generators created by
:func:`make_rng` / :func:`fork_rng`, which pin the bit generator to PCG64 so
that a given seed produces the same stream on every platform.
"""

import numpy as np

# columns of X per block of a full-data pass (data statistics, init term,
# training margins), so that no pass holds an m x n array
COLUMN_BLOCK = 1024


def model_dtype(a):
    """The dtype a is computed in: float32 for float32 input (the weights,
    data and batches of a float32 training run), float64 for any other."""
    return np.float32 if getattr(a, "dtype", None) == np.float32 else np.float64


def make_rng(seed):
    """Generator with a fixed algorithm (PCG64) for a 64-bit integer seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def fork_rng(seed, *keys):
    """Child generator derived deterministically from (seed, *keys).

    Use this instead of sharing one generator across parallel work units.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, keys)]))
    )


def column_blocks(n, size):
    """Slices covering range(n) in ceil(n / size) blocks of near-equal width.

    No block is narrower than size // 2 unless n is, so none is a single
    column when n > 1: numpy reduces a one-column view of a C-ordered array
    along axis 0 in another order than the whole array or a wider view.
    """
    k = max(1, -(-n // size))
    edges = [i * n // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def spectral_norm(M):
    """Largest singular value of M from one dense eigensolve of the smaller
    Gram matrix, M M^T or M^T M.

    Exact up to rounding: unlike an iterative estimate, it cannot stop early
    below the true value.  ValueError if M is empty.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        raise ValueError("empty matrix")
    A = M if M.shape[0] <= M.shape[1] else M.T
    # the Gram matrix is PSD; rounding can leave a (near) zero one's top
    # eigenvalue slightly negative
    return float(np.sqrt(max(0.0, np.linalg.eigvalsh(A @ A.T)[-1])))


def sample_signs(rng, rows, cols):
    """rows x cols matrix of independent +-1 entries drawn from rng."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    return (2.0 * rng.integers(0, 2, size=(rows, cols)) - 1.0).astype(float)
