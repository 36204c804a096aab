"""Mini-batch SGD with momentum on binary cross-entropy with logits.

The head has one output (c = 1), which model.SnnParams ensures.  Labels are
stored as {-1, +1} in the Dataset and mapped to {0, 1} internally for the
BCE loss.  Training stops when the end-of-epoch 0-1 training error drops
below the target, or when max_epochs is reached.

Training runs in the dtype of the weights it is given, on X of that dtype:
`snnbounds train` gives float32 weights, and one float32 copy of X for all
its networks.  Every measure is taken in float64 from the checkpoint and
the float64 data, so the training precision decides which weights are
found, never whether a bound holds for them.
"""

import time
from dataclasses import dataclass

import numpy as np

from .activations import SIGMOID
from .linalg import COLUMN_BLOCK, column_blocks, fork_rng, model_dtype
from .model import check_inputs, forward, output_layer


@dataclass
class TrainConfig:
    batch_size: int = 256
    momentum: float = 0.9
    learning_rate: float = 0.001
    max_epochs: int = 20
    target_train_error: float = 0.1

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if not np.isfinite(self.target_train_error):
            raise ValueError("target_train_error must be finite")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")


@dataclass
class TrainReport:
    epochs_run: int
    loss_curve: list
    error_curve: list  # end-of-epoch 0-1 training error
    final_train_error: float
    final_ramp_risk: float
    wall_time: float = 0.0


class TrainingDiverged(Exception):
    def __init__(self, epoch, batch=None):
        super().__init__(
            f"non-finite margins at the end of epoch {epoch}" if batch is None
            else f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch, self.batch = epoch, batch


def bce_logits(score, y01):
    """Stable binary cross-entropy with logits; returns (loss, dloss/dscore).

    loss = -[y log sigma(s) + (1-y) log(1 - sigma(s))], computed as
    max(s, 0) - s*y + log(1 + exp(-|s|)), in the dtype of score (float32
    if it is float32, else float64).
    """
    s = np.asarray(score, dtype=model_dtype(score))
    y = np.asarray(y01, dtype=s.dtype)
    loss = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    return loss, SIGMOID.fn(s) - y


def _batch_grads(params, Xb, yb01, grad_W=None):
    """Mean BCE loss and its gradients w.r.t. W and V on one batch; the W
    gradient is written into grad_W if it is given."""
    act = params.activation
    A = act.fn(params.W @ Xb)               # (m, B)
    s = output_layer(params.V, A)[0]        # (B,)
    loss, ds = bce_logits(s, yb01)
    ds = ds / Xb.shape[1]                   # the mean over the batch
    grad_V = (ds[None, :] @ A.T)            # (1, m)
    back = np.multiply(params.V.T, ds)      # (m, B)
    back *= act.deriv(A)
    grad_W = np.matmul(back, Xb.T, out=grad_W)   # (m, d)
    return float(np.mean(loss)), grad_W, grad_V


def margins(params, ds):
    """y_i * psi(x_i) for every example: one full-data forward.

    It runs over blocks of at most COLUMN_BLOCK columns of X, of the
    weights' dtype (forward refuses any other), into one float64 (n,)
    vector, so memory is O(m * block) rather than O(m * n)."""
    t = np.empty(ds.n)
    for cols in column_blocks(ds.n, COLUMN_BLOCK):
        t[cols] = forward(params, ds.X[:, cols])[0]
    t *= ds.y
    return t


def zero_one_error(t):
    """Fraction of misclassified points of margins t; a zero margin is an error."""
    return float(np.mean(t <= 0.0))


def ramp_risk(t):
    """Empirical risk of margins t under the 1-Lipschitz ramp loss, clipped
    to [0, 1]."""
    return float(np.mean(np.clip(1.0 - t, 0.0, 1.0)))


# an overflow ends the run as TrainingDiverged, not as a numpy warning,
# which -W error would raise in its place
@np.errstate(over="ignore", invalid="ignore")
def sgd_train(params, ds, cfg, seed=0):
    """Train params in place with SGD + classical momentum.

    The loop runs in the dtype of params (float32 or float64, see
    model.SnnParams).  Momenta, the gradient buffer (which then holds the
    step), labels, mu and lr have it too, so no product is promoted to
    float64 under either numpy's promotion rules, and a step allocates no
    array of W's size.
    X must have that dtype too (model.check_inputs): `train` casts it once
    for all its networks (Dataset.astype), and nothing here casts a batch
    or a margins block.  After TrainingDiverged, params hold the weights of
    the step that overflowed.

    Epoch e visits the examples in the order fork_rng(seed, e).permutation(n).
    Batches are row gathers from ds.X.T, which for the F-ordered X of a
    built or prepared task is a C-contiguous (n, d) view: each batch copies
    only its own rows, and its transpose has the same values and strides as
    the column gather X[:, idx], so BLAS sees the same operands.
    Each epoch ends with one full-data pass, margins(params, ds), whose
    margins give both the early-stop 0-1 error and, after the last epoch,
    the final ramp risk.  The weights depend on the margins only
    through the early-stop comparison.  TrainingDiverged is raised on a
    non-finite batch loss or on non-finite margins (overflowed weights).
    """
    check_inputs(params, ds.X)

    start = time.perf_counter()
    dtype = params.W.dtype
    y01 = ((ds.y + 1.0) / 2.0).astype(dtype)
    # scalars of the dtype, lest they promote a product; np.float32(1e300)
    # is inf, and such a run diverges at its first step
    mu, lr = dtype.type(cfg.momentum), dtype.type(cfg.learning_rate)
    uW, uV = np.zeros_like(params.W), np.zeros_like(params.V)
    gradW = np.empty_like(params.W)  # each batch's W gradient, then its step
    loss_curve, error_curve = [], []
    t = None
    for epoch in range(cfg.max_epochs):
        order = fork_rng(seed, epoch).permutation(ds.n)
        epoch_loss, n_batches = 0.0, 0
        for start_idx in range(0, ds.n, cfg.batch_size):
            idx = order[start_idx:start_idx + cfg.batch_size]
            loss, gW, gV = _batch_grads(params, ds.X.T[idx].T, y01[idx], gradW)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, n_batches)
            uW *= mu
            uW += gW
            uV *= mu
            uV += gV
            params.W -= np.multiply(uW, lr, out=gW)  # gW is spent
            params.V -= lr * uV
            epoch_loss += loss
            n_batches += 1
        loss_curve.append(epoch_loss / n_batches)
        t = margins(params, ds)
        if not np.all(np.isfinite(t)):  # the weights overflowed
            raise TrainingDiverged(epoch)
        error_curve.append(zero_one_error(t))
        if error_curve[-1] < cfg.target_train_error:
            break
    if t is None:
        t = margins(params, ds)
    return TrainReport(
        epochs_run=len(loss_curve),
        loss_curve=loss_curve,
        error_curve=error_curve,
        final_train_error=zero_one_error(t),
        final_ramp_risk=ramp_risk(t),
        wall_time=time.perf_counter() - start,
    )
