"""Shallow network model: forward pass, Kaiming init, checkpoints.

The network is x -> V @ gamma(W @ x), gamma an activations.Activation, W
of shape (m, d) and V of shape (1, m): one output (c = 1), the binary
head.  This module is the one place that holds that rule: SnnParams
refuses any other V, and checkpoint_header any other c.  No bias terms.
"""

import os
import struct
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .activations import ACTIVATION_BY_ID, RELU, Activation
from .datasets import DataError
from .files import atomic_open
from .linalg import model_dtype


@dataclass
class SnnParams:
    """The weights, of one dtype: float32 arrays stay float32, any other
    become float64."""
    W: np.ndarray  # (m, d)
    V: np.ndarray  # (1, m)
    activation: Activation

    def __post_init__(self):
        self.W = np.ascontiguousarray(self.W, dtype=model_dtype(self.W))
        self.V = np.ascontiguousarray(self.V, dtype=model_dtype(self.V))
        if self.W.dtype != self.V.dtype:
            raise ValueError(f"W is {self.W.dtype} but V is {self.V.dtype}")
        if self.W.ndim != 2:
            raise ValueError("W must be 2-D")
        if self.V.shape != (1, self.m):
            raise ValueError(f"V has shape {self.V.shape}, not (1, m) = "
                             f"(1, {self.m}): the head has c = 1 output")

    @property
    def m(self):
        return self.W.shape[0]

    @property
    def d(self):
        return self.W.shape[1]

    def astype(self, dtype):
        """A copy with W and V cast to dtype."""
        return SnnParams(self.W.astype(dtype), self.V.astype(dtype),
                         self.activation)


@dataclass(frozen=True)
class InitSnapshot:
    W0: np.ndarray
    V0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W0", np.ascontiguousarray(self.W0, dtype=float))
        object.__setattr__(self, "V0", np.ascontiguousarray(self.V0, dtype=float))
        self.W0.setflags(write=False)
        self.V0.setflags(write=False)


def init_kaiming(rng, m, d, c, activation=RELU):
    """Kaiming-Gaussian init: W ~ N(0, 2/d), V ~ N(0, 2/m) on both layers.

    Returns the live parameters plus a frozen copy of the initialization.
    c is the head size, which SnnParams refuses unless it is 1.
    """
    if min(m, d, c) < 1:
        raise ValueError("m, d, c must be >= 1")
    W = rng.normal(0.0, np.sqrt(2.0 / d), size=(m, d))
    V = rng.normal(0.0, np.sqrt(2.0 / m), size=(c, m))
    params = SnnParams(W, V, activation)
    snapshot = InitSnapshot(W.copy(), V.copy())
    return params, snapshot


def check_inputs(params, X):
    """ValueError unless X is a (d, n) array of the weights' dtype."""
    if X.shape[0] != params.d:
        raise ValueError(f"X has {X.shape[0]} rows, expected d={params.d}")
    if X.dtype != params.W.dtype:
        raise ValueError(f"X is {X.dtype} but the weights are {params.W.dtype}; "
                         "cast one with Dataset.astype or SnnParams.astype")


def output_layer(V, A):
    """V @ A, the (1, n) outputs of the head V on the hidden layer A, summed
    over the m units by einsum, which calls no BLAS, in one fixed order: the
    threads of a BLAS product of the row V would split that sum, so outputs,
    margins and training steps would depend on the thread count (a product
    such as W X splits its output among threads, not its sums)."""
    return np.einsum("ij,jk->ik", V, A)


def forward(params, X):
    """Network outputs, shape (1, n), for column-stacked inputs X, a (d, n)
    array of the weights' dtype (check_inputs)."""
    check_inputs(params, X)
    return output_layer(params.V, params.activation.fn(params.W @ X))


@dataclass
class Checkpoint:
    params: SnnParams
    snapshot: InitSnapshot
    seed: int = 0
    epochs: int = 0
    final_train_error: float = float("nan")


_MAGIC = b"SNNCKPT1"
_VERSION = 1
# magic, version, m, d, c = 1, activation id, seed; then W, V, W0, V0 as
# little-endian f64; then the trailer: epochs, final training error
_HEADER = struct.Struct("<8s5IQ")
_TRAILER = struct.Struct("<Id")


CheckpointHeader = namedtuple("CheckpointHeader", "m d activation seed")


def checkpoint_save(ck, path):
    """Binary checkpoint in the layout described at _HEADER."""
    p = ck.params
    with atomic_open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, p.m, p.d, 1, p.activation.id,
                             ck.seed))
        for arr in (p.W, p.V, ck.snapshot.W0, ck.snapshot.V0):
            f.write(np.ascontiguousarray(arr, dtype="<f8"))
        f.write(_TRAILER.pack(ck.epochs, ck.final_train_error))


def checkpoint_header(f):
    """CheckpointHeader of the checkpoint file open in f (binary mode), which
    is left at the first array.

    DataError, naming the file, unless the magic, version, activation
    id and dimensions are ones checkpoint_save writes (c = 1 among them) and
    the file has exactly the size they give: a truncated file and trailing
    bytes alike.
    """
    raw = f.read(_HEADER.size)
    if raw[:8] != _MAGIC:
        raise DataError(f"{f.name}: bad checkpoint magic")
    if len(raw) < _HEADER.size:
        raise DataError(f"{f.name}: truncated header")
    _, version, m, d, c, act_id, seed = _HEADER.unpack(raw)
    if version != _VERSION:
        raise DataError(f"{f.name}: unsupported version {version}")
    if act_id not in ACTIVATION_BY_ID:
        raise DataError(f"{f.name}: unknown activation id {act_id}")
    if c != 1:
        raise DataError(f"{f.name}: c = {c} outputs, but the model has c = 1")
    if max(m, d) > 2 ** 24 or min(m, d) < 1:
        raise DataError(f"{f.name}: implausible dimensions m={m} d={d}")
    size = _HEADER.size + 8 * 2 * (m * d + m) + _TRAILER.size
    actual = os.fstat(f.fileno()).st_size
    if actual != size:
        raise DataError(f"{f.name}: {actual} bytes, header gives {size}")
    return CheckpointHeader(m, d, ACTIVATION_BY_ID[act_id], seed)


def checkpoint_load(path):
    """Checkpoint at path; each array is read straight into its own memory.
    DataError, naming the file, if an array holds a NaN or an infinity."""
    with open(path, "rb") as f:
        h = checkpoint_header(f)
        W, V, W0, V0 = [np.empty(shape, dtype="<f8")
                        for shape in [(h.m, h.d), (1, h.m)] * 2]
        for arr in (W, V, W0, V0):
            f.readinto(arr)
            if not np.all(np.isfinite(arr)):
                raise DataError(f"{path}: non-finite weights")
        epochs, final_err = _TRAILER.unpack(f.read(_TRAILER.size))
    return Checkpoint(SnnParams(W, V, h.activation), InitSnapshot(W0, V0),
                      seed=h.seed, epochs=epochs, final_train_error=final_err)
