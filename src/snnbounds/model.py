"""Shallow network model: forward pass, activations, Kaiming init, checkpoints.

The network is x -> V @ gamma(W @ x) with W of shape (m, d) and V of shape
(1, m): one output (c = 1), the binary head.  This module is the one place
that holds that rule: SnnParams refuses any other V, and checkpoint_header
any other c.  No bias terms.
"""

import os
import struct
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .datasets import DataError
from .files import atomic_open


@dataclass(frozen=True)
class Activation:
    name: str
    id: int  # in a checkpoint header and in measures.csv
    fn: Callable
    deriv: Callable
    lipschitz: float


def _sigmoid(a):
    out = np.empty_like(a, dtype=float)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ReLU subgradient at 0 is taken to be 0.
RELU = Activation("relu", 0, lambda a: np.maximum(a, 0.0),
                  lambda a: (a > 0).astype(float), 1.0)
TANH = Activation("tanh", 1, np.tanh, lambda a: 1.0 - np.tanh(a) ** 2, 1.0)
SIGMOID = Activation("sigmoid", 2, _sigmoid,
                     lambda a: _sigmoid(a) * (1.0 - _sigmoid(a)), 0.25)

ACTIVATIONS = {a.name: a for a in (RELU, TANH, SIGMOID)}
ACTIVATION_BY_ID = {a.id: a for a in ACTIVATIONS.values()}


@dataclass
class SnnParams:
    W: np.ndarray  # (m, d)
    V: np.ndarray  # (1, m)
    activation: Activation

    def __post_init__(self):
        self.W = np.ascontiguousarray(self.W, dtype=float)
        self.V = np.ascontiguousarray(self.V, dtype=float)
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


def forward(params, X):
    """Network outputs, shape (1, n), for column-stacked inputs X of shape (d, n)."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] != params.d:
        raise ValueError(f"X has {X.shape[0]} rows, expected d={params.d}")
    return params.V @ params.activation.fn(params.W @ X)


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
