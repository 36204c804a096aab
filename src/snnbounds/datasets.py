"""MNIST IDX / CIFAR-10 binary ingestion and binary classification tasks.

Preprocessing pipeline for both sources: select the two classes, map labels
to {-1, +1}, bring images to 32x32 single-channel (MNIST: bilinear resize of
the 28x28 grid; CIFAR: unweighted channel mean), flatten to d = 1024 column
vectors, then scale every column to unit l2 norm.

X is F-ordered on every path, one contiguous column per example, so its
transpose is a C-contiguous (n, d) view whose rows are the examples.
Full-data passes run over fixed blocks of examples, so no float copy of the
whole image stack and no temporary of the size of X is built.

A task is prepared once per output directory: :func:`load_prepared_task`
stores X, y and their statistics in ``prepared_<source>.bin``, keyed by a
hash of everything they are computed from, and later stages read that file
instead of rebuilding them.
"""

import hashlib
import os
import struct
from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .files import atomic_open
from .linalg import COLUMN_BLOCK, column_blocks, frobenius_norm, spectral_norm

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixels

LOAD_BLOCK = 256  # images converted, resized and normalized at a time
TARGET_SIDE = 32  # images become TARGET_SIDE x TARGET_SIDE, so d = 1024


class DataError(Exception):
    pass


@dataclass
class RawImageSet:
    images: np.ndarray  # (n, h, w) or (n, h, w, 3) uint8
    labels: np.ndarray  # (n,) uint8

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise DataError("images and labels length mismatch")


@dataclass(frozen=True)
class TaskSpec:
    source: str  # "mnist" or "cifar10"
    positive_class: int
    negative_class: int

    def __post_init__(self):
        if self.positive_class == self.negative_class:
            raise ValueError("positive and negative class must differ")

    @property
    def name(self):
        return f"{self.source}_{self.positive_class}v{self.negative_class}"


@dataclass(frozen=True)
class DataStats:
    X_fro: float           # ||X||_F
    gram_spec_sqrt: float  # ||sum_i x_i x_i^T||_sigma^(1/2) = sigma_max(X)
    b_x: float             # max_i ||x_i||_2


@dataclass
class Dataset:
    X: np.ndarray  # (d, n), columns are examples with unit l2 norm
    y: np.ndarray  # (n,) entries in {-1, +1}
    name: str = ""
    fingerprint: str = ""  # data_fingerprint of the task X and y come from

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.y.ndim != 1 or self.X.shape[1] != self.y.size:
            raise DataError("inconsistent dataset shapes")
        if not np.all(np.isin(self.y, (-1.0, 1.0))):
            raise DataError("labels must be +-1")

    @property
    def d(self):
        return self.X.shape[0]

    @property
    def n(self):
        return self.X.shape[1]

    @cached_property
    def stats(self):
        """Statistics of X that every measure and bound of this dataset shares.

        Computed on first use and kept, so X must not be modified afterwards.
        The Gram spectral norm is sigma_max(X), from one eigensolve of the
        smaller of X X^T (d x d) and X^T X (n x n).  The column norms behind
        b_x are taken over blocks of columns; a column of a block view is
        reduced exactly as in the whole array.
        """
        b_x = max(float(np.max(np.linalg.norm(self.X[:, cols], axis=0)))
                  for cols in column_blocks(self.n, COLUMN_BLOCK))
        return DataStats(X_fro=frobenius_norm(self.X),
                         gram_spec_sqrt=spectral_norm(self.X), b_x=b_x)


def parse_idx_images(data):
    """Parse an IDX 3-D image file (big-endian) into an (n, h, w) uint8 array."""
    if len(data) < 16:
        raise DataError(f"header truncated at byte {len(data)}")
    magic, n, h, w = struct.unpack_from(">4I", data, 0)
    if magic != IDX_IMAGE_MAGIC:
        raise DataError(f"bad image magic 0x{magic:08x} at byte 0")
    if min(h, w) < 1:
        raise DataError(f"image sides h={h}, w={w} at byte 8 must be >= 1")
    expected = 16 + n * h * w
    if len(data) != expected:
        raise DataError(f"payload length {len(data)} != {expected} (offset 16)")
    return np.frombuffer(data, dtype=np.uint8, offset=16).reshape(n, h, w)


def parse_idx_labels(data):
    """Parse an IDX 1-D label file into an (n,) uint8 array."""
    if len(data) < 8:
        raise DataError(f"header truncated at byte {len(data)}")
    magic, n = struct.unpack_from(">2I", data, 0)
    if magic != IDX_LABEL_MAGIC:
        raise DataError(f"bad label magic 0x{magic:08x} at byte 0")
    if len(data) != 8 + n:
        raise DataError(f"payload length {len(data)} != {8 + n} (offset 8)")
    return np.frombuffer(data, dtype=np.uint8, offset=8).copy()


def parse_cifar10_bin(data):
    """Parse a CIFAR-10 binary batch into a RawImageSet of (n, 32, 32, 3) images."""
    if len(data) % CIFAR_RECORD_BYTES != 0:
        raise DataError(
            f"length {len(data)} is not a multiple of {CIFAR_RECORD_BYTES}")
    n = len(data) // CIFAR_RECORD_BYTES
    raw = np.frombuffer(data, dtype=np.uint8).reshape(n, CIFAR_RECORD_BYTES)
    labels = raw[:, 0].copy()
    # channel-planar R, G, B planes of 32x32 each
    images = raw[:, 1:].reshape(n, 3, 32, 32).transpose(0, 2, 3, 1).copy()
    return RawImageSet(images, labels)


def bilinear_resize(images, out_h, out_w):
    """Corner-aligned bilinear resize of a batch of (n, h, w) images.

    Separable: each source row is first interpolated along x, then rows y0
    and y1 are combined.  Every output element is evaluated as
    (a*(1-fx) + b*fx)*(1-fy) + (c*(1-fx) + d*fx)*fy in this order, so it
    equals, bit for bit, a direct evaluation from four gathered corners.
    """
    images = np.asarray(images, dtype=float)
    n, h, w = images.shape
    ys = np.linspace(0.0, h - 1, out_h)
    xs = np.linspace(0.0, w - 1, out_w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    rows = np.take(images, x0, axis=2)  # (n, h, out_w), interpolated along x
    rows *= 1 - fx
    right = np.take(images, x1, axis=2)
    right *= fx
    rows += right
    out = np.take(rows, y0, axis=1)
    out *= 1 - fy
    below = np.take(rows, y1, axis=1)
    below *= fy
    out += below
    return out


def build_binary_task(raw, spec):
    """Binary Dataset from a RawImageSet according to the TaskSpec.

    Keeps only the two requested classes, maps positive -> +1 and negative
    -> -1, converts every image to a flattened 32x32 grayscale vector and
    normalizes each column to unit l2 norm.

    X is allocated once, F-ordered (one contiguous column per image), and
    filled in blocks of about LOAD_BLOCK images, so no float copy of the
    whole image stack is made.  Each block is normalized before it is
    copied in, in the layout a whole-stack computation gives its columns:
    a C-ordered (d, block) buffer after the resize, F-ordered otherwise.
    So every column is summed in the same order as in a reduction over the
    whole stack, and X is bitwise what that computation gives.
    """
    if len(raw.labels) == 0:
        raise DataError("empty image set")
    keep = np.flatnonzero(np.isin(raw.labels,
                                  (spec.positive_class, spec.negative_class)))
    labels = raw.labels[keep]
    for cls in (spec.positive_class, spec.negative_class):
        if not np.any(labels == cls):
            raise DataError(f"class {cls} absent from the raw set")
    side = TARGET_SIDE
    resize = raw.images.shape[1:3] != (side, side)
    X = np.empty((side * side, keep.size), order="F")
    for block in column_blocks(keep.size, LOAD_BLOCK):
        images = np.asarray(raw.images[keep[block]], dtype=float)
        if images.ndim == 4:  # color -> grayscale by unweighted channel mean
            images = images.mean(axis=3)
        if resize:  # C-ordered, as the columns of the whole resized stack
            cols = np.ascontiguousarray(bilinear_resize(
                images, side, side).reshape(len(images), -1).T)
        else:  # F-ordered, as X is
            cols = images.reshape(len(images), -1).T
        norms = np.linalg.norm(cols, axis=0)
        if np.any(norms == 0):
            raise DataError("zero-norm image encountered")
        cols /= norms
        X[:, block] = cols
    y = np.where(labels == spec.positive_class, 1.0, -1.0)
    return Dataset(X, y, name=spec.name)


def data_fingerprint(raw, spec):
    """Hex sha256 of the data a task is: the parsed raw images and labels,
    the task and TARGET_SIDE."""
    digest = hashlib.sha256()
    for arr in (raw.images, raw.labels):
        arr = np.ascontiguousarray(arr)
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(arr.data)
    digest.update(repr((spec, TARGET_SIDE)).encode())
    return digest.hexdigest()


def prepared_key(fingerprint):
    """Hex sha256 of everything X, y and their statistics are computed from:
    the data fingerprint, the numpy version (its wheels bundle their BLAS)
    and the source of the modules that compute them, so a change to any of
    these gives a new key."""
    digest = hashlib.sha256(f"{fingerprint} {np.__version__}".encode())
    for path in (__file__, linalg.__file__):
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def load_prepared_task(raw, spec, directory):
    """build_binary_task(raw, spec) with its statistics, through the
    prepared-data file ``prepared_<source>.bin`` in directory.

    The file is the 64 hex digits of prepared_key, then X.T, y and the
    statistics as little-endian float64.  It is read when it holds this key
    and has the size of n examples, and otherwise rebuilt and replaced, so a
    damaged or stale file costs a rebuild and nothing else.  The key covers
    this code, so a file of another layout has another key.  No file is
    written when directory does not exist.  The returned Dataset
    carries the data fingerprint, which a change of code leaves as it is.
    """
    fingerprint = data_fingerprint(raw, spec)
    key = prepared_key(fingerprint).encode()
    path = os.path.join(directory, f"prepared_{spec.source}.bin")
    n = int(np.count_nonzero(np.isin(raw.labels, (spec.positive_class,
                                                   spec.negative_class))))
    ds = _read_prepared(path, key, spec, n)
    if ds is None:
        ds = build_binary_task(raw, spec)
        if os.path.isdir(directory):
            with atomic_open(path, "wb") as f:
                f.write(key)
                for arr in (ds.X.T, ds.y, np.array(astuple(ds.stats))):
                    f.write(np.ascontiguousarray(arr, dtype="<f8"))
    ds.fingerprint = fingerprint
    return ds


def _read_prepared(path, key, spec, n):
    """The Dataset in the prepared-data file at path, with its statistics, or
    None unless the file holds key, has exactly the size of n examples and
    finite statistics.  Nothing is allocated before the size is checked."""
    d = TARGET_SIDE * TARGET_SIDE
    try:
        with open(path, "rb") as f:
            if (f.read(len(key)) != key or os.fstat(f.fileno()).st_size
                    != len(key) + 8 * (d * n + n + 3)):
                return None
            X = np.empty((d, n), dtype="<f8", order="F")
            y, stats = np.empty(n, dtype="<f8"), np.empty(3, dtype="<f8")
            for arr in (X.T, y, stats):
                f.readinto(arr)
        ds = Dataset(X, y, name=spec.name)
    except (OSError, DataError):
        return None
    if not np.all(np.isfinite(stats)):
        return None
    ds.__dict__["stats"] = DataStats(*map(float, stats))  # the cached property
    return ds


def subsample(ds, n_keep, rng):
    """Uniform sample of n_keep columns without replacement (sorted indices)."""
    if not 1 <= n_keep <= ds.n:
        raise ValueError(f"n_keep={n_keep} out of range [1, {ds.n}]")
    idx = np.sort(rng.choice(ds.n, size=n_keep, replace=False))
    return Dataset(ds.X[:, idx], ds.y[idx], name=ds.name,
                   fingerprint=ds.fingerprint)


def load_mnist_dir(path):
    """RawImageSet from the canonical MNIST IDX train files in a directory."""
    img_path = _first_existing(path, ["train-images-idx3-ubyte",
                                      "train-images.idx3-ubyte"])
    lab_path = _first_existing(path, ["train-labels-idx1-ubyte",
                                      "train-labels.idx1-ubyte"])
    with open(img_path, "rb") as f:
        images = parse_idx_images(f.read())
    with open(lab_path, "rb") as f:
        labels = parse_idx_labels(f.read())
    return RawImageSet(images, labels)


def load_cifar_dir(path):
    """RawImageSet from the CIFAR-10 binary train batches in a directory."""
    parts = []
    for i in range(1, 6):
        name = f"data_batch_{i}.bin"
        full = _first_existing(
            path, [name, os.path.join("cifar-10-batches-bin", name)])
        with open(full, "rb") as f:
            parts.append(parse_cifar10_bin(f.read()))
    images = np.concatenate([p.images for p in parts])
    labels = np.concatenate([p.labels for p in parts])
    return RawImageSet(images, labels)


def _first_existing(directory, candidates):
    for name in candidates:
        full = os.path.join(directory, name)
        if os.path.exists(full):
            return full
    raise FileNotFoundError(
        f"none of {candidates} found in {directory}")
