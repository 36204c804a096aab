import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from snnbounds import (Dataset, TaskSpec, build_binary_task, make_rng,
                       parse_cifar10_bin, parse_idx_images, parse_idx_labels,
                       subsample)
from snnbounds import datasets as datasets_mod
from snnbounds.datasets import DataError, RawImageSet, bilinear_resize
from snnbounds.linalg import COLUMN_BLOCK
from conftest import encode_cifar10_bin, encode_idx_images, encode_idx_labels


def test_idx_image_roundtrip_hand():
    img = np.array([[[0, 128], [255, 7]]], dtype=np.uint8)
    parsed = parse_idx_images(encode_idx_images(img))
    assert np.array_equal(parsed, img)


def test_idx_label_roundtrip_hand():
    parsed = parse_idx_labels(encode_idx_labels([1, 7, 1]))
    assert np.array_equal(parsed, [1, 7, 1])


def test_idx_bad_magic():
    blob = b"\x00\x00\x00\x00" + b"\x00" * 12
    with pytest.raises(DataError):
        parse_idx_images(blob)
    with pytest.raises(DataError, match="bad label magic"):
        parse_idx_labels(blob)


def test_idx_truncated():
    img = np.zeros((2, 2, 2), dtype=np.uint8)
    blob = encode_idx_images(img)
    with pytest.raises(DataError):
        parse_idx_images(blob[:-1])
    with pytest.raises(DataError):
        parse_idx_labels(encode_idx_labels([1, 2])[:-1])


def test_cifar_roundtrip():
    rng = make_rng(5)
    images = rng.integers(0, 256, size=(3, 32, 32, 3)).astype(np.uint8)
    labels = np.array([0, 9, 4], dtype=np.uint8)
    raw = parse_cifar10_bin(encode_cifar10_bin(images, labels))
    assert np.array_equal(raw.images, images)
    assert np.array_equal(raw.labels, labels)


def test_cifar_empty_stream():
    raw = parse_cifar10_bin(b"")
    assert len(raw.labels) == 0


def test_cifar_bad_length():
    with pytest.raises(DataError):
        parse_cifar10_bin(b"\x00" * 3074)


def test_bilinear_constant_preserved():
    img = np.full((1, 28, 28), 7.0)
    out = bilinear_resize(img, 32, 32)
    assert out.shape == (1, 32, 32)
    assert np.allclose(out, 7.0)


def test_bilinear_corners_aligned():
    img = np.zeros((1, 4, 4))
    img[0, 0, 0], img[0, -1, -1] = 10.0, 20.0
    out = bilinear_resize(img, 9, 9)
    assert out[0, 0, 0] == pytest.approx(10.0)
    assert out[0, -1, -1] == pytest.approx(20.0)


def _raw_mnist_like(n_per_class=5, classes=(1, 7, 3), seed=0):
    rng = make_rng(seed)
    images, labels = [], []
    for cls in classes:
        for _ in range(n_per_class):
            images.append(rng.integers(1, 256, size=(28, 28)).astype(np.uint8))
            labels.append(cls)
    return RawImageSet(np.stack(images), np.array(labels, dtype=np.uint8))


def test_build_binary_task_mnist_like():
    raw = _raw_mnist_like()
    ds = build_binary_task(raw, TaskSpec("mnist", 1, 7))
    assert ds.d == 1024 and ds.n == 10
    assert set(np.unique(ds.y)) == {-1.0, 1.0}
    assert np.allclose(np.linalg.norm(ds.X, axis=0), 1.0, atol=1e-10)
    assert ds.name == "mnist_1v7"


def test_build_binary_task_cifar_grayscale():
    rng = make_rng(1)
    images = rng.integers(1, 256, size=(6, 32, 32, 3)).astype(np.uint8)
    labels = np.array([0, 1, 0, 1, 0, 1], dtype=np.uint8)
    ds = build_binary_task(RawImageSet(images, labels), TaskSpec("cifar10", 0, 1))
    assert ds.d == 1024 and ds.n == 6
    # grayscale must be the unweighted channel mean of the first image
    gray = images[0].astype(float).mean(axis=2).ravel()
    assert np.allclose(ds.X[:, 0], gray / np.linalg.norm(gray))


def test_build_binary_task_missing_class():
    raw = _raw_mnist_like(classes=(1, 3))
    with pytest.raises(DataError):
        build_binary_task(raw, TaskSpec("mnist", 1, 7))


def test_build_binary_task_zero_image():
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    labels = np.array([1, 7], dtype=np.uint8)
    with pytest.raises(DataError):
        build_binary_task(RawImageSet(images, labels), TaskSpec("mnist", 1, 7))


def test_task_spec_distinct_classes():
    with pytest.raises(ValueError):
        TaskSpec("mnist", 4, 4)


def test_subsample_identity_and_edges():
    ds = build_binary_task(_raw_mnist_like(), TaskSpec("mnist", 1, 7))
    same = subsample(ds, ds.n, make_rng(0))
    assert np.array_equal(same.X, ds.X) and np.array_equal(same.y, ds.y)
    one = subsample(ds, 1, make_rng(0))
    assert one.n == 1 and one.y[0] in (-1.0, 1.0)
    a = subsample(ds, 4, make_rng(3))
    b = subsample(ds, 4, make_rng(3))
    assert np.array_equal(a.X, b.X)
    assert same.X.flags.f_contiguous and a.X.flags.f_contiguous  # as ds.X
    with pytest.raises(ValueError):
        subsample(ds, 0, make_rng(0))
    with pytest.raises(ValueError):
        subsample(ds, ds.n + 1, make_rng(0))


@pytest.mark.parametrize("X, y", [
    (np.ones(3), np.ones(3)), (np.ones((2, 3)), np.ones((3, 1))),
    (np.ones((2, 3)), np.ones(4)),
], ids=["1-d-x", "2-d-y", "other-n"])
def test_dataset_refuses_inconsistent_shapes(X, y):
    with pytest.raises(DataError, match="inconsistent dataset shapes"):
        Dataset(X, y)


def test_dataset_keeps_float32_and_makes_any_other_x_float64():
    X = np.eye(2)
    assert Dataset(X.astype(np.float32), np.ones(2)).X.dtype == np.float32
    for dtype in (np.float16, np.int64, np.float64):
        assert Dataset(X.astype(dtype), np.ones(2)).X.dtype == np.float64


def test_astype_keeps_labels_name_and_fingerprint():
    ds = build_binary_task(_raw_mnist_like(), TaskSpec("mnist", 1, 7))
    ds.fingerprint = "f" * 64
    ds32 = ds.astype(np.float32)
    assert ds32.X.dtype == np.float32 and ds32.X.flags.f_contiguous
    assert np.array_equal(ds32.X, ds.X.astype(np.float32))
    assert ds32.y is ds.y
    assert (ds32.name, ds32.fingerprint) == (ds.name, ds.fingerprint)
    assert ds.X.dtype == np.float64  # a copy: ds is left as it was
    # a C-ordered X is made F-ordered, so its transpose's rows are examples
    c_ordered = Dataset(np.ascontiguousarray(ds.X), ds.y)
    assert c_ordered.astype(np.float32).X.flags.f_contiguous
    sub = subsample(ds32, 4, make_rng(3))
    assert sub.X.dtype == np.float32
    assert np.array_equal(sub.X, subsample(ds, 4, make_rng(3)).X.astype(np.float32))
    assert (sub.name, sub.fingerprint) == (ds.name, ds.fingerprint)


def test_stats_refuse_float32_x():
    ds = build_binary_task(_raw_mnist_like(), TaskSpec("mnist", 1, 7))
    ds32 = ds.astype(np.float32)
    with pytest.raises(ValueError, match="float64, not float32"):
        ds32.stats
    ds.stats  # the float64 original still has them
    with pytest.raises(ValueError, match="float64, not float32"):
        ds.astype(np.float32).stats  # the copy does not share them


# --- blocked build: bitwise gate against the whole-stack computation ---

def _whole_stack_bilinear(images, out_h, out_w):
    """The four-gather resize over the whole stack, kept as the reference."""
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
    top = images[:, y0[:, None], x0[None, :]] * (1 - fx) \
        + images[:, y0[:, None], x1[None, :]] * fx
    bot = images[:, y1[:, None], x0[None, :]] * (1 - fx) \
        + images[:, y1[:, None], x1[None, :]] * fx
    return top * (1 - fy) + bot * fy


def _whole_stack_build(raw, spec):
    """build_binary_task as one pass over the whole float image stack."""
    keep = np.isin(raw.labels, (spec.positive_class, spec.negative_class))
    labels = raw.labels[keep]
    images = np.asarray(raw.images[keep], dtype=float)
    if images.ndim == 4:
        images = images.mean(axis=3)
    side = datasets_mod.TARGET_SIDE
    if images.shape[1:] != (side, side):
        images = _whole_stack_bilinear(images, side, side)
    X = images.reshape(len(images), -1).T.astype(float)
    norms = np.linalg.norm(X, axis=0)
    X = X / norms
    y = np.where(labels == spec.positive_class, 1.0, -1.0)
    return X, y


def _raw_images(kind, n, seed=0):
    """n images in classes 1 and 7 (plus two of class 3) for one build path."""
    shape = {"mnist28": (n, 28, 28), "mnist32": (n, 32, 32),
             "cifar": (n, 32, 32, 3)}[kind]
    rng = make_rng(seed)
    images = rng.integers(1, 256, size=shape).astype(np.uint8)
    labels = np.where(rng.random(n) < 0.5, 1, 7).astype(np.uint8)
    labels[:2] = (1, 7)
    labels[-2:] = 3
    return RawImageSet(images, labels)


@pytest.mark.parametrize("kind", ["mnist28", "cifar", "mnist32"])
@pytest.mark.parametrize("n_blocks", [0.25, 1.5, 2.0])
def test_build_binary_task_bitwise_matches_whole_stack(kind, n_blocks):
    # n - 2 kept images: under one block, and not a multiple of the block;
    # 2 * LOAD_BLOCK + 1 would leave a one-column block under plain slicing
    n = int(n_blocks * datasets_mod.LOAD_BLOCK) + 3
    raw = _raw_images(kind, n)
    spec = TaskSpec("mnist", 1, 7)  # the source name plays no part here
    ds = build_binary_task(raw, spec)
    X_ref, y_ref = _whole_stack_build(raw, spec)
    assert ds.X.dtype == X_ref.dtype and ds.X.shape == X_ref.shape
    assert ds.X.flags.f_contiguous
    assert ds.X.tobytes(order="F") == X_ref.tobytes(order="F")
    assert np.array_equal(ds.y, y_ref)
    # the blocked b_x is the whole-array one of X in its own (F) order
    X_ref = np.asfortranarray(X_ref)
    assert ds.stats.b_x == float(np.max(np.linalg.norm(X_ref, axis=0)))


def test_build_binary_task_zero_image_in_last_block():
    raw = _raw_images("mnist28", datasets_mod.LOAD_BLOCK + 40)
    raw.images[-3] = 0  # kept (class 1 or 7), inside the last block
    with pytest.raises(DataError, match="zero-norm"):
        build_binary_task(raw, TaskSpec("mnist", 1, 7))


@pytest.mark.parametrize("shape, out", [
    ((3, 28, 28), (32, 32)), ((4, 5, 7), (3, 11)), ((2, 32, 32), (32, 32)),
    ((3, 1, 4), (3, 3)), ((5, 40, 17), (32, 32)), ((1, 6, 9), (13, 2))])
def test_bilinear_separable_bitwise_matches_four_gathers(shape, out):
    images = make_rng(7).uniform(0.0, 255.0, size=shape)
    assert np.array_equal(bilinear_resize(images, *out),
                          _whole_stack_bilinear(images, *out))


@pytest.mark.parametrize("order", ["C", "F"])
def test_stats_b_x_bitwise_matches_whole_array(order):
    # The largest column is last, where plain slicing would leave it a block
    # of its own.  Its small squares vanish against 10**2 when summed in
    # order, as numpy reduces the columns of a C-ordered X, but not when
    # summed pairwise, as it reduces a one-column view.
    n = 2 * COLUMN_BLOCK + 1
    X = make_rng(3).uniform(0.0, 1.0, size=(64, n))
    X[:, -1] = 7e-8
    X[0, -1] = 10.0
    X = np.asarray(X, order=order)
    ds = Dataset(X, np.ones(n))
    assert ds.stats.b_x == float(np.max(np.linalg.norm(X, axis=0)))


def test_build_binary_task_peak_memory_below_two_outputs():
    raw = _raw_images("mnist28", 2000)
    tracemalloc.start()
    try:
        ds = build_binary_task(raw, TaskSpec("mnist", 1, 7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * ds.X.nbytes


# --- prepared-data file: read back bitwise, rebuilt whenever unusable ---

def _counting_builds(monkeypatch):
    builds = []

    def build(raw, spec):
        builds.append(spec)
        return build_binary_task(raw, spec)

    monkeypatch.setattr(datasets_mod, "build_binary_task", build)
    return builds


@pytest.mark.parametrize("kind", ["mnist28", "mnist32"])
def test_prepared_task_reads_back_bitwise(tmp_path, monkeypatch, kind):
    raw = _raw_images(kind, 300)
    spec = TaskSpec("mnist", 1, 7)
    fresh = build_binary_task(raw, spec)
    datasets_mod.load_prepared_task(raw, spec, str(tmp_path))
    builds = _counting_builds(monkeypatch)
    ds = datasets_mod.load_prepared_task(raw, spec, str(tmp_path))
    assert builds == []
    assert ds.X.flags.f_contiguous and fresh.X.flags.f_contiguous
    assert ds.X.dtype == fresh.X.dtype
    assert ds.X.tobytes(order="F") == fresh.X.tobytes(order="F")
    assert ds.y.dtype == fresh.y.dtype and ds.y.tobytes() == fresh.y.tobytes()
    assert ds.name == fresh.name == "mnist_1v7"
    assert ds.stats == fresh.stats
    assert ds.fingerprint == datasets_mod.data_fingerprint(raw, spec)
    with open(tmp_path / "prepared_mnist.bin", "rb") as f:
        key = f.read(64).decode()
    assert key == datasets_mod.prepared_key(ds.fingerprint)


def test_prepared_task_second_load_neither_builds_nor_eigensolves(
        tmp_path, monkeypatch):
    raw = _raw_mnist_like()
    spec = TaskSpec("mnist", 1, 7)
    cold = datasets_mod.load_prepared_task(raw, spec, str(tmp_path))

    def forbidden(*args):
        raise AssertionError("called on a second load")

    monkeypatch.setattr(datasets_mod, "build_binary_task", forbidden)
    monkeypatch.setattr(datasets_mod, "spectral_norm", forbidden)
    warm = datasets_mod.load_prepared_task(raw, spec, str(tmp_path))
    assert warm.stats == cold.stats


def test_prepared_task_second_load_maps_x_read_only(tmp_path):
    # processes that load the task share the file's pages: no private copy
    # of X is read, and none can be written through
    raw = _raw_mnist_like()
    spec = TaskSpec("mnist", 1, 7)
    cold = datasets_mod.load_prepared_task(raw, spec, str(tmp_path))
    warm = datasets_mod.load_prepared_task(raw, spec, str(tmp_path))
    assert isinstance(warm.X.base, np.memmap) and not warm.X.flags.writeable
    assert warm.X.flags.f_contiguous
    assert np.array_equal(warm.X, cold.X) and np.array_equal(warm.y, cold.y)


def test_prepared_task_rebuilt_for_changed_bytes_or_task(tmp_path, monkeypatch):
    raw = _raw_mnist_like()
    spec = TaskSpec("mnist", 1, 7)
    datasets_mod.load_prepared_task(raw, spec, str(tmp_path))
    builds = _counting_builds(monkeypatch)
    changed = RawImageSet(raw.images.copy(), raw.labels)
    changed.images[0, 5, 5] ^= 1
    ds = datasets_mod.load_prepared_task(changed, spec, str(tmp_path))
    assert builds == [spec]
    assert ds.X.tobytes() == build_binary_task(changed, spec).X.tobytes()
    swapped = TaskSpec("mnist", 7, 1)
    ds = datasets_mod.load_prepared_task(changed, swapped, str(tmp_path))
    assert builds == [spec, swapped]
    assert np.array_equal(ds.y, build_binary_task(changed, swapped).y)
    datasets_mod.load_prepared_task(changed, swapped, str(tmp_path))
    assert len(builds) == 2


def _write_records(path, key, X, y, stats):
    """A prepared-data file in the layout load_prepared_task writes."""
    with open(path, "wb") as f:
        f.write(key)
        for arr in (X.T, y, stats):
            f.write(np.ascontiguousarray(arr).tobytes())


def _damage(kind, path, key, ds):
    key = key.encode()
    stats = np.array([ds.stats.X_fro, ds.stats.gram_spec_sqrt, ds.stats.b_x])
    with open(path, "rb") as f:
        blob = f.read()
    if kind == "truncated":
        with open(path, "wb") as f:
            f.write(blob[:len(blob) // 2])
    elif kind == "garbage":
        with open(path, "wb") as f:
            f.write(make_rng(0).integers(0, 256, 5000).astype(np.uint8).tobytes())
    elif kind == "wrong key":
        _write_records(path, b"0" * 64, ds.X, ds.y, stats)
    elif kind == "wrong shape":  # one example short: the size differs
        _write_records(path, key, ds.X[:, 1:], ds.y[1:], stats)
    elif kind == "float32":  # half the size
        _write_records(path, key, ds.X.astype(np.float32), ds.y, stats)
    elif kind == "nan statistic":
        _write_records(path, key, ds.X, ds.y, stats * np.nan)
    elif kind == "label 0":
        _write_records(path, key, ds.X, np.where(ds.y > 0, 1.0, 0.0), stats)
    elif kind == "trailing bytes":
        with open(path, "wb") as f:
            f.write(blob + b"\0")


@pytest.mark.parametrize("kind", ["truncated", "garbage", "wrong key",
                                  "wrong shape", "float32", "nan statistic",
                                  "label 0", "trailing bytes"])
def test_prepared_task_bad_file_is_rebuilt(tmp_path, monkeypatch, kind):
    raw = _raw_mnist_like()
    spec = TaskSpec("mnist", 1, 7)
    cold = datasets_mod.load_prepared_task(raw, spec, str(tmp_path))
    path = tmp_path / "prepared_mnist.bin"
    good = path.read_bytes()
    _damage(kind, path, datasets_mod.prepared_key(cold.fingerprint), cold)
    builds = _counting_builds(monkeypatch)
    ds = datasets_mod.load_prepared_task(raw, spec, str(tmp_path))
    assert builds == [spec]
    assert ds.X.tobytes() == cold.X.tobytes() and ds.stats == cold.stats
    assert path.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["prepared_mnist.bin"]


def test_prepared_file_of_wrong_size_is_refused_before_any_allocation(
        tmp_path):
    # one float short of the size of an MNIST-sized task, whose X alone
    # would take 106 MB; a sparse file, so nothing of that size is written
    n, d = 13007, 1024
    key = b"0" * 64
    path = tmp_path / "prepared_mnist.bin"
    with open(path, "wb") as f:
        f.write(key)
        f.truncate(len(key) + 8 * (d * n + n + 3) - 8)
    tracemalloc.start()
    try:
        ds = datasets_mod._read_prepared(str(path), key,
                                         TaskSpec("mnist", 1, 7), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds is None
    assert peak < 2 ** 20


class _DiskFullAfterX:
    """A file whose third write, that of y, fails."""

    def __init__(self, f):
        self.f, self.writes = f, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            raise OSError("disk full")
        return self.f.write(data)


def test_prepared_file_kept_whole_when_a_write_fails(tmp_path, monkeypatch):
    raw = _raw_mnist_like()
    datasets_mod.load_prepared_task(raw, TaskSpec("mnist", 1, 7), str(tmp_path))
    path = tmp_path / "prepared_mnist.bin"
    before = path.read_bytes()
    real_open = datasets_mod.atomic_open

    @contextmanager
    def failing_open(*args):
        with real_open(*args) as f:
            yield _DiskFullAfterX(f)

    monkeypatch.setattr(datasets_mod, "atomic_open", failing_open)
    with pytest.raises(OSError, match="disk full"):
        datasets_mod.load_prepared_task(raw, TaskSpec("mnist", 7, 1),
                                        str(tmp_path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["prepared_mnist.bin"]


def test_prepared_task_ignores_a_left_over_temporary_file(tmp_path, monkeypatch):
    raw = _raw_mnist_like()
    spec = TaskSpec("mnist", 1, 7)
    left_over = tmp_path / "prepared_mnist.bin.99999.tmp"
    left_over.write_bytes(b"half a file")
    builds = _counting_builds(monkeypatch)
    cold = datasets_mod.load_prepared_task(raw, spec, str(tmp_path))
    warm = datasets_mod.load_prepared_task(raw, spec, str(tmp_path))
    assert builds == [spec]
    assert warm.X.tobytes() == cold.X.tobytes()
    assert left_over.read_bytes() == b"half a file"
