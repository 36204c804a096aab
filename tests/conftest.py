import os
import struct

import numpy as np
import pytest

from snnbounds import Dataset, make_rng

# Directory with the canonical MNIST IDX train files; the MNIST-dependent
# cases (criteria 3-5 of the acceptance gate and the `paper` cases) skip
# when it is absent.
MNIST_DIR = os.environ.get("SNNBOUNDS_MNIST_DIR",
                           os.path.join(os.path.dirname(__file__), "..",
                                        "data", "mnist"))


def mnist_available():
    for name in ("train-images-idx3-ubyte", "train-images.idx3-ubyte"):
        if os.path.exists(os.path.join(MNIST_DIR, name)):
            return True
    return False


requires_mnist = pytest.mark.skipif(
    not mnist_available(),
    reason=f"MNIST IDX train files not found under {MNIST_DIR} "
           "(set SNNBOUNDS_MNIST_DIR)")


def pytest_configure(config):
    # a SNNBOUNDS_MNIST_DIR that names no MNIST files is a mistake, not a
    # request to skip: every MNIST-gated case would skip and the run pass
    if "SNNBOUNDS_MNIST_DIR" in os.environ and not mnist_available():
        raise pytest.UsageError(
            f"SNNBOUNDS_MNIST_DIR={MNIST_DIR} holds no MNIST IDX train files "
            "(train-images-idx3-ubyte); unset it to skip the MNIST-gated cases")


@pytest.fixture(scope="session")
def mnist_dir(tmp_path_factory):
    """The tiny MNIST-format directory of write_fake_mnist_dir, shared by
    every test that only reads it; a test that edits raw files writes its
    own copy."""
    return write_fake_mnist_dir(str(tmp_path_factory.mktemp("fakemnist")))


@pytest.fixture
def mnist(request, mnist_dir):
    """The MNIST directory of a case parametrized indirectly: "tiny" for the
    fake files of mnist_dir, "paper" for those of SNNBOUNDS_MNIST_DIR."""
    return MNIST_DIR if request.param == "paper" else mnist_dir


# --- test-only encoders, the round-trip oracles for the parsers ---

def encode_idx_images(images):
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    return struct.pack(">4I", 0x00000803, n, h, w) + images.tobytes()


def encode_idx_labels(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">2I", 0x00000801, len(labels)) + labels.tobytes()


def encode_cifar10_bin(images, labels):
    images = np.asarray(images, dtype=np.uint8)  # (n, 32, 32, 3)
    labels = np.asarray(labels, dtype=np.uint8)
    parts = []
    for img, lab in zip(images, labels):
        parts.append(bytes([lab]))
        parts.append(img.transpose(2, 0, 1).tobytes())  # planar R, G, B
    return b"".join(parts)


def write_two_output_checkpoint(path, m, d, seed=0):
    """A checkpoint file with a c = 2 head, written byte by byte in the
    layout of docs/formats.md, which the model does not write."""
    c = 2
    with open(path, "wb") as f:
        f.write(struct.pack("<8s5IQ", b"SNNCKPT1", 1, m, d, c, 0, seed))
        f.write(np.ones(2 * (m * d + c * m), dtype="<f8").tobytes())
        f.write(struct.pack("<Id", 0, 0.0))
    return path


def random_unit_dataset(rng, d, n):
    X = rng.standard_normal((d, n))
    X /= np.linalg.norm(X, axis=0)
    y = 2.0 * rng.integers(0, 2, n) - 1.0
    return Dataset(X, y.astype(float), name="synthetic")


def write_fake_mnist_dir(path, n_per_class=20, classes=(1, 7), seed=0):
    """Tiny synthetic MNIST-format directory for CLI end-to-end tests."""
    rng = make_rng(seed)
    images, labels = [], []
    for cls in classes:
        for _ in range(n_per_class):
            img = rng.integers(1, 256, size=(28, 28)).astype(np.uint8)
            images.append(img)
            labels.append(cls)
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "train-images-idx3-ubyte"), "wb") as f:
        f.write(encode_idx_images(np.stack(images)))
    with open(os.path.join(path, "train-labels-idx1-ubyte"), "wb") as f:
        f.write(encode_idx_labels(np.array(labels)))
    return path
