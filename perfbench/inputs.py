"""Seeded input generators for the benchmark workloads.

The program under test only ever sees what these functions write: an
MNIST-format IDX directory, binary checkpoints, or ``rad`` flag lists.
"""

import os
import struct

import numpy as np

# MNIST train split sizes of the digits 1 and 7, so that n = 13007 as in the paper
CLASS_COUNTS = {1: 6742, 7: 6265}
SIDE = 28


def _rng(seed, *keys):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *keys])))


def _templates():
    """Fixed stroke templates for the digits 1 and 7 on a 28x28 grid."""
    t1 = np.zeros((SIDE, SIDE))
    t1[4:24, 13:16] = 1.0
    t7 = np.zeros((SIDE, SIDE))
    t7[5:8, 6:22] = 1.0
    for row in range(8, 24):
        col = 21 - (row - 8) * 9 // 16
        t7[row, col - 1:col + 2] = 1.0
    return {1: t1, 7: t7}


def mnist_images(seed):
    """(images, labels): class template plus per-image noise, shuffled."""
    rng = _rng(seed, 1)
    templates = _templates()
    labels = np.concatenate([np.full(k, c, dtype=np.uint8)
                             for c, k in CLASS_COUNTS.items()])
    labels = labels[rng.permutation(labels.size)]
    base = np.stack([templates[c] for c in (1, 7)])[(labels == 7).astype(int)]
    noise = rng.uniform(0.0, 1.0, size=base.shape)
    scale = rng.uniform(120.0, 255.0, size=(labels.size, 1, 1))
    images = np.clip(base * scale + noise * 90.0, 0, 255).astype(np.uint8)
    return images, labels


def write_mnist_dir(path, seed):
    """MNIST-format train-images/train-labels IDX files under ``path``."""
    images, labels = mnist_images(seed)
    os.makedirs(path, exist_ok=True)
    n = labels.size
    with open(os.path.join(path, "train-images-idx3-ubyte"), "wb") as f:
        f.write(struct.pack(">4i", 0x00000803, n, SIDE, SIDE))
        f.write(images.tobytes())
    with open(os.path.join(path, "train-labels-idx1-ubyte"), "wb") as f:
        f.write(struct.pack(">2i", 0x00000801, n))
        f.write(labels.tobytes())


def write_checkpoints(sb, out, seed, model_seed, widths, d=1024):
    """One checkpoint per width: Kaiming init plus a small seeded perturbation.

    The init comes from ``model_seed`` as the CLI would draw it, and only the
    perturbation from ``seed``.  Power iteration then takes about as many
    steps for every seed, so the seed changes the inputs but not the work.
    ``sb`` is the imported snnbounds package, whose ``checkpoint_save``
    writes the files.
    """
    os.makedirs(out, exist_ok=True)
    for m in widths:
        params, snapshot = sb.init_kaiming(sb.fork_rng(model_seed, m), m, d, 1,
                                           sb.RELU)
        rng = _rng(seed, 2, m)
        params.W += rng.normal(0.0, 0.02 / np.sqrt(d), size=params.W.shape)
        params.V += rng.normal(0.0, 0.02 / np.sqrt(m), size=params.V.shape)
        ck = sb.Checkpoint(params, snapshot, seed=model_seed, epochs=1,
                           final_train_error=0.0)
        sb.checkpoint_save(
            ck, os.path.join(out, f"ckpt_mnist_s{model_seed}_m{m}.snn"))


# (n, d, m) of the rad instances: one per n in 2..10, d and m covering 1..8.
# They are fixed so that the work of a run does not depend on the seed: at
# n = 10 one call costs 15x more at d = m = 8 than at d = m = 1.
RAD_SHAPES = [(2, 2, 8), (3, 3, 6), (4, 4, 4), (5, 5, 7), (6, 6, 3), (7, 7, 5),
              (8, 8, 2), (9, 8, 8), (10, 1, 1)]


def _stratified(rng, low, high, step):
    """One draw of U(low, high) per shape, each from its own fixed stratum.

    Shape k draws from stratum (step * k) mod K of K equal strata, so the
    radii cover the range in every run and the seed only moves them within
    their strata.  That keeps the mean tightness of a run nearly seed-free.
    """
    k = len(RAD_SHAPES)
    strata = (step * np.arange(k)) % k
    return low + (high - low) * (strata + rng.uniform(size=k)) / k


def rad_configs(seed):
    """Tiny ``rad`` instances with exhaustive sign sums (n <= 10).

    The seed draws R_W in U(0.5, 3), R_V in U(0.1, 2) and the per-config
    ``--seed`` that fixes the instance's data and PGA starts.
    """
    rng = _rng(seed, 3)
    rws = _stratified(rng, 0.5, 3.0, 7)
    rvs = _stratified(rng, 0.1, 2.0, 5)
    return [{"n": n, "d": d, "m": m, "rw": float(rw), "rv": float(rv),
             "seed": int(rng.integers(0, 2 ** 31))}
            for (n, d, m), rw, rv in zip(RAD_SHAPES, rws, rvs)]
