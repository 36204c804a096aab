"""How the two path-norms scale with network width after training.

Trains one-hidden-layer networks of increasing width on the same synthetic
binary task and prints the path-norm with reference matrix (kappa) next to
the standard path-norm (kappa_s), the same sum against a zero reference:
path_norm(V, W - W0) and path_norm(V, W).  kappa stays nearly flat as the
width grows while kappa_s keeps climbing, which is the whole point of
measuring distance from initialization instead of raw weight size.

Run:  python3 demos/path_norm_vs_width.py
"""

import numpy as np

from snnbounds import (TrainConfig, fork_rng, init_kaiming, make_rng,
                       path_norm, sgd_train)
from snnbounds.datasets import Dataset

d, n = 32, 512
rng = make_rng(0)
X = rng.standard_normal((d, n))
X /= np.linalg.norm(X, axis=0)
# labels from a fixed random teacher direction, so the task is learnable
teacher = rng.standard_normal(d)
y = np.sign(teacher @ X)
y[y == 0] = 1.0
ds = Dataset(X, y, name="teacher")

print(f"{'m':>6} {'kappa':>12} {'kappa_s':>12} {'train_err':>10}")
for p in range(3, 10):
    m = 2 ** p
    params, snap = init_kaiming(fork_rng(0, m), m, d, 1)
    report = sgd_train(params, ds,
                       TrainConfig(batch_size=64, learning_rate=0.05,
                                   max_epochs=40, target_train_error=0.02))
    print(f"{m:>6} {path_norm(params.V, params.W - snap.W0):>12.4f} "
          f"{path_norm(params.V, params.W):>12.4f} "
          f"{report.final_train_error:>10.3f}")
