"""All implemented generalization bounds for one trained network, side by side.

Trains a single model on a synthetic task, measures it once, then evaluates
the two bounds based on the path-norm with reference matrix (pn_ours,
spn_ours), the Rademacher complexity bounds, and the nine comparator bounds
from the literature on those measures, printing them sorted by value.
Data-dependent bounds carry a factor ||X||_F / n, the others
max_i ||x_i|| / sqrt(n).

Run:  python3 demos/bounds_comparison.py
"""

import numpy as np

from snnbounds import (TrainConfig, all_bound_values, init_kaiming, make_rng,
                       measure_report, sgd_train)
from snnbounds.datasets import Dataset

d, n, m = 32, 1024, 128
rng = make_rng(0)
X = rng.standard_normal((d, n))
X /= np.linalg.norm(X, axis=0)
teacher = rng.standard_normal(d)
y = np.sign(teacher @ X)
y[y == 0] = 1.0
ds = Dataset(X, y, name="teacher")

params, snap = init_kaiming(make_rng(1), m, d, 1)
report = sgd_train(params, ds,
                   TrainConfig(batch_size=128, learning_rate=0.05,
                               max_epochs=30, target_train_error=0.05))
print(f"trained m={m}: train error {report.final_train_error:.3f}, "
      f"ramp risk {report.final_ramp_risk:.3f}\n")

measures = measure_report(params, snap, ds)
values = all_bound_values(measures, delta=0.01)
print(f"{'method':<18} {'value':>12}  flags")
for bv in sorted(values, key=lambda b: b.value):
    flags = []
    if bv.data_dependent:
        flags.append("data-dependent")
    if bv.qualitative:
        flags.append("qualitative")
    print(f"{bv.method:<18} {bv.value:>12.4f}  {', '.join(flags)}")
