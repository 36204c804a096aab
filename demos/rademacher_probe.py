"""Numerical check of the Rademacher complexity bounds on a tiny instance.

Builds a small random dataset and initialization, then compares:
  - the exhaustive Monte-Carlo feasible estimate (an exact mean over the
    2^(n-1) sign vectors with sigma_1 = +1, which equals the mean over all
    2^n; projected gradient ascent per sign vector),
  - the path-norm upper bound, rad_upper_path: R_W R_V is the class's
    path-norm supremum, so the Frobenius-product bound is the same number
    and is not shown,
  - the ReLU lower bound.
The bounds read the class's measures from measures.class_bound_inputs.
The estimate is a certified lower bound on the true complexity, so it must
not exceed the upper bound. The theoretical lower bound is on the true
complexity, not on the estimate, which may fall below it; so the script
checks only estimate <= upper and lower <= upper.

Run:  python3 demos/rademacher_probe.py
"""

import numpy as np

from snnbounds import (RELU, RadConfig, init_kaiming, make_rng,
                       mc_rad_estimate, rad_lower, rad_upper_path)
from snnbounds.datasets import Dataset
from snnbounds.measures import class_bound_inputs

n, d, m = 8, 4, 4
R_V = 1.0
rng = make_rng(0)
X = rng.standard_normal((d, n))
X /= np.linalg.norm(X, axis=0)
_, snap = init_kaiming(rng, m, d, 1)
W0 = np.asarray(snap.W0)
r0 = float(np.min(np.linalg.norm(W0, axis=1)))
R_W = r0 + 0.5  # R_W >= min_j ||w_j0||: both terms of the lower bound apply

est = mc_rad_estimate(X, W0, R_W, R_V, RELU,
                      cfg=RadConfig(pga_steps=200, pga_restarts=5, seed=0))
ds = Dataset(X, np.ones(n))
inputs = class_bound_inputs(ds, W0, RELU, R_W=R_W, R_V=R_V)

print(f"instance: n={n} d={d} m={m}  R_W={R_W:.3f} R_V={R_V}")
print(f"lower bound (theory)     {rad_lower(inputs):.6f}")
print(f"MC estimate (exhaustive) {est.mean:.6f}  +- {est.std_error:.6f}")
print(f"upper bound (path-norm)  {rad_upper_path(inputs):.6f}")
assert rad_lower(inputs) <= rad_upper_path(inputs)
assert est.mean <= rad_upper_path(inputs)
print("checked: estimate <= upper bound, lower bound <= upper bound")
