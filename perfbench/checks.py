"""Output checks, run after each repetition outside its timed region.

Each check counts one attempt; a failed check counts one failure and is
reported on standard error.  The checks read only the files the program
wrote, and recompute ``kappa`` from the checkpoints with their own parser.
"""

import csv
import glob
import hashlib
import math
import os
import struct
import sys

import numpy as np

BOUND_METHODS = {"vc_dim", "inf1_product", "spn_radbound", "fro_product",
                 "spectral_12", "pacbayes", "relu_decomp", "lipschitz_smooth",
                 "adl", "pn_ours", "spn_ours", "rad_upper_path",
                 "rad_upper_frob", "rad_lower"}
FIGURE_KINDS = ("fig1a", "fig1b", "fig2", "fig3")
MAX_REPORTED = 20


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= MAX_REPORTED:
                print(f"check failed: {what}", file=sys.stderr)
        return ok


def sha256_files(paths):
    digests = {}
    for path in paths:
        with open(path, "rb") as f:
            digests[os.path.basename(path)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def checkpoint_kappa(path):
    """kappa = sum_j |v_j| ||w_j - w0_j||_2 straight from the file's bytes."""
    with open(path, "rb") as f:
        data = f.read()
    _, m, d, c, _ = struct.unpack_from("<5I", data, 8)
    arrays, off = [], 36
    for shape in ((m, d), (c, m), (m, d), (c, m)):
        count = shape[0] * shape[1]
        arrays.append(np.frombuffer(data, "<f8", count, off).reshape(shape))
        off += 8 * count
    W, V, W0, _ = arrays
    return float(np.sum(np.abs(V).sum(axis=0) * np.sqrt(((W - W0) ** 2).sum(axis=1))))


def check_cells(checks, out, dataset, seed, widths):
    """Checks on measures.csv, bounds.csv, the figures and the checkpoints.

    Returns (hashes of the CSVs, mean rad_lower / rad_upper_path over cells).
    """
    measures_path = os.path.join(out, "measures.csv")
    bounds_path = os.path.join(out, "bounds.csv")
    if not checks.check(os.path.exists(measures_path) and os.path.exists(bounds_path),
                        f"{out}: measures.csv or bounds.csv missing"):
        return {}, math.nan
    measures = _read_csv(measures_path)
    bounds = _read_csv(bounds_path)
    ratios = []
    for m in widths:
        cell = f"seed {seed} m {m}"
        rows = [r for r in measures if r["seed"] == str(seed) and r["m"] == str(m)]
        if not checks.check(len(rows) == 1, f"{cell}: {len(rows)} measures rows"):
            continue
        row = rows[0]
        values = {k: float(v) for k, v in row.items() if k not in ("dataset", "seed", "m")}
        checks.check(all(math.isfinite(v) for v in values.values()),
                     f"{cell}: non-finite measure")
        checks.check(values["kappa"] <= values["R_W"] * values["R_V"] * (1 + 1e-12),
                     f"{cell}: kappa {values['kappa']} > R_W * R_V")
        ckpt = os.path.join(out, f"ckpt_{dataset}_s{seed}_m{m}.snn")
        if checks.check(os.path.exists(ckpt), f"{cell}: checkpoint missing"):
            kappa = checkpoint_kappa(ckpt)
            checks.check(abs(kappa - values["kappa"]) <= 1e-9 * abs(kappa),
                         f"{cell}: kappa {values['kappa']} != recomputed {kappa}")
        brows = {r["method"]: float(r["value"]) for r in bounds
                 if r["seed"] == str(seed) and r["m"] == str(m)}
        nrows = sum(r["seed"] == str(seed) and r["m"] == str(m) for r in bounds)
        if not checks.check(nrows == 14 and set(brows) == BOUND_METHODS,
                            f"{cell}: {nrows} bounds rows"):
            continue
        checks.check(all(math.isfinite(v) for v in brows.values()),
                     f"{cell}: non-finite bound")
        checks.check(brows["rad_lower"] <= brows["rad_upper_path"],
                     f"{cell}: rad_lower > rad_upper_path")
        ratios.append(brows["rad_lower"] / brows["rad_upper_path"])
    figures = [os.path.join(out, f"{k}.csv") for k in FIGURE_KINDS]
    checks.check(all(os.path.exists(p) for p in figures), f"{out}: figure CSV missing")
    hashed = [measures_path, bounds_path] + sorted(glob.glob(os.path.join(out, "fig*.csv")))
    return sha256_files(hashed), float(np.mean(ratios)) if ratios else math.nan


def check_rad(checks, paths):
    """Checks on the rad CSVs: returns (hashes, tightness per config, violations)."""
    ratios, violations = [], 0
    for path in paths:
        if not checks.check(os.path.exists(path), f"{path}: missing"):
            continue
        rows = _read_csv(path)
        if not checks.check(len(rows) == 1, f"{path}: {len(rows)} rows"):
            continue
        est = float(rows[0]["estimate"])
        upper = float(rows[0]["upper_bound_path"])
        lower = float(rows[0]["lower_bound"])
        if not checks.check(math.isfinite(est) and math.isfinite(upper) and est <= upper,
                            f"{path}: estimate {est} > upper_bound_path {upper}"):
            violations += 1
        if math.isfinite(lower):
            checks.check(lower <= upper, f"{path}: lower_bound {lower} > upper {upper}")
        ratios.append(est / upper)
    return sha256_files([p for p in paths if os.path.exists(p)]), ratios, violations
