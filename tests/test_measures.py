import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from snnbounds import (ACTIVATIONS, Dataset, InitSnapshot, RELU, SnnParams,
                       frobenius_norm, init_activation_term,
                       init_kaiming, make_rng, measure_report, path_norm,
                       spectral_norm)
from snnbounds import datasets as datasets_mod
from snnbounds.bounds import class_bound_inputs
from snnbounds.datasets import DataError
from snnbounds.linalg import COLUMN_BLOCK
from snnbounds.cli import _read_measures
from snnbounds.files import write_csv
from snnbounds.measures import (MEASURE_CSV_FIELDS, ClassMeasures,
                                MeasureReport, measure_row, report_from_row)
from conftest import random_unit_dataset


def _params_snap(seed=0, m=4, d=3, shift=0.2):
    params, snap = init_kaiming(make_rng(seed), m, d, 1)
    params.W = params.W + shift * make_rng(seed + 1).standard_normal(params.W.shape)
    return params, snap


def test_path_norm_zero_at_init():
    params, snap = init_kaiming(make_rng(0), 3, 2, 1)
    assert path_norm(params.V, params.W - snap.W0) == 0.0


def test_path_norm_hand_scalar():
    W0 = np.array([[1.0, -1.0]])
    assert path_norm(np.array([[2.0]]), np.array([[4.0, -1.0]]) - W0) == 6.0


def test_path_norm_sqrt_m_gap():
    """Uniform head, one row moved by delta: kappa = delta/sqrt(m) while the
    Frobenius product ||W - W0||_F * ||V||_F = delta."""
    m, d = 9, 4
    W0 = make_rng(0).standard_normal((m, d))
    delta = 1.7
    W = W0.copy()
    W[0, 0] += delta
    V = np.full((1, m), 1.0 / math.sqrt(m))
    assert path_norm(V, W - W0) == pytest.approx(delta / math.sqrt(m), rel=1e-12)
    prod = np.linalg.norm(W - W0) * np.linalg.norm(V)
    assert prod == pytest.approx(delta, rel=1e-12)


def test_standard_path_norm():
    # kappa_s is the path-norm against a zero reference: path_norm(V, W),
    # and a report's kappa when W0 = 0
    W = np.array([[2.0, 0.0], [0.0, 3.0]])
    assert path_norm(np.array([[1.0, -1.0]]), W) == 5.0
    assert path_norm(np.zeros((1, 2)), np.ones((2, 2))) == 0.0
    params = SnnParams(W, np.array([[1.0, -1.0]]), RELU)
    snap = InitSnapshot(np.zeros((2, 2)), np.zeros((1, 2)))
    rep = measure_report(params, snap, random_unit_dataset(make_rng(0), 2, 5))
    assert rep.kappa == rep.kappa_s == 5.0


def test_init_term_zero_init_relu():
    snap = InitSnapshot(np.zeros((3, 2)), np.zeros((1, 3)))
    ds = random_unit_dataset(make_rng(0), 2, 5)
    assert init_activation_term(snap.W0, ds.X, RELU) == 0.0


def test_init_term_hand_single():
    # one unit, one point, pre-activation 2
    snap = InitSnapshot(np.array([[2.0]]), np.array([[0.0]]))
    ds = Dataset(np.array([[1.0]]), np.array([1.0]))
    assert init_activation_term(snap.W0, ds.X, RELU) == pytest.approx(2.0)


@pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid"])
def test_init_term_blocked_matches_dense(act):
    activation = ACTIVATIONS[act]
    n = 2 * COLUMN_BLOCK + 37
    rng = make_rng(4)
    X = rng.standard_normal((5, n))
    W0 = rng.standard_normal((6, 5))
    A = activation.fn(W0 @ X)
    dense = math.sqrt(np.sum(A * A))
    assert init_activation_term(W0, X, activation) == \
        pytest.approx(dense, rel=1e-12)
    if act == "relu":
        assert init_activation_term(W0, X, activation) == dense


def test_init_term_peak_memory_well_below_one_m_by_n_array():
    m, n = 256, 20000
    rng = make_rng(5)
    X = rng.standard_normal((8, n))
    W0 = rng.standard_normal((m, 8))
    tracemalloc.start()
    try:
        init_activation_term(W0, X, RELU)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * n * 8 / 4  # one m x n float64 array is 41 MB


def test_measure_report_peak_memory_below_two_and_a_half_w():
    # W - W0 is formed once: the peak beyond the inputs is that difference
    # plus one temporary of W's size, not a second copy of the difference
    m, d = 1024, 512
    params, snap = _params_snap(seed=6, m=m, d=d)
    ds = random_unit_dataset(make_rng(7), d, 16)
    ds.stats  # the data statistics are computed once, before the report
    tracemalloc.start()
    try:
        measure_report(params, snap, ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * m * d * 8  # one (m, d) float64 array is 4 MB


def test_report_at_init():
    params, snap = init_kaiming(make_rng(1), 4, 3, 1)
    ds = random_unit_dataset(make_rng(2), 3, 7)
    rep = measure_report(params, snap, ds)
    assert rep.kappa == 0.0 and rep.R_W == 0.0 and rep.v_dist == 0.0
    assert rep.w_spectral == pytest.approx(rep.w0_spectral, rel=1e-10)


def test_report_data_fields_unit_norm():
    params, snap = _params_snap()
    ds = random_unit_dataset(make_rng(3), 3, 9)
    rep = measure_report(params, snap, ds)
    assert rep.b_x == pytest.approx(1.0, abs=1e-10)
    assert rep.X_fro == pytest.approx(math.sqrt(9), rel=1e-12)


def test_report_against_dense_oracles():
    params, snap = _params_snap(seed=5, m=5, d=4)
    ds = random_unit_dataset(make_rng(6), 4, 11)
    rep = measure_report(params, snap, ds)
    dW = params.W - snap.W0
    assert rep.R_W == pytest.approx(np.linalg.norm(dW), rel=1e-12)
    assert rep.R_V == pytest.approx(np.linalg.norm(params.V), rel=1e-12)
    assert rep.w_fro == pytest.approx(np.linalg.norm(params.W), rel=1e-12)
    assert rep.w_spectral == pytest.approx(
        np.linalg.svd(params.W, compute_uv=False)[0], rel=1e-8)
    assert rep.gram_spec_sqrt == pytest.approx(
        np.sqrt(np.linalg.eigvalsh(ds.X @ ds.X.T).max()), rel=1e-8)
    assert rep.w_dist_12 == pytest.approx(
        np.linalg.norm(np.abs(dW).sum(axis=0)), rel=1e-12)
    assert rep.w_inf1 == pytest.approx(
        np.abs(dW + snap.W0).max(axis=0).sum(), rel=1e-12)
    kappa_oracle = sum(abs(params.V[0, j]) * np.linalg.norm(dW[j])
                       for j in range(params.m))
    assert rep.kappa == pytest.approx(kappa_oracle, rel=1e-12)


def test_csv_roundtrip(tmp_path):
    params, snap = _params_snap()
    ds = random_unit_dataset(make_rng(7), 3, 6)
    rep = measure_report(params, snap, ds)
    path = os.path.join(tmp_path, "measures.csv")
    write_csv(path, MEASURE_CSV_FIELDS,
              [measure_row(rep, "synthetic", 0)])
    rows = [row for row, _ in _read_measures(tmp_path)]
    assert len(rows) == 1
    row = rows[0]
    assert row["dataset"] == "synthetic" and int(row["m"]) == params.m
    assert set(row) == set(MEASURE_CSV_FIELDS)
    # repr round-trip must be exact for doubles
    assert float(row["kappa"]) == rep.kappa
    assert float(row["gram_spec_sqrt"]) == rep.gram_spec_sqrt


def test_schema_has_row4_operand():
    # the Frobenius-product comparator needs the full ||W||_F, not only the
    # distance from initialization
    assert "w_fro" in MEASURE_CSV_FIELDS
    assert "w_fro" in {f for f in MeasureReport.__dataclass_fields__}


def test_report_carries_n_and_r0():
    params, snap = _params_snap(seed=8, m=5, d=3)
    ds = random_unit_dataset(make_rng(9), 3, 7)
    rep = measure_report(params, snap, ds)
    assert rep.n == ds.n and isinstance(rep.n, int)
    assert rep.r0 == float(np.min(np.linalg.norm(snap.W0, axis=1)))
    # the class fields, n and r0 among them, then the network's own
    assert MEASURE_CSV_FIELDS == [
        "dataset", "seed", "m", "activation", "R_W", "R_V", "init_term",
        "X_fro", "gram_spec_sqrt", "n", "r0", "kappa", "kappa_s", "w_fro",
        "v_dist", "w0_spectral", "w_spectral", "w_dist_12", "w_inf1",
        "v_inf1", "b_x", "d"]


def test_report_from_row_roundtrip(tmp_path):
    params, snap = _params_snap(seed=10)
    ds = random_unit_dataset(make_rng(11), 3, 6)
    rep = measure_report(params, snap, ds)
    path = os.path.join(tmp_path, "measures.csv")
    write_csv(path, MEASURE_CSV_FIELDS,
              [measure_row(rep, "synthetic", 0)])
    [(_, back)] = _read_measures(tmp_path)
    assert back == rep  # every field exactly, n as an int


def _with_c_column(row, c):
    """row as a file of the earlier schema gives it: a c column before d."""
    fields = list(MEASURE_CSV_FIELDS)
    fields.insert(fields.index("d"), "c")
    return {k: row.get(k, c) for k in fields}


def test_report_from_row_rejects_old_schema():
    params, snap = _params_snap(seed=12)
    ds = random_unit_dataset(make_rng(13), 3, 6)
    row = dict(zip(MEASURE_CSV_FIELDS,
                   measure_row(measure_report(params, snap, ds), "s", 0)))
    without_n_r0 = {k: v for k, v in row.items() if k not in ("n", "r0")}
    short = {**row, "r0": None}  # csv.DictReader's value for a short row
    for old in (without_n_r0, _with_c_column(row, "1"), short):
        with pytest.raises(DataError, match="rerun `snnbounds measure`"):
            report_from_row(old)
    with pytest.raises(DataError):
        report_from_row({**row, "n": "x"})


def test_report_from_row_rejects_v_spectral_and_v_dist_12_columns():
    # a file of the earlier schema, whose binary-head columns v_spectral and
    # v_dist_12 repeated R_V and v_dist, is refused naming them
    params, snap = _params_snap(seed=18)
    ds = random_unit_dataset(make_rng(19), 3, 6)
    row = dict(zip(MEASURE_CSV_FIELDS,
                   measure_row(measure_report(params, snap, ds), "s", 0)))
    old = {**row, "v_spectral": row["R_V"], "v_dist_12": row["v_dist"]}
    with pytest.raises(DataError, match="rerun `snnbounds measure`") as exc:
        report_from_row(old)
    assert f"v_spectral = {row['R_V']}, v_dist_12 = {row['v_dist']}" in str(
        exc.value)


@pytest.mark.parametrize("value,match", [
    ("3", "unknown activation id 3"), ("relu", "relu"), ("1.0", "1.0")])
def test_report_from_row_rejects_bad_activation_id(value, match):
    params, snap = _params_snap(seed=14)
    ds = random_unit_dataset(make_rng(15), 3, 6)
    row = dict(zip(MEASURE_CSV_FIELDS,
                   measure_row(measure_report(params, snap, ds), "s", 0)))
    assert report_from_row(row).activation == 0  # relu
    row["activation"] = value
    with pytest.raises(DataError, match=match):
        report_from_row(row)


def test_report_from_row_rejects_nan_kappa_s_and_wider_heads():
    # a NaN kappa_s is no network's; a network with c > 1 outputs has no
    # row: the model refuses it, and a row of the earlier schema, which
    # gave c a column, is refused whatever its c
    params, snap = _params_snap(seed=16)
    ds = random_unit_dataset(make_rng(17), 3, 6)
    row = dict(zip(MEASURE_CSV_FIELDS,
                   measure_row(measure_report(params, snap, ds), "s", 0)))
    with pytest.raises(DataError, match="kappa_s = nan must be"):
        report_from_row({**row, "kappa_s": "nan"})
    with pytest.raises(DataError, match="rerun `snnbounds measure`"):
        report_from_row(_with_c_column(row, "2"))
    with pytest.raises(ValueError, match="c = 1"):
        init_kaiming(make_rng(16), 4, 3, 2)


def test_data_stats_computed_once_per_dataset(monkeypatch):
    ds = random_unit_dataset(make_rng(14), 3, 9)
    want = (frobenius_norm(ds.X), spectral_norm(ds.X),
            float(np.max(np.linalg.norm(ds.X, axis=0))))
    calls = []

    def counting(M):
        calls.append(M.shape)
        return spectral_norm(M)

    monkeypatch.setattr(datasets_mod, "spectral_norm", counting)
    for seed in (15, 16):
        params, snap = _params_snap(seed=seed)
        rep = measure_report(params, snap, ds)
        assert (rep.X_fro, rep.gram_spec_sqrt, rep.b_x) == want
    class_bound_inputs(ds, np.asarray(snap.W0), RELU, R_W=1.0, R_V=1.0)
    assert calls == [ds.X.shape]


@pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid"])
def test_measure_report_class_fields_are_class_bound_inputs(act):
    """A report's class fields are class_bound_inputs' at its radii, bit for
    bit, so the Rademacher rows of a network and of its class agree."""
    activation = ACTIVATIONS[act]
    params, snap = init_kaiming(make_rng(30), 5, 3, 1, activation)
    params.W = params.W + 0.3 * make_rng(31).standard_normal(params.W.shape)
    ds = random_unit_dataset(make_rng(32), 3, 9)
    rep = measure_report(params, snap, ds)
    assert isinstance(rep, ClassMeasures)
    cls = class_bound_inputs(ds, np.asarray(snap.W0), activation,
                             rep.R_W, rep.R_V)
    for f in dataclasses.fields(ClassMeasures):
        assert repr(getattr(rep, f.name)) == repr(getattr(cls, f.name)), f.name
