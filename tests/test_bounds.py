import math
from dataclasses import replace

import numpy as np
import pytest

from snnbounds import (Dataset, RELU, TANH, SnnParams, all_bound_values,
                       cm_constant, cm_prime_constant, comparator_bound,
                       gen_bound_pn, gen_bound_spn, init_kaiming, make_rng,
                       measure_report, rad_lower, rad_upper_path)
from snnbounds.bounds import COMPARATORS, class_bound_inputs
from snnbounds.cli import _read_measures, _write_csv
from snnbounds.measures import (MEASURE_CSV_FIELDS, ClassMeasures,
                                MeasureReport, measure_row)
from conftest import random_unit_dataset


def _trained_like(seed=0, m=4, d=3, n=9):
    params, snap = init_kaiming(make_rng(seed), m, d, 1)
    params.W = params.W + 0.3 * make_rng(seed + 1).standard_normal((m, d))
    params.V = params.V + 0.1
    ds = random_unit_dataset(make_rng(seed + 2), d, n)
    return params, snap, ds, measure_report(params, snap, ds)


def test_cm_constant_default_sup_simplifies():
    # at sup_kappa = R_W R_V the inner ratio is 2 sqrt(m)
    for m in (1, 4, 64, 100):
        got = cm_constant(m)
        assert got == cm_prime_constant(m, 1.0, 1.0)
        shells = math.ceil(math.log2(2.0 * math.sqrt(m)))
        want = 2 * math.sqrt(2) * (1 + 1 / (2 * math.log(2 * m))) \
            * math.sqrt(math.log(2 * m * shells))
        assert got == pytest.approx(want, rel=1e-12)


def test_cm_constant_monotone_in_m():
    assert cm_constant(64) <= cm_constant(4096)


def test_cm_prime_unit_radii_formula():
    for m in (4, 16, 256):
        got = cm_prime_constant(m, 1.0, 1.0)
        shells = math.ceil(math.log2(2.0 * math.sqrt(m)))
        want = 2 * math.sqrt(2) * (1 + 1 / (2 * math.log(2 * m))) \
            * math.sqrt(math.log(2 * m * shells))
        assert got == pytest.approx(want, rel=1e-12)


def test_cm_prime_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    m, r1, r2 = 16, 2.0, 2.0
    # the paper's c = 1 constant, max and all
    arg = mpmath.mpf(2) * r1 * r2 * mpmath.sqrt(m)
    arg = max(arg, mpmath.mpf(2) * mpmath.sqrt(m))
    shells = int(mpmath.ceil(mpmath.log(arg, 2)))
    want = 2 * mpmath.sqrt(2) * (1 + 1 / (2 * mpmath.log(2 * m))) \
        * mpmath.sqrt(mpmath.log(2 * m * shells))
    assert cm_prime_constant(m, r1, r2) == pytest.approx(float(want), rel=1e-12)


def test_cm_prime_monotone_and_validated():
    assert cm_prime_constant(8, 2.0, 1.0) >= cm_prime_constant(8, 1.0, 1.0)
    assert cm_prime_constant(8, 1.0, 3.0) >= cm_prime_constant(8, 1.0, 1.0)
    with pytest.raises(ValueError):
        cm_prime_constant(8, 0.5, 1.0)


def test_rad_upper_vanishes_for_degenerate_class():
    W0 = np.zeros((3, 2))
    ds = random_unit_dataset(make_rng(0), 2, 5)
    inputs = class_bound_inputs(ds, W0, RELU, R_W=1.0, R_V=0.0)
    assert rad_upper_path(inputs) == 0.0


def test_rad_upper_scales_linearly_in_data():
    W0 = np.zeros((3, 2))
    ds = random_unit_dataset(make_rng(1), 2, 6)
    big = Dataset(2.0 * ds.X, ds.y)
    i1 = class_bound_inputs(ds, W0, RELU, R_W=1.5, R_V=0.8)
    i2 = class_bound_inputs(big, W0, RELU, R_W=1.5, R_V=0.8)
    assert rad_upper_path(i2) == pytest.approx(2.0 * rad_upper_path(i1), rel=1e-9)


def test_rad_upper_frob_equals_path_at_default_sup():
    """The Frobenius product R_W R_V is the class's path-norm sup,
    so the two upper-bound rows are one number."""
    _, _, _, report = _trained_like()
    by_name = {v.method: v.value for v in all_bound_values(report, delta=0.01)}
    assert by_name["rad_upper_frob"] == by_name["rad_upper_path"]
    assert by_name["rad_upper_path"] == rad_upper_path(report)


def test_rad_lower_zero_init_collapse():
    W0 = np.zeros((3, 2))
    ds = random_unit_dataset(make_rng(2), 2, 7)
    R_W, R_V = 1.2, 0.9
    inputs = class_bound_inputs(ds, W0, RELU, R_W=R_W, R_V=R_V)
    assert inputs.r0 == 0.0
    want = R_W * R_V * inputs.X_fro / (4 * math.sqrt(2) * ds.n)
    assert rad_lower(inputs) == pytest.approx(want, rel=1e-12)


def test_rad_lower_boundary_first_term_vanishes():
    _, snap, ds, _ = _trained_like(seed=4)
    r0 = float(np.min(np.linalg.norm(snap.W0, axis=1)))
    inputs = class_bound_inputs(ds, np.asarray(snap.W0), RELU, R_W=r0, R_V=1.0)
    only_second = inputs.R_V * inputs.init_term \
        / (2 * math.sqrt(2) * ds.n)
    assert rad_lower(inputs) == pytest.approx(only_second, rel=1e-12)


def test_class_bound_inputs_hold_only_rademacher_fields():
    _, snap, ds, _ = _trained_like(seed=20)
    W0 = np.asarray(snap.W0)
    r = class_bound_inputs(ds, W0, RELU, R_W=1.5, R_V=0.8)
    assert isinstance(r, ClassMeasures)
    assert (r.R_W, r.R_V, r.n) == (1.5, 0.8, ds.n)
    assert r.r0 == float(np.min(np.linalg.norm(W0, axis=1)))
    assert math.isfinite(rad_upper_path(r))
    assert math.isfinite(rad_lower(r))
    # the model-level bounds have no model to read: an error, not zeros
    for bound in (lambda i: gen_bound_pn(i, 0.01),
                  lambda i: gen_bound_spn(i, 0.01),
                  lambda i: comparator_bound("vc_dim", i),
                  lambda i: comparator_bound("relu_decomp", i)):
        with pytest.raises(AttributeError):
            bound(r)


def test_rad_lower_precondition():
    # R_W < r0 is no error: r0 is clamped to R_W, which leaves the
    # top-layer term, the lower bound at r0 := R_W
    _, snap, ds, _ = _trained_like(seed=5)
    r0 = float(np.min(np.linalg.norm(snap.W0, axis=1)))
    below = class_bound_inputs(ds, np.asarray(snap.W0), RELU,
                               R_W=0.5 * r0, R_V=1.3)
    top = 1.3 * below.init_term / (2 * math.sqrt(2) * ds.n)
    assert rad_lower(below) == pytest.approx(top, rel=1e-12)
    assert rad_lower(below) <= rad_upper_path(below)


def test_reported_rad_lower_rule():
    _, snap, ds, _ = _trained_like(seed=21)
    W0 = np.asarray(snap.W0)
    r0 = float(np.min(np.linalg.norm(W0, axis=1)))
    above = class_bound_inputs(ds, W0, RELU, R_W=r0 + 0.5, R_V=1.3)
    want = 0.5 * 1.3 * above.X_fro / (4 * math.sqrt(2) * ds.n) \
        + 1.3 * above.init_term / (2 * math.sqrt(2) * ds.n)
    assert rad_lower(above) == pytest.approx(want, rel=1e-12)
    # R_W < r0: the top-layer term, the lower bound at r0 := R_W
    below = class_bound_inputs(ds, W0, RELU, R_W=0.5 * r0, R_V=1.3)
    top = 1.3 * below.init_term / (2 * math.sqrt(2) * ds.n)
    assert rad_lower(below) == pytest.approx(top, rel=1e-12)
    # proved for ReLU only
    tanh = class_bound_inputs(ds, W0, TANH, R_W=r0 + 0.5, R_V=1.0)
    assert rad_lower(tanh) is None


def test_gen_bound_pn_zero_collapse():
    """W = W0 = 0, V = 0 on zero data leaves only the confidence term."""
    m, d, n = 3, 2, 10
    params = SnnParams(np.zeros((m, d)), np.zeros((1, m)), RELU)
    from snnbounds import InitSnapshot
    snap = InitSnapshot(np.zeros((m, d)), np.zeros((1, m)))
    ds = Dataset(np.zeros((d, n)), np.ones(n))
    report = measure_report(params, snap, ds)
    delta = 0.05
    want = 3.0 * math.sqrt(math.log(16.0 / delta) / (2.0 * n))
    assert gen_bound_pn(report, delta) == pytest.approx(want, rel=1e-12)


def test_gen_bound_pn_monotonicities():
    params, snap, ds, report = _trained_like(seed=6)
    base = gen_bound_pn(report, 0.01)
    # shrinking confidence (smaller delta) can only raise the bound
    assert gen_bound_pn(report, 0.001) > base
    # doubling n at fixed norms strictly decreases the bound
    assert gen_bound_pn(replace(report, n=2 * ds.n), 0.01) < base
    # inflating the head inflates kappa, R_V and the bound
    fat = SnnParams(params.W, 2.0 * params.V, RELU)
    fat_report = measure_report(fat, snap, ds)
    assert gen_bound_pn(fat_report, 0.01) > base


def test_gen_bound_spn_zero_path_norm():
    m, d, n = 3, 2, 16
    params = SnnParams(np.ones((m, d)), np.zeros((1, m)), RELU)
    ds = random_unit_dataset(make_rng(8), d, n)
    _, snap = init_kaiming(make_rng(8), m, d, 1)
    report = measure_report(params, snap, ds)
    delta = 0.02
    want = 4.0 / math.sqrt(n) + 3.0 * math.sqrt(
        math.log(4.0 / delta) / (2.0 * n))
    assert gen_bound_spn(report, delta) == pytest.approx(want, rel=1e-12)


def test_gen_bound_spn_compositional():
    params, snap, ds, report = _trained_like(seed=9)
    delta = 0.01
    kappa_s = float(np.abs(params.V[0]) @ np.linalg.norm(params.W, axis=1))
    want = 4.0 / ds.n * (kappa_s + 1.0) * report.X_fro + 3.0 * math.sqrt(
        math.log(2 * (kappa_s + 1) * (kappa_s + 2) / delta) / (2 * ds.n))
    assert gen_bound_spn(report, delta) == pytest.approx(want, rel=1e-12)
    fat = SnnParams(params.W, 2.0 * params.V, RELU)
    fat_report = measure_report(fat, snap, ds)
    assert gen_bound_spn(fat_report, delta) > gen_bound_spn(report, delta)


def test_comparator_rows_recomputed():
    """Each comparator row re-derived from the report fields, 1e-12; the
    norms of V that no field holds are taken from the parameters."""
    params, snap, ds, r = _trained_like(seed=10)
    n, m, d = ds.n, params.m, ds.d
    dd = r.X_fro / n
    di = r.b_x / math.sqrt(n)
    v_spectral = np.linalg.svd(params.V, compute_uv=False)[0]
    # ||V - V0||_{1,2}: the l2 norm of the columnwise l1 norms
    v_dist_12 = np.linalg.norm(np.abs(params.V - snap.V0).sum(axis=0))
    want = {
        "vc_dim": math.sqrt(d * m) * di,
        "inf1_product": r.w_inf1 * r.v_inf1 * dd,
        "spn_radbound": r.kappa_s * di,
        "fro_product": r.w_fro * r.R_V * dd,
        "spectral_12": (r.w_spectral * v_dist_12
                        + r.w_dist_12 * v_spectral) * dd,
        "pacbayes": (r.w_spectral * r.v_dist
                     + math.sqrt(m) * r.R_W * v_spectral) * di,
        "relu_decomp": (r.w0_spectral * r.R_V + r.R_W * r.R_V
                        + math.sqrt(m)) * dd,
        "lipschitz_smooth": (1.0 / r.b_x + r.R_V * (
            r.w0_spectral + r.R_W * (1.0 + r.w0_spectral * r.b_x))) * di,
        "adl": (r.w0_spectral * r.R_V + r.R_W * r.R_V) * di,
    }
    assert list(COMPARATORS) == list(want)
    for name, (data_dep, qualitative, _) in COMPARATORS.items():
        bv = comparator_bound(name, r)
        assert bv.method == name
        assert bv.value == pytest.approx(want[name], rel=1e-12)
        assert bv.data_dependent == data_dep
        assert bv.qualitative == qualitative
    assert comparator_bound("adl", r).qualitative
    with pytest.raises(KeyError):
        comparator_bound("nope", r)


def test_comparator_rows_at_init():
    params, snap = init_kaiming(make_rng(11), 4, 3, 1)
    ds = random_unit_dataset(make_rng(12), 3, 8)
    r = measure_report(params, snap, ds)
    # zero training distance: relu_decomp reduces to
    # (w0_spectral R_V + sqrt(m)) X_fro/n
    want7 = (r.w0_spectral * r.R_V + math.sqrt(4)) * r.X_fro / ds.n
    assert comparator_bound("relu_decomp", r).value == pytest.approx(
        want7, rel=1e-12)
    want9 = r.w0_spectral * r.R_V * r.b_x / math.sqrt(ds.n)
    assert comparator_bound("adl", r).value == pytest.approx(want9, rel=1e-12)


def test_all_bound_values_relu_full_set():
    params, snap, ds, report = _trained_like(seed=13)
    values = all_bound_values(report, delta=0.01)
    # bounds.csv order: the comparators, then the rows computed here
    assert [v.method for v in values] == [
        "vc_dim", "inf1_product", "spn_radbound", "fro_product",
        "spectral_12", "pacbayes", "relu_decomp", "lipschitz_smooth", "adl",
        "pn_ours", "spn_ours", "rad_upper_path", "rad_upper_frob", "rad_lower"]
    for v in values:
        assert math.isfinite(v.value) and v.value >= 0.0
    by_name = {v.method: v.value for v in values}
    assert by_name["rad_lower"] <= by_name["rad_upper_path"] + 1e-12
    r0 = min(float(np.min(np.linalg.norm(snap.W0, axis=1))), report.R_W)
    want = (report.R_W - r0) * report.R_V / (4 * math.sqrt(2) * ds.n) \
        * report.X_fro + report.R_V * report.init_term / (2 * math.sqrt(2) * ds.n)
    assert by_name["rad_lower"] == pytest.approx(want, rel=1e-12)


def test_all_bound_values_tanh_drops_lower():
    params, snap = init_kaiming(make_rng(14), 4, 3, 1, TANH)
    ds = random_unit_dataset(make_rng(15), 3, 8)
    report = measure_report(params, snap, ds)
    names = [v.method for v in all_bound_values(report, delta=0.01)]
    assert "rad_lower" not in names
    assert len(names) == 13


def test_bound_inputs_validation():
    _, _, _, report = _trained_like(seed=16)
    for size in ("n", "m"):
        with pytest.raises(ValueError, match=size):
            replace(report, **{size: 0})
    for bound in (gen_bound_pn, gen_bound_spn):
        for delta in (0.0, 1.0):
            with pytest.raises(ValueError, match="delta"):
                bound(report, delta)


@pytest.mark.parametrize("act", [RELU, TANH], ids=["relu", "tanh"])
def test_all_bound_values_identical_from_measures_csv(tmp_path, act):
    """Bounds from a measures.csv row equal, exactly, those from the report."""
    params, snap = init_kaiming(make_rng(17), 6, 3, 1, act)
    params.W = params.W + 0.3 * make_rng(18).standard_normal(params.W.shape)
    params.V = params.V + 0.1
    ds = random_unit_dataset(make_rng(19), 3, 11)
    report = measure_report(params, snap, ds)
    path = str(tmp_path / "measures.csv")
    _write_csv(path, MEASURE_CSV_FIELDS,
               [measure_row(report, ds.name, 0)])
    [(_, read_back)] = _read_measures(str(tmp_path))
    want = all_bound_values(report, delta=0.05)
    got = all_bound_values(read_back, delta=0.05)
    assert [v.method for v in got] == [v.method for v in want]
    assert got == want


# all_bound_values of two fixed reports at delta 0.01, as the reprs that
# bounds.csv writes: the exact floating-point result of every bound
_RELU_REPORT = dict(
    m=64, kappa=3.7, kappa_s=12.5, R_W=2.3, R_V=1.1, w_fro=9.8, v_dist=0.4,
    w0_spectral=3.1, w_spectral=3.4, w_dist_12=5.2,
    w_inf1=4.5, v_inf1=0.9, init_term=210.0, X_fro=54.7,
    gram_spec_sqrt=33.3, b_x=1.0, d=1024, activation=0, n=3000, r0=1.2)
_RELU_BOUNDS = {
    "vc_dim": "4.673899157377417", "inf1_product": "0.073845",
    "spn_radbound": "0.2282177322938192", "fro_product": "0.19655533333333336",
    "spectral_12": "0.129092", "pacbayes": "0.39436024140371956",
    "relu_decomp": "0.2541726666666667",
    "lipschitz_smooth": "0.26989941891996233", "adl": "0.10844906638602289",
    "pn_ours": "2.009027210254742", "spn_ours": "1.1105473443631442",
    "rad_upper_path": "0.49124660818495564",
    "rad_upper_frob": "0.49124660818495564", "rad_lower": "0.03112371745288158"}
_TANH_REPORT = dict(
    m=256, kappa=0.83, kappa_s=25.1, R_W=0.61, R_V=1.7, w_fro=16.3,
    v_dist=0.09, w0_spectral=3.9, w_spectral=3.95,
    w_dist_12=9.1, w_inf1=6.2, v_inf1=0.31, init_term=771.5,
    X_fro=54.7, gram_spec_sqrt=33.3, b_x=1.0, d=1024, activation=1, n=3000,
    r0=1.31)
_TANH_BOUNDS = {
    "vc_dim": "9.347798314754835", "inf1_product": "0.03504446666666667",
    "spn_radbound": "0.458261206445989", "fro_product": "0.5052456666666667",
    "spectral_12": "0.2885516166666666", "pacbayes": "0.30941760144396",
    "relu_decomp": "0.43152830000000003",
    "lipschitz_smooth": "0.2320755248405139", "adl": "0.13997962827973695",
    "pn_ours": "2.1559219095720223", "spn_ours": "2.0369379577484357",
    "rad_upper_path": "0.6157940496581421",
    "rad_upper_frob": "0.6157940496581421"}


@pytest.mark.parametrize("report, want", [(_RELU_REPORT, _RELU_BOUNDS),
                                          (_TANH_REPORT, _TANH_BOUNDS)],
                         ids=["relu", "tanh"])
def test_all_bound_values_pinned(report, want):
    values = all_bound_values(MeasureReport(**report), delta=0.01)
    assert {v.method: repr(v.value) for v in values} == want
