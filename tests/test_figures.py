import csv
import dataclasses
import math
import os

import pytest

from snnbounds.bounds import all_bound_values, rad_upper_path
from snnbounds.datasets import DataError
from snnbounds.figures import (FIG3_METHODS, FIGURE_KINDS, figure_series,
                               render_svg, write_figure_csv)
from snnbounds.measures import ClassMeasures, MeasureReport


def _report(m, kappa, kappa_s, n=16):
    """A MeasureReport of a ReLU network of width m with norms of order 1."""
    return MeasureReport(
        m=m, kappa=kappa, kappa_s=kappa_s, R_W=0.5, R_V=1.5, w_fro=2.5,
        v_dist=1.4, w0_spectral=1.2, w_spectral=1.3,
        w_dist_12=0.7, w_inf1=3.0, v_inf1=2.0, init_term=2.0,
        X_fro=math.sqrt(n), gram_spec_sqrt=1.1, b_x=1.0, d=8,
        activation=0, n=n, r0=0.9)


def test_fig1b_groups_and_sorts():
    reports = [_report(64, 2.0, 8.0), _report(16, 1.0, 4.0),
               _report(16, 1.2, 4.4)]
    series = figure_series("fig1b", reports, 0.01)
    labels = {s.label for s in series}
    assert labels == {"path_norm", "standard_path_norm"}
    pn = next(s for s in series if s.label == "path_norm")
    assert pn.x == [16, 64]
    assert pn.mean[0] == pytest.approx(1.1)
    assert pn.lo[0] == 1.0 and pn.hi[0] == 1.2


def test_single_seed_band_collapses():
    reports = [_report(16, 1.0, 4.0), _report(64, 2.0, 8.0)]
    for s in figure_series("fig1b", reports, 0.01):
        assert s.lo == s.mean == s.hi


def test_fig1a_series():
    series = figure_series("fig1a", [_report(16, 1.0, 4.0)], 0.01)
    init = next(s for s in series if s.label == "init_activation_term")
    # R_V * init_term / n with n from the n column
    assert init.mean[0] == pytest.approx(1.5 * 2.0 / 16.0, rel=1e-12)
    proxy = next(s for s in series if s.label == "spectral_norm_proxy")
    assert proxy.mean[0] == pytest.approx(1.5 * 1.0 * 1.2 / 4.0, rel=1e-12)


def test_fig1a_init_term_divides_by_the_n_column():
    # ||X||_F of 13007 unit-norm columns as summed in floating point; its
    # square is 13007.000000000013, not n
    report = dataclasses.replace(_report(16, 1.0, 4.0, n=13007),
                                 X_fro=114.04823540940917)
    assert report.X_fro ** 2 != 13007
    init = next(s for s in figure_series("fig1a", [report], 0.01)
                if s.label == "init_activation_term")
    # the init term of rad_upper_path: all of it on a class with R_W = 0
    cls = ClassMeasures(m=16, activation=0, R_W=0.0, R_V=1.5,
                        init_term=2.0, X_fro=1.0, gram_spec_sqrt=1.0, n=13007,
                        r0=0.0)
    assert init.mean[0] == 1.5 * 2.0 / 13007 == rad_upper_path(cls)


def test_fig2_and_fig3_series():
    # two seeds at m = 16, one at m = 64
    reports = [_report(16, 1.0, 4.0), _report(64, 2.0, 8.0),
               _report(16, 1.2, 4.4)]
    comparators = ["vc_dim", "inf1_product", "spn_radbound", "fro_product",
                   "spectral_12", "pacbayes", "relu_decomp",
                   "lipschitz_smooth", "adl"]
    assert FIG3_METHODS == comparators + ["pn_ours", "spn_ours"]
    for delta in (0.01, 0.2):  # pn_ours and spn_ours depend on delta
        bounds = [{bv.method: bv.value for bv in all_bound_values(r, delta)}
                  for r in reports]
        f2 = figure_series("fig2", reports, delta)
        # nine comparators plus the dominant-term series
        assert [s.label for s in f2] == comparators + ["pn_dominant"]
        f3 = figure_series("fig3", reports, delta)
        assert [s.label for s in f3] == FIG3_METHODS
        for s in f2[:-1] + f3:
            at16 = [bounds[0][s.label], bounds[2][s.label]]
            assert s.x == [16, 64]
            assert s.mean == [sum(at16) / 2, bounds[1][s.label]]
            assert s.lo == [min(at16), bounds[1][s.label]]
            assert s.hi == [max(at16), bounds[1][s.label]]


def test_missing_series_named_error():
    with pytest.raises(DataError):
        figure_series("fig3", [], 0.01)
    with pytest.raises(DataError):
        figure_series("fig9", [_report(16, 1.0, 4.0)], 0.01)


def test_csv_emission(tmp_path):
    series = figure_series("fig1b", [_report(16, 1.0, 4.0)], 0.01)
    path = os.path.join(tmp_path, "fig1b.csv")
    write_figure_csv(path, "fig1b", series)
    with open(path, newline="") as f:
        back = list(csv.DictReader(f))
    assert back[0]["figure"] == "fig1b"
    assert {r["series"] for r in back} == {"path_norm", "standard_path_norm"}
    assert float(back[0]["mean"]) == float(back[0]["min"]) == float(back[0]["max"])


def test_svg_deterministic_and_wellformed():
    reports = [_report(16, 1.0, 4.0), _report(64, 2.0, 8.0)]
    series = figure_series("fig1b", reports, 0.01)
    a = render_svg(series, title="fig1b")
    b = render_svg(series, title="fig1b")
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
    assert a.count("<polyline") == len(series)
    assert a.count("<polygon") == len(series)


def test_svg_width_ticks():
    reports = [_report(m, 1.0, 4.0) for m in (16, 24, 64)]
    svg = render_svg(figure_series("fig1b", reports, 0.01))
    ticks = [line.rsplit(">", 2)[1].removesuffix("</text")
             for line in svg.splitlines() if 'text-anchor="middle"' in line]
    assert ticks == ["2^4", "24", "2^6"]


def test_svg_flat_series_drawn_at_mid_height():
    # every plotted value equal: the y range is widened to half a decade on
    # each side, so the lines run through the middle of the plot
    reports = [_report(m, 2.0, 2.0) for m in (16, 64)]
    svg = render_svg(figure_series("fig1b", reports, 0.01))
    lines = [line for line in svg.splitlines() if line.startswith("<polyline")]
    assert len(lines) == 2
    for line in lines:
        points = line.split('points="')[1].split('"')[0].split()
        assert [p.split(",")[1] for p in points] == ["230.0000"] * 2


def test_svg_rejects_empty():
    with pytest.raises(DataError):
        render_svg([])


def test_figure_kinds_registry():
    assert FIGURE_KINDS == ("fig1a", "fig1b", "fig2", "fig3")
