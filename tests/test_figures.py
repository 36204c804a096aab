import csv
import math
import os

import pytest

from snnbounds.bounds import ClassMeasures, rad_upper_path
from snnbounds.figures import (FIG3_METHODS, FIGURE_KINDS, FigureError,
                               figure_series, render_svg, write_figure_csv)


def _measure_row(m, seed, kappa, kappa_s, n=16):
    return {
        "dataset": "synthetic", "seed": str(seed), "m": str(m),
        "kappa": repr(kappa), "kappa_s": repr(kappa_s),
        "R_W": "0.5", "R_V": "1.5", "init_term": "2.0",
        "X_fro": repr(math.sqrt(n)), "b_x": "1.0", "w0_spectral": "1.2",
        "n": str(n),
    }


def _bound_rows(widths, seeds):
    rows = []
    for m in widths:
        for seed in seeds:
            for i, method in enumerate(FIG3_METHODS):
                rows.append({"dataset": "synthetic", "seed": str(seed),
                             "m": str(m), "method": method,
                             "value": repr(0.1 * (i + 1) * m + 0.01 * seed),
                             "delta": "0.01", "data_dependent": "True",
                             "qualitative": "False"})
    return rows


def test_fig1b_groups_and_sorts():
    rows = [_measure_row(64, 0, 2.0, 8.0), _measure_row(16, 0, 1.0, 4.0),
            _measure_row(16, 1, 1.2, 4.4)]
    series = figure_series("fig1b", rows, [])
    labels = {s.label for s in series}
    assert labels == {"path_norm", "standard_path_norm"}
    pn = next(s for s in series if s.label == "path_norm")
    assert pn.x == [16, 64]
    assert pn.mean[0] == pytest.approx(1.1)
    assert pn.lo[0] == 1.0 and pn.hi[0] == 1.2


def test_single_seed_band_collapses():
    rows = [_measure_row(16, 0, 1.0, 4.0), _measure_row(64, 0, 2.0, 8.0)]
    for s in figure_series("fig1b", rows, []):
        assert s.lo == s.mean == s.hi


def test_fig1a_series():
    rows = [_measure_row(16, 0, 1.0, 4.0)]
    series = figure_series("fig1a", rows, [])
    init = next(s for s in series if s.label == "init_activation_term")
    # R_V * init_term / n with n from the n column
    assert init.mean[0] == pytest.approx(1.5 * 2.0 / 16.0, rel=1e-12)
    proxy = next(s for s in series if s.label == "spectral_norm_proxy")
    assert proxy.mean[0] == pytest.approx(1.5 * 1.0 * 1.2 / 4.0, rel=1e-12)


def test_fig1a_init_term_divides_by_the_n_column():
    # ||X||_F of 13007 unit-norm columns as summed in floating point; its
    # square is 13007.000000000013, not n
    row = {**_measure_row(16, 0, 1.0, 4.0, n=13007), "X_fro": "114.04823540940917"}
    assert float(row["X_fro"]) ** 2 != 13007
    init = next(s for s in figure_series("fig1a", [row], [])
                if s.label == "init_activation_term")
    # the init term of rad_upper_path: all of it on a class with R_W = 0
    cls = ClassMeasures(m=16, c=1, activation=0, R_W=0.0, R_V=1.5,
                        init_term=2.0, X_fro=1.0, gram_spec_sqrt=1.0, n=13007,
                        r0=0.0)
    assert init.mean[0] == 1.5 * 2.0 / 13007 == rad_upper_path(cls)


def test_fig2_and_fig3_series():
    mrows = [_measure_row(16, 0, 1.0, 4.0), _measure_row(64, 0, 2.0, 8.0)]
    brows = _bound_rows([16, 64], [0, 1])
    comparators = ["vc_dim", "inf1_product", "spn_radbound", "fro_product",
                   "spectral_12", "pacbayes", "relu_decomp",
                   "lipschitz_smooth", "adl"]
    f2 = figure_series("fig2", mrows, brows)
    # nine comparators plus the dominant-term series
    assert [s.label for s in f2] == comparators + ["pn_dominant"]
    f3 = figure_series("fig3", mrows, brows)
    assert [s.label for s in f3] == FIG3_METHODS
    assert FIG3_METHODS == comparators + ["pn_ours", "spn_ours"]
    for s in f3:
        assert s.x == [16, 64]


def test_missing_series_named_error():
    with pytest.raises(FigureError):
        figure_series("fig3", [], [])
    with pytest.raises(FigureError):
        figure_series("fig9", [], [])


def test_csv_emission(tmp_path):
    rows = [_measure_row(16, 0, 1.0, 4.0)]
    series = figure_series("fig1b", rows, [])
    path = os.path.join(tmp_path, "fig1b.csv")
    write_figure_csv(path, "fig1b", series)
    with open(path, newline="") as f:
        back = list(csv.DictReader(f))
    assert back[0]["figure"] == "fig1b"
    assert {r["series"] for r in back} == {"path_norm", "standard_path_norm"}
    assert float(back[0]["mean"]) == float(back[0]["min"]) == float(back[0]["max"])


def test_svg_deterministic_and_wellformed():
    rows = [_measure_row(16, 0, 1.0, 4.0), _measure_row(64, 0, 2.0, 8.0)]
    series = figure_series("fig1b", rows, [])
    a = render_svg(series, title="fig1b")
    b = render_svg(series, title="fig1b")
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
    assert a.count("<polyline") == len(series)
    assert a.count("<polygon") == len(series)


def test_svg_width_ticks():
    rows = [_measure_row(m, 0, 1.0, 4.0) for m in (16, 24, 64)]
    svg = render_svg(figure_series("fig1b", rows, []))
    ticks = [line.rsplit(">", 2)[1].removesuffix("</text")
             for line in svg.splitlines() if 'text-anchor="middle"' in line]
    assert ticks == ["2^4", "24", "2^6"]


def test_svg_rejects_empty():
    with pytest.raises(FigureError):
        render_svg([])


def test_figure_kinds_registry():
    assert FIGURE_KINDS == ("fig1a", "fig1b", "fig2", "fig3")
