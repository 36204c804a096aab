"""Figure series assembly and a minimal deterministic SVG line-chart emitter.

Each figure is a function of the MeasureReports of measures.csv and the
confidence parameter delta: fig1a/fig1b plot measures, fig2/fig3 the bounds
that bounds.all_bound_values gives for each report.  A figure is written as a
tidy CSV (figure, m, series, mean, min, max) plus an SVG with a log2 x-axis,
log10 y-axis, one polyline per series and a shaded min-max band across seeds.
"""

import math
from dataclasses import dataclass

from . import bounds
from .datasets import DataError
from .files import atomic_open, write_csv

FIGURE_KINDS = ("fig1a", "fig1b", "fig2", "fig3")

FIG3_METHODS = [*bounds.COMPARATORS, "pn_ours", "spn_ours"]


@dataclass
class FigureSeries:
    label: str
    x: list       # widths m
    mean: list
    lo: list
    hi: list


def _values(kind, r, delta):
    """{series label: value} of one report r in a figure kind, in plot order."""
    if kind == "fig1a":
        return {"init_activation_term": r.R_V * r.init_term / r.n,
                "spectral_norm_proxy":
                    r.R_V * r.b_x * r.w0_spectral / math.sqrt(r.n)}
    if kind == "fig1b":
        return {"path_norm": r.kappa, "standard_path_norm": r.kappa_s}
    bound = {bv.method: bv.value for bv in bounds.all_bound_values(r, delta)}
    if kind == "fig3":
        return {method: bound[method] for method in FIG3_METHODS}
    return {**{method: bound[method] for method in bounds.COMPARATORS},
            "pn_dominant": (r.R_V * r.init_term / r.X_fro + r.kappa)
            * r.X_fro / r.n}


def figure_series(kind, reports, delta):
    """Series of one figure kind over MeasureReports, the bounds at delta:
    per width, the mean, min and max over the reports of that width."""
    if kind not in FIGURE_KINDS:
        raise DataError(f"unknown figure kind {kind!r}")
    if not reports:
        raise DataError(f"no measures to plot in {kind}")
    grouped = {}  # {label: {m: [value per report]}}
    for r in reports:
        for label, value in _values(kind, r, delta).items():
            grouped.setdefault(label, {}).setdefault(r.m, []).append(value)
    series = []
    for label, by_m in grouped.items():
        vals = [by_m[m] for m in sorted(by_m)]
        series.append(FigureSeries(label, sorted(by_m),
                                   [sum(v) / len(v) for v in vals],
                                   [min(v) for v in vals], [max(v) for v in vals]))
    return series


def write_figure_csv(path, kind, series_list):
    write_csv(path, ["figure", "m", "series", "mean", "min", "max"],
              [[kind, x, s.label, repr(mean), repr(lo), repr(hi)]
               for s in series_list
               for x, mean, lo, hi in zip(s.x, s.mean, s.lo, s.hi)])


_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
            "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#000000", "#666666"]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 170, 30, 50


def _fmt(v):
    return format(v, ".4f")


def render_svg(series_list, title=""):
    """Deterministic SVG rendering: identical input series give identical bytes."""
    xs_all = sorted({x for s in series_list for x in s.x})
    ys_all = [v for s in series_list for v in s.lo + s.hi + s.mean if v > 0]
    if not xs_all or not ys_all:
        raise DataError("nothing to plot")
    lx0, lx1 = math.log2(xs_all[0]), math.log2(xs_all[-1])
    if lx1 == lx0:
        lx0, lx1 = lx0 - 0.5, lx1 + 0.5
    ly0, ly1 = math.log10(min(ys_all)), math.log10(max(ys_all))
    if ly1 - ly0 < 1e-9:
        ly0, ly1 = ly0 - 0.5, ly1 + 0.5

    def px(x):
        return _ML + (math.log2(x) - lx0) / (lx1 - lx0) * (_W - _ML - _MR)

    def py(y):
        y = max(y, 10 ** ly0)
        return _H - _MB - (math.log10(y) - ly0) / (ly1 - ly0) * (_H - _MT - _MB)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    if title:
        parts.append(f'<text x="{_ML}" y="20" font-size="14">{title}</text>')
    # axes
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" '
                 f'y2="{_H - _MB}" stroke="black"/>')
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
                 f'stroke="black"/>')
    for x in xs_all:
        power = float(x).is_integer() and math.log2(x).is_integer()
        label = f"2^{int(math.log2(x))}" if power else x
        parts.append(f'<text x="{_fmt(px(x))}" y="{_H - _MB + 16}" '
                     f'font-size="10" text-anchor="middle">{label}</text>')
    for k in range(math.floor(ly0), math.ceil(ly1) + 1):
        parts.append(f'<text x="{_ML - 6}" y="{_fmt(py(10 ** k) + 3)}" '
                     f'font-size="10" text-anchor="end">1e{k}</text>')
    for idx, s in enumerate(series_list):
        color = _PALETTE[idx % len(_PALETTE)]
        band = [f"{_fmt(px(x))},{_fmt(py(hi))}" for x, hi in zip(s.x, s.hi)]
        band += [f"{_fmt(px(x))},{_fmt(py(lo))}"
                 for x, lo in zip(reversed(s.x), reversed(s.lo))]
        parts.append(f'<polygon points="{" ".join(band)}" fill="{color}" '
                     f'fill-opacity="0.15" stroke="none"/>')
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.x, s.mean))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = _MT + 14 * (idx + 1)
        parts.append(f'<line x1="{_W - _MR + 8}" y1="{ly}" x2="{_W - _MR + 28}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MR + 32}" y="{ly + 4}" font-size="10">'
                     f'{s.label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_figure(kind, reports, delta, out_csv, out_svg):
    """Write the figure CSV and SVG for one figure kind; returns the series."""
    series = figure_series(kind, reports, delta)
    write_figure_csv(out_csv, kind, series)
    with atomic_open(out_svg, "w") as f:
        f.write(render_svg(series, title=kind))
    return series
