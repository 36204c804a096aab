"""Figure series assembly and a minimal deterministic SVG line-chart emitter.

Each figure is derived from measures.csv / bounds.csv alone and written as a
tidy CSV (figure, m, series, mean, min, max) plus an SVG with a log2 x-axis,
log10 y-axis, one polyline per series and a shaded min-max band across seeds.
The sample size n is the n column of measures.csv.
"""

import csv
import math
from dataclasses import dataclass

from .bounds import COMPARATOR_NAMES
from .files import atomic_open

FIGURE_KINDS = ("fig1a", "fig1b", "fig2", "fig3")
BOUNDS_FIGURE_KINDS = ("fig2", "fig3")  # the kinds that read bounds.csv

FIG3_METHODS = COMPARATOR_NAMES + ["pn_ours", "spn_ours"]


class FigureError(Exception):
    pass


@dataclass
class FigureSeries:
    label: str
    x: list       # widths m
    mean: list
    lo: list
    hi: list


def _group(rows, key_fn, value_fn):
    """{key: [values]} over rows, keys sorted, skipping rows value_fn rejects."""
    out = {}
    for row in rows:
        val = value_fn(row)
        if val is None:
            continue
        out.setdefault(key_fn(row), []).append(val)
    return dict(sorted(out.items()))


def _series_from(rows, label, value_fn):
    grouped = _group(rows, lambda r: int(r["m"]), value_fn)
    if not grouped:
        raise FigureError(f"no rows found for series {label!r}")
    xs = list(grouped)
    means = [sum(v) / len(v) for v in grouped.values()]
    los = [min(v) for v in grouped.values()]
    his = [max(v) for v in grouped.values()]
    return FigureSeries(label, xs, means, los, his)


def _bound_series(bound_rows, method):
    return _series_from(bound_rows, method, lambda r: float(r["value"])
                        if r["method"] == method else None)


def _measure_value(field):
    return lambda row: float(row[field])


def figure_series(kind, measure_rows, bound_rows):
    """Series definitions for the four figure kinds."""
    if kind == "fig1a":
        def init_scaled(r):
            return float(r["R_V"]) * float(r["init_term"]) / int(r["n"])

        def spectral_proxy(r):
            return float(r["R_V"]) * float(r["b_x"]) * float(r["w0_spectral"]) \
                / math.sqrt(int(r["n"]))
        return [_series_from(measure_rows, "init_activation_term", init_scaled),
                _series_from(measure_rows, "spectral_norm_proxy", spectral_proxy)]
    if kind == "fig1b":
        return [_series_from(measure_rows, "path_norm", _measure_value("kappa")),
                _series_from(measure_rows, "standard_path_norm",
                             _measure_value("kappa_s"))]
    if kind == "fig2":
        series = [_bound_series(bound_rows, method) for method in COMPARATOR_NAMES]

        def pn_dominant(r):
            return (float(r["R_V"]) * float(r["init_term"]) / float(r["X_fro"])
                    + float(r["kappa"])) * float(r["X_fro"]) / int(r["n"])
        series.append(_series_from(measure_rows, "pn_dominant", pn_dominant))
        return series
    if kind == "fig3":
        return [_bound_series(bound_rows, method) for method in FIG3_METHODS]
    raise FigureError(f"unknown figure kind {kind!r}")


def write_figure_csv(path, kind, series_list):
    with atomic_open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["figure", "m", "series", "mean", "min", "max"])
        for s in series_list:
            for x, mean, lo, hi in zip(s.x, s.mean, s.lo, s.hi):
                writer.writerow([kind, x, s.label, repr(mean), repr(lo), repr(hi)])


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
        raise FigureError("nothing to plot")
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


def emit_figure(kind, measure_rows, bound_rows, out_csv, out_svg):
    """Write the figure CSV and SVG for one figure kind; returns the series."""
    series = figure_series(kind, measure_rows, bound_rows)
    write_figure_csv(out_csv, kind, series)
    with atomic_open(out_svg, "w") as f:
        f.write(render_svg(series, title=kind))
    return series
