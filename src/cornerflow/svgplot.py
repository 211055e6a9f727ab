"""Minimal deterministic SVG line plots (no plotting dependency)."""

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_LEVELS = (0.25, 0.5, 0.75)  # level sets drawn, as fractions of the field maximum
_XLABEL, _YLABEL = "log10 r", "M, N"  # the axes of the one line plot, a sweep's


def _ticks(lo, hi):
    n = 5  # ticks per axis, at most
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * span:
        out.append(v)
        v += step
    return out


def _page(title, *frame):
    """The head of a plot: the svg element, its white page, ``frame`` and the title."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        *frame,
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]


def _maps(xlo, xhi, ylo, yhi):
    """The maps sx, sy of data coordinates to the pixels of the plot area."""

    def sx(x):
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    return sx, sy


def _write(path, parts):
    """Close the svg element after ``parts`` and write the lines to ``path``."""
    with open(path, "w") as f:
        f.write("\n".join(parts + ["</svg>"]) + "\n")


def write_svg_lines(path, xs, series, title):
    """Write polyline series ([(label, ys), ...]) against log10 of xs to an SVG file."""
    xv = [math.log10(x) for x in xs]
    ys_all = [y for _, ys in series for y in ys if y == y and abs(y) != float("inf")]
    if not ys_all:
        ys_all = [0.0, 1.0]
    ylo, yhi = min(ys_all), max(ys_all)
    if yhi == ylo:
        ylo -= 0.5
        yhi += 0.5
    pad = 0.05 * (yhi - ylo)
    ylo -= pad
    yhi += pad
    xlo, xhi = min(xv), max(xv)
    if xhi == xlo:
        xhi = xlo + 1.0
    sx, sy = _maps(xlo, xhi, ylo, yhi)
    parts = _page(title, f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
                  'fill="none" stroke="black" stroke-width="1"/>')
    for tv in _ticks(xlo, xhi):
        x = sx(tv)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 18}" text-anchor="middle" font-size="11">1e{tv:.0f}</text>'
        )
    for tv in _ticks(ylo, yhi):
        y = sy(tv)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="11">{tv:.4g}</text>'
        )
    parts.append(
        f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle" font-size="12">{_XLABEL}</text>'
    )
    parts.append(
        f'<text x="18" y="{_H / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {_H / 2:.1f})">{_YLABEL}</text>'
    )
    for k, (label, ys) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}"
            for x, y in zip(xv, ys)
            if y == y and abs(y) != float("inf")
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 14 * k}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    _write(path, parts)


def write_svg_levels(path, field, title):
    """Scatter the cells nearest to each level set of a grid field."""
    import numpy as np

    vals = field.values
    vmax = float(np.max(vals)) if vals.size else 0.0
    parts = _page(title)
    sx, sy = _maps(field.x1_min, field.x1_max, field.x2_min, field.x2_max)
    x1 = field.cell_x1
    x2 = field.cell_x2
    for k, lv in enumerate(_LEVELS):
        color = _COLORS[k % len(_COLORS)]
        target = lv * vmax
        band = 0.6 * field.h * max(vmax, 1e-300)
        ii, jj = np.nonzero(np.abs(vals - target) < band)
        for i, j in zip(ii.tolist(), jj.tolist()):
            parts.append(
                f'<circle cx="{sx(x1[i]):.2f}" cy="{sy(x2[j]):.2f}" r="1.2" fill="{color}"/>'
            )
    _write(path, parts)
