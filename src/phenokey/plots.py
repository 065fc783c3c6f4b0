"""Self-contained SVG plots: measurement scatter with fitted line, deviation boxes.

No plotting library: the markup is assembled directly so output is byte-stable
and trivially inspectable (tests re-parse it with the XML parser).
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path

import numpy as np

from .errors import DegenerateFitError, DegenerateFitWarning, PhenokeyError
from .jsontext import csv_field, write_whole
from .metrics import ols_fit

_WIDTH, _HEIGHT = 640, 480
_MARGIN = 64
# the deviation summary of one list, in its CSV's column order
_QUANTILES = ("min", "q1", "median", "q3", "max")
# markup characters, and the white space an attribute value would fold into spaces, as character references
_XML = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\t": "&#9;", "\n": "&#10;",
                     "\r": "&#13;"})
# the characters no XML 1.0 document holds, not even as a character reference: C0 controls but tab, LF and CR,
# the surrogates, which a file name's undecodable bytes become in a command line, and U+FFFE, U+FFFF
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _xml_text(text: str, what: str) -> str:
    """``text`` escaped for SVG markup; a :class:`PhenokeyError` naming it if it holds a character XML forbids."""
    if bad := _NOT_XML.search(text):
        raise PhenokeyError(f"{what} {text!r}: {bad.group()!r} is a character an SVG (XML 1.0) cannot hold")
    return text.translate(_XML)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Frame:
    """Affine map from data space to the SVG plot box (y axis flipped)."""

    def __init__(self, x_range, y_range):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range

    @staticmethod
    def _padded(lo, hi):
        if hi == lo:
            pad = abs(hi) * 0.05 + 1.0
        else:
            pad = (hi - lo) * 0.05
        return lo - pad, hi + pad

    @classmethod
    def around(cls, xs, ys):
        return cls(cls._padded(min(xs), max(xs)), cls._padded(min(ys), max(ys)))

    def px(self, x):
        frac = (x - self.x0) / (self.x1 - self.x0)
        return _MARGIN + frac * (_WIDTH - 2 * _MARGIN)

    def py(self, y):
        frac = (y - self.y0) / (self.y1 - self.y0)
        return _HEIGHT - _MARGIN - frac * (_HEIGHT - 2 * _MARGIN)


def _svg_document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    style = (
        "<style>"
        "text{font-family:sans-serif;font-size:12px;}"
        ".title{font-size:14px;}"
        ".pt{fill:#3566b0;fill-opacity:0.75;}"
        ".fit{stroke:#c23b3b;stroke-width:1.5;}"
        ".axis{stroke:#222222;stroke-width:1;fill:none;}"
        ".box{fill:#9ec2e8;stroke:#1f4e79;stroke-width:1;}"
        ".whisker{stroke:#1f4e79;stroke-width:1;}"
        ".median{stroke:#c23b3b;stroke-width:1.5;}"
        "</style>"
    )
    return "\n".join([head, style, *body, "</svg>"]) + "\n"


def _axes(frame: _Frame) -> list[str]:
    return [
        f'<rect class="axis" x="{_MARGIN}" y="{_MARGIN}" '
        f'width="{_WIDTH - 2 * _MARGIN}" height="{_HEIGHT - 2 * _MARGIN}"/>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 16}" text-anchor="middle">ground truth (px)</text>',
        f'<text x="16" y="{_HEIGHT // 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_HEIGHT // 2})">predicted (px)</text>',
        f'<text x="{_MARGIN}" y="{_HEIGHT - _MARGIN + 16}" text-anchor="middle">{frame.x0:.4g}</text>',
        f'<text x="{_WIDTH - _MARGIN}" y="{_HEIGHT - _MARGIN + 16}" text-anchor="middle">{frame.x1:.4g}</text>',
        f'<text x="{_MARGIN - 6}" y="{_HEIGHT - _MARGIN + 4}" text-anchor="end">{frame.y0:.4g}</text>',
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" text-anchor="end">{frame.y1:.4g}</text>',
    ]


def plot_scatter(pairs, out, title: str = "") -> None:
    """Scatter the (gt, pred) pairs, overlay the least-squares line, annotate R².

    With a degenerate fit (constant ground truth) the plot is still written,
    minus the line, and a :class:`DegenerateFitWarning` is emitted.
    """
    pairs = [(float(g), float(p)) for g, p in pairs]
    if len(pairs) < 2:
        raise ValueError(f"need at least 2 points to plot, got {len(pairs)}")
    xs = [g for g, _ in pairs]
    ys = [p for _, p in pairs]
    frame = _Frame.around(xs, ys)
    body = _axes(frame)
    if title:
        title = _xml_text(title, "title")
        body.append(f'<text class="title" x="{_WIDTH // 2}" y="24" text-anchor="middle">{title}</text>')
    for g, p in pairs:
        body.append(f'<circle class="pt" cx="{_fmt(frame.px(g))}" cy="{_fmt(frame.py(p))}" r="3"/>')
    try:
        slope, intercept, r2 = ols_fit(xs, ys)
    except DegenerateFitError:
        warnings.warn("constant ground truth; scatter emitted without a fitted line",
                      DegenerateFitWarning, stacklevel=2)
    else:
        x_lo, x_hi = min(xs), max(xs)
        body.append(
            f'<line class="fit" x1="{_fmt(frame.px(x_lo))}" y1="{_fmt(frame.py(slope * x_lo + intercept))}" '
            f'x2="{_fmt(frame.px(x_hi))}" y2="{_fmt(frame.py(slope * x_hi + intercept))}"/>'
        )
        sign = "+" if intercept >= 0 else "-"
        body.append(
            f'<text class="eq" x="{_MARGIN + 8}" y="{_MARGIN + 18}">'
            f"y = {slope:.3g}x {sign} {abs(intercept):.3g}</text>"
        )
        body.append(
            f'<text class="r2" x="{_MARGIN + 8}" y="{_MARGIN + 34}">R² = {r2 * 100:.1f}%</text>'
        )
    write_whole(out, [_svg_document(body)])


def deviation_quantiles(values) -> dict:
    """min/q1/median/q3/max of one deviation list (linear interpolation)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("deviation list is empty")
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return dict(zip(_QUANTILES, map(float, (arr.min(), q1, med, q3, arr.max()))))


def plot_deviation_summary(deviations: dict, out, csv_path=None) -> None:
    """Box-and-whisker summary of pixel deviations, one group per labeled list.

    Also writes the quantiles as CSV (next to the SVG unless ``csv_path``
    says otherwise).
    """
    if not deviations:
        raise ValueError("need at least one labeled deviation list")
    markup = {label: _xml_text(label, "label") for label in deviations}
    stats = {label: deviation_quantiles(vals) for label, vals in deviations.items()}
    labels = list(stats)
    lo = min(s["min"] for s in stats.values())
    hi = max(s["max"] for s in stats.values())
    frame = _Frame((0.0, float(len(labels))), _Frame._padded(lo, hi))
    body = [
        f'<rect class="axis" x="{_MARGIN}" y="{_MARGIN}" '
        f'width="{_WIDTH - 2 * _MARGIN}" height="{_HEIGHT - 2 * _MARGIN}"/>',
        f'<text class="title" x="{_WIDTH // 2}" y="24" text-anchor="middle">positional deviation (px)</text>',
        f'<text x="{_MARGIN - 6}" y="{_HEIGHT - _MARGIN + 4}" text-anchor="end">{frame.y0:.4g}</text>',
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" text-anchor="end">{frame.y1:.4g}</text>',
    ]
    half_width = 0.18
    for pos, label in enumerate(labels):
        s = stats[label]
        cx = pos + 0.5
        x_left = frame.px(cx - half_width)
        x_right = frame.px(cx + half_width)
        x_mid = frame.px(cx)
        box_top = frame.py(s["q3"])
        box_height = max(frame.py(s["q1"]) - box_top, 0.5)
        body += [
            f'<g class="box-group" data-label="{markup[label]}">',
            f'<line class="whisker" x1="{_fmt(x_mid)}" y1="{_fmt(frame.py(s["min"]))}" '
            f'x2="{_fmt(x_mid)}" y2="{_fmt(frame.py(s["q1"]))}"/>',
            f'<line class="whisker" x1="{_fmt(x_mid)}" y1="{_fmt(frame.py(s["q3"]))}" '
            f'x2="{_fmt(x_mid)}" y2="{_fmt(frame.py(s["max"]))}"/>',
            f'<rect class="box" x="{_fmt(x_left)}" y="{_fmt(box_top)}" '
            f'width="{_fmt(x_right - x_left)}" height="{_fmt(box_height)}"/>',
            f'<line class="median" x1="{_fmt(x_left)}" y1="{_fmt(frame.py(s["median"]))}" '
            f'x2="{_fmt(x_right)}" y2="{_fmt(frame.py(s["median"]))}"/>',
            f'<text x="{_fmt(x_mid)}" y="{_HEIGHT - _MARGIN + 16}" text-anchor="middle">{markup[label]}</text>',
            "</g>",
        ]
    rows = [["metric", *_QUANTILES], *([label, *map(repr, stats[label].values())] for label in labels)]
    write_whole(out, [_svg_document(body)],    # the SVG and its CSV are committed as a pair
                (Path(out).with_suffix(".csv") if csv_path is None else csv_path,
                 (",".join(map(csv_field, row)) + "\r\n" for row in rows)))
