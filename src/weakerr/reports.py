"""Report serialization: JSON, RFC-4180 CSV, and static SVG log-log plots.

Float fields serialize via ``repr``, i.e. the shortest decimal string that
round-trips exactly, so parsing a report back yields bitwise-identical
values.  Emitted files contain no timestamps: a seeded run reproduces its
outputs byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, astuple, fields

from .expansion import LeadingConstant
from .montecarlo import LevelEstimate, RichardsonPoint, WeakErrorReport
from .rates import ExpansionRow, ExpansionTable, RateFit

FORMATS = ("json", "csv", "svg")


def _rate_fit_dict(fit: RateFit) -> dict:
    return {"slope": fit.slope, "intercept": fit.intercept,
            "r_squared": fit.r_squared, "n_excluded": fit.n_excluded,
            "points": [list(pt) for pt in fit.points]}


def _table(row_type, items) -> tuple:
    """csv (header, rows) of dataclass rows, one column per field."""
    return [f.name for f in fields(row_type)], [astuple(r) for r in items]


def _records(table) -> list:
    """The rows of a csv table as json objects keyed by its header."""
    header, rows = table
    return [dict(zip(header, row)) for row in rows]


def _views(report):
    """(json payload, csv (header, rows) or None, svg (title, series, fit) or None).

    The svg series is [(label, [(h, |err|), ...]), ...].  This is the one
    place that knows the report types; a None view is a format the type lacks.
    """
    if isinstance(report, WeakErrorReport):
        table = _table(LevelEstimate, report.levels)
        payload = {"problem": report.problem, "scheme": report.scheme,
                   "reference": report.reference,
                   "reference_source": report.reference_source,
                   "levels": _records(table)}
        pts = [(lv.h, abs(lv.estimate)) for lv in report.levels]
        return payload, table, (f"{report.problem} / {report.scheme}",
                                [("weak error", pts)], None)
    if isinstance(report, ExpansionTable):
        rows, fit = report.rows, report.residual_fit
        table = _table(ExpansionRow, rows)
        payload = {"problem": report.problem, "psi_kind": report.psi_name,
                   "c1": asdict(report.c1), "levels": _records(table),
                   "residual_fit": None if fit is None else _rate_fit_dict(fit)}
        series = [
            ("weak error", [(r.h, abs(r.weak_err)) for r in rows]),
            ("residual", [(r.h, abs(r.second_order_residual)) for r in rows]),
        ]
        return payload, table, (f"{report.problem} / {report.psi_name}", series, fit)
    if isinstance(report, RateFit):
        return (_rate_fit_dict(report), (["h", "abs_err"], report.points),
                ("rate fit", [("error", list(report.points))], report))
    if isinstance(report, LeadingConstant):
        return asdict(report), None, None
    if isinstance(report, list) and all(isinstance(r, RichardsonPoint) for r in report):
        table = _table(RichardsonPoint, report)
        pts = [(r.h, abs(r.extrapolated_error)) for r in report]
        return ({"points": _records(table)}, table,
                ("richardson", [("extrapolated error", pts)], None))
    if isinstance(report, dict):
        return report, None, None
    raise TypeError(f"cannot serialize report of type {type(report).__name__}")


def _non_finite(value, path=""):
    """(JSON path, value) of each NaN or infinite float in a json payload, in order."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _non_finite(item, f"{path}[{i}]")


def _render_svg(title, series, fit) -> str:
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 40, 50
    pts = [(h, e) for _, data in series for h, e in data if e > 0 and h > 0]
    if pts:
        xs = [math.log10(h) for h, _ in pts]
        ys = [math.log10(e) for _, e in pts]
        x_lo, x_hi = min(xs) - 0.2, max(xs) + 0.2
        y_lo, y_hi = min(ys) - 0.3, max(ys) + 0.3
    else:
        x_lo, x_hi, y_lo, y_hi = -3.0, 0.0, -3.0, 0.0
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def sx(logh):
        return ml + (logh - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(loge):
        return height - mb - (loge - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        f'fill="none" stroke="#444"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">h (log scale)</text>',
    ]
    for tick in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        parts.append(f'<line x1="{sx(tick):.2f}" y1="{height - mb}" '
                     f'x2="{sx(tick):.2f}" y2="{height - mb + 5}" stroke="#444"/>')
        parts.append(f'<text x="{sx(tick):.2f}" y="{height - mb + 20}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="12">'
                     f'1e{tick}</text>')
    for tick in range(math.ceil(y_lo), math.floor(y_hi) + 1):
        parts.append(f'<line x1="{ml - 5}" y1="{sy(tick):.2f}" x2="{ml}" '
                     f'y2="{sy(tick):.2f}" stroke="#444"/>')
        parts.append(f'<text x="{ml - 8}" y="{sy(tick):.2f}" text-anchor="end" '
                     f'dominant-baseline="middle" font-family="sans-serif" '
                     f'font-size="12">1e{tick}</text>')
    for idx, (label, data) in enumerate(series):
        color = colors[idx % len(colors)]
        shown = [(h, e) for h, e in data if h > 0 and e > 0]
        if not shown:
            continue
        coords = " ".join(f"{sx(math.log10(h)):.2f},{sy(math.log10(e)):.2f}"
                          for h, e in sorted(shown))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        for h, e in shown:
            parts.append(f'<circle cx="{sx(math.log10(h)):.2f}" '
                         f'cy="{sy(math.log10(e)):.2f}" r="3" fill="{color}"/>')
        parts.append(f'<text x="{width - mr - 8}" y="{mt + 18 + 16 * idx}" '
                     f'text-anchor="end" font-family="sans-serif" font-size="12" '
                     f'fill="{color}">{label}</text>')
    if fit is not None:
        ln10 = math.log(10.0)
        y0 = (fit.slope * x_lo * ln10 + fit.intercept) / ln10
        y1 = (fit.slope * x_hi * ln10 + fit.intercept) / ln10
        parts.append(f'<line x1="{sx(x_lo):.2f}" y1="{sy(y0):.2f}" '
                     f'x2="{sx(x_hi):.2f}" y2="{sy(y1):.2f}" stroke="#888" '
                     f'stroke-dasharray="6,4"/>')
        parts.append(f'<text x="{ml + 10}" y="{mt + 18}" font-family="sans-serif" '
                     f'font-size="13">slope = {fit.slope:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(report, format: str) -> str:
    """The text of ``report`` as json, csv or svg.

    Raises TypeError for an object that is not a report, ValueError for a
    format its report type lacks, and FloatingPointError naming the first
    NaN or infinite field by its JSON path (``levels[0].estimate``): such a
    report is refused in every format.
    """
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    payload, table, plot = _views(report)
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        path, value = next(_non_finite(payload))
        raise FloatingPointError(f"report field {path} is {value!r}") from None
    if format == "json":
        return text
    view = table if format == "csv" else plot
    if view is None:
        raise ValueError(f"a {type(report).__name__} report has no {format} form")
    if format == "svg":
        return _render_svg(*view)
    header, rows = view
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def emit_report(report, format: str, path) -> None:
    """Write :func:`render`'s text of a report to ``path``.

    Nothing is written when rendering fails.  IO failures propagate as
    OSError with the offending path attached.
    """
    text = render(report, format)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
