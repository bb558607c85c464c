"""Deterministic report emission: canonical JSON, fixed-column CSV, plain SVG.

Reports carry no timestamps or environment-dependent fields, so identical
configurations produce byte-identical files.
"""
from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

CSV_HEADER = ("id", "x_re", "x_im", "y_re", "y_im", "value", "oracle",
              "bound_lo", "bound_hi", "pass")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))
    return path


def write_csv(path: str, rows: Iterable[Sequence], header: Sequence[str] = CSV_HEADER) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            # float() turns numpy float64 cells into plain numbers.
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    return path


def write_scatter_svg(path: str, points: Sequence[tuple[float, float]],
                      title: str = "", width: int = 480, height: int = 360) -> str:
    """Minimal scatter plot; hand-rolled so the bytes stay deterministic."""
    pad = 40
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
    else:
        x0 = y0 = 0.0
        x1 = y1 = 1.0
    sx = (width - 2 * pad) / (x1 - x0 if x1 > x0 else 1.0)
    sy = (height - 2 * pad) / (y1 - y0 if y1 > y0 else 1.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{pad}" y="20" font-size="13">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    for x, y in points:
        cx = pad + (x - x0) * sx
        cy = height - pad - (y - y0) * sy
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2" fill="steelblue"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
