"""SVG and CSV emitters for spiral figures, plus JSON float shaping."""

from __future__ import annotations

import math
from pathlib import Path

from .errors import DomainError
from .zetaeval import SpiralPath

# Fixed spiral figure style: canvas size in px, margin as a fraction of
# the data span, and the stroke of the partial-sum (primary) and
# midpoint (secondary, dashed) polylines.
SVG_WIDTH = 720
SVG_HEIGHT = 720
SVG_MARGIN_FRAC = 0.05
PRIMARY_STROKE = ("#1f4e9c", 1.2, "")
SECONDARY_STROKE = ("#c23b22", 0.9, "4 3")


def sig(x: float, digits: int = 12) -> float:
    """Round a float to the given number of significant digits.

    Keeps JSON output compact and makes reports byte-reproducible
    across platforms that only agree to ~13 significant digits.
    """
    if x == 0.0:
        return 0.0
    if not math.isfinite(x):
        return x
    return float(f"{x:.{digits}g}")


def format_sig(x: float, digits: int = 15) -> str:
    if x == 0.0:
        x = 0.0
    return f"{x:.{digits}g}"


def spiral_csv(path: SpiralPath) -> str:
    """Partial sums as CSV rows `n,re,im`, 15 significant digits."""
    lines = ["n,re,im"]
    for k, z in enumerate(path.points, start=1):
        lines.append(f"{k},{format_sig(z.real)},{format_sig(z.imag)}")
    return "\n".join(lines) + "\n"


def write_spiral_csv(path: SpiralPath, out: str | Path) -> None:
    """Write spiral_csv(path) to a file."""
    Path(out).write_text(spiral_csv(path), encoding="utf-8")


def _polyline(points, color: str, width: float, dash: str) -> str:
    pts = " ".join(f"{x:.6f},{y:.6f}" for x, y in points)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
        f'{dash_attr} points="{pts}" />'
    )


def emit_spiral_svg(path: SpiralPath, out: str | Path) -> None:
    """Standalone SVG of a spiral: partial sums plus the midpoint polyline.

    The viewBox is auto-scaled to the data with a 5% margin; the
    midpoint polyline is drawn only when it has at least two points,
    matching the n-1 midpoints of an n-point path.  Degenerate
    (repeated) points are legal and render as zero-length segments.
    """
    pts = list(path.points)
    if len(pts) < 2:
        raise DomainError("spiral SVG needs at least two partial sums")
    mids = list(path.midpoints)
    xs = [z.real for z in pts] + [z.real for z in mids]
    ys = [z.imag for z in pts] + [z.imag for z in mids]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-12)
    pad = SVG_MARGIN_FRAC * span

    def to_px(z: complex) -> tuple[float, float]:
        # SVG's y axis points down; flip so the upper half plane is up.
        x = (z.real - xmin + pad) / (span + 2 * pad) * SVG_WIDTH
        y = (ymax - z.imag + pad) / (span + 2 * pad) * SVG_HEIGHT
        return x, y

    body = [
        _polyline([to_px(z) for z in pts], *PRIMARY_STROKE),
        _polyline([to_px(z) for z in mids] if len(mids) >= 2 else [],
                  *SECONDARY_STROKE),
    ]
    svg = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )
    Path(out).write_text(svg, encoding="utf-8")
