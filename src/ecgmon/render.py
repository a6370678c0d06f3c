"""Monochrome waveform rendering with scope-style draw/erase semantics.

A trace maps one sample per framebuffer column; redrawing erases the old
polyline (overwrites it in "white", i.e. clears the pixels) before setting
the new one, so an incremental sequence of redraws ends bit-identical to
drawing only the final trace on a fresh buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .signals import SampleFrame, _require_int, _require_real

__all__ = [
    "Framebuffer",
    "PlotTrace",
    "map_to_trace",
    "draw_trace",
    "export_svg",
    "export_ascii",
]

DEFAULT_WIDTH = 128
DEFAULT_HEIGHT = 64


@dataclass
class Framebuffer:
    """Binary pixel grid, height rows by width columns, all clear at first."""

    width: int = DEFAULT_WIDTH
    height: int = DEFAULT_HEIGHT
    pixels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _require_target(self.width, self.height)
        self.pixels = np.zeros((self.height, self.width), dtype=bool)


@dataclass(frozen=True)
class PlotTrace:
    """One framebuffer row index per column."""

    rows: np.ndarray
    height: int

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        object.__setattr__(self, "rows", rows)
        if rows.size and (rows.min() < 0 or rows.max() >= self.height):
            raise ValueError("trace rows must lie within the framebuffer height")

    def __len__(self) -> int:
        return len(self.rows)


def _require_target(width: int, height: int, v_min: float | None = None, v_max: float | None = None) -> None:
    """A display's size (the config's, a framebuffer's, an SVG's), and the
    bounds given: each finite, and not reversed when both are."""
    _require_int("width", width)
    _require_int("height", height)
    if width <= 0 or height <= 0:
        raise ValueError(f"display must have positive size, got {width}x{height}")
    _require_real(**{k: v for k, v in {"v_min": v_min, "v_max": v_max}.items() if v is not None})
    if v_min is not None and v_max is not None and v_max < v_min:
        raise ValueError(f"degenerate value range [{v_min}, {v_max}]")


def map_to_trace(
    frame: SampleFrame,
    fb_width: int = DEFAULT_WIDTH,
    fb_height: int = DEFAULT_HEIGHT,
    v_min: float | None = None,
    v_max: float | None = None,
) -> PlotTrace:
    """Decimate a frame to one row index per column.

    Columns pick samples by stride (no averaging); larger voltages map to
    visually higher pixels, i.e. smaller row indices.  Values outside
    [v_min, v_max] clamp to the edge rows; a bound that is given must be
    finite.
    """
    _require_target(fb_width, fb_height, v_min, v_max)
    if len(frame) == 0:
        raise ValueError("cannot map an empty frame")
    if v_min is None:
        v_min = float(np.min(frame.values))
    if v_max is None:
        v_max = float(np.max(frame.values))
    if v_max == v_min:
        # constant frame: pad the range so the trace sits mid-screen
        v_min, v_max = v_min - 0.5, v_max + 0.5
    if v_max < v_min:
        raise ValueError(f"degenerate value range [{v_min}, {v_max}]")
    picks = (np.arange(fb_width) * len(frame)) // fb_width
    norm = (frame.values[picks] - v_min) / (v_max - v_min)
    norm = np.clip(norm, 0.0, 1.0)
    rows_up = np.floor(norm * (fb_height - 1) + 0.5).astype(np.int64)
    return PlotTrace(rows=(fb_height - 1) - rows_up, height=fb_height)


def _polyline_mask(trace: PlotTrace) -> np.ndarray:
    """Pixel set of the connected trace, trace.height rows by one column per
    trace column: the rows from the previous column's row to this one's."""
    rows = trace.rows
    prev = np.concatenate((rows[:1], rows[:-1]))
    r = np.arange(trace.height)[:, None]
    return (np.minimum(prev, rows) <= r) & (r <= np.maximum(prev, rows))


def draw_trace(fb: Framebuffer, old: PlotTrace | None, new: PlotTrace) -> Framebuffer:
    """Erase the previous polyline, then draw the new one.

    Both traces must be mapped for this framebuffer: one row per column,
    rows counted against its height.
    """
    _require_fits(fb, new, "trace")
    if old is not None:
        _require_fits(fb, old, "old trace")
        fb.pixels &= ~_polyline_mask(old)
    fb.pixels |= _polyline_mask(new)
    return fb


def _require_fits(fb: Framebuffer, trace: PlotTrace, what: str) -> None:
    if len(trace) != fb.width:
        raise ValueError(f"{what} length {len(trace)} does not match framebuffer width {fb.width}")
    if trace.height != fb.height:
        raise ValueError(f"{what} height {trace.height} does not match framebuffer height {fb.height}")


_SVG_TEMPLATE = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
    '  <polyline points="{points}" fill="none" stroke="black" stroke-width="1"/>\n'
    '</svg>\n'
)


def export_svg(
    frame: SampleFrame,
    path,
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
    v_min: float | None = None,
    v_max: float | None = None,
) -> str:
    """Write a single-polyline SVG of a frame.

    Polyline coordinates are exactly the map_to_trace rows; an empty frame
    yields a valid SVG with an empty polyline, though the size must still
    be positive and a given bound finite.  Output bytes are fully
    deterministic for identical inputs.
    """
    _require_target(width, height, v_min, v_max)
    if len(frame) == 0:
        points = ""
    else:
        rows = map_to_trace(frame, width, height, v_min, v_max).rows
        points = " ".join(f"{x},{int(r)}" for x, r in enumerate(rows))
    svg = _SVG_TEMPLATE.format(w=width, h=height, points=points)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return svg


def export_ascii(fb: Framebuffer) -> str:
    """One character per pixel: '#' set, '.' clear."""
    return "\n".join("".join("#" if px else "." for px in row) for row in fb.pixels)
