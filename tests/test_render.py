"""Framebuffer, trace mapping and export tests."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgmon.config import PipelineConfig
from ecgmon.render import (
    Framebuffer,
    PlotTrace,
    _polyline_mask,
    draw_trace,
    export_ascii,
    export_svg,
    map_to_trace,
)
from ecgmon.signals import SampleFrame, generate_sine


def constant_frame(value: float, n: int = 128) -> SampleFrame:
    return SampleFrame(500.0, np.full(n, value))


class TestMapToTrace:
    def test_constant_at_vmin_maps_to_bottom_row(self):
        trace = map_to_trace(constant_frame(0.0), 128, 64, v_min=0.0, v_max=1.0)
        assert np.all(trace.rows == 63)

    def test_constant_midpoint_maps_to_middle_row(self):
        trace = map_to_trace(constant_frame(0.5), 128, 63, v_min=0.0, v_max=1.0)
        assert np.all(trace.rows == 31)

    def test_ramp_is_monotone_staircase(self):
        frame = SampleFrame(500.0, np.linspace(0.0, 1.0, 128))
        trace = map_to_trace(frame, 128, 64, v_min=0.0, v_max=1.0)
        assert trace.rows[0] == 63          # bottom
        assert trace.rows[-1] == 0          # top
        assert np.all(np.diff(trace.rows) <= 0)

    def test_out_of_range_values_clamp(self):
        frame = SampleFrame(500.0, np.array([-5.0, 5.0] * 64))
        trace = map_to_trace(frame, 128, 64, v_min=0.0, v_max=1.0)
        assert set(trace.rows.tolist()) == {0, 63}

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            map_to_trace(constant_frame(0.0), 128, 64, v_min=1.0, v_max=0.0)

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError):
            map_to_trace(SampleFrame(500.0, np.zeros(0)), 128, 64, 0.0, 1.0)

    @pytest.mark.parametrize("v_min, v_max, name", [
        (float("nan"), None, "v_min"), (float("-inf"), 1.0, "v_min"),
        (None, float("inf"), "v_max"), (0.0, float("nan"), "v_max"),
    ])
    def test_nonfinite_range_rejected(self, v_min, v_max, name):
        """An infinite bound would squash the trace flat; a NaN one would
        give no row at all."""
        frame = generate_sine(2.0, 1.0, 500.0, 1.0)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            map_to_trace(frame, 128, 64, v_min, v_max)

    def test_length_matches_width(self):
        frame = generate_sine(2.0, 1.0, 500.0, 1.0)
        assert len(map_to_trace(frame, 99, 64)) == 99

    def test_monotone_value_mapping(self):
        """Larger voltages never render visually lower."""
        rng = np.random.default_rng(4)
        values = rng.uniform(-1, 1, 128)
        frame = SampleFrame(500.0, values)
        trace = map_to_trace(frame, 128, 64, v_min=-1.0, v_max=1.0)
        order = np.argsort(values)
        assert np.all(np.diff(trace.rows[order]) <= 0)


class TestDrawTrace:
    def test_redraw_same_trace_is_identity(self):
        frame = generate_sine(2.0, 1.0, 500.0, 1.0)
        trace = map_to_trace(frame, 128, 64)
        fb = Framebuffer()
        draw_trace(fb, None, trace)
        before = fb.pixels.copy()
        draw_trace(fb, trace, trace)
        assert np.array_equal(fb.pixels, before)

    def test_incremental_equals_fresh(self):
        a = map_to_trace(generate_sine(2.0, 1.0, 500.0, 1.0), 128, 64)
        b = map_to_trace(generate_sine(3.0, 0.7, 500.0, 1.0), 128, 64)
        incremental = Framebuffer()
        draw_trace(incremental, None, a)
        draw_trace(incremental, a, b)
        fresh = Framebuffer()
        draw_trace(fresh, None, b)
        assert np.array_equal(incremental.pixels, fresh.pixels)

    def test_first_draw_sets_exactly_the_polyline(self):
        trace = PlotTrace(rows=np.array([5, 3, 3, 8]), height=10)
        fb = Framebuffer(width=4, height=10)
        draw_trace(fb, None, trace)
        expected = np.zeros((10, 4), dtype=bool)
        expected[5, 0] = True
        expected[3:6, 1] = True   # span between rows 5 and 3
        expected[3, 2] = True
        expected[3:9, 3] = True   # span between rows 3 and 8
        assert np.array_equal(fb.pixels, expected)

    def test_erase_redraw_equivalence_random_sequences(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            traces = [
                PlotTrace(rows=rng.integers(0, 64, 128), height=64)
                for _ in range(rng.integers(2, 6))
            ]
            incremental = Framebuffer()
            prev = None
            for tr in traces:
                draw_trace(incremental, prev, tr)
                prev = tr
            fresh = Framebuffer()
            draw_trace(fresh, None, traces[-1])
            assert np.array_equal(incremental.pixels, fresh.pixels)

    def test_all_writes_in_bounds_random_traces(self):
        rng = np.random.default_rng(23)
        fb = Framebuffer(width=32, height=16)
        prev = None
        for _ in range(50):
            tr = PlotTrace(rows=rng.integers(0, 16, 32), height=16)
            draw_trace(fb, prev, tr)
            prev = tr
        assert fb.pixels.shape == (16, 32)  # numpy would have raised on OOB writes

    def test_trace_rows_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PlotTrace(rows=np.array([0, 64]), height=64)

    def test_mismatched_width_rejected(self):
        fb = Framebuffer(width=8, height=8)
        tr = PlotTrace(rows=np.zeros(4, dtype=int), height=8)
        with pytest.raises(ValueError):
            draw_trace(fb, None, tr)

    def test_trace_for_another_height_rejected(self):
        """Rows mapped for 100 lines would clip on a 64-line buffer."""
        fb = Framebuffer(width=128, height=64)
        tr = map_to_trace(generate_sine(2.0, 1.0, 500.0, 1.0), 128, 100)
        with pytest.raises(ValueError, match="trace height 100 does not match framebuffer height 64"):
            draw_trace(fb, None, tr)
        assert not fb.pixels.any()

    def test_old_trace_for_another_height_rejected(self):
        fb = Framebuffer(width=128, height=64)
        new = map_to_trace(generate_sine(2.0, 1.0, 500.0, 1.0), 128, 64)
        old = map_to_trace(generate_sine(2.0, 1.0, 500.0, 1.0), 128, 100)
        with pytest.raises(ValueError, match="old trace height 100 does not match"):
            draw_trace(fb, old, new)


def polyline_mask_reference(trace: PlotTrace, width: int, height: int) -> np.ndarray:
    """The polyline mask filled one column at a time."""
    mask = np.zeros((height, width), dtype=bool)
    rows = trace.rows
    for x in range(len(rows)):
        prev = rows[x - 1] if x > 0 else rows[x]
        lo, hi = (prev, rows[x]) if prev <= rows[x] else (rows[x], prev)
        mask[lo:hi + 1, x] = True
    return mask


class TestPolylineMaskReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), width=st.integers(1, 150), height=st.integers(1, 70))
    def test_same_pixels_as_column_loop(self, data, width, height):
        rows = data.draw(st.lists(st.integers(0, height - 1), min_size=width, max_size=width))
        trace = PlotTrace(rows=np.array(rows), height=height)
        got = _polyline_mask(trace)
        assert got.dtype == bool
        assert np.array_equal(got, polyline_mask_reference(trace, width, height))


class TestExport:
    def test_svg_deterministic(self, tmp_path):
        frame = generate_sine(2.0, 1.0, 500.0, 1.0)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        export_svg(frame, p1)
        export_svg(frame, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_frame_valid_svg(self, tmp_path):
        path = tmp_path / "empty.svg"
        svg = export_svg(SampleFrame(500.0, np.zeros(0)), path)
        assert 'points=""' in svg
        assert svg.startswith('<?xml')
        assert path.read_text().count("<polyline") == 1

    @pytest.mark.parametrize("width,height", [(0, 64), (128, -3), (-1, -1)])
    def test_empty_frame_refuses_the_size_a_full_one_does(self, tmp_path, width, height):
        """And the reversed bounds a full one does."""
        for values in (np.zeros(0), np.zeros(8)):
            path = tmp_path / "bad.svg"
            with pytest.raises(ValueError, match=f"display must have positive size, got {width}x{height}"):
                export_svg(SampleFrame(500.0, values), path, width=width, height=height)
            with pytest.raises(ValueError, match=re.escape("degenerate value range [2.0, 1.0]")):
                export_svg(SampleFrame(500.0, values), path, v_min=2.0, v_max=1.0)
            assert not path.exists()

    @pytest.mark.parametrize("width,height", [(0, 64), (128, 0)])
    def test_one_display_size_rule(self, width, height):
        """The config, a framebuffer and a trace refuse a size with one message."""
        message = f"^display must have positive size, got {width}x{height}$"
        with pytest.raises(ValueError, match=message):
            PipelineConfig(fb_width=width, fb_height=height)
        with pytest.raises(ValueError, match=message):
            Framebuffer(width, height)
        with pytest.raises(ValueError, match=message):
            map_to_trace(SampleFrame(500.0, np.zeros(8)), width, height)

    def test_two_hz_sine_has_two_visible_periods(self, tmp_path):
        svg = export_svg(generate_sine(2.0, 1.0, 500.0, 1.0), tmp_path / "sine.svg")
        points = re.search(r'points="([^"]*)"', svg).group(1)
        ys = [int(p.split(",")[1]) for p in points.split()]
        peaks = 0
        i = 1
        while i < len(ys) - 1:
            if ys[i] < ys[i - 1]:  # smaller row = visually higher
                j = i
                while j < len(ys) - 1 and ys[j + 1] == ys[j]:
                    j += 1
                if j < len(ys) - 1 and ys[j + 1] > ys[j]:
                    peaks += 1
                i = j + 1
            else:
                i += 1
        assert peaks == 2

    def test_svg_coordinates_match_map_to_trace(self, tmp_path):
        frame = generate_sine(3.0, 1.0, 500.0, 1.0)
        trace = map_to_trace(frame, 128, 64)
        svg = export_svg(frame, tmp_path / "c.svg")
        points = re.search(r'points="([^"]*)"', svg).group(1)
        ys = [int(p.split(",")[1]) for p in points.split()]
        assert ys == trace.rows.tolist()

    def test_ascii_one_char_per_pixel(self):
        fb = Framebuffer(width=4, height=3)
        fb.pixels[1, 2] = True
        art = export_ascii(fb)
        assert art.split("\n") == ["....", "..#.", "...."]

