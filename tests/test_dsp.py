"""DSP tests: spectral notch, smoothing, edge triggers, heart rate."""

import math
import statistics

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecgmon.dsp import (
    EdgeEvent,
    HeartRateReading,
    InsufficientDataError,
    detect_rising_edges,
    fft_notch,
    heart_rate_from_edges,
    smooth_emg,
)
from ecgmon.signals import SampleFrame, generate_sine


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


class TestFftNotch:
    def test_zero_frame_stays_zero(self):
        frame = SampleFrame(500.0, np.zeros(1000))
        out = fft_notch(frame, 50.0, 2.0)
        assert np.allclose(out.values, 0.0)
        assert len(out) == len(frame)

    def test_integer_cycle_50hz_suppressed(self):
        frame = generate_sine(50.0, 1.0, 500.0, 2.0)
        out = fft_notch(frame, 50.0, 2.0)
        assert rms(out.values) <= 0.01 * rms(frame.values)

    def test_10hz_passband_preserved(self):
        frame = generate_sine(10.0, 1.0, 500.0, 2.0)
        out = fft_notch(frame, 50.0, 2.0)
        assert rms(out.values) == pytest.approx(rms(frame.values), rel=0.01)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        frame = SampleFrame(500.0, rng.normal(0, 1, 2048))
        once = fft_notch(frame, 50.0, 2.0)
        twice = fft_notch(once, 50.0, 2.0)
        assert np.allclose(twice.values, once.values, rtol=1e-9, atol=1e-12)

    def test_energy_never_grows(self):
        rng = np.random.default_rng(3)
        frame = SampleFrame(500.0, rng.normal(0, 1, 4096))
        out = fft_notch(frame, 50.0, 2.0)
        assert np.sum(out.values**2) <= np.sum(frame.values**2) + 1e-9

    def test_output_is_real_and_same_length(self):
        frame = generate_sine(7.0, 1.0, 500.0, 1.001)  # odd length
        out = fft_notch(frame, 50.0, 2.0)
        assert out.values.dtype == np.float64
        assert len(out) == len(frame)

    def test_center_above_nyquist_rejected(self):
        frame = generate_sine(10.0, 1.0, 500.0, 1.0)
        with pytest.raises(ValueError, match="Nyquist"):
            fft_notch(frame, 250.0, 2.0)

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError):
            fft_notch(SampleFrame(500.0, np.zeros(1)), 50.0, 2.0)

    @pytest.mark.parametrize("center, half_band, match", [
        (float("nan"), 2.0, "center must be finite"),
        (float("-inf"), 2.0, "center must be finite"),
        (50.0, float("nan"), "half_band must be finite"),
        (50.0, float("inf"), "half_band must be finite"),
    ])
    def test_nonfinite_notch_rejected(self, center, half_band, match):
        """A NaN center or band matches no bin: refused, not passed through."""
        frame = generate_sine(10.0, 1.0, 500.0, 1.0)
        with pytest.raises(ValueError, match=match):
            fft_notch(frame, center, half_band)


class TestSmoothEmg:
    def test_window_one_is_identity(self):
        frame = generate_sine(5.0, 1.0, 500.0, 1.0)
        out = smooth_emg(frame, 1)
        assert np.array_equal(out.values, frame.values)

    def test_constant_frame_unchanged(self):
        frame = SampleFrame(500.0, np.full(100, 2.5))
        out = smooth_emg(frame, 5)
        assert np.allclose(out.values, 2.5, atol=1e-12)

    def test_white_noise_variance_reduction(self):
        rng = np.random.default_rng(9)
        frame = SampleFrame(500.0, rng.normal(0, 1, 100_000))
        out = smooth_emg(frame, 5)
        interior = out.values[10:-10]
        assert np.var(interior) == pytest.approx(np.var(frame.values) / 5, rel=0.10)

    def test_even_window_rejected(self):
        frame = SampleFrame(500.0, np.zeros(10))
        with pytest.raises(ValueError):
            smooth_emg(frame, 4)

    @pytest.mark.parametrize("window", [5.0, True])
    def test_window_must_be_an_integer(self, window):
        with pytest.raises(ValueError, match=f"^window must be an integer, got {window!r}$"):
            smooth_emg(SampleFrame(500.0, np.zeros(10)), window)

    def test_length_preserved(self):
        frame = generate_sine(5.0, 1.0, 500.0, 0.123)
        assert len(smooth_emg(frame, 7)) == len(frame)
        for n in range(1, 40):
            frame = SampleFrame(500.0, np.arange(n, dtype=float))
            for window in range(1, n + 1, 2):
                assert len(smooth_emg(frame, window)) == n, (n, window)

    @pytest.mark.parametrize("n, window", [(3, 7), (0, 1), (4, 5), (1536, 4001)])
    def test_window_longer_than_frame_rejected(self, n, window):
        """convolve would return window samples, inventing the ones past the frame."""
        frame = SampleFrame(500.0, np.zeros(n))
        with pytest.raises(ValueError, match=f"window {window} .*{n}-sample frame"):
            smooth_emg(frame, window)


class TestDetectEdges:
    def test_constant_frame_has_no_edges(self):
        frame = SampleFrame(500.0, np.full(100, 1.0))
        assert detect_rising_edges(frame, 0.25) == []

    def test_ramp_single_edge_at_first_qualifying_run(self):
        # 10-sample ramp 0..1 at 10 Hz; level 0.5, band 0.02:
        # first run with v[i] <= 0.52 and v[i+2] >= 0.48 starts at i=3
        frame = SampleFrame(10.0, np.linspace(0.0, 1.0, 10))
        edges = detect_rising_edges(frame, 0.5)
        assert [e.sample_index for e in edges] == [4]
        assert edges[0].time == pytest.approx(0.4)

    def test_two_hz_sine_two_edges(self):
        # rises through the midrange at 0 and 0.5 s; 0.9 s ends before the
        # band around it catches the start of the rise at 1 s
        frame = generate_sine(2.0, 1.0, 500.0, 0.9)
        edges = detect_rising_edges(frame, 0.2)
        assert len(edges) == 2
        spacing = edges[1].sample_index - edges[0].sample_index
        assert abs(spacing - 250) <= 3

    def test_refractory_past_the_frame_keeps_first_edge(self):
        """Any refractory as long as the frame keeps only its first edge, even
        one whose sample count overflows an int."""
        frame = generate_sine(2.0, 1.0, 500.0, 2.0)
        whole = [e.sample_index for e in detect_rising_edges(frame, len(frame) / 500.0)]
        assert len(whole) == 1
        assert [e.sample_index for e in detect_rising_edges(frame, 1e308)] == whole

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError):
            detect_rising_edges(SampleFrame(500.0, np.zeros(2)), 0.25)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["refractory"])
    def test_nonfinite_trigger_settings_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            detect_rising_edges(SampleFrame(500.0, np.arange(3.0)), **{name: bad})

    def test_translation_equivariance(self):
        """Embedding the frame later in a plateau shifts interior edges by k."""
        frame = generate_sine(2.0, 1.0, 500.0, 2.0)
        refractory = 0.2  # the plateau keeps the frame's level and band
        base = [e.sample_index for e in detect_rising_edges(frame, refractory)]
        k = 137
        shifted_values = np.concatenate([np.full(k, frame.values[0]), frame.values])
        shifted = SampleFrame(500.0, shifted_values)
        moved = [e.sample_index for e in detect_rising_edges(shifted, refractory)]
        interior = [i for i in base if i > refractory * 500]
        assert [i + k for i in interior] == [i for i in moved if i > k + refractory * 500]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(freq=st.integers(min_value=1, max_value=8), duration=st.integers(min_value=2, max_value=6))
    def test_edge_count_on_sine(self, freq, duration):
        """floor(f*T) +- 1 rising edges for a pure sine, triggered at its midrange."""
        frame = generate_sine(float(freq), 1.0, 500.0, float(duration))
        edges = detect_rising_edges(frame, 0.25 / freq)
        assert abs(len(edges) - freq * duration) <= 1

    def test_amplitude_scale_invariance(self):
        """Level and band scale with the frame."""
        frame = generate_sine(2.0, 1.0, 500.0, 2.0)
        scaled = frame.with_values(frame.values * 5.0)
        bpm1 = heart_rate_from_edges(detect_rising_edges(frame, 0.2), 500.0).bpm
        bpm2 = heart_rate_from_edges(detect_rising_edges(scaled, 0.2), 500.0).bpm
        assert bpm1 == bpm2

    def test_auto_trigger_defaults(self):
        """The level is the midrange and the band 2% of peak-to-peak: on the
        ramp 1000..1100 (level 1050, band 2) the first run that reaches 1048
        starts at sample 46; a band of 0 would start it at 48, one of 3 at 45."""
        frame = SampleFrame(100.0, np.arange(1000.0, 1101.0))
        assert [e.sample_index for e in detect_rising_edges(frame, 0.25)] == [47]


def detect_edges_reference(frame: SampleFrame, refractory: float) -> list[int]:
    """Edge indices by the sliding-window run check: each window of run - 1
    steps is tested with np.all."""
    values = frame.values
    n, run = len(values), 3
    lo, hi = float(np.min(values)), float(np.max(values))
    level, epsilon = (lo + hi) / 2.0, 0.02 * (hi - lo)
    steps_ok = np.all(sliding_window_view(np.diff(values) >= 0, run - 1), axis=1)
    first, last = values[: n - run + 1], values[run - 1:]
    candidates = np.nonzero(
        steps_ok & (first <= level + epsilon) & (last >= level - epsilon) & (last > first))[0]
    refractory_samples = int(round(refractory * frame.sample_rate))
    indices, next_allowed = [], 0
    for i in candidates:
        if i >= next_allowed:
            indices.append(int(i) + run // 2)
            next_allowed = int(i) + max(refractory_samples, 1)
    return indices


class TestDetectEdgesReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(steps=st.lists(st.integers(-3, 3), min_size=3, max_size=300),
           refractory=st.sampled_from([0.0, 0.01, 0.05, 0.2]))
    def test_same_edges_as_window_check(self, steps, refractory):
        """Small integer steps give long monotone runs, plateaus and reversals."""
        frame = SampleFrame(100.0, np.cumsum(np.asarray(steps, dtype=np.float64)))
        got = [e.sample_index for e in detect_rising_edges(frame, refractory)]
        assert got == detect_edges_reference(frame, refractory)

    @pytest.mark.parametrize("run", [3])  # a run is 3 samples
    def test_frame_of_exactly_run_length(self, run):
        frame = SampleFrame(100.0, np.arange(float(run)))
        got = [e.sample_index for e in detect_rising_edges(frame, 0.25)]
        assert got == detect_edges_reference(frame, 0.25) == [run // 2]


class TestHeartRate:
    def test_two_edges_half_second_apart(self):
        edges = [
            EdgeEvent(sample_index=500, time=1.0, kind="rising"),
            EdgeEvent(sample_index=750, time=1.5, kind="rising"),
        ]
        reading = heart_rate_from_edges(edges, 500.0)
        assert reading.period == pytest.approx(0.5)
        assert reading.bpm == pytest.approx(120.0)
        assert reading.median_period is None

    def test_one_edge_insufficient(self):
        edges = [EdgeEvent(sample_index=10, time=0.02, kind="rising")]
        with pytest.raises(InsufficientDataError):
            heart_rate_from_edges(edges, 500.0)

    def test_falling_edges_ignored(self):
        edges = [
            EdgeEvent(sample_index=0, time=0.0, kind="rising"),
            EdgeEvent(sample_index=100, time=0.2, kind="falling"),
            EdgeEvent(sample_index=250, time=0.5, kind="rising"),
        ]
        reading = heart_rate_from_edges(edges, 500.0)
        assert reading.period == pytest.approx(0.5)

    def test_median_period_with_many_edges(self):
        idx = [0, 250, 500, 752, 1000]
        edges = [EdgeEvent(sample_index=i, time=i / 500.0, kind="rising") for i in idx]
        reading = heart_rate_from_edges(edges, 500.0)
        assert reading.period == pytest.approx(248 / 500.0)
        assert reading.median_period == pytest.approx(250 / 500.0)

    def test_bpm_is_60_over_period(self):
        edges = [EdgeEvent(sample_index=i, time=i / 500.0, kind="rising") for i in (0, 421)]
        reading = heart_rate_from_edges(edges, 500.0)
        assert reading.bpm == pytest.approx(60.0 / reading.period, rel=1e-12)

    @pytest.mark.parametrize("rate", [float("nan"), math.inf, 0.0, -500.0])
    def test_unusable_sample_rate_refused(self, rate):
        edges = [EdgeEvent(sample_index=i, time=i / 500.0, kind="rising") for i in (0, 250)]
        with pytest.raises(ValueError, match=f"^sample_rate must be finite and > 0, got {rate}$"):
            heart_rate_from_edges(edges, rate)

    @pytest.mark.parametrize("period", [float("nan"), math.inf, 0.0, -0.5])
    def test_period_must_be_finite_and_positive(self, period):
        with pytest.raises(ValueError, match=f"^period must be finite and > 0, got {period}$"):
            HeartRateReading(period=period)

    def test_period_overflowing_to_inf_refused(self):
        """A rate so small that the period overflows gives no 0 bpm reading."""
        edges = [EdgeEvent(sample_index=i, time=0.0, kind="rising") for i in (0, 10)]
        with pytest.raises(ValueError, match="^period must be finite and > 0, got inf$"):
            heart_rate_from_edges(edges, 1e-320)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @example(indices=[0, 250, 500, 752, 1000], rate=500.0)  # four periods: even
    @example(indices=[0, 250, 500, 752], rate=500.0)  # three periods: odd
    @given(indices=st.lists(st.integers(0, 10**7), min_size=3, max_size=40, unique=True)
           .map(sorted), rate=st.floats(1.0, 1e5))
    def test_median_period_has_the_bits_of_np_median(self, indices, rate):
        """statistics.median picks (or averages) the same middle periods as
        np.median, on odd and even period counts alike."""
        edges = [EdgeEvent(sample_index=i, time=i / rate, kind="rising") for i in indices]
        periods = [(b - a) / rate for a, b in zip(indices, indices[1:])]
        got = heart_rate_from_edges(edges, rate).median_period
        assert type(got) is float
        assert np.float64(got).tobytes() == np.median(periods).tobytes()
        assert statistics.median(periods) == got


class TestShapeArrays:
    """The notch bin mask and the smoothing normaliser are shared per frame
    shape; the output keeps the bytes of computing them afresh."""

    @pytest.mark.parametrize("n", [4608, 1001])
    def test_notch_same_bytes_as_fresh_mask(self, n):
        frame = SampleFrame(500.0, np.random.default_rng(n).normal(size=n))
        spectrum = np.fft.rfft(frame.values)
        freqs = np.fft.rfftfreq(n, d=1.0 / 500.0)
        spectrum[np.abs(freqs - 50.0) <= 2.0] = 0.0
        want = np.fft.irfft(spectrum, n=n)
        for _ in range(2):
            assert fft_notch(frame, 50.0, 2.0).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [4608, 1001])
    @pytest.mark.parametrize("window", [3, 5, 31])
    def test_smooth_same_bytes_as_fresh_counts(self, n, window):
        frame = SampleFrame(500.0, np.random.default_rng(n).normal(size=n))
        kernel = np.ones(window)
        want = (np.convolve(frame.values, kernel, mode="same")
                / np.convolve(np.ones(n), kernel, mode="same"))
        for _ in range(2):
            assert smooth_emg(frame, window).values.tobytes() == want.tobytes()
