"""Digital-domain filtering and the edge-trigger heart-rate algorithm.

Mains residue is removed in the frequency domain by zeroing the FFT bins
around 50 Hz; EMG noise is tamed with a centered moving average.  Heart
rate comes from rising-edge trigger points: runs of three non-decreasing
samples that pass through a band around the frame midrange, with the
run's middle sample taken as the edge.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from .signals import SampleFrame, _per_shape, _require_frequency, _require_real

__all__ = [
    "InsufficientDataError",
    "EdgeEvent",
    "HeartRateReading",
    "fft_notch",
    "smooth_emg",
    "detect_rising_edges",
    "heart_rate_from_edges",
]


class InsufficientDataError(ValueError):
    """Not enough detected structure to compute the requested quantity."""


# fixed by design, as on the device: the notch's band either side of its
# center (Hz), the smoothing window (samples, odd so the average is
# centered) and the trigger's hold-off after an edge (seconds)
_NOTCH_HALF_BAND = 2.0
_SMOOTH_WINDOW = 5
_REFRACTORY = 0.25


def fft_notch(frame: SampleFrame, center: float) -> SampleFrame:
    """Zero the spectral bins within center +/- 2 Hz and transform back.

    Works on the real FFT so conjugate symmetry (and therefore a real
    output) is preserved; output length equals input length.
    """
    if len(frame) < 2:
        raise ValueError("frame must hold at least 2 samples")
    _require_frequency("notch_center", center, frame.sample_rate)
    n, rate = len(frame), frame.sample_rate
    notched = _per_shape(("notch", n, rate, center), n, lambda: np.abs(
        np.fft.rfftfreq(n, d=1.0 / rate) - center) <= _NOTCH_HALF_BAND)
    spectrum = np.fft.rfft(frame.values)
    spectrum[notched] = 0.0
    cleaned = np.fft.irfft(spectrum, n=n)
    return frame.with_values(cleaned)


def smooth_emg(frame: SampleFrame) -> SampleFrame:
    """Centered 5-sample moving average; edges truncate the window.

    The frame may not be shorter than the window: convolve would then
    return window samples, not len(frame).
    """
    n, kernel = len(frame), np.ones(_SMOOTH_WINDOW)
    if _SMOOTH_WINDOW > n:
        raise ValueError(f"smoothing window {_SMOOTH_WINDOW} is longer than the {n}-sample frame")
    sums = np.convolve(frame.values, kernel, mode="same")
    counts = _per_shape(("smooth", n), n, lambda: np.convolve(np.ones(n), kernel, mode="same"))
    return frame.with_values(sums / counts)


@dataclass(frozen=True)
class EdgeEvent:
    """A detected trigger point.  Every edge is rising: kind is a constant."""

    sample_index: int
    kind = "rising"


def detect_rising_edges(frame: SampleFrame) -> list[EdgeEvent]:
    """Scan left to right for rising trigger points.

    A match is three non-decreasing samples whose span touches or straddles
    the band reaching 2% of the frame peak-to-peak either side of its
    midrange; the middle sample is reported and re-triggering is suppressed
    for 0.25 s after it.
    """
    values = frame.values
    if len(values) < 3:
        raise ValueError(f"frame of {len(values)} samples is shorter than a 3-sample run")
    lo, hi = float(np.min(values)), float(np.max(values))
    level, epsilon = (lo + hi) / 2.0, 0.02 * (hi - lo)
    # steps_ok[i]: both steps of the run from sample i on are non-decreasing
    rises = np.diff(values) >= 0
    steps_ok = rises[:-1] & rises[1:]
    first, last = values[:-2], values[2:]
    # the run must enter from at or below the band, leave at or above it,
    # and show a net rise (flat runs are not edges)
    candidates = np.nonzero(
        steps_ok & (first <= level + epsilon) & (last >= level - epsilon) & (last > first)
    )[0]
    refractory_samples = int(round(_REFRACTORY * frame.sample_rate))
    events: list[EdgeEvent] = []
    next_allowed = 0
    for i in candidates:
        if i < next_allowed:
            continue
        events.append(EdgeEvent(sample_index=int(i) + 1))
        next_allowed = int(i) + max(refractory_samples, 1)
    return events


@dataclass(frozen=True)
class HeartRateReading:
    """Rate derived from the latest pair of rising edges.

    period is the distance of those two edges in seconds and bpm follows
    from it.  median_period summarizes all consecutive edge pairs when
    more than two edges were seen; otherwise it is None.
    """

    period: float
    median_period: float | None = None

    def __post_init__(self):
        _require_real(0, period=self.period)

    @property
    def bpm(self) -> float:
        return 60.0 / self.period


def heart_rate_from_edges(edges, sample_rate: float) -> HeartRateReading:
    """Convert rising-edge times to beats per minute.

    Every edge is rising, and every edge given (from any iterable) is
    read.  The beat period is the sample distance between the last two
    edges; bpm = 60 / period.
    """
    _require_real(0, sample_rate=sample_rate)
    rising = list(edges)
    if len(rising) < 2:
        raise InsufficientDataError(
            f"need at least 2 rising edges for a heart rate, got {len(rising)}"
        )
    periods = [
        (b.sample_index - a.sample_index) / sample_rate
        for a, b in zip(rising, rising[1:])
    ]
    period = periods[-1]
    median_period = statistics.median(periods) if len(rising) > 2 else None
    return HeartRateReading(period=period, median_period=median_period)
