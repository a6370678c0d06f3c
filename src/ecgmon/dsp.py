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

from .signals import SampleFrame, _per_shape, _require_int, _require_real

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


def fft_notch(frame: SampleFrame, center: float, half_band: float) -> SampleFrame:
    """Zero the spectral bins within center +/- half_band and transform back.

    Works on the real FFT so conjugate symmetry (and therefore a real
    output) is preserved; output length equals input length.
    """
    if len(frame) < 2:
        raise ValueError("frame must hold at least 2 samples")
    _require_notch(center, half_band, frame.sample_rate)
    n, rate = len(frame), frame.sample_rate
    notched = _per_shape(("notch", n, rate, center, half_band), n,
                         lambda: np.abs(np.fft.rfftfreq(n, d=1.0 / rate) - center) <= half_band)
    spectrum = np.fft.rfft(frame.values)
    spectrum[notched] = 0.0
    cleaned = np.fft.irfft(spectrum, n=n)
    return frame.with_values(cleaned)


def _require_notch(center: float, half_band: float, sample_rate: float) -> None:
    # a NaN center or band would match no bin and pass the frame through
    _require_real(center=center)
    if center >= sample_rate / 2:
        raise ValueError(f"notch center {center} Hz is at or above Nyquist ({sample_rate / 2} Hz)")
    _require_real(0, False, half_band=half_band)


def smooth_emg(frame: SampleFrame, window: int) -> SampleFrame:
    """Centered moving average with an odd window; edges truncate the window.

    The window may not be longer than the frame: convolve would then
    return window samples, not len(frame).
    """
    _require_odd_window(window)
    if window > len(frame):
        raise ValueError(f"smoothing window {window} is longer than the {len(frame)}-sample frame")
    if window == 1:
        return frame
    n, kernel = len(frame), np.ones(window)
    sums = np.convolve(frame.values, kernel, mode="same")
    counts = _per_shape(("smooth", n, window), n,
                        lambda: np.convolve(np.ones(n), kernel, mode="same"))
    return frame.with_values(sums / counts)


def _require_odd_window(window: int) -> None:
    _require_int("window", window)
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be a positive odd sample count, got {window}")


@dataclass(frozen=True)
class EdgeEvent:
    """A detected trigger point."""

    sample_index: int
    time: float
    kind: str  # "rising"; heart_rate_from_edges skips any other kind


def detect_rising_edges(frame: SampleFrame, refractory: float) -> list[EdgeEvent]:
    """Scan left to right for rising trigger points.

    A match is three non-decreasing samples whose span touches or straddles
    the band reaching 2% of the frame peak-to-peak either side of its
    midrange; the middle sample is reported and re-triggering is suppressed
    for refractory seconds after it.
    """
    _require_real(0, False, refractory=refractory)
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
    # clamped to the frame: a refractory past it keeps only the first edge
    refractory_samples = int(round(min(refractory * frame.sample_rate, len(values))))
    events: list[EdgeEvent] = []
    next_allowed = 0
    for i in candidates:
        if i < next_allowed:
            continue
        mid = int(i) + 1
        events.append(EdgeEvent(
            sample_index=mid,
            time=frame.start_time + mid / frame.sample_rate,
            kind="rising",
        ))
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

    The beat period is the sample distance between the last two rising
    edges; bpm = 60 / period.
    """
    _require_real(0, sample_rate=sample_rate)
    rising = [e for e in edges if e.kind == "rising"]
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
