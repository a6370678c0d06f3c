"""Digital-domain filtering and the edge-trigger heart-rate algorithm.

Mains residue is removed in the frequency domain by zeroing the FFT bins
around 50 Hz; EMG noise is tamed with a centered moving average.  Heart
rate comes from rising-edge trigger points: runs of consecutive
non-decreasing samples that pass through a band around the trigger level,
with the run's middle sample taken as the edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signals import SampleFrame

__all__ = [
    "InsufficientDataError",
    "TriggerConfig",
    "EdgeEvent",
    "HeartRateReading",
    "fft_notch",
    "smooth_emg",
    "detect_rising_edges",
    "detect_falling_edges",
    "heart_rate_from_edges",
]


class InsufficientDataError(ValueError):
    """Not enough detected structure to compute the requested quantity."""


def fft_notch(frame: SampleFrame, center: float = 50.0, half_band: float = 2.0) -> SampleFrame:
    """Zero the spectral bins within center +/- half_band and transform back.

    Works on the real FFT so conjugate symmetry (and therefore a real
    output) is preserved; output length equals input length.
    """
    if len(frame) < 2:
        raise ValueError("frame must hold at least 2 samples")
    _require_notch(center, half_band, frame.sample_rate)
    spectrum = np.fft.rfft(frame.values)
    freqs = np.fft.rfftfreq(len(frame), d=1.0 / frame.sample_rate)
    spectrum[np.abs(freqs - center) <= half_band] = 0.0
    cleaned = np.fft.irfft(spectrum, n=len(frame))
    return frame.with_values(cleaned)


def _require_notch(center: float, half_band: float, sample_rate: float) -> None:
    if center >= sample_rate / 2:
        raise ValueError(f"notch center {center} Hz is at or above Nyquist ({sample_rate / 2} Hz)")
    if half_band < 0:
        raise ValueError(f"half_band must be >= 0, got {half_band}")


def smooth_emg(frame: SampleFrame, window: int) -> SampleFrame:
    """Centered moving average with an odd window; edges truncate the window."""
    _require_odd_window(window)
    if window == 1:
        return frame
    kernel = np.ones(window)
    sums = np.convolve(frame.values, kernel, mode="same")
    counts = np.convolve(np.ones(len(frame)), kernel, mode="same")
    return frame.with_values(sums / counts)


def _require_odd_window(window: int) -> None:
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be a positive odd sample count, got {window}")


@dataclass(frozen=True)
class TriggerConfig:
    """Edge-trigger parameters.

    trigger_level / band_epsilon left as None are derived per frame: the
    level defaults to the frame midrange (min+max)/2 and the band to 2% of
    the frame peak-to-peak.  refractory suppresses re-triggering for the
    given time after an accepted edge.
    """

    trigger_level: float | None = None
    band_epsilon: float | None = None
    run_length: int = 3
    refractory: float = 0.25

    def __post_init__(self):
        if self.band_epsilon is not None and self.band_epsilon < 0:
            raise ValueError(f"band_epsilon must be >= 0, got {self.band_epsilon}")
        if self.run_length < 3:
            raise ValueError(f"run_length must be >= 3, got {self.run_length}")
        if self.refractory < 0:
            raise ValueError(f"refractory must be >= 0, got {self.refractory}")


@dataclass(frozen=True)
class EdgeEvent:
    """A detected trigger point."""

    sample_index: int
    time: float
    kind: str  # "rising" | "falling"


def _resolve_trigger(values: np.ndarray, cfg: TriggerConfig) -> tuple[float, float]:
    lo, hi = float(np.min(values)), float(np.max(values))
    level = cfg.trigger_level if cfg.trigger_level is not None else (lo + hi) / 2.0
    epsilon = cfg.band_epsilon if cfg.band_epsilon is not None else 0.02 * (hi - lo)
    return level, epsilon


def _detect_edges(frame: SampleFrame, cfg: TriggerConfig, rising: bool) -> list[EdgeEvent]:
    values = frame.values if rising else -frame.values
    n = len(values)
    run = cfg.run_length
    if n < run:
        raise ValueError(f"frame of {n} samples is shorter than run_length {run}")
    level, epsilon = _resolve_trigger(values, cfg if rising else TriggerConfig(
        trigger_level=None if cfg.trigger_level is None else -cfg.trigger_level,
        band_epsilon=cfg.band_epsilon,
        run_length=cfg.run_length,
        refractory=cfg.refractory,
    ))
    steps_ok = np.all(sliding_window_view(np.diff(values) >= 0, run - 1), axis=1)
    first = values[: n - run + 1]
    last = values[run - 1:]
    # the run must enter from at or below the band, leave at or above it,
    # and show a net rise (flat runs are not edges)
    candidates = np.nonzero(
        steps_ok & (first <= level + epsilon) & (last >= level - epsilon) & (last > first)
    )[0]
    refractory_samples = int(round(cfg.refractory * frame.sample_rate))
    kind = "rising" if rising else "falling"
    events: list[EdgeEvent] = []
    next_allowed = 0
    for i in candidates:
        if i < next_allowed:
            continue
        mid = int(i) + run // 2
        events.append(EdgeEvent(
            sample_index=mid,
            time=frame.start_time + mid / frame.sample_rate,
            kind=kind,
        ))
        next_allowed = int(i) + max(refractory_samples, 1)
    return events


def detect_rising_edges(frame: SampleFrame, cfg: TriggerConfig | None = None) -> list[EdgeEvent]:
    """Scan left to right for rising trigger points.

    A match is run_length consecutive non-decreasing samples whose span
    touches or straddles the band around the trigger level; the middle
    sample of the run is reported and scanning skips ahead by the
    refractory interval.
    """
    return _detect_edges(frame, cfg or TriggerConfig(), rising=True)


def detect_falling_edges(frame: SampleFrame, cfg: TriggerConfig | None = None) -> list[EdgeEvent]:
    """Mirror of detect_rising_edges for non-increasing runs."""
    return _detect_edges(frame, cfg or TriggerConfig(), rising=False)


@dataclass(frozen=True)
class HeartRateReading:
    """Rate derived from the latest pair of rising edges.

    median_period summarizes all consecutive edge pairs when more than two
    edges were seen; otherwise it is None.
    """

    bpm: float
    period: float
    edge_pair: tuple[EdgeEvent, EdgeEvent]
    median_period: float | None = None

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")


def heart_rate_from_edges(edges, sample_rate: float) -> HeartRateReading:
    """Convert rising-edge times to beats per minute.

    The beat period is the sample distance between the last two rising
    edges; bpm = 60 / period.
    """
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
    median_period = float(np.median(periods)) if len(rising) > 2 else None
    return HeartRateReading(
        bpm=60.0 / period,
        period=period,
        edge_pair=(rising[-2], rising[-1]),
        median_period=median_period,
    )
