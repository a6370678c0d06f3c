"""Synthetic ECG and test-signal sources.

Stands in for the electrodes and the body: a Gaussian-bump beat template,
calibration sinusoids, and additive interference (mains hum, baseline
wander, EMG noise, common-mode pickup).  All randomness comes from an
explicitly seeded generator so generated streams reproduce bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Wave",
    "EcgTemplateParams",
    "NoiseConfig",
    "SampleFrame",
    "SourceSignal",
    "generate_ecg",
    "generate_sine",
    "add_noise",
]


def _require_finite_positive(**named: float) -> None:
    for name, value in named.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class Wave:
    """One Gaussian bump of the beat template.

    amplitude is in millivolts (negative for Q/S deflections); center and
    width are fractions of the beat period.
    """

    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError(f"wave width must be > 0, got {self.width}")


@dataclass(frozen=True)
class EcgTemplateParams:
    """P/Q/R/S/T bump parameters for one beat."""

    p: Wave
    q: Wave
    r: Wave
    s: Wave
    t: Wave

    def __post_init__(self):
        centers = [w.center for w in self.waves()]
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise ValueError("wave centers must be strictly increasing in P,Q,R,S,T order")
        if self.r.amplitude <= 0:
            raise ValueError("R amplitude must be > 0")

    def waves(self) -> tuple[Wave, Wave, Wave, Wave, Wave]:
        return (self.p, self.q, self.r, self.s, self.t)

    @classmethod
    def default(cls) -> "EcgTemplateParams":
        """Default beat, ~1 mV peak to peak on the differential channel.

        The R bump is kept narrow and the T bump broad so the pulse train's
        spectral energy concentrates at the beat fundamental.
        """
        return cls(
            p=Wave(0.12, 0.16, 0.045),
            q=Wave(-0.08, 0.36, 0.010),
            r=Wave(0.90, 0.40, 0.010),
            s=Wave(-0.15, 0.44, 0.010),
            t=Wave(0.30, 0.64, 0.090),
        )


@dataclass(frozen=True)
class NoiseConfig:
    """Additive interference terms, all amplitudes in millivolts.

    A zero config is the identity on the differential channel.  The same
    rng_seed always yields the same EMG noise stream.
    """

    mains_amplitude: float = 0.0
    mains_freq: float = 50.0
    wander_amplitude: float = 0.0
    wander_freq: float = 0.2
    emg_sigma: float = 0.0
    dc_offset: float = 0.0
    common_mode_amplitude: float = 0.0
    common_mode_freq: float = 50.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("mains_amplitude", "wander_amplitude", "emg_sigma", "common_mode_amplitude"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class SampleFrame:
    """Fixed-rate series of sample values with unit metadata.

    `values` is a 1-D float64 array; `unit` tags the physical scale
    ("mV", "V" or "code").
    """

    sample_rate: float
    values: np.ndarray
    start_time: float = 0.0
    unit: str = "mV"

    def __post_init__(self):
        _require_finite_positive(sample_rate=self.sample_rate)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("values must all be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return self.start_time + np.arange(len(self.values)) / self.sample_rate

    @property
    def duration(self) -> float:
        return len(self.values) / self.sample_rate

    def with_values(self, values, unit: str | None = None) -> "SampleFrame":
        """Copy of this frame with new values (and optionally a new unit)."""
        return SampleFrame(self.sample_rate, values, self.start_time, unit or self.unit)

    def to_csv(self, path) -> None:
        """Write one time,value row per sample, 9 significant digits."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("time,value\n")
            for t, v in zip(self.times, self.values):
                fh.write(f"{t:.9g},{v:.9g}\n")

    @classmethod
    def from_csv(cls, path, unit: str = "mV", default_rate: float = 500.0) -> "SampleFrame":
        """Read a time,value CSV written by to_csv.

        The sample rate is recovered from the time column, which must be
        strictly increasing; frames with fewer than two rows fall back to
        default_rate.
        """
        times: list[float] = []
        values: list[float] = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or (lineno == 1 and line.lower().startswith("time")):
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise ValueError(f"{path}: line {lineno}: expected 'time,value', got {line!r}")
                try:
                    t, v = float(parts[0]), float(parts[1])
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from exc
                if times and not t > times[-1]:
                    raise ValueError(f"{path}: line {lineno}: time column must be strictly "
                                     f"increasing, got {t:.9g} after {times[-1]:.9g}")
                times.append(t)
                values.append(v)
        if len(times) >= 2:
            rate = (len(times) - 1) / (times[-1] - times[0])
            rate = float(f"{rate:.9g}")
            start = times[0]
        else:
            rate = default_rate
            start = times[0] if times else 0.0
        return cls(sample_rate=rate, values=np.asarray(values), start_time=start, unit=unit)


@dataclass(frozen=True)
class SourceSignal:
    """Differential ECG channel plus its common-mode companion, both in mV."""

    differential: SampleFrame
    common_mode: SampleFrame

    def __post_init__(self):
        if self.differential.sample_rate != self.common_mode.sample_rate:
            raise ValueError("differential and common_mode must share a sample rate")
        if len(self.differential) != len(self.common_mode):
            raise ValueError("differential and common_mode must have equal length")


def generate_ecg(
    params: EcgTemplateParams,
    bpm: float,
    sample_rate: float,
    duration: float,
) -> SampleFrame:
    """Periodic Gaussian-bump beat train at the given rate, in millivolts.

    Each beat spans one period of 60/bpm seconds; every wave contributes a
    Gaussian at its center fraction.  Bumps are wrapped across beat
    boundaries so the waveform is exactly periodic.
    """
    _require_finite_positive(bpm=bpm, duration=duration, sample_rate=sample_rate)
    fundamental = bpm / 60.0
    if sample_rate < 4 * fundamental:
        raise ValueError(
            f"sample_rate {sample_rate} Hz too low for {bpm} bpm (need >= {4 * fundamental} Hz)"
        )
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    phase = (t * fundamental) % 1.0
    out = np.zeros(n)
    for wave in params.waves():
        # wrap adjacent periods so tails near the beat boundary are kept
        for k in (-1.0, 0.0, 1.0):
            out += wave.amplitude * np.exp(-0.5 * ((phase - wave.center - k) / wave.width) ** 2)
    return SampleFrame(sample_rate=sample_rate, values=out, unit="mV")


def generate_sine(freq: float, amplitude: float, sample_rate: float, duration: float) -> SampleFrame:
    """Pure sine frame: values[n] = amplitude * sin(2*pi*freq*n/sample_rate)."""
    _require_finite_positive(sample_rate=sample_rate, duration=duration)
    if not (math.isfinite(freq) and math.isfinite(amplitude)):
        raise ValueError(f"freq and amplitude must be finite, got {freq}, {amplitude}")
    if freq >= sample_rate / 2:
        raise ValueError(f"freq {freq} Hz aliases at sample_rate {sample_rate} Hz")
    n = int(round(duration * sample_rate))
    values = amplitude * np.sin(2 * np.pi * freq * np.arange(n) / sample_rate)
    return SampleFrame(sample_rate=sample_rate, values=values, unit="mV")


def add_noise(src: SampleFrame, cfg: NoiseConfig) -> SourceSignal:
    """Overlay configured interference on a clean differential frame.

    differential = src + mains sine + wander sine + seeded Gaussian EMG
    + dc offset; common_mode is a separate sine per the config.
    """
    t = src.times
    diff = src.values.copy()
    if cfg.mains_amplitude > 0:
        diff += cfg.mains_amplitude * np.sin(2 * np.pi * cfg.mains_freq * t)
    if cfg.wander_amplitude > 0:
        diff += cfg.wander_amplitude * np.sin(2 * np.pi * cfg.wander_freq * t)
    if cfg.emg_sigma > 0:
        rng = np.random.default_rng(cfg.rng_seed)
        diff += rng.normal(0.0, cfg.emg_sigma, len(diff))
    if cfg.dc_offset != 0:
        diff += cfg.dc_offset
    if cfg.common_mode_amplitude > 0:
        cm = cfg.common_mode_amplitude * np.sin(2 * np.pi * cfg.common_mode_freq * t)
    else:
        cm = np.zeros(len(diff))
    return SourceSignal(
        differential=src.with_values(diff),
        common_mode=src.with_values(cm),
    )
