"""Synthetic ECG and test-signal sources.

Stands in for the electrodes and the body: a Gaussian-bump beat template,
calibration sinusoids, and additive interference (mains hum, baseline
wander, EMG noise), all on the one differential trace the front end reads.
All randomness comes from an explicitly seeded generator so generated
streams reproduce bit for bit.
"""

from __future__ import annotations

import functools
import math
import sys
import typing
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Wave",
    "EcgTemplateParams",
    "NoiseConfig",
    "SampleFrame",
    "generate_ecg",
    "generate_sine",
    "add_noise",
]

_FLOAT_MAX = sys.float_info.max  # an int beyond it has no float, so it is not finite


def _require_real(low: float | None = None, strict: bool = True, **named: float) -> None:
    """The one rule of a real-valued setting: an int, float, numpy integer or
    numpy float of at most 64 bits (a long double has no JSON form), never a
    bool, finite (an int within the float range) and > low (>= low if not
    strict) where given."""
    for name, value in named.items():
        if type(value) not in (float, int) and not isinstance(value, (np.integer, np.float64,
                                                                      np.float32, np.float16)):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        above = -math.inf < value if low is None else (low < value if strict else low <= value)
        if not (above and value < math.inf) or (type(value) is int and abs(value) > _FLOAT_MAX):
            bound = "" if low is None else f" and {'>' if strict else '>='} {low}"
            raise ValueError(f"{name} must be finite{bound}, got {value}")


def _require_int(name: str, value: int, minimum: int | None = None) -> None:
    """The one rule of an integer setting: an int or numpy integer, not a
    bool nor a float however whole, and at least minimum where given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@functools.cache
def _field_types(cls) -> dict[str, type]:
    """Each field of a settings dataclass and its declared type."""
    return typing.get_type_hints(cls)


def _require_declared_types(obj) -> None:
    """Refuse a field of obj (a str or a sub-config) that holds another type than
    it declares; float and int fields are left to _require_real and _require_int."""
    for name, kind in _field_types(type(obj)).items():
        if kind is not float and kind is not int and not isinstance(getattr(obj, name), kind):
            raise ValueError(f"{name} must be of type {kind.__name__}, got {getattr(obj, name)!r}")


def _sample_count(duration: float, sample_rate: float) -> int:
    """round(duration * sample_rate), refused where the product overflows."""
    samples = duration * sample_rate
    if not samples < math.inf:
        raise ValueError(f"duration {duration} s at sample_rate {sample_rate} Hz "
                         "gives no finite sample count")
    return int(round(samples))


def _require_frequency(name: str, freq: float, sample_rate: float) -> None:
    """The one rule of a frequency sampled at sample_rate: a real number
    > 0 and below Nyquist."""
    _require_real(0, **{name: freq})
    if freq >= sample_rate / 2:
        raise ValueError(f"{name} {freq} Hz is at or above Nyquist ({sample_rate / 2} Hz)")


def _require_source_rate(source: str, freq: float, sample_rate: float) -> None:
    """The sample rate a source needs for its fundamental of freq Hz
    (bpm / 60 for a beat train): an ECG beat at least four samples per
    period, a sine below Nyquist."""
    if source == "sine":
        _require_frequency("sine freq", freq, sample_rate)
    elif sample_rate < 4 * freq:
        raise ValueError(
            f"sample_rate {sample_rate} Hz too low for {60 * freq:g} bpm (need >= {4 * freq} Hz)"
        )


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
        _require_real(amplitude=self.amplitude, center=self.center)
        _require_real(0, width=self.width)


@dataclass(frozen=True)
class EcgTemplateParams:
    """P/Q/R/S/T bump parameters for one beat.

    The defaults give a beat of ~1 mV peak to peak on the differential
    trace.  The R bump is kept narrow and the T bump broad so the pulse
    train's spectral energy concentrates at the beat fundamental.
    """

    p: Wave = Wave(0.12, 0.16, 0.045)
    q: Wave = Wave(-0.08, 0.36, 0.010)
    r: Wave = Wave(0.90, 0.40, 0.010)
    s: Wave = Wave(-0.15, 0.44, 0.010)
    t: Wave = Wave(0.30, 0.64, 0.090)

    def __post_init__(self):
        _require_declared_types(self)
        centers = [w.center for w in self.waves()]
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise ValueError("wave centers must be strictly increasing in P,Q,R,S,T order")
        if self.r.amplitude <= 0:
            raise ValueError("R amplitude must be > 0")

    def waves(self) -> tuple[Wave, Wave, Wave, Wave, Wave]:
        return (self.p, self.q, self.r, self.s, self.t)


WANDER_FREQ = 0.2  # Hz, the baseline wander's breathing rate


@dataclass(frozen=True)
class NoiseConfig:
    """Additive interference terms, all amplitudes in millivolts.

    A zero config is the identity.  The same rng_seed always yields the
    same EMG noise stream.
    """

    mains_amplitude: float = 0.0
    mains_freq: float = 50.0
    wander_amplitude: float = 0.0
    emg_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        _require_real(0, mains_freq=self.mains_freq)
        _require_real(0, False, mains_amplitude=self.mains_amplitude,
                      wander_amplitude=self.wander_amplitude, emg_sigma=self.emg_sigma)
        _require_int("rng_seed", self.rng_seed, 0)


@dataclass(frozen=True)
class SampleFrame:
    """Fixed-rate series of sample values; `values` is a 1-D float64 array."""

    sample_rate: float
    values: np.ndarray
    start_time: float = 0.0

    def __post_init__(self):
        _require_real(0, sample_rate=self.sample_rate)
        _require_real(start_time=self.start_time)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if vals.size and not np.isfinite(vals).all():
            raise ValueError("values must all be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        """Sample times in seconds; the array may be shared and read-only."""
        return _time_base(len(self.values), self.sample_rate, self.start_time)

    def with_values(self, values) -> "SampleFrame":
        """Copy of this frame with new values."""
        return SampleFrame(self.sample_rate, values, self.start_time)

    def to_csv(self, path) -> None:
        """Write one time,value row per sample, 9 significant digits."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("time,value\n")
            for t, v in zip(self.times, self.values):
                fh.write(f"{t:.9g},{v:.9g}\n")

    @classmethod
    def from_csv(cls, path) -> "SampleFrame":
        """Read a time,value CSV written by to_csv.

        The sample rate is recovered from the time column, which must be
        strictly increasing and give a finite rate; frames with fewer than
        two rows fall back to 500 Hz.
        """
        times: list[float] = []
        values: list[float] = []
        with open(path, "r", encoding="utf-8-sig") as fh:  # skips a leading byte-order mark
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
                if not (math.isfinite(t) and math.isfinite(v)):
                    raise ValueError(f"{path}: line {lineno}: time and value must be finite, "
                                     f"got {line!r}")
                if times and not t > times[-1]:
                    raise ValueError(f"{path}: line {lineno}: time column must be strictly "
                                     f"increasing, got {t:.9g} after {times[-1]:.9g}")
                times.append(t)
                values.append(v)
        if len(times) >= 2:
            rate = (len(times) - 1) / (times[-1] - times[0])
            rate = float(f"{rate:.9g}")
            if not 0 < rate < math.inf:
                raise ValueError(f"{path}: sample_rate from the time column must be finite "
                                 f"and > 0, got {rate}")
            start = times[0]
        else:
            rate = 500.0
            start = times[0] if times else 0.0
        return cls(sample_rate=rate, values=np.asarray(values), start_time=start)


_SHAPE_CACHE_SAMPLES = 1 << 14  # a 1 h record's arrays would pin tens of megabytes
_SHAPE_CACHE_ENTRIES = 8
_shape_cache: dict[tuple, np.ndarray] = {}


def _per_shape(key: tuple, n: int, make) -> np.ndarray:
    """make(), computed once per key and then shared read-only, for frames
    of at most 2**14 samples; a longer frame gets a fresh array every call.

    key names everything make() reads.  Every record run_pipeline makes
    starts at t = 0 on the same sample grid, so arrays that depend only on
    the record's shape repeat bit for bit from record to record.
    """
    if n > _SHAPE_CACHE_SAMPLES:
        return make()
    arr = _shape_cache.get(key)
    if arr is None:
        if len(_shape_cache) >= _SHAPE_CACHE_ENTRIES:
            _shape_cache.clear()
        arr = make()
        arr.flags.writeable = False
        _shape_cache[key] = arr
    return arr


def _time_base(n: int, sample_rate: float, start_time: float = 0.0) -> np.ndarray:
    """start_time + arange(n) / sample_rate, the sample times of a frame."""
    return _per_shape(("time", n, sample_rate, start_time), n,
                      lambda: start_time + np.arange(n) / sample_rate)


def _unit_tone(n: int, sample_rate: float, start_time: float, freq: float) -> np.ndarray:
    """sin(2*pi*freq*t) on the frame's sample times."""
    return _per_shape(("tone", n, sample_rate, start_time, freq), n,
                      lambda: np.sin(2 * np.pi * freq * _time_base(n, sample_rate, start_time)))


# exp(x) rounds to +0.0 for every x <= -746, and numpy's exp takes a slow
# path on such lanes.  out starts at +0.0 and so never holds -0.0, which
# makes adding a +-0.0 term the identity; two rules skip that work with
# every bit of out as it was:
# - far wraps: a wrap at least this many widths from every phase adds
#   amplitude times exp(-800) or less, so it is not evaluated at all;
# - underflowing lanes: a wrap whose argument can fall to -746 or below
#   evaluates exp only where the argument is above -746 and leaves 0.0 in
#   the other lanes.  Subnormal results (arguments between -745.13 and
#   -708.4) are still computed, since they can show.
_ZERO_WRAP_WIDTHS = 40.0
_EXP_ZERO_BELOW = -746.0


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
    _require_real(0, bpm=bpm, duration=duration, sample_rate=sample_rate)
    fundamental = bpm / 60.0
    _require_source_rate("ecg", fundamental, sample_rate)
    n = _sample_count(duration, sample_rate)
    cycles = _time_base(n, sample_rate) * fundamental
    # cycles >= 0, so cycles - floor(cycles) is the exact remainder
    phase = np.floor(cycles)
    np.subtract(cycles, phase, out=phase)
    out = np.zeros(n)
    arg, term = cycles, np.empty(n)  # scratch
    for wave in params.waves():
        c, w = wave.center, wave.width
        # wrap adjacent periods so tails near the beat boundary are kept;
        # gap and reach are the wrap's nearest and farthest distance to any
        # phase in [0, 1)
        for k, gap in ((-1.0, 1.0 - c), (0.0, 0.0), (1.0, c)):
            if gap >= _ZERO_WRAP_WIDTHS * w:
                continue
            reach = max(abs(c + k), abs(1.0 - c - k))
            # arg = -0.5 * ((phase - c - k) / w) ** 2
            np.subtract(phase, c, out=arg)
            np.subtract(arg, k, out=arg)
            np.divide(arg, w, out=arg)
            np.square(arg, out=arg)
            np.multiply(arg, -0.5, out=arg)
            if -0.5 * (reach / w) ** 2 > _EXP_ZERO_BELOW:
                np.exp(arg, out=term)
            else:
                term.fill(0.0)
                np.exp(arg, out=term, where=arg > _EXP_ZERO_BELOW)
            np.multiply(term, wave.amplitude, out=term)
            out += term
    return SampleFrame(sample_rate=sample_rate, values=out)


def generate_sine(freq: float, amplitude: float, sample_rate: float, duration: float) -> SampleFrame:
    """Pure sine frame: amplitude * sin(2*pi*freq*t) on the frame's sample times, through _unit_tone."""
    _require_real(0, sample_rate=sample_rate, duration=duration)
    _require_real(amplitude=amplitude)
    _require_source_rate("sine", freq, sample_rate)
    n = _sample_count(duration, sample_rate)
    return SampleFrame(sample_rate=sample_rate, values=amplitude * _unit_tone(n, sample_rate, 0.0, freq))


def _require_tones(cfg: NoiseConfig, sample_rate: float) -> None:
    """Each tone of cfg that sounds (amplitude > 0) below Nyquist."""
    for name, amplitude, freq in (("mains_freq", cfg.mains_amplitude, cfg.mains_freq),
                                  ("wander_freq", cfg.wander_amplitude, WANDER_FREQ)):
        if amplitude > 0:
            _require_frequency(name, freq, sample_rate)


def add_noise(src: SampleFrame, cfg: NoiseConfig) -> SampleFrame:
    """src, a clean differential frame in mV, plus the configured
    interference: mains sine + wander sine + seeded Gaussian EMG."""
    n, rate, start = len(src), src.sample_rate, src.start_time
    _require_tones(cfg, rate)
    diff = src.values.copy()
    if cfg.mains_amplitude > 0:
        diff += cfg.mains_amplitude * _unit_tone(n, rate, start, cfg.mains_freq)
    if cfg.wander_amplitude > 0:
        diff += cfg.wander_amplitude * _unit_tone(n, rate, start, WANDER_FREQ)
    if cfg.emg_sigma > 0:
        rng = np.random.default_rng(cfg.rng_seed)
        diff += rng.normal(0.0, cfg.emg_sigma, n)
    return src.with_values(diff)
