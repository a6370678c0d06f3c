"""Model of the bench board's analog signal-conditioning chain.

Seven board elements reduce to four behaviors here: a gain chain
(instrumentation amplifier times voltage amplifier), first-order high- and
low-pass filters, a second-order mains notch, and a DC lift into the ADC
range.  The chain reads one differential trace; the right-leg drive's
common-mode rejection is the scalar leak COMMON_MODE_LEAK (the CMRR
figure), which the metrics probe drives through the same chain.  The
gain, CMRR, supply rails and lift are the board's fixed design; the
filter corners, notch center and Q are settings.
Component-value formulas give the design parameters; bilinear
discretization with prewarping runs the stages on sampled data.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .signals import (NoiseConfig, SampleFrame, _require_frequency, _require_real, add_noise,
                      generate_sine)

__all__ = [
    "FrontEndSpec",
    "FrontEndResult",
    "MetricsReport",
    "instrument_gain",
    "voltage_gain",
    "highpass_cutoff",
    "lowpass_cutoff",
    "notch_center",
    "discretize",
    "apply_frontend",
    "measure_metrics",
    "chain_magnitude",
    "bench_spec",
]

INPUT_IMPEDANCE = 13.2e6  # ohms, declared constant, never simulated
# the bench board's fixed design, taken directly from it
CHAIN_GAIN = 22.0 * 75.0  # instrumentation amplifier times voltage amplifier
COMMON_MODE_LEAK = 10 ** (-93.16 / 20)  # the 93.16 dB CMRR as an amplitude ratio
SUPPLY_MIN, SUPPLY_MAX = 0.0, 3.3  # volts, the output clip range
LIFT_BIAS = SUPPLY_MAX / 2  # volts, recenters the bipolar signal at mid-rail
STAGE_ORDER = ("notch", "lowpass", "highpass")


def instrument_gain(r1: float, r2: float, r3: float, r4: float, r5: float, r7: float) -> float:
    """Two-stage instrumentation amplifier gain: (1 + (R3+R4)/(R1+R2)) * R7/R5."""
    _require_real(0, r1=r1, r2=r2, r3=r3, r4=r4, r5=r5, r7=r7)
    return (1.0 + (r3 + r4) / (r1 + r2)) * (r7 / r5)


def voltage_gain(r_a: float, r_b: float) -> float:
    """Non-inverting voltage amplifier gain 1 + Rb/Ra."""
    _require_real(0, r_a=r_a, r_b=r_b)
    return 1.0 + r_b / r_a


def highpass_cutoff(c2: float, r_hp: float) -> float:
    """High-pass corner 1/(2*pi*R*C)."""
    _require_real(0, c2=c2, r_hp=r_hp)
    return 1.0 / (2 * math.pi * r_hp * c2)


def lowpass_cutoff(c3: float, r15: float) -> float:
    """Low-pass corner 1/(2*pi*R*C)."""
    _require_real(0, c3=c3, r15=r15)
    return 1.0 / (2 * math.pi * r15 * c3)


def notch_center(r31: float, c5: float, r27: float, c7: float) -> float:
    """Band-reject center: geometric mean of the two RC leg frequencies."""
    _require_real(0, r31=r31, c5=c5, r27=r27, c7=c7)
    f_leg1 = 1.0 / (2 * math.pi * r31 * c5)
    f_leg2 = 1.0 / (2 * math.pi * r27 * c7)
    return math.sqrt(f_leg1 * f_leg2)


@dataclass(frozen=True)
class FrontEndSpec:
    """Filter parameters of the conditioning chain.

    The defaults are the bench board: the corner frequencies and notch Q
    are tuned so the measured -3 dB band comes out near 0.18..70.2 Hz with
    50 Hz attenuation below -12.6 dB.
    """

    f_ch: float = 0.18
    f_cl: float = 69.5
    f_0: float = 49.79
    notch_q: float = 30.0

    def __post_init__(self):
        _require_real(0, f_ch=self.f_ch, f_cl=self.f_cl, f_0=self.f_0, notch_q=self.notch_q)
        if not self.f_ch < self.f_0 < self.f_cl:
            raise ValueError(f"need f_ch < f_0 < f_cl, got {self.f_ch}, {self.f_0}, {self.f_cl}")


def bench_spec() -> FrontEndSpec:
    """Spec whose measured metrics land on the bench-measured figures."""
    return FrontEndSpec()


def _response(b, a, sample_rate: float, freq) -> np.ndarray:
    """Complex response of one (b, a) stage on the unit circle at freq (Hz)."""
    w = 2 * np.pi * np.asarray(freq, dtype=np.float64) / sample_rate
    z1 = np.exp(-1j * w)
    z2 = z1 * z1
    return (b[0] + b[1] * z1 + b[2] * z2) / (a[0] + a[1] * z1 + a[2] * z2)


def discretize(stage_kind: str, spec: FrontEndSpec, sample_rate: float) -> tuple[tuple, tuple]:
    """Bilinear-transform discretization, prewarped at the stage corner.

    Returns the stage's (b, a) difference-equation coefficients, three of
    each with a[0] = 1; first-order stages have b[2] = a[2] = 0.
    Prewarping pins the stage's characteristic frequency: the discrete
    high-/low-pass hit exactly -3 dB at their corners and the notch zero
    lands exactly on f_0 at any sample rate.
    """
    _require_real(0, sample_rate=sample_rate)
    if stage_kind == "highpass":
        f = spec.f_ch
    elif stage_kind == "lowpass":
        f = spec.f_cl
    elif stage_kind == "notch":
        f = spec.f_0
    else:
        raise ValueError(f"unknown stage kind {stage_kind!r}")
    _require_frequency(f"{stage_kind} corner", f, sample_rate)

    if stage_kind == "notch":
        w = 2 * math.pi * f / sample_rate
        alpha = math.sin(w) / (2 * spec.notch_q)
        a0 = 1 + alpha
        b = (1 / a0, -2 * math.cos(w) / a0, 1 / a0)
        a = (1.0, -2 * math.cos(w) / a0, (1 - alpha) / a0)
    else:
        # first-order prototypes; K is the prewarped bilinear constant
        w0 = 2 * math.pi * f
        k = w0 / math.tan(w0 / (2 * sample_rate))
        a0 = k + w0
        b = (w0 / a0, w0 / a0, 0.0) if stage_kind == "lowpass" else (k / a0, -k / a0, 0.0)
        a = (1.0, (w0 - k) / a0, 0.0)
    if not np.all(np.abs(np.roots(a)) < 1.0):
        raise ValueError("filter poles must lie strictly inside the unit circle")
    return b, a


@functools.lru_cache(maxsize=64)
def _chain_coefficients(spec: FrontEndSpec, sample_rate: float) -> tuple:
    """(b, a) of each cascade stage, designed and stability-checked once per
    (spec, rate) key."""
    return tuple(discretize(kind, spec, sample_rate) for kind in STAGE_ORDER)


def chain_magnitude(spec: FrontEndSpec, sample_rate: float, freqs) -> np.ndarray:
    """Magnitude of the filter cascade (gain excluded) on the unit circle."""
    h = np.ones_like(np.asarray(freqs, dtype=np.float64), dtype=np.complex128)
    for b, a in _chain_coefficients(spec, sample_rate):
        h = h * _response(b, a, sample_rate, freqs)
    return np.abs(h)


@functools.cache
def _linear_filter():
    """scipy's compiled direct-form II transposed filter, the routine
    ``scipy.signal.lfilter`` runs for every (b, a) pair with len(a) > 1.

    It is loaded from its extension module alone: importing the
    ``scipy.signal`` package also imports scipy.stats, optimize, spatial and
    more, which took three quarters of a run's start-up.
    """
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy_dir, "signal"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    ext_spec = finder.find_spec("scipy.signal._sigtools")
    if ext_spec is None:
        raise ImportError(f"no scipy.signal._sigtools extension under {scipy_dir}")
    module = importlib.util.module_from_spec(ext_spec)
    ext_spec.loader.exec_module(module)
    return module._linear_filter


@dataclass(frozen=True)
class FrontEndResult:
    """Conditioned output frame plus the rail-saturation flag."""

    frame: SampleFrame
    saturated: bool


def apply_frontend(frame: SampleFrame, spec: FrontEndSpec) -> FrontEndResult:
    """Run a differential source frame, in mV, through the conditioning chain.

    The filter cascade and gain are applied, the output is lifted to the
    DC bias and saturated to the supply range.  Output frame is in volts.
    """
    linear_filter = _linear_filter()
    x = frame.values * 1e-3  # mV -> V
    for b, a in _chain_coefficients(spec, frame.sample_rate):
        x = linear_filter(b, a, x, -1)  # each run starts from rest
    with np.errstate(over="ignore"):  # a huge input's inf saturates at the clip like any other
        y = CHAIN_GAIN * x + LIFT_BIAS
    saturated = bool(len(y)) and bool(np.any((y < SUPPLY_MIN) | (y > SUPPLY_MAX)))
    y = np.clip(y, SUPPLY_MIN, SUPPLY_MAX)
    return FrontEndResult(frame=frame.with_values(y), saturated=saturated)


@dataclass(frozen=True)
class MetricsReport:
    """Bench-style measurements of the conditioning chain."""

    differential_gain: float
    common_mode_gain: float
    cmrr_db: float
    bandwidth_low: float
    bandwidth_high: float
    bw: float
    mains_attenuation_db: float
    input_impedance: float
    equiv_input_noise: float

    def as_dict(self) -> dict:
        return asdict(self)


_PROBE_AMPLITUDE_MV = 0.5  # half the rail swing at gain 1650, no clipping
_MAINS_PROBE_FREQ = 50.0  # Hz, the highest probe: the attenuation row's mains tone


def _require_probe_rate(sample_rate: float) -> None:
    """The sample rate measure_metrics needs: its 50 Hz probe below Nyquist."""
    _require_frequency("mains attenuation probe", _MAINS_PROBE_FREQ, sample_rate)


def _probe_gain(spec: FrontEndSpec, sample_rate: float, freq: float, channel: str) -> float:
    """Measured amplitude gain at one frequency via a sine run.

    A common-mode sine reaches the chain as its COMMON_MODE_LEAK share.
    The first half of the run is discarded as settle time and the steady
    amplitude is estimated over an integer number of cycles.
    """
    duration = max(4.0, 12.0 / freq)
    sine = generate_sine(freq, _PROBE_AMPLITUDE_MV, sample_rate, duration)
    if channel != "differential":
        sine = sine.with_values(COMMON_MODE_LEAK * sine.values)
    out = apply_frontend(sine, spec).frame.values
    tail = out[len(out) // 2:]
    n_cycles = math.floor(len(tail) / sample_rate * freq)
    n_keep = int(round(n_cycles * sample_rate / freq))
    tail = tail[:n_keep]
    amp_out = math.sqrt(2.0) * float(np.std(tail - np.mean(tail)))
    if amp_out == 0:
        raise ValueError(f"the {channel} probe at {freq:g} Hz measured a gain of 0, "
                         "so the gain ratios are undefined")
    return amp_out / (_PROBE_AMPLITUDE_MV * 1e-3)


_BISECT_ITERATIONS = 80  # at most: _bisect_crossing may stop earlier


def _bisect_crossing(mag_fn, target: float, lo: float, hi: float) -> float:
    """Frequency where mag_fn crosses target, given a bracketing interval.

    Stops early once an iteration leaves the bracket unchanged: every later
    one would evaluate the same midpoint again, so the result is the same.
    """
    f_lo, f_hi = lo, hi
    s_lo = mag_fn(f_lo) - target
    for _ in range(_BISECT_ITERATIONS):
        bracket = (f_lo, f_hi)
        mid = math.sqrt(f_lo * f_hi)  # geometric midpoint suits log-spaced responses
        s_mid = mag_fn(mid) - target
        if (s_mid > 0) == (s_lo > 0):
            f_lo, s_lo = mid, s_mid
        else:
            f_hi = mid
        if (f_lo, f_hi) == bracket:
            break
    return math.sqrt(f_lo * f_hi)


def _band_edges(spec: FrontEndSpec, sample_rate: float) -> tuple[float, float]:
    """Outermost -3 dB crossings of the cascade response.

    The band is swept on a log grid and the first/last points above the
    -3 dB target bracket the bisections, so the in-band 50 Hz notch dip
    does not terminate the band early.
    """
    ref = float(chain_magnitude(spec, sample_rate, 10.0))
    target = ref / math.sqrt(2.0)
    grid = np.logspace(math.log10(1e-3), math.log10(0.499 * sample_rate), 800)
    mags = chain_magnitude(spec, sample_rate, grid)
    above = np.nonzero(mags >= target)[0]
    if len(above) == 0:
        raise ValueError("response never reaches the -3 dB target")
    mag_fn = lambda f: float(chain_magnitude(spec, sample_rate, f))
    i_first, i_last = int(above[0]), int(above[-1])
    if i_first == 0:
        f_low = float(grid[0])
    else:
        f_low = _bisect_crossing(mag_fn, target, grid[i_first - 1], grid[i_first])
    if i_last == len(grid) - 1:
        f_high = float(grid[-1])
    else:
        f_high = _bisect_crossing(mag_fn, target, grid[i_last], grid[i_last + 1])
    return f_low, f_high


def measure_metrics(
    spec: FrontEndSpec,
    sample_rate: float,
    noise: NoiseConfig = NoiseConfig(),
) -> MetricsReport:
    """Measure the chain the way the bench table defines its rows.

    Differential and common-mode gains are probed with 10 Hz sines, the
    common-mode one through the chain's leak; CMRR and the 50-vs-20 Hz
    attenuation come straight from their defining log ratios of measured
    gains (a rate that puts the 50 Hz probe at or above Nyquist is refused
    before any probe runs); band edges are the outermost -3 dB
    crossings of the realized discrete response; input impedance is a
    declared constant; equivalent input noise is the peak output of a
    zero-differential-input run (with the given noise config) referred to
    the input by the measured differential gain.
    """
    _require_probe_rate(sample_rate)
    a_d = _probe_gain(spec, sample_rate, 10.0, "differential")
    a_c = _probe_gain(spec, sample_rate, 10.0, "common")
    cmrr_db = 20 * math.log10(a_d / a_c)
    a_50 = _probe_gain(spec, sample_rate, _MAINS_PROBE_FREQ, "differential")
    a_20 = _probe_gain(spec, sample_rate, 20.0, "differential")
    alpha_db = 20 * math.log10(a_50 / a_20)
    f_low, f_high = _band_edges(spec, sample_rate)

    flat = SampleFrame(sample_rate=sample_rate, values=np.zeros(int(4 * sample_rate)))
    out = apply_frontend(add_noise(flat, noise), spec).frame.values
    tail = out[len(out) // 2:]
    u_omax = float(np.max(np.abs(tail - LIFT_BIAS)))

    return MetricsReport(
        differential_gain=a_d,
        common_mode_gain=a_c,
        cmrr_db=cmrr_db,
        bandwidth_low=f_low,
        bandwidth_high=f_high,
        bw=f_high - f_low,
        mains_attenuation_db=alpha_db,
        input_impedance=INPUT_IMPEDANCE,
        equiv_input_noise=u_omax / a_d,
    )
