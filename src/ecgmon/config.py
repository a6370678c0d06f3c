"""Plain-text pipeline configuration: [section] headers and key = value lines.

Unknown sections or keys are rejected and every diagnostic names the line
it came from.  Values accept '#' comments; 'auto' means derive-at-runtime
for the trigger keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .acquisition import AdcConfig
from .dsp import TriggerConfig
from .frontend import FrontEndSpec, bench_spec
from .signals import EcgTemplateParams, NoiseConfig
from .telemetry import MAX_ECG_SAMPLES, AlertPolicy

__all__ = ["ConfigError", "PipelineConfig"]


class ConfigError(ValueError):
    """Configuration file problem; message carries the offending line number."""


def _parse_float(s: str) -> float:
    return float(s)


def _parse_int(s: str) -> int:
    return int(s, 0)


def _parse_str(s: str) -> str:
    return s


def _parse_auto_float(s: str) -> float | None:
    return None if s.lower() == "auto" else float(s)


def _parse_source(s: str) -> str:
    if s not in ("ecg", "sine"):
        raise ValueError(f"source must be 'ecg' or 'sine', got {s!r}")
    return s


_SCHEMA: dict[str, dict[str, object]] = {
    "signal": {
        "source": _parse_source,
        "sample_rate": _parse_float,
        "duration": _parse_float,
        "bpm": _parse_float,
        "sine_amplitude": _parse_float,
    },
    "noise": {
        "mains_amplitude": _parse_float,
        "mains_freq": _parse_float,
        "wander_amplitude": _parse_float,
        "wander_freq": _parse_float,
        "emg_sigma": _parse_float,
        "dc_offset": _parse_float,
        "common_mode_amplitude": _parse_float,
        "common_mode_freq": _parse_float,
        "seed": _parse_int,
    },
    "frontend": {
        "instrument_gain": _parse_float,
        "voltage_gain": _parse_float,
        "f_ch": _parse_float,
        "f_cl": _parse_float,
        "f_0": _parse_float,
        "notch_q": _parse_float,
        "cmrr_db": _parse_float,
        "lift_bias": _parse_float,
        "supply_min": _parse_float,
        "supply_max": _parse_float,
    },
    "adc": {
        "resolution_bits": _parse_int,
        "vref": _parse_float,
        "half_capacity": _parse_int,
    },
    "dsp": {
        "notch_center": _parse_float,
        "notch_half_band": _parse_float,
        "smooth_window": _parse_int,
    },
    "trigger": {
        "trigger_level": _parse_auto_float,
        "band_epsilon": _parse_auto_float,
        "run_length": _parse_int,
        "refractory": _parse_float,
    },
    "alerts": {
        "low_bpm": _parse_float,
        "high_bpm": _parse_float,
    },
    "render": {
        "width": _parse_int,
        "height": _parse_int,
    },
    "telemetry": {
        "device_id": _parse_str,
        "location": _parse_str,
        "sink": _parse_str,
        "max_ecg": _parse_int,
        "timestamp": _parse_int,
    },
}


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved settings for the end-to-end pipeline."""

    source: str = "ecg"
    sample_rate: float = 500.0
    duration: float = 10.0
    bpm: float = 72.0
    sine_amplitude: float = 0.5
    template: EcgTemplateParams = field(default_factory=EcgTemplateParams.default)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    frontend: FrontEndSpec = field(default_factory=bench_spec)
    adc_bits: int = 12
    adc_vref: float = 3.3
    half_capacity: int = 512
    notch_center: float = 50.0
    notch_half_band: float = 2.0
    smooth_window: int = 5
    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    alerts: AlertPolicy = field(default_factory=AlertPolicy)
    fb_width: int = 128
    fb_height: int = 64
    device_id: str = "ecgmon-0"
    location: str = "location-unset"
    sink: str = "stdout"
    max_ecg: int = MAX_ECG_SAMPLES
    timestamp: int = 0

    @property
    def adc(self) -> AdcConfig:
        return AdcConfig(resolution_bits=self.adc_bits, vref=self.adc_vref,
                         sample_rate=self.sample_rate)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read(), name=str(path))

    @classmethod
    def loads(cls, text: str, name: str = "<config>") -> "PipelineConfig":
        raw = _parse_sections(text, name)
        cfg = cls()

        def pick(section: str, key: str, default):
            return raw.get(section, {}).get(key, default)

        try:
            noise = NoiseConfig(
                mains_amplitude=pick("noise", "mains_amplitude", 0.0),
                mains_freq=pick("noise", "mains_freq", 50.0),
                wander_amplitude=pick("noise", "wander_amplitude", 0.0),
                wander_freq=pick("noise", "wander_freq", 0.2),
                emg_sigma=pick("noise", "emg_sigma", 0.0),
                dc_offset=pick("noise", "dc_offset", 0.0),
                common_mode_amplitude=pick("noise", "common_mode_amplitude", 0.0),
                common_mode_freq=pick("noise", "common_mode_freq", 50.0),
                rng_seed=pick("noise", "seed", 0),
            )
            base_fe = bench_spec()
            frontend = FrontEndSpec(
                instrument_gain=pick("frontend", "instrument_gain", base_fe.instrument_gain),
                voltage_gain=pick("frontend", "voltage_gain", base_fe.voltage_gain),
                f_ch=pick("frontend", "f_ch", base_fe.f_ch),
                f_cl=pick("frontend", "f_cl", base_fe.f_cl),
                f_0=pick("frontend", "f_0", base_fe.f_0),
                notch_q=pick("frontend", "notch_q", base_fe.notch_q),
                cmrr_db=pick("frontend", "cmrr_db", base_fe.cmrr_db),
                lift_bias=pick("frontend", "lift_bias", base_fe.lift_bias),
                supply=(pick("frontend", "supply_min", base_fe.supply[0]),
                        pick("frontend", "supply_max", base_fe.supply[1])),
            )
            trigger = TriggerConfig(
                trigger_level=pick("trigger", "trigger_level", None),
                band_epsilon=pick("trigger", "band_epsilon", None),
                run_length=pick("trigger", "run_length", 3),
                refractory=pick("trigger", "refractory", 0.25),
            )
            alerts = AlertPolicy(
                low_bpm=pick("alerts", "low_bpm", 50.0),
                high_bpm=pick("alerts", "high_bpm", 120.0),
            )
            cfg = replace(
                cfg,
                source=pick("signal", "source", cfg.source),
                sample_rate=pick("signal", "sample_rate", cfg.sample_rate),
                duration=pick("signal", "duration", cfg.duration),
                bpm=pick("signal", "bpm", cfg.bpm),
                sine_amplitude=pick("signal", "sine_amplitude", cfg.sine_amplitude),
                noise=noise,
                frontend=frontend,
                adc_bits=pick("adc", "resolution_bits", cfg.adc_bits),
                adc_vref=pick("adc", "vref", cfg.adc_vref),
                half_capacity=pick("adc", "half_capacity", cfg.half_capacity),
                notch_center=pick("dsp", "notch_center", cfg.notch_center),
                notch_half_band=pick("dsp", "notch_half_band", cfg.notch_half_band),
                smooth_window=pick("dsp", "smooth_window", cfg.smooth_window),
                trigger=trigger,
                alerts=alerts,
                fb_width=pick("render", "width", cfg.fb_width),
                fb_height=pick("render", "height", cfg.fb_height),
                device_id=pick("telemetry", "device_id", cfg.device_id),
                location=pick("telemetry", "location", cfg.location),
                sink=pick("telemetry", "sink", cfg.sink),
                max_ecg=pick("telemetry", "max_ecg", cfg.max_ecg),
                timestamp=pick("telemetry", "timestamp", cfg.timestamp),
            )
            cfg.adc  # AdcConfig checks sample_rate, bits and vref
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
        return cfg


def _parse_sections(text: str, name: str) -> dict[str, dict[str, object]]:
    out: dict[str, dict[str, object]] = {}
    section: str | None = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"{name}: line {lineno}: unknown section [{section}]")
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{name}: line {lineno}: expected 'key = value', got {rawline.strip()!r}")
        if section is None:
            raise ConfigError(f"{name}: line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        schema = _SCHEMA[section]
        if key not in schema:
            raise ConfigError(f"{name}: line {lineno}: unknown key {key!r} in [{section}]")
        try:
            out[section][key] = schema[key](value)  # type: ignore[operator]
        except ValueError as exc:
            raise ConfigError(f"{name}: line {lineno}: bad value for {key!r}: {exc}") from exc
    return out
