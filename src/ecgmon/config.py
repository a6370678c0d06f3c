"""Plain-text pipeline configuration: [section] headers and key = value lines.

Unknown sections or keys are rejected and every diagnostic names the line
it came from.  Values accept '#' comments; 'auto' means derive-at-runtime
for the trigger keys.  Every default lives in a dataclass field: the file
only overrides them, and each key's parser follows from its field's type.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, replace

from .acquisition import AdcConfig
from .dsp import TriggerConfig, _require_notch, _require_odd_window
from .frontend import FrontEndSpec
from .render import DEFAULT_HEIGHT, DEFAULT_WIDTH
from .signals import EcgTemplateParams, NoiseConfig
from .telemetry import MAX_ECG_SAMPLES, AlertPolicy

__all__ = ["ConfigError", "PipelineConfig"]


class ConfigError(ValueError):
    """Configuration file problem; message carries the offending line number."""


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved settings for the end-to-end pipeline.

    Settings that mirror a stage dataclass take that dataclass's default;
    the sub-configs (noise, frontend, trigger, alerts) carry their own.
    """

    source: str = "ecg"
    sample_rate: float = AdcConfig.sample_rate
    duration: float = 10.0
    bpm: float = 72.0
    sine_amplitude: float = 0.5
    template: EcgTemplateParams = field(default_factory=EcgTemplateParams.default)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    frontend: FrontEndSpec = field(default_factory=FrontEndSpec)
    adc_bits: int = AdcConfig.resolution_bits
    adc_vref: float = AdcConfig.vref
    half_capacity: int = 512
    notch_center: float = 50.0
    notch_half_band: float = 2.0
    smooth_window: int = 5
    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    alerts: AlertPolicy = field(default_factory=AlertPolicy)
    fb_width: int = DEFAULT_WIDTH
    fb_height: int = DEFAULT_HEIGHT
    device_id: str = "ecgmon-0"
    location: str = "location-unset"
    sink: str = "stdout"
    max_ecg: int = MAX_ECG_SAMPLES
    timestamp: int = 0

    def __post_init__(self):
        if self.source not in ("ecg", "sine"):
            raise ValueError(f"source must be 'ecg' or 'sine', got {self.source!r}")
        if self.half_capacity < 1:
            raise ValueError(f"half_capacity must be >= 1, got {self.half_capacity}")
        # the bounds the dsp, render and telemetry stages apply, checked up
        # front so a config file's value is reported against the file
        _require_notch(self.notch_center, self.notch_half_band, self.sample_rate)
        _require_odd_window(self.smooth_window)
        if self.fb_width < 1 or self.fb_height < 1:
            raise ValueError(f"display must have positive size, got {self.fb_width}x{self.fb_height}")
        if self.max_ecg < 0:
            raise ValueError(f"max_ecg must be >= 0, got {self.max_ecg}")
        # not a field: AdcConfig checks sample_rate, bits and vref
        object.__setattr__(self, "adc", AdcConfig(resolution_bits=self.adc_bits,
                                                  vref=self.adc_vref, sample_rate=self.sample_rate))

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read(), name=str(path))

    @classmethod
    def loads(cls, text: str, name: str = "<config>") -> "PipelineConfig":
        raw = _parse_sections(text, name)
        cfg = cls()
        # PipelineConfig's own fields change in one replace, since its checks
        # relate keys of different sections (notch_center and sample_rate)
        fields: dict[str, object] = {}
        try:
            for section, values in raw.items():
                owner, keys = _SCHEMA[section]
                target = cfg if owner is None else getattr(cfg, owner)
                changes: dict[str, object] = {}
                for key, value in values.items():
                    attr, index = _target(keys[key])
                    if index is not None:
                        items = list(changes.get(attr, getattr(target, attr)))
                        items[index] = value
                        value = tuple(items)
                    changes[attr] = value
                if owner is None:
                    fields.update(changes)
                else:
                    fields[owner] = replace(target, **changes)
            cfg = replace(cfg, **fields)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
        return cfg


def _same(names: str) -> dict[str, str]:
    return {name: name for name in names.split()}


# file section -> (the PipelineConfig field holding the section's dataclass,
# or None for PipelineConfig itself; file key -> the field it sets, or
# (field, index) for one element of a tuple field)
_SCHEMA: dict[str, tuple[str | None, dict[str, str | tuple[str, int]]]] = {
    "signal": (None, _same("source sample_rate duration bpm sine_amplitude")),
    "noise": ("noise", {**_same("mains_amplitude mains_freq wander_amplitude wander_freq "
                                "emg_sigma dc_offset common_mode_amplitude common_mode_freq"),
                        "seed": "rng_seed"}),
    "frontend": ("frontend", {**_same("instrument_gain voltage_gain f_ch f_cl f_0 notch_q "
                                      "cmrr_db lift_bias"),
                              "supply_min": ("supply", 0), "supply_max": ("supply", 1)}),
    "adc": (None, {"resolution_bits": "adc_bits", "vref": "adc_vref",
                   "half_capacity": "half_capacity"}),
    "dsp": (None, _same("notch_center notch_half_band smooth_window")),
    "trigger": ("trigger", _same("trigger_level band_epsilon run_length refractory")),
    "alerts": ("alerts", _same("low_bpm high_bpm")),
    "render": (None, {"width": "fb_width", "height": "fb_height"}),
    "telemetry": (None, _same("device_id location sink max_ecg timestamp")),
}

# field type -> parser of its file value; None-able fields spell None 'auto'
_PARSERS = {
    float: float,
    int: lambda s: int(s, 0),
    str: str,
    float | None: lambda s: None if s.lower() == "auto" else float(s),
}


def _target(spec: str | tuple[str, int]) -> tuple[str, int | None]:
    return spec if isinstance(spec, tuple) else (spec, None)


def _parser(section: str, key: str):
    owner, keys = _SCHEMA[section]
    cls = PipelineConfig if owner is None else typing.get_type_hints(PipelineConfig)[owner]
    name, index = _target(keys[key])
    kind = typing.get_type_hints(cls)[name]
    return _PARSERS[kind if index is None else typing.get_args(kind)[index]]


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
        if key not in _SCHEMA[section][1]:
            raise ConfigError(f"{name}: line {lineno}: unknown key {key!r} in [{section}]")
        try:
            out[section][key] = _parser(section, key)(value)
        except ValueError as exc:
            raise ConfigError(f"{name}: line {lineno}: bad value for {key!r}: {exc}") from exc
    return out
