"""Plain-text pipeline configuration: [section] headers and key = value lines.

Unknown sections or keys are rejected and every diagnostic names the line
it came from.  Values accept '#' comments.  Every default lives in a
dataclass field: the file only overrides them, and each key's text, from
a file or a command-line flag, is parsed by its field's type.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .acquisition import AdcConfig
from .dsp import _require_notch, _require_odd_window
from .frontend import FrontEndSpec, _chain_coefficients
from .render import DEFAULT_HEIGHT, DEFAULT_WIDTH, _require_target
from .signals import (EcgTemplateParams, NoiseConfig, _field_types, _require_declared_types,
                      _require_int, _require_real, _require_source_rate, _sample_count)
from .telemetry import MAX_ECG_SAMPLES, AlertPolicy, _require_text, make_sink

__all__ = ["ConfigError", "PipelineConfig"]

# the values of [signal] source
SOURCES = ("ecg", "sine")


class ConfigError(ValueError):
    """Configuration file problem; message carries the offending line number."""


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved settings for the end-to-end pipeline.

    Settings that mirror a stage dataclass take that dataclass's default;
    the sub-configs (noise, frontend, adc, alerts) carry their own.
    """

    source: str = "ecg"
    sample_rate: float = 500.0
    duration: float = 10.0
    bpm: float = 72.0
    sine_amplitude: float = 0.5
    template: EcgTemplateParams = field(default_factory=EcgTemplateParams)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    frontend: FrontEndSpec = field(default_factory=FrontEndSpec)
    adc: AdcConfig = field(default_factory=AdcConfig)
    half_capacity: int = 512
    notch_center: float = 50.0
    notch_half_band: float = 2.0
    smooth_window: int = 5
    refractory: float = 0.25
    alerts: AlertPolicy = field(default_factory=AlertPolicy)
    fb_width: int = DEFAULT_WIDTH
    fb_height: int = DEFAULT_HEIGHT
    device_id: str = "ecgmon-0"
    location: str = "location-unset"
    sink: str = "stdout"
    max_ecg: int = MAX_ECG_SAMPLES
    timestamp: int = 0

    def __post_init__(self):
        _require_declared_types(self)
        if self.source not in SOURCES:
            raise ValueError(f"source must be 'ecg' or 'sine', got {self.source!r}")
        _require_real(0, sample_rate=self.sample_rate, duration=self.duration, bpm=self.bpm)
        _require_real(sine_amplitude=self.sine_amplitude)
        _require_int("half_capacity", self.half_capacity, 1)  # PingPongBuffer's check
        # the bounds the stages apply, checked up front so a config file's
        # value is reported against the file; the filter design is cached,
        # so the run reuses it
        _require_source_rate(self.source, self.bpm / 60.0, self.sample_rate)
        _sample_count(self.duration, self.sample_rate)
        _chain_coefficients(self.frontend, self.sample_rate)
        _require_notch(self.notch_center, self.notch_half_band, self.sample_rate)
        _require_odd_window(self.smooth_window)
        _require_real(0, False, refractory=self.refractory)
        _require_target(self.fb_width, self.fb_height)
        _require_int("max_ecg", self.max_ecg, 0)
        _require_int("timestamp", self.timestamp)
        _require_text(self, "device_id", "location")  # the record's rule
        make_sink(self.sink)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # lines counted as _parse_sections counts them; "x" holds the byte's place
            lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
            raise ConfigError(f"{path}: line {lineno}: byte 0x{data[exc.start]:02x} is not "
                              f"UTF-8 text ({exc.reason})") from exc
        return cls.loads(text, name=str(path))

    @classmethod
    def loads(cls, text: str, name: str = "<config>") -> "PipelineConfig":
        return cls().updated(_parse_sections(text, name), name)

    def updated(self, changes: dict[str | None, dict[str, object]], name: str) -> "PipelineConfig":
        """This config with changes ({owner: {field: value}}, owners as in
        _SCHEMA) applied through every check; a refusal raises ConfigError
        naming the changes' source."""
        # each owner changes in one replace: PipelineConfig's checks relate
        # keys of different sections (notch_center and sample_rate), and
        # [adc] feeds both adc and PipelineConfig
        fields = dict(changes.get(None, {}))
        try:
            for owner, sub in changes.items():
                if owner is not None:
                    fields[owner] = replace(getattr(self, owner), **sub)
            return replace(self, **fields)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc


def _keys(owner: str | None, names: str = "", **renamed: str) -> dict[str, tuple[str | None, str]]:
    """File keys of one owner; a key sets the field of its own name unless renamed."""
    fields = {**{name: name for name in names.split()}, **renamed}
    return {key: (owner, attr) for key, attr in fields.items()}


# file section -> {file key -> (the PipelineConfig field holding the key's
# dataclass, or None for PipelineConfig itself; the field the key sets)}
_SCHEMA: dict[str, dict[str, tuple[str | None, str]]] = {
    "signal": _keys(None, "source sample_rate duration bpm sine_amplitude"),
    "noise": _keys("noise", "mains_amplitude mains_freq wander_amplitude wander_freq "
                   "emg_sigma dc_offset common_mode_amplitude common_mode_freq", seed="rng_seed"),
    "frontend": _keys("frontend", "instrument_gain voltage_gain f_ch f_cl f_0 notch_q "
                      "cmrr_db lift_bias supply_min supply_max"),
    "adc": {**_keys("adc", "resolution_bits vref"), **_keys(None, "half_capacity")},
    "dsp": _keys(None, "notch_center notch_half_band smooth_window"),
    "trigger": _keys(None, "refractory"),
    "alerts": _keys("alerts", "low_bpm high_bpm"),
    "render": _keys(None, width="fb_width", height="fb_height"),
    "telemetry": _keys(None, "device_id location sink max_ecg timestamp"),
}

# file key -> (owner, field), whatever its section; no key is in two sections
_KEYS = {key: target for keys in _SCHEMA.values() for key, target in keys.items()}


def _parse(key: str, text: str, changes: dict[str | None, dict[str, object]], where: str) -> None:
    """Parse text as file key `key`'s value with the type of the field it sets
    (float, int or str) into changes; a refusal raises ConfigError naming
    where the text came from."""
    owner, attr = _KEYS[key]
    cls = PipelineConfig if owner is None else _field_types(PipelineConfig)[owner]
    try:
        changes.setdefault(owner, {})[attr] = _field_types(cls)[attr](text)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc


def _parse_sections(text: str, name: str) -> dict[str | None, dict[str, object]]:
    """The file's values as {owner: {field: value}}, owners as in _SCHEMA."""
    out: dict[str | None, dict[str, object]] = {}
    set_on: dict[str, int] = {}  # key -> the line that set it
    section: str | None = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"{name}: line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{name}: line {lineno}: expected 'key = value', got {rawline.strip()!r}")
        if section is None:
            raise ConfigError(f"{name}: line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"{name}: line {lineno}: unknown key {key!r} in [{section}]")
        if key in set_on:
            raise ConfigError(f"{name}: line {lineno}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        _parse(key, value, out, f"{name}: line {lineno}")
    return out
