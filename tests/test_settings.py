"""Every settings field is checked by the rule of its declared type: one
real-number rule, one integer rule, and an isinstance check for text and
sub-config fields."""

import argparse
import dataclasses
import math
import re
import typing
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgmon.cli import build_parser
from ecgmon.config import _KEYS, PipelineConfig
from ecgmon.frontend import FrontEndSpec
from ecgmon.pipeline import report
from ecgmon.signals import EcgTemplateParams, NoiseConfig, Wave, _require_real
from ecgmon.telemetry import (AlertEvent, AlertPolicy, TelemetryRecord, encode_alert,
                              encode_record, evaluate_alert)

SETTINGS = (Wave, EcgTemplateParams, NoiseConfig, FrontEndSpec, AlertPolicy, PipelineConfig)

HUGE_INT = 10 ** 400  # an int beyond the float range

# values of another kind, or out of every real field's range, per declared type
BAD_VALUES = {
    float: (math.nan, math.inf, -math.inf, HUGE_INT, True, "1", None),
    int: (1.0, True, "1", None),
    str: (5, None, b"x"),
}
BAD_SUB_CONFIGS = (None, 5)


def _default(cls):
    return EcgTemplateParams().r if cls is Wave else cls()


def _field_cases():
    for cls in SETTINGS:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            kind = hints[f.name]
            bad = BAD_SUB_CONFIGS if dataclasses.is_dataclass(kind) else BAD_VALUES[kind]
            for value in bad:
                shown = "10**400" if value is HUGE_INT else repr(value)
                yield pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={shown}")


@pytest.mark.parametrize("cls, name, value", _field_cases())
def test_every_field_refuses_a_bad_value(cls, name, value):
    """The refusal names the field: its message starts with the field's name,
    or with the name a stage's check gives it (width for fb_width)."""
    with pytest.raises(ValueError) as info:
        dataclasses.replace(_default(cls), **{name: value})
    assert name.endswith(str(info.value).split()[0]), str(info.value)


@pytest.mark.parametrize("value", [0.5, 2, np.float32(0.5), np.float64(2.0), np.int64(3),
                                   np.uint8(7), 10 ** 300, np.float16(0.5)])
def test_real_rule_accepts_python_and_numpy_numbers(value):
    _require_real(0, x=value)
    _require_real(0, False, x=value)
    _require_real(x=value)


@pytest.mark.parametrize("value", [True, np.bool_(True), "1", None, Fraction(1, 2),
                                   Decimal("0.5"), 1j, [1.0], np.longdouble(0.5)])
def test_real_rule_refuses_other_types(value):
    with pytest.raises(ValueError, match=f"^x must be a real number, got {re.escape(repr(value))}$"):
        _require_real(x=value)


@pytest.mark.parametrize("low, strict, value, message", [
    (None, True, math.nan, "x must be finite, got nan"),
    (None, True, -math.inf, "x must be finite, got -inf"),
    (0, True, 0.0, "x must be finite and > 0, got 0.0"),
    (0, True, math.inf, "x must be finite and > 0, got inf"),
    (0, False, -1, "x must be finite and >= 0, got -1"),
    (0, False, np.float64(math.nan), "x must be finite and >= 0, got nan"),
    pytest.param(None, True, -HUGE_INT, f"x must be finite, got {-HUGE_INT}", id="huge-int"),
    pytest.param(0, True, HUGE_INT, f"x must be finite and > 0, got {HUGE_INT}", id="huge-int-above-0"),
])
def test_real_rule_messages(low, strict, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _require_real(low, strict, x=value)


_TEXTS = st.text(st.characters(exclude_categories=()), max_size=8)
_ANY = st.one_of(_TEXTS, st.binary(max_size=4), st.integers(), st.floats(), st.booleans(),
                 st.none(), st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(device_id=_ANY, location=_ANY, timestamp=_ANY)
def test_accepted_header_fields_encode(device_id, location, timestamp):
    """Whatever device_id, location and timestamp the config accepts, its
    record and alert encode; a refusal comes before any stage runs."""
    try:
        cfg = PipelineConfig(device_id=device_id, location=location, timestamp=timestamp)
    except ValueError:
        return
    record, alert, _ = report(cfg, 200.0, np.arange(4), publish_records=False)
    encode_record(record)
    encode_alert(alert)


# a record's and an alert's header values, as the config takes them: the value
# each stores, or None for a value all refuse
_TIMESTAMPS = [(7, 7), (np.int64(7), 7), (7.0, None), (np.float64(7.0), None), (True, None),
               ("7", None), (None, None)]
_BPMS = [(72, 72), (np.float32(72.5), 72.5), (np.longdouble(72), None), ("72", None),
         (True, None), (Fraction(3, 2), None), (0.0, None), (math.inf, None)]


def _header_cases():
    for name, cases in (("timestamp", _TIMESTAMPS), ("bpm", _BPMS)):
        for i, (value, stored) in enumerate(cases):
            yield pytest.param(name, value, stored, id=f"{name}{i}-{type(value).__name__}")


@pytest.mark.parametrize("name, value, stored", _header_cases())
def test_settings_and_wire_share_one_number_rule(name, value, stored):
    """PipelineConfig, TelemetryRecord and AlertEvent (and, for a bpm,
    evaluate_alert) all take a value, the record and the alert as the
    Python number json writes, or all refuse it with one message."""
    bpm, timestamp = (value, 0) if name == "bpm" else (72.0, value)
    builds = [lambda: PipelineConfig(**{name: value}),
              lambda: TelemetryRecord("ecg-001", timestamp, bpm, "w", [1]),
              lambda: AlertEvent(bpm, "m", "w", timestamp)]
    if name == "bpm":  # a band every accepted value alerts below
        builds.append(lambda: evaluate_alert(value, AlertPolicy(100.0, 120.0), "w"))
    outcomes = []
    for build in builds:
        try:
            outcomes.append(getattr(build(), name))
        except ValueError as exc:
            outcomes.append(str(exc))
    if stored is None:
        assert outcomes[0].startswith(f"{name} must be ")
        assert outcomes == [outcomes[0]] * len(builds)
        return
    assert outcomes == [stored] * len(builds)
    assert all(type(v) is type(stored) for v in outcomes[1:])


# config keys that no subcommand flag sets, and what varies each instead
UNFLAGGED = {
    "f_ch": "frontend_sweep varies the corners and Q",
    "f_cl": "frontend_sweep varies the corners and Q",
    "f_0": "frontend_sweep varies the corners and Q",
    "notch_q": "frontend_sweep varies the corners and Q",
    "notch_center": "notch --center sets it for a CSV frame, and a 60 Hz board needs it",
    "mains_freq": "the 60 Hz rows of ROADMAP item 17's trust sweep",
}


def test_every_key_has_a_setter():
    """A config key is the dest of some subcommand's flag, or is listed in
    UNFLAGGED with what varies it: a key nothing sets is a constant."""
    (subparsers,) = (a.choices for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for parser in subparsers.values() for action in parser._actions}
    assert set(_KEYS) - dests == set(UNFLAGGED)
