"""Every settings field is checked by the rule of its declared type: one
real-number rule, one integer rule, and an isinstance check for text and
sub-config fields."""

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

from ecgmon.acquisition import AdcConfig
from ecgmon.config import PipelineConfig
from ecgmon.frontend import FrontEndSpec
from ecgmon.pipeline import report
from ecgmon.signals import EcgTemplateParams, NoiseConfig, Wave, _require_real
from ecgmon.telemetry import AlertPolicy, encode_alert, encode_record

SETTINGS = (Wave, EcgTemplateParams, NoiseConfig, FrontEndSpec, AdcConfig, AlertPolicy,
            PipelineConfig)

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
    or with the name a stage's check gives it (window for smooth_window)."""
    with pytest.raises(ValueError) as info:
        dataclasses.replace(_default(cls), **{name: value})
    assert name.endswith(str(info.value).split()[0]), str(info.value)


@pytest.mark.parametrize("value", [0.5, 2, np.float32(0.5), np.float64(2.0), np.int64(3),
                                   np.uint8(7), 10 ** 300])
def test_real_rule_accepts_python_and_numpy_numbers(value):
    _require_real(0, x=value)
    _require_real(0, False, x=value)
    _require_real(x=value)


@pytest.mark.parametrize("value", [True, np.bool_(True), "1", None, Fraction(1, 2),
                                   Decimal("0.5"), 1j, [1.0]])
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
    encode_record(record, cfg.max_ecg)
    encode_alert(alert)
