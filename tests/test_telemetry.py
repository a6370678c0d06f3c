"""Telemetry tests: canonical encoding, alerts, sinks, retrieve-and-plot."""

import base64
import contextlib
import dataclasses
import json
import math
import re
import socket
import string
import sys
import threading
import tempfile
import time
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecgmon import cloud, telemetry
from ecgmon.acquisition import _MAX_CODE
from ecgmon.cloud import LoopbackListener
from ecgmon.config import PipelineConfig
from ecgmon.pipeline import report, run_pipeline
from ecgmon.render import export_svg
from ecgmon.signals import SampleFrame
from ecgmon.telemetry import (
    AlertEvent,
    AlertPolicy,
    DeliveryReceipt,
    FileSink,
    HttpSink,
    TelemetryRecord,
    decode_record,
    encode_alert,
    encode_record,
    evaluate_alert,
    publish,
    make_sink,
    retrieve_and_plot,
)

GOLDEN = Path(__file__).parent / "golden" / "record.json"
GOLDEN_ECG = b'"AAgDCP8HAQg="'  # the golden record's codes, 2048, 2051, 2047 and 2049, as JSON
# the reason a JSON value other than a string in ecg's place is refused
NOT_TEXT = "ecg is not base64: argument should be bytes, buffer or ASCII string, not '{}'"


def ecg_text(codes) -> str:
    """The base64 of codes as little-endian 16-bit words, through the
    standard library alone."""
    words = array("H", codes)
    if sys.byteorder == "big":
        words.byteswap()
    return base64.b64encode(words.tobytes()).decode("ascii")


def make_record(**overrides) -> TelemetryRecord:
    base = dict(
        device_id="ecg-001",
        timestamp=1700000000,
        bpm=72.0,
        ecg=[2048, 2051, 2047, 2049],
        location="ward-3/bed-12",
    )
    base.update(overrides)
    return TelemetryRecord(**base)


record_strategy = st.builds(
    TelemetryRecord,
    device_id=st.text(min_size=1, max_size=20),
    timestamp=st.integers(min_value=0, max_value=2**40),
    bpm=st.one_of(
        st.integers(min_value=1, max_value=300),
        st.floats(min_value=1.0, max_value=300.0, allow_nan=False, allow_infinity=False),
    ),
    ecg=st.lists(st.integers(min_value=0, max_value=4095), max_size=50),
    location=st.text(max_size=30),
)


class TestAlerts:
    def test_in_range_no_alert(self):
        assert evaluate_alert(72.0, AlertPolicy(), "here") is None

    def test_above_high_alerts(self):
        event = evaluate_alert(121.0, AlertPolicy(), "here", timestamp=5)
        assert event is not None
        assert "above high threshold 120" in event.message
        assert event.location == "here"
        assert event.timestamp == 5

    def test_below_low_alerts(self):
        event = evaluate_alert(49.0, AlertPolicy(), "here")
        assert event is not None
        assert "below low threshold 50" in event.message

    def test_boundaries_are_normal(self):
        assert evaluate_alert(120.0, AlertPolicy(), "x") is None
        assert evaluate_alert(50.0, AlertPolicy(), "x") is None

    def test_nonpositive_bpm_rejected(self):
        # NaN compares false with both thresholds: it must not read as normal
        for bpm in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="bpm must be finite and > 0"):
                evaluate_alert(bpm, AlertPolicy(), "x")

    def test_exhaustive_integer_sweep(self):
        """Alerts fire exactly outside [low, high] for bpm 1..300."""
        policy = AlertPolicy()
        for bpm in range(1, 301):
            event = evaluate_alert(float(bpm), policy, "x")
            should_fire = bpm < policy.low_bpm or bpm > policy.high_bpm
            assert (event is not None) == should_fire, f"bpm={bpm}"

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AlertPolicy(low_bpm=120, high_bpm=50)
        for low, high in ((50.0, math.inf), (50.0, math.nan), (math.nan, 120.0)):
            with pytest.raises(ValueError, match="_bpm must be finite and > 0"):
                AlertPolicy(low_bpm=low, high_bpm=high)


class TestEncoding:
    def test_golden_bytes(self):
        assert encode_record(make_record()) == GOLDEN.read_bytes()

    def test_fixed_key_order(self):
        payload = encode_record(make_record())
        keys = list(json.loads(payload).keys())
        assert keys == ["device_id", "timestamp", "bpm", "location", "ecg"]

    def test_empty_ecg_is_present_not_omitted(self):
        payload = encode_record(make_record(ecg=[]))
        assert payload.endswith(b'"ecg":""}')

    def test_no_insignificant_whitespace(self):
        payload = encode_record(make_record())
        assert b" " not in payload.replace(b"ward-3/bed-12", b"")

    def test_long_record_round_trips(self):
        """encode_record writes a record of any length; only report cuts one."""
        rec = make_record(ecg=[1] * 6000)
        assert decode_record(encode_record(rec)) == rec

    def test_record_over_the_default_max_ecg_round_trips(self):
        """A run whose max_ecg is above the default builds a record of that
        length, which encodes and decodes back."""
        cfg = dataclasses.replace(PipelineConfig(), max_ecg=6000)
        record = run_pipeline(cfg, duration=20.0).record
        assert len(record.ecg) == 6000
        assert decode_record(encode_record(record)) == record

    @pytest.mark.parametrize("sample", [float("nan"), float("inf"), -float("inf")])
    def test_non_json_numbers_rejected(self, sample):
        """NaN and Infinity are not JSON: no record holds one as a sample (it
        is no code), and no alert as its bpm."""
        with pytest.raises(ValueError, match=r"^ecg samples must be ADC codes \(int\), got float$"):
            make_record(ecg=[1, sample, 2])
        with pytest.raises(ValueError):
            encode_alert(telemetry.AlertEvent(bpm=sample, message="m", location="w", timestamp=0))

    def test_round_trip_example(self):
        rec = make_record(bpm=61.5, ecg=[1, 2, 3])
        assert decode_record(encode_record(rec)) == rec
        # replace() hands the stored array('H') back to the constructor
        moved = dataclasses.replace(rec, timestamp=rec.timestamp + 1)
        assert decode_record(encode_record(moved)) == moved
        assert moved.ecg == rec.ecg and moved.ecg is not rec.ecg
        # a float sample among codes is no code: refused, not written
        with pytest.raises(ValueError, match=r"^ecg samples must be ADC codes \(int\), got float$"):
            make_record(bpm=61.5, ecg=[1, 2.5, 3])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rec=record_strategy)
    def test_round_trip_property(self, rec):
        assert decode_record(encode_record(rec)) == rec
        moved = dataclasses.replace(rec, timestamp=rec.timestamp + 1)
        assert decode_record(encode_record(moved)) == moved

    @pytest.mark.parametrize("edit, error", [
        (lambda ecg: ecg.append(70000), OverflowError),
        (lambda ecg: ecg.append(-1), OverflowError),
        (lambda ecg: ecg.append(1.5), TypeError),
        (lambda ecg: ecg.__setitem__(slice(None), [2**70]), TypeError),
        (lambda ecg: ecg.__setitem__(0, 2**70), OverflowError),
        (lambda ecg: ecg.__setitem__(slice(None), array("q", [5])), TypeError),
        (lambda ecg: ecg.extend(array("h", [1])), TypeError),
        (lambda ecg: ecg.fromlist([1, 65536]), OverflowError),
    ], ids=["append-above", "append-negative", "append-float", "slice-huge-list", "item-huge",
            "slice-other-array", "extend-other-array", "fromlist-above"])
    def test_edit_in_place_refused(self, edit, error):
        """A record's codes are an array('H'): an edit in place that would
        store no code raises, and the record still encodes as before."""
        rec = make_record()
        before = encode_record(rec)
        with pytest.raises(error):
            edit(rec.ecg)
        assert encode_record(rec) == before

    @pytest.mark.parametrize("edit", [
        lambda ecg: ecg.append(65535),
        lambda ecg: ecg.extend([0, 9, 10]),
        lambda ecg: ecg.__setitem__(0, 10000),
        lambda ecg: ecg.__setitem__(slice(1, 3), array("H", [5])),
        lambda ecg: ecg.__delitem__(0),
        lambda ecg: ecg.insert(0, True),
        lambda ecg: ecg.frombytes(array("H", [7, 8]).tobytes()),
        lambda ecg: ecg.append(np.int64(5)),
    ], ids=["append-max", "extend", "item", "slice", "delete", "insert-bool", "frombytes",
            "append-numpy"])
    def test_edit_in_place_accepted_round_trips(self, edit):
        """An edit the array takes stores codes, which encode and read back."""
        rec = make_record()
        edit(rec.ecg)
        assert decode_record(encode_record(rec)) == rec

    def test_decode_rejects_bad_keys(self):
        want = re.escape(", want ['device_id', 'timestamp', 'bpm', 'location', 'ecg']") + "$"
        with pytest.raises(ValueError, match=re.escape(
                "bad record keys: ['device_id', 'timestamp', 'bpm', 'location']") + want):
            decode_record(b'{"device_id":"x","timestamp":1,"bpm":60,"location":"y"}')
        with pytest.raises(ValueError, match="^bad record keys: .*'ecg', 'extra'\\]" + want):
            decode_record(
                b'{"device_id":"x","timestamp":1,"bpm":60,"location":"y","ecg":"","extra":1}')
        with pytest.raises(ValueError, match=re.escape(
                "bad record keys: ['device_id', 'timestamp', 'bpm', 'extra', 'location', 'ecg']") + want):
            decode_record(
                b'{"device_id":"x","timestamp":1,"bpm":60,"extra":1,"location":"y","ecg":""}')
        with pytest.raises(ValueError, match="^bad record keys: "):  # the header keys out of order
            decode_record(b'{"timestamp":1,"device_id":"x","bpm":60,"location":"y","ecg":""}')

    @pytest.mark.parametrize("line, keys", [
        (b'{"device_id":"x","timestamp":1,"bpm":72.0,"location":"y","ecg":"AQA=","ecg":"AgA="}',
         ["device_id", "timestamp", "bpm", "location", "ecg", "ecg"]),
        (b'{"device_id":"x","timestamp":1,"bpm":1,"bpm":72.0,"location":"y","ecg":"AQA="}',
         ["device_id", "timestamp", "bpm", "bpm", "location", "ecg"]),
    ], ids=["ecg-twice", "bpm-twice"])
    def test_repeated_key_refused(self, tmp_path, line, keys):
        """A key written twice is refused with the keys as written, not read
        with its last value, and retrieve_and_plot counts the line as a
        warning."""
        reason = f"bad record keys: {keys}, want ['device_id', 'timestamp', 'bpm', 'location', 'ecg']"
        assert_line_refused(line, tmp_path, reason)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            make_record(bpm=0.0)
        with pytest.raises(ValueError):
            make_record(ecg=["not-a-number"])
        # bool is not a number; bpm and timestamp must be finite
        for bad in (dict(ecg=5), dict(ecg=None), dict(ecg=[1, True]),
                    dict(bpm="72"), dict(bpm=float("nan")), dict(bpm=float("inf")),
                    dict(bpm=True), dict(timestamp=float("inf")), dict(timestamp=True),
                    dict(timestamp="1"), dict(timestamp=None), dict(timestamp=7.0),
                    dict(timestamp=np.float64(7.0))):
            with pytest.raises(ValueError):
                make_record(**bad)
        # the wire format's device_id and location are strings
        for name in ("device_id", "location"):
            for bad in (5, None, ["ecg-001"], {"id": 1}):
                with pytest.raises(ValueError, match=f"{name} must be a string"):
                    make_record(**{name: bad})
            # a lone surrogate (an undecodable command-line byte) has no UTF-8
            with pytest.raises(ValueError, match=f"{name} must be UTF-8 text"):
                make_record(**{name: "ward-\udcff"})
        with pytest.raises(ValueError, match="device_id must be a string"):
            decode_record(b'{"device_id":5,"timestamp":0,"bpm":72,"location":null,"ecg":"AQACAA=="}')
        rec = make_record(bpm=np.float64(61.5), timestamp=np.int64(7), ecg=(3, 2))
        assert (rec.timestamp, rec.ecg.tolist()) == (7, [3, 2])
        assert (type(rec.bpm), type(rec.timestamp)) == (float, int)
        assert [type(v) for v in rec.ecg] == [int, int]
        # a list of numpy scalars is no list of codes: hand over the array instead
        for sample in (np.int64(3), np.uint16(3), np.float64(3.0)):
            with pytest.raises(ValueError, match=f"^ecg samples must be ADC codes \\(int\\), "
                                                 f"got {type(sample).__name__}$"):
                make_record(ecg=[sample])
        assert make_record(ecg=np.array([3], dtype=np.uint16)).ecg.tolist() == [3]

    @pytest.mark.parametrize("ecg", [b"\x01\x02", bytearray(b"\x01"), {3, 1, 2}, frozenset(),
                                     {5: "a"}, {}, {}.keys(), "", "2048", memoryview(b"\x01\x02"),
                                     memoryview(array("h", [2048])), array("h", [2048]), range(3),
                                     iter([1, 2]), 5, None],
                             ids=lambda ecg: type(ecg).__name__)
    def test_other_containers_refused(self, ecg):
        """ecg is a list, a tuple or a 1-D integer ndarray; nothing else is
        read, whether its elements are codes or not."""
        with pytest.raises(ValueError, match=f"^ecg must be a list, tuple or 1-D integer array "
                                             f"of ADC codes, got {type(ecg).__name__}$"):
            make_record(ecg=ecg)

    @pytest.mark.parametrize("value, name", [(b'""', "str"), (b'"2048"', "str"), (b"{}", "dict"),
                                             (b'{"1":2}', "dict")])
    def test_decode_requires_an_ecg_array(self, value, name):
        """ecg reads only as base64 of an array of 16-bit words: "" is the
        empty array; "2048" is base64 of three bytes, and an object is no
        string, so neither is read as an array of codes or of keys."""
        assert type(json.loads(value)).__name__ == name
        line = encode_record(make_record()).replace(GOLDEN_ECG, value)
        if value == b'""':
            assert decode_record(line) == make_record(ecg=[])
            return
        reason = "ecg must hold whole 16-bit codes, got 3 bytes" if name == "str" else \
            NOT_TEXT.format("dict")
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            decode_record(line)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ecg=st.one_of(st.lists(st.integers(min_value=0, max_value=65535), max_size=20),
                         st.lists(st.one_of(
        st.integers(min_value=0, max_value=65535), st.integers(min_value=-2**70, max_value=2**70),
        st.floats(), st.just(float("nan")),
        st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
        st.floats(width=64).map(np.float64), st.booleans(), st.text(max_size=3),
        st.none()), max_size=20)))
    def test_record_check_matches_per_sample_check(self, ecg):
        """The one-pass check keeps what a per-sample check gives: the codes
        as exact ints, or its error."""
        error = per_sample_error(ecg)
        if error is not None:
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                make_record(ecg=ecg)
            return
        got = make_record(ecg=ecg).ecg
        assert got.tolist() == ecg
        assert all(type(v) is int for v in got)


def per_sample_error(ecg: list) -> str | None:
    """The record's rule, one sample at a time: the message for the first
    sample that is no exact int, else for the lowest code below 0 or the
    highest above 65535; None for a list of codes."""
    for v in ecg:
        if type(v) is not int:
            return f"ecg samples must be ADC codes (int), got {type(v).__name__}"
    if ecg and min(ecg) < 0:
        return f"ecg codes must be in 0..65535, got {min(ecg)}"
    if ecg and max(ecg) > 65535:
        return f"ecg codes must be in 0..65535, got {max(ecg)}"
    return None


def assert_line_refused(line: bytes, tmp_path, reason: str, read_after_strip: bool = False) -> None:
    """decode_record refuses line with a message starting with reason, and
    retrieve_and_plot counts a warning for each line of it in a file (a
    newline inside it makes two); it strips each line's whitespace first,
    so with read_after_strip the line plots there."""
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}"):
        decode_record(line)
    source = tmp_path / "records.jsonl"
    source.write_bytes(line + b"\n")
    result = retrieve_and_plot(source, tmp_path / "plot.svg")
    expected = (1, 0) if read_after_strip else (0, len(line.splitlines()))
    assert (result.records_plotted, result.warnings) == expected


_NUMPY_SCALARS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
                  np.uint64, np.float16, np.float32, np.float64]
# header values of the types a caller may hand over, numbers or not
_header_values = st.one_of(
    st.sampled_from(_NUMPY_SCALARS).flatmap(lambda t: hnp.from_dtype(np.dtype(t))),
    st.integers(), st.floats(), st.booleans(), st.fractions(), st.text(max_size=4), st.none())


def _python_value(value):
    return value.item() if isinstance(value, np.generic) else value


class TestWireFields:
    """A record's and an alert's header pass the same checks."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(bpm=_header_values, timestamp=_header_values, location=_header_values)
    def test_what_a_constructor_takes_encodes(self, bpm, timestamp, location):
        """Each value is refused with ValueError or taken as the Python value
        it holds: the bytes equal those of the plain-Python equivalent."""
        builds = ((lambda b, t, loc: TelemetryRecord("ecg-001", t, b, loc, [1, 2]), encode_record),
                  (lambda b, t, loc: AlertEvent(b, "m", loc, t), encode_alert))
        for build, encode in builds:
            try:
                made = build(bpm, timestamp, location)
            except ValueError:
                continue
            plain = build(_python_value(bpm), _python_value(timestamp), _python_value(location))
            assert encode(made) == encode(plain)
            assert (type(made.bpm), type(made.timestamp)) in ((int, int), (float, int))

    @pytest.mark.parametrize("location, timestamp, message", [
        (5, 5, "location must be a string, got 5"),
        ("x", "5", "timestamp must be an integer, got '5'"),
        ("x", 5.5, "timestamp must be an integer, got 5.5"),
        ("x", float("nan"), "timestamp must be an integer, got nan"),
        ("x", 5.0, "timestamp must be an integer, got 5.0"),
    ])
    def test_alert_header_refused(self, location, timestamp, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_alert(130.0, AlertPolicy(), location, timestamp)

    def test_alert_numpy_timestamp_encodes_as_int(self):
        event = evaluate_alert(130.0, AlertPolicy(), "x", np.int64(5))
        assert type(event.timestamp) is int
        assert encode_alert(event) == b'{"bpm":130.0,"message":"heart rate 130 bpm above high ' \
                                      b'threshold 120","location":"x","timestamp":5}'

    @pytest.mark.parametrize("bpm, shown", [(0.0, "0.0"), (-1, "-1"), (float("inf"), "inf"),
                                            ("72", "str"), (True, "bool"), (Fraction(3, 2), "Fraction"),
                                            (np.float32("nan"), "nan")])
    def test_one_bpm_rule(self, bpm, shown):
        """The record, the alert and evaluate_alert refuse a bpm with one
        message, the settings' own: shown is the number out of range, or
        the type of a value that is no real number."""
        if shown == type(bpm).__name__:
            message = f"^bpm must be a real number, got {re.escape(repr(bpm))}$"
        else:
            message = f"^bpm must be finite and > 0, got {shown}$"
        with pytest.raises(ValueError, match=message):
            make_record(bpm=bpm)
        with pytest.raises(ValueError, match=message):
            AlertEvent(bpm, "m", "x", 0)
        with pytest.raises(ValueError, match=message):
            evaluate_alert(bpm, AlertPolicy(), "x")


def encode_record_reference(rec: TelemetryRecord) -> bytes:
    """encode_record as one json.dumps of the whole record, the codes
    through the standard library's base64."""
    doc = {"device_id": rec.device_id, "timestamp": rec.timestamp, "bpm": rec.bpm,
           "location": rec.location, "ecg": ecg_text(rec.ecg)}
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False).encode("utf-8")


# code lists, the empty one included, with the ends of the 16-bit range
# and the codes whose low or high byte is 0 or 255 drawn often; lengths of
# every residue mod 3 give each base64 padding
_code_lists = st.lists(st.one_of(st.integers(min_value=0, max_value=65535),
                                 st.sampled_from([0, 1, 255, 256, 65280, 65534, 65535])),
                       max_size=80)


class TestCodeTextEncoding:
    """The codes' one wire form: base64 of their little-endian 16-bit words."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(device_id=st.text(max_size=12), location=st.text(max_size=12),
           bpm=st.one_of(st.integers(min_value=1, max_value=300),
                         st.floats(min_value=1.0, max_value=300.0)),
           timestamp=st.integers(min_value=0, max_value=2**70), ecg=_code_lists)
    # headers that json must escape or that look like the spliced ecg
    # field, numpy header numbers, the extreme bpm, and 0, 1, 2, 5000 codes
    @example(device_id='","ecg":"', location='"}', bpm=72.0, timestamp=0, ecg=[])
    @example(device_id="\\", location="\x00", bpm=5e-324, timestamp=1, ecg=[65535])
    @example(device_id="\u2028", location="\U0001F493", bpm=1.7976931348623157e308,
             timestamp=2**63, ecg=[0, 65535])
    @example(device_id='x\\"}\x00\u2028\U0001F493', location='","ecg":"AQA="}',
             bpm=np.float64(72.5), timestamp=np.int64(1700000000), ecg=list(range(5000)))
    @example(device_id="", location="", bpm=np.int64(60), timestamp=np.int64(2**62),
             ecg=[65535, 0, 256, 255, 1] * 1000)
    def test_same_bytes_as_one_json_dumps(self, device_id, location, bpm, timestamp, ecg):
        rec = TelemetryRecord(device_id, timestamp, bpm, location, ecg)
        assert encode_record(rec) == encode_record_reference(rec)

    @pytest.mark.parametrize("bits", [1, 4, 12, 16])
    def test_full_records_of_codes(self, bits):
        rng = np.random.default_rng(bits)
        for size in (1, 2, 9, 511, 4999, 5000):
            codes = rng.integers(0, 2**bits, size)
            codes[rng.integers(0, size)] = 2**bits - 1
            rec = make_record(ecg=codes)
            assert encode_record(rec) == encode_record_reference(rec)

    def test_pipeline_record_samples_never_reach_json(self, monkeypatch):
        """A 5000-code record's header goes through json once and its
        codes never do: their base64 is spliced in, and the line is the
        bytes of one json.dumps of all five fields, at most 2.7 bytes per
        code (the decimal text spent 5.0)."""
        record = run_pipeline(dataclasses.replace(PipelineConfig(), duration=10.24)).record
        assert len(record.ecg) == 5000
        expected = encode_record_reference(record)
        dumped = []
        dumps = json.dumps

        def counting_dumps(obj, *args, **kwargs):
            dumped.append(obj)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(telemetry.json, "dumps", counting_dumps)
        assert encode_record(record) == expected
        assert len(dumped) == 1
        assert tuple(dumped[0]) == telemetry.RECORD_KEYS[:-1]
        assert len(expected) <= 13500

    def test_little_endian_layout(self):
        """Code 258 is the bytes 02 01 on every host."""
        assert encode_record(make_record(ecg=[1, 258])).endswith(b'"ecg":"AQACAQ=="}')
        assert encode_record(make_record()).endswith(b'"ecg":' + GOLDEN_ECG + b"}")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(codes=hnp.arrays(np.uint16, st.integers(0, 300)))
    def test_uint16_arrays_round_trip(self, codes):
        """Any uint16 array, the empty one included, reads back as itself,
        and the standard library's base64 gives the same codes."""
        line = encode_record(make_record(ecg=codes))
        assert decode_record(line).ecg.tolist() == codes.tolist()
        words = array("H", base64.b64decode(json.loads(line)["ecg"], validate=True))
        if sys.byteorder == "big":
            words.byteswap()
        assert words.tolist() == codes.tolist()

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint32, np.uint64,
                                       np.float16, np.float32, np.float64])
    def test_record_from_array_equals_record_from_list(self, dtype):
        """An integer array holds what its list holds, codes or a refusal with
        the same message; a float array and its list are both refused."""
        kind = np.iinfo if np.issubdtype(dtype, np.integer) else np.finfo
        arr = np.array([kind(dtype).min, kind(dtype).max, 0, 1, 100], dtype=dtype)
        if kind is np.finfo:
            arr = np.append(arr, np.array([-0.0, 0.1, kind(dtype).tiny], dtype=dtype))
        variants = (arr, arr[::-1], arr[::2], arr.astype(arr.dtype.newbyteorder()))
        if kind is np.finfo:
            for ecg in variants:
                for sample in (ecg, ecg.tolist()):
                    with pytest.raises(ValueError):
                        make_record(ecg=sample)
            return
        codes = arr[(arr >= 0) & (arr <= 65535)]
        for ecg in (*variants, codes):
            error = per_sample_error(ecg.tolist())
            if error is not None:
                for sample in (ecg, ecg.tolist()):
                    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                        make_record(ecg=sample)
                continue
            from_array = make_record(ecg=ecg)
            assert isinstance(from_array.ecg, array) and from_array.ecg.typecode == "H"
            assert from_array == make_record(ecg=ecg.tolist())
            assert all(type(v) is int for v in from_array.ecg)
        ecg = codes.copy()
        rec = make_record(ecg=ecg)
        ecg[0] = 7
        assert rec.ecg[0] == codes[0]  # the record holds its own copy

    def test_native_big_endian_int64_and_list_codes_build_equal_records(self):
        """A native uint16 array is stored as it is, a >u2 or int64 array
        after its check: every form of the same codes is the same record."""
        codes = [0, 1, 2048, 4095, 65535]
        forms = (np.array(codes, dtype=np.ushort), np.array(codes, dtype=">u2"),
                 np.array(codes, dtype=np.int64), codes)
        records = [make_record(ecg=ecg) for ecg in forms]
        assert all(rec == records[0] for rec in records)
        assert {encode_record(rec) for rec in records} == {encode_record(records[0])}
        assert decode_record(encode_record(records[0])) == records[0]

    @pytest.mark.parametrize("ecg", [
        np.array([1, 0], dtype=bool), np.array([1 + 2j]), np.array([1, "x"], dtype=object),
        np.array(5), np.zeros((2, 3), dtype=np.int64), np.zeros(3, dtype=np.longdouble),
        np.zeros(3), np.zeros(3, dtype=np.float32), np.zeros(3, dtype=np.float16),
    ], ids=["bool", "complex", "object", "0-d", "2-d", "longdouble", "float64", "float32",
            "float16"])
    def test_other_arrays_refused(self, ecg):
        """Only a 1-D array of integer items holds codes."""
        with pytest.raises(ValueError, match="^ecg must be a list, tuple or 1-D integer array "
                                             "of ADC codes, got ndarray$"):
            make_record(ecg=ecg)

    @pytest.mark.parametrize("ecg, shown", [
        (np.array([0, -1], dtype=np.int8), -1),
        (np.array([-1, 65536], dtype=np.int64), -1),
        (np.array([0, 65536], dtype=np.int32), 65536),
        (np.array([0, 2**32 - 1], dtype=np.uint32), 2**32 - 1),
        (np.array([0, 2**64 - 1], dtype=np.uint64), 2**64 - 1),
    ], ids=["int8", "int64", "int32", "uint32", "uint64"])
    def test_arrays_outside_the_table_refused(self, ecg, shown):
        """Checked on the array, before it becomes a list."""
        with pytest.raises(ValueError, match=f"^ecg codes must be in 0..65535, got {shown}$"):
            make_record(ecg=ecg)

    @pytest.mark.parametrize("ecg, error", [
        ([2**63], "ecg codes must be in 0..65535, got 9223372036854775808"),
        ([2**64], "ecg codes must be in 0..65535, got 18446744073709551616"),
        ([2048.0], "ecg samples must be ADC codes (int), got float"),
        ([1, 2.5], "ecg samples must be ADC codes (int), got float"),
        ([], None),
        ([65536], "ecg codes must be in 0..65535, got 65536"),
    ], ids=["int64-max-plus-1", "uint64-max-plus-1", "float", "mixed", "empty", "above-table"])
    def test_lists_outside_the_table_go_through_json(self, tmp_path, ecg, error):
        """A list that is no codes is refused when the record is built, and
        the line json.dumps would write for any list, the empty one
        included, is refused when read: codes travel only as base64."""
        doc = dict(device_id="ecg-001", timestamp=1, bpm=72.0, location="w", ecg=ecg)
        line = json.dumps(doc, separators=(",", ":")).encode()
        if error is None:
            rec = TelemetryRecord(**doc)
            assert encode_record(rec) == line.replace(b"[]", b'""') == encode_record_reference(rec)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                TelemetryRecord(**doc)
        assert_line_refused(line, tmp_path, NOT_TEXT.format("list"))


def decode_record_reference(data: bytes) -> TelemetryRecord:
    """decode_record as one json.loads of the whole line, each object read
    as its dict and its keys as written, the codes through the standard
    library's validating base64 and a re-encode."""
    try:
        doc = json.loads(data.decode("utf-8"),
                         object_pairs_hook=lambda pairs: (dict(pairs), tuple(k for k, _ in pairs)))
    except RecursionError:
        raise ValueError("record nests too deeply") from None
    if not isinstance(doc, tuple) or doc[1] != telemetry.RECORD_KEYS:  # a key twice included
        raise ValueError("record must be a JSON object with the record's keys once each, in order")
    doc = doc[0]
    text = doc["ecg"]
    if not isinstance(text, str) or not text.isascii():
        raise ValueError("ecg must be ASCII text")
    raw = base64.b64decode(text, validate=True)
    if base64.b64encode(raw).decode("ascii") != text or len(raw) % 2:
        raise ValueError("ecg must be canonical base64 of 16-bit words")
    words = array("H", raw)
    if sys.byteorder == "big":
        words.byteswap()
    return TelemetryRecord(**{**doc, "ecg": words})


def decode_outcome(decode, data: bytes):
    """The record with the exact type of each value, or the error's type and text."""
    try:
        rec = decode(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return rec, type(rec.timestamp), type(rec.bpm), [type(v) for v in rec.ecg]


# what the ecg text may become one step off encode_record's: a character
# inserted (whitespace, a JSON escape of a line break, padding, URL-safe or
# other letters, non-ASCII), one dropped or replaced, or another JSON value
_text_inserts = st.sampled_from([" ", "\\n", "\\r\\n", "\\t", "=", "==", "-", "_", "A", "/", "+",
                                 "Q", "é", "\\u0041", "\\u00e9", "."])
_other_values = st.sampled_from(["0", "5", "null", "true", "{}", '{"a":"AQA="}', "[]", "[1,2]",
                                 "[2048,2051]", '["AQA="]', '"AQA="+"AQA="'])
# what may follow the object: JSON's whitespace reads, anything else not
_line_ends = st.sampled_from(["", " ", "\n", "\t \r\n", "x", "}", "]", ",", '{"x":1}'])


@st.composite
def _record_lines(draw) -> bytes:
    """encode_record's lines for records of codes, and lines one step off them."""
    rec = draw(record_strategy)
    line = encode_record(rec).decode("utf-8")
    head, _, text = line.rpartition(',"ecg":"')
    text = text[:-len('"}')]
    variant = draw(st.sampled_from(["canonical", "insert", "drop", "replace", "value", "end",
                                    "head", "bytes"]))
    value = f'"{text}"'
    if variant == "insert":
        at = draw(st.integers(0, len(text)))
        value = f'"{text[:at]}{draw(_text_inserts)}{text[at:]}"'
    elif variant == "drop" and text:
        at = draw(st.integers(0, len(text) - 1))
        value = f'"{text[:at]}{text[at + 1:]}"'
    elif variant == "replace" and text:
        at = draw(st.integers(0, len(text) - 1))
        letter = draw(st.sampled_from("AQgwBCDPf/+=-_"))
        value = f'"{text[:at]}{letter}{text[at + 1:]}"'
    elif variant == "value":
        value = draw(_other_values)
    elif variant == "head":
        head = head.replace('"bpm"', draw(st.sampled_from([
            '"ecg":"","bpm"', '"ecg":[1],"bpm"', '"extra":1,"bpm"', ' "bpm" ', '"bpm":1,"bpm"',
            '"ecg":"AQA=","bpm":3,"ecg":"","bpm"'])), 1)
    out = (head + ',"ecg":' + value + "}" + (draw(_line_ends) if variant == "end" else "")).encode()
    if variant == "bytes":  # no UTF-8, or a NUL (json.loads given bytes guesses UTF-16 from one)
        at = draw(st.integers(0, len(out)))
        out = out[:at] + draw(st.sampled_from([b"\xff", b"\x00", b"\xc3"])) + out[at:]
    return out


# letters the reader's property tests draw: base64's own, padding, whitespace,
# the URL-safe ones and one that is no ASCII
_READER_LETTERS = string.ascii_letters + string.digits + "+/= \n-_é"
_LONG_TEXT = ecg_text(np.random.default_rng(41).integers(0, 65536, 5000).tolist())
_LONG_BULK = (len(_LONG_TEXT) - 1) // 8 * 8  # the letters before its last group of 8


def read_codes(decode, text: str) -> list | None:
    """The codes decode reads from a record whose ecg is text, or None if
    it refuses the line."""
    line = encode_record(make_record(ecg=[])).replace(b'"ecg":""', b'"ecg":' + json.dumps(text).encode())
    try:
        return decode(line).ecg.tolist()
    except ValueError:
        return None


@st.composite
def _texts_of_length(draw, length: int) -> str:
    """length letters: base64 of bytes, with up to two letters replaced, or
    any letters of _READER_LETTERS."""
    if length % 4 or draw(st.booleans()):
        return draw(st.text(alphabet=_READER_LETTERS, min_size=length, max_size=length))
    size = draw(st.integers(max(0, length * 3 // 4 - 2), length * 3 // 4))  # its base64 is length letters
    text = base64.b64encode(draw(st.binary(min_size=size, max_size=size))).decode("ascii")
    for _ in range(draw(st.integers(0, 2)) if length else 0):
        at = draw(st.integers(0, length - 1))
        text = text[:at] + draw(st.sampled_from(_READER_LETTERS)) + text[at + 1:]
    return text


class TestCodeTextDecoding:
    """The reader takes a line exactly when json reads it as the record's
    keys in order and its ecg is base64 as encode_record writes it."""

    @settings(max_examples=800, deadline=None, derandomize=True)
    @given(line=_record_lines())
    def test_same_outcome_as_one_json_loads(self, line):
        """decode_record reads a line exactly when _canonical_record does, and
        exactly when one json.loads and the standard library's base64 read
        it, with their values and exact types; it refuses any other line
        with _canonical_record's reason."""
        reference = decode_outcome(decode_record_reference, line)
        try:
            telemetry._canonical_record(line)
        except ValueError as exc:
            assert decode_outcome(decode_record, line) == (ValueError, str(exc))
            assert not isinstance(reference[0], TelemetryRecord)
            return
        outcome = decode_outcome(decode_record, line)
        assert outcome == reference

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rec=record_strategy,
           codes=st.lists(st.integers(min_value=0, max_value=_MAX_CODE),
                          min_size=1, max_size=60))
    def test_canonical_code_lines_read_back_their_codes(self, rec, codes):
        line = encode_record(dataclasses.replace(rec, ecg=codes))
        assert telemetry._canonical_record(line)["ecg"].tolist() == codes
        assert decode_outcome(decode_record, line) == decode_outcome(decode_record_reference, line)

    @pytest.mark.parametrize("ecg", [
        b"[2048, 2051]", b"[2048,2051.0]", b"[-1,2]", b"[123456]", b"[]", b"[01]", b"[1,,2]",
        b"[1,2,]", b"[,1]", b"[1e3]", b"[true]", b"[65536]", b"[99999]", b"[+1]", b"[1,-]",
        b"[\n1]", b"[ 1]", b"[-0]", b"[70000]", b"[2048,2051,2047,2049]",
    ])
    def test_other_code_lists_go_through_json(self, tmp_path, ecg):
        """Every decimal code list is refused, the golden record's own as
        files written before the base64 form hold it: json reads it as a
        list, which is no base64 string, or does not read it at all."""
        line = encode_record(make_record()).replace(GOLDEN_ECG, ecg)
        try:
            json.loads(line)
        except ValueError:
            reason = "record is not JSON"
        else:
            reason = NOT_TEXT.format("list")
        assert_line_refused(line, tmp_path, reason)

    @pytest.mark.parametrize("value, reason", [
        (b'"AQA"', "ecg is not base64: Incorrect padding"),
        (b'"AQA=="', "ecg is not canonical base64"),
        (b'"AQA=A"', "ecg is not canonical base64"),
        (b'"AQ\\nA="', "ecg is not canonical base64"),
        (b'"AQA=\\n"', "ecg is not canonical base64"),
        (b'"AQ A="', "ecg is not canonical base64"),
        (b'" AQA="', "ecg is not canonical base64"),
        (b'"//8-_w=="', "ecg is not canonical base64"),
        (b'"-_8="', "ecg is not base64"),
        (b'"AQB="', "ecg is not canonical base64"),
        (b'"AQID"', "ecg must hold whole 16-bit codes, got 3 bytes"),
        (b'"AQ=="', "ecg must hold whole 16-bit codes, got 1 bytes"),
        (b'"AQ\\u00e9A="', "ecg is not base64: string argument should contain only ASCII"),
        (b"2048", NOT_TEXT.format("int")),
        (b"null", NOT_TEXT.format("NoneType")),
        (b'{"ecg":"AQA="}', NOT_TEXT.format("dict")),
        (b'["AQA="]', NOT_TEXT.format("list")),
    ], ids=["missing-pad", "extra-pad", "after-pad", "escaped-newline", "trailing-newline",
            "space", "leading-space", "url-safe", "url-safe-only", "trailing-bits", "odd-bytes",
            "one-byte", "non-ascii", "number", "null", "object", "list"])
    def test_non_canonical_base64_refused(self, tmp_path, value, reason):
        """Each ecg text encode_record does not write is refused with its
        reason, and retrieve_and_plot counts the line as a warning; "AQA="
        is the canonical text of code 1."""
        assert decode_record(encode_record(make_record(ecg=[1]))) == make_record(ecg=[1])
        line = encode_record(make_record(ecg=[1])).replace(b'"AQA="', value)
        assert_line_refused(line, tmp_path, reason)

    @pytest.mark.parametrize("length", range(25))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_reader_takes_exactly_canonical_base64_of_whole_words(self, length, data):
        """Up to 24 letters, the reader takes an ecg text exactly when the
        standard library's validating base64 reads it, re-encodes it to the
        same text and finds an even number of bytes, with the same codes."""
        text = data.draw(_texts_of_length(length))
        assert read_codes(decode_record, text) == read_codes(decode_record_reference, text)

    @pytest.mark.parametrize("start, stop", [(0, _LONG_BULK), (_LONG_BULK, len(_LONG_TEXT))],
                             ids=["bulk", "last-group"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), letter=st.sampled_from(_READER_LETTERS))
    def test_reader_on_5000_codes_with_one_letter_changed(self, start, stop, data, letter):
        """A 5000-code text with one letter changed, before its last group
        of 8 letters or in it, reads exactly as the standard library reads it."""
        at = data.draw(st.integers(start, stop - 1))
        text = _LONG_TEXT[:at] + letter + _LONG_TEXT[at + 1:]
        assert read_codes(decode_record, text) == read_codes(decode_record_reference, text)

    def test_widest_adc_code_reads_back(self):
        code = _MAX_CODE
        line = encode_record(make_record(ecg=[0, code]))
        assert line.endswith(b'"ecg":"AAD//w=="}')
        assert telemetry._canonical_record(line)["ecg"].tolist() == [0, code]
        assert decode_outcome(decode_record, line) == decode_outcome(decode_record_reference, line)

    @pytest.mark.parametrize("line, reason", [
        (encode_record(make_record()).replace(b'"bpm"', b'"ecg":"","bpm"'), "bad record keys"),
        (encode_record(make_record(location="w\xe9")).replace("é".encode(), b"\xe9"),
         "record is not JSON: 'utf-8' codec can't decode byte 0xe9"),
        (encode_record(make_record()) + b" ", None),
        (encode_record(make_record()) + b"\n", None),
        (encode_record(make_record()) + b"}", "record is not JSON: Extra data"),
        (encode_record(make_record()).replace(b'"ward-3/bed-12"', b"[" * 100_000 + b"]" * 100_000),
         "record is not JSON: maximum recursion depth"),
    ], ids=["ecg-in-head", "not-utf8", "trailing-space", "trailing-newline", "trailing-brace",
            "deep-head"])
    def test_other_lines_go_through_json(self, tmp_path, line, reason):
        """Each line json does not read as a record is refused with its
        reason; whitespace around the object is JSON's, and reads."""
        if reason is None:
            assert decode_record(line) == make_record()
            return
        assert_line_refused(line, tmp_path, reason)

    def test_pipeline_record_samples_never_reach_json(self, monkeypatch):
        """A 5000-code record's line goes through json once, whole; its
        codes come back from one base64 string, never from numbers."""
        record = run_pipeline(dataclasses.replace(PipelineConfig(), duration=10.24)).record
        assert len(record.ecg) == 5000
        line = encode_record(record)
        expected = decode_outcome(decode_record_reference, line)
        assert expected[0] == record
        loaded = []
        loads = json.loads

        def counting_loads(s, *args, **kwargs):
            loaded.append(s)
            return loads(s, *args, **kwargs)

        monkeypatch.setattr(telemetry.json, "loads", counting_loads)
        assert decode_outcome(decode_record, line) == expected
        assert loaded == [line.decode("utf-8")]


class TestSinks:
    @pytest.mark.parametrize("spec, described", [
        ("stdout", "stdout"), ("file:out.jsonl", "file:out.jsonl"),
        ("file:a:b", "file:a:b"), ("http:1", "http:1"), ("http:65535", "http:65535"),
    ])
    def test_make_sink_describes_its_spec(self, spec, described):
        with make_sink(spec) as sink:  # opens nothing
            assert sink.describe() == described

    @pytest.mark.parametrize("spec, match", [
        ("bogus", "unknown sink 'bogus'"), ("stdout:", "unknown sink"), ("", "unknown sink"),
        ("http:abc", "1..65535, got 'abc'"), ("http:0", "1..65535"), ("http:65536", "1..65535"),
        ("http:", "1..65535"), ("http:-1", "1..65535"), ("file:", "unknown sink 'file:'"),
    ])
    def test_bad_sink_spec_rejected(self, spec, match):
        with pytest.raises(ValueError, match=match):
            make_sink(spec)
        with pytest.raises(ValueError, match=match):
            PipelineConfig(sink=spec)

    def test_file_publish_read_back(self, tmp_path):
        sink = FileSink(tmp_path / "out.jsonl")
        payload = encode_record(make_record())
        receipt = publish(sink, payload)
        assert receipt.ok and receipt.attempts == 1
        assert (tmp_path / "out.jsonl").read_bytes() == payload + b"\n"

    @staticmethod
    def count_connections(monkeypatch) -> list:
        """Record one entry per TCP connection the loopback listener accepts."""
        accepted = []
        setup = cloud._LoopbackHandler.setup

        def counting_setup(handler):
            accepted.append(handler.client_address)
            setup(handler)

        monkeypatch.setattr(cloud._LoopbackHandler, "setup", counting_setup)
        return accepted

    def test_loopback_receives_in_order(self, monkeypatch):
        accepted = self.count_connections(monkeypatch)
        payloads = [encode_record(make_record(timestamp=i + 1)) for i in range(50)]
        with LoopbackListener() as listener, HttpSink(listener.port) as sink:
            for p in payloads:
                assert publish(sink, p).ok
            assert listener.received == payloads
            assert len(accepted) == 1  # one kept-alive connection carried all 50
            sink.close()
            assert publish(sink, payloads[0]).ok  # reconnects after close()
            assert len(accepted) == 2

    def test_listener_that_closes_each_connection(self, monkeypatch):
        # an HTTP/1.0 reply announces the close: the sink reconnects per POST
        accepted = self.count_connections(monkeypatch)
        monkeypatch.setattr(cloud._LoopbackHandler, "protocol_version", "HTTP/1.0")
        payloads = [encode_record(make_record(timestamp=i + 1)) for i in range(3)]
        with LoopbackListener() as listener, HttpSink(listener.port) as sink:
            assert all(publish(sink, p).ok for p in payloads)
            assert listener.received == payloads
        assert len(accepted) == 3

    def test_close_with_open_client_connection_is_prompt(self):
        listener = LoopbackListener()
        with HttpSink(listener.port) as sink, HttpSink(listener.port) as other:
            # two idle kept-alive connections, each held by a handler thread
            assert publish(sink, b"{}").ok and publish(other, b"{}").ok
            closer = threading.Thread(target=listener.close)
            closer.start()
            closer.join(timeout=0.5)
            assert not closer.is_alive()

    def test_report_publishes_record_then_alert(self, tmp_path):
        cfg = dataclasses.replace(PipelineConfig(), sink=f"file:{tmp_path / 'out.jsonl'}")
        rec, alert, receipts = report(cfg, 130.0, [2048, 2051], publish_records=True)
        assert [r.ok for r in receipts] == [True, True]
        assert (tmp_path / "out.jsonl").read_bytes() == (
            encode_record(rec) + b"\n" + encode_alert(alert) + b"\n")
        assert len(report(cfg, 72.0, [2048], publish_records=True)[2]) == 1  # no alert, one receipt

    def test_unwritable_path_fails_with_attempts(self, tmp_path):
        # missing parent directory: open() fails before any byte is written
        target = tmp_path / "no-such-dir" / "out.jsonl"
        pauses = []
        receipt = publish(FileSink(target), b"{}", sleep=pauses.append)
        assert not receipt.ok
        assert receipt.attempts == 3
        assert receipt.error
        assert not target.exists()
        assert pauses == [0.05, 0.1]

    def test_dead_http_sink_fails(self):
        with LoopbackListener() as listener:
            port = listener.port
        pauses = []
        with HttpSink(port) as sink:
            receipt = publish(sink, b"{}", sleep=pauses.append)
        assert not receipt.ok
        assert receipt.attempts == 3
        assert pauses == [0.05, 0.1]

    class _FailingSink(FileSink):
        """A file sink whose first `failures` sends fail."""

        def __init__(self, path, failures):
            super().__init__(path)
            self.failures = failures

        def send(self, payload):
            if self.failures:
                self.failures -= 1
                raise OSError("link down")
            super().send(payload)

    @pytest.mark.parametrize("failures, pauses, ok", [
        (0, [], True),  # a send that works waits for nothing
        (2, [0.05, 0.1], True),
        (9, [0.05, 0.1], False),  # two retries, then the receipt
    ])
    def test_retries_back_off(self, tmp_path, failures, pauses, ok):
        target = tmp_path / "out.jsonl"
        waited = []
        receipt = publish(self._FailingSink(target, failures), b"{}", sleep=waited.append)
        assert waited == pauses
        assert (receipt.ok, receipt.attempts) == (ok, len(pauses) + 1)
        assert receipt.error == (None if ok else "link down")
        assert target.exists() is ok

    def test_default_backoff_really_waits(self, tmp_path):
        t0 = time.perf_counter()
        receipt = publish(FileSink(tmp_path / "no-such-dir" / "x"), b"{}")
        assert not receipt.ok and time.perf_counter() - t0 >= 0.05

    def test_sink_fails_once_its_listener_closed(self):
        with LoopbackListener() as listener, HttpSink(listener.port) as sink:
            assert publish(sink, b"{}").ok
            listener.close()  # with the sink's connection open
            t0 = time.perf_counter()
            pauses = []
            receipt = publish(sink, b"{}", sleep=pauses.append)
            assert time.perf_counter() - t0 < 1.0  # refused at once, no timeout waited
        assert not receipt.ok
        assert receipt.attempts == 3
        assert receipt.error
        assert pauses == [0.05, 0.1]


BAD_PLOT_LINES = [
    b"{corrupt json",
    b"",
    encode_record(make_record()).replace(GOLDEN_ECG, b"[65536,2051,2047,2049]"),
    encode_alert(AlertEvent(130.0, "high", "ward", 0)),
]


def assert_plot_matches_reference(tmp_path: Path, lines: list[bytes]) -> None:
    """retrieve_and_plot of lines writes the SVG of every decoded code, in
    timestamp order (ties in file order), as one float64 frame."""
    source, out, ref = tmp_path / "records.jsonl", tmp_path / "plot.svg", tmp_path / "ref.svg"
    source.write_bytes(b"".join(line + b"\n" for line in lines))
    records = []
    for line in lines:
        with contextlib.suppress(ValueError):
            records.append(decode_record(line))
    records.sort(key=lambda rec: rec.timestamp)
    export_svg(SampleFrame(500.0, np.array([c for rec in records for c in rec.ecg], dtype=np.float64)),
               ref)
    plot = retrieve_and_plot(source, out)
    assert plot.records_plotted == len(records)
    assert out.read_bytes() == ref.read_bytes()


class TestRetrieveAndPlot:
    def test_single_record_matches_direct_render(self, tmp_path):
        import numpy as np

        from ecgmon.render import export_svg
        from ecgmon.signals import SampleFrame

        ecg = list(range(100, 200)) + list(range(200, 100, -1))
        rec = make_record(ecg=ecg)
        source = tmp_path / "records.jsonl"
        source.write_bytes(encode_record(rec) + b"\n")
        out = tmp_path / "plot.svg"
        result = retrieve_and_plot(source, out)
        assert result.records_plotted == 1
        assert result.warnings == 0
        direct = tmp_path / "direct.svg"
        export_svg(SampleFrame(500.0, np.asarray(ecg, dtype=float)), direct)
        assert out.read_bytes() == direct.read_bytes()

    def test_out_of_order_records_sorted_by_timestamp(self, tmp_path):
        import numpy as np

        from ecgmon.render import export_svg
        from ecgmon.signals import SampleFrame

        first = make_record(timestamp=100, ecg=[0] * 50)
        second = make_record(timestamp=200, ecg=[4095] * 50)
        source = tmp_path / "records.jsonl"
        source.write_bytes(encode_record(second) + b"\n" + encode_record(first) + b"\n")
        out = tmp_path / "plot.svg"
        retrieve_and_plot(source, out)
        joined = tmp_path / "joined.svg"
        export_svg(SampleFrame(500.0, np.asarray([0.0] * 50 + [4095.0] * 50)), joined)
        assert out.read_bytes() == joined.read_bytes()

    def test_corrupt_line_skipped_with_warning(self, tmp_path):
        source = tmp_path / "records.jsonl"
        good = encode_record(make_record(timestamp=1))
        malformed = [
            b"{corrupt json",
            b"\xff\xfe",
            b"[1]",
            good.replace(GOLDEN_ECG, b"5"),
            good.replace(GOLDEN_ECG, b"null"),
            good.replace(GOLDEN_ECG, b'"2048"'),
            good.replace(GOLDEN_ECG, b"[1," + b"9" * 400 + b"]"),
            good.replace(GOLDEN_ECG, b"[1,NaN]"),
            good.replace(GOLDEN_ECG, b"[Infinity]"),
            good.replace(GOLDEN_ECG, b"[" * 100_000 + b"]" * 100_000),
            good.replace(b'"bpm":72.0', b'"bpm":"72"'),
            good.replace(b'"bpm":72.0', b'"bpm":NaN'),
            good.replace(b'"bpm":72.0', b'"bpm":true'),
            good.replace(b'"timestamp":1', b'"timestamp":1.5e400'),
            good.replace(b'"timestamp":1', b'"timestamp":null'),
            good.replace(b'"device_id":"ecg-001"', b'"device_id":5'),
            good.replace(b'"device_id":"ecg-001"', b'"device_id":null'),
            good.replace(b'"device_id":"ecg-001"', b'"device_id":["ecg-001"]'),
            good.replace(b'"device_id":"ecg-001"', b'"device_id":{"id":"ecg-001"}'),
            good.replace(b'"location":"ward-3/bed-12"', b'"location":3'),
            good.replace(b'"location":"ward-3/bed-12"', b'"location":null'),
            good.replace(b'"location":"ward-3/bed-12"', b'"location":["ward-3"]'),
            good.replace(b'"location":"ward-3/bed-12"', b'"location":{"ward":3}'),
        ]
        lines = [good, *malformed, encode_record(make_record(timestamp=2))]
        source.write_bytes(b"\n".join(lines) + b"\n")
        result = retrieve_and_plot(source, tmp_path / "plot.svg")
        assert result.records_plotted == 2
        assert result.warnings == len(malformed)

    def test_only_canonical_lines_are_plotted(self, tmp_path):
        """Lines a json reader would take, but encode_record never writes,
        are warnings: the decimal code list, a space in the base64, URL-safe
        letters."""
        good = [encode_record(make_record(timestamp=t, ecg=[t, 2 * t + 0xFF00])) for t in (1, 2, 3)]
        text = json.loads(good[0])["ecg"].encode()
        assert text == b"AQAC/w=="
        bad = [good[0].replace(b'"%s"' % text, b"[1,65282]"), good[0].replace(text, b"AQAC /w=="),
               good[0].replace(text, b"AQAC_w==")]
        source = tmp_path / "records.jsonl"
        source.write_bytes(b"\n".join([good[2], bad[0], good[0], bad[1], bad[2], good[1]]) + b"\n")
        out = tmp_path / "plot.svg"
        result = retrieve_and_plot(source, out)
        assert (result.records_plotted, result.warnings) == (3, 3)
        from ecgmon.render import export_svg
        from ecgmon.signals import SampleFrame
        joined = tmp_path / "joined.svg"
        export_svg(SampleFrame(500.0, np.array([1.0, 65282.0, 2.0, 65284.0, 3.0, 65286.0])), joined)
        assert out.read_bytes() == joined.read_bytes()

    def test_alert_lines_are_no_warnings(self, tmp_path):
        """The alert line run_pipeline publishes after its record is skipped
        without a warning; a line that is not exactly encode_alert's still
        counts as one."""
        source = tmp_path / "records.jsonl"
        cfg = dataclasses.replace(PipelineConfig(), sink=f"file:{source}", bpm=140.0)
        result = run_pipeline(cfg, publish_records=True)
        alert = encode_alert(result.alert)
        assert source.read_bytes() == encode_record(result.record) + b"\n" + alert + b"\n"
        plot = retrieve_and_plot(source, tmp_path / "plot.svg")
        assert (plot.records_plotted, plot.warnings) == (1, 0)
        reordered = json.dumps(dict(reversed(json.loads(alert).items())), separators=(",", ":"))
        not_alerts = [alert.replace(b'"timestamp":0}', b'"timestamp":0.0}'),
                      alert.replace(b",", b", ", 1), alert[:-1], reordered.encode(),
                      alert.replace(b'"location"', b'"extra":1,"location"'), b"{}", b"[]"]
        with source.open("ab") as fh:
            fh.write(b"\n".join(not_alerts) + b"\n")
        plot = retrieve_and_plot(source, tmp_path / "plot.svg")
        assert (plot.records_plotted, plot.warnings) == (1, len(not_alerts))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lines=st.lists(st.one_of(
        st.builds(lambda t, ecg: encode_record(make_record(timestamp=t, ecg=ecg)),
                  st.integers(0, 3),
                  st.one_of(st.lists(st.integers(0, 65535), max_size=300),
                            st.lists(st.sampled_from([0, 65535]), max_size=140),
                            st.integers(0, 65535).flatmap(
                                lambda c: st.lists(st.just(c), max_size=140)))),
        st.sampled_from(BAD_PLOT_LINES)), max_size=6))
    def test_plot_equals_the_float_frame_of_every_code(self, lines):
        """Drawn from the codes, the SVG is byte for byte the one the whole
        file's codes give as one float64 frame."""
        with tempfile.TemporaryDirectory() as tmp:
            assert_plot_matches_reference(Path(tmp), lines)

    @pytest.mark.parametrize("lengths", [[], [0], [1], [127], [128], [129], [60, 67], [64, 65],
                                         [1, 0, 128], [5000] * 3])
    def test_plot_of_edge_lengths_equals_the_float_frame(self, tmp_path, lengths):
        """Files of 0, 1, 127, 128 and 129 codes in all, in one record or
        several, with unsorted and tied timestamps, bad lines between, and
        constant or extreme codes."""
        rng = np.random.default_rng(len(lengths))
        for make in (lambda n: rng.integers(0, 65536, n), lambda n: np.full(n, 7),
                     lambda n: rng.choice([0, 65535], n)):
            lines = [encode_record(make_record(timestamp=(len(lengths) - i) // 2, ecg=make(n)))
                     for i, n in enumerate(lengths)]
            lines[1:1] = BAD_PLOT_LINES
            assert_plot_matches_reference(tmp_path, lines)

    def test_plot_peak_memory_is_linear_in_the_codes_with_a_small_factor(self, tmp_path):
        """The file's codes stay 16-bit and are never joined: reading 40
        records of 5000 codes peaks below 3 bytes per code (their 16-bit
        words are 2, a joined copy 2 more, a float64 copy 8)."""
        rng = np.random.default_rng(3)
        source = tmp_path / "records.jsonl"
        source.write_bytes(b"".join(
            encode_record(make_record(timestamp=i, ecg=rng.integers(0, 4096, 5000))) + b"\n"
            for i in range(40)))
        retrieve_and_plot(source, tmp_path / "warm.svg")
        tracemalloc.start()
        try:
            plot = retrieve_and_plot(source, tmp_path / "plot.svg")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (plot.records_plotted, plot.warnings) == (40, 0)
        assert peak / (40 * 5000) < 3

    def test_ecg_that_is_no_array_counts_as_warning(self, tmp_path):
        source = tmp_path / "records.jsonl"
        good = encode_record(make_record(timestamp=1))
        not_arrays = [good.replace(GOLDEN_ECG, value)
                      for value in (b'"AQID"', b"{}", b'{"2048":1}')]
        source.write_bytes(b"\n".join([good, *not_arrays]) + b"\n")
        result = retrieve_and_plot(source, tmp_path / "plot.svg")
        assert (result.records_plotted, result.warnings) == (1, len(not_arrays))


class ScriptedListener:
    """A raw-socket HTTP peer that answers HttpSink's POSTs from a script.

    Each script entry answers one request: (reply, close) sends the reply
    bytes, unless reply is None, and then closes the connection if close
    is true.  Requests are read as HttpSink writes them, a head up to the
    blank line and Content-Length body bytes, and kept whole in .requests.
    """

    def __init__(self, *script):
        self._script = list(script)
        self._server = socket.create_server((telemetry._LOOPBACK_HOST, 0))
        self.port = self._server.getsockname()[1]
        self.accepted = 0
        self.requests: list[bytes] = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        with self._server:
            while self._script:
                try:
                    conn, _ = self._server.accept()
                except OSError:  # shut down by close()
                    return
                self.accepted += 1
                conn.settimeout(5.0)
                with conn, conn.makefile("rb") as rfile, contextlib.suppress(OSError):
                    self._answer(conn, rfile)

    def _answer(self, conn, rfile):
        while self._script:
            head = b""
            while not head.endswith(b"\r\n\r\n"):
                line = rfile.readline()
                if not line:  # the sink closed the connection
                    return
                head += line
            length = int(re.search(rb"\r\nContent-Length: (\d+)\r\n", head)[1])
            self.requests.append(head + rfile.read(length))
            reply, close = self._script.pop(0)
            if reply is not None:
                conn.sendall(reply)
            if close:
                return

    def close(self):
        with contextlib.suppress(OSError):  # the thread may have closed it already
            self._server.shutdown(socket.SHUT_RDWR)
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


OK_EMPTY = (b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", False)


def header_line(size: int) -> bytes:
    """One header line of exactly size bytes, its CRLF included."""
    line = b"X-Long: \r\n"
    return line[:-2] + b"a" * (size - len(line)) + b"\r\n"


class TestHttpSinkReplies:
    """HttpSink against scripted replies: each framing, and the failures
    that drop the connection."""

    @staticmethod
    def send_all(sink, count):
        """Send count payloads, each once, with no retry: a receipt each, as
        publish gives for its first attempt."""
        receipts = []
        for i in range(count):
            try:
                sink.send(b'{"n":%d}' % i)
                receipts.append(DeliveryReceipt(ok=True, attempts=1))
            except OSError as exc:
                receipts.append(DeliveryReceipt(ok=False, attempts=1, error=str(exc)))
        return receipts

    def test_content_length_body(self):
        reply = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello"
        with ScriptedListener((reply, False), (reply, False)) as peer, HttpSink(peer.port) as sink:
            assert all(r.ok for r in self.send_all(sink, 2))
        assert peer.accepted == 2  # the body is never read, so its connection is dropped

    def test_chunked_body(self):
        reply = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                 b"5;note=x\r\nhello\r\n1A\r\n" + b"z" * 26 + b"\r\n0\r\nX-Trailer: 1\r\n\r\n")
        with ScriptedListener((reply, False), (reply, False)) as peer, HttpSink(peer.port) as sink:
            assert all(r.ok for r in self.send_all(sink, 2))
        assert peer.accepted == 2

    def test_close_delimited_http10_body(self):
        reply = b"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\nbody to the close"
        with ScriptedListener((reply, True), (reply, True)) as peer, HttpSink(peer.port) as sink:
            assert all(r.ok for r in self.send_all(sink, 2))
        assert peer.accepted == 2  # the body ended the connection: one per POST

    def test_connection_close_on_http11(self):
        reply = b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok"
        with ScriptedListener((reply, True), (reply, True)) as peer, HttpSink(peer.port) as sink:
            assert all(r.ok for r in self.send_all(sink, 2))
        assert peer.accepted == 2

    def test_interim_reply_skipped(self):
        script = [(b"HTTP/1.1 100 Continue\r\n\r\n" + OK_EMPTY[0], False), OK_EMPTY]
        with ScriptedListener(*script) as peer, HttpSink(peer.port) as sink:
            assert all(r.ok for r in self.send_all(sink, 2))
        assert peer.accepted == 1

    def test_no_content_reply_has_no_body(self):
        reply = b"HTTP/1.1 204 No Content\r\n\r\n"  # neither length nor chunks, yet no body
        with ScriptedListener((reply, False), (reply, False)) as peer, HttpSink(peer.port) as sink:
            assert all(r.ok for r in self.send_all(sink, 2))
        assert peer.accepted == 1

    def test_error_status_with_a_body_reconnects(self):
        error = b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 4\r\n\r\noops"
        with ScriptedListener((error, False), OK_EMPTY) as peer, HttpSink(peer.port) as sink:
            failed, sent = self.send_all(sink, 2)
        assert (failed.ok, failed.error) == (False, "listener answered 500")
        assert sent.ok
        assert peer.accepted == 2  # the 500's body was not read: the next POST reconnected

    def test_close_before_reply_reconnects(self):
        with ScriptedListener((None, True), OK_EMPTY) as peer, HttpSink(peer.port) as sink:
            failed, sent = self.send_all(sink, 2)
        assert (failed.ok, failed.error) == (False, "listener closed the connection before replying")
        assert sent.ok
        assert peer.accepted == 2
        assert peer.requests[0] == peer.requests[1].replace(b'{"n":1}', b'{"n":0}')

    @pytest.mark.parametrize("reply, error", [
        (b"HTTP/1.1 200 OK\r\n" + header_line(65537) + b"\r\n",
         "reply line longer than 65536 bytes"),
        (b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n", "reply has more than 100 headers"),
        (b"HTTP/1.1 2x0 OK\r\n\r\n", "bad status line from listener: b'HTTP/1.1 2x0 OK\\r\\n'"),
        (b"ICY 200 OK\r\n\r\n", "bad status line from listener: b'ICY 200 OK\\r\\n'"),
        (b"HTTP/1.1 200 OK\r\nno colon\r\n\r\n", "bad header line from listener: b'no colon\\r\\n'"),
        (b"HTTP/1.1 200 OK\r\n folded: x\r\n\r\n", "bad header line from listener: b' folded: x\\r\\n'"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n", "listener closed the connection mid-headers"),
    ], ids=["long-line", "101-headers", "bad-code", "bad-version", "no-colon", "folded", "cut-head"])
    def test_malformed_reply_fails_and_reconnects(self, reply, error):
        with ScriptedListener((reply, True), OK_EMPTY) as peer, HttpSink(peer.port) as sink:
            failed, sent = self.send_all(sink, 2)
        assert (failed.ok, failed.error) == (False, error)
        assert sent.ok
        assert peer.accepted == 2

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nxyz\r\n",
    ], ids=["bad-length", "short-body", "bad-chunk"])
    def test_2xx_reply_is_delivered_once_whatever_its_body(self, reply):
        """The status line decides delivery: a 2xx whose body is broken is
        not retried, so the peer stores the record once."""
        with ScriptedListener((reply, False), OK_EMPTY) as peer, HttpSink(peer.port) as sink:
            receipt = publish(sink, b"{}", sleep=lambda _: None)
            assert (receipt.ok, receipt.attempts) == (True, 1)
            assert len(peer.requests) == 1
            assert publish(sink, b"{}").ok
        assert peer.accepted == 2  # the body was left unread: the next POST reconnected

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\n" + header_line(65536) + b"Content-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 99 + b"Content-Length: 0\r\n\r\n",
    ], ids=["65536-byte-line", "100-headers"])
    def test_replies_at_the_limits_are_read(self, reply):
        with ScriptedListener((reply, False), (reply, False)) as peer, HttpSink(peer.port) as sink:
            assert all(r.ok for r in self.send_all(sink, 2))
        assert peer.accepted == 1

    @staticmethod
    def counting_connections(monkeypatch) -> list:
        """The sockets HttpSink opens, each wrapped to record its sendall calls."""
        opened = []
        create_connection = socket.create_connection

        class CountingSocket:
            def __init__(self, sock):
                self.sock = sock
                self.sendalls = []

            def sendall(self, data):
                self.sendalls.append(bytes(data))
                return self.sock.sendall(data)

            def __getattr__(self, name):
                return getattr(self.sock, name)

        def counting_create_connection(*args, **kwargs):
            opened.append(CountingSocket(create_connection(*args, **kwargs)))
            return opened[-1]

        monkeypatch.setattr(telemetry.socket, "create_connection", counting_create_connection)
        return opened

    def test_one_write_per_post(self, monkeypatch):
        opened = self.counting_connections(monkeypatch)
        payloads = [encode_record(make_record(timestamp=i + 1)) for i in range(3)]
        with LoopbackListener() as listener, HttpSink(listener.port) as sink:
            assert all(publish(sink, p).ok for p in payloads)
            assert listener.received == payloads
        assert len(opened) == 1
        writes = opened[0].sendalls
        assert len(writes) == len(payloads)  # head and payload in one sendall each
        for write, payload in zip(writes, payloads):
            assert write == (b"POST / HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n"
                             b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
                             % (listener.port, len(payload), payload))

    def test_no_socket_before_the_first_send(self, monkeypatch):
        opened = self.counting_connections(monkeypatch)
        with ScriptedListener(OK_EMPTY) as peer, HttpSink(peer.port) as sink:
            assert sink.describe() == f"http:{peer.port}"
            assert opened == [] and peer.accepted == 0
            assert publish(sink, b"{}").ok
            assert len(opened) == 1 and peer.accepted == 1

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"+5", b"5_0", b"\xd9\xa5", b""])
    def test_listener_answers_400_to_a_malformed_content_length(self, capfd, length):
        with LoopbackListener() as listener:
            with socket.create_connection((telemetry._LOOPBACK_HOST, listener.port), timeout=2) as conn:
                conn.sendall(b"POST / HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n{}")
                with conn.makefile("rb") as rfile:
                    reply = rfile.read()  # the listener closes the connection after the 400
            assert reply.split(b" ", 2)[1] == b"400"
            assert listener.received == []
        assert "Traceback" not in capfd.readouterr().err

    def test_listener_answers_411_to_a_transfer_encoding(self, capfd):
        # it frames a body by Content-Length only, so a chunked one is refused, not taken as empty
        with LoopbackListener() as listener:
            with socket.create_connection((telemetry._LOOPBACK_HOST, listener.port), timeout=2) as conn:
                conn.sendall(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                             b"2\r\n{}\r\n0\r\n\r\n")
                with conn.makefile("rb") as rfile:
                    reply = rfile.read()  # the listener closes the connection after the 411
            assert reply.split(b" ", 2)[1] == b"411"
            assert listener.received == []
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("length", [b"100000000000000", b"%d" % (cloud.MAX_BODY_BYTES + 1), b"9" * 5000])
    def test_listener_answers_413_to_a_body_over_its_bound(self, capfd, length):
        # refused before any of the body is read, so no memory is asked for it
        with LoopbackListener() as listener:
            with socket.create_connection((telemetry._LOOPBACK_HOST, listener.port), timeout=2) as conn:
                conn.sendall(b"POST / HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n{}")
                with conn.makefile("rb") as rfile:
                    reply = rfile.read()  # the listener closes the connection after the 413
            assert reply.split(b" ", 2)[1] == b"413"
            assert listener.received == []
        assert "Traceback" not in capfd.readouterr().err

    def test_listener_records_a_body_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(cloud, "MAX_BODY_BYTES", 2)
        pauses = []
        with LoopbackListener() as listener, HttpSink(listener.port) as sink:
            assert publish(sink, b"{}").ok
            receipt = publish(sink, b"[{}]", sleep=pauses.append)
            assert listener.received == [b"{}"]
        # the same payload would be refused again: one attempt, no pause
        assert receipt == DeliveryReceipt(ok=False, attempts=1, error="listener answered 413")
        assert pauses == []

    @pytest.mark.parametrize("status, attempts", [
        (400, 1), (404, 1), (413, 1), (499, 1),  # a retry of the payload is refused again
        (408, 3), (429, 3), (500, 3), (503, 3),  # a retry may be answered otherwise
    ])
    def test_only_a_final_4xx_ends_the_retries(self, status, attempts):
        reply = (b"HTTP/1.1 %d X\r\nContent-Length: 0\r\n\r\n" % status, False)
        pauses = []
        with ScriptedListener(*[reply] * attempts) as peer, HttpSink(peer.port) as sink:
            receipt = publish(sink, b"{}", sleep=pauses.append)
        assert receipt == DeliveryReceipt(ok=False, attempts=attempts, error=f"listener answered {status}")
        assert pauses == [0.05, 0.1][:attempts - 1]
        assert len(peer.requests) == attempts


def listener_exchange(listener, request: bytes) -> bytes:
    """Send request on a new connection to the listener and read until it
    closes that connection; a listener that keeps it open fails on the
    2 s timeout."""
    reply = b""
    with socket.create_connection((telemetry._LOOPBACK_HOST, listener.port), timeout=2) as conn:
        conn.sendall(request)
        with contextlib.suppress(ConnectionResetError):  # a close with request bytes unread resets
            while chunk := conn.recv(65536):
                reply += chunk
    return reply


LISTENER_OK = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"
LISTENER_OK_CLOSE = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"


class TestListenerHeads:
    """The listener reads a request's head with the rules HttpSink reads a
    reply's by, and answers each request with one bodiless write."""

    @pytest.mark.parametrize("request_bytes, reply", [
        (b"POST /" + b"a" * 65536 + b" HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", b"400 Bad Request"),
        (b"POST / HTTP/1.1\r\n" + header_line(65537) + b"Content-Length: 2\r\n\r\n{}", b"400 Bad Request"),
        (b"POST / HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 100 + b"Content-Length: 2\r\n\r\n{}", b"400 Bad Request"),
        (b"POST / HTTP/1.1\r\nContent-Length : 2\r\n\r\n{}", b"400 Bad Request"),
        (b"POST / HTTP/1.1\r\nX-Folded: a\r\n b\r\nContent-Length: 2\r\n\r\n{}", b"400 Bad Request"),
        (b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello", b"400 Bad Request"),
        (b"POST / HTTP/1.1\r\nno colon\r\nContent-Length: 2\r\n\r\n{}", b"400 Bad Request"),
        (b"POST /\r\nContent-Length: 2\r\n\r\n{}", b"400 Bad Request"),
        (b"POST / HTTP/2.0\r\nContent-Length: 2\r\n\r\n{}", b"400 Bad Request"),
        (b"GET / HTTP/1.1\r\nHost: x\r\n\r\n", b"501 Not Implemented"),
    ], ids=["long-request-line", "long-header-line", "101-headers", "space-before-colon",
            "folded-line", "repeated-content-length", "no-colon", "two-words", "http-2", "get"])
    def test_a_refused_request_is_answered_and_closed(self, capfd, request_bytes, reply):
        with LoopbackListener() as listener:
            assert listener_exchange(listener, request_bytes) == (
                b"HTTP/1.1 %s\r\nContent-Length: 0\r\nConnection: close\r\n\r\n" % reply)
            assert listener.received == []
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("request_bytes", [
        b"POST /" + b"a" * (65536 - len(b"POST / HTTP/1.1\r\n")) + b" HTTP/1.1\r\n"
        b"Connection: close\r\nContent-Length: 2\r\n\r\n{}",
        b"POST / HTTP/1.1\r\n" + header_line(65536) + b"Connection: close\r\nContent-Length: 2\r\n\r\n{}",
        b"POST / HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 98 + b"Connection: close\r\nContent-Length: 2\r\n\r\n{}",
    ], ids=["65536-byte-request-line", "65536-byte-header-line", "100-headers"])
    def test_heads_at_the_limits_are_read(self, request_bytes):
        with LoopbackListener() as listener:
            assert listener_exchange(listener, request_bytes) == LISTENER_OK_CLOSE
            assert listener.received == [b"{}"]

    @pytest.mark.parametrize("head", [
        b"POST / HTTP/1.1\r\nConnection: close\r\n",
        b"POST / HTTP/1.1\r\nConnection: Keep-Alive, CLOSE\r\n",
        b"POST / HTTP/1.0\r\n",
    ], ids=["http11-close", "http11-close-token", "http10"])
    def test_the_listener_closes_after_a_200_when_asked(self, capfd, head):
        with LoopbackListener() as listener:
            assert listener_exchange(listener, head + b"Content-Length: 2\r\n\r\n{}") == LISTENER_OK_CLOSE
            assert listener.received == [b"{}"]
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("head", [b"POST / HTTP/1.1\r\n", b"POST / HTTP/1.0\r\nConnection: keep-alive\r\n"],
                             ids=["http11", "http10-keep-alive"])
    def test_two_posts_in_one_write_are_both_recorded_in_order(self, head):
        with LoopbackListener() as listener:
            with socket.create_connection((telemetry._LOOPBACK_HOST, listener.port), timeout=2) as conn:
                conn.sendall(head + b"Content-Length: 3\r\n\r\n[1]" + head + b"Content-Length: 3\r\n\r\n[2]")
                with conn.makefile("rb") as rfile:
                    assert rfile.read(2 * len(LISTENER_OK)) == LISTENER_OK * 2
                conn.sendall(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\n[3]")  # the connection stayed open
                with conn.makefile("rb") as rfile:
                    assert rfile.read(len(LISTENER_OK)) == LISTENER_OK
            assert listener.received == [b"[1]", b"[2]", b"[3]"]

    def test_a_200_is_one_write_with_no_date_or_server(self, monkeypatch):
        writes = []
        setup = cloud._LoopbackHandler.setup

        class RecordingWriter:
            def __init__(self, wfile):
                self.wfile = wfile

            def write(self, data):
                writes.append(bytes(data))
                return self.wfile.write(data)

            def __getattr__(self, name):
                return getattr(self.wfile, name)

        def recording_setup(handler):
            setup(handler)
            handler.wfile = RecordingWriter(handler.wfile)

        monkeypatch.setattr(cloud._LoopbackHandler, "setup", recording_setup)
        with LoopbackListener() as listener, HttpSink(listener.port) as sink:
            assert publish(sink, b"{}").ok and publish(sink, b"[]").ok
            assert listener.received == [b"{}", b"[]"]
        assert writes == [LISTENER_OK] * 2
