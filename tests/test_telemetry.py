"""Telemetry tests: canonical encoding, alerts, sinks, retrieve-and-plot."""

import contextlib
import dataclasses
import json
import math
import re
import socket
import threading
import time
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecgmon import cloud, telemetry
from ecgmon.acquisition import AdcConfig
from ecgmon.cloud import LoopbackListener
from ecgmon.config import PipelineConfig
from ecgmon.pipeline import run_pipeline
from ecgmon.telemetry import (
    AlertEvent,
    AlertPolicy,
    FileSink,
    HttpSink,
    PayloadTooLargeError,
    TelemetryRecord,
    decode_record,
    encode_alert,
    encode_record,
    evaluate_alert,
    publish,
    make_sink,
    publish_record,
    retrieve_and_plot,
)

GOLDEN = Path(__file__).parent / "golden" / "record.json"


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
        assert b'"ecg":[]' in payload

    def test_no_insignificant_whitespace(self):
        payload = encode_record(make_record())
        assert b" " not in payload.replace(b"ward-3/bed-12", b"")

    def test_oversize_ecg_rejected(self):
        rec = make_record(ecg=[1] * 5001)
        with pytest.raises(PayloadTooLargeError):
            encode_record(rec)
        assert encode_record(rec, max_ecg=6000)  # configurable bound

    @pytest.mark.parametrize("ecg", [[], [1] * 5])
    def test_negative_max_ecg_rejected(self, ecg):
        """Refused before the samples are counted, empty record or not."""
        with pytest.raises(ValueError, match="max_ecg must be >= 0, got -1"):
            encode_record(make_record(ecg=ecg), max_ecg=-1)

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
        ends = '^record must end with its ecg array: ,"ecg":\\[\\.\\.\\.\\]}$'
        with pytest.raises(ValueError, match=ends):
            decode_record(b'{"device_id":"x","timestamp":1,"bpm":60,"location":"y"}')
        with pytest.raises(ValueError, match=ends):
            decode_record(
                b'{"device_id":"x","timestamp":1,"bpm":60,"location":"y","ecg":[],"extra":1}')
        with pytest.raises(ValueError, match=re.escape(
                "bad record keys: ['device_id', 'timestamp', 'bpm', 'extra', 'location'] before ecg, "
                "want ['device_id', 'timestamp', 'bpm', 'location']")):
            decode_record(
                b'{"device_id":"x","timestamp":1,"bpm":60,"extra":1,"location":"y","ecg":[]}')
        with pytest.raises(ValueError, match="^bad record keys: "):  # the header keys out of order
            decode_record(b'{"timestamp":1,"device_id":"x","bpm":60,"location":"y","ecg":[]}')

    def test_record_validation(self):
        with pytest.raises(ValueError):
            make_record(bpm=0.0)
        with pytest.raises(ValueError):
            make_record(ecg=["not-a-number"])
        # bool is not a number; bpm and timestamp must be finite
        for bad in (dict(ecg=5), dict(ecg=None), dict(ecg=[1, True]),
                    dict(bpm="72"), dict(bpm=float("nan")), dict(bpm=float("inf")),
                    dict(bpm=True), dict(timestamp=float("inf")), dict(timestamp=True),
                    dict(timestamp="1"), dict(timestamp=None)):
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
            decode_record(b'{"device_id":5,"timestamp":0,"bpm":72,"location":null,"ecg":[1,2]}')
        rec = make_record(bpm=np.float64(61.5), timestamp=7.0, ecg=(3, 2))
        assert (rec.timestamp, rec.ecg.tolist()) == (7, [3, 2])
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
        """A JSON str or object in the array's place is refused, not read as
        an empty or a key list."""
        assert type(json.loads(value)).__name__ == name
        line = encode_record(make_record()).replace(b"[2048,2051,2047,2049]", value)
        with pytest.raises(ValueError, match='^record must end with its ecg array'):
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
        ("x", "5", "timestamp must be an integer, got str"),
        ("x", 5.5, "timestamp must be an integer, got 5.5"),
        ("x", float("nan"), "timestamp must be an integer, got nan"),
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
        """The record, the alert and evaluate_alert refuse a bpm with one message."""
        message = f"^bpm must be finite and > 0, got {shown}$"
        with pytest.raises(ValueError, match=message):
            make_record(bpm=bpm)
        with pytest.raises(ValueError, match=message):
            AlertEvent(bpm, "m", "x", 0)
        with pytest.raises(ValueError, match=message):
            evaluate_alert(bpm, AlertPolicy(), "x")


def encode_record_reference(rec: TelemetryRecord, max_ecg: int = telemetry.MAX_ECG_SAMPLES) -> bytes:
    """encode_record as one json.dumps of the whole record, samples included."""
    if len(rec.ecg) > max_ecg:
        raise PayloadTooLargeError(f"ecg holds {len(rec.ecg)} samples, limit is {max_ecg}")
    doc = {"device_id": rec.device_id, "timestamp": rec.timestamp, "bpm": rec.bpm,
           "location": rec.location, "ecg": rec.ecg.tolist()}
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False).encode("utf-8")


# code lists, the empty one included, with the codes where the digit count
# changes and the ends of the table drawn often
_code_lists = st.lists(st.one_of(st.integers(min_value=0, max_value=65535),
                                 st.sampled_from([0, 9, 10, 99, 100, 9999, 10000, 65535])),
                       max_size=80)


class TestCodeTextEncoding:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(device_id=st.text(max_size=12), location=st.text(max_size=12),
           bpm=st.one_of(st.integers(min_value=1, max_value=300),
                         st.floats(min_value=1.0, max_value=300.0)),
           timestamp=st.integers(min_value=0, max_value=2**70), ecg=_code_lists)
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
        """A 5000-code record goes through json only for its four header keys."""
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
        assert list(dumped[0]) == ["device_id", "timestamp", "bpm", "location"]

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
        """Nothing goes through json any more: a list that is no codes is
        refused when the record is built, and the line json.dumps would
        write for it is refused when read.  The empty list is the table's
        text for no codes."""
        doc = dict(device_id="ecg-001", timestamp=1, bpm=72.0, location="w", ecg=ecg)
        line = json.dumps(doc, separators=(",", ":")).encode()
        if error is None:
            rec = TelemetryRecord(**doc)
            assert encode_record(rec) == line == encode_record_reference(rec)
            assert decode_record(line) == rec
            return
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            TelemetryRecord(**doc)
        assert_line_refused(line, tmp_path, "ecg must be ADC codes in 0..65535")


def decode_record_reference(data: bytes) -> TelemetryRecord:
    """decode_record as one json.loads of the whole line, samples included."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError("record nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("record must be a JSON object")
    missing = [k for k in telemetry.RECORD_KEYS if k not in doc]
    extra = [k for k in doc if k not in telemetry.RECORD_KEYS]
    if missing or extra:
        raise ValueError(f"bad record keys: missing {missing}, unexpected {extra}")
    return TelemetryRecord(**{k: doc[k] for k in telemetry.RECORD_KEYS})


def decode_outcome(decode, data: bytes):
    """The record with the exact type of each value, or the error's type and text."""
    try:
        rec = decode(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return rec, type(rec.timestamp), type(rec.bpm), [type(v) for v in rec.ecg]


# one field of a code list: canonical codes (those above _MAX_TABLE_CODE go
# through json), and text the numpy parse must leave to json (leading zeros,
# signs, fractions, exponents, more than five digits, whitespace, other JSON
# values, empty fields)
_code_fields = st.integers(min_value=0, max_value=99999).map(str)
_odd_fields = st.sampled_from([
    "", "00", "01", "007", "-1", "-0", "1.5", "2.0", "1e3", "123456", "012345",
    "9" * 20, "9" * 400, " 7", "7 ", "\t7", "true", "null", "NaN", "[1]", "[]", '"1"', "{}",
])
# what may follow the code list: only "]}" ends a canonical line
_line_ends = st.sampled_from(["]}", "]} ", "]}\n", "]}x", "]}}", "]", "]]}", "],\"x\":1}"])


@st.composite
def _record_lines(draw) -> bytes:
    """encode_record's lines for records of codes, and lines one step off them."""
    head = encode_record(draw(record_strategy.map(lambda rec: dataclasses.replace(rec, ecg=[]))))
    head = head[:-len(b',"ecg":[]}')]
    fields = draw(st.lists(_code_fields, min_size=1, max_size=40))
    end = "]}"
    variant = draw(st.sampled_from(["canonical", "field", "separator", "end", "head", "bytes"]))
    if variant == "field":
        fields.insert(draw(st.integers(0, len(fields))), draw(_odd_fields))
    body = ",".join(fields)
    if variant == "separator":
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.sampled_from([",", " ", ", ", "\n"])) + body[at:]
    elif variant == "end":
        end = draw(_line_ends)
    elif variant == "head":
        head = head.replace(b'"bpm"', draw(st.sampled_from([
            b'"ecg":[1],"bpm"', b'"ecg":"x","bpm"', b'"extra":1,"bpm"', b' "bpm" ', b'"bpm":1,"bpm"',
            b'"ecg":[1,2],"bpm":3,"ecg":[4],"bpm"'])), 1)
    line = head + b',"ecg":[' + body.encode() + end.encode()
    if variant == "bytes":  # no UTF-8, or a NUL (json.loads given bytes guesses UTF-16 from one)
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from([b"\xff", b"\x00", b"\xc3"])) + line[at:]
    return line


class TestCodeTextDecoding:
    @settings(max_examples=800, deadline=None, derandomize=True)
    @given(line=_record_lines())
    def test_same_outcome_as_one_json_loads(self, line):
        """decode_record reads a line exactly when _canonical_record does, with
        the values and exact types one json.loads gives; it refuses any other
        line with _canonical_record's reason."""
        try:
            telemetry._canonical_record(line)
        except ValueError as exc:
            assert decode_outcome(decode_record, line) == (ValueError, str(exc))
            return
        outcome = decode_outcome(decode_record, line)
        assert isinstance(outcome[0], TelemetryRecord)
        assert outcome == decode_outcome(decode_record_reference, line)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rec=record_strategy,
           codes=st.lists(st.integers(min_value=0, max_value=telemetry._MAX_TABLE_CODE),
                          min_size=1, max_size=60))
    def test_canonical_code_lines_take_the_numpy_parse(self, rec, codes):
        line = encode_record(dataclasses.replace(rec, ecg=codes))
        assert telemetry._canonical_record(line) is not None
        assert decode_outcome(decode_record, line) == decode_outcome(decode_record_reference, line)

    @pytest.mark.parametrize("ecg", [
        b"[2048, 2051]", b"[2048,2051.0]", b"[-1,2]", b"[123456]", b"[]", b"[01]", b"[1,,2]",
        b"[1,2,]", b"[,1]", b"[1e3]", b"[true]", b"[65536]", b"[99999]", b"[+1]", b"[1,-]",
        b"[\n1]", b"[ 1]", b"[-0]",
    ])
    def test_other_code_lists_go_through_json(self, tmp_path, ecg):
        """None goes through json any more: each text other than the table's
        is refused.  "[]" is the table's text for no codes, and reads."""
        line = encode_record(make_record()).replace(b"[2048,2051,2047,2049]", ecg)
        if ecg == b"[]":
            assert decode_record(line) == make_record(ecg=[])
            return
        assert_line_refused(line, tmp_path, "ecg must be ADC codes in 0..65535")

    def test_widest_adc_code_takes_the_numpy_parse(self):
        code = AdcConfig(resolution_bits=16).max_code
        line = encode_record(make_record(ecg=[0, code]))
        assert line.endswith(b'"ecg":[0,%d]}' % code)
        assert telemetry._canonical_record(line)["ecg"].tolist() == [0, code]
        assert decode_outcome(decode_record, line) == decode_outcome(decode_record_reference, line)

    @pytest.mark.parametrize("line, reason", [
        (encode_record(make_record()).replace(b'"bpm"', b'"ecg":[1],"bpm"'), "bad record keys"),
        (encode_record(make_record(location="w\xe9")).replace("é".encode(), b"\xe9"),
         "record header is not JSON: 'utf-8' codec can't decode byte 0xe9"),
        (encode_record(make_record()) + b" ", "record must end with its ecg array"),
        (encode_record(make_record()) + b"\n", "record must end with its ecg array"),
        (encode_record(make_record()) + b"}", "record must end with its ecg array"),
        (encode_record(make_record()).replace(b'"ward-3/bed-12"', b"[" * 100_000 + b"]" * 100_000),
         "record header is not JSON: maximum recursion depth"),
    ], ids=["ecg-in-head", "not-utf8", "trailing-space", "trailing-newline", "trailing-brace",
            "deep-head"])
    def test_other_lines_go_through_json(self, tmp_path, line, reason):
        """None goes through json whole any more: each is refused with its reason."""
        assert_line_refused(line, tmp_path, reason, read_after_strip=line.strip() != line)

    def test_pipeline_record_samples_never_reach_json(self, monkeypatch):
        """A 5000-code record's line goes through json only for its four header keys."""
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
        assert len(loaded) == 1
        assert list(loads(loaded[0])) == ["device_id", "timestamp", "bpm", "location"]


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
                assert publish(sink, p, retries=0).ok
            assert listener.received == payloads
            assert len(accepted) == 1  # one kept-alive connection carried all 50
            sink.close()
            assert publish(sink, payloads[0], retries=0).ok  # reconnects after close()
            assert len(accepted) == 2

    def test_listener_that_closes_each_connection(self, monkeypatch):
        # an HTTP/1.0 reply announces the close: the sink reconnects per POST
        accepted = self.count_connections(monkeypatch)
        monkeypatch.setattr(cloud._LoopbackHandler, "protocol_version", "HTTP/1.0")
        payloads = [encode_record(make_record(timestamp=i + 1)) for i in range(3)]
        with LoopbackListener() as listener, HttpSink(listener.port) as sink:
            assert all(publish(sink, p, retries=0).ok for p in payloads)
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

    def test_publish_record_then_alert(self, tmp_path):
        sink = FileSink(tmp_path / "out.jsonl")
        rec = make_record(bpm=130.0)
        alert = evaluate_alert(130.0, AlertPolicy(), rec.location, rec.timestamp)
        receipts = publish_record(sink, rec, alert)
        assert [r.ok for r in receipts] == [True, True]
        assert (tmp_path / "out.jsonl").read_bytes() == (
            encode_record(rec) + b"\n" + encode_alert(alert) + b"\n")
        assert len(publish_record(sink, make_record(), None)) == 1  # no alert, one receipt

    def test_unwritable_path_fails_with_attempts(self, tmp_path):
        # missing parent directory: open() fails before any byte is written
        target = tmp_path / "no-such-dir" / "out.jsonl"
        pauses = []
        receipt = publish(FileSink(target), b"{}", retries=2, sleep=pauses.append)
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
            receipt = publish(sink, b"{}", retries=1, sleep=pauses.append)
        assert not receipt.ok
        assert receipt.attempts == 2
        assert pauses == [0.05]

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

    @pytest.mark.parametrize("failures, retries, pauses, ok", [
        (0, 2, [], True),  # a send that works waits for nothing
        (2, 2, [0.05, 0.1], True),
        (9, 0, [], False),
        (9, 8, [0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0, 1.0], False),  # doubling, capped at 1 s
    ])
    def test_retries_back_off(self, tmp_path, failures, retries, pauses, ok):
        target = tmp_path / "out.jsonl"
        waited = []
        receipt = publish(self._FailingSink(target, failures), b"{}", retries=retries,
                          sleep=waited.append)
        assert waited == pauses
        assert (receipt.ok, receipt.attempts) == (ok, len(pauses) + 1)
        assert receipt.error == (None if ok else "link down")
        assert target.exists() is ok

    def test_negative_retries_refused_before_any_send(self, tmp_path):
        target = tmp_path / "out.jsonl"
        with pytest.raises(ValueError, match=r"^retries must be >= 0, got -1$"):
            publish(FileSink(target), b"{}", retries=-1)
        assert not target.exists()

    def test_default_backoff_really_waits(self, tmp_path):
        t0 = time.perf_counter()
        receipt = publish(FileSink(tmp_path / "no-such-dir" / "x"), b"{}", retries=1)
        assert not receipt.ok and time.perf_counter() - t0 >= 0.05

    def test_sink_fails_once_its_listener_closed(self):
        with LoopbackListener() as listener, HttpSink(listener.port) as sink:
            assert publish(sink, b"{}").ok
            listener.close()  # with the sink's connection open
            t0 = time.perf_counter()
            pauses = []
            receipt = publish(sink, b"{}", retries=2, sleep=pauses.append)
            assert time.perf_counter() - t0 < 1.0  # refused at once, no timeout waited
        assert not receipt.ok
        assert receipt.attempts == 3
        assert receipt.error
        assert pauses == [0.05, 0.1]


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
            good.replace(b"[2048,2051,2047,2049]", b"5"),
            good.replace(b"[2048,2051,2047,2049]", b"null"),
            good.replace(b"[2048,2051,2047,2049]", b'"2048"'),
            good.replace(b"[2048,2051,2047,2049]", b"[1," + b"9" * 400 + b"]"),
            good.replace(b"[2048,2051,2047,2049]", b"[1,NaN]"),
            good.replace(b"[2048,2051,2047,2049]", b"[Infinity]"),
            good.replace(b"[2048,2051,2047,2049]", b"[" * 100_000 + b"]" * 100_000),
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
        are warnings: float samples, a space in the code list, a code past
        the table."""
        good = [encode_record(make_record(timestamp=t, ecg=[t, 2 * t])) for t in (1, 2, 3)]
        bad = [good[0].replace(b"[1,2]", b"[1.0,2.0]"), good[0].replace(b'"ecg":[1,2]', b'"ecg": [1, 2]'),
               good[0].replace(b"[1,2]", b"[65536]")]
        source = tmp_path / "records.jsonl"
        source.write_bytes(b"\n".join([good[2], bad[0], good[0], bad[1], bad[2], good[1]]) + b"\n")
        out = tmp_path / "plot.svg"
        result = retrieve_and_plot(source, out)
        assert (result.records_plotted, result.warnings) == (3, 3)
        from ecgmon.render import export_svg
        from ecgmon.signals import SampleFrame
        joined = tmp_path / "joined.svg"
        export_svg(SampleFrame(500.0, np.array([1.0, 2.0, 2.0, 4.0, 3.0, 6.0])), joined)
        assert out.read_bytes() == joined.read_bytes()

    def test_ecg_that_is_no_array_counts_as_warning(self, tmp_path):
        source = tmp_path / "records.jsonl"
        good = encode_record(make_record(timestamp=1))
        not_arrays = [good.replace(b"[2048,2051,2047,2049]", value)
                      for value in (b'""', b"{}", b'{"2048":1}')]
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
        return [publish(sink, b'{"n":%d}' % i, retries=0) for i in range(count)]

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
            receipt = publish(sink, b"{}", retries=2, sleep=lambda _: None)
            assert (receipt.ok, receipt.attempts) == (True, 1)
            assert len(peer.requests) == 1
            assert publish(sink, b"{}", retries=0).ok
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
            assert all(publish(sink, p, retries=0).ok for p in payloads)
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
            assert publish(sink, b"{}", retries=0).ok
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

    @pytest.mark.parametrize("length", [b"100000000000000", b"%d" % (cloud.MAX_BODY_BYTES + 1)])
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
        with LoopbackListener() as listener, HttpSink(listener.port) as sink:
            assert publish(sink, b"{}", retries=0).ok
            receipt = publish(sink, b"[{}]", retries=0)
            assert (receipt.ok, receipt.error) == (False, "listener answered 413")
            assert listener.received == [b"{}"]
