"""Telemetry tests: canonical encoding, alerts, sinks, retrieve-and-plot."""

import contextlib
import dataclasses
import json
import math
import re
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgmon import cloud, telemetry
from ecgmon.cloud import LoopbackListener
from ecgmon.config import PipelineConfig
from ecgmon.pipeline import run_pipeline
from ecgmon.telemetry import (
    AlertPolicy,
    FileSink,
    HttpSink,
    PayloadTooLargeError,
    TelemetryRecord,
    _plain_number,
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
            with pytest.raises(ValueError, match="need finite"):
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
        """NaN and Infinity are not JSON: encoding raises instead of writing them."""
        with pytest.raises(ValueError):
            encode_record(make_record(ecg=[1, sample, 2.5]))
        with pytest.raises(ValueError):
            encode_alert(telemetry.AlertEvent(bpm=sample, message="m", location="w", timestamp=0))

    def test_round_trip_example(self):
        rec = make_record(bpm=61.5, ecg=[1, 2.5, 3])
        assert decode_record(encode_record(rec)) == rec

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rec=record_strategy)
    def test_round_trip_property(self, rec):
        assert decode_record(encode_record(rec)) == rec

    def test_decode_rejects_bad_keys(self):
        with pytest.raises(ValueError, match="keys"):
            decode_record(b'{"device_id":"x","timestamp":1,"bpm":60,"location":"y"}')
        with pytest.raises(ValueError, match="keys"):
            decode_record(
                b'{"device_id":"x","timestamp":1,"bpm":60,"location":"y","ecg":[],"extra":1}')

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
        with pytest.raises(ValueError, match="device_id must be a string"):
            decode_record(b'{"device_id":5,"timestamp":0,"bpm":72,"location":null,"ecg":[1,2]}')
        rec = make_record(bpm=np.float64(61.5), timestamp=7.0, ecg=(np.int64(3), 2.5))
        assert (rec.timestamp, rec.ecg) == (7, [3, 2.5])
        assert [type(v) for v in rec.ecg] == [int, float]

    @pytest.mark.parametrize("ecg", [b"\x01\x02", bytearray(b"\x01"), {3, 1, 2}, frozenset(),
                                     {5: "a"}, {}, {}.keys(), "", "2048"],
                             ids=lambda ecg: type(ecg).__name__)
    def test_text_mapping_and_set_ecg_refused(self, ecg):
        """Their elements are bytes, characters, keys or unordered: no samples."""
        with pytest.raises(ValueError, match=f"^ecg must be a sequence of numbers, "
                                             f"got {type(ecg).__name__}$"):
            make_record(ecg=ecg)

    @pytest.mark.parametrize("ecg", [memoryview(b"\x01\x02"), memoryview(bytearray(b"\x01")),
                                     memoryview(b"\x00\x01\x02")[1:],
                                     memoryview(b"\x01\x02").cast("B"),
                                     memoryview(memoryview(b"\x01"))],
                             ids=["bytes", "bytearray", "slice", "cast", "view-of-view"])
    def test_plain_byte_view_refused(self, ecg):
        """A plain view of bytes iterates byte values, as bytes does."""
        with pytest.raises(ValueError, match="^ecg must be a sequence of numbers, got memoryview$"):
            make_record(ecg=ecg)

    def test_typed_views_give_their_samples(self):
        from array import array

        codes = [2048, 2051, 4095]
        assert make_record(ecg=memoryview(array("B", [1, 2]))).ecg == [1, 2]
        assert make_record(ecg=memoryview(array("h", codes))).ecg == codes
        raw = array("h", codes).tobytes()
        assert make_record(ecg=memoryview(raw).cast("h")).ecg == codes
        assert make_record(ecg=memoryview(np.array(codes, dtype=np.uint16))).ecg == codes

    @pytest.mark.parametrize("value, name", [(b'""', "str"), (b'"2048"', "str"), (b"{}", "dict"),
                                             (b'{"1":2}', "dict")])
    def test_decode_requires_an_ecg_array(self, value, name):
        line = encode_record(make_record()).replace(b"[2048,2051,2047,2049]", value)
        with pytest.raises(ValueError, match=f"^ecg must be a sequence of numbers, got {name}$"):
            decode_record(line)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ecg=st.lists(st.one_of(
        st.integers(min_value=-2**70, max_value=2**70), st.floats(), st.just(float("nan")),
        st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
        st.floats(width=64).map(np.float64), st.booleans(), st.text(max_size=3),
        st.none()), max_size=20))
    def test_record_check_matches_per_sample_check(self, ecg):
        """The one-pass check keeps what the per-sample check gives: values,
        exact types and errors."""
        try:
            expected = [_plain_number(v) for v in ecg]
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                make_record(ecg=ecg)
            return
        got = make_record(ecg=ecg).ecg
        assert [type(v) for v in got] == [type(v) for v in expected]
        assert all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, expected))
        assert len(got) == len(expected)


def encode_record_reference(rec: TelemetryRecord, max_ecg: int = telemetry.MAX_ECG_SAMPLES) -> bytes:
    """encode_record as one json.dumps of the whole record, samples included."""
    if len(rec.ecg) > max_ecg:
        raise PayloadTooLargeError(f"ecg holds {len(rec.ecg)} samples, limit is {max_ecg}")
    doc = {"device_id": rec.device_id, "timestamp": rec.timestamp, "bpm": rec.bpm,
           "location": rec.location, "ecg": rec.ecg}
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False).encode("utf-8")


# samples on both sides of every choice encode_record makes: codes 0..65535,
# ints just outside them, negatives, int64 and uint64 extremes, ints beyond
# int64, floats (non-finite ones too)
_samples = st.one_of(
    st.integers(min_value=0, max_value=65535),
    st.sampled_from([-1, 0, 65535, 65536, -2**63, 2**63 - 1, 2**63, 2**64 - 1, 2**64]),
    st.integers(min_value=-2**31, max_value=-1),
    st.integers(min_value=-2**80, max_value=2**80),
    st.floats(),
)
_ecg_lists = st.one_of(st.lists(st.integers(min_value=0, max_value=65535), max_size=80),
                       st.lists(_samples, max_size=30))


class TestCodeTextEncoding:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(device_id=st.text(max_size=12), location=st.text(max_size=12),
           bpm=st.one_of(st.integers(min_value=1, max_value=300),
                         st.floats(min_value=1.0, max_value=300.0)),
           timestamp=st.integers(min_value=0, max_value=2**70), ecg=_ecg_lists)
    def test_same_bytes_as_one_json_dumps(self, device_id, location, bpm, timestamp, ecg):
        rec = TelemetryRecord(device_id, timestamp, bpm, location, ecg)
        try:
            expected = encode_record_reference(rec)
        except ValueError:  # NaN or Infinity
            with pytest.raises(ValueError):
                encode_record(rec)
            return
        assert encode_record(rec) == expected

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
        kind = np.iinfo if np.issubdtype(dtype, np.integer) else np.finfo
        arr = np.array([kind(dtype).min, kind(dtype).max, 0, 1, 100], dtype=dtype)
        if kind is np.finfo:
            arr = np.append(arr, np.array([-0.0, 0.1, kind(dtype).tiny], dtype=dtype))
        for ecg in (arr, arr[::-1], arr[::2], arr.astype(arr.dtype.newbyteorder())):
            from_array = make_record(ecg=ecg)
            from_list = make_record(ecg=ecg.tolist())
            per_sample = [_plain_number(v) for v in ecg]
            assert type(from_array.ecg) is list
            assert from_array == from_list
            assert from_array.ecg == per_sample
            assert [type(v) for v in from_array.ecg] == [type(v) for v in per_sample]
        ecg = arr.copy()
        rec = make_record(ecg=ecg)
        ecg[0] = 1
        assert rec.ecg[0] == arr[0]  # the record holds its own copy

    @pytest.mark.parametrize("ecg, message", [
        (np.array([1, 0], dtype=bool), r"ecg samples must be numbers, got bool_?"),  # numpy < 2: bool_
        (np.array([1 + 2j]), r"ecg samples must be numbers, got complex128"),
        (np.array([1, "x"], dtype=object), r"ecg samples must be numbers, got str"),
        (np.array(5), r"ecg must be a sequence of numbers, got ndarray"),
        (np.zeros((2, 3), dtype=np.int64), r"ecg samples must be numbers, got ndarray"),
    ])
    def test_other_arrays_take_the_per_sample_check(self, ecg, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_record(ecg=ecg)

    @pytest.mark.parametrize("ecg", [[2**63], [2**64], [2048.0], [1, 2.5], [], [65536]],
                             ids=["int64-max-plus-1", "uint64-max-plus-1", "float", "mixed",
                                  "empty", "above-table"])
    def test_lists_outside_the_table_go_through_json(self, ecg):
        """Ints beyond int64, floats and the empty list are no int64 codes,
        and 65536 is past the table: each is written by json.dumps."""
        rec = make_record(ecg=ecg)
        assert encode_record(rec) == encode_record_reference(rec)


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


# one field of a code list: canonical codes, and text the numpy parse must
# leave to json (leading zeros, signs, fractions, exponents, more than five
# digits, whitespace, other JSON values, empty fields)
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
        """Values, exact types and error messages: the numpy parse changes none."""
        assert decode_outcome(decode_record, line) == decode_outcome(decode_record_reference, line)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rec=record_strategy, codes=st.lists(st.integers(min_value=0, max_value=99999),
                                               min_size=1, max_size=60))
    def test_canonical_code_lines_take_the_numpy_parse(self, rec, codes):
        line = encode_record(dataclasses.replace(rec, ecg=codes))
        assert telemetry._canonical_record(line) is not None
        assert decode_outcome(decode_record, line) == decode_outcome(decode_record_reference, line)

    @pytest.mark.parametrize("ecg", [
        b"[2048, 2051]", b"[2048,2051.0]", b"[-1,2]", b"[123456]", b"[]", b"[01]", b"[1,,2]",
        b"[1,2,]", b"[,1]", b"[1e3]", b"[true]",
    ])
    def test_other_code_lists_go_through_json(self, ecg):
        line = encode_record(make_record()).replace(b"[2048,2051,2047,2049]", ecg)
        assert telemetry._canonical_record(line) is None
        assert decode_outcome(decode_record, line) == decode_outcome(decode_record_reference, line)

    @pytest.mark.parametrize("line", [
        encode_record(make_record()).replace(b'"bpm"', b'"ecg":[1],"bpm"'),
        encode_record(make_record(location="w\xe9")).replace("é".encode(), b"\xe9"),
        encode_record(make_record()) + b" ",
        encode_record(make_record()) + b"\n",
        encode_record(make_record()) + b"}",
        encode_record(make_record()).replace(b'"ward-3/bed-12"', b"[" * 100_000 + b"]" * 100_000),
    ], ids=["ecg-in-head", "not-utf8", "trailing-space", "trailing-newline", "trailing-brace",
            "deep-head"])
    def test_other_lines_go_through_json(self, line):
        assert telemetry._canonical_record(line) is None
        assert decode_outcome(decode_record, line) == decode_outcome(decode_record_reference, line)

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
        assert peer.accepted == 1  # the body was read, so the connection carried both

    def test_chunked_body(self):
        reply = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                 b"5;note=x\r\nhello\r\n1A\r\n" + b"z" * 26 + b"\r\n0\r\nX-Trailer: 1\r\n\r\n")
        with ScriptedListener((reply, False), (reply, False)) as peer, HttpSink(peer.port) as sink:
            assert all(r.ok for r in self.send_all(sink, 2))
        assert peer.accepted == 1

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

    def test_error_status_keeps_the_connection(self):
        error = b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 4\r\n\r\noops"
        with ScriptedListener((error, False), OK_EMPTY) as peer, HttpSink(peer.port) as sink:
            failed, sent = self.send_all(sink, 2)
        assert (failed.ok, failed.error) == (False, "listener answered 500")
        assert sent.ok
        assert peer.accepted == 1  # the 500's body was read: the next POST reused the connection

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
        (b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n", "Content-Length b'-5' is not a decimal number"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort", "listener closed the connection mid-body"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n", "listener closed the connection mid-headers"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nxyz\r\n",
         "bad chunk size line from listener: b'xyz'"),
    ], ids=["long-line", "101-headers", "bad-code", "bad-version", "no-colon", "folded", "bad-length",
            "short-body", "cut-head", "bad-chunk"])
    def test_malformed_reply_fails_and_reconnects(self, reply, error):
        with ScriptedListener((reply, True), OK_EMPTY) as peer, HttpSink(peer.port) as sink:
            failed, sent = self.send_all(sink, 2)
        assert (failed.ok, failed.error) == (False, error)
        assert sent.ok
        assert peer.accepted == 2

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
