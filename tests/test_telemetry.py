"""Telemetry tests: canonical encoding, alerts, sinks, retrieve-and-plot."""

import dataclasses
import json
import math
import re
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgmon import telemetry
from ecgmon.config import PipelineConfig
from ecgmon.pipeline import run_pipeline
from ecgmon.telemetry import (
    AlertPolicy,
    FileSink,
    HttpSink,
    LoopbackListener,
    PayloadTooLargeError,
    TelemetryRecord,
    _plain_number,
    decode_record,
    encode_alert,
    encode_record,
    evaluate_alert,
    publish,
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
        with pytest.raises(ValueError):
            evaluate_alert(0.0, AlertPolicy(), "x")

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
        rec = TelemetryRecord(device_id, timestamp, bpm, ecg, location)
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


class TestSinks:
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
        setup = telemetry._LoopbackHandler.setup

        def counting_setup(handler):
            accepted.append(handler.client_address)
            setup(handler)

        monkeypatch.setattr(telemetry._LoopbackHandler, "setup", counting_setup)
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
        monkeypatch.setattr(telemetry._LoopbackHandler, "protocol_version", "HTTP/1.0")
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
        receipt = publish(FileSink(target), b"{}", retries=2)
        assert not receipt.ok
        assert receipt.attempts == 3
        assert receipt.error
        assert not target.exists()

    def test_dead_http_sink_fails(self):
        with LoopbackListener() as listener:
            port = listener.port
        with HttpSink(port) as sink:
            receipt = publish(sink, b"{}", retries=1)
        assert not receipt.ok
        assert receipt.attempts == 2

    def test_sink_fails_once_its_listener_closed(self):
        with LoopbackListener() as listener, HttpSink(listener.port) as sink:
            assert publish(sink, b"{}").ok
            listener.close()  # with the sink's connection open
            t0 = time.perf_counter()
            receipt = publish(sink, b"{}", retries=2)
            assert time.perf_counter() - t0 < 1.0  # refused at once, no timeout waited
        assert not receipt.ok
        assert receipt.attempts == 3
        assert receipt.error


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
        export_svg(SampleFrame(500.0, np.asarray(ecg, dtype=float), unit="code"), direct)
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
        export_svg(SampleFrame(500.0, np.asarray([0.0] * 50 + [4095.0] * 50), unit="code"), joined)
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
