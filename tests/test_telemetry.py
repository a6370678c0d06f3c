"""Telemetry tests: canonical encoding, alerts, sinks, retrieve-and-plot."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgmon.telemetry import (
    AlertPolicy,
    FileSink,
    HttpSink,
    LoopbackListener,
    PayloadTooLargeError,
    TelemetryRecord,
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


class TestSinks:
    def test_file_publish_read_back(self, tmp_path):
        sink = FileSink(tmp_path / "out.jsonl")
        payload = encode_record(make_record())
        receipt = publish(sink, payload)
        assert receipt.ok and receipt.attempts == 1
        assert (tmp_path / "out.jsonl").read_bytes() == payload + b"\n"

    def test_loopback_receives_in_order(self):
        with LoopbackListener() as listener:
            sink = HttpSink(listener.port)
            payloads = [encode_record(make_record(timestamp=i + 1)) for i in range(5)]
            for p in payloads:
                assert publish(sink, p).ok
            assert listener.received == payloads

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
        receipt = publish(HttpSink(port), b"{}", retries=1)
        assert not receipt.ok
        assert receipt.attempts == 2


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
        lines = [
            encode_record(make_record(timestamp=1)),
            b"{corrupt json",
            encode_record(make_record(timestamp=2)),
        ]
        source.write_bytes(b"\n".join(lines) + b"\n")
        result = retrieve_and_plot(source, tmp_path / "plot.svg")
        assert result.records_plotted == 2
        assert result.warnings == 1
