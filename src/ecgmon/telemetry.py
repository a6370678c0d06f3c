"""Cloud-bound record encoding, alert policy and pluggable publish sinks.

Records serialize to canonical JSON (fixed key order, no insignificant
whitespace, shortest round-trip decimals) so golden-file tests compare
byte for byte.  Sinks write one JSON document per line; the loopback HTTP
sink stands in for the uplink and records what it receives.
"""

from __future__ import annotations

import json
import sys
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .signals import SampleFrame
from .render import export_svg

__all__ = [
    "PayloadTooLargeError",
    "TelemetryRecord",
    "AlertPolicy",
    "AlertEvent",
    "DeliveryReceipt",
    "FileSink",
    "StdoutSink",
    "HttpSink",
    "LoopbackListener",
    "evaluate_alert",
    "encode_record",
    "decode_record",
    "encode_alert",
    "publish",
    "retrieve_and_plot",
    "PlotResult",
]

MAX_ECG_SAMPLES = 5000

RECORD_KEYS = ("device_id", "timestamp", "bpm", "location", "ecg")


class PayloadTooLargeError(ValueError):
    """Record carries more ECG samples than the configured maximum."""


@dataclass(frozen=True)
class TelemetryRecord:
    """One uplink record; ecg holds plain numbers (ADC codes or millivolts)."""

    device_id: str
    timestamp: int
    bpm: float
    ecg: list
    location: str

    def __post_init__(self):
        if self.bpm <= 0:
            raise ValueError(f"bpm must be > 0, got {self.bpm}")
        if int(self.timestamp) != self.timestamp:
            raise ValueError(f"timestamp must be an integer, got {self.timestamp}")
        object.__setattr__(self, "timestamp", int(self.timestamp))
        object.__setattr__(self, "ecg", [_plain_number(v) for v in self.ecg])


def _plain_number(v):
    if isinstance(v, (np.integer, np.floating)):
        v = v.item()
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"ecg samples must be numbers, got {type(v).__name__}")
    return v


@dataclass(frozen=True)
class AlertPolicy:
    """Normal heart-rate band; readings strictly outside it alert."""

    low_bpm: float = 50.0
    high_bpm: float = 120.0

    def __post_init__(self):
        if not 0 < self.low_bpm < self.high_bpm:
            raise ValueError(f"need 0 < low_bpm < high_bpm, got {self.low_bpm}, {self.high_bpm}")


@dataclass(frozen=True)
class AlertEvent:
    bpm: float
    message: str
    location: str
    timestamp: int


def evaluate_alert(bpm: float, policy: AlertPolicy, location: str, timestamp: int = 0) -> AlertEvent | None:
    """Alert iff bpm < low or bpm > high; values on a threshold are normal."""
    if bpm <= 0:
        raise ValueError(f"bpm must be > 0, got {bpm}")
    if bpm < policy.low_bpm:
        message = f"heart rate {bpm:g} bpm below low threshold {policy.low_bpm:g}"
    elif bpm > policy.high_bpm:
        message = f"heart rate {bpm:g} bpm above high threshold {policy.high_bpm:g}"
    else:
        return None
    return AlertEvent(bpm=bpm, message=message, location=location, timestamp=timestamp)


def encode_record(rec: TelemetryRecord, max_ecg: int = MAX_ECG_SAMPLES) -> bytes:
    """Canonical JSON bytes: fixed key order, compact, UTF-8."""
    if len(rec.ecg) > max_ecg:
        raise PayloadTooLargeError(f"ecg holds {len(rec.ecg)} samples, limit is {max_ecg}")
    doc = {
        "device_id": rec.device_id,
        "timestamp": rec.timestamp,
        "bpm": rec.bpm,
        "location": rec.location,
        "ecg": rec.ecg,
    }
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def decode_record(data: bytes) -> TelemetryRecord:
    """Parse canonical record bytes back into a TelemetryRecord."""
    doc = json.loads(data.decode("utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("record must be a JSON object")
    missing = [k for k in RECORD_KEYS if k not in doc]
    extra = [k for k in doc if k not in RECORD_KEYS]
    if missing or extra:
        raise ValueError(f"bad record keys: missing {missing}, unexpected {extra}")
    return TelemetryRecord(
        device_id=doc["device_id"],
        timestamp=doc["timestamp"],
        bpm=doc["bpm"],
        ecg=doc["ecg"],
        location=doc["location"],
    )


def encode_alert(event: AlertEvent) -> bytes:
    doc = {
        "bpm": event.bpm,
        "message": event.message,
        "location": event.location,
        "timestamp": event.timestamp,
    }
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


@dataclass(frozen=True)
class DeliveryReceipt:
    ok: bool
    attempts: int
    sink: str
    error: str | None = None


class FileSink:
    """Appends one payload per line to a file."""

    def __init__(self, path):
        self.path = path

    def describe(self) -> str:
        return f"file:{self.path}"

    def send(self, payload: bytes) -> None:
        with open(self.path, "ab") as fh:
            fh.write(payload + b"\n")


class StdoutSink:
    def describe(self) -> str:
        return "stdout"

    def send(self, payload: bytes) -> None:
        sys.stdout.write(payload.decode("utf-8") + "\n")


class HttpSink:
    """POSTs payloads to a local listener."""

    def __init__(self, port: int, host: str = "127.0.0.1", timeout: float = 2.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def describe(self) -> str:
        return f"http:{self.port}"

    def send(self, payload: bytes) -> None:
        req = urllib.request.Request(
            f"http://{self.host}:{self.port}/",
            data=payload,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            if not 200 <= resp.status < 300:
                raise OSError(f"listener answered {resp.status}")


def publish(sink, payload: bytes, retries: int = 2) -> DeliveryReceipt:
    """Deliver one payload; on failure retry up to `retries` more times."""
    attempts = 0
    last_error: str | None = None
    while attempts <= retries:
        attempts += 1
        try:
            sink.send(payload)
            return DeliveryReceipt(ok=True, attempts=attempts, sink=sink.describe())
        except Exception as exc:  # noqa: BLE001 - any sink failure is a delivery failure
            last_error = str(exc)
    return DeliveryReceipt(ok=False, attempts=attempts, sink=sink.describe(), error=last_error)


class _LoopbackHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        with self.server.received_lock:  # type: ignore[attr-defined]
            self.server.received.append(body)  # type: ignore[attr-defined]
        self.send_response(200)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):  # keep tests quiet
        pass


_POLL_INTERVAL_S = 0.05  # serve_forever's shutdown poll: close() waits up to this long


class LoopbackListener:
    """In-process HTTP listener that records every POSTed payload.

    Binds 127.0.0.1 on the requested port (0 picks a free one, exposed via
    .port).  Usable as a context manager.
    """

    def __init__(self, port: int = 0):
        self._server = ThreadingHTTPServer(("127.0.0.1", port), _LoopbackHandler)
        self._server.received = []  # type: ignore[attr-defined]
        self._server.received_lock = threading.Lock()  # type: ignore[attr-defined]
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        args=(_POLL_INTERVAL_S,), daemon=True)
        self._thread.start()

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def received(self) -> list[bytes]:
        with self._server.received_lock:  # type: ignore[attr-defined]
            return list(self._server.received)  # type: ignore[attr-defined]

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "LoopbackListener":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class PlotResult:
    records_plotted: int
    warnings: int
    path: str


def retrieve_and_plot(
    source,
    out,
    sample_rate: float = 500.0,
    width: int = 128,
    height: int = 64,
) -> PlotResult:
    """Decode a JSON-lines record file and render the joined ECG as SVG.

    Records are plotted in timestamp order; malformed lines are skipped
    and counted as warnings.
    """
    records: list[TelemetryRecord] = []
    warnings = 0
    with open(source, "rb") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(decode_record(line))
            except (ValueError, UnicodeDecodeError):
                warnings += 1
    records.sort(key=lambda r: r.timestamp)
    samples: list[float] = []
    for rec in records:
        samples.extend(rec.ecg)
    frame = SampleFrame(sample_rate=sample_rate, values=np.asarray(samples, dtype=np.float64),
                        unit="code")
    export_svg(frame, out, width=width, height=height)
    return PlotResult(records_plotted=len(records), warnings=warnings, path=str(out))
