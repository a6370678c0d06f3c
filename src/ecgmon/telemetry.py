"""Cloud-bound record encoding, alert policy and pluggable publish sinks.

Records serialize to canonical JSON (fixed key order, no insignificant
whitespace, shortest round-trip decimals) so golden-file tests compare
byte for byte.  Sinks write one JSON document per line; the loopback HTTP
sink stands in for the uplink and records what it receives.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import numbers
import socket
import sys
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .signals import SampleFrame
from .render import DEFAULT_HEIGHT, DEFAULT_WIDTH, export_svg

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
    "publish_record",
    "retrieve_and_plot",
    "PlotResult",
]

MAX_ECG_SAMPLES = 5000

RECORD_KEYS = ("device_id", "timestamp", "bpm", "location", "ecg")


class PayloadTooLargeError(ValueError):
    """Record carries more ECG samples than the configured maximum."""


@dataclass(frozen=True)
class TelemetryRecord:
    """One uplink record; ecg holds plain numbers (ADC codes or millivolts).

    ecg may be given as any sequence of numbers or as a 1-D integer or
    float numpy array (such as a slice of ADC codes); either way it is
    stored as a list of int/float.
    """

    device_id: str
    timestamp: int
    bpm: float
    ecg: list
    location: str

    def __post_init__(self):
        for name in ("device_id", "location"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        _require_finite("bpm", self.bpm)
        if self.bpm <= 0:
            raise ValueError(f"bpm must be > 0, got {self.bpm}")
        _require_finite("timestamp", self.timestamp)
        if int(self.timestamp) != self.timestamp:
            raise ValueError(f"timestamp must be an integer, got {self.timestamp}")
        object.__setattr__(self, "timestamp", int(self.timestamp))
        object.__setattr__(self, "ecg", _plain_numbers(self.ecg))


def _require_finite(name: str, v) -> None:
    # bool is an int subclass but not a reading; ints are finite however large
    if (isinstance(v, bool) or not isinstance(v, numbers.Real)
            or not (isinstance(v, numbers.Integral) or math.isfinite(v))):
        raise ValueError(f"{name} must be a finite number, got {v!r}")


_PLAIN_TYPES = frozenset((int, float))


def _plain_numbers(ecg) -> list:
    """ecg as a new list of int/float; the per-sample pass runs only when
    some element's exact type is another one (bool, numpy scalar, ...)."""
    if isinstance(ecg, np.ndarray) and ecg.ndim == 1 and ecg.dtype.kind in "iuf":
        return ecg.tolist()  # exact int/float, one C-level pass
    try:
        values = list(ecg)
    except TypeError:
        raise ValueError(f"ecg must be a sequence of numbers, got {type(ecg).__name__}") from None
    if _PLAIN_TYPES.issuperset(map(type, values)):
        return values
    return [_plain_number(v) for v in values]


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
        if not 0 < self.low_bpm < self.high_bpm < math.inf:
            raise ValueError(f"need finite 0 < low_bpm < high_bpm, got {self.low_bpm}, {self.high_bpm}")


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


def _json_bytes(doc: dict | list) -> bytes:
    # NaN and Infinity are not JSON: a record holding one raises ValueError
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False, allow_nan=False).encode("utf-8")


def _code_text_table(max_code: int) -> np.ndarray:
    """Row c holds code c's decimal digits and a comma as bytes, NUL-padded
    to 8, viewed as one uint64 so a fancy index gathers whole rows."""
    text = np.zeros((max_code + 1, 8), dtype=np.uint8)
    for width in range(1, len(str(max_code)) + 1):  # the codes of each width are one run
        lo, hi = 10 ** (width - 1) if width > 1 else 0, min(10 ** width, max_code + 1)
        places = 10 ** np.arange(width - 1, -1, -1, dtype=np.int32)
        text[lo:hi, :width] = ord("0") + np.arange(lo, hi, dtype=np.int32)[:, None] // places % 10
        text[lo:hi, width] = ord(",")
    return text.view(np.uint64).ravel()


# every code of an ADC with up to 16 bits (AdcConfig's limit)
_MAX_TABLE_CODE = 65535
_CODE_TEXT = _code_text_table(_MAX_TABLE_CODE)


def _ecg_bytes(ecg: list) -> bytes:
    """JSON array bytes of ecg, as json.dumps writes them.

    Non-empty lists of ints in 0.._MAX_TABLE_CODE are gathered from the
    code-text table; everything else (floats, negatives, larger ints, the
    empty list) goes through json.
    """
    codes = np.array(ecg)
    if (codes.dtype.kind in "iu" and codes.size
            and codes.min() >= 0 and codes.max() <= _MAX_TABLE_CODE):
        # every row ends in a comma: drop the padding, then the last comma
        return b"[" + _CODE_TEXT[codes].tobytes().translate(None, b"\0")[:-1] + b"]"
    return _json_bytes(ecg)


def encode_record(rec: TelemetryRecord, max_ecg: int = MAX_ECG_SAMPLES) -> bytes:
    """Canonical JSON bytes: fixed key order, compact, UTF-8."""
    if len(rec.ecg) > max_ecg:
        raise PayloadTooLargeError(f"ecg holds {len(rec.ecg)} samples, limit is {max_ecg}")
    head = _json_bytes({
        "device_id": rec.device_id,
        "timestamp": rec.timestamp,
        "bpm": rec.bpm,
        "location": rec.location,
    })
    # ecg is the last key: splice it in before the closing brace
    return head[:-1] + b',"ecg":' + _ecg_bytes(rec.ecg) + b"}"


def decode_record(data: bytes) -> TelemetryRecord:
    """Parse canonical record bytes back into a TelemetryRecord; malformed
    bytes raise ValueError."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError("record nests too deeply") from None
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
    return _json_bytes(doc)


@dataclass(frozen=True)
class DeliveryReceipt:
    ok: bool
    attempts: int
    sink: str
    error: str | None = None


class _Sink:
    """Context-manager protocol shared by the sinks; close() releases what
    the sink holds open."""

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FileSink(_Sink):
    """Appends one payload per line to a file."""

    def __init__(self, path):
        self.path = path

    def describe(self) -> str:
        return f"file:{self.path}"

    def send(self, payload: bytes) -> None:
        with open(self.path, "ab") as fh:
            fh.write(payload + b"\n")


class StdoutSink(_Sink):
    def describe(self) -> str:
        return "stdout"

    def send(self, payload: bytes) -> None:
        sys.stdout.write(payload.decode("utf-8") + "\n")


class HttpSink(_Sink):
    """POSTs payloads to a local listener over one persistent HTTP/1.1
    connection, opened on the first send.

    Any failure drops the connection, so the next send (publish's retry)
    reconnects; http.client drops it too when a response announces that
    the listener closes it.  close() releases it.
    """

    def __init__(self, port: int, host: str = "127.0.0.1", timeout: float = 2.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def describe(self) -> str:
        return f"http:{self.port}"

    def send(self, payload: bytes) -> None:
        try:
            self._conn.request("POST", "/", body=payload,
                               headers={"Content-Type": "application/json"})
            with self._conn.getresponse() as resp:
                resp.read()
        except BaseException:
            self._conn.close()  # a half-done exchange leaves the stream unusable
            raise
        if not 200 <= resp.status < 300:
            raise OSError(f"listener answered {resp.status}")

    def close(self) -> None:
        self._conn.close()


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


def publish_record(sink, record: TelemetryRecord, alert: AlertEvent | None,
                   max_ecg: int = MAX_ECG_SAMPLES) -> list[DeliveryReceipt]:
    """Publish the record, then the alert if there is one; one receipt each."""
    receipts = [publish(sink, encode_record(record, max_ecg))]
    if alert is not None:
        receipts.append(publish(sink, encode_alert(alert)))
    return receipts


class _LoopbackHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: one connection serves many POSTs

    def do_POST(self):  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        if len(body) != length:  # connection shut down mid-body: record nothing
            self.close_connection = True
            return
        with self.server.lock:  # type: ignore[attr-defined]
            self.server.received.append(body)  # type: ignore[attr-defined]
        self.send_response(200)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):  # keep tests quiet
        pass


_POLL_INTERVAL_S = 0.05  # serve_forever's shutdown poll: close() waits up to this long


class _LoopbackServer(ThreadingHTTPServer):
    """Tracks its open connections so close() can end the handler threads
    that wait on an idle keep-alive connection."""

    daemon_threads = False  # server_close() joins every handler thread

    def __init__(self, port: int):
        super().__init__(("127.0.0.1", port), _LoopbackHandler)
        self.received: list[bytes] = []
        self.connections: set[socket.socket] = set()
        self.lock = threading.Lock()

    def process_request(self, request, client_address):
        with self.lock:
            self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self.lock:
            self.connections.discard(request)
        super().shutdown_request(request)

    def shutdown_connections(self) -> None:
        with self.lock:
            for conn in self.connections:
                with contextlib.suppress(OSError):  # the peer may be gone already
                    conn.shutdown(socket.SHUT_RDWR)


class LoopbackListener:
    """In-process HTTP listener that records every POSTed payload.

    Binds 127.0.0.1 on the requested port (0 picks a free one, exposed via
    .port).  Usable as a context manager.
    """

    def __init__(self, port: int = 0):
        self._server = _LoopbackServer(port)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        args=(_POLL_INTERVAL_S,), daemon=True)
        self._thread.start()

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def received(self) -> list[bytes]:
        with self._server.lock:
            return list(self._server.received)

    def close(self) -> None:
        self._server.shutdown()  # no connection is accepted after this returns
        self._server.shutdown_connections()  # handlers see EOF and return
        self._server.server_close()  # joins the handler threads
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
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
) -> PlotResult:
    """Decode a JSON-lines record file and render the joined ECG as SVG.

    Records are plotted in timestamp order; malformed lines are skipped
    and counted as warnings.
    """
    records: list[tuple[int, np.ndarray]] = []  # (timestamp, ecg) per good line
    warnings = 0
    with open(source, "rb") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = decode_record(line)
                # OverflowError: an int sample beyond the float range
                ecg = np.asarray(rec.ecg, dtype=np.float64)
            except (ValueError, OverflowError):
                warnings += 1
                continue
            if not np.isfinite(ecg).all():  # NaN/Infinity samples cannot be drawn
                warnings += 1
                continue
            records.append((rec.timestamp, ecg))
    records.sort(key=lambda r: r[0])
    samples = np.concatenate([np.empty(0), *(ecg for _, ecg in records)])
    frame = SampleFrame(sample_rate=sample_rate, values=samples, unit="code")
    export_svg(frame, out, width=width, height=height)
    return PlotResult(records_plotted=len(records), warnings=warnings, path=str(out))
