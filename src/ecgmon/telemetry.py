"""Cloud-bound record encoding, alert policy and pluggable publish sinks.

Records serialize to canonical JSON (fixed key order, no insignificant
whitespace, shortest round-trip decimals) so golden-file tests compare
byte for byte.  Sinks write one JSON document per line.  The endpoint an
HttpSink posts to in the tests and the benchmark, LoopbackListener, lives
in ecgmon.cloud.
"""

from __future__ import annotations

import array
import json
import math
import numbers
import socket
import sys
import time
from collections.abc import Mapping, Set
from dataclasses import asdict, dataclass, fields

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
    "make_sink",
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


class PayloadTooLargeError(ValueError):
    """Record carries more ECG samples than the configured maximum."""


@dataclass(frozen=True)
class TelemetryRecord:
    """One uplink record; ecg holds plain numbers (ADC codes or millivolts).

    The fields are in wire order: encode_record writes them as the keys
    of one JSON object, in this order, and decode_record reads them back.
    ecg may be given as any sequence of numbers or as a 1-D integer or
    float numpy array (such as a slice of ADC codes); either way it is
    stored as a list of int/float.  Strings, bytes (and plain memoryviews
    of them), mappings and sets are refused: their elements are no ordered
    samples.
    """

    device_id: str
    timestamp: int
    bpm: float
    location: str
    ecg: list

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


RECORD_KEYS = tuple(f.name for f in fields(TelemetryRecord))
_HEADER_KEYS = RECORD_KEYS[:-1]  # every key but ecg, the last


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
    refused = ValueError(f"ecg must be a sequence of numbers, got {type(ecg).__name__}")
    if isinstance(ecg, (str, bytes, bytearray, Mapping, Set)):  # iterable, but no ordered samples
        raise refused
    # a plain view of bytes iterates byte values as bytes does; typed views
    # (array('h'), .cast('h')) iterate samples, and array('B') shares the
    # 'B' format, so the viewed object tells them apart
    if (isinstance(ecg, memoryview) and ecg.format == "B"
            and isinstance(ecg.obj, (bytes, bytearray))):
        raise refused
    try:
        values = list(ecg)
    except TypeError:
        raise refused from None
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
    """A reading outside the policy's band; the fields are encode_alert's
    keys, in order."""

    bpm: float
    message: str
    location: str
    timestamp: int


def evaluate_alert(bpm: float, policy: AlertPolicy, location: str, timestamp: int = 0) -> AlertEvent | None:
    """Alert iff bpm < low or bpm > high; values on a threshold are normal.

    A bpm that is not finite and > 0 is no reading and raises ValueError.
    """
    if not 0 < bpm < math.inf:  # also false for NaN
        raise ValueError(f"bpm must be finite and > 0, got {bpm}")
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
    try:
        codes = np.frombuffer(array.array("q", ecg), dtype=np.int64)
    except (TypeError, OverflowError):  # a float, or an int beyond int64
        return _json_bytes(ecg)
    if codes.size and codes.min() >= 0 and codes.max() <= _MAX_TABLE_CODE:
        # every row ends in a comma: drop the padding, then the last comma
        return b"[" + _CODE_TEXT[codes].tobytes().translate(None, b"\0")[:-1] + b"]"
    return _json_bytes(ecg)


def encode_record(rec: TelemetryRecord, max_ecg: int = MAX_ECG_SAMPLES) -> bytes:
    """Canonical JSON bytes: fixed key order, compact, UTF-8."""
    if max_ecg < 0:
        raise ValueError(f"max_ecg must be >= 0, got {max_ecg}")
    if len(rec.ecg) > max_ecg:
        raise PayloadTooLargeError(f"ecg holds {len(rec.ecg)} samples, limit is {max_ecg}")
    head = _json_bytes({key: getattr(rec, key) for key in _HEADER_KEYS})
    # ecg is the last key: splice it in before the closing brace
    return head[:-1] + b',"ecg":' + _ecg_bytes(rec.ecg) + b"}"


_ECG_KEY = b',"ecg":['
_MAX_CODE_DIGITS = 5  # 0..99999: every 16-bit code, far from int64's limit


def _ecg_codes(body: bytes) -> np.ndarray | None:
    """The int64 codes of a JSON array's body such as b"2048,0,17", or None
    unless it is canonical integers of 1-5 digits joined by single commas
    (what _ecg_bytes writes for codes up to 99999)."""
    chars = np.frombuffer(body, dtype=np.uint8)
    digit = chars - np.uint8(ord("0")) <= 9  # bytes below "0" wrap past 9
    # a separator at each comma and on both sides of the body: every field
    # lies between two, and two in a row enclose an empty field
    sep = np.ones(chars.size + 2, dtype=bool)
    sep[1:-1] = chars == ord(",")
    if not (digit | sep[1:-1]).all() or (sep[1:] & sep[:-1]).any():
        return None
    if ((chars[:-1] == ord("0")) & sep[:-3] & digit[1:]).any():  # JSON has no leading zeros
        return None
    if chars.size > _MAX_CODE_DIGITS:  # no digit may end a longer run of digits
        longer = digit[_MAX_CODE_DIGITS:].copy()
        for k in range(1, _MAX_CODE_DIGITS + 1):
            longer &= digit[_MAX_CODE_DIGITS - k:-k]
        if longer.any():
            return None
    return np.fromstring(body, dtype=np.int64, sep=",")  # checked above: parses to its end


def _canonical_record(data: bytes) -> dict | None:
    """The fields of a line encode_record writes for a record of codes, ecg
    as an int64 array: only the four header keys go through json.  None for
    any other line, even a valid one."""
    if not (isinstance(data, bytes) and data.endswith(b"]}")):
        return None
    cut = data.rfind(_ECG_KEY)
    if cut < 0:
        return None
    codes = _ecg_codes(data[cut + len(_ECG_KEY):-2])
    if codes is None:
        return None
    try:
        doc = json.loads((data[:cut] + b"}").decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    # the head parsed, so it is an object (it ends in "}"); with exactly the
    # header keys, in order, the whole line is that object plus the codes
    if tuple(doc) != _HEADER_KEYS:
        return None
    doc["ecg"] = codes
    return doc


def _json_record(data: bytes) -> dict:
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
    return doc


def decode_record(data: bytes) -> TelemetryRecord:
    """Parse canonical record bytes back into a TelemetryRecord; malformed
    bytes, and an ecg value that is no JSON array, raise ValueError.

    A line of codes as encode_record writes it parses its samples with
    numpy; every other line goes through json whole, with the same result.
    """
    doc = _canonical_record(data)
    if doc is None:
        doc = _json_record(data)
    return TelemetryRecord(**doc)


def encode_alert(event: AlertEvent) -> bytes:
    return _json_bytes(asdict(event))


@dataclass(frozen=True)
class DeliveryReceipt:
    ok: bool
    attempts: int
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


_HTTP_TIMEOUT_S = 2.0  # per connect and per socket read
_LOOPBACK_HOST = "127.0.0.1"  # where HttpSink posts and cloud.LoopbackListener binds
_MAX_LINE = 65536  # bytes per status, header or chunk-size line, its line end included
_MAX_HEADERS = 100  # header fields per reply
_OWS = b" \t"  # whitespace around a header value (RFC 9112)
_HEX_DIGITS = b"0123456789abcdefABCDEF"


class HttpSink(_Sink):
    """POSTs payloads to a local listener over one persistent HTTP/1.1
    connection, opened on the first send.

    Each POST is one write of head and payload.  The reply's status line
    and headers are read (1xx interim replies skipped) and its body is
    read and dropped, framed by Content-Length, chunked, or running to
    the close.  A malformed reply or any other failure drops the
    connection, so the next send (publish's retry) reconnects; so does a
    reply that announces the close.  A status outside 2xx raises once its
    body is read, keeping the connection.  close() releases it.
    """

    def __init__(self, port: int):
        self.port = port
        self._head = (f"POST / HTTP/1.1\r\nHost: {_LOOPBACK_HOST}:{port}\r\n"
                      "Content-Type: application/json\r\nContent-Length: ").encode("ascii")
        self._sock: socket.socket | None = None
        self._reader = None

    def describe(self) -> str:
        return f"http:{self.port}"

    def send(self, payload: bytes) -> None:
        try:
            if self._sock is None:
                self._sock = socket.create_connection((_LOOPBACK_HOST, self.port), _HTTP_TIMEOUT_S)
                self._reader = self._sock.makefile("rb")
            self._sock.sendall(b"%s%d\r\n\r\n%s" % (self._head, len(payload), payload))
            status, keep_alive = self._read_reply()
        except BaseException:
            self.close()  # a half-done exchange leaves the stream unusable
            raise
        if not keep_alive:
            self.close()
        if not 200 <= status < 300:
            raise OSError(f"listener answered {status}")

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def _read_reply(self) -> tuple[int, bool]:
        """Read one final reply; its status, and whether the connection stays open."""
        status = 100
        while 100 <= status < 200:  # interim replies carry no body
            version, status = self._read_status()
            headers = self._read_headers()
        tokens = {t.strip(_OWS).lower() for t in headers.get(b"connection", b"").split(b",")}
        keep_alive = b"close" not in tokens and (version != b"HTTP/1.0" or b"keep-alive" in tokens)
        if status in (204, 304):  # no body, whatever the headers say
            return status, keep_alive
        coding = headers.get(b"transfer-encoding")
        if coding is None and b"content-length" in headers:
            length = headers[b"content-length"]
            if not length.isdigit():  # bytes.isdigit is ASCII digits only
                raise OSError(f"Content-Length {length[:80]!r} is not a decimal number")
            self._drop(int(length))
        elif coding is not None and coding.rsplit(b",", 1)[-1].strip(_OWS).lower() == b"chunked":
            self._drop_chunks()
        else:  # the body runs to the close
            while self._reader.read(_MAX_LINE):
                pass
            keep_alive = False
        return status, keep_alive

    def _read_line(self) -> bytes:
        line = self._reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise OSError(f"reply line longer than {_MAX_LINE} bytes")
        return line

    def _read_status(self) -> tuple[bytes, int]:
        line = self._read_line()
        if not line:
            raise ConnectionError("listener closed the connection before replying")
        version, _, rest = line.rstrip(b"\r\n").partition(b" ")
        code = rest[:3]
        if (not version.startswith(b"HTTP/1.") or not code.isdigit()
                or rest[3:4] not in (b"", b" ") or code[:1] == b"0"):
            raise OSError(f"bad status line from listener: {line[:80]!r}")
        return version, int(code)

    def _read_headers(self) -> dict[bytes, bytes]:
        """Header fields up to the blank line, names lower-cased; repeated
        fields are joined with commas."""
        headers: dict[bytes, bytes] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self._read_line()
            if line in (b"\r\n", b"\n"):
                return headers
            if not line:
                raise ConnectionError("listener closed the connection mid-headers")
            name, colon, value = line.rstrip(b"\r\n").partition(b":")
            if not colon or not name or name != name.strip(_OWS):
                raise OSError(f"bad header line from listener: {line[:80]!r}")
            name, value = name.lower(), value.strip(_OWS)
            headers[name] = headers[name] + b"," + value if name in headers else value
        raise OSError(f"reply has more than {_MAX_HEADERS} headers")

    def _drop(self, size: int) -> None:
        """Read and discard size body bytes, a bounded piece at a time."""
        while size:
            got = len(self._reader.read(min(size, _MAX_LINE)))
            if not got:
                raise ConnectionError("listener closed the connection mid-body")
            size -= got

    def _drop_chunks(self) -> None:
        while True:
            line = self._read_line().rstrip(b"\r\n")
            size = line.split(b";", 1)[0].strip(_OWS)  # a chunk extension follows ";"
            if not size or size.translate(None, _HEX_DIGITS):
                raise OSError(f"bad chunk size line from listener: {line[:80]!r}")
            if int(size, 16) == 0:
                self._read_headers()  # the trailer section
                return
            self._drop(int(size, 16))
            if self._read_line() not in (b"\r\n", b"\n"):
                raise OSError("chunk data not followed by a line end")


def make_sink(spec: str):
    """Build a publish sink from 'stdout', 'file:<path>' or 'http:<port>'.

    No sink opens anything before its first send, so a config checks its
    spec by building the sink.
    """
    kind, colon, target = spec.partition(":")
    if spec == "stdout":
        return StdoutSink()
    if kind == "file" and target:
        return FileSink(target)
    if kind == "http" and colon:
        port = int(target) if target.isascii() and target.isdigit() else 0
        if not 1 <= port <= 65535:
            raise ValueError(f"http sink port must be an integer in 1..65535, got {target!r}")
        return HttpSink(port)
    raise ValueError(f"unknown sink {spec!r} (use stdout, file:<path> or http:<port>)")


_RETRY_PAUSE_S = 0.05  # before the first retry; doubles before each later one
_RETRY_PAUSE_MAX_S = 1.0


def publish(sink, payload: bytes, retries: int = 2, sleep=time.sleep) -> DeliveryReceipt:
    """Deliver one payload; on failure retry up to `retries` more times.

    Each retry waits first, 0.05 s before the first and twice as long
    before each next one, at most 1 s; a send that succeeds at once
    waits for nothing.  sleep(seconds) does the waiting.
    """
    attempts = 0
    pause = _RETRY_PAUSE_S
    last_error: str | None = None
    while attempts <= retries:
        if attempts:
            sleep(pause)
            pause = min(2 * pause, _RETRY_PAUSE_MAX_S)
        attempts += 1
        try:
            sink.send(payload)
            return DeliveryReceipt(ok=True, attempts=attempts)
        except Exception as exc:  # noqa: BLE001 - any sink failure is a delivery failure
            last_error = str(exc)
    return DeliveryReceipt(ok=False, attempts=attempts, error=last_error)


def publish_record(sink, record: TelemetryRecord, alert: AlertEvent | None,
                   max_ecg: int = MAX_ECG_SAMPLES) -> list[DeliveryReceipt]:
    """Publish the record, then the alert if there is one; one receipt each."""
    receipts = [publish(sink, encode_record(record, max_ecg))]
    if alert is not None:
        receipts.append(publish(sink, encode_alert(alert)))
    return receipts


@dataclass(frozen=True)
class PlotResult:
    records_plotted: int
    warnings: int


# a SampleFrame needs a rate; map_to_trace picks samples by index, so the
# SVG does not depend on it
_PLOT_RATE = 500.0


def retrieve_and_plot(source, out) -> PlotResult:
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
    export_svg(SampleFrame(sample_rate=_PLOT_RATE, values=samples), out)
    return PlotResult(records_plotted=len(records), warnings=warnings)
