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
import socket
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .acquisition import _MAX_BITS
from .signals import SampleFrame, _require_int, _require_real
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
    """One uplink record; ecg holds the ADC codes it carries.

    The fields are in wire order: encode_record writes them as the keys
    of one JSON object, in this order, and decode_record reads them back.
    ecg is a list or tuple of ints, a 1-D integer numpy array (such as a
    slice of ADC codes) or an array('H'), every value in
    0.._MAX_TABLE_CODE, stored as a new array('H'): an edit in place can
    only store what encode_record writes.  Any other container or sample
    is refused.
    """

    device_id: str
    timestamp: int
    bpm: float
    location: str
    ecg: array.array

    def __post_init__(self):
        _wire_fields(self, "device_id", "location")
        object.__setattr__(self, "ecg", _ecg_codes(self.ecg))


RECORD_KEYS = tuple(f.name for f in fields(TelemetryRecord))
_HEADER_KEYS = RECORD_KEYS[:-1]  # every key but ecg, the last


def _require_text(obj, *names: str) -> None:
    """Each named field of obj is a str that UTF-8 can write: a lone
    surrogate, such as a command line's undecodable byte, is refused."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string, got {value!r}")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{name} must be UTF-8 text, got {value!r}") from None


def _wire_fields(obj, *string_fields: str) -> None:
    """Check a frozen record's or alert's header (string_fields are UTF-8
    text, bpm finite and > 0, timestamp whole) and store its numbers as
    int/float, so that what the constructor accepts encodes."""
    _require_text(obj, *string_fields)
    object.__setattr__(obj, "bpm", _wire_bpm(obj.bpm))
    timestamp = _plain_number(obj.timestamp, "timestamp must be an integer")
    if isinstance(timestamp, float) and not timestamp.is_integer():  # NaN and infinities too
        raise ValueError(f"timestamp must be an integer, got {timestamp}")
    object.__setattr__(obj, "timestamp", int(timestamp))


def _wire_bpm(bpm):
    bpm = _plain_number(bpm, "bpm must be finite and > 0")
    _require_real(0, bpm=bpm)
    return bpm


def _ecg_codes(ecg) -> array.array:
    """ecg as a new array('H') of codes, each in 0.._MAX_TABLE_CODE; an
    integer ndarray is range-checked, then copied as bytes."""
    if isinstance(ecg, array.array) and ecg.typecode == "H":
        return array.array("H", ecg)  # its type holds exactly the table's codes
    if isinstance(ecg, np.ndarray) and ecg.ndim == 1 and ecg.dtype.kind in "iu":
        low, high = (ecg.min(), ecg.max()) if ecg.size else (0, 0)
    elif isinstance(ecg, (list, tuple)):
        if not {int}.issuperset(map(type, ecg)):
            odd = next(v for v in ecg if type(v) is not int)
            raise ValueError(f"ecg samples must be ADC codes (int), got {type(odd).__name__}")
        low, high = (min(ecg), max(ecg)) if ecg else (0, 0)
    else:
        raise ValueError(f"ecg must be a list, tuple or 1-D integer array of ADC codes, "
                         f"got {type(ecg).__name__}")
    if low < 0 or high > _MAX_TABLE_CODE:
        raise ValueError(f"ecg codes must be in 0..{_MAX_TABLE_CODE}, got {low if low < 0 else high}")
    if isinstance(ecg, np.ndarray):
        return array.array("H", ecg.astype(np.ushort).tobytes())
    return array.array("H", ecg)


def _plain_number(v, rule: str):
    """v as an int or float (numpy scalars unwrapped); other types raise."""
    if isinstance(v, (np.integer, np.floating)):
        v = v.item()  # a long double stays one, and is refused
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{rule}, got {type(v).__name__}")
    return v


@dataclass(frozen=True)
class AlertPolicy:
    """Normal heart-rate band; readings strictly outside it alert."""

    low_bpm: float = 50.0
    high_bpm: float = 120.0

    def __post_init__(self):
        _require_real(0, low_bpm=self.low_bpm, high_bpm=self.high_bpm)
        if not self.low_bpm < self.high_bpm:
            raise ValueError(f"need finite 0 < low_bpm < high_bpm, got {self.low_bpm}, {self.high_bpm}")


@dataclass(frozen=True)
class AlertEvent:
    """A reading outside the policy's band; the fields are encode_alert's
    keys, in order."""

    bpm: float
    message: str
    location: str
    timestamp: int

    def __post_init__(self):
        _wire_fields(self, "message", "location")


def evaluate_alert(bpm: float, policy: AlertPolicy, location: str, timestamp: int = 0) -> AlertEvent | None:
    """Alert iff bpm < low or bpm > high; values on a threshold are normal.

    A bpm that is not finite and > 0 is no reading and raises ValueError;
    the event's location and timestamp are checked as a record's are.
    """
    bpm = _wire_bpm(bpm)
    if bpm < policy.low_bpm:
        message = f"heart rate {bpm:g} bpm below low threshold {policy.low_bpm:g}"
    elif bpm > policy.high_bpm:
        message = f"heart rate {bpm:g} bpm above high threshold {policy.high_bpm:g}"
    else:
        return None
    return AlertEvent(bpm=bpm, message=message, location=location, timestamp=timestamp)


def _json_bytes(doc: dict | list) -> bytes:
    # NaN and Infinity are not JSON: a document holding one raises ValueError
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


_MAX_TABLE_CODE = (1 << _MAX_BITS) - 1  # every code AdcConfig allows
_CODE_TEXT = _code_text_table(_MAX_TABLE_CODE)


def _code_text(codes: np.ndarray) -> bytes | None:
    """The JSON array body of integer codes, such as b"2048,0,17" (b"" for
    no codes), gathered from the code-text table; None if a code is
    outside 0.._MAX_TABLE_CODE."""
    if codes.size and (codes.min() < 0 or codes.max() > _MAX_TABLE_CODE):
        return None
    # every row ends in a comma: drop the padding, then the last comma
    return _CODE_TEXT[codes].tobytes().translate(None, b"\0")[:-1]


_ECG_KEY = b',"ecg":['  # the last key and the "[" of its array


def encode_record(rec: TelemetryRecord, max_ecg: int = MAX_ECG_SAMPLES) -> bytes:
    """Canonical JSON bytes: fixed key order, compact, UTF-8; the header
    through json, the codes from the code-text table."""
    _require_int("max_ecg", max_ecg, 0)
    if len(rec.ecg) > max_ecg:
        raise PayloadTooLargeError(f"ecg holds {len(rec.ecg)} samples, limit is {max_ecg}")
    head = _json_bytes({key: getattr(rec, key) for key in _HEADER_KEYS})
    text = _code_text(np.frombuffer(rec.ecg, dtype=np.ushort))
    # splice the codes in before the head's closing brace
    return head[:-1] + _ECG_KEY + text + b"]}"


def _canonical_record(data: bytes) -> dict:
    """The fields of a line encode_record writes, ecg as an int64 array:
    only the four header keys go through json.  Any other line raises
    ValueError with the reason.  numpy's parse is lenient (it reads "+1",
    " 1" and "1,-"), so the codes count only when their text is exactly
    the code-text table's, which is canonical and one-to-one."""
    if not isinstance(data, bytes):
        raise ValueError(f"record must be bytes, got {type(data).__name__}")
    cut = data.rfind(_ECG_KEY)
    if cut < 0 or not data.endswith(b"]}"):
        raise ValueError('record must end with its ecg array: ,"ecg":[...]}')
    body = data[cut + len(_ECG_KEY):-2]
    try:
        codes = np.fromstring(body, dtype=np.int64, sep=",")
        canonical = _code_text(codes) == body
    except ValueError:  # text numpy cannot read to its end
        canonical = False
    if not canonical:
        raise ValueError(f"ecg must be ADC codes in 0..{_MAX_TABLE_CODE}, "
                         "comma-separated as encode_record writes them")
    try:
        doc = json.loads((data[:cut] + b"}").decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"record header is not JSON: {exc}") from None
    # the head parsed, so it is an object (it ends in "}"); with exactly the
    # header keys, in order, the whole line is that object plus the codes
    if tuple(doc) != _HEADER_KEYS:
        raise ValueError(f"bad record keys: {list(doc)} before ecg, want {list(_HEADER_KEYS)}")
    doc["ecg"] = codes
    return doc


def decode_record(data: bytes) -> TelemetryRecord:
    """Parse record bytes back into a TelemetryRecord.

    A line reads exactly when _canonical_record reads it and its header
    values pass the record's checks; anything else raises ValueError.
    """
    return TelemetryRecord(**_canonical_record(data))


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
_MAX_LINE = 65536  # bytes per status or header line, its line end included
_MAX_HEADERS = 100  # header fields per reply
_OWS = b" \t"  # whitespace around a header value (RFC 9112)


class HttpSink(_Sink):
    """POSTs payloads to a local listener over one persistent HTTP/1.1
    connection, opened on the first send.

    Each POST is one write of head and payload.  Delivery is decided by
    the final status line: the reply's status line and headers are read
    (1xx interim replies skipped), its body never is.  The connection is
    kept only after a reply with no body (204, 304, or Content-Length: 0
    without Transfer-Encoding) that does not announce a close; after any
    other reply, a malformed one or any other failure it is dropped, and
    the next send reconnects.  A status outside 2xx raises.  close()
    releases the connection.
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
        """Read one final reply's status line and headers, never its body;
        its status, and whether the connection stays open."""
        status = 100
        while 100 <= status < 200:  # interim replies carry no body
            version, status = self._read_status()
            headers = self._read_headers()
        tokens = {t.strip(_OWS).lower() for t in headers.get(b"connection", b"").split(b",")}
        bodiless = status in (204, 304) or (b"transfer-encoding" not in headers
                                            and headers.get(b"content-length") == b"0")
        keep_alive = b"close" not in tokens and (version != b"HTTP/1.0" or b"keep-alive" in tokens)
        return status, bodiless and keep_alive

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
    _require_int("retries", retries, 0)
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
    records: list[tuple[int, np.ndarray]] = []  # (timestamp, codes) per good line
    warnings = 0
    with open(source, "rb") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = decode_record(line)
            except ValueError:
                warnings += 1
                continue
            records.append((rec.timestamp, np.frombuffer(rec.ecg, dtype=np.ushort)))
    records.sort(key=lambda r: r[0])
    codes = np.concatenate([np.empty(0, dtype=np.ushort), *(ecg for _, ecg in records)])
    export_svg(SampleFrame(sample_rate=_PLOT_RATE, values=codes.astype(np.float64)), out)
    return PlotResult(records_plotted=len(records), warnings=warnings)
