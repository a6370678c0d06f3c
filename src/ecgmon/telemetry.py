"""Cloud-bound record encoding, alert policy and pluggable publish sinks.

Records serialize to canonical JSON (fixed key order, no insignificant
whitespace, shortest round-trip decimals, codes as base64) so golden files
compare byte for byte.  Sinks write one JSON document per line.  The
endpoint an HttpSink posts to in the tests and the benchmark,
LoopbackListener, lives in ecgmon.cloud.
"""

from __future__ import annotations

import array
import binascii
import functools
import json
import socket
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .acquisition import _adc_codes
from .signals import SampleFrame, _require_int, _require_real
from .render import DEFAULT_WIDTH, _columns, export_svg

__all__ = [
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
    "retrieve_and_plot",
    "PlotResult",
]

@dataclass(frozen=True)
class TelemetryRecord:
    """One uplink record; ecg holds the ADC codes it carries.

    The fields are in wire order: encode_record writes them as the keys
    of one JSON object, in this order, and decode_record reads them back.
    ecg is an array('H') or ADC codes as acquisition._adc_codes takes
    them, stored as a new array('H'), so an edit in place can store only
    codes.
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
    """Check a frozen record's or alert's header with the settings' rules
    (string_fields UTF-8 text, bpm a real number > 0, timestamp an integer)
    and store a numpy bpm or timestamp as the Python number it holds, which
    is what json writes."""
    _require_text(obj, *string_fields)
    _require_real(0, bpm=obj.bpm)
    _require_int("timestamp", obj.timestamp)
    for name in ("bpm", "timestamp"):
        if isinstance(getattr(obj, name), np.generic):
            object.__setattr__(obj, name, getattr(obj, name).item())


def _ecg_codes(ecg) -> array.array:
    """ecg as a new array('H') of codes, each in 0.._MAX_CODE, under
    acquisition's rule for ADC codes; a native uint16 array is copied as
    it is, with no range pass."""
    if isinstance(ecg, array.array) and ecg.typecode == "H":
        return array.array("H", ecg)  # its type holds exactly the 16-bit codes
    return array.array("H", _adc_codes(ecg, "ecg").tobytes())


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
    _require_real(0, bpm=bpm)
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


def encode_record(rec: TelemetryRecord) -> bytes:
    """Canonical JSON bytes of rec, whatever its length: fixed key order,
    compact, UTF-8; ecg is the padded base64 of the codes as little-endian
    16-bit words.

    json writes the header fields; the base64 is spliced in as it is, since
    its alphabet holds no character JSON escapes, so the line is the bytes
    one json.dumps of all five fields would give.
    """
    words = np.frombuffer(rec.ecg, dtype=np.ushort).astype("<u2", copy=False)
    header = _json_bytes({key: getattr(rec, key) for key in RECORD_KEYS[:-1]})
    return b'%s,"ecg":"%s"}' % (header[:-1], binascii.b2a_base64(words, newline=False))


_BASE64_LETTERS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_NO_PAIR = 0xFFFF  # _pair_bits' entry for a pair with a letter outside the alphabet


@functools.cache
def _pair_bits() -> np.ndarray:
    """The 12 bits each pair of base64 letters stands for, indexed by the
    pair read as a little-endian 16-bit word (its first letter the low
    byte); _NO_PAIR where either letter is outside the alphabet.  128 KB,
    built on the first read."""
    six = np.full(256, 64, dtype="<u4")
    six[np.frombuffer(_BASE64_LETTERS, dtype=np.uint8)] = np.arange(64)
    word = np.arange(1 << 16)
    first, second = six[word & 0xFF], six[word >> 8]
    table = np.where((first | second) < 64, first << 6 | second, _NO_PAIR).astype("<u2")
    table.flags.writeable = False  # every reader shares it
    return table


def _base64_words(data: bytes) -> np.ndarray | None:
    """The little-endian 16-bit words of the ASCII base64 data if it is
    exactly what binascii.b2a_base64 writes of whole words, else None.

    The last group of 1 to 8 letters holds any padding and trailing bits:
    it goes through binascii and a re-encode.  Every letter before it is
    read in numpy: one take of _pair_bits over their pairs, whose maximum
    refuses a letter outside the alphabet, then shifts give the 3 bytes of
    each 4 letters.  Those letters are whole groups of 4 and hold 6 bytes
    per 8, so data is canonical base64 of whole words exactly when they
    are all in the alphabet and its last group is.
    """
    bulk = max(len(data) - 1, 0) // 8 * 8
    tail = data[bulk:]
    try:
        tail_bytes = binascii.a2b_base64(tail)
    except binascii.Error:
        return None
    if binascii.b2a_base64(tail_bytes, newline=False) != tail or len(tail_bytes) % 2:
        return None
    pairs = _pair_bits().take(np.frombuffer(data, dtype="<u2", count=bulk // 2))
    if bulk and pairs.max() > 0xFFF:
        return None
    quads = pairs.view("<u4")  # 4 letters each: the first pair's 12 bits low, the second's from bit 16
    head = bulk // 8 * 3  # the words those letters hold
    words = np.empty(head + len(tail_bytes) // 2, dtype="<u2")
    trios = words[:head].view(np.uint8).reshape(-1, 3)  # the 3 bytes of each 4 letters
    first_two = quads << 4
    first_two |= quads >> 24
    trios[:, :2].view(">u2")[:, 0] = first_two  # the low 16 bits: 12 of the first pair, 4 of the second
    trios[:, 2] = quads >> 16  # the low 8 bits of the second pair
    words[head:] = np.frombuffer(tail_bytes, dtype="<u2")
    return words


def _refuse_base64(ecg):
    """Raise ValueError with the reason ecg, a record's ecg value that
    _base64_words refused (as bytes if it was ASCII text), is no canonical
    base64 of whole 16-bit words."""
    try:
        raw = binascii.a2b_base64(ecg)
    except (TypeError, ValueError) as exc:  # no string, no ASCII, or binascii.Error
        raise ValueError(f"ecg is not base64: {exc}") from None
    # a2b_base64 skips letters outside the alphabet and ignores trailing bits
    if binascii.b2a_base64(raw, newline=False) != ecg:
        raise ValueError("ecg is not canonical base64 (padding, spaces, URL-safe letters, trailing bits)")
    if len(raw) % 2:
        raise ValueError(f"ecg must hold whole 16-bit codes, got {len(raw)} bytes")
    raise AssertionError(f"the base64 reader refused canonical base64 {ecg[:80]!r}")


def _canonical_record(data: bytes) -> dict:
    """The fields of a JSON line with exactly the record's keys, each once
    and in order, ecg as the uint16 array of its base64, which counts only
    as encode_record writes it; any other line raises ValueError with the
    reason."""
    if not isinstance(data, bytes):
        raise ValueError(f"record must be bytes, got {type(data).__name__}")
    written = []  # each JSON object's keys as written, repeats included; the outermost last

    def keep_keys(pairs: list) -> dict:
        written.append([key for key, _ in pairs])
        return dict(pairs)

    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=keep_keys)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"record is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"record must be a JSON object, got {type(doc).__name__}")
    if tuple(written[-1]) != RECORD_KEYS:
        raise ValueError(f"bad record keys: {written[-1]}, want {list(RECORD_KEYS)}")
    ecg = doc["ecg"]
    if isinstance(ecg, str) and ecg.isascii():
        ecg = doc["ecg"] = ecg.encode("ascii")  # json's copy of the letters goes
    words = _base64_words(ecg) if isinstance(ecg, bytes) else None
    if words is None:
        _refuse_base64(ecg)
    doc["ecg"] = words.astype(np.ushort, copy=False)
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
_MAX_LINE = 65536  # bytes per request, status or header line, its line end included
_MAX_HEADERS = 100  # header fields per head
_OWS = b" \t"  # whitespace around a header value (RFC 9112)
_RETRIABLE_4XX = (408, 429)  # Request Timeout, Too Many Requests


class _Refusal(OSError):
    """A final status that a retry of the same payload cannot change: a
    4xx other than _RETRIABLE_4XX."""


class HttpSink(_Sink):
    """POSTs payloads to a local listener over one persistent HTTP/1.1
    connection, opened on the first send.

    Each POST is one write of head and payload.  Delivery is decided by
    the final status line: the reply's status line and headers are read
    (1xx interim replies skipped), its body never is.  The connection is
    kept only after a reply with no body (204, 304, or Content-Length: 0
    without Transfer-Encoding) that does not announce a close; after any
    other reply, a malformed one or any other failure it is dropped, and
    the next send reconnects.  A status outside 2xx raises, a 4xx other
    than 408 and 429 as a refusal publish does not retry.  close()
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
            final = 400 <= status < 500 and status not in _RETRIABLE_4XX
            raise (_Refusal if final else OSError)(f"listener answered {status}")

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
            headers = _read_headers(self._reader)
        bodiless = status in (204, 304) or (b"transfer-encoding" not in headers
                                            and headers.get(b"content-length") == b"0")
        return status, bodiless and _keep_alive(version, headers)

    def _read_status(self) -> tuple[bytes, int]:
        line = _read_line(self._reader)
        if not line:
            raise ConnectionError("listener closed the connection before replying")
        version, _, rest = line.rstrip(b"\r\n").partition(b" ")
        code = rest[:3]
        if (not version.startswith(b"HTTP/1.") or not code.isdigit()
                or rest[3:4] not in (b"", b" ") or code[:1] == b"0"):
            raise OSError(f"bad status line from listener: {line[:80]!r}")
        return version, int(code)


def _read_line(reader) -> bytes:
    """One line from the binary file reader, its line end kept; b"" at EOF."""
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise OSError(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _read_headers(reader) -> dict[bytes, bytes]:
    """Header fields from the binary file reader up to the blank line, names
    lower-cased, repeats joined with commas.  Both ends of the uplink read
    a head with it, HttpSink a reply's and cloud's listener a request's;
    its messages are the sink's, as the listener answers each with 400."""
    headers: dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader)
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


def _keep_alive(version: bytes, headers: dict[bytes, bytes]) -> bool:
    """Whether a message's connection stays open: no close, and HTTP/1.1 or keep-alive."""
    tokens = {t.strip(_OWS).lower() for t in headers.get(b"connection", b"").split(b",")}
    return b"close" not in tokens and (version != b"HTTP/1.0" or b"keep-alive" in tokens)


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


_RETRY_PAUSES_S = (0.05, 0.1)  # before the first and the second retry


def publish(sink, payload: bytes, sleep=time.sleep) -> DeliveryReceipt:
    """Deliver one payload; on failure retry twice.

    The retries wait 0.05 s and then 0.1 s first; a send that succeeds at
    once waits for nothing.  sleep(seconds) does the waiting.  A listener's
    refusal that a retry cannot change (a 4xx other than 408 and 429)
    fails the delivery at once.
    """
    last_error: str | None = None
    for attempts, pause in enumerate((0.0, *_RETRY_PAUSES_S), start=1):
        if pause:  # the first attempt goes at once
            sleep(pause)
        try:
            sink.send(payload)
            return DeliveryReceipt(ok=True, attempts=attempts)
        except Exception as exc:  # noqa: BLE001 - any sink failure is a delivery failure
            last_error = str(exc)
            if isinstance(exc, _Refusal):
                break
    return DeliveryReceipt(ok=False, attempts=attempts, error=last_error)


def _is_alert(line: bytes) -> bool:
    """Whether line is exactly what encode_alert writes for some event."""
    try:
        return encode_alert(AlertEvent(**json.loads(line))) == line
    except (ValueError, TypeError, RecursionError):
        return False


@dataclass(frozen=True)
class PlotResult:
    records_plotted: int
    warnings: int


# a SampleFrame needs a rate; map_to_trace picks samples by index, so the
# SVG does not depend on it
_PLOT_RATE = 500.0
_READ_BUFFER = 1 << 15  # bytes: holds a whole 5000-code line (13.4 kB), which the default 8 KB splits


def retrieve_and_plot(source, out) -> PlotResult:
    """Decode a JSON-lines record file and render its ECG as SVG.

    The records' codes are drawn end to end in timestamp order.  Alert
    lines, as encode_alert writes them, are skipped; every other line that
    is no record is skipped and counted as a warning.  The plot is drawn
    from each record's 16-bit codes: only the codes its columns show
    become floats, scaled to the lowest and highest code of any record.
    """
    records: list[tuple[int, np.ndarray]] = []  # (timestamp, codes) per good line
    warnings = 0
    with open(source, "rb", buffering=_READ_BUFFER) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = decode_record(line)
            except ValueError:
                warnings += not _is_alert(line)
                continue
            records.append((rec.timestamp, np.frombuffer(rec.ecg, dtype=np.ushort)))
    records.sort(key=lambda r: r[0])
    codes = [ecg for _, ecg in records if ecg.size]
    shown, v_min, v_max = np.empty(0, dtype=np.ushort), None, None  # no codes: an empty polyline
    if codes:
        starts = np.cumsum([0] + [ecg.size for ecg in codes])  # each record's first index, then the total
        at = _columns(int(starts[-1]), DEFAULT_WIDTH)  # the indices the columns show, counted end to end
        which = np.searchsorted(starts, at, side="right") - 1
        shown = np.array([codes[r][i] for r, i in zip(which, at - starts[which])], dtype=np.ushort)
        v_min, v_max = float(min(ecg.min() for ecg in codes)), float(max(ecg.max() for ecg in codes))
    export_svg(SampleFrame(sample_rate=_PLOT_RATE, values=shown), out, DEFAULT_WIDTH,
               v_min=v_min, v_max=v_max)
    return PlotResult(records_plotted=len(records), warnings=warnings)
