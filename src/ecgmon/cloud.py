"""In-process model of the cloud endpoint that the monitor posts records to.

No CLI command or pipeline path uses it.  Its listener reads each request's
head with telemetry's reader, the one HttpSink reads replies with, frames a
body by Content-Length only and answers with a bodiless status line.  It
builds on socketserver, not http.server, so it loads with the package and
loads none of http, email or ssl.
"""

from __future__ import annotations

import contextlib
import socket
import socketserver
import threading

from .telemetry import _LOOPBACK_HOST, _keep_alive, _read_headers, _read_line

__all__ = ["LoopbackListener"]

# largest request body the listener reads: a 1 h record at 500 Hz holds
# 1.8 M codes, about 4.8 MB of payload
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {200: b"OK", 400: b"Bad Request", 411: b"Length Required", 413: b"Content Too Large",
            501: b"Not Implemented"}


class _LoopbackHandler(socketserver.StreamRequestHandler):
    """Serves one connection's requests in turn, each answered in one write
    of a status line, Content-Length: 0 and, before a close, Connection:
    close; no Date or Server header, and no 100 Continue.

    A head the shared reader refuses, or a request line that is not three
    words ending in HTTP/1.0 or HTTP/1.1, gets 400; a method other than
    POST 501; a Transfer-Encoding 411; a Content-Length that is not ASCII
    digits (a repeated one is joined with a comma) 400, and one over
    MAX_BODY_BYTES 413, before any body is read.  Each refusal closes the
    connection and records nothing.  After a 200 it closes on Connection:
    close, on HTTP/1.0 without keep-alive, or if protocol_version is 1.0.
    """

    protocol_version = "HTTP/1.1"  # keep-alive: one connection serves many POSTs

    def handle(self):
        with contextlib.suppress(OSError):  # the client went away mid-exchange
            while self._serve_one():
                pass

    def _serve_one(self) -> bool:
        """Read and answer one request; whether the connection stays open."""
        try:
            line = _read_line(self.rfile)
            if not line:  # the client closed the connection between requests
                return False
            method, _, version = line.rstrip(b"\r\n").split(b" ")
            headers = _read_headers(self.rfile)
        except (OSError, ValueError):  # a refused head, or a request line not of three words
            return self._answer(400)
        if version not in (b"HTTP/1.0", b"HTTP/1.1"):
            return self._answer(400)
        if method != b"POST":
            return self._answer(501)
        if b"transfer-encoding" in headers:  # a body it does not frame: refused unread
            return self._answer(411)
        length = headers.get(b"content-length", b"0")
        if not length.isdigit():
            return self._answer(400)
        digits = length.lstrip(b"0")  # int() refuses over 4300 digits, leading zeros too
        size = int(digits or 0) if len(digits) <= len(str(MAX_BODY_BYTES)) else MAX_BODY_BYTES + 1
        if size > MAX_BODY_BYTES:  # refused unread: reading it could exhaust memory
            return self._answer(413)
        body = self.rfile.read(size)
        if len(body) != size:  # connection shut down mid-body: record nothing
            return False
        with self.server.lock:  # type: ignore[attr-defined]
            self.server.received.append(body)  # type: ignore[attr-defined]
        return self._answer(200, _keep_alive(version, headers) and self.protocol_version == "HTTP/1.1")

    def _answer(self, status: int, keep_alive: bool = False) -> bool:
        """Write a bodiless reply; keep_alive, whether the connection stays open."""
        self.wfile.write(b"%s %d %s\r\nContent-Length: 0\r\n%s\r\n" % (
            self.protocol_version.encode("ascii"), status, _REASONS[status],
            b"" if keep_alive else b"Connection: close\r\n"))
        return keep_alive


_POLL_INTERVAL_S = 0.05  # serve_forever's shutdown poll: close() waits up to this long


class _LoopbackServer(socketserver.ThreadingTCPServer):
    """Tracks its open connections so close() can end the handler threads
    that wait on an idle keep-alive connection; server_close() joins them."""

    def __init__(self):
        super().__init__((_LOOPBACK_HOST, 0), _LoopbackHandler)  # port 0: a free one
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
    """An HTTP listener on a free port of 127.0.0.1, exposed as .port, that
    records every POSTed payload in order; the tests and the benchmark
    publish to it through an HttpSink.  Usable as a context manager."""

    def __init__(self):
        self._server = _LoopbackServer()
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
