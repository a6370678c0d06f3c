"""In-process model of the cloud endpoint that the monitor posts records to.

No CLI command or pipeline path uses it.  It is the only module that
imports http.server (which loads http.client, email and ssl), so the
package loads it on first use of LoopbackListener, not at import.
"""

from __future__ import annotations

import contextlib
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .telemetry import _LOOPBACK_HOST

__all__ = ["LoopbackListener"]

# largest request body the listener reads: a 1 h record at 500 Hz holds
# 1.8 M codes, about 11 MB of payload
MAX_BODY_BYTES = 64 * 1024 * 1024


class _LoopbackHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: one connection serves many POSTs

    def do_POST(self):  # noqa: N802 - http.server API
        if "Transfer-Encoding" in self.headers:  # a body it does not frame: refused unread
            self.send_error(411, "Transfer-Encoding not supported")  # also closes the connection
            return
        text = self.headers.get("Content-Length", "0").strip(" \t")
        if not (text.isascii() and text.isdigit()):
            self.send_error(400, "malformed Content-Length")  # also closes the connection
            return
        length = int(text)
        if length > MAX_BODY_BYTES:  # refused unread: reading it could exhaust memory
            self.send_error(413, f"body over {MAX_BODY_BYTES} bytes")  # also closes the connection
            return
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
    """An HTTP listener that records every POSTed payload.

    The tests and the benchmark publish to it through an HttpSink.  Binds
    a free port on 127.0.0.1, exposed as .port.  A POST whose
    Content-Length is not decimal gets 400, one over MAX_BODY_BYTES gets
    413, one with a Transfer-Encoding gets 411; each closes its connection
    and records nothing.  Usable as a context manager.
    """

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
