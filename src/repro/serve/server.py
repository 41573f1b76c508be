"""Transports for the serve daemon.

Both speak the same envelopes (:mod:`repro.serve.protocol`) over one
shared dispatcher (:func:`handle_request`):

* **stdio** — one JSON request per stdin line, one JSON response per
  stdout line. A ready line is emitted first so a supervising process
  knows the (potentially slow) pipeline front half has finished. All
  logging goes to stderr; stdout carries only protocol lines.
* **HTTP** — ``POST /v1`` with a request envelope body; ``GET /v1/status``
  as a convenience for the status op; ``GET /metrics`` serving the
  Prometheus text exposition for scrapers. Built on the stdlib
  :class:`ThreadingHTTPServer`; the session's reader/writer lock provides
  the concurrency discipline (parallel reads, serialized updates).
"""

from __future__ import annotations

import json
import sys
import threading

from ..obs import telemetry

from .protocol import (
    OPS,
    SCHEMA_VERSION,
    ProtocolError,
    Request,
    encode,
    error_response,
    ok_response,
    parse_request,
)
from .session import ProgramSession


def handle_request(session: ProgramSession, request: Request) -> dict:
    """Dispatch one parsed request to the session; exceptions become
    error envelopes (the daemon never dies on a bad request)."""
    try:
        if request.op == "analyze":
            result, meta = session.analyze(request.params)
        elif request.op == "update":
            result, meta = session.update(request.params)
        elif request.op == "explain":
            result, meta = session.explain(request.params)
        elif request.op == "status":
            result, meta = session.status()
        elif request.op == "metrics":
            result, meta = session.metrics_exposition(request.params)
        elif request.op == "shutdown":
            result, meta = {"stopping": True}, {}
        else:  # unreachable: parse_request validated op
            raise ProtocolError(f"unknown op {request.op!r}")
        return ok_response(request.id, result, meta)
    except Exception as exc:  # noqa: BLE001 — every failure goes on the wire
        return error_response(request.id, exc)


def ready_line() -> str:
    return json.dumps(
        {
            "ready": True,
            "ok": True,
            "schema_version": SCHEMA_VERSION,
            "ops": list(OPS),
        },
        sort_keys=True,
    )


def serve_stdio(session: ProgramSession, stdin=None, stdout=None) -> int:
    """The JSON-lines loop: read envelopes from stdin until EOF or a
    ``shutdown`` op, answer each on stdout."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stdout.write(ready_line() + "\n")
    stdout.flush()
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            request_id = None
            try:
                decoded = json.loads(line)
                if isinstance(decoded, dict):
                    request_id = decoded.get("id")
            except json.JSONDecodeError:
                pass
            stdout.write(encode(error_response(request_id, exc)) + "\n")
            stdout.flush()
            continue
        response = handle_request(session, request)
        stdout.write(encode(response) + "\n")
        stdout.flush()
        if request.op == "shutdown" and response["ok"]:
            break
    return 0


def serve_http(
    session: ProgramSession, port: int, host: str = "127.0.0.1"
) -> int:
    """Serve ``POST /v1`` (request envelopes) and ``GET /v1/status`` until
    a ``shutdown`` op arrives or the process is interrupted."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    shutting_down = threading.Event()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):  # stderr, not stdout
            sys.stderr.write(
                f"serve: {self.address_string()} {fmt % args}\n"
            )

        def _send(self, payload: dict, code: int = 200) -> None:
            body = encode(payload).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_text(
            self, body: str, content_type: str, code: int = 200
        ) -> None:
            raw = body.encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

        def do_GET(self):  # noqa: N802 — stdlib naming
            path = self.path.partition("?")[0]
            if path == "/v1/status":
                self._send(handle_request(session, Request(op="status")))
            elif path == "/metrics":
                self._send_text(
                    telemetry.render_prometheus(), telemetry.CONTENT_TYPE
                )
            else:
                self._send(
                    error_response(
                        None,
                        ProtocolError(
                            "GET serves /v1/status, /metrics"
                        ),
                    ),
                    code=404,
                )

        def do_POST(self):  # noqa: N802 — stdlib naming
            if self.path != "/v1":
                self._send(
                    error_response(None, ProtocolError("POST serves /v1 only")),
                    code=404,
                )
                return
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length)
            try:
                request = parse_request(body.decode("utf-8", "replace"))
            except ProtocolError as exc:
                self._send(error_response(None, exc), code=400)
                return
            response = handle_request(session, request)
            self._send(response, code=200 if response["ok"] else 422)
            if request.op == "shutdown" and response["ok"]:
                shutting_down.set()
                threading.Thread(target=server.shutdown, daemon=True).start()

    server = ThreadingHTTPServer((host, port), Handler)
    sys.stderr.write(
        f"serve: listening on http://{host}:{server.server_address[1]}/v1\n"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0
