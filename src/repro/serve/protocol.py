"""The v1 serve wire protocol: one envelope for both transports.

Requests (one JSON object per stdio line, or one HTTP POST body)::

    {"id": 7, "op": "analyze", "params": {...}, "schema_version": 1}

``id`` is the client's correlation token, echoed verbatim. ``op`` is one
of :data:`OPS`. ``params`` is op-specific and validated by the session.
``schema_version`` is optional on requests (assumed current) but rejected
when it names a version this build does not speak.

Responses::

    {"id": 7, "ok": true,  "result": {...}, "meta": {...}, "schema_version": 1}
    {"id": 7, "ok": false, "error": {"type": "ValueError", "message": "..."},
     "schema_version": 1}

``meta`` carries the per-request accounting the daemon exists to provide:
seconds, jobs run, ``verdicts_reused`` (answered from retained state),
``invalidated_edges`` (for updates), and cache-tier attribution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from ..clients.result import WIRE_SCHEMA_VERSION

SCHEMA_VERSION = WIRE_SCHEMA_VERSION

OPS = (
    "analyze",
    "update",
    "explain",
    "status",
    "shutdown",
    "metrics",
)


class ProtocolError(ValueError):
    """A malformed request envelope (bad JSON, unknown op, wrong shape)."""


@dataclass
class Request:
    op: str
    id: Any = None
    params: dict = field(default_factory=dict)


def parse_request(data) -> Request:
    """Validate one decoded request envelope. Raises :class:`ProtocolError`
    with a message naming what was wrong and what the schema accepts."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(data).__name__}"
        )
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ProtocolError(
            f"unsupported schema_version {version!r}: this daemon speaks"
            f" version {SCHEMA_VERSION}"
        )
    unknown = sorted(set(data) - {"id", "op", "params", "schema_version"})
    if unknown:
        raise ProtocolError(
            f"unknown request field(s) {', '.join(unknown)}; the envelope"
            " takes id, op, params, schema_version"
        )
    op = data.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            f"params must be a JSON object, got {type(params).__name__}"
        )
    return Request(op=op, id=data.get("id"), params=params)


def ok_response(
    request_id: Any, result: dict, meta: Optional[dict] = None
) -> dict:
    return {
        "id": request_id,
        "ok": True,
        "result": result,
        "meta": meta or {},
        "schema_version": SCHEMA_VERSION,
    }


def error_response(request_id: Any, exc: BaseException) -> dict:
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "schema_version": SCHEMA_VERSION,
    }


def encode(response: dict) -> str:
    """One response as a single JSON line (the stdio framing)."""
    return json.dumps(response, sort_keys=True, default=str)
