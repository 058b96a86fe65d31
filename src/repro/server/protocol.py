"""The daemon's wire protocol: line-delimited JSON with typed errors.

One request object per line, one response object per line, in order,
over a plain TCP stream.  Every request carries a client-chosen ``id``
that the matching response echoes, so a client can pipeline requests
and correlate answers; a connection starts with a versioned ``hello``
handshake and every later line is a query::

    -> {"id": 0, "type": "hello", "version": 1}
    <- {"id": 0, "ok": true, "result": {"server": "repro", ...}}
    -> {"id": 1, "type": "implies", "bundle": {...}, "nfd": "R:[a -> b]"}
    <- {"id": 1, "ok": true, "result": {"implied": true, ...}}

Responses are either ``{"id", "ok": true, "result": {...}}`` or a
*typed error* ``{"id", "ok": false, "error": CODE, "message": ...}`` —
the daemon never answers a malformed or failing request with silence,
a hang, or a stack trace.  The error codes are enumerated in
:data:`ERROR_CODES`; one deserves special mention:
``deadline_exceeded`` — the request's cooperative deadline expired
mid-computation (``check`` reuses the stream engine's
:class:`~repro.nfd.stream_validate.ResourceBudget` cancellation), and
the message says how many elements were seen first.

Queries name their constraint universe by shipping a *bundle* — the
same JSON object the CLI's bundle files hold (``schema`` / ``nfds`` /
optional ``nonempty`` and ``instance``), read by the same
:func:`~repro.io.json_io.bundle_parts` that reads a bundle file — and
the daemon keys its warm state on the bundle's canonical
:func:`~repro.inference.session.sigma_fingerprint`, so any client
spelling the same logical Σ shares the compiled pool.  A bundle's
instance stays JSON: :func:`parse_bundle_payload` holds each row to its
relation's element type, so an ill-typed instance is ``invalid_bundle``
for every query type, and a ``check`` walks the rows as sent — frames
keep object keys in insertion order, so record fields print as the
client wrote them.
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import ReproError
from ..io.json_io import bundle_parts

__all__ = [
    "PROTOCOL_VERSION", "DEFAULT_PORT", "MAX_FRAME_BYTES",
    "ERROR_CODES", "ProtocolError",
    "encode", "decode_line", "ok_response", "error_response",
    "parse_bundle_payload",
]

#: The handshake version this build speaks.  Bump on any change that
#: an old client could misread; the server refuses mismatched hellos
#: with a ``version_mismatch`` error naming both versions.
PROTOCOL_VERSION = 1

#: The port ``repro serve`` binds when none is given (0 = ephemeral).
DEFAULT_PORT = 7399

#: Default per-line frame bound.  A line longer than this is answered
#: with ``frame_too_large`` and the connection is closed (the stream
#: position past an oversized frame is unrecoverable).
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Every error code a response may carry.
ERROR_CODES = (
    "bad_json",          # the line was not valid JSON
    "bad_request",       # valid JSON, but not a usable request object
    "frame_too_large",   # the line exceeded the frame bound
    "handshake_required",  # a query arrived before hello
    "version_mismatch",  # hello named an unsupported protocol version
    "unknown_type",      # an unrecognized request type
    "invalid_bundle",    # the bundle payload failed to parse
    "invalid_query",     # query parameters failed validation / parsing
    "deadline_exceeded",  # the cooperative deadline expired
    "shutdown_disabled",  # remote shutdown without --allow-shutdown
    "internal",          # unexpected server-side failure (no traceback
                         # crosses the wire or the daemon's stderr)
)


class ProtocolError(ReproError):
    """A request violated the wire protocol.

    Raised server-side while decoding a frame and rendered as a typed
    error response; ``code`` is one of :data:`ERROR_CODES` and
    ``close`` says whether the connection can keep serving (a JSON
    syntax error is recoverable — the stream resyncs at the next
    newline — but an oversized frame or a failed handshake is not).
    """

    def __init__(self, code: str, message: str, *, close: bool = False):
        assert code in ERROR_CODES, code
        self.code = code
        self.close = close
        super().__init__(message)


def encode(obj: dict) -> bytes:
    """One wire frame: compact JSON plus the line terminator.  Object
    keys keep their insertion order: a bundle's record fields reach
    the daemon as written, so witnesses print them as the in-process
    ``check`` does."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> dict:
    """Decode one request frame, raising :class:`ProtocolError` with
    the matching error code instead of leaking decoder exceptions."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError("bad_json",
                            f"frame is not valid UTF-8: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(
            "bad_json",
            f"frame is not valid JSON at column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            "bad_request",
            f"request must be a JSON object, found "
            f"{type(payload).__name__}")
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError(
            "bad_request",
            f'"id" must be a string or integer, found '
            f"{type(request_id).__name__}")
    request_type = payload.get("type")
    if not isinstance(request_type, str):
        raise ProtocolError(
            "bad_request",
            'request is missing the required "type" string')
    return payload


def ok_response(request_id: Any, request_type: str,
                result: dict) -> dict:
    return {"id": request_id, "ok": True, "type": request_type,
            "result": result}


def error_response(request_id: Any, code: str, message: str,
                   **extra: Any) -> dict:
    assert code in ERROR_CODES, code
    response = {"id": request_id, "ok": False, "error": code,
                "message": message}
    response.update(extra)
    return response


def parse_bundle_payload(payload: Any):
    """Parse a request's ``bundle`` object into model objects.

    The payload is the parsed form of a CLI bundle file, read by
    :func:`~repro.io.json_io.bundle_parts` under the file's rules, and
    any shape or syntax problem surfaces as a :class:`ProtocolError`
    with code ``invalid_bundle``.  Returns ``(schema, sigma, rows,
    nonempty_spec)``: the instance stays JSON, ``{relation: rows}``
    with every row held to its relation's element type, so an
    ill-typed instance is ``invalid_bundle`` whatever the query.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            "invalid_bundle",
            f'"bundle" must be a JSON object, found '
            f"{type(payload).__name__}")
    try:
        return bundle_parts(payload)
    except (ReproError, TypeError, AttributeError, KeyError) as exc:
        raise ProtocolError("invalid_bundle",
                            f"bundle does not parse: {exc}") from exc
