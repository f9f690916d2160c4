"""The wire protocol: length-prefixed frames with JSON payloads.

A frame is a 4-byte big-endian length ``N`` followed by ``N`` body
bytes; the first body byte is the opcode, the rest (optional) is a
UTF-8 JSON object.  ``N`` therefore is ``1 + len(payload)`` and must
satisfy ``1 <= N <= max_frame`` — a zero-length or oversized header is
a framing error and the connection is closed, since the stream can no
longer be trusted.

The conversation::

    client                          server
    HELLO {token}              ->
                               <-   HELLO_OK {tenant, policy, ...}
    PREPARE {sql}              ->
                               <-   PREPARED {stmt_id, num_params}
    EXECUTE {query_id, sql|stmt_id, params, ...}  ->
                               <-   RESULT {query_id, columns, rows,
                                            more, stats}   (async)
    FETCH {query_id}           ->
                               <-   ROWS {query_id, rows, more}
    CANCEL {query_id}          ->
                               <-   CANCELLED {query_id, cancelled}
    STATS {}                   ->
                               <-   STATS_REPLY {tenants, engine, ...}
    METRICS {}                 ->
                               <-   METRICS_REPLY {content_type, text}
    FLIGHT_RECORDER {limit?}   ->
                               <-   FLIGHT_RECORDER_REPLY {capacity,
                                            recorded, dropped, records}
    CLOSE {}                   ->
                               <-   BYE {}

An EXECUTE may set ``"trace": true``; its RESULT then carries a
``trace`` object — the query's distributed span tree (wall-clock
worker phases + modelled engine spans, correlated by query_id /
tenant / worker / stream) ready for
:func:`repro.obs.telemetry.distributed_chrome_trace`.  ERROR frames
that belong to a query carry its ``flight_record``.

``query_id`` is chosen by the client (unique per connection), so
CANCEL can race EXECUTE without a round trip.  RESULT and ERROR
frames for an EXECUTE arrive asynchronously — the server keeps
reading while queries run, which is what makes CANCEL and STATS work
mid-flight.  Structured ERROR frames carry a stable ``code`` (see
:class:`ErrorCode`), a human ``message``, the ``query_id`` when the
error belongs to one query, and ``retry_after_s`` on backpressure.

Values are JSON scalars except dates, which travel as
``{"__date__": "YYYY-MM-DD"}`` so row tuples round-trip bit-identical
(Python's JSON float codec is exact shortest-round-trip; NaN uses the
JSON superset literal both ends of this protocol accept).
"""

from __future__ import annotations

import datetime
import json
from enum import IntEnum

from ..errors import ReproError

PROTOCOL_VERSION = 1

#: Frames above this are rejected before the body is read.
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

HEADER_SIZE = 4


class FrameError(ReproError):
    """The byte stream violates the framing rules (unrecoverable)."""


class Opcode(IntEnum):
    """Every frame type; new opcodes must register a conformance row
    in ``tests/test_net_protocol.py``."""

    HELLO = 1
    HELLO_OK = 2
    PREPARE = 3
    PREPARED = 4
    EXECUTE = 5
    RESULT = 6
    FETCH = 7
    ROWS = 8
    CANCEL = 9
    CANCELLED = 10
    CLOSE = 11
    BYE = 12
    STATS = 13
    STATS_REPLY = 14
    ERROR = 15
    METRICS = 16
    METRICS_REPLY = 17
    FLIGHT_RECORDER = 18
    FLIGHT_RECORDER_REPLY = 19


class ErrorCode:
    """Stable machine-readable ``code`` values for ERROR frames."""

    AUTH_FAILED = "auth_failed"
    BACKPRESSURE = "backpressure"
    BAD_FRAME = "bad_frame"
    BAD_REQUEST = "bad_request"
    CANCELLED = "cancelled"
    DEADLINE_EXCEEDED = "deadline_exceeded"
    INTERNAL = "internal"
    QUERY_ERROR = "query_error"
    REJECTED = "rejected"
    SHUTTING_DOWN = "shutting_down"
    UNKNOWN_OPCODE = "unknown_opcode"
    UNKNOWN_QUERY = "unknown_query"
    UNKNOWN_STATEMENT = "unknown_statement"


def encode_frame(opcode: int, payload: dict | None = None) -> bytes:
    """One frame as bytes: header + opcode byte + compact JSON."""
    if not 0 <= int(opcode) <= 255:
        raise FrameError(f"opcode {opcode!r} does not fit one byte")
    body = bytes([int(opcode)])
    if payload:
        body += json.dumps(
            payload, separators=(",", ":"), ensure_ascii=False,
        ).encode("utf-8")
    return len(body).to_bytes(HEADER_SIZE, "big") + body


def decode_body(body: bytes) -> tuple[int, dict]:
    """Opcode + payload from one frame body (without the header)."""
    if not body:
        raise FrameError("zero-length frame")
    opcode = body[0]
    rest = body[1:]
    if not rest:
        return opcode, {}
    try:
        payload = json.loads(rest.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"malformed frame payload: {exc}") from None
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return opcode, payload


class FrameDecoder:
    """Incremental frame parser for a byte stream.

    ``feed`` accepts any chunking — single bytes, whole frames,
    several frames at once — and returns the complete frames it can
    assemble, holding partial input for the next call.  Oversized and
    zero-length headers raise :class:`FrameError` immediately (before
    the body arrives); a decoder that raised must not be fed again.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME):
        if max_frame < 1:
            raise ValueError("max_frame must be positive")
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, dict]]:
        self._buffer += data
        frames: list[tuple[int, dict]] = []
        while True:
            if len(self._buffer) < HEADER_SIZE:
                return frames
            length = int.from_bytes(self._buffer[:HEADER_SIZE], "big")
            if length < 1:
                raise FrameError("zero-length frame")
            if length > self.max_frame:
                raise FrameError(
                    f"frame of {length} B exceeds the {self.max_frame} B limit"
                )
            if len(self._buffer) < HEADER_SIZE + length:
                return frames
            body = bytes(self._buffer[HEADER_SIZE:HEADER_SIZE + length])
            del self._buffer[:HEADER_SIZE + length]
            frames.append(decode_body(body))


async def read_frame(reader, max_frame: int = DEFAULT_MAX_FRAME):
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`FrameError` on oversized/zero-length headers and
    ``ConnectionError`` on mid-frame EOF (a short read).
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ConnectionError("connection closed inside a frame header")
    length = int.from_bytes(header, "big")
    if length < 1:
        raise FrameError("zero-length frame")
    if length > max_frame:
        raise FrameError(
            f"frame of {length} B exceeds the {max_frame} B limit"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ConnectionError("connection closed inside a frame body")
    return decode_body(body)


# ---------------------------------------------------------------------------
# row value codec
# ---------------------------------------------------------------------------


def encode_value(value):
    """A result cell as a JSON-safe value (dates get a type tag)."""
    if isinstance(value, datetime.date):
        return {"__date__": value.isoformat()}
    return value


def decode_value(value):
    if isinstance(value, dict) and "__date__" in value:
        return datetime.date.fromisoformat(value["__date__"])
    return value


def encode_rows(rows) -> list[list]:
    return [[encode_value(v) for v in row] for row in rows]


def decode_rows(rows) -> list[tuple]:
    return [tuple(decode_value(v) for v in row) for row in rows]


def error_payload(
    code: str,
    message: str,
    query_id: int | None = None,
    retry_after_s: float | None = None,
    flight_record: dict | None = None,
) -> dict:
    payload = {"code": code, "message": message}
    if query_id is not None:
        payload["query_id"] = query_id
    if retry_after_s is not None:
        payload["retry_after_s"] = retry_after_s
    if flight_record is not None:
        payload["flight_record"] = flight_record
    return payload
