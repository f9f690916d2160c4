"""Wire-protocol conformance: framing, codec, and the opcode table.

The CONFORMANCE table is the protocol's registration ledger: every
:class:`~repro.net.protocol.Opcode` must have a golden example payload
here, and the table/enum sets are asserted equal — adding an opcode
without registering a conformance row fails the suite by design.

The rest covers the framing layer's failure modes (short reads,
zero-length and oversized headers, bad JSON) and the value codec's
bit-identity guarantees (dates, NaN, shortest-round-trip floats,
unicode) that the e2e suite's solo-vs-wire comparisons rest on.
"""

from __future__ import annotations

import datetime
import math

import pytest

from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    HEADER_SIZE,
    ErrorCode,
    FrameDecoder,
    FrameError,
    Opcode,
    decode_body,
    decode_rows,
    decode_value,
    encode_frame,
    encode_rows,
    encode_value,
    error_payload,
)

# One golden payload per opcode.  Every Opcode member MUST appear here
# exactly once; test_every_opcode_registered enforces it.
CONFORMANCE = [
    (Opcode.HELLO, {"token": "alpha-token", "version": 1}),
    (Opcode.HELLO_OK, {"tenant": "alpha", "priority": 10, "weight": 3.0,
                       "policy": "fair", "fetch_size": 1024,
                       "max_frame": DEFAULT_MAX_FRAME, "version": 1}),
    (Opcode.PREPARE, {"sql": "SELECT * FROM orders WHERE o_custkey = $1"}),
    (Opcode.PREPARED, {"stmt_id": 1, "num_params": 1}),
    (Opcode.EXECUTE, {"query_id": 7, "sql": "SELECT 1 FROM region",
                      "deadline_s": 2.5, "fetch_size": 100}),
    (Opcode.RESULT, {"query_id": 7, "columns": ["o_orderkey"],
                     "rows": [[1], [2]], "num_rows": 2, "more": False,
                     "stats": {"total_ns": 1234.0, "path": "nested",
                               "plan_cache_hit": True}}),
    (Opcode.FETCH, {"query_id": 7}),
    (Opcode.ROWS, {"query_id": 7, "rows": [[3], [4]], "more": True}),
    (Opcode.CANCEL, {"query_id": 7}),
    (Opcode.CANCELLED, {"query_id": 7, "cancelled": True}),
    (Opcode.CLOSE, {}),
    (Opcode.BYE, {}),
    (Opcode.STATS, {}),
    (Opcode.STATS_REPLY, {"server": {"connections": 1},
                          "tenants": {"alpha": {"queries": 3}}}),
    (Opcode.ERROR, error_payload("backpressure", "queue full",
                                 query_id=7, retry_after_s=0.05,
                                 flight_record={"seq": 7, "outcome": "error",
                                                "tenant": "alpha"})),
    (Opcode.METRICS, {}),
    (Opcode.METRICS_REPLY, {
        "content_type": "text/plain; version=0.0.4; charset=utf-8",
        "text": "# TYPE repro_session_queries counter\n"
                "repro_session_queries_total 3\n"}),
    (Opcode.FLIGHT_RECORDER, {"limit": 100}),
    (Opcode.FLIGHT_RECORDER_REPLY, {
        "capacity": 1024, "recorded": 2, "dropped": 0,
        "records": [{"seq": 0, "tenant": "alpha", "outcome": "ok",
                     "latency_ms": 12.5},
                    {"seq": 1, "tenant": "beta", "outcome": "deadline",
                     "latency_ms": 55.0}]}),
]


def test_every_opcode_registered():
    registered = [opcode for opcode, _ in CONFORMANCE]
    assert len(registered) == len(set(registered)), "duplicate rows"
    assert set(registered) == set(Opcode), (
        "every Opcode needs exactly one CONFORMANCE row; unregistered: "
        f"{set(Opcode) - set(registered)}"
    )


@pytest.mark.parametrize(
    "opcode,payload", CONFORMANCE, ids=[o.name for o, _ in CONFORMANCE],
)
def test_frame_round_trip(opcode, payload):
    frame = encode_frame(opcode, payload)
    length = int.from_bytes(frame[:HEADER_SIZE], "big")
    assert length == len(frame) - HEADER_SIZE
    assert frame[HEADER_SIZE] == int(opcode)
    got_opcode, got_payload = decode_body(frame[HEADER_SIZE:])
    assert got_opcode == opcode
    assert got_payload == payload


@pytest.mark.parametrize(
    "opcode,payload", CONFORMANCE, ids=[o.name for o, _ in CONFORMANCE],
)
def test_decoder_survives_byte_by_byte_feeding(opcode, payload):
    """Any chunking assembles the same frames — TCP gives no more."""
    frame = encode_frame(opcode, payload)
    decoder = FrameDecoder()
    frames = []
    for i in range(len(frame)):
        frames.extend(decoder.feed(frame[i:i + 1]))
        if i < len(frame) - 1:
            assert not frames, "frame delivered before its last byte"
    assert frames == [(opcode, payload)]
    # nothing is left behind: the next frame decodes on its own
    assert decoder.feed(frame) == [(opcode, payload)]


def test_decoder_multiple_frames_in_one_chunk():
    blob = b"".join(encode_frame(op, pl) for op, pl in CONFORMANCE)
    frames = FrameDecoder().feed(blob)
    assert frames == [(op, pl) for op, pl in CONFORMANCE]


def test_decoder_holds_partial_trailing_frame():
    a = encode_frame(Opcode.FETCH, {"query_id": 1})
    b = encode_frame(Opcode.FETCH, {"query_id": 2})
    decoder = FrameDecoder()
    frames = decoder.feed(a + b[:5])
    assert frames == [(Opcode.FETCH, {"query_id": 1})]
    # the five held bytes complete with the rest of the frame
    assert decoder.feed(b[5:]) == [(Opcode.FETCH, {"query_id": 2})]


def test_zero_length_frame_rejected():
    with pytest.raises(FrameError, match="zero-length"):
        FrameDecoder().feed((0).to_bytes(HEADER_SIZE, "big"))


def test_oversized_frame_rejected_from_header_alone():
    """The limit trips on the 4 header bytes, before any body arrives."""
    decoder = FrameDecoder(max_frame=64)
    with pytest.raises(FrameError, match="exceeds"):
        decoder.feed((65).to_bytes(HEADER_SIZE, "big"))


def test_oversized_frame_encode_side():
    frame = encode_frame(Opcode.EXECUTE, {"sql": "x" * 100})
    with pytest.raises(FrameError, match="exceeds"):
        FrameDecoder(max_frame=32).feed(frame)


def test_malformed_json_payload():
    body = bytes([int(Opcode.EXECUTE)]) + b"{not json"
    frame = len(body).to_bytes(HEADER_SIZE, "big") + body
    with pytest.raises(FrameError, match="malformed"):
        FrameDecoder().feed(frame)


def test_non_object_payload_rejected():
    body = bytes([int(Opcode.EXECUTE)]) + b"[1,2,3]"
    with pytest.raises(FrameError, match="JSON object"):
        decode_body(body)


def test_invalid_utf8_payload_rejected():
    body = bytes([int(Opcode.EXECUTE)]) + b"\xff\xfe{}"
    with pytest.raises(FrameError, match="malformed"):
        decode_body(body)


def test_opcode_must_fit_one_byte():
    with pytest.raises(FrameError):
        encode_frame(256, {})
    with pytest.raises(FrameError):
        encode_frame(-1, {})


def test_payloadless_frame_decodes_to_empty_dict():
    frame = encode_frame(Opcode.CLOSE)
    assert FrameDecoder().feed(frame) == [(Opcode.CLOSE, {})]


# -- the value codec ------------------------------------------------------

CODEC_VALUES = [
    0,
    -(2 ** 53),
    123456789,
    0.1,
    -1e-308,
    math.pi,
    float("inf"),
    float("-inf"),
    "",
    "O'Brien é工",
    datetime.date(1995, 3, 15),
    datetime.date(1, 1, 1),
    None,
]


@pytest.mark.parametrize("value", CODEC_VALUES, ids=repr)
def test_value_round_trip_bit_identical(value):
    restored = decode_value(encode_value(value))
    assert type(restored) is type(value)
    assert repr(restored) == repr(value)


def test_nan_round_trip():
    restored = decode_value(encode_value(float("nan")))
    assert isinstance(restored, float) and math.isnan(restored)


def test_rows_round_trip_mixed_tuple():
    rows = [
        (1, 0.1 + 0.2, datetime.date(1998, 12, 1), "BUILDING"),
        (2, float("-inf"), datetime.date(1992, 1, 3), ""),
    ]
    restored = decode_rows(encode_rows(rows))
    assert restored == rows
    assert all(isinstance(r, tuple) for r in restored)
    # bit-identity, not just equality: repr is exact for floats/dates
    assert repr(restored) == repr(rows)


def test_date_encoding_is_tagged_not_stringly():
    encoded = encode_value(datetime.date(1995, 3, 15))
    assert encoded == {"__date__": "1995-03-15"}
    assert decode_value("1995-03-15") == "1995-03-15"  # plain str stays str


def test_error_payload_shape():
    payload = error_payload("rejected", "too big", query_id=3)
    assert payload == {"code": "rejected", "message": "too big",
                       "query_id": 3}
    payload = error_payload("backpressure", "full", retry_after_s=0.1)
    assert payload["retry_after_s"] == 0.1
    assert "query_id" not in payload


# -- cursor semantics over a live server ------------------------------
#
# Regression: a FETCH against a query whose RESULT frame already
# delivered every row (or that had no rows at all) used to be answered
# with an UNKNOWN_QUERY error — clients paginating defensively saw a
# spurious failure after a clean result.  A finished query with no
# cursor is a terminal empty page; only genuinely unknown ids error.


class TestFetchAfterDelivery:
    @pytest.fixture(scope="class")
    def stack(self):
        from conftest import make_rst_catalog
        from repro.net import NetServer, ServerThread, demo_registry
        from repro.serve import AsyncEngine, EngineSession

        session = EngineSession(make_rst_catalog())
        registry = demo_registry()
        engine = AsyncEngine(
            session, workers=1,
            tenant_budgets=registry.budgets(session.device_capacity_bytes),
            tenant_weights=registry.weights(),
        )
        server = ServerThread(NetServer(engine, registry)).start()
        yield server
        engine.shutdown(drain=False, timeout=10.0)
        server.stop()
        session.close()

    @pytest.fixture()
    def client(self, stack):
        from repro.net import ReproNetClient

        with ReproNetClient(
            stack.host, stack.port, token="alpha-token",
        ) as c:
            yield c

    def fetch(self, client, query_id):
        client.send_frame(Opcode.FETCH, {"query_id": query_id})
        return client.recv_frame()

    def test_fetch_after_zero_row_result(self, client):
        query_id = client.execute(
            "SELECT r_col1 FROM r WHERE r_col1 < 0", wait=False,
        )
        result = client.wait(query_id)
        assert result.num_rows == 0
        opcode, payload = self.fetch(client, query_id)
        assert opcode == Opcode.ROWS
        assert payload == {"query_id": query_id, "rows": [],
                           "more": False, "done": True}

    def test_fetch_after_fully_delivered_result(self, client):
        query_id = client.execute("SELECT r_col1 FROM r", wait=False)
        result = client.wait(query_id)
        assert result.num_rows > 0
        opcode, payload = self.fetch(client, query_id)
        assert opcode == Opcode.ROWS
        assert payload["rows"] == [] and payload["done"] is True

    def test_fetch_after_drained_cursor(self, client):
        # paginate a multi-page result to exhaustion, then over-fetch
        query_id = client.execute(
            "SELECT r_col1 FROM r", fetch_size=7, wait=False,
        )
        opcode, payload = client._recv_for_query(
            query_id, (Opcode.RESULT,),
        )
        assert opcode == Opcode.RESULT and payload["more"]
        rows = list(payload["rows"])
        done = False
        while not done:
            opcode, page = self.fetch(client, query_id)
            assert opcode == Opcode.ROWS
            rows.extend(page["rows"])
            done = page["done"]
            assert page["done"] is (not page["more"])
        assert len(rows) == payload["num_rows"]
        opcode, extra = self.fetch(client, query_id)
        assert opcode == Opcode.ROWS
        assert extra["rows"] == [] and extra["done"] is True

    def test_unknown_query_id_still_errors(self, client):
        opcode, payload = self.fetch(client, 424242)
        assert opcode == Opcode.ERROR
        assert payload["code"] == ErrorCode.UNKNOWN_QUERY

    def test_row_pages_carry_done_flag(self, client):
        query_id = client.execute(
            "SELECT r_col1 FROM r", fetch_size=25, wait=False,
        )
        opcode, payload = client._recv_for_query(
            query_id, (Opcode.RESULT,),
        )
        assert payload["more"]
        opcode, page = self.fetch(client, query_id)
        assert page["done"] is True and page["more"] is False
        assert len(payload["rows"]) + len(page["rows"]) == payload["num_rows"]
