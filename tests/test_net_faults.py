"""Fault injection against the network server over real sockets.

The guarantees a network front end must keep when clients misbehave:

* an abrupt client disconnect mid-EXECUTE cancels the connection's
  tickets and **releases every admission reservation** — checked
  against the AdmissionController's own accounting, not the server's
  word for it;
* a server drain leaves no non-terminal ticket and new EXECUTEs get a
  structured ``shutting_down`` error;
* deadline expiry in the queue surfaces as ERROR
  ``deadline_exceeded``; backpressure carries ``retry_after_s``;
* framing violations kill the connection with ERROR ``bad_frame``;
  an unknown opcode is survivable.

Slow queries are injected by wrapping ``session.run`` in a sleep, so
the engine's real admission/cancel paths run — only the device work is
stretched.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.net import (
    ErrorCode,
    NetClientError,
    NetServer,
    Opcode,
    ReproNetClient,
    ServerThread,
    demo_registry,
    encode_frame,
)
from repro.net.protocol import HEADER_SIZE
from repro.serve import AsyncEngine, EngineSession
from repro.tpch import generate_tpch

SCALE = 0.02
SQL = "SELECT o_orderkey FROM orders WHERE o_totalprice > 1000"
SETTLE_TIMEOUT = 30.0


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(SCALE)


class Harness:
    """Session + engine + ServerThread with optional slow execution."""

    def __init__(self, catalog, run_delay_s=0.0, **engine_kwargs):
        self.session = EngineSession(catalog)
        if run_delay_s:
            original = self.session.run

            def slow_run(*args, **kwargs):
                time.sleep(run_delay_s)
                return original(*args, **kwargs)

            self.session.run = slow_run
        registry = demo_registry()
        engine_kwargs.setdefault(
            "tenant_budgets",
            registry.budgets(self.session.device_capacity_bytes),
        )
        engine_kwargs.setdefault("tenant_weights", registry.weights())
        self.engine = AsyncEngine(self.session, **engine_kwargs)
        self.server = ServerThread(NetServer(self.engine, registry)).start()

    def client(self, token="alpha-token", **kwargs) -> ReproNetClient:
        return ReproNetClient(
            self.server.host, self.server.port, token=token, **kwargs,
        )

    def settle(self, timeout=SETTLE_TIMEOUT) -> None:
        """Wait until every accepted query is terminal AND released.

        A ticket turns terminal a beat before the worker's ``finally``
        returns its admission reservation, so settling on statuses
        alone races the ledger by microseconds.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            terminal = all(
                q.status not in ("queued", "waiting", "running")
                for q in self.engine.report().queries
            )
            if (terminal and self.engine.admission.in_use == 0
                    and self.engine.admission.waiting == 0):
                return
            time.sleep(0.02)
        raise AssertionError(
            "engine did not settle: "
            + repr([(q.seq, q.status)
                    for q in self.engine.report().queries])
            + f" in_use={self.engine.admission.in_use}"
            + f" waiting={self.engine.admission.waiting}"
        )

    def close(self):
        self.engine.shutdown(drain=False, timeout=10.0)
        self.server.stop()
        self.session.close()


@pytest.fixture
def slow(catalog):
    harness = Harness(catalog, run_delay_s=0.3, workers=1)
    yield harness
    harness.close()


@pytest.fixture
def fast(catalog):
    harness = Harness(catalog, workers=2)
    yield harness
    harness.close()


class TestClientDisconnect:
    def test_kill_mid_execute_releases_everything(self, slow):
        """The load-bearing fault guarantee, asserted on the ledger."""
        client = slow.client()
        # one running + two queued behind the 0.3 s sleep
        for _ in range(3):
            client.execute(SQL, wait=False)
        time.sleep(0.1)  # let the worker pick up the first
        client.kill()

        slow.settle()
        admission = slow.engine.admission
        assert admission.in_use == 0, "reservation leaked after disconnect"
        assert admission.waiting == 0
        usage = admission.tenant_usage()
        assert usage["alpha"]["in_use_bytes"] == 0
        assert usage["alpha"]["in_flight"] == 0
        # the queued tickets were cancelled, not run
        statuses = [q.status for q in slow.engine.report().queries]
        assert statuses.count("cancelled") >= 2
        assert all(s in ("done", "cancelled") for s in statuses)

    def test_disconnect_does_not_disturb_other_connections(self, slow):
        victim = slow.client()
        survivor = slow.client(token="beta-token")
        victim.execute(SQL, wait=False)
        victim.execute(SQL, wait=False)
        victim.kill()
        # the survivor's query runs to completion on the same engine
        result = survivor.execute(SQL)
        assert result.num_rows > 0
        survivor.close()
        slow.settle()
        assert slow.engine.admission.in_use == 0


class TestDrain:
    def test_drain_terminalizes_and_refuses_new_work(self, fast):
        client = fast.client()
        qids = [client.execute(SQL, wait=False) for _ in range(4)]
        # frames are processed in order per connection, so a STATS
        # round-trip guarantees every EXECUTE above has been accepted
        # before the drain flag flips
        client.stats()
        assert fast.server.drain(timeout=60.0)
        # no non-terminal ticket survives a drain
        assert all(q.status in ("done", "rejected", "error", "cancelled")
                   for q in fast.engine.report().queries)
        # accepted work was delivered, not dropped
        for qid in qids:
            assert client.wait(qid).num_rows > 0
        # new EXECUTEs are refused with a structured code
        with pytest.raises(NetClientError) as exc_info:
            client.execute(SQL)
        assert exc_info.value.code == ErrorCode.SHUTTING_DOWN
        client.close()


class TestDeadlines:
    def test_queue_deadline_expiry_is_structured(self, slow):
        client = slow.client()
        client.execute(SQL, wait=False)          # occupies the one worker
        time.sleep(0.05)
        qid = client.execute(SQL, deadline_s=0.01, wait=False)
        with pytest.raises(NetClientError) as exc_info:
            client.wait(qid)
        assert exc_info.value.code == ErrorCode.DEADLINE_EXCEEDED
        client.close()
        slow.settle()
        assert slow.engine.admission.in_use == 0


class TestBadMode:
    """The mode arrives unchecked from the wire; the compile pipeline's
    entry check turns it into a query error, never a silent auto run."""

    def test_execute_with_unknown_mode_is_a_query_error(self, fast):
        client = fast.client()
        with pytest.raises(NetClientError) as exc_info:
            client.execute(SQL, mode="bogus")
        assert exc_info.value.code == ErrorCode.QUERY_ERROR
        assert "unknown mode" in str(exc_info.value)
        fast.settle()
        assert fast.engine.admission.in_use == 0
        assert len(fast.session.plan_cache) == 0
        # the connection and the engine keep working
        assert client.execute(SQL).num_rows > 0
        client.close()

    def test_prepared_statement_mode_is_checked_on_execute(self, fast):
        client = fast.client()
        stmt_id = client.prepare(SQL, mode="bogus")
        with pytest.raises(NetClientError) as exc_info:
            client.execute(stmt_id=stmt_id)
        assert exc_info.value.code == ErrorCode.QUERY_ERROR
        fast.settle()
        assert fast.engine.admission.in_use == 0
        client.close()


class TestExecuteParams:
    """A prepared statement's parameters arrive unchecked from the wire:
    anything but a JSON array of finite values is a bad request."""

    TEMPLATE = ("SELECT o_orderkey FROM orders "
                "WHERE o_orderpriority = $1 OR o_orderpriority = $2")

    def test_params_must_be_an_array(self, fast):
        client = fast.client()
        stmt_id = client.prepare(self.TEMPLATE)
        for query_id, params in ((1001, "ab"), (1002, {"a": 1, "b": 2})):
            client.send_frame(Opcode.EXECUTE, {
                "query_id": query_id, "stmt_id": stmt_id, "params": params,
            })
            with pytest.raises(NetClientError) as exc_info:
                client.wait(query_id)
            assert exc_info.value.code == ErrorCode.BAD_REQUEST
        assert client.execute(stmt_id=stmt_id, params=("a", "b")).num_rows == 0
        client.close()

    def test_float_params_bind_or_are_refused(self, fast):
        client = fast.client()
        stmt_id = client.prepare(
            "SELECT count(*) AS c FROM orders WHERE o_totalprice > $1"
        )
        assert client.execute(stmt_id=stmt_id, params=(1e20,)).num_rows == 1
        with pytest.raises(NetClientError) as exc_info:
            client.execute(stmt_id=stmt_id, params=(float("nan"),))
        assert exc_info.value.code == ErrorCode.BAD_REQUEST
        client.close()


class TestExecuteLimits:
    """``deadline_s`` and ``fetch_size`` arrive unchecked from the wire:
    anything but a finite number >= 0 / a positive integer is a bad
    request, answered on a connection that keeps working."""

    @pytest.mark.parametrize("field, bad", [
        ("deadline_s", "soon"),
        ("fetch_size", "x"),
    ])
    def test_bad_limit_is_a_bad_request(self, fast, field, bad):
        client = fast.client(timeout_s=10.0)
        client.send_frame(Opcode.EXECUTE, {
            "query_id": 2001, "sql": SQL, field: bad,
        })
        with pytest.raises(NetClientError) as exc_info:
            client.wait(2001)
        assert exc_info.value.code == ErrorCode.BAD_REQUEST
        assert field in str(exc_info.value)
        fast.settle()
        assert fast.engine.admission.in_use == 0
        assert client.execute(SQL).num_rows > 0
        client.close()


class TestBackpressure:
    def test_full_queue_carries_retry_after(self, catalog):
        harness = Harness(
            catalog, run_delay_s=0.3, workers=1, queue_capacity=1,
        )
        try:
            client = harness.client()
            client.execute(SQL, wait=False)      # dequeued by the worker
            time.sleep(0.1)
            client.execute(SQL, wait=False)      # fills the queue
            with pytest.raises(NetClientError) as exc_info:
                client.execute(SQL)
            assert exc_info.value.code == ErrorCode.BACKPRESSURE
            assert exc_info.value.retry_after_s > 0
            client.close()
            harness.settle()
        finally:
            harness.close()


class TestCancel:
    def test_cancel_queued_query_acks_and_errors_the_wait(self, slow):
        client = slow.client()
        client.execute(SQL, wait=False)          # occupies the worker
        time.sleep(0.05)
        qid = client.execute(SQL, wait=False)
        assert client.cancel(qid) is True
        with pytest.raises(NetClientError) as exc_info:
            client.wait(qid)
        assert exc_info.value.code == ErrorCode.CANCELLED
        client.close()
        slow.settle()
        assert slow.engine.admission.in_use == 0

    def test_cancel_unknown_query_is_an_ack_not_an_error(self, fast):
        client = fast.client()
        assert client.cancel(999) is False
        # the connection is still healthy
        assert client.execute(SQL).num_rows > 0
        client.close()


class TestFraming:
    def test_oversized_header_kills_connection_with_bad_frame(self, fast):
        client = fast.client()
        huge = (64 * 1024 * 1024).to_bytes(HEADER_SIZE, "big")
        client._sock.sendall(huge)
        opcode, payload = client.recv_frame()
        assert opcode == Opcode.ERROR
        assert payload["code"] == ErrorCode.BAD_FRAME
        with pytest.raises(ConnectionError):
            while True:
                client.recv_frame()
        client.kill()

    def test_malformed_json_kills_connection_with_bad_frame(self, fast):
        client = fast.client()
        body = bytes([int(Opcode.EXECUTE)]) + b"{broken"
        client._sock.sendall(len(body).to_bytes(HEADER_SIZE, "big") + body)
        opcode, payload = client.recv_frame()
        assert opcode == Opcode.ERROR
        assert payload["code"] == ErrorCode.BAD_FRAME
        client.kill()

    def test_unknown_opcode_is_survivable(self, fast):
        client = fast.client()
        client._sock.sendall(encode_frame(99, {"x": 1}))
        opcode, payload = client.recv_frame()
        assert opcode == Opcode.ERROR
        assert payload["code"] == ErrorCode.UNKNOWN_OPCODE
        # framing intact: the connection keeps working
        assert client.execute(SQL).num_rows > 0
        client.close()


class TestHandshake:
    def test_bad_token_rejected(self, fast):
        with pytest.raises(NetClientError) as exc_info:
            fast.client(token="wrong")
        assert exc_info.value.code == ErrorCode.AUTH_FAILED

    def test_wrong_protocol_version_rejected(self, fast):
        sock = socket.create_connection(
            (fast.server.host, fast.server.port), timeout=10,
        )
        try:
            sock.sendall(encode_frame(
                Opcode.HELLO, {"token": "alpha-token", "version": 99},
            ))
            from repro.net import FrameDecoder

            decoder = FrameDecoder()
            frames = []
            while not frames:
                frames = decoder.feed(sock.recv(65536))
            opcode, payload = frames[0]
            assert opcode == Opcode.ERROR
            assert payload["code"] == ErrorCode.BAD_REQUEST
        finally:
            sock.close()

    def test_first_frame_must_be_hello(self, fast):
        sock = socket.create_connection(
            (fast.server.host, fast.server.port), timeout=10,
        )
        try:
            sock.sendall(encode_frame(Opcode.STATS))
            from repro.net import FrameDecoder

            decoder = FrameDecoder()
            frames = []
            while not frames:
                frames = decoder.feed(sock.recv(65536))
            opcode, payload = frames[0]
            assert opcode == Opcode.ERROR
            assert payload["code"] == ErrorCode.BAD_REQUEST
        finally:
            sock.close()

    def test_duplicate_query_id_rejected(self, fast):
        client = fast.client()
        qid = client.execute(SQL, wait=False)
        client.send_frame(Opcode.EXECUTE, {"query_id": qid, "sql": SQL})
        # two frames now answer qid: the duplicate's immediate
        # rejection and the original's RESULT; order is not guaranteed
        outcomes = []
        for _ in range(2):
            try:
                outcomes.append(client.wait(qid))
            except NetClientError as exc:
                outcomes.append(exc)
        codes = [o.code for o in outcomes if isinstance(o, NetClientError)]
        assert codes == [ErrorCode.BAD_REQUEST]
        results = [o for o in outcomes if not isinstance(o, NetClientError)]
        assert len(results) == 1 and results[0].num_rows > 0
        client.close()
