"""The asyncio socket server bridging connections onto the AsyncEngine.

One :class:`NetServer` owns a listening socket and a shared
:class:`~repro.serve.AsyncEngine`.  Each connection authenticates with
HELLO, then issues PREPARE / EXECUTE / FETCH / CANCEL / STATS /
METRICS / FLIGHT_RECORDER / CLOSE frames.  EXECUTE is asynchronous on the wire: the handler submits the
query to the engine (a quick, lock-bounded call), spawns a task that
awaits the ticket **off the event loop** (``run_in_executor`` over
``QueryTicket.wait``), and keeps reading — so CANCEL and STATS work
while queries run, and several queries per connection can be in
flight.  Device execution semantics are untouched: the engine's
workers run queries exactly as before; the event loop never holds the
session lock.

Fault posture:

* a client disconnect cancels every non-terminal ticket the
  connection owns — admission reservations are released by the
  engine's existing cancel path, nothing leaks;
* :meth:`NetServer.drain` stops accepting EXECUTEs (they get an
  ERROR ``shutting_down``) and blocks until the engine reports every
  accepted query terminal;
* frame-level violations (oversized header, bad JSON) get a
  structured ERROR ``bad_frame`` and the connection is closed — the
  stream cannot be re-synchronised;
* an unknown opcode is answered with ERROR ``unknown_opcode`` but the
  connection survives (framing is intact).

:class:`ServerThread` runs a server on a dedicated thread with its own
event loop — the sync harness tests, the CLI bench mode and the REPL
use it.
"""

from __future__ import annotations

import asyncio
import sys
import threading

from ..errors import ReproError
from ..obs.metrics import PROMETHEUS_CONTENT_TYPE
from ..obs.telemetry import build_trace_payload
from ..serve.concurrent import AsyncEngine, BackpressureError
from ..serve.session import SessionPrepared
from .protocol import (
    DEFAULT_MAX_FRAME,
    ErrorCode,
    FrameError,
    Opcode,
    PROTOCOL_VERSION,
    encode_frame,
    encode_rows,
    error_payload,
    read_frame,
)
from .qos import TenantRegistry

DEFAULT_FETCH_SIZE = 1024
#: The ERROR code of each terminal outcome but ``ok``.
_ERROR_CODES = {
    "rejected": ErrorCode.REJECTED,
    "cancelled": ErrorCode.CANCELLED,
    "deadline": ErrorCode.DEADLINE_EXCEEDED,
    "error": ErrorCode.QUERY_ERROR,
}


class _Connection:
    """Per-connection state: tenant, statements, in-flight queries."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.conn_id = 0  # assigned by the server (trace lane id)
        self.spec = None  # TenantSpec once HELLO succeeds
        self.statements: dict[int, SessionPrepared] = {}
        self.next_stmt_id = 1
        self.tickets: dict[int, object] = {}     # query_id -> QueryTicket
        self.cursors: dict[int, list[list]] = {}  # query_id -> undelivered rows
        self.tasks: set[asyncio.Task] = set()
        self.write_lock = asyncio.Lock()
        self.closed = False

    async def send(self, opcode: int, payload: dict | None = None) -> None:
        """Write one frame atomically (frames never interleave)."""
        async with self.write_lock:
            if self.closed:
                return
            try:
                self.writer.write(encode_frame(opcode, payload))
                await self.writer.drain()
            except (ConnectionError, OSError):
                self.closed = True

    async def send_error(self, code: str, message: str,
                         query_id: int | None = None,
                         retry_after_s: float | None = None,
                         flight_record: dict | None = None) -> None:
        await self.send(
            Opcode.ERROR,
            error_payload(code, message, query_id, retry_after_s,
                          flight_record),
        )


class NetServer:
    """The network-facing query server over one shared AsyncEngine.

    The server borrows the engine — it never shuts the engine down;
    the owner controls engine (and session) lifecycle so several
    front ends could share one engine.
    """

    def __init__(
        self,
        engine: AsyncEngine,
        registry: TenantRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = DEFAULT_MAX_FRAME,
        fetch_size: int = DEFAULT_FETCH_SIZE,
        hello_timeout_s: float = 10.0,
    ):
        self.engine = engine
        self.registry = registry
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self.fetch_size = fetch_size
        self.hello_timeout_s = hello_timeout_s
        self.draining = False
        self.connections_served = 0
        self._connections: set[_Connection] = set()
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self, timeout: float | None = None) -> bool:
        """Refuse new EXECUTEs, then wait out every accepted query.

        Returns False if the engine did not drain in ``timeout``
        seconds.  Connections stay open — clients get structured
        ``shutting_down`` errors for new work.
        """
        self.draining = True
        loop = asyncio.get_running_loop()
        drained = await loop.run_in_executor(
            None, lambda: self.engine.drain(timeout)
        )
        # let the per-query tasks deliver their RESULT/ERROR frames
        for conn in list(self._connections):
            tasks = [t for t in conn.tasks if not t.done()]
            if tasks:
                await asyncio.wait(tasks, timeout=5.0)
        return drained

    async def stop(self) -> None:
        """Close the listener and every connection (engine untouched)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            # the listener's protocol factory holds this server's
            # handler: dropping it leaves no cycle to keep the engine
            # (and its catalog) alive until a cyclic collection
            self._server = None
        for conn in list(self._connections):
            for task in conn.tasks:
                task.cancel()
            conn.closed = True
            conn.writer.close()
        self._connections.clear()

    # -- the connection handler ------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        self.connections_served += 1
        conn.conn_id = self.connections_served
        try:
            if not await self._hello(conn):
                return
            await self._frame_loop(conn)
        except (ConnectionError, OSError):
            pass  # abrupt client death: cleanup below is the contract
        finally:
            self._connections.discard(conn)
            # the load-bearing fault guarantee: a dead connection's
            # queries are cancelled, releasing queue slots and
            # admission reservations (running ones finish and release
            # in the engine worker's finally)
            for ticket in conn.tickets.values():
                if not ticket.done():
                    ticket.cancel()
            conn.closed = True
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _hello(self, conn: _Connection) -> bool:
        try:
            frame = await asyncio.wait_for(
                read_frame(conn.reader, self.max_frame), self.hello_timeout_s,
            )
        except asyncio.TimeoutError:
            await conn.send_error(ErrorCode.BAD_REQUEST, "HELLO timed out")
            return False
        except FrameError as exc:
            await conn.send_error(ErrorCode.BAD_FRAME, str(exc))
            return False
        if frame is None:
            return False
        opcode, payload = frame
        if opcode != Opcode.HELLO:
            await conn.send_error(
                ErrorCode.BAD_REQUEST, "first frame must be HELLO",
            )
            return False
        version = payload.get("version", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            await conn.send_error(
                ErrorCode.BAD_REQUEST,
                f"protocol version {version} unsupported "
                f"(server speaks {PROTOCOL_VERSION})",
            )
            return False
        spec = self.registry.authenticate(payload.get("token", ""))
        if spec is None:
            await conn.send_error(
                ErrorCode.AUTH_FAILED, "unknown tenant token",
            )
            return False
        conn.spec = spec
        await conn.send(Opcode.HELLO_OK, {
            "tenant": spec.name,
            "priority": spec.priority,
            "weight": spec.weight,
            "policy": self.engine.policy,
            "fetch_size": self.fetch_size,
            "max_frame": self.max_frame,
            "version": PROTOCOL_VERSION,
        })
        return True

    async def _frame_loop(self, conn: _Connection) -> None:
        while True:
            try:
                frame = await read_frame(conn.reader, self.max_frame)
            except FrameError as exc:
                await conn.send_error(ErrorCode.BAD_FRAME, str(exc))
                return  # framing is lost; the connection must die
            if frame is None:
                return
            opcode, payload = frame
            if opcode == Opcode.CLOSE:
                await conn.send(Opcode.BYE)
                return
            handler = self._HANDLERS.get(opcode)
            if handler is None:
                await conn.send_error(
                    ErrorCode.UNKNOWN_OPCODE,
                    f"unknown or unexpected opcode {opcode}",
                )
                continue
            await handler(self, conn, payload)

    # -- request handlers ------------------------------------------------

    async def _on_prepare(self, conn: _Connection, payload: dict) -> None:
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            await conn.send_error(
                ErrorCode.BAD_REQUEST, "PREPARE requires a sql string",
            )
            return
        try:
            statement = SessionPrepared(
                self.engine.session, sql, payload.get("mode"),
            )
        except (ValueError, ReproError) as exc:
            await conn.send_error(ErrorCode.BAD_REQUEST, str(exc))
            return
        stmt_id = conn.next_stmt_id
        conn.next_stmt_id += 1
        conn.statements[stmt_id] = statement
        await conn.send(Opcode.PREPARED, {
            "stmt_id": stmt_id, "num_params": statement.num_params,
        })

    async def _on_execute(self, conn: _Connection, payload: dict) -> None:
        query_id = payload.get("query_id")
        if not isinstance(query_id, int):
            await conn.send_error(
                ErrorCode.BAD_REQUEST, "EXECUTE requires an integer query_id",
            )
            return
        if query_id in conn.tickets:
            await conn.send_error(
                ErrorCode.BAD_REQUEST, f"query_id {query_id} already used",
                query_id,
            )
            return
        if self.draining:
            await conn.send_error(
                ErrorCode.SHUTTING_DOWN, "server is draining", query_id,
            )
            return
        mode = payload.get("mode")
        stmt_id = payload.get("stmt_id")
        if stmt_id is not None:
            statement = conn.statements.get(stmt_id)
            if statement is None:
                await conn.send_error(
                    ErrorCode.UNKNOWN_STATEMENT,
                    f"no prepared statement {stmt_id}", query_id,
                )
                return
            params = payload.get("params", [])
            try:
                if not isinstance(params, list):
                    raise TypeError("EXECUTE params must be a JSON array")
                sql = statement.bind(*params)
            except (TypeError, ValueError) as exc:
                await conn.send_error(
                    ErrorCode.BAD_REQUEST, str(exc), query_id,
                )
                return
            mode = mode or statement.mode
        else:
            sql = payload.get("sql")
            if not isinstance(sql, str) or not sql.strip():
                await conn.send_error(
                    ErrorCode.BAD_REQUEST,
                    "EXECUTE requires sql or stmt_id", query_id,
                )
                return
        deadline_s = payload.get("deadline_s")
        fetch_size = payload.get("fetch_size") or self.fetch_size
        problem = _limits_problem(deadline_s, fetch_size)
        if problem is not None:
            await conn.send_error(ErrorCode.BAD_REQUEST, problem, query_id)
            return
        try:
            ticket = self.engine.submit(
                sql,
                mode=mode,
                priority=conn.spec.priority,
                deadline_s=deadline_s,
                tenant=conn.spec.name,
                trace=bool(payload.get("trace")),
            )
        except BackpressureError as exc:
            await conn.send_error(
                ErrorCode.BACKPRESSURE, str(exc), query_id,
                retry_after_s=exc.retry_after_s,
            )
            return
        except RuntimeError as exc:
            await conn.send_error(
                ErrorCode.SHUTTING_DOWN, str(exc), query_id,
            )
            return
        conn.tickets[query_id] = ticket
        task = asyncio.create_task(
            self._deliver_result(conn, query_id, ticket, fetch_size)
        )
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)

    async def _deliver_result(self, conn, query_id, ticket, fetch_size):
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, ticket.wait)
        if conn.closed:
            return
        if ticket.status == "done":
            result = ticket.result
            rows = encode_rows(result.rows)
            first, rest = rows[:fetch_size], rows[fetch_size:]
            if rest:
                conn.cursors[query_id] = rest
            reply = {
                "query_id": query_id,
                "columns": list(result.column_names),
                "rows": first,
                "num_rows": result.num_rows,
                "more": bool(rest),
                "stats": {
                    "total_ns": result.stats.total_ns,
                    "path": result.plan_choice,
                    "plan_cache_hit": ticket.plan_cache_hit,
                    "queue_wait_ms": ticket.queue_wait_ns / 1e6,
                    "wall_run_ms": ticket.wall_run_ms,
                    "stream": ticket.stream,
                },
            }
            if ticket.spans is not None:
                reply["trace"] = {
                    **build_trace_payload(ticket),
                    "query_id": query_id,
                    "connection": conn.conn_id,
                }
            await conn.send(Opcode.RESULT, reply)
            return
        await conn.send_error(
            _ERROR_CODES[ticket.outcome], ticket.detail or ticket.status,
            query_id, flight_record=ticket.flight_dict(),
        )

    async def _on_fetch(self, conn: _Connection, payload: dict) -> None:
        query_id = payload.get("query_id")
        remaining = conn.cursors.get(query_id)
        if remaining is None:
            # a known, finished query with no cursor simply has no rows
            # left (zero-row result, or the RESULT frame delivered
            # everything): that's a terminal empty page, not an error
            ticket = conn.tickets.get(query_id)
            if ticket is not None and ticket.done():
                await conn.send(Opcode.ROWS, {
                    "query_id": query_id, "rows": [],
                    "more": False, "done": True,
                })
                return
            await conn.send_error(
                ErrorCode.UNKNOWN_QUERY,
                f"no open cursor for query {query_id}", query_id,
            )
            return
        limit = payload.get("max_rows") or self.fetch_size
        page, rest = remaining[:limit], remaining[limit:]
        if rest:
            conn.cursors[query_id] = rest
        else:
            del conn.cursors[query_id]
        await conn.send(Opcode.ROWS, {
            "query_id": query_id, "rows": page, "more": bool(rest),
            "done": not rest,
        })

    async def _on_cancel(self, conn: _Connection, payload: dict) -> None:
        # CANCEL is always answered with CANCELLED (never ERROR): the
        # EXECUTE's own ERROR frame shares the query_id, and the client
        # must be able to tell the two replies apart
        query_id = payload.get("query_id")
        ticket = conn.tickets.get(query_id)
        if ticket is None:
            await conn.send(Opcode.CANCELLED, {
                "query_id": query_id, "cancelled": False,
                "reason": "unknown query",
            })
            return
        cancelled = ticket.cancel()
        await conn.send(Opcode.CANCELLED, {
            "query_id": query_id, "cancelled": cancelled,
        })

    async def _on_stats(self, conn: _Connection, payload: dict) -> None:
        admission = self.engine.admission
        stats = {
            "server": {
                "policy": self.engine.policy,
                "workers": self.engine.workers,
                "draining": self.draining,
                "connections": len(self._connections),
                "connections_served": self.connections_served,
                "queue_depth": self.engine.queue_depth,
            },
            "admission": {
                "capacity_bytes": admission.capacity,
                "in_use_bytes": admission.in_use,
                "high_water_bytes": admission.high_water,
                "admitted": admission.admitted_count,
                "cancelled": admission.cancelled_count,
                "waiting": admission.waiting,
            },
            "tenants": self.engine.tenant_stats(),
        }
        metrics = self.engine.session.metrics
        if metrics is not None:
            stats["metrics"] = metrics.dump_prefix("qos.")
        await conn.send(Opcode.STATS_REPLY, stats)

    async def _on_metrics(self, conn: _Connection, payload: dict) -> None:
        """Prometheus text exposition over the wire (a pull scrape)."""
        metrics = self.engine.session.metrics
        text = "" if metrics is None else metrics.render_prometheus()
        await conn.send(Opcode.METRICS_REPLY, {
            "content_type": PROMETHEUS_CONTENT_TYPE,
            "text": text,
        })

    async def _on_flight(self, conn: _Connection, payload: dict) -> None:
        limit = payload.get("limit")
        if limit is not None and not isinstance(limit, int):
            await conn.send_error(
                ErrorCode.BAD_REQUEST, "limit must be an integer",
            )
            return
        await conn.send(
            Opcode.FLIGHT_RECORDER_REPLY,
            self.engine.flight_recorder.to_dict(limit),
        )

    _HANDLERS = {
        Opcode.PREPARE: _on_prepare,
        Opcode.EXECUTE: _on_execute,
        Opcode.FETCH: _on_fetch,
        Opcode.CANCEL: _on_cancel,
        Opcode.STATS: _on_stats,
        Opcode.METRICS: _on_metrics,
        Opcode.FLIGHT_RECORDER: _on_flight,
    }


def _limits_problem(deadline_s, fetch_size) -> str | None:
    """Why an EXECUTE's ``deadline_s`` or ``fetch_size`` is refused: a
    bool, NaN, inf or an int past the float range is."""
    if deadline_s is not None and not (
        type(deadline_s) in (int, float) and 0 <= deadline_s <= sys.float_info.max
    ):
        return "deadline_s must be a finite number of seconds >= 0"
    if type(fetch_size) is not int or fetch_size < 1:
        return "fetch_size must be a positive integer"
    return None


class ServerThread:
    """A NetServer on a dedicated thread with a private event loop.

    The synchronous world's handle on the server: tests, the CLI
    client harness and the bench socket mode start one, talk to
    ``host:port`` over real sockets, then ``stop()`` it.  The engine
    is still the caller's to drain/shut down (do that *before*
    ``stop`` so executor threads blocked in ``ticket.wait`` can
    finish).
    """

    def __init__(self, server: NetServer):
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-net-server", daemon=True,
        )

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("server thread failed to start in 10 s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            self._loop.close()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
            # cancelled-but-unfinished tasks get one last cycle
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.run_until_complete(
                self._loop.shutdown_default_executor()
            )
        finally:
            self._loop.close()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def _call(self, coro, timeout: float | None):
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    def drain(self, timeout: float | None = None) -> bool:
        """Synchronous :meth:`NetServer.drain` from any thread."""
        extra = 10.0 if timeout is not None else None
        return self._call(
            self.server.drain(timeout),
            None if timeout is None else timeout + extra,
        )

    def stop(self, timeout: float = 30.0) -> None:
        """Close the server and join the loop thread (idempotent)."""
        if not self._thread.is_alive():
            return
        try:
            self._call(self.server.stop(), timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False
