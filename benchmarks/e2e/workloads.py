"""The six named workloads and the closed loop that drives them.

Every workload goes through public entry points only and every caller
waits for its reply (closed loop), one load-generating thread per
client.  A workload is a sequence of *passes*; a pass is a fixed list
of statements, so modelled totals of whole passes repeat exactly.

Names are fixed — later issues cite them.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

from repro.core import NestGPU
from repro.engine import EngineOptions
from repro.errors import ReproError
from repro.fuzz.differential import canon_rows, rows_match
from repro.net import NetServer, ReproNetClient, ServerThread, demo_registry
from repro.obs.metrics import MetricsRegistry
from repro.serve import PAPER_MIX, AsyncEngine, EngineSession
from repro.tpch import ALL_EVALUATION_QUERIES, TPCH_Q17

import reference
from replay import replay_compile

#: lineitem ~ 120 k rows.  At sf=1 five of the eight paper queries
#: return no rows and the SUBQ loop never iterates, so smaller scales
#: measure nothing.
SCALE_FACTOR = 10


def modelled_ns(result) -> float:
    """The simulated device time the caller would wait for a result."""
    makespan = getattr(result, "makespan_ns", None)
    if makespan is not None:
        return makespan
    stats = result.stats
    return stats["total_ns"] if isinstance(stats, dict) else stats.total_ns


class Checker:
    """Every returned row set against the reference, every repeat of a
    statement against its first modelled total."""

    def __init__(self, expected: dict):
        self.expected = expected
        self._canon = {}
        self._verified = {}
        self._modelled = {}
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.modelled_drift = 0
        self.failed_calls = 0
        self._modelled_total_ns = 0.0

    def error(self) -> None:
        """A statement that raised or was refused: no rows to check."""
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.failed_calls += 1

    def check(self, key, result) -> None:
        rows = result.rows
        ok = rows == self._verified.get(key)
        if not ok:
            want = self._canon.get(key)
            if want is None:
                want = self._canon[key] = canon_rows(self.expected[key])
            ok = rows_match(canon_rows(rows), want)
        ns = modelled_ns(result)
        with self._lock:
            self.attempted += 1
            if ok:
                self._verified[key] = rows
            else:
                self.failed += 1
            self._modelled_total_ns += ns
            if self._modelled.setdefault(key, ns) != ns:
                self.modelled_drift += 1

    def modelled_ms_per_query(self) -> float:
        checked = self.attempted - self.failed_calls
        return self._modelled_total_ns / checked / 1e6

    def modelled_by_statement(self) -> dict[str, float]:
        """First modelled ns per statement, for run-to-run comparison."""
        return {
            key if isinstance(key, str) else "|".join(key): ns
            for key, ns in sorted(self._modelled.items())
        }


class Workload:
    """One named workload: set-up, per-client callers, statement passes."""

    name = ""
    why = ""
    #: timed passes of a full (fixed-count) suite run
    passes = 0
    clients = 1
    #: single-threaded workloads must repeat modelled totals exactly
    deterministic = True
    #: statements planned cold are replayed stage by stage when traced
    replays = False
    #: every pass starts from a fresh engine (and a fresh replay twin)
    cold_each_pass = False
    mix: tuple[str, ...] = PAPER_MIX

    def __init__(self, catalog, seed: int):
        self.catalog = catalog
        self.seed = seed
        self.session: EngineSession | None = None
        self.checker = Checker(self.expected())

    def expected(self) -> dict:
        return reference.paper_query_rows(self.catalog)

    def pass_statements(self, client: int, index: int) -> list[tuple]:
        """``(key, payload)`` for every statement of one pass.

        The workload seed orders them, afresh for every pass: which
        statement runs first matters when caches are cold, and one
        order per run would make the pooled percentiles depend on it.
        """
        rng = np.random.default_rng([self.seed, client, index])
        return [
            (self.mix[i], ALL_EVALUATION_QUERIES[self.mix[i]])
            for i in rng.permutation(len(self.mix))
        ]

    def start(self) -> None:
        """Build the serving state and run the (untimed) warm-up."""
        for call in self.callers():
            for _key, payload in self.pass_statements(0, 0):
                call(payload)

    def begin_pass(self) -> None:
        pass

    def callers(self) -> list:
        return [self.session.execute]

    def sql_of(self, payload) -> str:
        """The statement text the engine planned for ``payload``."""
        return payload

    def twin(self) -> NestGPU | None:
        """A fresh engine configured like the one that plans, for the
        traced run's stage-by-stage compile replay."""
        return None

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


class SoloCold(Workload):
    name = "solo_cold"
    why = ("fresh auto-mode NestGPU per pass: every execute pays the whole "
           "compile pipeline, so the compile layers do over half the work")
    passes = 70
    replays = True
    cold_each_pass = True

    mix = tuple(ALL_EVALUATION_QUERIES)

    def __init__(self, catalog, seed):
        super().__init__(catalog, seed)
        self.engine = None

    def twin(self):
        return NestGPU(
            self.catalog, mode="auto", options=EngineOptions(fusion="auto")
        )

    def start(self):
        pass  # no warm-up: cold is the point

    def begin_pass(self):
        self.engine = self.twin()

    def callers(self):
        return [lambda sql: self.engine.execute(sql)]


class SessionWarm(Workload):
    name = "session_warm"
    why = ("one default EngineSession, plan-cache hit ratio 1.0, columns "
           "resident: the execute path does nearly all the work")
    passes = 250

    def start(self):
        self.session = EngineSession(self.catalog)
        super().start()


class NestedLoop(Workload):
    name = "nested_loop"
    why = ("forced nested mode without vectorisation: the paper's iterative "
           "SUBQ loop (cache, index probes, pool restores per iteration)")
    passes = 200
    mix = ("tpch_q2", "tpch_q17", "paper_q4v", "paper_q5", "paper_q7",
           "paper_q8")

    def start(self):
        self.session = EngineSession(
            self.catalog, mode="nested",
            options=EngineOptions(use_vectorization=False),
        )
        super().start()


class SessionParams(Workload):
    name = "session_params"
    why = ("Q17 template over 400 Zipf-drawn parameter pairs, more distinct "
           "statements than the plan cache holds: lookup, eviction and the "
           "compile pipeline share the run with execution")
    passes = 8
    replays = True
    PAIRS = 400
    DRAWS_PER_PASS = 100
    TEMPLATE = TPCH_Q17.replace("'Brand#23'", "$1").replace("'MED BOX'", "$2")

    def __init__(self, catalog, seed):
        self._q17 = reference.Q17(catalog)
        rng = np.random.default_rng(seed)
        pairs = self._q17.pairs()
        self.pairs = [
            pairs[i] for i in rng.choice(len(pairs), self.PAIRS, replace=False)
        ]
        zipf = 1.0 / np.arange(1, self.PAIRS + 1)
        self._weights = zipf / zipf.sum()
        super().__init__(catalog, seed)
        self.statement = None

    def expected(self):
        return {pair: self._q17.rows(*pair) for pair in self.pairs}

    def pass_statements(self, client, index):
        rng = np.random.default_rng([self.seed, client, index])
        draws = rng.choice(self.PAIRS, self.DRAWS_PER_PASS, p=self._weights)
        return [(self.pairs[i], self.pairs[i]) for i in draws]

    def sql_of(self, payload):
        return self.statement.bind(*payload)

    def twin(self):
        return NestGPU(self.catalog)

    def start(self):
        self.session = EngineSession(self.catalog)
        self.statement = self.session.prepare_statement(self.TEMPLATE)
        # one execution makes the template's columns resident and builds
        # the shared l_partkey index, so the first timed draw is not special
        self.statement.execute(*self.pairs[0])

    def callers(self):
        return [lambda pair: self.statement.execute(*pair)]


class NetLoopback(Workload):
    name = "net_loopback"
    why = ("two tenants over loopback sockets into one AsyncEngine: frames, "
           "auth, QoS admission, the queue and the row codec are on the "
           "measured path and contend for one session lock and one GIL")
    passes = 100
    clients = 2
    deterministic = False

    def __init__(self, catalog, seed):
        super().__init__(catalog, seed)
        self.engine = self.server = self.registry = None
        self.connections: list[ReproNetClient] = []
        self.warmup_queries = 0

    def start(self):
        registry = self.registry = demo_registry()
        # as `repro net serve` builds it: metrics on, demo tenants' budgets
        self.session = EngineSession(self.catalog, metrics=MetricsRegistry())
        self.engine = AsyncEngine(
            self.session, workers=2,
            tenant_budgets=registry.budgets(self.session.device_capacity_bytes),
            tenant_weights=registry.weights(),
            slo_objectives=registry.slo_objectives(),
        )
        self.server = ServerThread(NetServer(self.engine, registry)).start()
        self.connections = [
            ReproNetClient(self.server.host, self.server.port, spec.token)
            for spec in registry
        ]
        super().start()
        self.warmup_queries = len(self.connections) * len(self.mix)

    def callers(self):
        return [connection.execute for connection in self.connections]

    def close(self):
        for connection in self.connections:
            connection.close()
        if self.engine is not None:
            self.engine.shutdown(drain=True, timeout=30.0)
        if self.server is not None:
            self.server.stop()
        super().close()


class ShardedMix(Workload):
    name = "sharded_mix"
    why = ("four modelled devices over nvlink: placement costing, exchange "
           "and the coordinator gather of core.sharded do most of the host "
           "work; the slowest shard sets the modelled makespan")
    passes = 130

    def start(self):
        self.session = EngineSession(
            self.catalog, shards=4, interconnect="nvlink"
        )
        super().start()

    def solo_modelled_ns_per_query(self) -> float:
        """The same mix on one device, columns resident (what
        ``session_warm`` reports), as the base of ``makespan_vs_solo``."""
        with EngineSession(self.catalog) as solo:
            for _pass in range(2):
                total = sum(
                    modelled_ns(solo.execute(sql))
                    for _key, sql in self.pass_statements(0, 0)
                )
        return total / len(self.mix)


WORKLOADS = {
    cls.name: cls
    for cls in (SoloCold, SessionWarm, NestedLoop, SessionParams,
                NetLoopback, ShardedMix)
}


class Phase:
    """What one closed-loop phase measured (one entry per statement)."""

    def __init__(self, clients: int):
        self.samples = [[] for _ in range(clients)]
        self.passes = [0] * clients
        #: traced phases only: ``(root span, key, result, seconds)``
        self.records: list[tuple] = []
        self.wall_s = 0.0

    def all_samples(self) -> list[float]:
        return [s for client in self.samples for s in client]


def run_phase(workload: Workload, seconds: float | None, passes: int | None,
              recorder=None) -> Phase:
    """Drive every client's closed loop until ``passes`` whole passes
    are done or ``seconds`` have gone by, whichever is first.

    With a ``recorder`` every statement runs inside a root span and,
    on workloads that plan cold, each miss is followed by a by-hand
    replay of the compile stages on a twin engine (outside the root
    span and outside the latency sample).
    """
    phase = Phase(workload.clients)
    callers = workload.callers()
    twin = None
    failures: list[BaseException] = []
    started = perf_counter()
    deadline = None if seconds is None else started + seconds

    def client_loop(client: int) -> None:
        nonlocal twin
        call = callers[client]
        samples = phase.samples[client]
        check = workload.checker.check
        index = 0
        while True:
            workload.begin_pass()
            if recorder is not None and workload.replays and (
                twin is None or workload.cold_each_pass
            ):
                twin = workload.twin()
            for key, payload in workload.pass_statements(client, index):
                root = None
                if recorder is not None:
                    root = recorder.begin("query", "bench")
                t0 = perf_counter()
                try:
                    result = call(payload)
                except ReproError:
                    workload.checker.error()
                    continue
                finally:
                    t1 = perf_counter()
                    if root is not None:
                        recorder.end(root)
                samples.append(t1 - t0)
                check(key, result)
                if root is not None:
                    phase.records.append((root, key, result, t1 - t0))
                    if workload.replays and not result.plan_cache_hit:
                        replay_compile(recorder, twin, workload.sql_of(payload))
            index += 1
            phase.passes[client] = index
            if passes is not None and index >= passes:
                return
            if deadline is not None and perf_counter() >= deadline:
                return

    if workload.clients == 1:
        client_loop(0)
    else:
        def guarded(client: int) -> None:
            try:
                client_loop(client)
            except BaseException as exc:  # re-raised on the main thread
                failures.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(c,), name=f"client-{c}")
            for c in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
    phase.wall_s = perf_counter() - started
    return phase
