"""Sharded execution: nested-query processing on a modelled device group.

One :class:`~repro.core.executor.NestGPU` engine owns one device.  The
:class:`ShardedEngine` below runs the *same* drive programs across N
modelled devices (:class:`~repro.gpu.group.DeviceGroup`) joined by a
modelled interconnect, the classic scatter-gather shape:

1. **Split** the solo plan into a *body* (everything up to the root
   chain of Limit/Sort/Distinct/Aggregate/Project) and that *tail*.
2. **Choose a driving scan** — a base-table scan of the body reachable
   through row-wise operators only, so that running the body over a
   partition of that scan and concatenating the per-shard outputs
   yields exactly the solo body rows.
3. **Place every other scan**: replicate it in full on each shard
   (*broadcast*), or — when a correlated subquery filters an inner
   scan with an equality on an outer column (``ic = $outer.oc``) —
   hash-repartition both sides on the correlation key (*shuffle*), so
   every inner row an outer binding can match lives on that binding's
   shard.  The choice is costed: broadcast pays N full host-to-device
   copies, shuffle pays home-slice loads plus peer-link traffic but
   loops over 1/N of the inner rows per iteration.
4. **Drive** the generated body program once per shard against that
   shard's catalog (the program references tables by *name*, so one
   compiled program runs against N different shard catalogs).
5. **Gather** the per-shard partials onto the coordinator (device 0)
   over its incoming links, run the tail there, and pay the single
   device-to-host fetch.

Placement model: the host holds every base table; a shard's *home*
slice of a table is its round-robin share.  A ``full`` placement loads
the whole table over the shard's own PCIe link; an ``rr`` placement
loads just the home slice; a ``hash`` placement loads the home slice
and then redistributes it over the peer interconnect so rows land on
``hash(key) % N``.  All placements are resident forms in the shard's
:class:`~repro.engine.context.ColumnResidency`, so repeat queries skip
the exchange exactly like repeat solo queries skip the PCIe load.

Clock model: shard clocks advance independently; a query's *makespan*
is the slowest shard's body completion plus the coordinator's gather +
tail + fetch delta.  ``QueryResult.stats`` holds the group-merged
device-seconds (flows add, peaks take the worst device) so modelled
totals stay comparable with solo runs; ``QueryResult.makespan_ns`` is
the wall-clock figure the scheduler and benches report.

``shards=1`` delegates *wholly* to the wrapped solo engine — rows and
modelled totals are bit-identical to a plain :class:`NestGPU` by
construction, which the test suite pins.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field

import numpy as np

from ..engine import EngineOptions, ExecutionContext, run_plan
from ..engine import operators as ops
from ..engine.relation import Relation
from ..gpu import DeviceGroup, DeviceSpec
from ..gpu.spec import InterconnectSpec
from ..obs.tracer import NULL_TRACER
from ..plan import ExchangeStep
from ..plan.builder import PlanBuilder
from ..plan.expressions import ColRef, contains_subquery
from ..plan.nodes import (
    Aggregate,
    CrossJoin,
    Distinct,
    Filter,
    Join,
    LeftLookup,
    Limit,
    Plan,
    Project,
    Scan,
    SemiJoin,
    Sort,
    SubqueryColumn,
    SubqueryFilter,
    explain as explain_plan,
)
from ..storage import (
    Catalog,
    Column,
    PartitionSpec,
    hash_buckets,
    partition_table,
)
from .calibrator import CostCoefficients
from .codegen import DriveProgram, generate_drive_program
from .fusion import FusionPlan
from .costmodel import _kernel_ns, gather_cost_ns, repartition_cost_ns
from .executor import NestGPU, PreparedQuery, QueryResult, query_result
from .vectorize import _equality_correlation

#: Node types the coordinator tail may contain (root chain only).
_TAIL_TYPES = (Limit, Sort, Distinct, Aggregate, Project)


# -- plan analysis ----------------------------------------------------------


def _node_exprs(node: Plan):
    """The expressions a tail-candidate node evaluates."""
    if isinstance(node, Aggregate):
        yield from node.groups
        for agg in node.aggs:
            if agg.arg is not None:
                yield agg.arg
        if node.having is not None:
            yield node.having
    elif isinstance(node, Project):
        yield from node.exprs


def split_tail(plan: Plan) -> tuple[Plan, list[Plan]]:
    """Split a solo plan into (body, tail).

    The tail is the maximal root chain of Limit/Sort/Distinct/
    Aggregate/Project nodes whose expressions contain no subquery —
    exactly the operators that are correct to run *once* on the
    concatenation of per-shard body outputs.  Returned root-first.
    """
    tail: list[Plan] = []
    node = plan
    while isinstance(node, _TAIL_TYPES):
        if any(contains_subquery(e) for e in _node_exprs(node)):
            break
        tail.append(node)
        node = node.child
    return node, tail


def candidate_scans(body: Plan) -> list[Scan]:
    """Base-table scans of the body that can legally drive a partition.

    A scan qualifies when every operator between it and the body root
    is *row-wise* — each output row derives from exactly one row of the
    scan — so a union of per-partition body outputs equals the solo
    body output.  Joins qualify on both sides (each match consumes one
    row of either input); semi-joins and lookups only through their
    probe child; aggregation, distinct, sort, limit and derived scans
    stop the walk.
    """
    found: list[Scan] = []

    def visit(node: Plan) -> None:
        if isinstance(node, Scan):
            found.append(node)
        elif isinstance(node, (Join, CrossJoin)):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, (Filter, SubqueryFilter, SubqueryColumn)):
            visit(node.child)
        elif isinstance(node, (SemiJoin, LeftLookup)):
            visit(node.child)
        # Aggregate/Distinct/Sort/Limit/Project/DerivedScan: not
        # row-wise (or hide a sub-plan) — stop.

    visit(body)
    return found


def _scan_correlations(scan: Scan) -> dict[str, object]:
    """``qual -> inner ColRef`` for the scan's equality-correlated filters."""
    out: dict[str, object] = {}
    for predicate in scan.filters:
        matched = _equality_correlation(predicate)
        if matched is not None:
            col, qual = matched
            out[qual] = col
    return out


def _rr_rows(num_rows: int, shards: int, shard: int) -> int:
    """Rows of the round-robin home slice of shard ``shard``."""
    if shard >= num_rows:
        return 0
    return (num_rows - shard + shards - 1) // shards


# -- prepared form ----------------------------------------------------------


@dataclass
class _Placement:
    """One scan's table placement under a strategy (for costing)."""

    table: str
    form: str  # 'full' | 'rr' | 'hash'
    key: str | None
    columns: tuple[str, ...]
    nbytes: int  # referenced bytes on a full-table basis


@dataclass
class ShardedPrepared:
    """A query planned for a device group, ready to run.

    ``strategy`` is one of ``solo`` (group of one: full delegation),
    ``coordinator`` (no legal driving scan: the solo program runs on
    shard 0 alone), ``scatter`` (partitioned drive, no correlated
    subqueries), ``broadcast`` (partitioned drive, inner tables
    replicated) or ``shuffle`` (both sides hash-repartitioned on the
    correlation key).
    """

    solo: PreparedQuery
    strategy: str
    #: the per-shard body program; the solo program when the group
    #: runs it unsplit (``solo`` / ``coordinator`` strategies)
    program: DriveProgram | None = None
    body: Plan | None = None
    tail: list = field(default_factory=list)
    exchanges: list[ExchangeStep] = field(default_factory=list)
    #: (table, key, referenced columns) per hash form to materialise
    hash_exchanges: list[tuple[str, str, tuple[str, ...]]] = field(
        default_factory=list
    )
    decision: dict = field(default_factory=dict)
    sql: str = ""

    def __post_init__(self):
        if self.program is None:
            self.program = self.solo.program

    # the PreparedQuery read surface, so callers holding either kind of
    # prepared artifact read the same attributes

    @property
    def choice(self) -> str:
        return self.solo.choice

    @property
    def predicted_ms(self) -> float | None:
        return self.solo.predicted_ms

    @property
    def fusion_decision(self):
        return self.solo.fusion_decision


class ShardedEngine:
    """NestGPU across a device group: partitioned drive, exchanges,
    scatter-gather subquery execution.

    Wraps a solo :class:`NestGPU` (the *planner*) for parsing, binding,
    planning, path choice and code generation, then re-plans data
    placement for the group.  With ``shards=1`` every call delegates to
    the planner unchanged — bit-identical rows and modelled totals.
    """

    def __init__(
        self,
        catalog: Catalog,
        device: DeviceSpec | None = None,
        options: EngineOptions | None = None,
        mode: str = "auto",
        shards: int = 1,
        interconnect: InterconnectSpec | None = None,
        tracer=None,
        metrics=None,
        coefficients: CostCoefficients | None = None,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.catalog = catalog
        self.shards = shards
        self.planner = NestGPU(
            catalog,
            device=device,
            options=options,
            mode=mode,
            coefficients=coefficients,
        )
        self.device_spec = self.planner.device_spec
        self.options = self.planner.options
        self.mode = self.planner.mode
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = metrics
        self.interconnect = interconnect or InterconnectSpec.pcie_p2p()
        self.group = DeviceGroup(
            self.device_spec, shards, self.interconnect, tracer=self.tracer
        )
        #: one long-lived :class:`ExecutionContext` per shard, in device
        #: order; each executes against its own catalog view (base
        #: tables + forms)
        self.shard_states = [
            ExecutionContext(Catalog(list(catalog)), device, self.options)
            for device in self.group
        ]
        self._base_version = catalog.version
        self._pair_cache: dict[tuple[str, str], np.ndarray] = {}

    # -- public API -----------------------------------------------------

    def execute(
        self, sql: str, mode: str | None = None, tracer=None, metrics=None
    ) -> QueryResult:
        prepared = self.prepare(sql, mode, tracer=tracer)
        return self.run_prepared(prepared, tracer=tracer, metrics=metrics)

    def prepare(
        self, sql: str, mode: str | None = None, tracer=None
    ) -> ShardedPrepared:
        """Plan a query for the group: solo plan + placement + exchanges."""
        tracer = self.tracer if tracer is None else tracer
        self._sync_catalog()
        solo = self.planner.prepare(sql, mode, tracer=tracer)
        if self.shards == 1:
            return ShardedPrepared(solo=solo, strategy="solo", sql=sql)
        with tracer.span("shard-plan", "phase", shards=self.shards):
            return self._plan_group(solo, sql)

    def run_prepared(
        self,
        prepared: ShardedPrepared,
        tracer=None,
        metrics=None,
        observed: bool = True,
    ) -> QueryResult:
        """Execute across the group; see the module docstring for the
        exchange → scatter drive → gather → tail pipeline."""
        if observed:
            tracer = self.tracer if tracer is None else tracer
            metrics = self.metrics if metrics is None else metrics
        else:
            tracer, metrics = NULL_TRACER, None
        if prepared.strategy == "solo":
            # a group of one IS the solo engine (bit-identity pin)
            return self.planner.run_prepared(
                prepared.solo, tracer=tracer, metrics=metrics
            )
        self._sync_catalog()
        self.group.reset(rebase_peak=True)
        pair_before = dict(self.group.pair_bytes)
        try:
            if prepared.strategy == "coordinator":
                result = self._run_coordinator(prepared, tracer)
            else:
                result = self._run_scatter_gather(prepared, tracer)
        finally:
            for state in self.shard_states:
                state.end_query()
        pair_delta = {
            f"{src}->{dst}": total - pair_before.get((src, dst), 0)
            for (src, dst), total in self.group.pair_bytes.items()
            if total - pair_before.get((src, dst), 0) > 0
        }
        result.group_report["pair_bytes"] = pair_delta
        if metrics is not None:
            self.planner._record_metrics(metrics, prepared, result)
            metrics.counter("shard.queries").inc()
            metrics.counter(f"shard.strategy.{prepared.strategy}").inc()
            metrics.histogram("shard.makespan_ms").observe(
                result.makespan_ns / 1e6
            )
            metrics.counter("interconnect.bytes").inc(sum(pair_delta.values()))
            for entry in result.group_report["devices"]:
                k = entry["device"]
                metrics.counter(f"device.{k}.busy_ms").inc(
                    entry["total_ns"] / 1e6
                )
                for name in ("kernel_launches", "transfer_bytes", "peer_bytes"):
                    metrics.counter(f"device.{k}.{name}").inc(entry[name])
                metrics.gauge(f"device.{k}.peak_bytes.last").set(
                    entry["peak_device_bytes"]
                )
        return result

    def drive_source(self, sql: str, mode: str | None = None) -> str:
        """The generated per-shard drive program (for inspection)."""
        return self.prepare(sql, mode).program.source

    def explain(self, sql: str, mode: str | None = None,
                analyze: bool = False) -> str:
        """The distributed EXPLAIN: strategy, costed decision, exchanges,
        per-shard body and coordinator tail.

        ``analyze`` delegates to the solo planner (EXPLAIN ANALYZE
        instruments one device's operator tree; the group's per-device
        story lives in the group report / device trace instead).
        """
        if analyze:
            return self.planner.explain(sql, mode, analyze=True)
        prepared = self.prepare(sql, mode)
        if prepared.strategy == "solo":
            return self.planner.explain_prepared(prepared.solo)
        lines = [
            f"device group: {self.shards} x {self.device_spec.name} "
            f"over {self.interconnect.name}",
            f"execution path: {prepared.choice}",
            f"shard strategy: {prepared.strategy}",
        ]
        decision = prepared.decision
        if decision.get("broadcast_ns") is not None:
            lines.append(
                f"  broadcast est: {decision['broadcast_ns'] / 1e6:.3f} ms"
            )
        if decision.get("shuffle_ns") is not None:
            lines.append(
                f"  shuffle est:   {decision['shuffle_ns'] / 1e6:.3f} ms"
                f" (on {decision.get('shuffle_qual')})"
            )
        if decision.get("reason"):
            lines.append(f"  reason: {decision['reason']}")
        if decision.get("driving"):
            lines.append(f"driving scan: {decision['driving']}")
        if prepared.exchanges:
            lines.append("exchanges:")
            for step in prepared.exchanges:
                lines.append(f"  {step.describe()}")
        if prepared.body is not None:
            lines.append("")
            lines.append("body plan (each shard):")
            lines.append(explain_plan(prepared.body, indent=1))
        if prepared.tail:
            lines.append("")
            lines.append("coordinator tail (after gather):")
            for node in prepared.tail:
                lines.append(f"  {node}")
        return "\n".join(lines)

    # -- group planning -------------------------------------------------

    def _plan_group(self, solo: PreparedQuery, sql: str) -> ShardedPrepared:
        # deepcopy before splitting: scan rewrites must not touch the
        # solo plan (it stays valid for EXPLAIN / the planner's cache)
        body, tail = split_tail(copy.deepcopy(solo.plan))
        builder = PlanBuilder(
            self.catalog,
            unnest=(solo.choice == "unnested"),
            exact_selectivity=self.planner.selectivity,
        )
        # the body program inherits the solo plan's fusion state, so a
        # fused engine runs fused on every shard (and `--fusion off`
        # totals stay bit-identical to pre-fusion sharded runs)
        body_fusion = (
            FusionPlan() if solo.program.fusion is not None else None
        )
        program = generate_drive_program(
            builder, body, fetch_result=False, fusion=body_fusion
        )
        spec_scans = [
            node
            for spec in program.specs
            for node in spec.plan.walk()
            if isinstance(node, Scan)
        ]
        candidates = candidate_scans(body)
        if not candidates:
            return ShardedPrepared(
                solo=solo,
                strategy="coordinator",
                decision={"reason": "no row-wise driving scan in the body"},
                sql=sql,
            )
        correlated = any(
            spec.descriptor.is_correlated for spec in program.specs
        )
        decision = self._decide(body, program, candidates, spec_scans)
        strategy = decision["chosen"]
        if not correlated and strategy == "broadcast":
            strategy = "scatter"
            decision["chosen"] = "scatter"
        driving: Scan = decision.pop("_driving_scan")
        hash_nodes: dict[int, str] = decision.pop("_hash_nodes")
        exchanges, hash_exchanges = self._apply_placement(
            body, program, spec_scans, driving, strategy, hash_nodes,
            decision,
        )
        return ShardedPrepared(
            solo=solo,
            strategy=strategy,
            program=program,
            body=body,
            tail=tail,
            exchanges=exchanges,
            hash_exchanges=hash_exchanges,
            decision=decision,
            sql=sql,
        )

    def _scan_columns(self, scan: Scan) -> tuple[str, ...]:
        table = self.catalog.table(scan.table)
        return tuple(scan.columns or table.column_names)

    def _scan_bytes(self, scan: Scan) -> int:
        table = self.catalog.table(scan.table)
        return sum(
            table.column(c).nbytes for c in self._scan_columns(scan)
        )

    def _decide(
        self,
        body: Plan,
        program: DriveProgram,
        candidates: list[Scan],
        spec_scans: list[Scan],
    ) -> dict:
        """Cost broadcast vs shuffle; returns the decision record plus
        the chosen driving scan and per-node hash assignments."""
        spec = self.device_spec
        shards = self.shards
        body_scans = [n for n in body.walk() if isinstance(n, Scan)]

        def placements_cost(placements: dict) -> float:
            total = 0.0
            for p in placements.values():
                if p.form == "full":
                    total += p.nbytes / spec.pcie_bytes_per_ns
                    continue
                total += (p.nbytes / shards) / spec.pcie_bytes_per_ns
                if p.form == "hash":
                    total += repartition_cost_ns(
                        self.interconnect, shards, p.nbytes
                    )
            return total

        def add_placement(placements, scan, form, key=None):
            pkey = (scan.table.lower(), form, key)
            cols = self._scan_columns(scan)
            existing = placements.get(pkey)
            if existing is not None:
                merged = tuple(dict.fromkeys(existing.columns + cols))
                existing.columns = merged
                table = self.catalog.table(scan.table)
                existing.nbytes = sum(
                    table.column(c).nbytes for c in merged
                )
                return
            placements[pkey] = _Placement(
                scan.table, form, key, cols, self._scan_bytes(scan)
            )

        def iterations(driving: Scan) -> float:
            rows = self.catalog.table(driving.table).num_rows
            est = driving.estimated_rows or rows
            return max(float(est), 1.0)

        def join_co_partitions(driving: Scan, outer_col: str) -> dict:
            """Body scans equi-joined with the driving scan *on the
            partition key*: hashing them on their join column co-locates
            every matching pair, so they ride the shuffle instead of
            being replicated (an inner equi-join row exists only where
            the keys are equal, i.e. in exactly one bucket)."""
            by_binding = {
                s.binding: s for s in candidates if s is not driving
            }
            co: dict[int, str] = {}
            for node in body.walk():
                if not isinstance(node, Join):
                    continue
                for near, far in (
                    (node.left_key, node.right_key),
                    (node.right_key, node.left_key),
                ):
                    if not (
                        isinstance(near, ColRef) and isinstance(far, ColRef)
                    ):
                        continue
                    if (near.binding != driving.binding
                            or near.column != outer_col):
                        continue
                    scan = by_binding.get(far.binding)
                    if scan is None or id(scan) in co:
                        continue
                    table = self.catalog.table(scan.table)
                    if (far.column not in table
                            or table.column(far.column).dtype.is_string):
                        continue
                    co[id(scan)] = far.column
            return co

        # broadcast: drive the biggest safe scan, replicate the rest
        bcast_driving = max(candidates, key=self._scan_bytes)
        bcast_placements: dict = {}
        add_placement(bcast_placements, bcast_driving, "rr")
        for scan in body_scans + spec_scans:
            if scan is bcast_driving:
                continue
            add_placement(bcast_placements, scan, "full")
        bcast_loop = sum(
            _kernel_ns(spec, self.catalog.table(s.table).num_rows)
            for s in spec_scans
        )
        broadcast_ns = placements_cost(bcast_placements) + (
            iterations(bcast_driving) / shards
        ) * bcast_loop

        # shuffle: for each (safe driving scan, correlation qual) pair,
        # hash-partition the driving scan on the outer column and every
        # inner scan carrying `ic = $qual` on its inner column
        quals = {
            q for s in spec_scans for q in _scan_correlations(s)
        }
        best = None
        for driving in candidates:
            table = self.catalog.table(driving.table)
            for qual in sorted(quals):
                binding, _, outer_col = qual.partition(".")
                if binding != driving.binding:
                    continue
                if outer_col not in table:
                    continue
                if table.column(outer_col).dtype.is_string:
                    # per-column dictionaries make string codes
                    # incomparable across columns — never hash them
                    continue
                hash_nodes: dict[int, str] = {}
                for scan in spec_scans:
                    col = _scan_correlations(scan).get(qual)
                    if col is None or col.dtype_name == "string":
                        continue
                    inner_table = self.catalog.table(scan.table)
                    if col.column not in inner_table:
                        continue
                    if inner_table.column(col.column).dtype.is_string:
                        continue
                    hash_nodes[id(scan)] = col.column
                if not hash_nodes:
                    continue
                join_nodes = join_co_partitions(driving, outer_col)
                placements: dict = {}
                add_placement(placements, driving, "hash", outer_col)
                for scan in body_scans:
                    if scan is driving:
                        continue
                    key = join_nodes.get(id(scan))
                    if key is None:
                        add_placement(placements, scan, "full")
                    else:
                        add_placement(placements, scan, "hash", key)
                for scan in spec_scans:
                    key = hash_nodes.get(id(scan))
                    if key is None:
                        add_placement(placements, scan, "full")
                    else:
                        add_placement(placements, scan, "hash", key)
                loop = sum(
                    _kernel_ns(
                        spec,
                        self.catalog.table(s.table).num_rows
                        / (shards if id(s) in hash_nodes else 1),
                    )
                    for s in spec_scans
                )
                cost = placements_cost(placements) + (
                    iterations(driving) / shards
                ) * loop
                if best is None or cost < best[0]:
                    best = (cost, driving, qual, {**hash_nodes, **join_nodes})

        decision = {
            "broadcast_ns": broadcast_ns,
            "shuffle_ns": best[0] if best else None,
            "shuffle_qual": best[2] if best else None,
            "interconnect": self.interconnect.name,
            "shards": self.shards,
        }
        if best is not None and best[0] < broadcast_ns:
            decision["chosen"] = "shuffle"
            decision["driving"] = (
                f"{best[1].table} AS {best[1].binding} "
                f"[hash({best[2].partition('.')[2]}) % {self.shards}]"
            )
            decision["_driving_scan"] = best[1]
            decision["_hash_nodes"] = best[3]
        else:
            decision["chosen"] = "broadcast"
            decision["driving"] = (
                f"{bcast_driving.table} AS {bcast_driving.binding} "
                f"[round_robin % {self.shards}]"
            )
            decision["reason"] = (
                "no hashable correlation"
                if best is None
                else "replication cheaper than repartitioning"
            )
            decision["_driving_scan"] = bcast_driving
            decision["_hash_nodes"] = {}
        return decision

    def _apply_placement(
        self,
        body: Plan,
        program: DriveProgram,
        spec_scans: list[Scan],
        driving: Scan,
        strategy: str,
        hash_nodes: dict[int, str],
        decision: dict,
    ) -> tuple[list[ExchangeStep], list[tuple[str, str, tuple[str, ...]]]]:
        """Rewrite scan nodes to form-qualified names, register the form
        tables in every shard catalog, and emit the exchange steps."""
        exchanges: list[ExchangeStep] = []
        hash_exchanges: dict[tuple[str, str], set] = {}
        if strategy == "shuffle":
            outer_col = decision["shuffle_qual"].partition(".")[2]
            form = self._ensure_form(driving.table, key=outer_col)
            cols = self._scan_columns(driving)
            driving.table = form
            hash_exchanges.setdefault(
                (form.split("##")[0], outer_col), set()
            ).update(cols)
            co_scans = [
                n for n in body.walk()
                if isinstance(n, Scan) and n is not driving
            ]
            for scan in spec_scans + co_scans:
                key = hash_nodes.get(id(scan))
                if key is None:
                    continue
                base_name = scan.table
                form = self._ensure_form(base_name, key=key)
                hash_exchanges.setdefault((base_name, key), set()).update(
                    self._scan_columns(scan)
                )
                scan.table = form
        else:
            form = self._ensure_form(driving.table)
            cols = self._scan_columns(driving)
            home = self.shard_states[0].catalog.table(form)
            bytes_per_shard = sum(home.column(c).nbytes for c in cols)
            exchanges.append(
                ExchangeStep(
                    kind="broadcast",
                    table=driving.table,
                    form=form,
                    columns=cols,
                    host_bytes_per_shard=bytes_per_shard,
                    note="home slice (round-robin)",
                )
            )
            driving.table = form
        # every scan left on a plain name is a full replica per shard;
        # record the distinct ones so EXPLAIN shows the broadcast set
        seen: set[tuple[str, tuple[str, ...]]] = set()
        for scan in [
            n for n in body.walk() if isinstance(n, Scan)
        ] + spec_scans:
            if "##" in scan.table:
                continue
            cols = self._scan_columns(scan)
            dedup = (scan.table.lower(), cols)
            if dedup in seen:
                continue
            seen.add(dedup)
            exchanges.append(
                ExchangeStep(
                    kind="broadcast",
                    table=scan.table,
                    form=scan.table,
                    columns=cols,
                    host_bytes_per_shard=self._scan_bytes(scan),
                    note="full replica",
                )
            )
        hash_list: list[tuple[str, str, tuple[str, ...]]] = []
        for (table, key), cols in hash_exchanges.items():
            ordered = tuple(sorted(cols))
            hash_list.append((table, key, ordered))
            width = sum(
                self.catalog.table(table).column(c).dtype.width
                for c in ordered
            )
            matrix = self._pair_matrix(table, key)
            link_bytes = int(
                (matrix.sum() - np.trace(matrix)) * width
            )
            exchanges.append(
                ExchangeStep(
                    kind="repartition",
                    table=table,
                    form=f"{table}##hash:{key}",
                    columns=ordered,
                    key=key,
                    link_bytes=link_bytes,
                    cost_ns=repartition_cost_ns(
                        self.interconnect,
                        self.shards,
                        sum(
                            self.catalog.table(table).column(c).nbytes
                            for c in ordered
                        ),
                    ),
                )
            )
        return exchanges, hash_list

    # -- shard catalog forms --------------------------------------------

    def _ensure_form(self, table_name: str, key: str | None = None) -> str:
        """Register the rr / hash form of a base table in every shard
        catalog (content-addressed: idempotent per engine)."""
        base = self.catalog.table(table_name)
        if key is None:
            form_name = f"{base.name}##rr"
            spec = PartitionSpec("round_robin", self.shards)
        else:
            form_name = f"{base.name}##hash:{key}"
            spec = PartitionSpec("hash", self.shards, key=key)
        if form_name not in self.shard_states[0].catalog:
            slices = partition_table(base, spec)
            for state, piece in zip(self.shard_states, slices):
                state.catalog.register(piece.renamed(form_name))
        return form_name

    def _pair_matrix(self, table_name: str, key: str) -> np.ndarray:
        """Rows moving from home shard s to hash shard d, as an N x N
        count matrix (home placement is round-robin)."""
        cached = self._pair_cache.get((table_name.lower(), key))
        if cached is not None:
            return cached
        table = self.catalog.table(table_name)
        buckets = hash_buckets(table.column(key).data, self.shards)
        home = np.arange(table.num_rows, dtype=np.int64) % self.shards
        matrix = np.zeros((self.shards, self.shards), dtype=np.int64)
        np.add.at(matrix, (home, buckets), 1)
        self._pair_cache[(table_name.lower(), key)] = matrix
        return matrix

    def _sync_catalog(self) -> None:
        """Invalidate shard forms when the base catalog changed."""
        if self.catalog.version == self._base_version:
            return
        self._pair_cache.clear()
        for state in self.shard_states:
            state.reset(Catalog(list(self.catalog)))
        self._base_version = self.catalog.version

    # -- execution ------------------------------------------------------

    def _run_coordinator(self, prepared, tracer) -> QueryResult:
        """Degenerate fallback: the whole solo program on shard 0."""
        ctx = self.shard_states[0]
        if tracer.enabled:
            tracer.bind_device(ctx.device)
        result = self.planner.run_prepared(
            prepared.solo, tracer=tracer, metrics=None, ctx=ctx
        )
        result.shards = self.shards
        result.makespan_ns = result.stats.total_ns
        result.plan_choice = (
            f"sharded-{self.shards}:coordinator:{prepared.choice}"
        )
        result.group_report = self._group_report(
            prepared, [result.stats.total_ns], result.makespan_ns
        )
        return result

    def _run_exchanges(self, prepared, tracer) -> None:
        """Materialise hash forms: home-slice loads + peer link traffic.

        Per column all-or-nothing: if the hash form is resident on every
        shard the exchange is skipped (and LRU-touched); otherwise the
        home slice is ensured (PCIe), the per-pair row counts cross the
        links, and the arrived slice is admitted without a host
        transfer (the links already paid for the movement).
        """
        for table, key, cols in prepared.hash_exchanges:
            form = f"{table}##hash:{key}"
            rr_name = f"{table}##rr"
            base = self.catalog.table(table)
            matrix = self._pair_matrix(table, key)
            missing: list[str] = []
            for col in cols:
                if all(
                    (form, col) in state.residency
                    for state in self.shard_states
                ):
                    for state in self.shard_states:
                        state.residency.admit(
                            (form, col),
                            state.catalog.table(form).column(col).nbytes,
                        )
                else:
                    missing.append(col)
            if not missing:
                continue
            for k, state in enumerate(self.shard_states):
                home = _rr_rows(base.num_rows, self.shards, k)
                for col in missing:
                    width = base.column(col).dtype.width
                    state.residency.ensure((rr_name, col), home * width)
            # one message per ordered pair: a row's columns travel
            # together, so link latency is paid per pair, not per column
            row_width = sum(base.column(c).dtype.width for c in missing)
            for src in range(self.shards):
                for dst in range(self.shards):
                    moved = int(matrix[src, dst])
                    if src != dst and moved:
                        self.group.transfer(src, dst, moved * row_width)
            for state in self.shard_states:
                for col in missing:
                    state.residency.admit(
                        (form, col),
                        state.catalog.table(form).column(col).nbytes,
                    )

    def _run_scatter_gather(self, prepared, tracer) -> QueryResult:
        program = prepared.program
        with tracer.span(
            "exchange", "phase", strategy=prepared.strategy
        ):
            self._run_exchanges(prepared, tracer)
        partials: list[Relation] = []
        runtimes = []
        body_ends: list[float] = []
        for k, state in enumerate(self.shard_states):
            if tracer.enabled:
                tracer.bind_device(state.device)
            # the shard body runs on the solo engine's own execute path
            with tracer.span(
                f"shard-{k}", "shard", device=k, strategy=prepared.strategy
            ):
                with tracer.span("preload", "phase"):
                    self.planner._preload(state, program)
                rel, runtime = self.planner._execute_program(state, program)
            partials.append(rel)
            runtimes.append(runtime)
            body_ends.append(state.device.stats.total_ns)
        # gather: partials converge on the coordinator's incoming links
        coordinator = self.shard_states[0]
        if tracer.enabled:
            tracer.bind_device(coordinator.device)
        gather_bytes = 0
        with tracer.span("gather", "exchange", shards=self.shards):
            for k in range(1, self.shards):
                nbytes = partials[k].nbytes
                if nbytes:
                    self.group.transfer(k, 0, nbytes)
                    gather_bytes += nbytes
            gathered = self._concat(coordinator, partials)
        # the tail runs on the flat-plan evaluator, its body memoised as
        # the gathered relation
        with tracer.span("tail", "phase"):
            rel = run_plan(
                coordinator,
                (prepared.tail or [prepared.body])[0],
                memo={id(prepared.body): gathered},
            )
        tail_end = coordinator.device.stats.total_ns
        final = ops.fetch_result(coordinator, rel)
        fetch_ns = coordinator.device.stats.total_ns - tail_end
        makespan = max(body_ends) + (
            coordinator.device.stats.total_ns - body_ends[0]
        )
        prepared.exchanges = [
            step for step in prepared.exchanges if step.kind != "gather"
        ] + [
            ExchangeStep(
                kind="gather",
                table="(result)",
                form="(coordinator)",
                link_bytes=gather_bytes,
                cost_ns=gather_cost_ns(
                    self.interconnect, self.shards, gather_bytes
                ),
            )
        ]
        return query_result(
            final,
            runtimes,
            self.group.merged_stats(),
            plan_choice=(
                f"sharded-{self.shards}:{prepared.strategy}:"
                f"{prepared.choice}"
            ),
            drive_source=program.source,
            fetch_ns=fetch_ns,
            shards=self.shards,
            makespan_ns=makespan,
            group_report=self._group_report(prepared, body_ends, makespan),
        )

    def _concat(self, ctx, partials: list[Relation]) -> Relation:
        """Concatenate per-shard body outputs on the coordinator."""
        columns: dict[str, Column] = {}
        for name in partials[0].columns:
            parts = [rel.columns[name] for rel in partials]
            data = np.concatenate([p.data for p in parts])
            first = parts[0]
            columns[name] = Column(
                first.name, first.dtype, data, first.dictionary
            )
        gathered = Relation(
            columns, sum(rel.num_rows for rel in partials)
        )
        ctx.alloc_intermediate(gathered.nbytes)
        ctx.device.materialize(gathered.nbytes)
        ctx.operator_done()
        return gathered

    def _group_report(
        self, prepared, body_ends: list[float], makespan: float
    ) -> dict:
        snapshots = self.group.snapshots()
        return {
            "shards": self.shards,
            "strategy": prepared.strategy,
            "interconnect": self.interconnect.name,
            "decision": {
                k: v
                for k, v in prepared.decision.items()
                if not k.startswith("_")
            },
            "exchanges": [asdict(step) for step in prepared.exchanges],
            "body_end_ns": list(body_ends),
            "makespan_ns": makespan,
            "devices": [
                {
                    "device": k,
                    "total_ns": snap.total_ns,
                    "kernel_time_ns": snap.kernel_time_ns,
                    "transfer_bytes": snap.h2d_bytes + snap.d2h_bytes,
                    "transfer_time_ns": snap.h2d_time_ns
                    + snap.d2h_time_ns,
                    "peer_bytes": snap.peer_bytes,
                    "peer_time_ns": snap.peer_time_ns,
                    "peak_device_bytes": snap.peak_device_bytes,
                    "kernel_launches": snap.kernel_launches,
                }
                for k, snap in enumerate(snapshots)
            ],
        }
