"""Logical plan construction from bound blocks.

The builder mirrors the paper's engine behaviour:

* single-table predicates are pushed into scans;
* equi predicates between two bindings form the join graph, joined
  greedily smallest-first (build side = the newly added, smaller
  relation);
* predicates containing a ``SUBQ`` operand are applied *after* the
  join tree as :class:`~repro.plan.nodes.SubqueryFilter` — the paper's
  "first join with the predicates without correlated subqueries, then
  perform a selection over the result table" optimization.  Each SUBQ
  node is built together with the inner plan of every subquery it
  evaluates (the tree-of-trees), except a legal EXISTS conjunct
  outside any SUBQ body, which becomes a semi-join (paper: Q4);
* correlated predicates inside a subquery block stay as scan filters
  containing :class:`~repro.plan.expressions.ParamRef` — the invariant
  analysis later marks those scans transient.
"""

from __future__ import annotations

from ..errors import PlanError
from ..storage import Catalog
from .binder import BoundBlock, BoundDerived, BoundTable
from .expressions import (
    BoolOp,
    ColRef,
    Compare,
    PlanExpr,
    _replace_subquery_refs,
    contains_subquery,
    referenced_bindings,
    referenced_params,
    subquery_refs,
)
from .nodes import (
    Aggregate,
    CrossJoin,
    DerivedScan,
    Distinct,
    Filter,
    Join,
    Limit,
    Plan,
    Project,
    Scan,
    Sort,
    SubqueryColumn,
    SubqueryFilter,
)
from .optimizer import as_semijoin, prune_scan_columns
from .selectivity import predicate_selectivity


class PlanBuilder:
    """Builds logical plans for a bound block and its subqueries.

    Args:
        catalog: base tables, for estimation and pruning.
        unnest: rewrite correlated subqueries with Kim's method
            (raising :class:`~repro.errors.UnnestingError` when the
            query cannot be unnested) instead of keeping ``SUBQ``
            filters for the nested method.
        magic_sets: with ``unnest``, seed each derived table with the
            outer block's correlated key values (the MonetDB-like
            push-down).
        exact_selectivity: a shared
            :class:`~repro.plan.selectivity.ExactSelectivity` estimator;
            when set, single-table predicates are counted exactly and
            the heuristics of
            :func:`~repro.plan.selectivity.predicate_selectivity` only
            back up the unsupported cases.
    """

    def __init__(self, catalog: Catalog, unnest: bool = False,
                 magic_sets: bool = False, exact_selectivity=None):
        self.catalog = catalog
        self.unnest = unnest
        self.magic_sets = magic_sets
        self.exact_selectivity = exact_selectivity
        self._derived_counter = 0
        self._in_body = False  # planning a SUBQ body (see _plan_body)

    # -- public ----------------------------------------------------------

    def build(self, block: BoundBlock) -> Plan:
        """Plan one block together with every subquery body in it."""
        plan, subquery_conjuncts = self._build_join_tree(block)
        for conjunct in subquery_conjuncts:
            plan = self._attach_subquery_conjunct(plan, conjunct, block)
        plan = self._apply_aggregation(plan, block)
        plan, select_exprs = self._apply_select_subqueries(plan, block)
        plan = Project(plan, select_exprs, list(block.select_names))
        if block.distinct:
            plan = Distinct(plan)
        if block.order_keys:
            plan = Sort(
                plan,
                [name for name, _ in block.order_keys],
                [desc for _, desc in block.order_keys],
            )
        if block.limit is not None:
            plan = Limit(plan, block.limit)
        prune_scan_columns(plan, self.catalog)
        return plan

    def _plan_body(self, block: BoundBlock) -> Plan:
        """Plan a SUBQ body: the EXISTS semi-join never applies in one."""
        in_body, self._in_body = self._in_body, True
        try:
            return self.build(block)
        finally:
            self._in_body = in_body

    # -- join tree ----------------------------------------------------------

    def _build_join_tree(
        self, block: BoundBlock
    ) -> tuple[Plan, list[PlanExpr]]:
        """The join tree of ``block`` and its conjuncts holding a SUBQ."""
        scans: dict[str, Plan] = {}
        estimates: dict[str, float] = {}
        for table in block.tables:
            if isinstance(table, BoundDerived):
                inner = self.build(table.block)
                scans[table.binding] = DerivedScan(
                    inner, table.binding, [c.name for c in table.columns]
                )
                estimates[table.binding] = self._estimate_block_output(table.block)
            else:
                scans[table.binding] = Scan(table.table, table.binding)
                estimates[table.binding] = float(
                    self.catalog.table(table.table).num_rows
                )

        join_edges: list[tuple[str, PlanExpr, str, PlanExpr]] = []
        post_filters: list[PlanExpr] = []
        subquery_conjuncts: list[PlanExpr] = []

        for conjunct in block.conjuncts:
            if contains_subquery(conjunct):
                subquery_conjuncts.append(conjunct)
                continue
            bindings = referenced_bindings(conjunct)
            if len(bindings) == 1:
                binding = next(iter(bindings))
                scan = scans[binding]
                if isinstance(scan, Scan):
                    scan.filters.append(conjunct)
                    table_name = scan.table
                else:
                    scans[binding] = Filter(scan, conjunct)
                    table_name = None
                estimates[binding] *= predicate_selectivity(
                    self.catalog, conjunct, table_name, self.exact_selectivity
                )
                continue
            edge = _as_join_edge(conjunct)
            if edge is not None and not referenced_params(conjunct):
                join_edges.append(edge)
                continue
            if not bindings:
                # pure-param predicate (e.g. correlated constant test):
                # evaluate over whichever relation exists — post filter.
                post_filters.append(conjunct)
                continue
            post_filters.append(conjunct)

        # predicates that cannot be join keys (theta comparisons,
        # both-sides-correlated subqueries) still *connect* bindings:
        # they license a Cartesian product (paper Figure 5, case 2)
        weak_edges: list[tuple[str, str]] = []
        for conjunct in post_filters + subquery_conjuncts:
            connected = set(referenced_bindings(conjunct))
            # a subquery's correlations with this block's bindings also
            # connect them (the SUBQ may be correlated with both sides
            # of a join without the conjunct naming either)
            for ref in subquery_refs(conjunct):
                descriptor = block.subqueries[ref.index]
                for qual in descriptor.free_quals:
                    binding = qual.rsplit(".", 1)[0]
                    if binding in scans:
                        connected.add(binding)
            bindings = sorted(connected)
            for i, left_binding in enumerate(bindings):
                for right_binding in bindings[i + 1 :]:
                    weak_edges.append((left_binding, right_binding))

        order = self._join_order(list(scans), estimates, join_edges, weak_edges)
        if not order:
            raise PlanError("query block has no FROM tables")
        tree = scans[order[0]]
        joined = {order[0]}
        remaining_edges = list(join_edges)
        for binding in order[1:]:
            keys = _edges_between(remaining_edges, joined, binding)
            joined.add(binding)
            if not keys:
                # only reachable through a weak edge: Cartesian product
                tree = CrossJoin(tree, scans[binding])
                continue
            (tree_key, scan_key), extra = keys[0], keys[1:]
            tree = Join(tree, scans[binding], tree_key, scan_key)
            for tree_key2, scan_key2 in extra:
                tree = Filter(tree, Compare("=", tree_key2, scan_key2))

        for predicate in post_filters:
            tree = Filter(tree, predicate)
        return tree, subquery_conjuncts

    def _join_order(
        self,
        bindings: list[str],
        estimates: dict[str, float],
        edges: list[tuple[str, PlanExpr, str, PlanExpr]],
        weak_edges: list[tuple[str, str]] | None = None,
    ) -> list[str]:
        if len(bindings) == 1:
            return bindings
        adjacency: dict[str, set[str]] = {b: set() for b in bindings}
        for left_binding, _, right_binding, _ in edges:
            adjacency[left_binding].add(right_binding)
            adjacency[right_binding].add(left_binding)
        weak: dict[str, set[str]] = {b: set() for b in bindings}
        for left_binding, right_binding in weak_edges or []:
            if left_binding in weak and right_binding in weak:
                weak[left_binding].add(right_binding)
                weak[right_binding].add(left_binding)
        start = min(bindings, key=lambda b: estimates[b])
        order = [start]
        joined = {start}
        while len(order) < len(bindings):
            frontier = [
                b
                for b in bindings
                if b not in joined and adjacency[b] & joined
            ]
            if not frontier:
                # fall back to weak (Cartesian-licensing) connections
                frontier = [
                    b
                    for b in bindings
                    if b not in joined and weak[b] & joined
                ]
            if not frontier:
                missing = next(b for b in bindings if b not in joined)
                raise PlanError(
                    f"no predicate connects {missing!r} to the rest of "
                    "the FROM clause; unconstrained cartesian products "
                    "are not supported"
                )
            best = min(frontier, key=lambda b: estimates[b])
            order.append(best)
            joined.add(best)
        return order

    def next_derived_binding(self) -> str:
        self._derived_counter += 1
        return f"__dt{self._derived_counter}"

    # -- SELECT-list subqueries -------------------------------------------

    def _apply_select_subqueries(
        self, plan: Plan, block: BoundBlock
    ) -> tuple[Plan, list[PlanExpr]]:
        """Materialise scalar subqueries appearing in the SELECT list.

        Each distinct ``SUBQ`` operand becomes a :class:`SubqueryColumn`
        (or an outer-join lookup under unnesting); the select
        expressions are rewritten to reference the produced column.
        """
        from .expressions import AggRef, SubqueryRef

        refs: list[SubqueryRef] = []
        for expr in block.select_exprs:
            for ref in subquery_refs(expr):
                if all(r.index != ref.index for r in refs):
                    refs.append(ref)
        if not refs:
            return plan, list(block.select_exprs)
        mapping: dict[int, PlanExpr] = {}
        for ref in refs:
            if ref.kind != "scalar":
                raise PlanError(
                    "only scalar subqueries are allowed in the SELECT list"
                )
            descriptor = block.subqueries[ref.index]
            output_name = f"__subqcol{ref.index}"
            if self.unnest:
                from .unnest import rewrite_select_subquery

                plan = rewrite_select_subquery(
                    self, plan, descriptor, output_name
                )
            else:
                plan = SubqueryColumn(
                    plan, output_name, descriptor,
                    self._plan_body(descriptor.block),
                )
            mapping[ref.index] = AggRef(output_name)
        select_exprs = [
            _replace_subquery_refs(expr, mapping) for expr in block.select_exprs
        ]
        return plan, select_exprs

    # -- aggregation / projection ----------------------------------------------

    def _apply_aggregation(self, plan: Plan, block: BoundBlock) -> Plan:
        if not block.is_aggregate:
            return plan
        # HAVING conjuncts containing SUBQ run as subquery filters over
        # the aggregate output (the group keys carry their quals, so
        # correlation works unchanged); the rest stay on the Aggregate
        from .expressions import split_conjuncts as split_bound

        plain: list = []
        subquery_conjuncts: list = []
        for conjunct in split_bound(block.having):
            if contains_subquery(conjunct):
                subquery_conjuncts.append(conjunct)
            else:
                plain.append(conjunct)
        having = None
        for conjunct in plain:
            having = conjunct if having is None else BoolOp("and", having, conjunct)
        plan = Aggregate(plan, list(block.group_keys), list(block.aggs), having)
        for conjunct in subquery_conjuncts:
            plan = self._attach_subquery_conjunct(plan, conjunct, block)
        return plan

    def _attach_subquery_conjunct(
        self, plan: Plan, conjunct, block: BoundBlock
    ) -> Plan:
        refs = subquery_refs(conjunct)
        if self.unnest:
            if len(refs) != 1:
                from ..errors import UnnestingError

                raise UnnestingError(
                    "unnesting supports one subquery per predicate"
                )
            from .unnest import rewrite_subquery_conjunct

            return rewrite_subquery_conjunct(
                self, plan, conjunct, block.subqueries[refs[0].index]
            )
        descriptors = tuple(
            block.subqueries[i] for i in dict.fromkeys(r.index for r in refs)
        )
        if not self._in_body:
            semijoin = as_semijoin(plan, conjunct, descriptors)
            if semijoin is not None:
                return semijoin
        return SubqueryFilter(
            plan, conjunct, descriptors,
            tuple(self._plan_body(d.block) for d in descriptors),
        )

    # -- estimation ----------------------------------------------------------

    def _estimate_block_output(self, block: BoundBlock) -> float:
        total = 1.0
        for table in block.tables:
            if isinstance(table, BoundTable):
                total = max(total, float(self.catalog.table(table.table).num_rows))
        if block.group_keys:
            # distinct of first group key bounds the output
            key = block.group_keys[0]
            if isinstance(key, ColRef):
                for table in block.tables:
                    if isinstance(table, BoundTable) and table.binding == key.binding:
                        return float(
                            self.catalog.table(table.table).distinct_count(key.column)
                        )
            return total * 0.1
        if block.aggs:
            return 1.0
        return total


def _as_join_edge(conjunct: PlanExpr):
    """Recognise ``colA = colB`` across two bindings -> join edge."""
    if not isinstance(conjunct, Compare) or conjunct.op != "=":
        return None
    left_bindings = referenced_bindings(conjunct.left)
    right_bindings = referenced_bindings(conjunct.right)
    if len(left_bindings) != 1 or len(right_bindings) != 1:
        return None
    left_binding = next(iter(left_bindings))
    right_binding = next(iter(right_bindings))
    if left_binding == right_binding:
        return None
    return (left_binding, conjunct.left, right_binding, conjunct.right)


def _edges_between(
    edges: list[tuple[str, PlanExpr, str, PlanExpr]],
    joined: set[str],
    new_binding: str,
) -> list[tuple[PlanExpr, PlanExpr]]:
    """Join keys connecting the current tree to ``new_binding``.

    Returns pairs (tree-side key, new-side key); consumed edges are
    removed from ``edges``.
    """
    keys: list[tuple[PlanExpr, PlanExpr]] = []
    kept = []
    for edge in edges:
        left_binding, left_key, right_binding, right_key = edge
        if left_binding in joined and right_binding == new_binding:
            keys.append((left_key, right_key))
        elif right_binding in joined and left_binding == new_binding:
            keys.append((right_key, left_key))
        else:
            kept.append(edge)
    edges[:] = kept
    return keys
