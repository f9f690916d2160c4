"""Code generation of drive programs (paper Section III-B, Figures 4-6).

The generator traverses the query-plan tree-of-trees from the leaves to
the root and emits a Python *drive program* — one statement per
operator, calling the pre-implemented kernels through the runtime.
One table, :data:`OPERATORS`, names each operator's runtime entry
point, and one emission writes every operator statement.  A ``SUBQ``
operand becomes an iterative loop:

* the correlated columns are pulled to the host once;
* invariant components are evaluated before the loop and referenced
  through ``rt.invariant`` inside it;
* per iteration, the generated statements evaluate the subquery's
  transient operators with the current parameter environment, store the
  scalar into the result vector, and roll the memory pools back;
* with vectorization enabled the loop advances in batches, fusing the
  kernels of many iterations into segmented launches;
* without it, a body the segmented evaluator covers is handed to one
  runtime call, ``rt.replay_loop``, which charges every iteration as
  the statements would; the statements run only when it declines;
* finally the operator containing the subquery is evaluated with the
  result vector as an ordinary input column (Figure 4's last line).

Nested subqueries at any depth generate nested loops (Figure 6).  The
produced source is kept on the program object — ``print(result
.drive_source)`` shows exactly what was generated for a query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from ..errors import PlanError
from ..plan.binder import SubqueryDescriptor
from ..plan.expressions import referenced_params
from ..plan.invariants import InvariantInfo, mark_invariants
from ..plan.nodes import (
    Aggregate,
    CrossJoin,
    DerivedScan,
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
)


#: The one operator table: each operator node type, the runtime entry
#: point its statement calls, whether that entry point has a ``t_*``
#: form (taking the loop's program and parameter environment), and the
#: prefix of its variable inside a loop.  A fused site calls the
#: ``f_*`` (``t_f_*``) form.  Every entry point runs the node through
#: :func:`repro.engine.evaluator.run_operator`.
OPERATORS = {
    Scan: ("scan", True, "t"),
    DerivedScan: ("derived", False, "v"),
    CrossJoin: ("cross_join", False, "t"),
    Join: ("join", True, "t"),
    Filter: ("filter", True, "t"),
    SemiJoin: ("semi_join", False, "v"),
    LeftLookup: ("left_lookup", False, "v"),
    Aggregate: ("aggregate", True, "t"),
    Project: ("project", True, "t"),
    Distinct: ("distinct", False, "v"),
    Sort: ("sort", False, "v"),
    Limit: ("limit", False, "v"),
}


@dataclass
class SubquerySpec:
    """What the runtime needs to instantiate one SubqueryProgram: the
    body plan and its transient/invariant marking, computed once here
    and read by every run, the cost model's probe and EXPLAIN."""

    descriptor: SubqueryDescriptor
    plan: Plan
    info: InvariantInfo
    #: the replay's segmented evaluation of the body (core.replay), kept
    #: for the next execution that binds the same correlated values
    replayed: object = field(default=None, compare=False, repr=False)


@lru_cache(maxsize=256)
def _compile(source: str):
    """Drive code per distinct source, process-wide.  The source is a
    pure function of plan shape (node ids, no literals), so fresh
    engines and distinct bindings of one statement share one code
    object; a ``SyntaxError`` propagates and is not stored."""
    return compile(source, "<drive-program>", "exec")


@dataclass
class DriveProgram:
    """A generated drive program ready for execution."""

    source: str
    nodes: list[Plan]
    specs: list[SubquerySpec]
    # the fusion pass this program was generated under (core.fusion);
    # None means the one-launch-per-primitive pipeline
    fusion: object = None

    @cached_property
    def code(self):
        """Compiled on first use: a candidate that never runs never pays."""
        return _compile(self.source)

    @cached_property
    def drive(self):
        """The program's ``drive(rt)`` callable, exec'd once and kept."""
        exec(self.code, namespace := {})
        return namespace["drive"]


class CodeGenerator:
    """Generates the drive program for one (possibly nested) plan.

    When handed a :class:`~repro.core.fusion.FusionPlan`, fusible
    data-path nodes (scans with predicates, filters, subquery-predicate
    applications) are rewritten to the fused runtime entry points and
    each rewrite is recorded on the plan for EXPLAIN.
    """

    def __init__(self, fusion=None):
        self.fusion = fusion
        self._lines: list[str] = []
        self._indent = 1
        self._nodes: list[Plan] = []
        self._specs: list[SubquerySpec] = []
        self._var_counter = 0
        self._emitted_vars: dict[int, str] = {}

    # -- public ----------------------------------------------------------

    def generate(self, plan: Plan, fetch_result: bool = True) -> DriveProgram:
        self._emit("def drive(rt):")
        result_var = self._emit_plan(plan, _Frame.outermost())
        if fetch_result:
            self._emit(f"return rt.fetch({result_var})")
        else:
            # sharded execution: per-shard partials stay device-resident;
            # the gather exchange moves them, and the coordinator pays
            # the single d2h fetch after the global tail
            self._emit(f"return {result_var}")
        # a pass that fused nothing leaves the plain program, byte for byte
        fused = self.fusion is not None and bool(self.fusion.sites)
        if fused:
            self._lines.insert(
                1, "    # fusion: on — data-path chains charge one fused launch"
            )
        return DriveProgram(
            "\n".join(self._lines) + "\n", self._nodes, self._specs,
            fusion=self.fusion if fused else None,
        )

    # -- helpers -----------------------------------------------------------

    def _emit(self, line: str) -> None:
        if line.startswith("def "):
            self._lines.append(line)
        else:
            self._lines.append("    " * self._indent + line)

    def _register(self, node: Plan) -> int:
        self._nodes.append(node)
        return len(self._nodes) - 1

    def _var(self, prefix: str) -> str:
        self._var_counter += 1
        return f"{prefix}{self._var_counter}"

    # -- plan emission ---------------------------------------------------

    def _emit_plan(self, node: Plan, frame: "_Frame") -> str:
        """Memoising wrapper: a subtree shared by several parents (e.g.
        the magic-set push-down) is emitted — and thus executed — once."""
        if frame.sp_var is None:
            cached = self._emitted_vars.get(id(node))
            if cached is not None:
                return cached
            var = self._emit_plan_inner(node, frame)
            self._emitted_vars[id(node)] = var
            return var
        return self._emit_plan_inner(node, frame)

    def _emit_plan_inner(self, node: Plan, frame: "_Frame") -> str:
        """Emit statements for a plan node; returns its variable name.

        Outside any loop (``frame.sp_var is None``) the flat runtime
        entry points are used.  Inside a subquery iteration, invariant
        subtrees become ``rt.invariant(...)`` references and transient
        nodes use the ``t_*`` entry points with the loop's parameter
        environment.
        """
        in_loop = frame.sp_var is not None
        if in_loop and frame.info is not None and not frame.info.is_transient(node):
            node_id = self._register(node)
            var = self._var("t")
            self._emit(f"{var} = rt.invariant({frame.sp_var}, {node_id})")
            return var

        if isinstance(node, SubqueryFilter):
            child = self._emit_plan(node.child, frame)
            return self._emit_subquery_loop(node, child, frame)
        if isinstance(node, SubqueryColumn):
            child = self._emit_plan(node.child, frame)
            return self._emit_subquery_column(node, child, frame)
        entry = OPERATORS.get(type(node))
        if entry is None:
            raise PlanError(f"code generator cannot handle node {node!r}")

        name, has_transient_form, loop_prefix = entry
        node_id = self._register(node)
        args = [str(node_id)]
        args += [self._emit_plan(child, frame) for child in node.children()]
        var = self._var(loop_prefix if in_loop else "v")
        if self._fusion_site(node, node_id, in_loop):
            name = "f_" + name
        if in_loop and has_transient_form:
            name = "t_" + name
            args = [frame.sp_var, *args, frame.env_var]
        self._emit(f"{var} = rt.{name}({', '.join(args)})")
        return var

    def _fusion_site(self, node: Plan, node_id: int, in_loop: bool) -> bool:
        """Record ``node`` as a fusion site if the pass wants it.

        Returns whether it was rewritten to the fused entry point.
        """
        if self.fusion is None or not self.fusion.wants(node):
            return False
        widening = False
        if isinstance(node, Scan):
            kind = "scan"
            description = (
                f"{node.table} AS {node.binding}: "
                f"{len(node.filters)} predicate(s) + compact"
            )
            # rt.t_f_scan masks every correlated predicate at full width
            # (conservative: an index may answer the first)
            widening = (
                in_loop
                and len(list(filter(referenced_params, node.filters))) >= 2
            )
        elif isinstance(node, Filter):
            kind, description = "filter", "predicate tree + compact"
        else:
            kind = "subquery_predicate"
            description = (
                f"3VL predicate over {len(node.descriptors)} result "
                "vector(s) + compact"
            )
        self.fusion.record(
            kind, node_id, description, transient=in_loop, widening=widening
        )
        return True

    # -- subquery loops (the heart of the paper) -----------------------------

    def _emit_subquery_loop(
        self, node: SubqueryFilter, outer_var: str, frame: "_Frame"
    ) -> str:
        """Emit one loop per SUBQ operand, then the final selection.

        Quantified predicates (``> ALL`` etc.) lower to predicates over
        several subquery operands; each gets its own result vector and
        the predicate is evaluated with all of them in place.
        """
        node_id = self._register(node)
        res_vars = [
            self._emit_one_subquery(descriptor, body, outer_var, frame)
            for descriptor, body in zip(node.descriptors, node.inners)
        ]
        var = self._var("v")
        vectors = "{" + ", ".join(
            f"{descriptor.index}: {res}"
            for descriptor, res in zip(node.descriptors, res_vars)
        ) + "}"
        name = "apply_subquery_predicate"
        if self._fusion_site(node, node_id, frame.sp_var is not None):
            name = "f_" + name
        self._emit(f"{var} = rt.{name}({node_id}, {outer_var}, {vectors})")
        return var

    def _emit_subquery_column(
        self, node, outer_var: str, frame: "_Frame"
    ) -> str:
        """A scalar subquery in the SELECT list: the same loop, but the
        result vector becomes a column instead of a filter."""
        node_id = self._register(node)
        res = self._emit_one_subquery(node.descriptor, node.inner, outer_var, frame)
        var = self._var("v")
        self._emit(
            f"{var} = rt.append_subquery_column({node_id}, {outer_var}, {res})"
        )
        return var

    def _emit_one_subquery(
        self,
        descriptor: SubqueryDescriptor,
        body: Plan,
        outer_var: str,
        frame: "_Frame",
    ) -> str:
        spec_index = len(self._specs)
        info = mark_invariants(body)
        self._specs.append(SubquerySpec(descriptor, body, info))

        k = spec_index
        sp, corr, res, mark = f"sp{k}", f"corr{k}", f"res{k}", f"mark{k}"
        i, env = f"i{k}", f"env{k}"
        outer_env = frame.env_var if frame.sp_var is not None else None

        self._emit(
            f"# --- SUBQ #{k}: {descriptor.kind}, "
            f"params {list(descriptor.free_quals)}"
        )
        self._emit(f"{sp} = rt.subquery({k})")

        if not descriptor.is_correlated:
            # type-A/N: evaluate once, no loop (paper Section II-A)
            self._emit(f"{res} = rt.uncorrelated_vector({outer_var}, {sp})")
            return res

        self._emit(
            f"{corr} = rt.correlated_values({sp}, {outer_var}, {outer_env})"
        )
        self._emit(f"{res} = rt.new_result({sp}, {outer_var})")
        self._emit(f"rt.eval_invariants({sp}, {outer_var})")
        self._emit(f"{mark} = rt.mark_pools()")
        self._emit(f"if {sp}.vectorized:")
        self._indent += 1
        n_var, lo = f"n{k}", f"lo{k}"
        self._emit(f"{n_var} = rt.rows({outer_var})")
        self._emit(f"for {lo} in range(0, {n_var}, {sp}.batch_size):")
        self._indent += 1
        self._emit(
            f"rt.run_vector_batch({sp}, {corr}, {lo}, "
            f"min({lo} + {sp}.batch_size, {n_var}), {res})"
        )
        self._emit(f"rt.restore_pools({mark})")
        self._indent -= 2
        # a body the replay covers runs as one call (core.replay)
        self._emit(f"elif not rt.replay_loop({sp}, {corr}, {res}, {mark}):")
        self._indent += 1
        self._emit(f"for {i} in range(rt.rows({outer_var})):")
        self._indent += 1
        self._emit(f"{env} = rt.param_env({sp}, {corr}, {i})")
        if outer_env is not None:
            self._emit(f"{env}.update({outer_env})")
        if descriptor.kind in ("scalar", "exists"):
            hit = f"hit{k}"
            self._emit(f"{hit} = rt.cache_get({sp}, {env})")
            self._emit(f"if {hit} is not None:")
            self._indent += 1
            self._emit(f"rt.store_cached({res}, {i}, {hit})")
            self._emit("continue")
            self._indent -= 1

        # inline the subquery's operator statements (Figure 4)
        inner_frame = _Frame(sp_var=sp, env_var=env, info=info)
        root_var = self._emit_plan(body, inner_frame)

        if descriptor.kind == "scalar":
            self._emit(f"val{k}, ok{k} = rt.scalar_from({sp}, {root_var})")
            self._emit(f"rt.cache_put({sp}, {env}, val{k}, ok{k})")
            self._emit(f"rt.store_scalar({res}, {i}, val{k}, ok{k})")
        elif descriptor.kind == "exists":
            self._emit(f"flag{k} = rt.exists_from({root_var})")
            self._emit(f"rt.cache_put({sp}, {env}, float(flag{k}), True)")
            self._emit(f"rt.store_exists({res}, {i}, flag{k})")
        else:  # IN: variable-length results, two-level array
            self._emit(
                f"rt.store_values({res}, {i}, rt.values_from({root_var}))"
            )
        self._emit(f"rt.restore_pools({mark})")
        self._indent -= 2
        return res


@dataclass
class _Frame:
    """Emission context: which loop (if any) we are generating inside."""

    sp_var: str | None
    env_var: str | None
    info: InvariantInfo | None

    @staticmethod
    def outermost() -> "_Frame":
        return _Frame(None, None, None)


def generate_drive_program(
    builder,
    plan: Plan,
    fetch_result: bool = True,
    fusion=None,
) -> DriveProgram:
    """Generate and compile the drive program for a plan.

    ``builder`` is unused: every SUBQ node carries its inner plans.
    The parameter stays for callers that pass a plan builder.
    """
    return CodeGenerator(fusion=fusion).generate(plan, fetch_result=fetch_result)
