"""Code generation of drive programs (paper Section III-B, Figures 4-6).

The generator traverses the query-plan tree-of-trees from the leaves to
the root and emits a Python *drive program* — one statement per
operator, calling the pre-implemented kernels through the runtime.  A
``SUBQ`` operand becomes an iterative loop:

* the correlated columns are pulled to the host once;
* invariant components are evaluated before the loop and referenced
  through ``rt.invariant`` inside it;
* per iteration, the generated statements evaluate the subquery's
  transient operators with the current parameter environment, store the
  scalar into the result vector, and roll the memory pools back;
* with vectorization enabled the loop advances in batches, fusing the
  kernels of many iterations into segmented launches;
* finally the operator containing the subquery is evaluated with the
  result vector as an ordinary input column (Figure 4's last line).

Nested subqueries at any depth generate nested loops (Figure 6).  The
produced source is kept on the program object — ``print(result
.drive_source)`` shows exactly what was generated for a query.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import PlanError
from ..plan.binder import SubqueryDescriptor
from ..plan.builder import PlanBuilder
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


@dataclass
class SubquerySpec:
    """What the runtime needs to instantiate one SubqueryProgram."""

    descriptor: SubqueryDescriptor
    plan: Plan


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
        return compile(self.source, "<drive-program>", "exec")

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

    def __init__(self, builder: PlanBuilder, fusion=None):
        self.builder = builder
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

    def _fuse(self, node: Plan) -> bool:
        return self.fusion is not None and self.fusion.wants(node)

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

        node_id = self._register(node)

        if isinstance(node, Scan):
            var = self._var("t" if in_loop else "v")
            if self._fuse(node):
                self.fusion.record(
                    "scan", node_id,
                    f"{node.table} AS {node.binding}: "
                    f"{len(node.filters)} predicate(s) + compact",
                    transient=in_loop,
                    # rt.t_f_scan masks every correlated predicate at full
                    # width (conservative: an index may answer the first)
                    widening=in_loop
                    and len(list(filter(referenced_params, node.filters))) >= 2,
                )
                if in_loop:
                    self._emit(
                        f"{var} = rt.t_f_scan({frame.sp_var}, {node_id}, "
                        f"{frame.env_var})"
                    )
                else:
                    self._emit(f"{var} = rt.f_scan({node_id})")
            elif in_loop:
                self._emit(
                    f"{var} = rt.t_scan({frame.sp_var}, {node_id}, {frame.env_var})"
                )
            else:
                self._emit(f"{var} = rt.scan({node_id})")
            return var
        if isinstance(node, DerivedScan):
            inner = self._emit_plan(node.plan, frame)
            var = self._var("v")
            self._emit(f"{var} = rt.derived({node_id}, {inner})")
            return var
        if isinstance(node, CrossJoin):
            left = self._emit_plan(node.left, frame)
            right = self._emit_plan(node.right, frame)
            var = self._var("t" if in_loop else "v")
            self._emit(f"{var} = rt.cross_join({node_id}, {left}, {right})")
            return var
        if isinstance(node, Join):
            left = self._emit_plan(node.left, frame)
            right = self._emit_plan(node.right, frame)
            var = self._var("t" if in_loop else "v")
            if in_loop:
                self._emit(
                    f"{var} = rt.t_join({frame.sp_var}, {node_id}, "
                    f"{left}, {right}, {frame.env_var})"
                )
            else:
                self._emit(f"{var} = rt.join({node_id}, {left}, {right})")
            return var
        if isinstance(node, Filter):
            child = self._emit_plan(node.child, frame)
            var = self._var("t" if in_loop else "v")
            if self._fuse(node):
                self.fusion.record(
                    "filter", node_id, "predicate tree + compact",
                    transient=in_loop,
                )
                if in_loop:
                    self._emit(
                        f"{var} = rt.t_f_filter({frame.sp_var}, {node_id}, "
                        f"{child}, {frame.env_var})"
                    )
                else:
                    self._emit(f"{var} = rt.f_filter({node_id}, {child})")
            elif in_loop:
                self._emit(
                    f"{var} = rt.t_filter({frame.sp_var}, {node_id}, "
                    f"{child}, {frame.env_var})"
                )
            else:
                self._emit(f"{var} = rt.filter({node_id}, {child})")
            return var
        if isinstance(node, SemiJoin):
            child = self._emit_plan(node.child, frame)
            inner = self._emit_plan(node.inner, frame)
            var = self._var("v")
            self._emit(f"{var} = rt.semi_join({node_id}, {child}, {inner})")
            return var
        if isinstance(node, LeftLookup):
            child = self._emit_plan(node.child, frame)
            inner = self._emit_plan(node.inner, frame)
            var = self._var("v")
            self._emit(f"{var} = rt.left_lookup({node_id}, {child}, {inner})")
            return var
        if isinstance(node, Aggregate):
            child = self._emit_plan(node.child, frame)
            var = self._var("t" if in_loop else "v")
            if in_loop:
                self._emit(
                    f"{var} = rt.t_aggregate({frame.sp_var}, {node_id}, "
                    f"{child}, {frame.env_var})"
                )
            else:
                self._emit(f"{var} = rt.aggregate({node_id}, {child})")
            return var
        if isinstance(node, Project):
            child = self._emit_plan(node.child, frame)
            var = self._var("t" if in_loop else "v")
            if in_loop:
                self._emit(
                    f"{var} = rt.t_project({frame.sp_var}, {node_id}, "
                    f"{child}, {frame.env_var})"
                )
            else:
                self._emit(f"{var} = rt.project({node_id}, {child})")
            return var
        if isinstance(node, Distinct):
            child = self._emit_plan(node.child, frame)
            var = self._var("v")
            self._emit(f"{var} = rt.distinct({node_id}, {child})")
            return var
        if isinstance(node, Sort):
            child = self._emit_plan(node.child, frame)
            var = self._var("v")
            self._emit(f"{var} = rt.sort({node_id}, {child})")
            return var
        if isinstance(node, Limit):
            child = self._emit_plan(node.child, frame)
            var = self._var("v")
            self._emit(f"{var} = rt.limit({node_id}, {child})")
            return var
        raise PlanError(f"code generator cannot handle node {node!r}")

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
        res_vars: list[str] = []
        for descriptor in node.descriptors:
            inner_plan = getattr(node, "inner_plan", None)
            if inner_plan is None or len(node.descriptors) > 1:
                inner_plan = self.builder.build(descriptor.block)
            res_vars.append(
                self._emit_one_subquery(descriptor, inner_plan, outer_var, frame)
            )
        var = self._var("v")
        vectors = "{" + ", ".join(
            f"{descriptor.index}: {res}"
            for descriptor, res in zip(node.descriptors, res_vars)
        ) + "}"
        if self._fuse(node):
            self.fusion.record(
                "subquery_predicate", node_id,
                f"3VL predicate over {len(node.descriptors)} result "
                "vector(s) + compact",
                transient=frame.sp_var is not None,
            )
            self._emit(
                f"{var} = rt.f_apply_subquery_predicate("
                f"{node_id}, {outer_var}, {vectors})"
            )
        else:
            self._emit(
                f"{var} = rt.apply_subquery_predicate("
                f"{node_id}, {outer_var}, {vectors})"
            )
        return var

    def _emit_subquery_column(
        self, node, outer_var: str, frame: "_Frame"
    ) -> str:
        """A scalar subquery in the SELECT list: the same loop, but the
        result vector becomes a column instead of a filter."""
        node_id = self._register(node)
        inner_plan = getattr(node, "inner_plan", None)
        if inner_plan is None:
            inner_plan = self.builder.build(node.descriptor.block)
        res = self._emit_one_subquery(node.descriptor, inner_plan, outer_var, frame)
        var = self._var("v")
        self._emit(
            f"{var} = rt.append_subquery_column({node_id}, {outer_var}, {res})"
        )
        return var

    def _emit_one_subquery(
        self,
        descriptor: SubqueryDescriptor,
        inner_plan: Plan,
        outer_var: str,
        frame: "_Frame",
    ) -> str:
        spec_index = len(self._specs)
        self._specs.append(SubquerySpec(descriptor, inner_plan))

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
        self._emit("else:")
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
        inner_frame = _Frame(sp_var=sp, env_var=env, info=mark_invariants(inner_plan))
        root_var = self._emit_plan(inner_plan, inner_frame)

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
    builder: PlanBuilder,
    plan: Plan,
    fetch_result: bool = True,
    fusion=None,
) -> DriveProgram:
    """Generate and compile the drive program for a plan."""
    return CodeGenerator(builder, fusion=fusion).generate(
        plan, fetch_result=fetch_result
    )
