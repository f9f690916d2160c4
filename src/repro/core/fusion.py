"""Data-path kernel fusion over the generated drive programs.

The unfused pipeline launches one modelled kernel per primitive: a
selection with k predicates pays k compare launches, k-1 ``logical_and``
launches, a prefix sum and a scatter — plus an intermediate
materialisation per stage on multi-stage paths.  Fusion collapses each
producer→consumer chain (the predicate chain and its
prefix-sum→compact→gather compaction tail) into ONE fused launch of the
combined iteration work, the thesis of "Data Path Fusion in GPU for
Analytical Query Processing" (PAPERS.md).

Three pieces live here:

* :class:`FusionPlan` — the fusion pass's output, threaded through the
  :class:`~repro.core.codegen.CodeGenerator`.  While generating, every
  fusible site the generator rewrites to a fused runtime entry point
  (``rt.f_scan`` / ``rt.t_f_scan`` / ``rt.f_filter`` /
  ``rt.f_apply_subquery_predicate``) is recorded, so EXPLAIN can list
  exactly what was fused.  Because sites are recorded during emission,
  subquery inner plans (built lazily by the generator) are covered too.
  A site is *launch-only* when its fused scope runs the same kernels at
  the same widths (fused = unfused − (kernels − 1)·C, never slower) and
  *widening* when fused masks run wider than the staged pipeline's.

* :class:`FusionDecision` — what execution ended up doing and why:
  forced by ``EngineOptions.fusion='on'``, analytic (every site
  launch-only: decided at plan time, nothing run), measured by the
  tuner (a widening site: the winner depends on the data), or off.

* :class:`FusionTuner` — the DaCe-style on-the-fly tuner for what
  analysis cannot decide: per plan shape (structural fingerprint) it
  benchmarks the fused candidate against the unfused baseline on a
  private device and remembers the winner.  Entries are keyed by
  ``CostCoefficients.version``; a recalibration bump makes every cached
  decision stale, so the next query re-tunes under the new model — a
  decision is never served across a version bump.

The cardinal invariant, pinned by the fusion-differential test layer:
fusion only changes *charging*, never results.  Every fused path runs
the same numpy computation and produces bit-identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FusionSite:
    """One producer→consumer chain the generator fused."""

    kind: str  # 'scan' | 'filter' | 'subquery_predicate'
    node_id: int
    description: str
    transient: bool = False  # inside a subquery iteration body
    widening: bool = False  # fused runs wider masks: winner is data-dependent

    def __str__(self) -> str:
        where = "loop" if self.transient else "flat"
        where += ", widening" if self.widening else ""
        return f"[{self.node_id}] {self.kind} ({where}): {self.description}"


@dataclass
class FusionPlan:
    """The fusion pass for one generated program.

    Handed to the :class:`CodeGenerator`, which consults :meth:`wants`
    per plan node and records each site it actually rewrote.
    """

    sites: list[FusionSite] = field(default_factory=list)

    def wants(self, node) -> bool:
        """Is this plan node a fusible data-path chain?

        Scans with pushed-down predicates, standalone filters, and
        subquery-predicate applications all end in the compaction tail;
        joins, aggregations and sorts keep their specialised launches.
        """
        from ..plan.nodes import Filter, Scan, SubqueryFilter

        if isinstance(node, Scan):
            return bool(node.filters)
        return isinstance(node, (Filter, SubqueryFilter))

    def record(self, kind: str, node_id: int, description: str,
               transient: bool = False, widening: bool = False) -> None:
        self.sites.append(
            FusionSite(kind, node_id, description, transient, widening)
        )

    def describe(self) -> list[str]:
        return [str(site) for site in self.sites]


@dataclass(frozen=True)
class FusionDecision:
    """Why a prepared query runs fused (or not)."""

    source: str  # 'off' | 'forced' | 'analytic' | 'tuned'
    fused: bool
    sites: int = 0
    fused_ns: float | None = None  # measured by the tuner, else None
    unfused_ns: float | None = None
    coefficients_version: int | None = None

    def describe(self) -> str:
        if self.source == "off":
            return "off"
        if self.source == "forced":
            return f"forced on ({self.sites} sites)"
        if self.source == "analytic":
            return (f"analytic: fused ({self.sites} launch-only sites: same "
                    "kernels, kernels - 1 launch overheads saved each)")
        verdict = "fused wins" if self.fused else "unfused wins"
        return (
            f"tuned: {verdict} ({self.sites} sites, "
            f"fused {self.fused_ns / 1e6:.3f} ms vs "
            f"unfused {self.unfused_ns / 1e6:.3f} ms, "
            f"model v{self.coefficients_version})"
        )

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "fused": self.fused,
            "sites": self.sites,
            "fused_ns": self.fused_ns,
            "unfused_ns": self.unfused_ns,
            "coefficients_version": self.coefficients_version,
        }


FUSION_OFF = FusionDecision(source="off", fused=False)


def plan_fingerprint(plan) -> str:
    """A structural signature of a plan shape, for tuner cache keys.

    Two plans with the same operator tree, predicates and subquery
    descriptors share a fingerprint — and a measured fusion decision.
    """
    from ..plan.nodes import explain

    parts = [explain(plan)]
    for node in plan.walk():
        descriptors = getattr(node, "descriptors", ()) or ()
        if not descriptors:
            primary = getattr(node, "descriptor", None)
            if primary is not None:
                descriptors = (primary,)
        # the dataclass repr covers kind, free quals and the bound inner
        # block, which the outer tree's text does not show
        parts += [f"subq:{descriptor!r}" for descriptor in descriptors]
    return "\n".join(parts)


class FusionTuner:
    """Measured fusion decisions, cached per (plan shape, model version).

    ``decide`` is handed two thunks that each run the candidate program
    on a private device and return the measured modelled nanoseconds
    (the executor sums the tracer's kernel-leaf and materialise spans).
    The winner is cached under the plan fingerprint together with the
    cost-model version it was measured under; a stale version is a
    cache miss, never a served decision, and the re-measured winner
    overwrites it — one entry per plan shape however often the model
    is refitted.
    """

    def __init__(self):
        self._cache: dict[str, FusionDecision] = {}
        self.probes = 0
        self.hits = 0
        self.misses = 0

    def decide(
        self,
        fingerprint: str,
        version: int,
        sites: int,
        measure_unfused,
        measure_fused,
    ) -> FusionDecision:
        self.probes += 1
        cached = self._cache.get(fingerprint)
        if cached is not None and cached.coefficients_version == version:
            self.hits += 1
            return cached
        self.misses += 1
        unfused_ns = measure_unfused()
        fused_ns = measure_fused()
        decision = FusionDecision(
            source="tuned",
            fused=fused_ns < unfused_ns,
            sites=sites,
            fused_ns=fused_ns,
            unfused_ns=unfused_ns,
            coefficients_version=version,
        )
        self._cache[fingerprint] = decision
        return decision

    def stats(self) -> dict:
        return {
            "entries": len(self._cache),
            "probes": self.probes,
            "hits": self.hits,
            "misses": self.misses,
        }
