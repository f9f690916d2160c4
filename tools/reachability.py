"""Which functions of ``src/repro`` does anything actually run?

Runs every entry point of the project under a ``sys.setprofile`` hook
and reports, for each ``def`` in ``src/repro``, its lines and which
entry points reached it.  The entry points, in five groups:

* ``tier-1``   -- the unit and integration tests (``pytest`` over ``tests/``);
* ``figures``  -- the paper figure suite (``pytest benchmarks/``);
* ``e2e``      -- the steps of CI's ``e2e-bench-smoke`` job:
  ``selftest.py``, ``run.py --quick``, one traced ``solo_cold`` run and
  the two profiled session runs;
* ``ci``       -- the steps of every other CI smoke job, read from
  ``.github/workflows/ci.yml`` and run as CI runs them, including two
  live ``net serve`` processes drained by SIGTERM;
* ``examples`` -- ``examples/*.py``.

The hook is a generated ``sitecustomize.py`` put first on
``PYTHONPATH``, so every Python process of a run loads it: the
benchmark's ``os.execve`` re-exec, its per-workload children and the
CLI servers alike.  It installs ``sys.setprofile`` and
``threading.setprofile`` and, at exit, writes the code objects it saw
under ``src/repro`` as ``(file, co_firstlineno, co_name)``; a ``def``
is matched on its file, its first line (the first decorator, which is
what ``co_firstlineno`` holds) and its name.  Only the standard library
is used.

The figure suite runs with ``--benchmark-disable``: pytest-benchmark
clears ``sys.setprofile`` around every benchmarked call, which would
make every ``figureN_*`` read as unreached.

A function that no entry point reaches, or that only the tier-1 tests
reach, must have a one-line reason in ``KEEP``; the report lists each
with its reason and exits 1 if any has none.  A nested ``def``'s lines
count only when its parent is reached; otherwise they are already in
the parent's.

Not reached is not dead: a valid input no entry point sends can still
take a path.  So the report also lists, for each such function, where
``src/repro`` still names it (a bare name, an attribute, an import, or
a string the code generator emits); only one that nothing names is
offered for deletion.  ``--gone-since REV`` runs the same check over
the functions deleted since ``REV``.

Usage, from the repository root (the whole run takes several minutes)::

    python tools/reachability.py                       # run and report
    python tools/reachability.py --save reach.json     # ... and keep the result
    python tools/reachability.py --load reach.json     # report again, no run
    python tools/reachability.py --load after.json --compare before.json
    python tools/reachability.py --load reach.json --gone-since main
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
import textwrap
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
GROUPS = ("tier-1", "figures", "e2e", "ci", "examples")

#: the per-process hook; ``REACH_SRC`` and ``REACH_OUT`` come from the
#: environment so one file serves every entry point
SITECUSTOMIZE = '''\
import atexit, os, sys, threading, time

_seen = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen[id(code)] = code


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    src = os.environ["REACH_SRC"]
    keys = set()
    for code in list(_seen.values()):
        path = os.path.realpath(code.co_filename)
        if path.startswith(src):
            keys.add((path, code.co_firstlineno, code.co_name))
    out = os.path.join(
        os.environ["REACH_OUT"], "%d-%d.tsv" % (os.getpid(), time.monotonic_ns())
    )
    with open(out, "w") as handle:
        handle.writelines("%s\\t%d\\t%s\\n" % key for key in keys)


sys.setprofile(_profile)
threading.setprofile(_profile)
atexit.register(_dump)
'''

# -- the CI jobs, read from .github/workflows/ci.yml -------------------------
# Every job but ``tests`` runs step by step as CI runs it (bash -eo
# pipefail, stop at the first failing step) in a per-job directory that
# mirrors the checkout through symlinks; its ``src`` holds the hook beside
# ``repro``, so the steps' own ``PYTHONPATH=src`` loads it.  The ``tests``
# job's entry points run on their own: its figure step needs
# ``--benchmark-disable``.  The e2e job's two cProfile steps record only
# up to the profiler's start, since cProfile replaces the hook.

CI_YML = ROOT / ".github" / "workflows" / "ci.yml"
#: the group a job's steps count in (``None``: run elsewhere; default ``ci``)
JOB_GROUP = {"tests": None, "e2e-bench-smoke": "e2e"}


def ci_steps(text: str) -> dict[str, list[tuple[str, str]]]:
    """Each CI job's ``run:`` steps as ``(name, script)``, in file order.

    A line scan, not a YAML parser: it reads the two-space job keys under
    ``jobs:``, each step's ``- name:`` and its ``run:`` (one line or a
    ``|`` block), and leaves out the dependency installs.
    """
    jobs: dict[str, list[tuple[str, str]]] = {}
    lines = text.splitlines()
    job, name, i = None, "", 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if line == "jobs:":
            job = ""
            continue
        if job is None:
            continue
        if header := re.fullmatch(r"  ([\w-]+):\s*", line):
            job = header.group(1)
            jobs[job] = []
        elif step := re.fullmatch(r"\s+- (?:name: (.*)|uses: .*)", line):
            name = step.group(1) or ""
        elif run := re.fullmatch(r"(\s+)run: (.*)", line):
            script = run.group(2)
            if script == "|":
                body = []
                while i < len(lines) and (
                    not lines[i].strip()
                    or len(lines[i]) - len(lines[i].lstrip()) > len(run.group(1))
                ):
                    body.append(lines[i])
                    i += 1
                script = textwrap.dedent("\n".join(body)).strip() + "\n"
            if "pip install" not in script:
                jobs[job].append((name or script.splitlines()[0], script))
            name = ""
    return jobs


# -- why each function that only the tests reach (or nothing) stays ---------
# Keys are fnmatch patterns over "module::Qualified.name"; the first match
# gives the reason, so the protocol-method patterns come first.

_OWN_TEST = "small public API with its own unit test"


def _same(reason: str, *labels: str) -> dict[str, str]:
    return dict.fromkeys(labels, reason)


KEEP: dict[str, str] = {
    # protocol methods
    "*.__str__": "text rendering (EXPLAIN, SQL in messages) of a node kind "
                 "no entry point prints",
    "*.__repr__": "debugging representation",
    "*.__len__": "sized-container protocol",
    "*.__contains__": "container protocol",
    **_same("`with` form of a class its callers close explicitly",
            "*.__enter__", "*.__exit__"),
    "repro.baselines.rowstore::Iterator.*":
        "abstract Volcano iterator (Figure 2); every operator overrides it",
    "repro.serve.concurrent::SchedulingPolicy.select":
        "abstract scheduling policy; both policies override it",
    "repro.obs.tracer::NullTracer.*":
        "null-object twin of Tracer; callers test `tracer.enabled` first",
    **_same("result interface of every system",
            "repro.baselines.rowstore::IteratorStats.total_ms",
            "repro.baselines.rowstore::RowstoreResult.total_ms",
            "repro.baselines.rowstore::RowstoreResult.num_rows",
            "repro.net.client::NetResult.total_ns"),
    **_same("PreparedQuery interface: a ShardedPrepared stands in for one",
            "repro.core.sharded::ShardedPrepared.predicted_ms",
            "repro.core.sharded::ShardedPrepared.fusion_decision"),
    # front doors no CI job drives
    "repro.cli::repl": "the interactive REPL (stdin), a documented front door",
    "repro.cli::format_result": "prints rows for `repro.cli -q` and the REPL",
    "repro.cli::_usage_error": "exit 2 on an invalid engine flag (outside input)",
    "repro.serve.session::EngineSession.explain":
        "REPL `\\explain` / `\\analyze` on its session",
    "repro.serve.session::EngineSession.drive_source":
        "REPL `\\source` on its session",
    "repro.core.executor::NestGPU.explain_prepared":
        "EXPLAIN (`repro.cli --explain`, REPL `\\explain`)",
    "repro.core.executor::NestGPU._node_depth_map": "EXPLAIN's plan indentation",
    **_same("EXPLAIN of a sharded plan",
            "repro.core.sharded::ShardedEngine.explain",
            "repro.plan.exchange::ExchangeStep.describe"),
    "repro.core.sharded::ShardedEngine.drive_source":
        "`--source` on a sharded engine (engine interface shared with NestGPU)",
    "repro.core.sharded::ShardedEngine.execute":
        "engine interface shared with NestGPU; front doors go through sessions",
    "repro.core.fusion::FusionPlan.describe": "EXPLAIN's fusion lines",
    "repro.core.fusion::FusionDecision.to_dict": "EXPLAIN ANALYZE / report JSON",
    "repro.obs.analyze::AnalyzeReport.write_trace":
        "EXPLAIN ANALYZE's Chrome-trace export for library callers",
    "repro.gpu.spec::DeviceSpec.a100": "`--device a100`",
    "repro.gpu.spec::InterconnectSpec.nvswitch": "`--interconnect nvswitch`",
    **_same("parses `net serve --tenants FILE`, outside input",
            "repro.net.qos::TenantRegistry.from_config",
            "repro.net.qos::TenantRegistry.from_json_file"),
    "repro.net.qos::single_tenant_registry":
        "`net serve`'s roster without --tenants/--demo-tenants",
    # paths that run only when something goes wrong, or under load
    "repro.fuzz.shrinker::*": "the shrinker runs only when a fuzz case fails",
    **_same("fuzz failure artifacts and `fuzz --replay`; run only after a "
            "failure",
            "repro.fuzz.runner::write_case_trace",
            "repro.fuzz.runner::_shrink_case",
            "repro.fuzz.runner::write_artifact",
            "repro.fuzz.runner::replay"),
    **_same("reports a failing differential case",
            "repro.fuzz.differential::Report.summary",
            "repro.fuzz.differential::_diff_detail"),
    "repro.net.server::NetServer._on_*":
        "server half of an opcode (PREPARE/FETCH/CANCEL) no CI client sends",
    **_same("client half of an opcode (PREPARE/CANCEL/TRACE/KILL) no CI "
            "client sends",
            "repro.net.client::ReproNetClient.prepare",
            "repro.net.client::ReproNetClient.cancel",
            "repro.net.client::ReproNetClient.trace",
            "repro.net.client::ReproNetClient.kill"),
    "repro.net.server::ServerThread.drain":
        "graceful drain for embedders of the server thread",
    "repro.serve.concurrent::AdmissionController._key":
        "orders waiters when several queue for HBM at once",
    "repro.serve.concurrent::AdmissionController.admit":
        "enqueue + wait in one call: " + _OWN_TEST,
    **_same("gives a reservation back when a waiting query is cancelled",
            "repro.serve.concurrent::AdmissionController.cancel",
            "repro.serve.concurrent::AdmissionController._drop"),
    **_same("malformed SQL (outside input)",
            "repro.errors::SqlError.__init__",
            "repro.sql.parser::Parser._error"),
    "repro.obs.metrics::_json_default":
        "json fallback for a value that is not JSON-native; runs only then",
    "repro.core.subquery::AdaptiveSwitch.__init__":
        "mid-query switch: fires only when a nested plan loses mid-run",
    "repro.core.subquery::AdaptiveGovernor.iteration_done":
        "the governor on the unvectorized loop; no workload trips it",
    "repro.core.runtime::Runtime.run_iteration":
        "the costing probe's per-iteration path when vectorisation is off",
    "repro.core.executor::NestGPU._measure_program":
        "the fusion tuner's harness; runs only for a widening site",
    "repro.obs.tracer::Tracer.end_iteration":
        "per-iteration spans of the unvectorized loop under a tracer",
    "repro.bench.runner::_slug": "names run_sweep's per-cell trace files",
    # SQL and plan shapes no paper query or CI statement has
    **_same("drive-program entry point emitted by codegen; a tracing.SHIMS "
            "name",
            "repro.core.runtime::Runtime.t_f_filter",
            "repro.core.runtime::Runtime.t_filter",
            "repro.core.runtime::Runtime.cross_join"),
    **_same("Figure 5 case 2: a subquery correlated with both join sides",
            "repro.engine.operators::cross_join",
            "repro.plan.nodes::CrossJoin.children"),
    **_same("vectorized SUBQ body with a residual filter; no paper query "
            "has one",
            "repro.core.vectorize::_apply_seg_filter",
            "repro.core.vectorize::_eval_filter"),
    "repro.engine.evaluator::_run_uncorrelated_subquery":
        "uncorrelated WHERE subquery in a flat plan (type-A/N)",
    "repro.engine.evaluator::_run_uncorrelated_subquery_column":
        "uncorrelated scalar SUBQ in the SELECT list of an uncorrelated "
        "WHERE subquery",
    **_same("a comparison or arithmetic of two constants",
            "repro.engine.exprs::_python_compare",
            "repro.engine.exprs::_python_arith"),
    "repro.plan.binder::_apply_interval": "INTERVAL date arithmetic",
    "repro.fuzz.generator::QueryGenerator._nested_subquery":
        "depth-2 nesting in the fuzz grammar; seed 7 x 50 draws none",
    "repro.core.subquery::TwoLevelResultVector.contains":
        "membership probe of the paper's two-level IN result vector",
    # test instruments and small public APIs
    "repro.gpu.stats::ExecutionStats.minus":
        "snapshot diff the device tests measure a span of activity with",
    "repro.gpu.kernels::gather": "one-launch gather primitive; " + _OWN_TEST,
    "repro.tpch.generator::clear_cache":
        "drops the memoised catalogs; " + _OWN_TEST,
    **_same(_OWN_TEST,
            "repro.obs.tracer::Span.duration_ns",
            "repro.obs.tracer::Span.find_all",
            "repro.storage.catalog::Catalog.table_names",
            "repro.storage.catalog::Catalog.total_bytes",
            "repro.storage.column::Column.slice",
            "repro.storage.column::string_column",
            "repro.storage.datatypes::DataType.is_numeric",
            "repro.storage.datatypes::int_to_date",
            "repro.storage.partition::PartitionSpec.describe",
            "repro.storage.schema::*",
            "repro.storage.table::Table.num_columns",
            "repro.storage.table::Table.nbytes",
            "repro.storage.table::Table.select_columns",
            "repro.storage.table::Table.rows",
            "repro.bench.report::geometric_speedups",
            "repro.core.caching::SubqueryCache.hit_ratio",
            "repro.core.calibrator::Calibrator.clear",
            "repro.gpu.group::DeviceGroup.makespan_ns",
            "repro.gpu.stats::ExecutionStats.to_dict",
            "repro.net.protocol::FrameDecoder.buffered",
            "repro.obs.metrics::Histogram.quantile",
            "repro.plan.selectivity::ExactSelectivity.stats"),
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    group: str
    command: str
    status: int | str
    seconds: float


def _label(command: list[str]) -> str:
    label = " ".join(
        "python" if part == sys.executable else part for part in command
    ).replace("\n", "; ")
    return label if len(label) <= 100 else label[:97] + "..."


class Runner:
    """Runs commands with the hook installed, one output dir per group."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.hook = scratch / "hook"
        self.hook.mkdir()
        (self.hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
        # what a CI step's ``PYTHONPATH=src`` names: the hook and the package
        self.ci_src = scratch / "ci-src"
        self.ci_src.mkdir()
        (self.ci_src / "sitecustomize.py").write_text(SITECUSTOMIZE)
        (self.ci_src / "repro").symlink_to(SRC)
        self.work = scratch / "work"
        self.work.mkdir()
        self.outcomes: list[Outcome] = []
        self.sessions: list[int] = []

    def env(self, group: str, pythonpath: list[Path]) -> dict:
        out = self.scratch / "dumps" / group
        out.mkdir(parents=True, exist_ok=True)
        return dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(map(str, pythonpath)),
            REACH_SRC=os.path.realpath(SRC),
            REACH_OUT=str(out),
        )

    def run(self, group: str, command: list[str], cwd: Path | None = None,
            label: str | None = None, pythonpath: list[Path] | None = None,
            timeout: float = 1800.0) -> int | str:
        """Run ``command`` in a session of its own; its output goes to a
        log kept for errors.  Anything it leaves running in the background
        is stopped by :meth:`stop_leftovers`."""
        label = label or _label(command)
        print(f"[{group}] {label}", file=sys.stderr, flush=True)
        start = time.perf_counter()
        log = self.scratch / "last.log"
        with open(log, "w") as handle:
            proc = subprocess.Popen(
                command, cwd=cwd or self.work,
                env=self.env(group, pythonpath or [self.hook, ROOT / "src"]),
                stdout=handle, stderr=subprocess.STDOUT, start_new_session=True,
            )
        self.sessions.append(proc.pid)
        try:
            status: int | str = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            status = "timeout"
        if status != 0:
            tail = log.read_text().splitlines()[-5:]
            print(f"  -> exit {status}\n    " + "\n    ".join(tail),
                  file=sys.stderr, flush=True)
        self.outcomes.append(
            Outcome(group, label, status, time.perf_counter() - start)
        )
        return status

    def run_job(self, group: str, job: str, steps: list[tuple[str, str]]) -> None:
        """Run one CI job's steps in order, as CI does, and stop whatever
        the job left running (a server whose shutdown step never ran)."""
        work = self.scratch / "jobs" / job
        work.mkdir(parents=True)
        for entry in ROOT.iterdir():
            if not entry.name.startswith(".") and entry.name != "src":
                (work / entry.name).symlink_to(entry)
        (work / "src").symlink_to(self.ci_src)
        try:
            for name, script in steps:
                command = ["bash", "--noprofile", "--norc", "-eo", "pipefail",
                           "-c", script]
                if self.run(group, command, cwd=work, label=f"{job}: {name}",
                            pythonpath=[self.ci_src]) != 0:
                    break
        finally:
            self.stop_leftovers()

    def stop_leftovers(self) -> None:
        for session in self.sessions:
            try:
                os.killpg(session, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.sessions.clear()


def run_entry_points(scratch: Path) -> tuple[dict, list[Outcome]]:
    runner = Runner(scratch)
    py = sys.executable
    try:
        runner.run("tier-1", [py, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                   cwd=ROOT)
        runner.run("figures", [py, "-m", "pytest", "benchmarks/", "-q",
                               "-p", "no:cacheprovider", "--benchmark-disable"],
                   cwd=ROOT)
        for job, steps in ci_steps(CI_YML.read_text()).items():
            group = JOB_GROUP.get(job, "ci")
            if group is not None:
                runner.run_job(group, job, steps)
        for example in sorted((ROOT / "examples").glob("*.py")):
            runner.run("examples", [py, str(example)])
    finally:
        runner.stop_leftovers()

    reached: dict[str, list] = {}
    for group in GROUPS:
        keys = set()
        for dump in (scratch / "dumps" / group).glob("*.tsv"):
            for line in dump.read_text().splitlines():
                path, first, name = line.split("\t")
                keys.add((os.path.relpath(path, ROOT), int(first), name))
        reached[group] = sorted(keys)
    return reached, runner.outcomes


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------


@dataclass
class Def:
    file: str        # relative to the repository root
    module: str
    qualname: str
    first: int       # first decorator line, as ``co_firstlineno``
    name: str
    lines: int
    parent: "Def | None"  # nearest enclosing def, if any

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.file, self.first, self.name)

    @property
    def label(self) -> str:
        return f"{self.module}::{self.qualname}"


def parse_sources(rev: str | None = None) -> dict[str, ast.Module]:
    """``src/repro``'s modules by repository-relative path, from the
    working tree or, given ``rev``, from that commit."""
    if rev is None:
        texts = {str(path.relative_to(ROOT)): path.read_text()
                 for path in sorted(SRC.rglob("*.py"))}
    else:
        archive = subprocess.run(
            ["git", "archive", rev, "src/repro"], cwd=ROOT, check=True,
            capture_output=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            texts = {member.name: tar.extractfile(member).read().decode()
                     for member in tar.getmembers()
                     if member.name.endswith(".py")}
    return {file: ast.parse(text) for file, text in texts.items()}


def collect_defs(trees: dict[str, ast.Module]) -> list[Def]:
    defs: list[Def] = []

    def visit(node, file, module, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno]
                    + [d.lineno for d in child.decorator_list]
                )
                item = Def(
                    file, module, ".".join(prefix + [child.name]), first,
                    child.name, child.end_lineno - first + 1, parent,
                )
                defs.append(item)
                visit(child, file, module, prefix + [child.name], item)
            elif isinstance(child, ast.ClassDef):
                visit(child, file, module, prefix + [child.name], parent)
            else:
                visit(child, file, module, prefix, parent)

    for file, tree in trees.items():
        module = ".".join(Path(file).relative_to("src").with_suffix("").parts)
        visit(tree, file, module, [], None)
    return defs


#: ``.name(`` inside a string: a call the code generator emits
_EMITTED_CALL = re.compile(r"\.([A-Za-z_]\w*)\(")


def name_uses(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """Where ``src/repro`` names each identifier, as ``file:line``: a bare
    name, an attribute, an imported name, a string that is the name
    (``getattr``) or a ``.name(`` call inside a string (generated code).
    Matching is by name alone, so a common name is named everywhere."""
    uses: dict[str, list[str]] = {}
    for file, tree in trees.items():
        short = file.removeprefix("src/repro/")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name.rpartition(".")[2]]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = ([node.value] if node.value.isidentifier()
                         else _EMITTED_CALL.findall(node.value))
            else:
                continue
            for name in names:
                uses.setdefault(name, []).append(f"{short}:{node.lineno}")
    return uses


def named_at(d: Def, uses: dict[str, list[str]]) -> list[str]:
    """Where ``src/repro`` names ``d`` outside its own body."""
    own = d.file.removeprefix("src/repro/")
    return [site for site in uses.get(d.name, ())
            if not (site.rpartition(":")[0] == own
                    and d.first <= int(site.rpartition(":")[2])
                    < d.first + d.lines)]


def _sites(sites: list[str]) -> str:
    if not sites:
        return ""
    more = f", +{len(sites) - 3}" if len(sites) > 3 else ""
    return f"  [named at {', '.join(sites[:3])}{more}]"


def repo_counts() -> dict[str, int]:
    """``repo.src_loc`` / ``src_files`` / ``public_symbols``, from the
    benchmark's own counter."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]
    from layers import repo_metrics

    return {k.removeprefix("repo."): v for k, v in repo_metrics().items()}


def classify(defs: list[Def], reached: dict[str, list]) -> dict:
    seen = {group: {tuple(k) for k in keys} for group, keys in reached.items()}
    groups = {d.key: [g for g in GROUPS if d.key in seen.get(g, ())]
              for d in defs}
    category = {}
    for d in defs:
        by = groups[d.key]
        category[d.key] = (
            "unreached" if not by
            else "tier-1 only" if by == ["tier-1"]
            else "reached"
        )
    return {"groups": groups, "category": category}


def counted(d: Def, category: dict) -> bool:
    """A nested def counts only where its parent is more reached than it."""
    return d.parent is None or category[d.parent.key] != category[d.key]


def reason_for(d: Def) -> str | None:
    for pattern, reason in KEEP.items():
        if fnmatch.fnmatchcase(d.label, pattern):
            return reason
    return None


def summarize(defs: list[Def], verdict: dict) -> dict:
    category = verdict["category"]
    summary = dict(repo_counts())
    summary["defs"] = len(defs)
    summary["def_lines"] = sum(d.lines for d in defs if d.parent is None)
    for name in ("unreached", "tier-1 only"):
        mine = [d for d in defs if category[d.key] == name]
        summary[f"{name} defs"] = len(mine)
        summary[f"{name} lines"] = sum(
            d.lines for d in mine if counted(d, category)
        )
    return summary


def report(defs: list[Def], verdict: dict, uses: dict[str, list[str]],
           outcomes: list[dict], before: dict | None) -> int:
    groups, category = verdict["groups"], verdict["category"]
    print("# every def in src/repro: lines, entry points that reach it")
    for d in defs:
        depth = 0
        parent = d.parent
        while parent is not None:
            depth, parent = depth + 1, parent.parent
        by = " ".join(groups[d.key]) or "-"
        print(f"{d.lines:5d}  {'  ' * depth}{d.label}  [{by}]")

    if outcomes:
        print("\n# entry points")
        for o in outcomes:
            flag = "" if o["status"] == 0 else f"  EXIT {o['status']}"
            print(f"{o['seconds']:7.1f}s  [{o['group']}] {o['command']}{flag}")

    summary = summarize(defs, verdict)
    print("\n# summary")
    for key, value in summary.items():
        print(f"{key:>20}: {value}")
    if before is not None:
        print("\n# before / after")
        print(f"| {'':20} | {'before':>8} | {'after':>8} | {'change':>8} |")
        print(f"|{'-' * 22}|{'-' * 10}|{'-' * 10}|{'-' * 10}|")
        for key, value in summary.items():
            old = before.get(key)
            delta = "" if old is None else f"{value - old:+d}"
            print(f"| {key:20} | {old if old is not None else '':>8} "
                  f"| {value:>8} | {delta:>8} |")

    print("\n# keep-list: every unreached or tier-1-only function and why")
    missing = 0
    for name in ("unreached", "tier-1 only"):
        print(f"\n## {name}")
        for d in defs:
            if category[d.key] != name or not counted(d, category):
                continue
            sites = named_at(d, uses)
            reason = reason_for(d)
            if reason is None:
                missing += 1
                reason = (
                    "NO REASON, and src/ still names it: reach it from an "
                    "entry point, or add a reason to KEEP" if sites
                    else "NO REASON, and nothing in src/ names it: delete "
                    "it, or add a reason to KEEP"
                )
            print(f"{d.lines:5d}  {d.label}: {reason}{_sites(sites)}")
    unused = [p for p in KEEP
              if not any(fnmatch.fnmatchcase(d.label, p) for d in defs
                         if category[d.key] != "reached")]
    for pattern in unused:
        print(f"stale KEEP entry (now reached or gone): {pattern}")
    print(f"\n{missing} function(s) without a reason, "
          f"{len(unused)} stale KEEP entr{'y' if len(unused) == 1 else 'ies'}")
    return 1 if missing or unused else 0


def report_gone(rev: str, defs: list[Def], uses: dict[str, list[str]]) -> None:
    """The functions deleted since ``rev``, each with where ``src/repro``
    still names it: a deletion is safe only where nothing does, or where
    each site names another function of the same name."""
    now = {d.label for d in defs}
    print(f"\n# deleted since {rev}, and where src/ still names them")
    for d in collect_defs(parse_sources(rev)):
        if d.label in now or (d.parent is not None and d.parent.label not in now):
            continue
        print(f"{d.lines:5d}  {d.label}{_sites(named_at(d, uses)) or '  [not named]'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", metavar="JSON",
                        help="write what each entry point reached, the "
                             "outcomes and the summary")
    parser.add_argument("--load", metavar="JSON",
                        help="report from a --save file instead of running "
                             "(valid while src/ is unchanged)")
    parser.add_argument("--compare", metavar="JSON",
                        help="a --save file of the parent commit: print a "
                             "before/after table")
    parser.add_argument("--gone-since", metavar="REV",
                        help="also list the functions deleted since this "
                             "commit and where src/ still names them")
    args = parser.parse_args(argv)

    if args.load:
        saved = json.loads(Path(args.load).read_text())
        reached, outcomes = saved["reached"], saved["outcomes"]
    else:
        scratch = Path(tempfile.mkdtemp(prefix="reachability-"))
        try:
            reached, runs = run_entry_points(scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        outcomes = [vars(o) for o in runs]

    trees = parse_sources()
    defs, uses = collect_defs(trees), name_uses(trees)
    verdict = classify(defs, reached)
    before = None
    if args.compare:
        before = json.loads(Path(args.compare).read_text())["summary"]
    status = report(defs, verdict, uses, outcomes, before)
    if args.gone_since:
        report_gone(args.gone_since, defs, uses)
    if args.save:
        Path(args.save).write_text(json.dumps({
            "reached": reached,
            "outcomes": outcomes,
            "summary": summarize(defs, verdict),
        }, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
