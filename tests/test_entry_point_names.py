"""The names the frozen benchmark and the generated code rely on.

``benchmarks/e2e/tracing.SHIMS`` monkeypatches public callables by
name, ``benchmarks/e2e/replay.py`` drives four more by hand, and every
drive program calls ``Runtime`` entry points by name.  A rename would
otherwise surface only when the benchmark crashes; these tests catch
it inside tier-1.  They read the benchmark files and change nothing.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import re
from unittest import mock

import pytest

from repro.core import FusionPlan, PreparedQuery, plan_fingerprint
from repro.core.codegen import OPERATORS
from repro.core.fusion import FusionTuner
from repro.core.runtime import Runtime
from repro.engine import evaluator
from repro.errors import ExecutionError
from repro.plan import nodes
from repro.plan.nodes import Plan, SubqueryColumn, SubqueryFilter

ROOT = pathlib.Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
SNAPSHOTS = ROOT / "tests" / "snapshots" / "codegen"
SUBQ_NODES = (SubqueryFilter, SubqueryColumn)


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "e2e_tracing_names", E2E / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _plan_node_types() -> list[type]:
    return [
        cls for cls in vars(nodes).values()
        if isinstance(cls, type) and issubclass(cls, Plan) and cls is not Plan
    ]


def _bare(cls):
    """An instance of a plan node dataclass with every field None."""
    return cls(**{field.name: None for field in dataclasses.fields(cls)})


@pytest.mark.parametrize(
    "module, owner, attr",
    [shim[:3] for shim in _load_tracing().SHIMS],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_every_tracing_shim_resolves(module, owner, attr):
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    assert callable(getattr(target, attr))


def test_replay_names_keep_their_call_shapes():
    inspect.signature(FusionTuner.decide).bind(
        object(), "fingerprint", 1, 2, lambda: 0.0, lambda: 0.0
    )
    inspect.signature(plan_fingerprint).bind(object())
    FusionPlan()
    inspect.signature(PreparedQuery).bind("block", "plan", "program", "nested")


def test_every_name_the_benchmark_imports_from_repro_exists():
    for path in sorted(E2E.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.module or ""
            ).startswith("repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        f"{path.name} imports {node.module}.{alias.name}"
                    )


def test_every_plan_node_has_a_codegen_entry_or_a_subq_handler():
    for cls in _plan_node_types():
        assert cls in OPERATORS or cls in SUBQ_NODES, cls.__name__
    assert set(OPERATORS).isdisjoint(SUBQ_NODES)


@pytest.mark.parametrize("cls", list(OPERATORS), ids=lambda cls: cls.__name__)
def test_codegen_entry_points_exist_in_every_form(cls):
    name, has_transient_form, _ = OPERATORS[cls]
    node = _bare(cls)
    if cls is nodes.Scan:
        node.filters = ["p"]
    forms = [name]
    if has_transient_form:
        forms.append(f"t_{name}")
    if FusionPlan().wants(node):
        forms.append(f"f_{name}")
        if has_transient_form:
            forms.append(f"t_f_{name}")
    for form in forms:
        assert callable(getattr(Runtime, form, None)), f"Runtime.{form}"


def test_every_statement_in_the_golden_programs_is_a_runtime_attribute():
    called = set()
    for path in SNAPSHOTS.glob("*.txt"):
        called |= set(re.findall(r"\brt\.(\w+)\(", path.read_text()))
    assert {"scan", "f_scan", "t_join", "apply_subquery_predicate"} <= called
    for name in called:
        assert callable(getattr(Runtime, name, None)), f"Runtime.{name}"


@pytest.mark.parametrize("cls", list(OPERATORS), ids=lambda cls: cls.__name__)
def test_run_operator_handles_every_operator_node(cls, monkeypatch):
    ops = mock.Mock()
    monkeypatch.setattr(evaluator, "ops", ops)
    inputs = (mock.Mock(), mock.Mock())
    assert evaluator.run_operator(None, _bare(cls), inputs) is not None
    calls = len(ops.method_calls) + len(inputs[0].method_calls)
    assert calls == 1


@pytest.mark.parametrize("cls", SUBQ_NODES, ids=lambda cls: cls.__name__)
def test_subq_nodes_are_left_to_their_handlers(cls):
    with pytest.raises(ExecutionError, match="no operator runs node"):
        evaluator.run_operator(None, _bare(cls), ())
