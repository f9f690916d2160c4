"""Bit-identity of the SUBQ loop's ablations and of the baselines.

``tests/data/loop_identity.jsonl`` pins what the commit before the
replayed SUBQ loop produced, at SF 0.5, for

* the 8 paper queries in nested and auto mode with vectorisation off
  and, in turn, the cache, the correlated index and the memory pools
  off (the per-iteration loop under every ablation the figures run);
* the five comparison systems of ``baselines/systems.py`` on the same
  queries (``PostgresNested`` runs the loop with invariant extraction
  off, a body the replay refuses).

Each entry is the observation ``tests/test_kernel_identity.py`` takes:
rows, modelled total, launches, launches by tag, peak device bytes and
the digest of every ``(tag, elements, work)`` in order.  The file was
written once by running this file as a script::

    PYTHONPATH=src python tests/test_loop_identity.py > tests/data/loop_identity.jsonl

and is never regenerated by a change that claims identity.
"""

import json
from pathlib import Path

import pytest

from repro.baselines.systems import (
    GPUDBPlus,
    MonetDBLike,
    OmniSciLike,
    PostgresNested,
    PostgresUnnested,
)
from repro.core import NestGPU
from repro.engine import EngineOptions
from repro.gpu import Device
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch
from test_kernel_identity import _observe, _same

FIXTURE = Path(__file__).parent / "data" / "loop_identity.jsonl"
SCALE = 0.5
ABLATIONS = ("use_cache", "use_index", "use_memory_pools")
SYSTEMS = (PostgresNested, PostgresUnnested, MonetDBLike, OmniSciLike, GPUDBPlus)
CONFIGS = tuple(f"loop/{flag}=off" for flag in ABLATIONS) + ("baselines",)


def _recording():
    launches: list = []
    charge = Device.launch

    def recording_launch(self, tag, elements, work=1.0):
        launches.append((tag, int(elements), float(work)))
        return charge(self, tag, elements, work)

    return launches, charge, recording_launch


def observe_config(config: str, catalog) -> dict:
    launches, charge, recording_launch = _recording()
    queries = sorted(ALL_EVALUATION_QUERIES.items())
    out = {}
    Device.launch = recording_launch
    try:
        if config == "baselines":
            for system_cls in SYSTEMS:
                system = system_cls(catalog)
                for name, sql in queries:
                    out[f"{system_cls.__name__}/{name}"] = _observe(
                        lambda: system.execute(sql), launches
                    )
            return out
        flag = config.split("/")[1].split("=")[0]
        options = EngineOptions(use_vectorization=False, **{flag: False})
        for mode in ("nested", "auto"):
            for name, sql in queries:
                engine = NestGPU(catalog, options=options, mode=mode)
                out[f"{mode}/{name}"] = _observe(
                    lambda: engine.execute(sql), launches
                )
    finally:
        Device.launch = charge
    return out


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(SCALE)


@pytest.mark.parametrize("config", CONFIGS)
def test_loop_ablations_and_baselines_match_pin(config, catalog):
    records = map(json.loads, FIXTURE.read_text().splitlines())
    pinned = {r.pop("run"): r for r in records if r.pop("config") == config}
    observed = observe_config(config, catalog)
    assert sorted(observed) == sorted(pinned)
    moved = {
        run: (observed[run], pinned[run])
        for run in pinned if not _same(dict(observed[run]), dict(pinned[run]))
    }
    assert not moved


if __name__ == "__main__":
    tpch = generate_tpch(SCALE)
    for name in CONFIGS:
        for run, seen in sorted(observe_config(name, tpch).items()):
            print(json.dumps({"config": name, "run": run, **seen}, sort_keys=True))
