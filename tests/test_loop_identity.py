"""Bit-identity of the SUBQ loop's ablations and of the baselines.

``tests/data/loop_identity.jsonl`` pins what the commit before the
replayed SUBQ loop produced, at SF 0.5, for

* the 8 paper queries in nested and auto mode with vectorisation off
  and, in turn, the cache, the correlated index and the memory pools
  off (the per-iteration loop under every ablation the figures run);
* the five comparison systems of ``baselines/systems.py`` on the same
  queries (``PostgresNested`` runs the loop with invariant extraction
  off, a body the replay refuses).

Each entry is the observation ``tools/corpus.py`` takes: rows,
modelled total, launches, launches by tag, peak device bytes and the
digest of every ``(tag, elements, work)`` in order.  The file was
written once by running this file as a script (``--check`` compares
instead)::

    PYTHONPATH=src:tools python tests/test_loop_identity.py > tests/data/loop_identity.jsonl

and is never regenerated by a change that claims identity.
"""

import sys
from pathlib import Path

import pytest

import corpus
from repro.baselines.systems import (
    GPUDBPlus,
    MonetDBLike,
    OmniSciLike,
    PostgresNested,
    PostgresUnnested,
)
from repro.core import NestGPU
from repro.engine import EngineOptions
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch

FIXTURE = Path(__file__).parent / "data" / "loop_identity.jsonl"
FIELDS = ("config", "run")
SCALE = 0.5
ABLATIONS = ("use_cache", "use_index", "use_memory_pools")
SYSTEMS = (PostgresNested, PostgresUnnested, MonetDBLike, OmniSciLike, GPUDBPlus)
CONFIGS = tuple(f"loop/{flag}=off" for flag in ABLATIONS) + ("baselines",)


def observe_config(config: str, catalog) -> dict:
    queries = sorted(ALL_EVALUATION_QUERIES.items())
    out = {}
    if config == "baselines":
        for system_cls in SYSTEMS:
            system = system_cls(catalog)
            for name, sql in queries:
                out[config, f"{system_cls.__name__}/{name}"] = corpus.record(
                    corpus.observe(lambda: system.execute(sql))
                )
        return out
    flag = config.split("/")[1].split("=")[0]
    options = EngineOptions(use_vectorization=False, **{flag: False})
    for mode in ("nested", "auto"):
        for name, sql in queries:
            engine = NestGPU(catalog, options=options, mode=mode)
            out[config, f"{mode}/{name}"] = corpus.record(
                corpus.observe(lambda: engine.execute(sql))
            )
    return out


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(SCALE)


@pytest.mark.parametrize("config", CONFIGS)
def test_loop_ablations_and_baselines_match_pin(config, catalog):
    pinned = {
        key: record for key, record in corpus.load_pin(FIXTURE, FIELDS).items()
        if key[0] == config
    }
    assert not corpus.moved(observe_config(config, catalog), pinned, rel=1e-12)


if __name__ == "__main__":
    tpch = generate_tpch(SCALE)
    sys.exit(corpus.pin_main(
        "--check" in sys.argv, FIXTURE, FIELDS,
        (item for name in CONFIGS
         for item in sorted(observe_config(name, tpch).items())),
        rel=1e-12,
    ))
