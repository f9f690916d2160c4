"""Bit-identity of the key-lookup rewrite against the parent commit.

The one-primitive hash join (``JoinHash.ranges`` / ``expand_ranges``)
and the string-free TPC-H generator are host-side changes: rows, the
modelled clock, the launch sequence and device memory may not move.
``tests/data/kernel_identity.jsonl`` holds what the *parent* commit
(429bc2a, two-``searchsorted`` probes) produced for the 8 paper
queries x {nested, unnested, auto} x {vectorized, per-iteration loop}
at SF 0.5 and SF 10, on a solo ``NestGPU`` and on the warm (second)
execute of an ``EngineSession``.  It was written once, on that commit,
by running this file as a script (``--check`` compares instead)::

    PYTHONPATH=src:tools python tests/test_kernel_identity.py > tests/data/kernel_identity.jsonl

and is never regenerated by a change that claims identity.  The
observation is ``tools/corpus.py``'s.  Everything is compared exactly
except ``total_ns``, which gets one part in 10^12: on that commit
``preload_columns`` ordered same-size columns by set iteration, so its
float sums differed in the last digit between processes with different
``PYTHONHASHSEED``.
"""

import sys
from pathlib import Path

import pytest

import corpus
from repro.core import NestGPU
from repro.engine import EngineOptions
from repro.serve import EngineSession
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch

FIXTURE = Path(__file__).parent / "data" / "kernel_identity.jsonl"
FIELDS = ("config", "run")
SCALES = (0.5, 10)
MODES = ("nested", "unnested", "auto")


def observe_config(scale: float, vectorized: bool) -> dict:
    """All modes x queries of one (scale, vectorization) configuration."""
    config = _config_key(scale, vectorized)
    catalog = generate_tpch(scale)
    options = EngineOptions(use_vectorization=vectorized)
    out = {}
    with EngineSession(catalog, options=options) as session:
        for mode in MODES:
            for name, sql in sorted(ALL_EVALUATION_QUERIES.items()):
                solo = NestGPU(catalog, options=options, mode=mode)
                out[config, f"{mode}/{name}/solo"] = corpus.record(
                    corpus.observe(lambda: solo.execute(sql))
                )
                corpus.observe(lambda: session.execute(sql, mode=mode))
                out[config, f"{mode}/{name}/session"] = corpus.record(
                    corpus.observe(lambda: session.execute(sql, mode=mode))
                )
    return out


def _config_key(scale: float, vectorized: bool) -> str:
    return f"sf{scale}/{'vectorized' if vectorized else 'loop'}"


@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "loop"])
@pytest.mark.parametrize("scale", SCALES)
def test_paper_queries_match_parent_commit(scale, vectorized):
    config = _config_key(scale, vectorized)
    pinned = {
        key: record for key, record in corpus.load_pin(FIXTURE, FIELDS).items()
        if key[0] == config
    }
    assert not corpus.moved(observe_config(scale, vectorized), pinned, rel=1e-12)


if __name__ == "__main__":
    sys.exit(corpus.pin_main(
        "--check" in sys.argv, FIXTURE, FIELDS,
        (item for scale in SCALES for vectorized in (True, False)
         for item in sorted(observe_config(scale, vectorized).items())),
        rel=1e-12,
    ))
