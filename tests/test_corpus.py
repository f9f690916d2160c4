"""Every tier-1 check on the fuzz corpus, in one pass of ``tools/corpus.py``.

The pass walks the 8 paper queries and seed 7 x 500 once.  The
vectorisation-off leg runs every statement: its cold run is both the
pinned record and the warm-up of the replay check, which re-runs each
statement with a replayed SUBQ on the warm engine, replayed and with
the loop forced; for the first 80 fuzz statements the traced replay is
compared with the traced forced loop on the same engine.  The other
solo legs run the paper queries and the first ``SOLO_FIRST`` fuzz
statements, the sharded legs the first ``SHARD_FIRST``.  CI checks every
record (``python tools/corpus.py --check``).
"""

from types import SimpleNamespace

import pytest

import corpus
from repro.core import NestGPU
from repro.fuzz.runner import DEFAULT_SCALE
from repro.gpu import kernels
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch
from test_replay import traced_trees

SOLO_FIRST, SHARD_FIRST, TRACED_FIRST = 25, 100, 80
FIRST = {
    leg: len(ALL_EVALUATION_QUERIES)
    + (SHARD_FIRST if leg.startswith("sharded") else SOLO_FIRST)
    for leg in corpus.LEGS if leg != "novec/nested"
}


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(DEFAULT_SCALE)


@pytest.fixture(scope="module")
def pinned():
    return corpus.load_pin()


@pytest.fixture(scope="module")
def corpus_pass(catalog):
    seen = SimpleNamespace(records={}, paths={}, differs={}, traced={})
    traced = {f"seed{corpus.SEED}-{index}" for index in range(TRACED_FIRST)}
    for run in corpus.walk(catalog, corpus.statements(catalog), first=FIRST):
        seen.records[run.key,] = run.record
        if run.leg != "novec/nested":
            continue
        seen.paths[run.name] = run.paths
        seen.differs[run.name] = corpus.replay_differs(run)
        if run.name in traced and "replayed" in run.paths.values():
            (replayed, looped), paths = traced_trees(run.engine, run.sql)
            seen.traced[run.name] = (
                replayed == looped, paths[0],
                repr(replayed).count("'cache_hit': True"),
            )
    return seen


def test_fuzz_statements_replay_the_loop(corpus_pass):
    assert not {name: diff for name, diff in corpus_pass.differs.items() if diff}
    fuzz = [paths.values() for name, paths in corpus_pass.paths.items()
            if name.startswith("seed")]
    assert not any("loop: non-equality correlation" in paths for paths in fuzz)
    # 326 before !=, range and OR bodies replayed
    assert sum("replayed" in paths for paths in fuzz) >= 372


def test_traced_fuzz_statements_replay_the_loop(corpus_pass):
    traced = corpus_pass.traced.values()
    assert all(same for same, _, _ in traced)
    assert sum("replayed" in paths.values() for _, paths, _ in traced) >= 61
    assert sum(hits for _, _, hits in traced) > 0


def test_paper_and_fuzz_prefix_match_the_pin(corpus_pass, pinned):
    observed = corpus_pass.records
    assert not corpus.moved(observed, {key: pinned.get(key) for key in observed})


def test_the_pin_reports_one_extra_launch_in_one_leg_only(
    catalog, pinned, monkeypatch
):
    """``kernels.compact`` launches once more in the vectorisation-off
    leg only: the check reports exactly that leg's runs that called it."""
    fired: list = []
    in_leg = [False]
    execute, compact = NestGPU.execute, kernels.compact

    def leg_execute(self, *args, **kwargs):
        options = self.options
        in_leg[0] = not options.use_vectorization and options.fusion == "off"
        try:
            return execute(self, *args, **kwargs)
        finally:
            in_leg[0] = False

    def extra_compact(device, mask):
        if in_leg[0]:
            fired.append(device.launch("compact", len(mask)))
        return compact(device, mask)

    monkeypatch.setattr(NestGPU, "execute", leg_execute)
    monkeypatch.setattr(kernels, "compact", extra_compact)
    observed, affected = {}, set()
    fuzz = corpus.statements(catalog, count=3, paper=False)
    for run in corpus.walk(catalog, fuzz):
        observed[run.key,] = run.record
        if fired:
            affected.add((run.key,))
        fired.clear()
    found = corpus.moved(observed, {key: pinned.get(key) for key in observed})
    assert affected and set(found) == affected
    assert {key.split("/", 1)[1] for key, in found} == {"novec/nested"}
