"""Every tier-1 check on the fuzz corpus, in one pass of ``tools/corpus.py``.

The pass walks the 8 paper queries and seed 7 x 500 once.  The
vectorisation-off leg runs every statement: its cold run is both the
pinned record and the warm-up of the replay check, which re-runs each
statement with a replayed SUBQ on the warm engine, replayed and with
the loop forced; for the first 80 fuzz statements the traced replay is
compared with the traced forced loop on the same engine.  The
``fusion="auto"`` twin of that leg runs the same replay check on the
paper queries and the first ``FUSED_FIRST`` fuzz statements.  The other
solo legs run the paper queries and the first ``SOLO_FIRST`` fuzz
statements, the sharded legs the first ``SHARD_FIRST``.  CI checks every
record (``python tools/corpus.py --check``).
"""

from collections import defaultdict
from types import SimpleNamespace

import pytest

import corpus
from repro.core import NestGPU
from repro.fuzz.runner import DEFAULT_SCALE
from repro.gpu import kernels
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch
from test_replay import traced_trees

SOLO_FIRST, FUSED_FIRST, SHARD_FIRST, TRACED_FIRST = 25, 100, 100, 80
#: the legs whose replayed SUBQs are checked against the forced loop
REPLAY_LEGS = ("novec/nested", "auto-novec/nested")
FIRST = {
    leg: len(ALL_EVALUATION_QUERIES) + (
        SHARD_FIRST if leg.startswith("sharded")
        else FUSED_FIRST if leg == "auto-novec/nested" else SOLO_FIRST
    )
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
    seen = SimpleNamespace(
        records={}, paths=defaultdict(dict), differs={}, traced={}
    )
    traced = {f"seed{corpus.SEED}-{index}" for index in range(TRACED_FIRST)}
    for run in corpus.walk(catalog, corpus.statements(catalog), first=FIRST):
        seen.records[run.key,] = run.record
        seen.paths[run.leg][run.name] = run.paths
        if run.leg in REPLAY_LEGS:
            seen.differs[run.key] = corpus.replay_differs(run)
        if run.leg == "novec/nested" and run.name in traced and (
            "replayed" in run.paths.values()
        ):
            (replayed, looped), paths = traced_trees(run.engine, run.sql)
            seen.traced[run.name] = (
                replayed == looped, paths[0],
                repr(replayed).count("'cache_hit': True"),
            )
    return seen


def _fuzz_paths(corpus_pass, leg: str) -> list:
    return [paths.values() for name, paths in corpus_pass.paths[leg].items()
            if name.startswith("seed")]


def _differs(corpus_pass, leg: str) -> dict:
    return {key: diff for key, diff in corpus_pass.differs.items()
            if diff and key.endswith(f"/{leg}")}


def test_fuzz_statements_replay_the_loop(corpus_pass):
    assert not _differs(corpus_pass, "novec/nested")
    fuzz = _fuzz_paths(corpus_pass, "novec/nested")
    assert not any("loop: non-equality correlation" in paths for paths in fuzz)
    # 326 before !=, range and OR bodies replayed
    assert sum("replayed" in paths for paths in fuzz) >= 372


def test_fused_statements_replay_the_loop(corpus_pass):
    """Fusion changes how a body's launches are charged, not whether it
    replays: no ``fusion="auto"`` SUBQ keeps the loop for being fused."""
    assert not _differs(corpus_pass, "auto-novec/nested")
    fuzz = _fuzz_paths(corpus_pass, "auto-novec/nested")
    # 0 while a fused body kept the loop
    assert sum("replayed" in paths for paths in fuzz) >= 76
    for leg in ("auto/nested", "auto-novec/nested"):
        assert not any(
            "loop: fused" in paths.values()
            for paths in corpus_pass.paths[leg].values()
        )


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
