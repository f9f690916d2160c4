"""The paper figures regenerate byte for byte.

Every figure, ablation and extension table under ``benchmarks/results``
is written by one ``benchmarks/bench_*.py`` file.  This test runs copies
of those files in a temporary directory, so the tables land there and
the checkout is never written, and compares each table with the
committed one.  CI's "Paper figures reproduce the committed results"
step checks the same thing on the checkout itself.
"""

import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"


def test_paper_figures_reproduce_the_committed_results(tmp_path):
    for path in BENCHMARKS.glob("*.py"):
        shutil.copy(path, tmp_path / path.name)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", str(tmp_path), "--benchmark-only",
            "-q", "-p", "no:cacheprovider", "-o", "python_files=bench_*.py",
            "--rootdir", str(tmp_path),
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
    committed = sorted(p.name for p in (BENCHMARKS / "results").glob("*.txt"))
    written = sorted(p.name for p in (tmp_path / "results").glob("*.txt"))
    assert written == committed
    for name in committed:
        expected = (BENCHMARKS / "results" / name).read_text()
        assert (tmp_path / "results" / name).read_text() == expected, name
