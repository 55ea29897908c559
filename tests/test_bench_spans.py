"""The benchmark harness against the current ``src``.

The traced benchmark wraps hydre functions by name from outside the package
(``bench/spans.py``); installing its wrappers fails on any name that a
change to ``src`` renamed or deleted. The harness's self-test runs one tiny
repetition end to end and checks its outputs and spans."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_spans_install_finds_every_wrapped_name():
    paths = [str(ROOT / "src"), str(ROOT / "bench")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(paths),
        "PYTHONDONTWRITEBYTECODE": "1",  # write no bytecode cache under bench/
    }
    result = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_bench_selftest_passes():
    """``python3 bench/selftest.py`` from the repo root: a tiny traced
    repetition of the benchmark whose outputs pass every output check and
    that records the ``selection.stage2`` spans. It writes only under the
    git-ignored ``.bench_work/``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
