"""The benchmark harness against the current ``src``.

The traced benchmark wraps hydre functions by name from outside the package
(``bench/spans.py``); installing its wrappers fails on any name that a
change to ``src`` renamed or deleted. The harness's self-test runs one tiny
repetition end to end and checks its outputs and spans."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CONFIG = ROOT / "tests" / "fixtures" / "golden" / "e2e_config.json"


def run_with_spans(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter that imports ``src`` and
    ``bench``, so that no wrapper it installs reaches another test."""
    paths = [str(ROOT / "src"), str(ROOT / "bench")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(paths),
        "PYTHONDONTWRITEBYTECODE": "1",  # write no bytecode cache under bench/
    }
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_bench_spans_install_finds_every_wrapped_name():
    result = run_with_spans("import spans; spans.install(spans.Tracer())")
    assert result.returncode == 0, result.stderr


# A golden select per strategy under the benchmark's wrappers; prints, per
# strategy, the number of spans of each selection and baseline layer and
# the summed counts of the stage-2 spans.
TRACED_SELECTS = """
import json, sys
from collections import Counter
import spans
from hydre import cli

config, out = sys.argv[1:]
tracer = spans.Tracer()
spans.install(tracer)
result = {}
for strategy in (
    "hydre",
    "reduced_bag",
    "topk_sim",
    "mmr",
    "ablation:all_relations",
    "ablation:full_bag",
    "ablation:no_sim",
    "ablation:no_conf",
):
    start = len(tracer.spans)
    argv = ["--config", config, "--strategy", strategy, "--output", out, "select"]
    assert cli.main(argv) == 0, strategy
    recorded = tracer.spans[start:]
    layers = Counter(
        s["layer"] for s in recorded if s["layer"].startswith(("selection.", "baselines."))
    )
    # a stage-2 span that raised NoBagForRelation has no count
    bags = sum(s["count"] or 0 for s in recorded if s["layer"] == "selection.stage2")
    result[strategy] = [dict(layers), bags]
print(json.dumps(result))
"""


def test_bench_spans_count_each_golden_selection(tmp_path):
    """The spans ``bench/spans.py`` records for a golden ``select``: one
    query span per query, one stage-2 span per (query, candidate relation)
    counting the bags that carry the relation, one stage-3 span per
    distinct picked bag, and one baseline span per query for ``topk_sim``
    and ``mmr``."""
    result = run_with_spans(TRACED_SELECTS, str(GOLDEN_CONFIG), str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == {
        "hydre": [
            {
                "selection.query": 20,
                "selection.stage1": 20,
                "selection.stage2": 100,
                "selection.stage3": 10,
            },
            51,
        ],
        "reduced_bag": [
            {"selection.query": 20, "selection.stage1": 20, "selection.stage2": 100},
            51,
        ],
        "topk_sim": [{"baselines.flatten": 20, "baselines.topk_sim": 20}, 0],
        "mmr": [{"baselines.flatten": 20, "baselines.mmr": 20}, 0],
        "ablation:all_relations": [
            {
                "selection.query": 20,
                "selection.stage1": 20,
                "selection.stage2": 480,
                "selection.stage3": 10,
            },
            300,
        ],
        "ablation:full_bag": [
            {"selection.query": 20, "selection.stage1": 20, "selection.stage2": 100},
            51,
        ],
        "ablation:no_sim": [
            {
                "selection.query": 20,
                "selection.stage1": 20,
                "selection.stage2": 100,
                "selection.stage3": 10,
            },
            51,
        ],
        "ablation:no_conf": [{"selection.query": 20, "selection.stage2": 118}, 155],
    }


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
