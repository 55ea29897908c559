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


# A traced live ``run --k 1..3 --parallelism 2`` of the golden config
# against an in-process chat endpoint (an HttpSession stand-in, so the real
# HttpChatBackend and its judge.dispatch wrapper run); prints the span count
# of each layer, the number of distinct prompts written, and the judge and
# prompting metrics the benchmark computes from the spans.
TRACED_SWEEP = """
import json, os, sys, time
from collections import Counter
from pathlib import Path
import run, spans
from hydre import cli, judge

config_path, out = sys.argv[1:]
os.environ["HYDRE_LLM_API_KEY"] = "test-key"


class Session:
    def post(self, url, json, headers, timeout):
        time.sleep(0.001)
        body = {"choices": [{"message": {"content": "NA"}}]}
        return judge.HttpResponse(200, judge.json_dumps(body).encode())


tracer = spans.Tracer()
spans.install(tracer)
cli.HttpChatBackend = lambda endpoint: judge.HttpChatBackend(endpoint, session=Session())
argv = ["--config", config_path, "--k", "1..3", "--parallelism", "2", "run"]
assert cli.main(argv) == 0
prompts = {
    json.loads(line)["prompt"]
    for k in (1, 2, 3)
    for line in (Path(out) / f"prompts_k{k}.jsonl").read_text().splitlines()
}
for span in tracer.spans:
    # a golden candidate relation with no bag: its stage-2 span has no count
    if span["layer"] == "selection.stage2" and span["count"] is None:
        span["count"] = 0
metrics, _ = run.layer_metrics([(tracer.spans, Path(out))], 0.0)
print(json.dumps({
    "layers": Counter(s["layer"] for s in tracer.spans),
    "distinct_prompts": len(prompts),
    "metrics": {
        name: value
        for name, (value, _) in metrics.items()
        if name.startswith(("judge.", "prompting."))
    },
}))
"""


def test_bench_spans_see_every_call_of_a_live_sweep(tmp_path):
    """One render span per (query, k), and one generate, dispatch, cache
    append and parse span per distinct prompt; the judge metrics the
    benchmark derives from them are not silently 0."""
    config = json.loads(GOLDEN_CONFIG.read_text())
    for key, value in config["paths"].items():
        config["paths"][key] = str((GOLDEN_CONFIG.parent / value).resolve())
    config["paths"]["cache"] = str(tmp_path / "cache.jsonl")
    config["paths"]["output"] = str(tmp_path / "out")
    config.update(mode="live", llm_endpoint="http://judge.invalid/v1/chat")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result = run_with_spans(TRACED_SWEEP, str(config_path), str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    layers, distinct, metrics = report["layers"], report["distinct_prompts"], report["metrics"]
    assert 0 < distinct < 60
    assert layers["prompting.render"] == 60  # 20 queries x 3 k
    for layer in ("judge.generate", "judge.dispatch", "judge.cache_append", "prompting.parse"):
        assert layers[layer] == distinct, layer
    assert metrics["prompting.render_ms.n"] == 60
    for name in ("judge.generate_ms.n", "judge.dispatch_ms.n", "judge.cache_append_ms.n"):
        assert metrics[name] == distinct, name
    assert metrics["judge.dispatches"] == metrics["judge.cache_misses"] == distinct
    assert metrics["judge.cache_hits"] == metrics["judge.transport_errors"] == 0
    for name in ("judge.generate_ms.p50", "judge.dispatch_ms.p50", "prompting.render_ms.p50"):
        assert metrics[name] > 0, name


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
