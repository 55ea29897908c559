"""hydre benchmark: seeded synthetic inputs, the CLI driven as a user would.

    python3 bench/run.py --workload hydre-select --seed 1 --seconds 20 --trace 0

Run from the root of a hydre checkout. Every repetition of a workload is a
fresh ``python3 bench/rep.py`` process with a fresh output directory and a
fresh replay cache; it calls ``hydre.cli.main`` with the argv a user would
type. The outputs are checked after each repetition, outside the timed
region. With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced repetition
(spans recorded by ``bench/spans.py``) plus the tracing overhead. Scratch
files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

STUB_DELAY_MS = 10.0  # fixed per-request delay of the stub judge
SETUP_SAMPLES = 3  # validate runs per benchmark run, for the setup_s median
REP_TIMEOUT_S = 170.0
SWEEP = list(range(1, 21))
DUMMY_API_KEY = "bench-dummy-key"


@dataclass(frozen=True)
class Workload:
    n_bags: int
    n_queries: int
    strategies: tuple[str, ...]  # each runs select -> run -> eval once
    mode: str  # replay: cache prefilled untimed; live: the stub judge serves
    oracle_sample: int  # queries compared with tests/oracles.py per strategy
    sweep: bool = False  # first `run --k 1..20` with hydre and an eval per k


WORKLOADS = {
    # stage 2's per-sentence cosine is the hot spot; selection outweighs the four loads
    "hydre-select": Workload(5000, 200, ("hydre",), "replay", 4),
    # the paper's k-curve (42 artifact loads), then the flat-retrieval
    # baselines, where stages 2-3 never run; live dispatch and cache appends
    "k-sweep-live": Workload(1000, 10, ("topk_sim", "mmr"), "live", 3, sweep=True),
}
SWEEP_CHECK_K = (1, 5, 20)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class Stub:
    """The stub judge in its own process on 127.0.0.1."""

    def __init__(self, inputs: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub_judge.py"), "--inputs", str(inputs),
             "--delay-ms", str(STUB_DELAY_MS)],
            stdout=subprocess.PIPE, text=True,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("stub judge did not start")
        self.base = f"http://127.0.0.1:{port}"
        self.url = f"{self.base}/v1/chat/completions"

    def requests(self) -> int:
        with urllib.request.urlopen(f"{self.base}/stats", timeout=10) as response:
            return json.loads(response.read())["requests"]

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def prepare_inputs(root: Path, wl: Workload, seed: int) -> Path:
    """Generate once per (scale, seed), outside the timed region and git."""
    base = root / ".bench_work" / "inputs"
    target = base / f"{wl.n_bags}b-{wl.n_queries}q-seed{seed}"
    if not (target / "complete").exists():
        if base.exists():  # keep the few most recent input sets
            for old in sorted(base.iterdir(), key=lambda p: p.stat().st_mtime)[:-3]:
                shutil.rmtree(old)
        shutil.rmtree(target, ignore_errors=True)
        gen.generate(target, seed, wl.n_bags, wl.n_queries,
                     root / "src" / "hydre" / "data" / "nyt10m_ontology.jsonl")
        (target / "complete").write_text("", encoding="utf-8")
    os.utime(target)
    return target


def build_steps(wl: Workload, config: Path, out: Path, prefill: Path | None) -> list[dict]:
    """The command sequence of one repetition, as hydre argv lists."""
    base = ["--config", str(config)]
    steps = [{"command": "validate", "argv": base + ["validate"], "timed": True}]
    par = ["--parallelism", str(nproc())]
    if wl.sweep:
        steps.append({"command": "run", "timed": True, "passes": len(SWEEP),
                      "argv": base + ["--output", str(out), *par, "--k", f"{SWEEP[0]}..{SWEEP[-1]}", "run"]})
        for k in SWEEP:
            steps.append({"command": "eval", "timed": True, "argv": base + [
                "--output", str(out / f"eval_k{k}"), "eval", str(out / f"predictions_k{k}.jsonl")]})
    for strategy in wl.strategies:
        sout = out / strategy
        flags = base + ["--strategy", strategy]
        steps.append({"command": "select", "timed": True, "argv": flags + ["--output", str(sout), "select"]})
        if prefill is not None:
            # untimed: a live run against the stub renders every prompt and
            # appends its answer to the cache the timed replay run then reads
            pre = prefill / strategy
            steps.append({"command": "prefill", "timed": False,
                          "copy": [[str(sout / "selections.jsonl"), str(pre / "selections.jsonl")]],
                          "argv": flags + ["--mode", "live", *par, "--output", str(pre), "run"]})
        steps.append({"command": "run", "timed": True, "argv": flags + ["--output", str(sout), "run"]})
        steps.append({"command": "eval", "timed": True,
                      "argv": flags + ["--output", str(sout), "eval", str(sout / "predictions.jsonl")]})
    return steps


def run_rep(root: Path, rep_dir: Path, steps: list[dict], trace: bool) -> dict:
    spec = {"src": str(root / "src"), "steps": steps, "trace": trace,
            "spans": str(rep_dir / "spans.jsonl"), "result": str(rep_dir / "result.json")}
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
    # One BLAS thread: on a two-core machine OpenBLAS's spinning workers
    # turn any other activity into large swings in the baselines' timings.
    env = dict(os.environ, HYDRE_LLM_API_KEY=DUMMY_API_KEY, OPENBLAS_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "rep.py"), str(spec_path)], env=env,
                              capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"repetition exceeded {REP_TIMEOUT_S:.0f} s", "steps": []}
    result_path = rep_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return {"crashed": proc.stderr[-2000:] or f"exit {proc.returncode}", "steps": []}
    return json.loads(result_path.read_text(encoding="utf-8"))


class Accounting:
    """Operations attempted and failed: one query through one command pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"{count} failed: {why}")


def account_rep(wl: Workload, steps: list[dict], result: dict, acct: Accounting) -> None:
    timed = [s for s in steps if s["timed"]]
    for step in timed:
        acct.attempted += wl.n_queries * step.get("passes", 1)
    if "crashed" in result:
        acct.fail(sum(wl.n_queries * s.get("passes", 1) for s in timed), result["crashed"])
        return
    # a failed (untimed) prefill surfaces as replay misses in the timed run
    for step, got in zip(timed, [s for s in result["steps"] if s["timed"]]):
        if got["exit"] != 0:
            acct.fail(wl.n_queries * step.get("passes", 1),
                      f"{step['command']} exit {got['exit']}: {got['stderr'][-300:]}")


def check_rep(wl: Workload, seed: int, inputs: Path, out: Path, first_out: Path | None,
              oracles, acct: Accounting, dispatches: int | None) -> None:
    """Output checks; mismatches count as failed operations."""
    relations = checks.read_jsonl(inputs / "scores.jsonl")[0]["relation_order"]
    queries = checks.read_jsonl(inputs / "queries.jsonl")
    served = gen.load_responses(inputs)
    ids = [q["query_id"] for q in queries]

    def read(path: Path) -> list[dict]:
        return checks.read_jsonl(path) if path.exists() else []

    passes = [(f"_k{k}", out, out / f"eval_k{k}") for k in SWEEP] if wl.sweep else []
    passes += [("", out / s, out / s) for s in wl.strategies]
    for suffix, sout, eout in passes:
        predictions = read(sout / f"predictions{suffix}.jsonl")
        acct.fail(len(checks.check_predictions(predictions, served, relations)),
                  f"predictions{suffix} ({sout.name}) differ from the served answers")
        report_path = eout / "report.json"
        report = json.loads(report_path.read_text(encoding="utf-8")) if report_path.exists() else {}
        if not checks.check_report(report, predictions, queries, relations, oracles):
            acct.fail(wl.n_queries, f"report.json F1 in {eout.name} differs from micro_macro_oracle")

    selection_files = sorted(out.rglob("selections*.jsonl"))
    if first_out is not None:
        # later repetitions must reproduce the first one's selections byte for byte
        for path in selection_files:
            ref = first_out / path.relative_to(out)
            if not ref.exists() or ref.read_bytes() != path.read_bytes():
                acct.fail(wl.n_queries, f"{path.name} differs from the first repetition")
    else:
        inst = checks.load_instance(inputs)
        sample = checks.sample_queries(ids, seed, wl.oracle_sample)
        for k in SWEEP_CHECK_K if wl.sweep else ():
            bad = checks.check_hydre(read(out / f"selections_k{k}.jsonl"), sample, inst, oracles, k, 0.5)
            acct.fail(len(bad), f"selections_k{k} differ from exemplar_set_oracle for {bad}")
        for strategy in wl.strategies:
            records = read(out / strategy / "selections.jsonl")
            if strategy == "hydre":
                bad = checks.check_hydre(records, sample, inst, oracles, 5, 0.5)
            else:
                bad = checks.check_flat(strategy, records, sample, inst, oracles, 5, 0.3, 100)
            acct.fail(len(bad), f"{strategy} selections differ from the oracle for {bad}")
    if dispatches is not None:
        cache = out.parent / "cache.jsonl"
        lines = len(read(cache))
        if lines != dispatches:
            acct.fail(max(1, abs(lines - dispatches)),
                      f"cache holds {lines} lines for {dispatches} dispatches")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def e2e_metrics(results: list[dict], setup_samples: list[float], acct: Accounting) -> dict:
    def per_rep(command: str) -> list[float]:
        return [sum(s["seconds"] for s in r["steps"] if s["timed"] and s["command"] == command)
                + (r["nested_select_s"] if command == "select" else 0.0) for r in ok]

    ok = [r for r in results if "crashed" not in r]
    return {
        "setup_s": (median(setup_samples), "s"),
        "pipeline_s": (median([sum(s["seconds"] for s in r["steps"] if s["timed"]) for r in ok]), "s"),
        "select_s": (median(per_rep("select")), "s"),
        "run_s": (median(per_rep("run")), "s"),
        "eval_s": (median(per_rep("eval")), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in ok]), "MB"),
        "success_ratio": (1.0 - acct.failed / max(1, acct.attempted), "ratio"),
    }


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten samples beyond it, and
    its percentile; with 20 samples or fewer it would not exceed the median,
    so the median is reported."""
    n = len(sorted_values)
    if n <= 20:
        return median(sorted_values), 50.0
    return sorted_values[n - 11], 100.0 * (n - 10) / n


def layer_metrics(traced: list[tuple[list[dict], Path]], overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metrics pooled over the traced repetitions."""
    n_reps = len(traced)
    by_layer: dict[str, list[tuple[dict, float, bool]]] = {}
    for span_list, _ in traced:
        selfs = spans.self_times(span_list)
        has_dispatch = {s["parent"] for s in span_list if s["layer"] == "judge.dispatch"}
        for index, (span, self_s) in enumerate(zip(span_list, selfs)):
            by_layer.setdefault(span["layer"], []).append((span, self_s, index in has_dispatch))

    def durations(layer: str, scale: float) -> list[float]:
        return sorted((s["end"] - s["start"]) * scale for s, _, _ in by_layer.get(layer, ()))

    metrics: dict[str, tuple[float, str]] = {}
    notes = []

    def dist(name: str, layer: str, unit: str, scale: float, with_tail: bool = True) -> None:
        values = durations(layer, scale)
        metrics[f"{name}.p50"] = (median(values), unit)
        if with_tail:
            value, pct = tail(values)
            metrics[f"{name}.tail"] = (value, unit)
            if values:
                notes.append(f"{name}.tail is p{pct:.1f} of {len(values)} samples")
        metrics[f"{name}.n"] = (len(values) / n_reps, "count")

    def total(layer: str) -> float:
        return sum(durations(layer, 1.0)) / n_reps

    def self_total(layer: str) -> float:
        return sum(self_s for _, self_s, _ in by_layer.get(layer, ())) / n_reps

    def count(layer: str, pred=lambda span, dispatched: True) -> float:
        return sum(1 for s, _, d in by_layer.get(layer, ()) if pred(s, d)) / n_reps

    metrics["corpus.load_s"] = (total("corpus.load"), "s")
    metrics["corpus.load_calls"] = (count("corpus.load"), "count")
    metrics["providers.scores_load_s"] = (total("providers.scores_load"), "s")
    metrics["providers.embeddings_load_s"] = (total("providers.embeddings_load"), "s")
    metrics["cli.validate_self_s"] = (self_total("cli.validate"), "s")
    dist("selection.query_ms", "selection.query", "ms", 1e3)
    dist("selection.stage1_us", "selection.stage1", "us", 1e6, with_tail=False)
    dist("selection.stage2_ms", "selection.stage2", "ms", 1e3)
    dist("selection.stage3_us", "selection.stage3", "us", 1e6, with_tail=False)
    metrics["selection.bags_scored"] = (
        sum(s["count"] for s, _, _ in by_layer.get("selection.stage2", ())) / n_reps, "count")
    candidates = skipped = 0
    for _, out in traced:
        for path in out.rglob("selections*.jsonl"):
            for record in checks.read_jsonl(path):
                candidates += len(record.get("candidates", ()))
                skipped += len(record.get("skipped", ()))
    metrics["selection.candidates"] = (candidates / n_reps, "count")
    metrics["selection.skipped"] = (skipped / n_reps, "count")
    flatten = durations("baselines.flatten", 1e3)
    metrics["baselines.flatten_ms"] = (median(flatten), "ms")
    dist("baselines.topk_sim_ms", "baselines.topk_sim", "ms", 1e3)
    dist("baselines.mmr_ms", "baselines.mmr", "ms", 1e3)
    dist("prompting.render_ms", "prompting.render", "ms", 1e3)
    dist("prompting.parse_us", "prompting.parse", "us", 1e6, with_tail=False)
    tokens = sorted(s["count"] for s, _, _ in by_layer.get("prompting.prompt_tokens", ()))
    metrics["prompting.prompt_tokens.p50"] = (median(tokens), "count")
    metrics["prompting.prompt_tokens.max"] = (max(tokens) if tokens else 0, "count")
    metrics["judge.cache_load_s"] = (total("judge.cache_load"), "s")
    dist("judge.generate_ms", "judge.generate", "ms", 1e3)
    dist("judge.dispatch_ms", "judge.dispatch", "ms", 1e3)
    dist("judge.cache_append_ms", "judge.cache_append", "ms", 1e3)
    metrics["judge.cache_hits"] = (count("judge.generate", lambda s, d: not d and s["error"] is None), "count")
    metrics["judge.cache_misses"] = (count("judge.generate", lambda s, d: d or s["error"] == "ReplayMiss"), "count")
    metrics["judge.dispatches"] = (count("judge.dispatch"), "count")
    metrics["judge.transport_errors"] = (count("judge.dispatch", lambda s, d: s["error"] is not None), "count")
    evals = max(1.0, count("cli.eval"))
    for name in ("score", "recall_at_k", "confusion_pairs"):
        metrics[f"evaluation.{name}_ms"] = (total(f"evaluation.{name}") * 1e3 / evals, "ms")
    for command in ("select", "run", "eval"):
        metrics[f"cli.{command}_self_s"] = (self_total(f"cli.{command}"), "s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics, notes


def machine() -> dict:
    import numpy

    return {"nproc": nproc(), "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


@dataclass
class Rep:
    out: Path
    result: dict
    traced: bool
    dispatches: int | None  # stub requests during the repetition (live mode)

    @property
    def pipeline_s(self) -> float:
        return sum(s["seconds"] for s in self.result["steps"] if s["timed"])


def write_config(rep_dir: Path, inputs: Path, wl: Workload, stub_url: str) -> Path:
    paths = {name: str(inputs / f"{name}.jsonl") for name in ("ontology", "bags", "queries", "scores", "embeddings")}
    config = rep_dir / "config.json"
    config.write_text(json.dumps({
        "paths": paths | {"cache": str(rep_dir / "cache.jsonl"), "output": str(rep_dir / "out")},
        # the sweep's strategy; every single pass names its own with --strategy
        "strategy": "hydre", "mode": wl.mode, "llm_endpoint": stub_url,
    }, indent=1), encoding="utf-8")
    return config


def run_reps(root: Path, wl: Workload, inputs: Path, run_dir: Path, seconds: float,
             trace: bool, acct: Accounting) -> tuple[list[Rep], list[float]]:
    """Repetitions for about ``seconds`` (with --trace 1, alternately
    untraced and traced, at least one of each), then validate-only probes
    until there are SETUP_SAMPLES set-up times.

    Another repetition starts while the run would end nearer to ``seconds``
    with it than without it; the untimed cache prefill does not count."""
    saved_cache = run_dir / "replay_cache.jsonl"
    reps: list[Rep] = []
    setup: list[float] = []
    stub = Stub(inputs)
    try:
        start = time.perf_counter()

        def another() -> bool:
            if not reps or (trace and len(reps) < 2):
                return True
            # the untimed cache prefill is set-up, not measuring time
            prefill_s = sum(s["seconds"] for r in reps for s in r.result["steps"] if not s["timed"])
            elapsed = time.perf_counter() - start - prefill_s
            return elapsed + 0.5 * elapsed / len(reps) < seconds

        while another():
            rep_dir = run_dir / f"rep{len(reps)}"
            rep_dir.mkdir()
            # A fresh output directory for every repetition: `run` silently
            # reuses any selections*.jsonl already there (the stale-selection
            # bug), so a reused directory would skip selection and measure less.
            out = rep_dir / "out"
            prefill = None
            if wl.mode == "replay":
                if saved_cache.exists():
                    shutil.copyfile(saved_cache, rep_dir / "cache.jsonl")
                else:
                    prefill = rep_dir / "prefill"
            steps = build_steps(wl, write_config(rep_dir, inputs, wl, stub.url), out, prefill)
            traced = trace and len(reps) % 2 == 1
            # flush the generated inputs and earlier outputs first, so disk
            # write-back does not compete with the measured process
            os.sync()
            before = stub.requests()
            result = run_rep(root, rep_dir, steps, traced)
            dispatches = stub.requests() - before if wl.mode == "live" else None
            account_rep(wl, steps, result, acct)
            if prefill is not None and (rep_dir / "cache.jsonl").exists():
                shutil.copyfile(rep_dir / "cache.jsonl", saved_cache)
            reps.append(Rep(out, result, traced, dispatches))
            if not traced:
                setup += [s["seconds"] for s in result["steps"] if s["command"] == "validate"]
        while not trace and len(setup) < SETUP_SAMPLES:
            probe_dir = run_dir / f"setup{len(setup)}"
            probe_dir.mkdir()
            validate = build_steps(wl, write_config(probe_dir, inputs, wl, stub.url), probe_dir / "out", None)[:1]
            probe = run_rep(root, probe_dir, validate, False)
            account_rep(wl, validate, probe, acct)
            if "crashed" in probe or probe["steps"][0]["exit"] != 0:
                break
            setup.append(probe["steps"][0]["seconds"])
    finally:
        stub.close()
    return reps, setup


def main() -> int:
    parser = argparse.ArgumentParser(description="hydre benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "hydre" / "cli.py").is_file() or not (root / "tests" / "oracles.py").is_file():
        print("error: run from the root of a hydre checkout (src/hydre and tests/oracles.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "tests"))
    import oracles

    name, wl = args.workload, WORKLOADS[args.workload]
    inputs = prepare_inputs(root, wl, args.seed)
    run_dir = root / ".bench_work" / "runs" / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    acct = Accounting()
    reps, setup = run_reps(root, wl, inputs, run_dir, args.seconds, bool(args.trace), acct)
    first_out = None
    for rep in reps:
        if "crashed" not in rep.result:
            check_rep(wl, args.seed, inputs, rep.out, first_out, oracles, acct, rep.dispatches)
            first_out = first_out or rep.out
    acct.failed = min(acct.failed, acct.attempted)  # a check may re-flag a failed step

    untraced = [r.result for r in reps if not r.traced]
    e2e = e2e_metrics(untraced, setup, acct)
    info = machine()
    print(f"workload {name} seed {args.seed}: {wl.n_bags} bags, {wl.n_queries} queries, "
          f"{len(untraced)} untraced + {len(reps) - len(untraced)} traced repetitions")
    print(f"machine: {json.dumps(info)}")
    print(f"fail_ratio: {acct.failed}/{acct.attempted} = {acct.failed / max(1, acct.attempted):.6f}")
    for note in acct.notes[:20]:
        print(f"  {note}")
    for key, (value, unit) in e2e.items():
        print(f"  {key:<16} {value:12.6f} {unit}")
    metrics, notes = e2e, []
    if args.trace:
        traced = [r for r in reps if r.traced]
        overhead = median([r.pipeline_s for r in traced]) / median([r.pipeline_s for r in reps if not r.traced])
        metrics, notes = layer_metrics(
            [(spans.load_spans(r.out.parent / "spans.jsonl"), r.out) for r in traced], overhead)
        print("per-layer (traced repetition):")
        for key, (value, unit) in metrics.items():
            print(f"  {key:<34} {value:14.6f} {unit}")
        for note in notes:
            print(f"  {note}")
    (run_dir / "results.json").write_text(json.dumps(
        {"workload": name, "seed": args.seed, "machine": info, "attempted": acct.attempted,
         "failed": acct.failed, "notes": acct.notes, "end_to_end": e2e,
         "per_layer": metrics if args.trace else None, "tail_notes": notes}, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": acct.failed == 0,
        "attempted": acct.attempted,
        "failed": acct.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
