"""Tiny-scale self-test of the benchmark harness; runs in a few seconds.

    python3 bench/selftest.py

Run from the root of a hydre checkout. Checks that the generator is
deterministic, that one repetition of a tiny replay workload passes every
output check, and that the checks flag a corrupted selection, a corrupted
prediction and a corrupted report. Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import filecmp
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

TINY = run.Workload(n_bags=60, n_queries=8, strategies=("hydre",), mode="replay", oracle_sample=8)
FILES = ("ontology.jsonl", "bags.jsonl", "queries.jsonl", "scores.jsonl", "embeddings.jsonl",
         "responses.jsonl")


def failures(inputs: Path, out: Path, oracles) -> run.Accounting:
    acct = run.Accounting()
    run.check_rep(TINY, 3, inputs, out, None, oracles, acct, None)
    return acct


def rewrite(path: Path, edit) -> None:
    records = checks.read_jsonl(path)
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "hydre" / "cli.py").is_file():
        print("error: run from the root of a hydre checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "tests"))
    import oracles

    work = root / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    ontology = root / "src" / "hydre" / "data" / "nyt10m_ontology.jsonl"
    results: list[tuple[str, bool]] = []

    a, b, c = work / "a", work / "b", work / "c"
    gen.generate(a, 3, TINY.n_bags, TINY.n_queries, ontology, dim=16)
    gen.generate(b, 3, TINY.n_bags, TINY.n_queries, ontology, dim=16)
    gen.generate(c, 4, TINY.n_bags, TINY.n_queries, ontology, dim=16)
    results.append(("same seed, byte-identical files",
                    all(filecmp.cmp(a / f, b / f, shallow=False) for f in FILES)))
    results.append(("another seed, other files", not filecmp.cmp(a / "bags.jsonl", c / "bags.jsonl", shallow=False)))

    rep_dir = work / "rep"
    rep_dir.mkdir()
    out = rep_dir / "out"
    stub = run.Stub(a)
    try:
        config = run.write_config(rep_dir, a, TINY, stub.url)
        steps = run.build_steps(TINY, config, out, rep_dir / "prefill")
        result = run.run_rep(root, rep_dir, steps, trace=True)
    finally:
        stub.close()
    acct = run.Accounting()
    run.account_rep(TINY, steps, result, acct)
    results.append(("tiny repetition exits 0 on every step", acct.failed == 0 and "crashed" not in result))
    clean = failures(a, out, oracles)
    results.append(("clean outputs pass every check", clean.failed == 0))
    for note in clean.notes:
        print(f"  {note}")
    span_layers = {s["layer"] for s in run.spans.load_spans(rep_dir / "spans.jsonl")}
    results.append(("traced repetition records stage spans",
                    {"corpus.load", "selection.stage2", "judge.generate"} <= span_layers))

    def corrupt_selection(records):
        exemplar = records[0]["exemplars"][-1]
        exemplar["sentence_id"] = next(
            s["sentence_id"] for x in checks.read_jsonl(a / "bags.jsonl") for s in x["sentences"]
            if s["sentence_id"] != exemplar["sentence_id"])

    def corrupt_prediction(records):
        first = records[0]
        first["relations"] = [] if first["relations"] else [checks.read_jsonl(a / "scores.jsonl")[0]["relation_order"][0]]

    for label, path, edit in (
        ("corrupted selection is flagged", out / "hydre" / "selections.jsonl", corrupt_selection),
        ("corrupted prediction is flagged", out / "hydre" / "predictions.jsonl", corrupt_prediction),
        ("corrupted report is flagged", out / "hydre" / "report.json", None),
    ):
        saved = path.read_bytes()
        if edit is None:
            report = json.loads(saved)
            report["micro_f1"] += 1e-9
            path.write_text(json.dumps(report), encoding="utf-8")
        else:
            rewrite(path, edit)
        results.append((label, failures(a, out, oracles).failed > 0))
        path.write_bytes(saved)

    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
