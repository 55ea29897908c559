"""Every strategy's selections and prompts, pinned byte for byte.

``strategy_digests.json`` holds the sha256 of ``selections.jsonl`` and
``prompts.jsonl`` for each strategy on the golden fixture config: ``select``,
then ``run`` in live mode against a backend that answers "NA". Regenerate it
(only when an output change is intended) with

    PYTHONPATH=src python tests/test_strategy_digests.py [STRATEGY ...] \\
        > tests/fixtures/golden/strategy_digests.json

which covers every registered strategy when no name is given.

The test checks the digests twice on copies of the fixtures: once with every
input parsed from its JSONL text (no ``*.hydre.bin`` sidecar beside the
copies before each strategy), and once with every input read from its
sidecar.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import hydre.cli as cli
import hydre.corpus
import hydre.providers
from hydre.corpus import Corpus, builtin_ontology_path, load_ontology
from hydre.judge import MockBackend
from hydre.providers import SIDECAR_SUFFIX, EmbeddingIndex, ScoreMatrix

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"
DIGESTS = GOLDEN / "strategy_digests.json"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def strategy_digest(
    strategy: str, workdir: Path, inputs: Path = GOLDEN
) -> dict[str, str]:
    """select + live run of one strategy on the golden config, reading the
    bag, query, score and embedding files from ``inputs``.

    Needs ``cli.HttpChatBackend`` replaced by a MockBackend factory and the
    judge API key variable set.
    """
    config = json.loads((GOLDEN / "e2e_config.json").read_text())
    for key, value in config["paths"].items():
        if value:
            config["paths"][key] = str((GOLDEN / value).resolve())
    for key in INPUTS:
        config["paths"][key] = str(inputs / f"{key}.jsonl")
    config["paths"]["output"] = str(workdir / "out")
    config["paths"]["cache"] = str(workdir / "cache.jsonl")
    config["strategy"] = strategy
    config["mode"] = "live"
    config["llm_endpoint"] = "http://example.invalid/v1/chat"
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))
    for command in ("select", "run"):
        code = cli.main(["--config", str(config_path), command])
        assert code == 0, (strategy, command)
    out = workdir / "out"
    return {
        "selections": _sha256(out / "selections.jsonl"),
        "prompts": _sha256(out / "prompts.jsonl"),
    }


def _pinned() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def test_registry_names_equal_pinned_strategies():
    assert sorted(cli.STRATEGIES) == sorted(_pinned())


INPUTS = ("bags", "queries", "scores", "embeddings")


def sidecars(inputs: Path) -> list[Path]:
    return sorted(inputs.glob(f"*{SIDECAR_SUFFIX}"))


def refuse(paths: list[Path], iter_jsonl):
    """iter_jsonl that refuses to parse the given files."""

    def guarded(path, error):
        assert Path(path) not in paths, f"{path} parsed on a warm load"
        return iter_jsonl(path, error)

    return guarded


def check_pinned(tmp_path, monkeypatch, warm: bool) -> None:
    """Every strategy's digests on a copy of the fixtures: each strategy
    parses the inputs (cold) or reads them all from their sidecars (warm)."""
    monkeypatch.setenv(cli.LLM_API_KEY_ENV, "test-key")
    monkeypatch.setattr(cli, "HttpChatBackend", lambda endpoint: MockBackend("NA"))
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for key in INPUTS:
        shutil.copyfile(GOLDEN / f"{key}.jsonl", inputs / f"{key}.jsonl")
    parsed = [inputs / f"{key}.jsonl" for key in ("bags", "embeddings", "scores")]
    if warm:
        ontology = load_ontology(builtin_ontology_path())
        Corpus.load_bag_file(inputs / "bags.jsonl", ontology)
        ScoreMatrix.load(inputs / "scores.jsonl", ontology)
        EmbeddingIndex.load(inputs / "embeddings.jsonl")
        for module in (hydre.corpus, hydre.providers):
            monkeypatch.setattr(module, "iter_jsonl", refuse(parsed, module.iter_jsonl))
    pinned = _pinned()
    got = {}
    for i, strategy in enumerate(sorted(pinned)):
        if warm:
            assert sidecars(inputs) == [p.with_name(p.name + SIDECAR_SUFFIX) for p in parsed]
        else:
            for path in sidecars(inputs):
                path.unlink()
        workdir = tmp_path / f"s{i}"
        workdir.mkdir()
        got[strategy] = strategy_digest(strategy, workdir, inputs)
    assert got == pinned


def test_strategy_output_bytes_pinned(tmp_path, monkeypatch):
    check_pinned(tmp_path, monkeypatch, warm=False)


def test_strategy_output_bytes_pinned_from_sidecars(tmp_path, monkeypatch):
    check_pinned(tmp_path, monkeypatch, warm=True)


if __name__ == "__main__":
    os.environ.setdefault(cli.LLM_API_KEY_ENV, "capture-key")
    cli.HttpChatBackend = lambda endpoint: MockBackend("NA")
    names = sys.argv[1:] or sorted(cli.STRATEGIES)
    digests = {}
    for name in names:
        # the commands' progress lines go to stderr, the JSON alone to stdout
        with tempfile.TemporaryDirectory() as workdir, contextlib.redirect_stdout(
            sys.stderr
        ):
            digests[name] = strategy_digest(name, Path(workdir))
    print(json.dumps(digests, indent=2, sort_keys=True))
