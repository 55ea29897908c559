"""Every strategy's selections and prompts, pinned byte for byte.

``strategy_digests.json`` holds the sha256 of ``selections.jsonl`` and
``prompts.jsonl`` for each strategy on the golden fixture config: ``select``,
then ``run`` in live mode against a backend that answers "NA". Regenerate it
(only when an output change is intended) with

    PYTHONPATH=src python tests/test_strategy_digests.py [STRATEGY ...] \\
        > tests/fixtures/golden/strategy_digests.json

which covers every registered strategy when no name is given.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import hydre.cli as cli
from hydre.judge import MockBackend

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"
DIGESTS = GOLDEN / "strategy_digests.json"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def strategy_digest(strategy: str, workdir: Path) -> dict[str, str]:
    """select + live run of one strategy on the golden config.

    Needs ``cli.HttpChatBackend`` replaced by a MockBackend factory and the
    judge API key variable set.
    """
    config = json.loads((GOLDEN / "e2e_config.json").read_text())
    for key, value in config["paths"].items():
        if value:
            config["paths"][key] = str((GOLDEN / value).resolve())
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


def test_strategy_output_bytes_pinned(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.LLM_API_KEY_ENV, "test-key")
    monkeypatch.setattr(cli, "HttpChatBackend", lambda endpoint: MockBackend("NA"))
    pinned = _pinned()
    got = {}
    for i, strategy in enumerate(sorted(pinned)):
        workdir = tmp_path / f"s{i}"
        workdir.mkdir()
        got[strategy] = strategy_digest(strategy, workdir)
    assert got == pinned


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
