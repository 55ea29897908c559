"""One workload repetition, run in a fresh process.

    python3 bench/rep.py SPEC.json

SPEC names the checkout's ``src`` directory, the command steps (each the
argv a user would give ``hydre``), whether to trace, and where to write the
result and the spans. Every timed step is one ``hydre.cli.main(argv)`` call
in this process, timed with ``time.perf_counter``. Untimed steps (the
replay-cache prefill) run as ``python3 -m hydre.cli`` in a process of their
own between timed ones and are left out of every metric.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path


def _nested_select_timer(cli, state: dict) -> None:
    """Time the per-k selections that ``run --k a..b`` makes through
    ``cli.cmd_select``; one timer per call, so it costs nothing measurable."""
    original = cli.cmd_select

    def timed(*args, **kwargs):
        if state["command"] != "run":
            return original(*args, **kwargs)
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            state["nested_select_s"] += time.perf_counter() - start

    cli.cmd_select = timed


def _traced_nested_select(cli, tracer) -> None:
    """A ``cli.select`` span for each selection pass that ``run`` makes."""
    original = cli.cmd_select

    def traced(*args, **kwargs):
        if tracer.current_layer() == "cli.select":
            return original(*args, **kwargs)
        index = tracer.open("cli.select")
        try:
            return original(*args, **kwargs)
        finally:
            tracer.close(index)

    cli.cmd_select = traced


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from hydre import cli

    state = {"command": None, "nested_select_s": 0.0}
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        _traced_nested_select(cli, tracer)
    else:
        _nested_select_timer(cli, state)

    steps = []
    for step in spec["steps"]:
        for src, dst in step.get("copy", ()):
            Path(dst).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(src, dst)
        if not step["timed"]:
            # in its own process, so it leaves nothing behind in this heap
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "hydre.cli", *step["argv"]],
                                  env=dict(os.environ, PYTHONPATH=spec["src"]),
                                  capture_output=True, text=True, timeout=120)
            steps.append({"command": step["command"], "timed": False,
                          "seconds": time.perf_counter() - start,
                          "exit": proc.returncode, "stderr": proc.stderr[-2000:]})
            continue
        # start every command from a collected heap, as a fresh process would
        gc.collect()
        state["command"] = step["command"]
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer:
            tracer.command_span = tracer.open(f"cli.{step['command']}")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            code = cli.main(step["argv"])
            seconds = time.perf_counter() - start
        if tracer:
            tracer.close(tracer.command_span)
            tracer.command_span = None
        steps.append(
            {"command": step["command"], "timed": True, "seconds": seconds,
             "exit": code, "stderr": stderr.getvalue()[-2000:]}
        )
    result = {
        "steps": steps,
        "nested_select_s": state["nested_select_s"],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
