"""Local stand-in for the chat-completion endpoint used by live mode.

    python3 bench/stub_judge.py --inputs DIR --delay-ms 10

Binds 127.0.0.1 on a free port and prints the port as its first stdout
line. Each POST sleeps the fixed delay, then answers with the response that
``responses.jsonl`` assigns to the query whose text ends the prompt, so the
answer depends only on the query text. ``GET /stats`` returns the request
count. Runs until terminated.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

TAGS = ("<Head>", "</Head>", "<Tail>", "</Tail>")


def query_text_of(prompt: str) -> str:
    """The untagged query sentence: the last ``Input:`` block of the prompt."""
    block = prompt.rsplit("Input: ", 1)[-1]
    if block.endswith("\nOutput:"):
        block = block[: -len("\nOutput:")]
    for tag in TAGS:
        block = block.replace(tag, "")
    return block


def load_answers(inputs: Path) -> dict[str, str]:
    responses = {}
    for line in (inputs / "responses.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        responses[record["query_id"]] = record["response"]
    answers = {}
    for line in (inputs / "queries.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        answers[record["text"]] = responses[record["query_id"]]
    return answers


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, answers: dict[str, str], delay_s: float) -> None:
        super().__init__(("127.0.0.1", 0), Handler)
        self.answers = answers
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.requests = 0


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: one connection per client thread
    server: StubServer

    def setup(self) -> None:
        super().setup()
        # headers and body go out in two writes; without this, Nagle's
        # algorithm and delayed ACKs add ~40 ms to every answer
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        length = int(self.headers.get("Content-Length", "0"))
        request = json.loads(self.rfile.read(length))
        prompt = request["messages"][-1]["content"]
        time.sleep(self.server.delay_s)
        answer = self.server.answers.get(query_text_of(prompt))
        with self.server.lock:
            self.server.requests += 1
        # an unknown query gets a plain NA; the benchmark's output check
        # compares every prediction with the answer it expected to be served
        content = "NA" if answer is None else answer
        self._reply(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})

    def do_GET(self) -> None:  # noqa: N802
        with self.server.lock:
            stats = {"requests": self.server.requests}
        self._reply(200, stats)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--delay-ms", required=True, type=float)
    args = parser.parse_args()
    server = StubServer(load_answers(args.inputs), args.delay_ms / 1000.0)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
