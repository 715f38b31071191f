"""Chat-completions and embeddings stub on 127.0.0.1 for the live-latency workload.

Run as ``python3 bench/stub.py --delay-ms 20``; it prints ``port <n>`` once it
listens and serves until terminated. Only the standard library and ``sopflow``
are used.

- ``POST /chat/completions`` replays the script of the current episode. An
  episode is recognised by the alert's ``scenario: <id>`` line, which
  ``sandbox/alert.py`` declares stable and which every orchestrator-thought
  prompt carries; the script is read from ``<scripts>/<id>.yaml``. Prompts
  without that line (selection, observer, coder) belong to the episode last
  seen, which holds because the client runs one episode at a time.
- ``POST /embeddings`` answers with ``hash_embedding``, the scripted
  backend's embedding, so transcripts match scripted runs byte for byte.
- Every model request waits ``--delay-ms``; at most as many requests as
  there are CPUs are handled at once. A request's interval ends once its
  answer is ready, before it is sent, so the client cannot start its next
  request inside it.
- ``POST /control/reset`` with ``{"scripts": DIR}`` starts a new pass: the
  next episode loads its script afresh from DIR.
- ``GET /control/stats`` returns, and then clears, the request count per
  path, the TCP connections that carried model requests, and each model
  request's server-side ``[start, end]`` interval.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import yaml  # noqa: E402

from sopflow.errors import SopflowError  # noqa: E402
from sopflow.llm import (  # noqa: E402
    BackendConfig,
    ChatMessage,
    ScriptedBackend,
    hash_embedding,
)
from sopflow.golden import script_from_mapping  # noqa: E402

_SCENARIO_LINE = re.compile(r"^scenario: (\S+)$", re.MULTILINE)
MODEL_PATHS = ("/chat/completions", "/embeddings")
EMBED = BackendConfig()  # the scripted backend's embedding size and seed


class StubState:
    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.slots = threading.BoundedSemaphore(os.cpu_count() or 1)
        self.lock = threading.Lock()
        self.scripts_dir: Path | None = None
        self.scenario_id: str | None = None
        self.backend: ScriptedBackend | None = None
        self._clear_stats()

    def _clear_stats(self) -> None:
        self.requests = {path: 0 for path in MODEL_PATHS}
        self.connections = 0
        self.intervals: list[list[float]] = []

    def reset(self, scripts_dir: str) -> None:
        with self.lock:
            self.scripts_dir = Path(scripts_dir)
            self.scenario_id = None
            self.backend = None

    def take_stats(self) -> dict:
        with self.lock:
            stats = {"requests": self.requests, "connections": self.connections,
                     "intervals": self.intervals, "delay_s": self.delay_s}
            self._clear_stats()
        return stats

    def complete(self, messages: list[ChatMessage]) -> str:
        match = None
        for message in messages:
            match = _SCENARIO_LINE.search(message.content)
            if match:
                break
        with self.lock:
            if match and match.group(1) != self.scenario_id:
                if self.scripts_dir is None:
                    raise SopflowError("no scripts directory; POST /control/reset first")
                path = self.scripts_dir / f"{match.group(1)}.yaml"
                script = script_from_mapping(yaml.safe_load(path.read_text(encoding="utf-8")))
                self.backend = ScriptedBackend(BackendConfig(script=script))
                self.scenario_id = match.group(1)
            backend = self.backend
        if backend is None:
            raise SopflowError("no episode seen yet")
        return backend.complete(messages)


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.counted_connection = False

        def log_message(self, format, *args):  # noqa: A002 - signature of the base class
            pass

        def _reply(self, status: int, payload) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/control/stats":
                self._reply(200, state.take_stats())
            else:
                self._reply(404, {"error": f"unknown path {self.path}"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            try:
                body = json.loads(self.rfile.read(length) or b"{}")
            except ValueError:
                self._reply(400, {"error": "body is not JSON"})
                return
            if self.path == "/control/reset":
                state.reset(body["scripts"])
                self._reply(200, {})
                return
            if self.path not in MODEL_PATHS:
                self._reply(404, {"error": f"unknown path {self.path}"})
                return
            with state.slots:
                start = time.monotonic()
                time.sleep(state.delay_s)
                status, payload = self._answer(body)
                end = time.monotonic()
                self._reply(status, payload)
            with state.lock:
                state.requests[self.path] += 1
                state.intervals.append([start, end])
                if not self.counted_connection:
                    state.connections += 1
                    self.counted_connection = True

        def _answer(self, body: dict) -> tuple[int, dict]:
            try:
                if self.path == "/embeddings":
                    vector = hash_embedding(str(body["input"]), EMBED.embed_dim,
                                            EMBED.embed_seed)
                    return 200, {"data": [{"embedding": list(vector.values)}]}
                messages = [ChatMessage(m["role"], m["content"]) for m in body["messages"]]
                content = state.complete(messages)
                return 200, {"choices": [{"message": {"role": "assistant", "content": content}}]}
            except (KeyError, TypeError, OSError, SopflowError) as exc:
                return 500, {"error": f"{type(exc).__name__}: {exc}"}

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args(argv)
    state = StubState(args.delay_ms / 1000.0)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
