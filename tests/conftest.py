from __future__ import annotations

import json
import re
import threading
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import pytest

from sopflow import prompts
from sopflow.detector import DetectorConfig
from sopflow.errors import SopflowError
from sopflow.kb import KnowledgeBase
from sopflow.llm import (
    BackendConfig,
    ChatMessage,
    ScriptedBackend,
    ScriptEntry,
    hash_embedding,
    make_backend,
)
from sopflow.sandbox import (
    EpisodeScenario,
    FaultType,
    GroundTruth,
    ScenarioConfig,
    generate_scenario,
    render_telemetry,
)
from sopflow.tools import ToolContext, build_registry

_TELEMETRY_CACHE: dict[str, object] = {}


def scripted_backend(script=None, overrides=None, seed=0, dim=64):
    return make_backend(BackendConfig(
        script=list(script or []), embed_overrides=dict(overrides or {}),
        embed_seed=seed, embed_dim=dim,
    ))


def fault_scenario(fault_type: FaultType) -> EpisodeScenario:
    index = list(FaultType).index(fault_type)
    return generate_scenario(1000 + index, ScenarioConfig(fault_types=(fault_type,)))


def no_fault_scenario(seed: int = 7) -> EpisodeScenario:
    return EpisodeScenario(
        id=f"scn-quiet-{seed}", topology_name="online-boutique", seed=seed,
        window=(0, 600), faults=[], ground_truth=GroundTruth((), ()),
    )


def telemetry_for(scenario: EpisodeScenario):
    cached = _TELEMETRY_CACHE.get(scenario.id)
    if cached is None:
        cached = render_telemetry(scenario)
        _TELEMETRY_CACHE[scenario.id] = cached
    return cached


@pytest.fixture
def registry():
    return build_registry()


@pytest.fixture
def backend():
    return scripted_backend()


@pytest.fixture
def detector_cfg():
    return DetectorConfig()


def make_ctx(scenario: EpisodeScenario, registry=None, backend=None, kb=None,
             detector=None) -> ToolContext:
    registry = registry or build_registry()
    backend = backend or scripted_backend()
    return ToolContext(
        telemetry=telemetry_for(scenario),
        kb=kb if kb is not None else KnowledgeBase(backend),
        backend=backend,
        detector=detector or DetectorConfig(),
        registry=registry,
    )


@pytest.fixture
def cpu_ctx():
    return make_ctx(fault_scenario(FaultType.CpuStress))


@pytest.fixture
def quiet_ctx():
    return make_ctx(no_fault_scenario())


# -- a chat-completions endpoint behind requests.post ----------------------------

FAKE_KEY_ENV = "SOPFLOW_TEST_FAKE_KEY"
_SCENARIO_LINE = re.compile(r"^scenario: (\S+)$", re.MULTILINE)
_ROLE_NAMES = {
    prompts.ROLE_THOUGHT: "thought", prompts.ROLE_ACTION: "action",
    prompts.ROLE_SELECT: "select", prompts.ROLE_DIRECT: "direct",
    prompts.ROLE_CODER: "coder", prompts.ROLE_AUTHOR: "author",
    prompts.ROLE_OBSERVER: "observer", prompts.ROLE_JUDGE: "judge",
}


RENDEZVOUS_TIMEOUT_S = 10.0


@dataclass(eq=False)
class FakeRequest:
    role: str        # a prompt role ("thought", "action", ...) or "embed"
    number: int      # earlier requests of the same role
    repeat: int      # earlier requests of the same role and prompt
    thread: str      # name of the calling thread
    prompt: str      # the rendered prompt, or the text to embed


class _FakeResponse:
    def __init__(self, status_code: int, payload):
        self.status_code = status_code
        self.headers = {}
        self._payload = payload
        self.text = json.dumps(payload)

    def json(self):
        return self._payload


class FakeEndpoint:
    """Answers ``requests.post`` in place of a chat-completions endpoint.

    Completions replay each scenario's script through a ``ScriptedBackend``,
    whose lock makes the replay safe for concurrent requests. A prompt belongs
    to the scenario named by its alert's ``scenario: <id>`` line; a prompt
    without one (selection, coder, observer, judge) belongs to the scenario its
    thread last named, which holds with several episodes in flight because an
    episode's thread sends its thought before anything else. Embeddings answer
    with the scripted backend's ``hash_embedding``, so transcripts match
    scripted runs byte for byte.

    Each request sleeps ``delays.get(role, delay_s)`` and is recorded in
    ``requests``. ``replies[(role, n)] = (status, payload)`` answers the
    ``n``-th request of a role (0-based, retries included) instead, and
    ``replies[(role, prompt, n)]`` the ``n``-th request of a role with exactly
    that prompt (for an embedding, the text).

    ``overlaps`` lists every pair of requests that were in flight together,
    the earlier one first, as the endpoint saw them under its lock. A request
    for which ``rendezvous(request)`` is true waits inside the endpoint until
    a second such request arrives; after ``RENDEZVOUS_TIMEOUT_S`` alone it
    raises ``threading.BrokenBarrierError`` out of ``requests.post``.
    """

    def __init__(self, delay_s: float = 0.001):
        self.delay_s = delay_s
        self.delays: dict[str, float] = {}
        self.replies: dict[tuple, tuple[int, object]] = {}
        self.rendezvous: Callable[[FakeRequest], bool] = lambda request: False
        self.requests: list[FakeRequest] = []
        self.overlaps: list[tuple[FakeRequest, FakeRequest]] = []
        self._in_flight: list[FakeRequest] = []
        self._barrier = threading.Barrier(2, timeout=RENDEZVOUS_TIMEOUT_S)
        self._counts: Counter = Counter()
        self._lock = threading.Lock()
        self._scripts: dict[str, list[ScriptEntry]] = {}
        self._backends: dict[str, ScriptedBackend] = {}
        self._thread_scenario: dict[int, str] = {}

    def serve(self, scripts: dict[str, list[ScriptEntry]]) -> None:
        """Replay these scripts, keyed by scenario id, each from its start,
        with the request log, the overlaps and the per-role request numbers
        cleared."""
        with self._lock:
            self._scripts = dict(scripts)
            self._backends = {}
            self._thread_scenario = {}
            self.requests = []
            self.overlaps = []
            self._barrier = threading.Barrier(2, timeout=RENDEZVOUS_TIMEOUT_S)
            self._counts = Counter()

    def config(self) -> BackendConfig:
        return BackendConfig(backend_kind="remote", endpoint="http://127.0.0.1:9",
                             model="fake", credential_env=FAKE_KEY_ENV)

    def _backend_for(self, prompt: str) -> ScriptedBackend:
        match = _SCENARIO_LINE.search(prompt)
        thread = threading.get_ident()
        with self._lock:
            scenario_id = match.group(1) if match else self._thread_scenario[thread]
            self._thread_scenario[thread] = scenario_id
            backend = self._backends.get(scenario_id)
            if backend is None:
                backend = ScriptedBackend(BackendConfig(script=self._scripts[scenario_id]))
                self._backends[scenario_id] = backend
        return backend

    def post(self, url, json=None, headers=None, timeout=None):
        if url.endswith("/embeddings"):
            role, prompt, messages = "embed", json["input"], None
        else:
            messages = [ChatMessage(m["role"], m["content"]) for m in json["messages"]]
            role = _ROLE_NAMES.get(messages[0].content.splitlines()[0], "other")
            prompt = "\n".join(m.content for m in messages)
        with self._lock:
            number, repeat = self._counts[role], self._counts[(role, prompt)]
            self._counts[role] += 1
            self._counts[(role, prompt)] += 1
            record = FakeRequest(role, number, repeat, threading.current_thread().name,
                                 prompt)
            self.requests.append(record)
            self.overlaps.extend((other, record) for other in self._in_flight)
            self._in_flight.append(record)
        try:
            if self.rendezvous(record):
                self._barrier.wait()
            time.sleep(self.delays.get(role, self.delay_s))
            return self._answer(record, messages)
        finally:
            with self._lock:
                self._in_flight.remove(record)

    def _answer(self, request: FakeRequest, messages) -> _FakeResponse:
        role, prompt = request.role, request.prompt
        injected = self.replies.get((role, request.number),
                                    self.replies.get((role, prompt, request.repeat)))
        if injected is not None:
            return _FakeResponse(*injected)
        if role == "embed":
            vector = hash_embedding(prompt, BackendConfig().embed_dim)
            return _FakeResponse(200, {"data": [{"embedding": list(vector.values)}]})
        try:
            reply = self._backend_for(prompt).complete(messages)
        except (KeyError, SopflowError) as exc:
            return _FakeResponse(500, {"error": f"{type(exc).__name__}: {exc}"})
        return _FakeResponse(200, {"choices": [{"message": {"content": reply}}]})


@pytest.fixture
def fake_endpoint(monkeypatch):
    """A ``FakeEndpoint`` installed as ``sopflow.llm.requests.post``; point a
    ``RemoteBackend`` at it with ``fake_endpoint.config()``."""
    endpoint = FakeEndpoint()
    monkeypatch.setenv(FAKE_KEY_ENV, "k")
    monkeypatch.setattr("sopflow.llm.requests.post", endpoint.post)
    return endpoint
