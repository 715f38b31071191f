from __future__ import annotations

import json
import re
import threading
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import pytest

from sopflow import prompts
from sopflow.agents import ActionCandidate
from sopflow.detector import DetectorConfig
from sopflow.errors import SopflowError
from sopflow.kb import EmbeddingVector, KnowledgeBase
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
    noise,
    render_telemetry,
)
from sopflow.tools import ToolContext, build_registry

_TELEMETRY_CACHE: dict[str, object] = {}


class _PinnedEmbedBackend(ScriptedBackend):
    """A scripted backend that embeds some exact texts as given vectors, so a
    retrieval-ordering test can fix the scores it sorts."""

    def __init__(self, config: BackendConfig, pinned: dict[str, tuple[float, ...]]):
        super().__init__(config)
        self._pinned = pinned

    def embed(self, text: str) -> EmbeddingVector:
        pinned = self._pinned.get(text)
        return super().embed(text) if pinned is None else EmbeddingVector.of(pinned)


def scripted_backend(script=None, overrides=None, seed=0, dim=64):
    config = BackendConfig(script=list(script or []), embed_seed=seed, embed_dim=dim)
    return _PinnedEmbedBackend(config, dict(overrides)) if overrides else make_backend(config)


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


class DrawCount:
    """The calls counted so far; a test may reset ``calls`` to 0."""
    calls: int = 0


@pytest.fixture
def count_draws(monkeypatch):
    """``count_draws(name, keep=None)`` makes every later call of
    ``sopflow.sandbox.noise.<name>`` for which ``keep(*args)`` holds (every
    call for None) count, and returns the ``DrawCount`` it counts in."""

    def install(name: str, keep: Callable[..., bool] | None = None) -> DrawCount:
        count, draw = DrawCount(), getattr(noise, name)

        def counting(*args, **kwargs):
            if keep is None or keep(*args):
                count.calls += 1
            return draw(*args, **kwargs)

        monkeypatch.setattr(noise, name, counting)
        return count

    return install


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


# -- a chat-completions endpoint behind llm._send ---------------------------------

FAKE_KEY_ENV = "SOPFLOW_TEST_FAKE_KEY"
_SCENARIO_LINE = re.compile(r"^scenario: (\S+)$", re.MULTILINE)
_ROLE_NAMES = {
    prompts.ROLE_THOUGHT: "thought", prompts.ROLE_ACTION: "action",
    prompts.ROLE_SELECT: "select", prompts.ROLE_DIRECT: "direct",
    prompts.ROLE_CODER: "coder", prompts.ROLE_AUTHOR: "author",
    prompts.ROLE_OBSERVER: "observer", prompts.ROLE_JUDGE: "judge",
}


RENDEZVOUS_TIMEOUT_S = 10.0


def action_sets(state) -> dict[int, list[ActionCandidate]]:
    """Each step's action set, by step, read back from the episode's
    ``action_set`` transcript events. A candidate's logged provenance must be
    the one its rule gives."""
    sets = {}
    for event in state.events:
        if event["kind"] == "action_set":
            sets[event["step"]] = candidates = []
            for logged in event["candidates"]:
                fields = dict(logged)
                provenance = fields.pop("provenance")
                candidates.append(ActionCandidate(**fields))
                assert candidates[-1].provenance == provenance
    return sets


def role_of(prompt: str) -> str:
    """The role of a rendered prompt, named from its first line, the marker."""
    return _ROLE_NAMES.get(prompt.split("\n", 1)[0], "other")


def llm_calls_by_role(transcript_dir: Path) -> Counter:
    """Completions per role logged in the transcripts under ``transcript_dir``."""
    calls: Counter = Counter()
    for path in transcript_dir.glob("*.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            event = json.loads(line)
            if event["kind"] == "llm":
                calls[role_of(event["prompt"])] += 1
    return calls


@dataclass(eq=False)
class FakeRequest:
    role: str        # a prompt role ("thought", "action", ...) or "embed"
    number: int      # earlier requests of the same role
    repeat: int      # earlier requests of the same role and prompt
    thread: str      # name of the calling thread
    prompt: str      # the rendered prompt, or the text to embed


class FakeEndpoint:
    """Answers ``llm._send`` in place of a chat-completions endpoint.

    Completions replay each scenario's script through a ``ScriptedBackend``,
    whose lock makes the replay safe for concurrent requests. A prompt belongs
    to the scenario named by its alert's ``scenario: <id>`` line; a prompt
    without one (selection, coder, observer, judge) belongs to the scenario its
    thread last named, which holds with several episodes in flight because an
    episode's thread sends its thought, and its worker its proposal, before
    anything else. A thread that has named none (the worker of an episode
    without proposals) takes the scenario named last, which holds with one
    episode in flight. Embeddings answer
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
    raises ``threading.BrokenBarrierError`` out of ``llm._send``.
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
        self._thread_scenario: dict[threading.Thread, str] = {}
        self._last_scenario: str | None = None

    def serve(self, scripts: dict[str, list[ScriptEntry]]) -> None:
        """Replay these scripts, keyed by scenario id, each from its start,
        with the request log, the overlaps and the per-role request numbers
        cleared."""
        with self._lock:
            self._scripts = dict(scripts)
            self._backends = {}
            self._thread_scenario = {}
            self._last_scenario = None
            self.requests = []
            self.overlaps = []
            self._barrier = threading.Barrier(2, timeout=RENDEZVOUS_TIMEOUT_S)
            self._counts = Counter()

    def completions_by_role(self) -> Counter:
        """Completion requests per role, retries and prefetches included."""
        return Counter(r.role for r in self.requests if r.role != "embed")

    def config(self) -> BackendConfig:
        return BackendConfig(backend_kind="remote", endpoint="http://127.0.0.1:9",
                             model="fake", credential_env=FAKE_KEY_ENV)

    def _backend_for(self, prompt: str) -> ScriptedBackend:
        match = _SCENARIO_LINE.search(prompt)
        thread = threading.current_thread()  # an ident may be reused, a thread is not
        with self._lock:
            if match:
                self._last_scenario = match.group(1)
            scenario_id = (match.group(1) if match
                           else self._thread_scenario.get(thread, self._last_scenario))
            self._thread_scenario[thread] = scenario_id
            backend = self._backends.get(scenario_id)
            if backend is None:
                backend = ScriptedBackend(BackendConfig(script=self._scripts[scenario_id]))
                self._backends[scenario_id] = backend
        return backend

    def send(self, url: str, body: bytes, headers: dict) -> tuple[int, dict, bytes]:
        request = json.loads(body)
        if url.endswith("/embeddings"):
            role, prompt, messages = "embed", request["input"], None
        else:
            messages = [ChatMessage(m["role"], m["content"]) for m in request["messages"]]
            prompt = "\n".join(m.content for m in messages)
            role = role_of(prompt)
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
            status, payload = self._answer(record, messages)
            return status, {}, json.dumps(payload).encode("utf-8")
        finally:
            with self._lock:
                self._in_flight.remove(record)

    def _answer(self, request: FakeRequest, messages) -> tuple[int, object]:
        role, prompt = request.role, request.prompt
        injected = self.replies.get((role, request.number),
                                    self.replies.get((role, prompt, request.repeat)))
        if injected is not None:
            return injected
        if role == "embed":
            vector = hash_embedding(prompt, BackendConfig().embed_dim)
            return 200, {"data": [{"embedding": list(vector.values)}]}
        try:
            reply = self._backend_for(prompt).complete(messages)
        except (KeyError, SopflowError) as exc:
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        return 200, {"choices": [{"message": {"content": reply}}]}


@pytest.fixture
def fake_endpoint(monkeypatch):
    """A ``FakeEndpoint`` installed as ``sopflow.llm._send``; point a
    ``RemoteBackend`` at it with ``fake_endpoint.config()``."""
    endpoint = FakeEndpoint()
    monkeypatch.setenv(FAKE_KEY_ENV, "k")
    monkeypatch.setattr("sopflow.llm._send", endpoint.send)
    return endpoint
