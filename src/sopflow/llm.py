"""Text-generation and embedding backends.

Two interchangeable implementations: ``RemoteBackend`` speaks a
chat-completions style HTTP API for live runs, and ``ScriptedBackend`` replays
authored responses and produces hash-derived embeddings, which makes whole
episodes deterministic and byte-replayable in tests. Every prompt built
anywhere in the system is built by ``ask`` (a request an episode sends ahead
is built with ``chat``, as ``ask`` does) and goes through one of these;
nothing else touches the network.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

from . import schema
from .errors import BackendError, ConfigError, ScriptExhaustedError, ValidationError
from .kb import EmbeddingVector

DEFAULT_CREDENTIAL_ENV = "SOPFLOW_API_KEY"
DEFAULT_EMBED_DIM = 64
REQUEST_TIMEOUT_S = 30.0  # per HTTP request of a RemoteBackend

ROLES = ("system", "user", "assistant", "tool")


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValidationError(f"unknown chat role: {self.role!r}")
        if self.role in ("system", "user") and (not self.content or self.content.isspace()):
            raise ValidationError(f"{self.role} message content must be non-empty")


@dataclass
class ScriptEntry:
    """One authored response. ``match_key`` is a substring tested against the
    rendered prompt; ``"*"`` matches anything. Entries are tried in declaration
    order and a consumed ``consume_once`` entry never fires again."""

    match_key: str
    response: str
    consume_once: bool = False


def script_to_mapping(script: list[ScriptEntry]) -> list[dict]:
    return [asdict(entry) for entry in script]


def script_from_mapping(data: list | None) -> list[ScriptEntry]:
    if data is not None and not isinstance(data, list):
        raise ConfigError(f"script: expected a list of entries, got {data!r}")
    return [schema.from_mapping(ScriptEntry, entry, "script entry") for entry in data or []]


@dataclass
class BackendConfig:
    backend_kind: str = "scripted"  # "scripted" | "remote"
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.0
    max_tokens: int = 1024
    credential_env: str = DEFAULT_CREDENTIAL_ENV
    embed_dim: int = DEFAULT_EMBED_DIM
    embed_seed: int = 0
    script: list[ScriptEntry] = field(default_factory=list, metadata=schema.INTERNAL)

    def validate(self) -> None:
        if self.backend_kind not in ("scripted", "remote"):
            raise ValidationError(f"unknown backend kind: {self.backend_kind!r}")
        # a NaN is not < 0, and a bool is an int; a NaN or infinite temperature
        # would fail every request at send (JSON has no such number)
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValidationError("temperature must be a finite number >= 0")
        if isinstance(self.max_tokens, bool) or self.max_tokens <= 0:
            raise ValidationError("max_tokens must be a positive integer")
        if isinstance(self.embed_dim, bool) or self.embed_dim <= 0:
            raise ValidationError("embed_dim must be a positive integer")
        if self.backend_kind == "remote" and not self.endpoint:
            raise ValidationError("remote backend requires an endpoint")


def scripted_config(script_path: Path | str, base: BackendConfig) -> BackendConfig:
    """A scripted backend replaying a script file, embedding as ``base`` does;
    an unreadable or malformed script is a ``ConfigError`` naming the file."""
    data = schema.read_yaml(script_path)
    try:
        script = script_from_mapping(data)
    except ConfigError as exc:
        raise ConfigError(f"{script_path}: {exc}") from exc
    return BackendConfig(backend_kind="scripted", embed_dim=base.embed_dim,
                         embed_seed=base.embed_seed, script=script)


def render_prompt(messages: list[ChatMessage]) -> str:
    """Flatten a message list into the text the scripted backend matches against."""
    return "\n".join(m.content for m in messages)


def chat(system: str, user: str) -> list[ChatMessage]:
    """The messages ``ask`` sends for a system prompt and a user message; an
    episode sends a completion of exactly these ahead."""
    return [ChatMessage("system", system), ChatMessage("user", user)]


def ask(backend, system: str, user: str) -> str:
    """One completion for a system prompt and a user message."""
    return backend.complete(chat(system, user))


def _retry_after_s(header: str | None) -> float | None:
    """Seconds from a ``Retry-After`` header; None unless it is a finite
    number >= 0 (an HTTP date is None too)."""
    try:
        seconds = float(header)
    except (TypeError, ValueError):
        return None
    return seconds if 0 <= seconds < math.inf else None


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def hash_embedding(text: str, dim: int = DEFAULT_EMBED_DIM, seed: int = 0) -> EmbeddingVector:
    """Deterministic unit-norm embedding derived from SHA-256 of the text.

    Stable across platforms and Python versions, which is what retrieval
    golden tests need; carries no semantic signal beyond exact-text identity.
    """
    raw = []
    for i in range(dim):
        digest = hashlib.sha256(f"{seed}:{i}:{text}".encode("utf-8")).digest()
        u = int.from_bytes(digest[:8], "big")
        raw.append(u / 2.0**63 - 1.0)
    norm = math.sqrt(sum(v * v for v in raw))
    return EmbeddingVector.of(v / norm for v in raw)


class ScriptedBackend:
    """Replays authored responses; a pure function of (script, prompt history)."""

    def __init__(self, config: BackendConfig):
        config.validate()
        self.config = config
        self._entries: list[list] = [[entry, False] for entry in config.script]
        self._lock = threading.Lock()

    @property
    def backend_id(self) -> str:
        return f"scripted:{self.config.embed_seed}:{self.config.embed_dim}"

    def complete(self, messages: list[ChatMessage]) -> str:
        prompt = render_prompt(messages)
        with self._lock:
            for slot in self._entries:
                entry, consumed = slot
                if consumed:
                    continue
                if entry.match_key == "*" or entry.match_key in prompt:
                    if entry.consume_once:
                        slot[1] = True
                    return entry.response
        raise ScriptExhaustedError(
            f"no script entry matches prompt starting with {prompt[:80]!r}"
        )

    def embed(self, text: str) -> EmbeddingVector:
        return hash_embedding(text, self.config.embed_dim, self.config.embed_seed)


def _send(url: str, body: bytes, headers: dict) -> tuple[int, http.client.HTTPMessage, bytes]:
    """POST ``body`` to an ``http(s)://`` URL on a new connection, closed
    once the whole reply is read, and return the reply's status, headers
    (whose ``get`` ignores case) and body. Each wait times out after
    ``REQUEST_TIMEOUT_S``. Proxy variables are not read, and HTTPS verifies
    the server against the system's CA store. A failure raises ``OSError``,
    ``http.client.HTTPException`` or ``ValueError`` (a bad port or header)."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise http.client.InvalidURL(f"not an http(s)://host URL: {url!r}")
    if parts.scheme == "https":
        connection_class, default_port = http.client.HTTPSConnection, http.client.HTTPS_PORT
    else:
        connection_class, default_port = http.client.HTTPConnection, http.client.HTTP_PORT
    connection = connection_class(parts.hostname, parts.port or default_port,
                                  timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request("POST", parts.path, body, {**headers, "Connection": "close"})
        response = connection.getresponse()
        return response.status, response.headers, response.read()
    finally:
        connection.close()


class RemoteBackend:
    """Thin client for a chat-completions compatible HTTP endpoint.

    Each call is one POST through ``_send``: the standard library's
    ``http.client``, on a new connection per request, timing out after
    ``REQUEST_TIMEOUT_S``. Calls share no state, so an episode may have two
    calls in flight at once (``concurrent_calls``), never more: one on the
    step's thread and one its episode backend sent ahead on a worker (a step's
    proposal beside its thought, the second of two embeddings of a
    knowledge-base store, or, beside a selection, the embedding of the
    findings rule R6 matches or the coder's completion for the procedure rule
    R1, R3 or R5 codifies). A reply that is not what the API promises (a body
    that is not UTF-8 JSON included) is a ``BackendError``, which the episode
    retries once; a request sent ahead is its call's first attempt.
    """

    concurrent_calls = True

    def __init__(self, config: BackendConfig):
        config.validate()
        self.config = config

    @property
    def embed_dim(self) -> int:
        return self.config.embed_dim

    @property
    def backend_id(self) -> str:
        return f"remote:{self.config.model}:{self.config.embed_dim}"

    def _headers(self) -> dict:
        key = os.environ.get(self.config.credential_env, "")
        if not key:
            raise BackendError(
                f"credential environment variable {self.config.credential_env} is not set"
            )
        return {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def _post(self, path: str, body: dict) -> dict:
        url = self.config.endpoint.rstrip("/") + path
        try:
            # a NaN or infinite setting is refused here, not sent as invalid JSON
            data = json.dumps(body, allow_nan=False).encode("utf-8")
            status, reply_headers, reply = _send(url, data, self._headers())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise BackendError(f"transport failure: {exc}") from exc
        if status != 200:
            raise BackendError(
                f"backend returned status {status}: "
                f"{reply.decode('utf-8', 'replace')[:200]}",
                retry_after_s=_retry_after_s(reply_headers.get("Retry-After")),
            )
        try:
            return json.loads(reply.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError is one
            raise BackendError(f"response body is not JSON: {exc}") from exc

    def complete(self, messages: list[ChatMessage]) -> str:
        body = {
            "model": self.config.model,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        data = self._post("/chat/completions", body)
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion response: {exc}") from exc
        if not isinstance(content, str):
            raise BackendError(f"malformed completion response: content is "
                               f"{type(content).__name__}, not a string")
        return content

    def embed(self, text: str) -> EmbeddingVector:
        data = self._post("/embeddings", {"model": self.config.model, "input": text})
        try:
            values = data["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed embedding response: {exc}") from exc
        # the run's knowledge bases cache every vector, so a bad one is never let in
        if not (isinstance(values, list) and len(values) == self.embed_dim
                and all(_is_finite_number(v) for v in values)):
            raise BackendError(f"malformed embedding response: expected a list of "
                               f"{self.embed_dim} finite numbers")
        return EmbeddingVector.of(values)


def make_backend(config: BackendConfig):
    """The backend ``config`` names; its constructor validates the config."""
    if config.backend_kind == "scripted":
        return ScriptedBackend(config)
    return RemoteBackend(config)
