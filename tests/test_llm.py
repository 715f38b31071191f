import json
import math

import pytest

from sopflow.config import load_config
from sopflow.errors import BackendError, ConfigError, ScriptExhaustedError, ValidationError
from sopflow.kb import cosine_similarity
from sopflow.llm import (
    BackendConfig,
    ChatMessage,
    RemoteBackend,
    ScriptEntry,
    hash_embedding,
    make_backend,
    script_from_mapping,
    script_to_mapping,
)

from conftest import scripted_backend


def msgs(*contents):
    return [ChatMessage("user", c) for c in contents]


class TestChatMessage:
    def test_roles(self):
        with pytest.raises(ValidationError):
            ChatMessage("wizard", "hello")

    def test_empty_user_content_rejected(self):
        with pytest.raises(ValidationError):
            ChatMessage("user", "   ")
        # assistant may be empty (some models return empty strings)
        ChatMessage("assistant", "")


class TestScriptedComplete:
    def test_wildcard_matches_anything(self):
        backend = make_backend(BackendConfig(script=[ScriptEntry("*", "OK")]))
        assert backend.complete(msgs("whatever")) == "OK"

    def test_no_entries_raises_exhausted(self):
        backend = make_backend(BackendConfig())
        with pytest.raises(ScriptExhaustedError):
            backend.complete(msgs("anything"))

    def test_keyed_entries_fire_in_declaration_order(self):
        backend = make_backend(BackendConfig(script=[
            ScriptEntry("alpha", "first"),
            ScriptEntry("beta", "second"),
        ]))
        # the prompt contains only the second key, so the second entry fires
        assert backend.complete(msgs("contains beta only")) == "second"

    def test_first_match_wins(self):
        backend = make_backend(BackendConfig(script=[
            ScriptEntry("alpha", "first"),
            ScriptEntry("beta", "second"),
        ]))
        assert backend.complete(msgs("alpha and beta present")) == "first"

    def test_consume_once_advances(self):
        backend = make_backend(BackendConfig(script=[
            ScriptEntry("key", "one", consume_once=True),
            ScriptEntry("key", "two", consume_once=True),
        ]))
        assert backend.complete(msgs("key")) == "one"
        assert backend.complete(msgs("key")) == "two"
        with pytest.raises(ScriptExhaustedError):
            backend.complete(msgs("key"))

    def test_matches_against_all_message_contents(self):
        backend = make_backend(BackendConfig(script=[ScriptEntry("system marker", "hit")]))
        messages = [ChatMessage("system", "system marker"), ChatMessage("user", "question")]
        assert backend.complete(messages) == "hit"

    def test_replay_is_pure(self):
        script = [ScriptEntry("a", "1", consume_once=True), ScriptEntry("*", "2")]
        transcript = ["has a", "has a", "other"]
        outputs = []
        for _ in range(2):
            backend = make_backend(BackendConfig(script=list(script)))
            outputs.append([backend.complete(msgs(p)) for p in transcript])
        assert outputs[0] == outputs[1] == ["1", "2", "2"]


class TestScriptedEmbed:
    def test_deterministic(self):
        backend = make_backend(BackendConfig())
        assert backend.embed("some text").values == backend.embed("some text").values

    def test_unit_norm(self):
        vec = make_backend(BackendConfig()).embed("normalize me")
        assert math.sqrt(sum(v * v for v in vec.values)) == pytest.approx(1.0, abs=1e-6)

    def test_dimension_is_configured(self):
        assert make_backend(BackendConfig(embed_dim=16)).embed("x").dim == 16

    def test_distinct_strings_not_parallel(self):
        # frozen from a hand evaluation of the hash embedding during development
        a = hash_embedding("cpu usage is high", 64, 0)
        b = hash_embedding("memory pressure climbing", 64, 0)
        assert cosine_similarity(a, b) == pytest.approx(-0.03781062646125981, abs=1e-9)
        assert cosine_similarity(a, b) < 1.0

    def test_seed_changes_embedding(self):
        a = hash_embedding("same text", 64, 0)
        b = hash_embedding("same text", 64, 1)
        assert a.values != b.values

    def test_override_takes_precedence(self):
        # the pinned-embedding test backend the retrieval-ordering tests use
        backend = scripted_backend(overrides={"pinned": (1.0, 0.0)}, dim=2)
        assert backend.embed("pinned").values == (1.0, 0.0)
        assert backend.embed("other") == make_backend(BackendConfig(embed_dim=2)).embed("other")


class TestScriptFiles:
    def test_roundtrip(self):
        script = [ScriptEntry("ROLE: x", "1", consume_once=True), ScriptEntry("*", "2")]
        assert script_from_mapping(script_to_mapping(script)) == script

    @pytest.mark.parametrize("entry", [
        {"match_key": "*", "response": "1", "consume": True},   # unknown key
        {"match_key": "*"},                                     # missing response
        {"match_key": "*", "response": "1", "consume_once": "no"},
        "match_key: *",
    ])
    def test_malformed_entry_is_config_error(self, entry):
        with pytest.raises(ConfigError):
            script_from_mapping([entry])

    @pytest.mark.parametrize("entry, expected", [
        ({"match_key": "*", "response": "1"}, ScriptEntry("*", "1", False)),
        ({"response": "1", "consume_once": False, "match_key": "k"},
         ScriptEntry("k", "1", False)),
        ({"match_key": "*", "response": "1", "consume_once": 1}, ScriptEntry("*", "1", True)),
        ({"match_key": "*", "response": 2}, ScriptEntry("*", "2", False)),
        ({"match_key": "*", "response": "1", "consume_once": None},
         "script entry.consume_once: expected true or false, got None"),
        ({"match_key": "*", "response": "1", "consume": True},
         "script entry: unknown key(s) 'consume'"),
        ({"response": "1"}, "script entry: missing key 'match_key'"),
        (["match_key", "*"], "script entry: expected a mapping, got ['match_key', '*']"),
        (None, "script entry: missing key 'match_key'"),
    ])
    def test_entries_read_with_coercion_and_exact_errors(self, entry, expected):
        if isinstance(expected, str):
            with pytest.raises(ConfigError) as got:
                script_from_mapping([entry])
            assert str(got.value) == expected
            return
        got = script_from_mapping([entry])
        assert got == [expected]
        assert [type(v) for v in vars(got[0]).values()] == [str, str, bool]


NETWORK_MODULES = {"requests", "urllib3", "httpx", "urllib", "http", "socket", "ssl"}


def test_only_the_backend_module_touches_the_network():
    # every prompt and embedding must round-trip through this module; nothing
    # else in the package may import an HTTP client or a socket
    import ast
    import pathlib
    import sopflow
    package_root = pathlib.Path(sopflow.__file__).parent
    offenders = []
    for path in sorted(package_root.rglob("*.py")):
        if path.name == "llm.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] in NETWORK_MODULES]
    assert offenders == []


def test_importing_the_package_leaves_requests_unloaded():
    # the live client is the standard library's http.client, so neither
    # requests nor urllib3 is on the import path of the CLI or the benchmark
    import pathlib
    import subprocess
    import sys
    import sopflow
    code = ("import sys, sopflow.cli, sopflow.evaluation, sopflow.golden\n"
            "print(sorted({'requests', 'urllib3'} & set(sys.modules)))")
    src = pathlib.Path(sopflow.__file__).parent.parent
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=src, check=True)
    assert done.stdout.strip() == "[]"


def test_agents_and_tools_prompt_only_through_ask():
    # one path from an episode to the model: llm.ask (or llm.chat, for a
    # prefetch) builds every message list, so no agent or tool builds one or
    # calls complete() itself
    import ast
    import pathlib
    import sopflow
    package_root = pathlib.Path(sopflow.__file__).parent
    offenders = []
    for path in sorted([*package_root.glob("agents/*.py"), *package_root.glob("tools/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "ChatMessage") or (
                    isinstance(func, ast.Attribute) and func.attr == "complete"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_agents_send_early_only_through_send_ahead():
    # one way to send a request early: no code under agents/ but
    # _RecordingBackend.send_ahead makes a thread pool or submits to one
    import ast
    import pathlib
    import sopflow
    package_root = pathlib.Path(sopflow.__file__).parent

    def offenders_under(node, path, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from offenders_under(child, path, child.name == "send_ahead")
                continue
            if isinstance(child, ast.Call) and not inside:
                func = child.func
                if (isinstance(func, ast.Name) and func.id == "ThreadPoolExecutor") or (
                        isinstance(func, ast.Attribute)
                        and func.attr in ("ThreadPoolExecutor", "submit")):
                    yield f"{path.name}:{child.lineno}"
            yield from offenders_under(child, path, inside)

    offenders, senders = [], []
    for path in sorted(package_root.glob("agents/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += offenders_under(tree, path, inside=False)
        senders += [f"{path.name}:{node.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "send_ahead"]
    assert senders == ["episode.py:send_ahead"]
    assert offenders == []


class TestRemoteBackend:
    def _config(self):
        return BackendConfig(backend_kind="remote", endpoint="https://llm.example/v1",
                             model="test-model")

    def test_missing_credential_is_backend_error(self, monkeypatch):
        monkeypatch.delenv("SOPFLOW_API_KEY", raising=False)
        with pytest.raises(BackendError):
            RemoteBackend(self._config()).complete(msgs("hi"))

    def test_completion_request_shape(self, monkeypatch):
        monkeypatch.setenv("SOPFLOW_API_KEY", "k")
        seen = {}

        def fake_send(url, body, headers):
            seen.update(url=url, body=json.loads(body), headers=headers)
            return 200, {}, json.dumps(
                {"choices": [{"message": {"content": "reply text"}}]}).encode()

        monkeypatch.setattr("sopflow.llm._send", fake_send)
        backend = RemoteBackend(self._config())
        reply = backend.complete([ChatMessage("system", "s"), ChatMessage("user", "u")])
        assert reply == "reply text"
        assert seen["url"] == "https://llm.example/v1/chat/completions"
        assert seen["body"]["model"] == "test-model"
        assert seen["body"]["temperature"] == 0.0
        assert seen["body"]["messages"][1] == {"role": "user", "content": "u"}
        assert seen["headers"]["Authorization"] == "Bearer k"

    def test_error_status_carries_retry_hint(self, monkeypatch):
        monkeypatch.setenv("SOPFLOW_API_KEY", "k")
        monkeypatch.setattr("sopflow.llm._send",
                            lambda *a: (429, {"Retry-After": "2.5"}, b"slow down"))
        with pytest.raises(BackendError) as excinfo:
            RemoteBackend(self._config()).complete(msgs("hi"))
        assert excinfo.value.retry_after_s == 2.5

    @pytest.mark.parametrize("header", [
        "Wed, 21 Oct 2015 07:28:00 GMT", "soon", "nan", "inf", "-1", "",
    ])
    def test_unusable_retry_hint_is_none(self, monkeypatch, header):
        monkeypatch.setenv("SOPFLOW_API_KEY", "k")
        monkeypatch.setattr("sopflow.llm._send",
                            lambda *a: (503, {"Retry-After": header}, b"unavailable"))
        with pytest.raises(BackendError) as excinfo:
            RemoteBackend(self._config()).complete(msgs("hi"))
        assert excinfo.value.retry_after_s is None

    def test_embedding_route(self, monkeypatch):
        monkeypatch.setenv("SOPFLOW_API_KEY", "k")
        monkeypatch.setattr("sopflow.llm._send", lambda *a: (
            200, {}, json.dumps({"data": [{"embedding": [0.6, 0.8]}]}).encode()))
        config = self._config()
        config.embed_dim = 2
        vec = RemoteBackend(config).embed("text")
        assert vec.values == (0.6, 0.8)

    def _replying(self, monkeypatch, payload=None, body=None):
        """Every request answers 200 with ``payload`` as JSON, or with the
        bytes ``body``."""
        monkeypatch.setenv("SOPFLOW_API_KEY", "k")
        reply = json.dumps(payload).encode() if body is None else body
        monkeypatch.setattr("sopflow.llm._send", lambda *a: (200, {}, reply))
        return RemoteBackend(self._config())

    def test_body_that_is_not_json_is_backend_error(self, monkeypatch):
        backend = self._replying(monkeypatch, body=b"<html>")
        with pytest.raises(BackendError, match="not JSON"):
            backend.complete(msgs("hi"))
        with pytest.raises(BackendError, match="not JSON"):
            backend.embed("text")

    @pytest.mark.parametrize("payload", [{}, {"choices": []}, {"data": []}, {"data": [{}]},
                                         []],
                             ids=["empty", "no-choice", "no-data", "no-embedding", "list"])
    def test_reply_without_its_result_is_backend_error(self, monkeypatch, payload):
        backend = self._replying(monkeypatch, payload)
        with pytest.raises(BackendError, match="malformed completion response"):
            backend.complete(msgs("hi"))
        with pytest.raises(BackendError, match="malformed embedding response"):
            backend.embed("text")

    @pytest.mark.parametrize("content", [None, 42, ["a"], {"text": "a"}])
    def test_content_that_is_not_a_string_is_backend_error(self, monkeypatch, content):
        backend = self._replying(
            monkeypatch, {"choices": [{"message": {"content": content}}]})
        with pytest.raises(BackendError, match="not a string"):
            backend.complete(msgs("hi"))

    @pytest.mark.parametrize("embedding", [
        [0.1] * 63, [0.1] * 65, [], None, "0.1",
        [0.1] * 63 + ["x"], [0.1] * 63 + [math.nan], [0.1] * 63 + [math.inf],
        [0.1] * 63 + [True], [0.1] * 63 + [None],
    ], ids=["short", "long", "empty", "null", "string", "text-entry", "nan", "inf",
            "bool", "null-entry"])
    def test_embedding_not_embed_dim_finite_numbers_is_backend_error(
            self, monkeypatch, embedding):
        backend = self._replying(monkeypatch, {"data": [{"embedding": embedding}]})
        with pytest.raises(BackendError, match="malformed embedding response"):
            backend.embed("text")

    def test_embedding_accepts_integers(self, monkeypatch):
        backend = self._replying(monkeypatch, {"data": [{"embedding": [1] + [0] * 63}]})
        assert backend.embed("text").values == (1.0,) + (0.0,) * 63

    def test_a_cache_written_at_one_embed_dim_is_not_read_at_another(
            self, monkeypatch, tmp_path):
        # the backend id names the dimension, so the store's name is embedded
        # again at the new one instead of meeting a query of another length
        from sopflow.kb import KnowledgeBase, SopDoc
        monkeypatch.setenv("SOPFLOW_API_KEY", "k")
        sent = []

        def send(url, body, headers):
            sent.append(json.loads(body)["input"])
            return 200, {}, json.dumps({"data": [{"embedding": [1.0] * embed_dim}]}).encode()

        monkeypatch.setattr("sopflow.llm._send", send)
        for embed_dim, query in ((2, "cpu"), (3, "memory")):
            config = self._config()
            config.embed_dim = embed_dim
            kb = KnowledgeBase(RemoteBackend(config), root=tmp_path / "kb")
            if not kb.list_sops():
                kb.add_sop(SopDoc(id="sop-a", name="name", steps=["s"]))
            assert kb.match_sop(query)[0][0].id == "sop-a"
        assert RemoteBackend(config).backend_id == "remote:test-model:3"
        assert sent == ["cpu", "name", "memory", "name"]

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            BackendConfig(backend_kind="remote").validate()
        with pytest.raises(ValidationError):
            BackendConfig(temperature=-1).validate()
        with pytest.raises(ValidationError):
            BackendConfig(backend_kind="psychic").validate()

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_temperature_is_rejected(self, temperature):
        with pytest.raises(ValidationError, match="^temperature must be a finite number >= 0$"):
            BackendConfig(temperature=temperature).validate()
        # it never reaches a request: the backend is not built
        with pytest.raises(ValidationError):
            make_backend(BackendConfig(backend_kind="remote", endpoint="http://127.0.0.1:9",
                                       temperature=temperature))

    @pytest.mark.parametrize("key", ["max_tokens", "embed_dim"])
    @pytest.mark.parametrize("value", [True, False, 0, -1])
    def test_sizes_must_be_positive_integers_not_bools(self, key, value):
        with pytest.raises(ValidationError, match=f"^{key} must be a positive integer$"):
            BackendConfig(**{key: value}).validate()

    def test_a_nan_temperature_in_a_config_file_is_rejected_at_load(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("backend: {temperature: .nan}\n")
        with pytest.raises(ValidationError, match="temperature must be a finite number"):
            make_backend(load_config(path).backend)
