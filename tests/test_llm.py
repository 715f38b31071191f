import math

import pytest

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

    def test_empty_messages_rejected(self):
        backend = make_backend(BackendConfig(script=[ScriptEntry("*", "x")]))
        with pytest.raises(ValidationError):
            backend.complete([])


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
        backend = make_backend(BackendConfig(embed_overrides={"pinned": (1.0, 0.0)},
                                             embed_dim=2))
        assert backend.embed("pinned").values == (1.0, 0.0)

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            make_backend(BackendConfig()).embed("")


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


def test_only_the_backend_module_touches_the_network():
    # every prompt and embedding must round-trip through this module; nothing
    # else in the package may import an HTTP client
    import pathlib
    import sopflow
    package_root = pathlib.Path(sopflow.__file__).parent
    offenders = []
    for path in package_root.rglob("*.py"):
        if path.name == "llm.py":
            continue
        text = path.read_text()
        if "import requests" in text or "import httpx" in text or "import urllib" in text:
            offenders.append(path.name)
    assert offenders == []


def test_agents_and_tools_prompt_only_through_ask():
    # one path from an episode to the model: llm.ask builds every message
    # list, so no agent or tool builds one or calls complete() itself
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

        class FakeResponse:
            status_code = 200
            headers = {}

            def json(self):
                return {"choices": [{"message": {"content": "reply text"}}]}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, body=json, headers=headers)
            return FakeResponse()

        monkeypatch.setattr("sopflow.llm.requests.post", fake_post)
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

        class FakeResponse:
            status_code = 429
            headers = {"Retry-After": "2.5"}
            text = "slow down"

        monkeypatch.setattr("sopflow.llm.requests.post",
                            lambda *a, **kw: FakeResponse())
        with pytest.raises(BackendError) as excinfo:
            RemoteBackend(self._config()).complete(msgs("hi"))
        assert excinfo.value.retry_after_s == 2.5

    @pytest.mark.parametrize("header", [
        "Wed, 21 Oct 2015 07:28:00 GMT", "soon", "nan", "inf", "-1", "",
    ])
    def test_unusable_retry_hint_is_none(self, monkeypatch, header):
        monkeypatch.setenv("SOPFLOW_API_KEY", "k")

        class FakeResponse:
            status_code = 503
            headers = {"Retry-After": header}
            text = "unavailable"

        monkeypatch.setattr("sopflow.llm.requests.post",
                            lambda *a, **kw: FakeResponse())
        with pytest.raises(BackendError) as excinfo:
            RemoteBackend(self._config()).complete(msgs("hi"))
        assert excinfo.value.retry_after_s is None

    def test_embedding_route(self, monkeypatch):
        monkeypatch.setenv("SOPFLOW_API_KEY", "k")

        class FakeResponse:
            status_code = 200
            headers = {}

            def json(self):
                return {"data": [{"embedding": [0.6, 0.8]}]}

        monkeypatch.setattr("sopflow.llm.requests.post",
                            lambda *a, **kw: FakeResponse())
        config = self._config()
        config.embed_dim = 2
        vec = RemoteBackend(config).embed("text")
        assert vec.values == (0.6, 0.8)

    def _replying(self, monkeypatch, payload=None, body_error=None):
        """Every request answers 200 with ``payload``, or with a body whose
        ``json()`` raises ``body_error``."""
        monkeypatch.setenv("SOPFLOW_API_KEY", "k")

        class FakeResponse:
            status_code = 200
            headers = {}

            def json(self):
                if body_error is not None:
                    raise body_error
                return payload

        monkeypatch.setattr("sopflow.llm.requests.post", lambda *a, **kw: FakeResponse())
        return RemoteBackend(self._config())

    def test_body_that_is_not_json_is_backend_error(self, monkeypatch):
        import requests
        error = requests.JSONDecodeError("Expecting value", "<html>", 0)
        backend = self._replying(monkeypatch, body_error=error)
        with pytest.raises(BackendError, match="not JSON"):
            backend.complete(msgs("hi"))
        with pytest.raises(BackendError, match="not JSON"):
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

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            BackendConfig(backend_kind="remote").validate()
        with pytest.raises(ValidationError):
            BackendConfig(temperature=-1).validate()
        with pytest.raises(ValidationError):
            BackendConfig(backend_kind="psychic").validate()
