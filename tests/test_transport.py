"""``RemoteBackend`` over a real socket: ``llm._send`` against an in-process
``ThreadingHTTPServer`` on 127.0.0.1, and the connection class ``_send``
picks for each URL. Nothing leaves the loopback interface, and every test
closes its server, so no thread or port outlives it."""

import contextlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from sopflow import llm
from sopflow.errors import BackendError
from sopflow.llm import BackendConfig, ChatMessage, RemoteBackend

KEY_ENV = "SOPFLOW_TEST_TRANSPORT_KEY"
JOIN_TIMEOUT_S = 5.0


class _Server:
    """What the handler saw, and how it answers: ``answer(handler, body)``
    writes the reply, or writes nothing."""

    def __init__(self, answer):
        self.answer = answer
        self.requests: list[dict] = []
        self.threads: list[threading.Thread] = []


def _handler(server: _Server):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive unless the client says close

        def log_message(self, format, *args):  # noqa: A002 - signature of the base class
            pass

        def do_POST(self):
            server.threads.append(threading.current_thread())
            body = self.rfile.read(int(self.headers["Content-Length"]))
            server.requests.append({"path": self.path, "headers": dict(self.headers),
                                    "body": json.loads(body)})
            server.answer(self, body)

    return Handler


def _reply(handler, status: int, body: bytes, headers: dict | None = None) -> None:
    handler.send_response(status)
    for name, value in (headers or {}).items():
        handler.send_header(name, value)
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    handler.wfile.write(body)


@contextlib.contextmanager
def serving(answer):
    """A ``_Server`` answering on 127.0.0.1 and its ``RemoteBackend``, whose
    endpoint has the path prefix ``/v1``; the server is closed on exit."""
    state = _Server(answer)
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _handler(state))
    loop = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05})
    loop.start()
    config = BackendConfig(backend_kind="remote",
                           endpoint=f"http://127.0.0.1:{httpd.server_address[1]}/v1/",
                           model="m", embed_dim=2, credential_env=KEY_ENV)
    try:
        yield state, RemoteBackend(config)
    finally:
        httpd.shutdown()
        httpd.server_close()  # joins the handler threads
        loop.join()


def _handlers_exited(state: _Server) -> bool:
    for thread in state.threads:
        thread.join(JOIN_TIMEOUT_S)
    return not any(thread.is_alive() for thread in state.threads)


def _json(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


@pytest.fixture(autouse=True)
def _key(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "secret")


def test_completion_and_embedding_round_trips():
    def answer(handler, body):
        if handler.path.endswith("/embeddings"):
            _reply(handler, 200, _json({"data": [{"embedding": [0.6, 0.8]}]}))
        else:
            _reply(handler, 200, _json({"choices": [{"message": {"content": "ünïcode ok"}}]}))

    with serving(answer) as (state, backend):
        reply = backend.complete([ChatMessage("system", "s"), ChatMessage("user", "ü")])
        assert _handlers_exited(state)
        vector = backend.embed("text")
        assert _handlers_exited(state)
    assert reply == "ünïcode ok"
    assert vector.values == (0.6, 0.8)
    completion, embedding = state.requests
    assert completion["path"] == "/v1/chat/completions"
    assert embedding["path"] == "/v1/embeddings"
    assert completion["body"] == {
        "model": "m", "temperature": 0.0, "max_tokens": 1024,
        "messages": [{"role": "system", "content": "s"}, {"role": "user", "content": "ü"}]}
    assert embedding["body"] == {"model": "m", "input": "text"}
    for request in state.requests:
        assert request["headers"]["Authorization"] == "Bearer secret"
        assert request["headers"]["Content-Type"] == "application/json"
        assert request["headers"]["Connection"] == "close"
    assert len(state.threads) == 2  # one connection per request


def test_error_status_reads_a_lower_case_retry_after():
    def answer(handler, body):
        _reply(handler, 429, b"slow down", {"retry-after": "2.5"})

    with serving(answer) as (state, backend):
        with pytest.raises(BackendError) as excinfo:
            backend.complete([ChatMessage("user", "hi")])
        assert _handlers_exited(state)
    assert str(excinfo.value) == "backend returned status 429: slow down"
    assert excinfo.value.retry_after_s == 2.5


@pytest.mark.parametrize("body", [
    b"<html>",
    b'{"choices": [{"message": {"content": "\xff"}}]}',
], ids=["not-json", "not-utf8"])
def test_body_that_is_not_utf8_json_is_backend_error(body):
    with serving(lambda handler, _: _reply(handler, 200, body)) as (state, backend):
        with pytest.raises(BackendError, match="^response body is not JSON: "):
            backend.complete([ChatMessage("user", "hi")])
        assert _handlers_exited(state)


def test_body_shorter_than_its_length_is_transport_failure():
    def answer(handler, body):
        handler.send_response(200)
        handler.send_header("Content-Length", "100")
        handler.end_headers()
        handler.wfile.write(b'{"choices": ')
        handler.close_connection = True

    with serving(answer) as (state, backend):
        with pytest.raises(BackendError, match="^transport failure: "):
            backend.complete([ChatMessage("user", "hi")])
        assert _handlers_exited(state)


def test_closed_port_is_transport_failure():
    with socket.socket() as probe:  # a port that was free a moment ago
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    backend = RemoteBackend(BackendConfig(backend_kind="remote",
                                          endpoint=f"http://127.0.0.1:{port}/v1",
                                          credential_env=KEY_ENV))
    with pytest.raises(BackendError, match="^transport failure: "):
        backend.complete([ChatMessage("user", "hi")])


def test_server_that_never_answers_times_out(monkeypatch):
    monkeypatch.setattr(llm, "REQUEST_TIMEOUT_S", 0.2)
    release = threading.Event()
    with serving(lambda handler, _: release.wait(JOIN_TIMEOUT_S)) as (state, backend):
        start = time.monotonic()
        with pytest.raises(BackendError, match="^transport failure: "):
            backend.complete([ChatMessage("user", "hi")])
        assert time.monotonic() - start < 3.0
        release.set()
        assert _handlers_exited(state)


def test_header_value_with_a_line_break_is_never_sent(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "secret\r\nX-Injected: 1")
    with serving(lambda handler, _: _reply(handler, 200, b"{}")) as (state, backend):
        with pytest.raises(BackendError, match="^transport failure: "):
            backend.complete([ChatMessage("user", "hi")])
    assert state.requests == []


class _Recorder:
    """Stands in for an ``http.client`` connection class: records how it was
    built (in the subclass's ``made``) and what was sent, and answers 200 with
    a one-number embedding."""

    made: list

    def __init__(self, host, port, timeout):
        self.made.append(self)
        self.kind = type(self).__name__
        self.host, self.port, self.timeout = host, port, timeout
        self.closed = False

    def request(self, method, path, body, headers):
        self.sent = (method, path, headers)

    def getresponse(self):
        return _RecordedResponse()

    def close(self):
        self.closed = True


class _RecordedResponse:
    status = 200
    headers: dict = {}

    def read(self):
        return _json({"data": [{"embedding": [1.0]}]})


@pytest.fixture
def made(monkeypatch) -> list:
    """Every connection ``_send`` builds, with both classes replaced by
    recorders; nothing is sent."""
    made = []
    for name in ("HTTPConnection", "HTTPSConnection"):
        monkeypatch.setattr(f"http.client.{name}", type(name, (_Recorder,), {"made": made}))
    return made


@pytest.mark.parametrize("endpoint, kind, host, port", [
    ("https://llm.example/v1", "HTTPSConnection", "llm.example", 443),
    ("https://llm.example:8443/v1/", "HTTPSConnection", "llm.example", 8443),
    ("http://llm.example/v1", "HTTPConnection", "llm.example", 80),
    ("http://127.0.0.1:8080/v1", "HTTPConnection", "127.0.0.1", 8080),
    ("http://[::1]:8080/v1", "HTTPConnection", "::1", 8080),
])
def test_scheme_picks_the_connection_class(made, endpoint, kind, host, port):
    backend = RemoteBackend(BackendConfig(backend_kind="remote", endpoint=endpoint,
                                          embed_dim=1, credential_env=KEY_ENV))
    assert backend.embed("text").values == (1.0,)
    [connection] = made
    assert (connection.kind, connection.host, connection.port) == (kind, host, port)
    assert connection.timeout == llm.REQUEST_TIMEOUT_S
    method, path, headers = connection.sent
    assert (method, path, headers["Connection"]) == ("POST", "/v1/embeddings", "close")
    assert connection.closed


@pytest.mark.parametrize("endpoint", [
    "llm.example/v1", "ftp://llm.example/v1", "http:///v1",
    "http://llm.example:port/v1", "http://llm.example:99999/v1",
])
def test_malformed_endpoint_is_transport_failure(made, endpoint):
    backend = RemoteBackend(BackendConfig(backend_kind="remote", endpoint=endpoint,
                                          credential_env=KEY_ENV))
    with pytest.raises(BackendError, match="^transport failure: "):
        backend.complete([ChatMessage("user", "hi")])
    assert made == []
