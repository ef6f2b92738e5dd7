"""The remote sampler's HTTP exchange, byte for byte: how each response is
framed and when the connection is kept, what a request carries, and the
prompt each request sends."""

import http.client
import json
import socket
import threading

import pytest

from hyposet import harness, transport
from hyposet.cli import main
from hyposet.harness import (
    API_KEY_ENV,
    RemoteSampler,
    SamplerConfig,
    chat_body,
    history_line,
    load_log,
    prompt_base,
    render_prompt,
    run_instance,
    send_chat,
)
from hyposet.tasks import get_task
from hyposet.transport import ChatConnection

from stubserver import StubChatServer
from test_golden_prompts import ADVERSARIAL


def reply(status_line, *fields, body=b""):
    head = "".join(f"{f}\r\n" for f in (status_line, *fields)) + "\r\n"
    return head.encode() + body


def completion(content=..., usage=...):
    """A 200 reply carrying a completion body; ``...`` leaves a key out."""
    message = {} if content is ... else {"content": content}
    payload = {"choices": [{"message": message}]}
    if usage is not ...:
        payload["usage"] = usage
    body = json.dumps(payload).encode()
    return reply("HTTP/1.1 200 OK", f"Content-Length: {len(body)}", body=body)


class RawServer:
    """Answers requests on 127.0.0.1 one connection at a time, each with the
    next item of ``replies``: (bytes written as they are, whether to close
    the connection after them). Records each request's bytes with the
    number of the connection it came on, from 1."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests: list[tuple[int, bytes]] = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.01)  # how often accept looks at _stop
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def url(self):
        return "http://127.0.0.1:%d/v1/chat/completions" % self._listener.getsockname()[1]

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.connections += 1
            # the reader too, or closing conn leaves the socket open
            with conn, conn.makefile("rb") as reader:
                conn.settimeout(5)
                try:
                    self._serve_connection(conn, reader, self.connections)
                except OSError:
                    pass  # the client closed first, or sent nothing in 5 s

    def _serve_connection(self, conn, reader, number):
        while self.replies:
            head = reader.readline()
            if not head:
                return
            while not head.endswith(b"\r\n\r\n"):
                line = reader.readline()
                if not line:
                    return
                head += line
            length = 0
            for line in head.split(b"\r\n"):
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
            self.requests.append((number, head + reader.read(length)))
            data, close = self.replies.pop(0)
            conn.sendall(data)
            if close:
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        self._listener.close()
        assert not self._thread.is_alive()


@pytest.fixture
def remote(monkeypatch):
    """No proxy, the auth token set, a 10 s timeout, and the delays send_chat
    would sleep before its retries recorded instead."""
    monkeypatch.setattr(transport, "TIMEOUT_S", 10)
    for name in ("http_proxy", "https_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv(API_KEY_ENV, "t")
    delays = []
    monkeypatch.setattr(harness.time, "sleep", delays.append)
    return delays


OK = (reply("HTTP/1.1 200 OK", "Content-Length: 2", body=b"ok"), False)


def post_twice(server):
    """Two posts over one ChatConnection: their (status, body) pairs."""
    connection = ChatConnection(server.url)
    try:
        return [connection.post(b"{}", {})[::2] for _ in range(2)]
    finally:
        connection.close()


class TestFraming:
    def test_chunked_with_an_extension_and_a_trailer(self, remote):
        chunked = reply(
            "HTTP/1.1 200 OK", "Transfer-Encoding: chunked", "Content-Length: 999",
            body=b"5;name=value\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: yes\r\n\r\n",
        )
        with RawServer([(chunked, False), OK]) as server:
            assert post_twice(server) == [(200, b"hello world"), (200, b"ok")]
        assert [number for number, _ in server.requests] == [1, 1]

    def test_connection_close_opens_a_new_connection(self, remote):
        closing = reply(
            "HTTP/1.1 200 OK", "Connection: close", "Content-Length: 3", body=b"one"
        )
        # the server leaves it open: the client closes it after the body
        with RawServer([(closing, False), OK]) as server:
            assert post_twice(server) == [(200, b"one"), (200, b"ok")]
        assert [number for number, _ in server.requests] == [1, 2]

    def test_http_1_0_body_runs_to_the_close(self, remote):
        old = reply("HTTP/1.0 200 OK", "Content-Type: text/plain", body=b"all of it")
        with RawServer([(old, True), OK]) as server:
            assert post_twice(server) == [(200, b"all of it"), (200, b"ok")]
        assert [number for number, _ in server.requests] == [1, 2]

    def test_http_1_0_keep_alive_keeps_the_connection(self, remote):
        kept = reply(
            "HTTP/1.0 200 OK", "Connection: keep-alive", "Content-Length: 4", body=b"kept"
        )
        with RawServer([(kept, False), OK]) as server:
            assert post_twice(server) == [(200, b"kept"), (200, b"ok")]
        assert [number for number, _ in server.requests] == [1, 1]

    def test_100_continue_before_the_response(self, remote):
        continued = reply("HTTP/1.1 100 Continue") + reply(
            "HTTP/1.1 200 OK", "Content-Length: 4", body=b"done"
        )
        with RawServer([(continued, False), OK]) as server:
            assert post_twice(server) == [(200, b"done"), (200, b"ok")]
        assert [number for number, _ in server.requests] == [1, 1]

    def test_204_has_no_body(self, remote):
        with RawServer([(reply("HTTP/1.1 204 No Content"), False), OK]) as server:
            assert post_twice(server) == [(204, b""), (200, b"ok")]
        assert [number for number, _ in server.requests] == [1, 1]

    def test_header_names_are_lower_case(self, remote):
        fields = reply(
            "HTTP/1.1 503 Busy", "Retry-After: 7", "X-Folded: a", " b",
            "Retry-After: 9", "Content-Length: 0",
        )
        with RawServer([(fields, False)]) as server:
            connection = ChatConnection(server.url)
            status, headers, body = connection.post(b"{}", {})
            connection.close()
        assert (status, body) == (503, b"")
        assert headers == {"retry-after": "7", "x-folded": "a b", "content-length": "0"}

    @pytest.mark.parametrize(
        "data, error, match",
        [
            (reply("HTTP/1.1 200 OK", "X-Long: " + "a" * 70000),
             http.client.LineTooLong, "header line"),
            (reply("HTTP/1.1 200 OK", *[f"X-{i}: {i}" for i in range(101)]),
             http.client.HTTPException, "more than 100 headers"),
            (b"garbage\r\n\r\n", http.client.BadStatusLine, "garbage"),
            (b"", http.client.RemoteDisconnected, "without response"),
            (reply("HTTP/1.1 200 OK", "Content-Length: 10", body=b"short"),
             http.client.IncompleteRead, "5 bytes read, 5 more expected"),
            (reply("HTTP/1.1 200 OK", "Transfer-Encoding: chunked", body=b"zz\r\n"),
             http.client.IncompleteRead, "0 bytes read"),
        ],
    )
    def test_a_broken_response_raises_http_client_errors(
        self, remote, data, error, match
    ):
        with RawServer([(data, True)]) as server:
            connection = ChatConnection(server.url)
            with pytest.raises(error, match=match):
                connection.post(b"{}", {})
            connection.close()

    def test_a_truncated_body_is_retried_as_a_transport_error(self, remote):
        truncated = reply("HTTP/1.1 200 OK", "Content-Length: 100", body=b'{"choi')
        with RawServer([(truncated, True), (completion("second"), False)]) as server:
            config = SamplerConfig(kind="remote", endpoint=server.url, backoff=0.25)
            assert send_chat(config, chat_body(config, "p"))[0] == "second"
        assert remote == [0.25]  # one attempt spent
        assert [number for number, _ in server.requests] == [1, 2]


class TestRequest:
    def test_one_request_carries_every_field_and_the_body(self, remote):
        with RawServer([(completion("fine"), False)]) as server:
            config = SamplerConfig(kind="remote", endpoint=server.url)
            assert send_chat(config, chat_body(config, "p"))[0] == "fine"
            host = server.url.split("/")[2]
        ((_, request),) = server.requests
        head, _, body = request.partition(b"\r\n\r\n")
        assert head.split(b"\r\n") == [
            b"POST /v1/chat/completions HTTP/1.1",
            b"Host: " + host.encode(),
            b"Accept-Encoding: identity",
            b"Content-Length: %d" % len(body),
            b"Authorization: Bearer t",
            b"Content-Type: application/json",
        ]
        assert json.loads(body)["messages"] == [{"role": "user", "content": "p"}]

    @pytest.mark.parametrize("token", ["t\r\nX-Injected: 1", "t\nx", "t\rx"])
    def test_a_token_with_cr_or_lf_sends_nothing(self, remote, monkeypatch, token):
        monkeypatch.setenv(API_KEY_ENV, token)
        with RawServer([OK]) as server:
            config = SamplerConfig(kind="remote", endpoint=server.url)
            with pytest.raises(ValueError, match="CR, LF or NUL"):
                send_chat(config, chat_body(config, "p"))
        assert server.connections == 0 and server.requests == []

    @pytest.mark.parametrize("name, value", [("X-A", "a\0b"), ("X-\nA", "a"), ("X-\0", "a")])
    def test_a_field_with_cr_lf_or_nul_sends_nothing(self, remote, name, value):
        with RawServer([OK, OK]) as server:
            connection = ChatConnection(server.url)
            assert connection.post(b"{}", {})[0] == 200
            with pytest.raises(ValueError, match="CR, LF or NUL"):
                connection.post(b"{}", {name: value})
            assert connection.post(b"{}", {})[0] == 200
            connection.close()
        assert [number for number, _ in server.requests] == [1, 1]


class TestCompletionBody:
    @pytest.mark.parametrize("content", [None, 5, ["a"], {"text": "a"}])
    def test_content_that_is_not_a_string_aborts_the_run(self, remote, tmp_path, content):
        task = get_task("causal")
        inst = task.generate(seed=11, level="1")
        with RawServer([(completion(content), False)]) as server:
            config = SamplerConfig(kind="remote", endpoint=server.url)
            sampler = RemoteSampler(config, task, inst)
            path = tmp_path / "run.jsonl"
            try:
                log = run_instance(task, inst, sampler, config, n_override=2,
                                   log_path=path)
            finally:
                sampler.close()
        assert not log.complete and log.records == ()
        abort = load_log(path)["abort"]
        assert abort.startswith("malformed completion body: content is ")
        assert abort.endswith(", not a string")

    def test_null_content_ends_a_cli_run_with_an_abort_line(self, remote, tmp_path):
        out = tmp_path / "o"
        with StubChatServer([("content", None)]) as server:
            code = main(["run", "--task", "causal", "--difficulty", "1", "--count", "1",
                         "--n", "2", "--sampler", "remote", "--endpoint", server.url,
                         "--out", str(out), "--deterministic"])
        assert code == 3
        (path,) = (out / "logs").glob("*.jsonl")
        assert load_log(path)["abort"].startswith("malformed completion body")

    @pytest.mark.parametrize(
        "usage, kept",
        [
            ({"total_tokens": 7, "prompt_tokens": 5}, True),
            ({"prompt_tokens": 5}, True),
            (..., False),
            (None, False),
            ([7], False),
            ("7", False),
            ({"total_tokens": "7"}, False),
            ({"total_tokens": 7.5}, False),
            ({"total_tokens": True}, False),
            ({"total_tokens": None}, False),
        ],
    )
    def test_usage_that_is_not_an_object_or_integer_counts_nothing(
        self, remote, usage, kept
    ):
        task = get_task("causal")
        inst = task.generate(seed=11, level="1")
        replies = [(completion("EDGES: none", usage), False)] * 2
        with RawServer(replies) as server:
            config = SamplerConfig(kind="remote", endpoint=server.url)
            assert send_chat(config, chat_body(config, "p")) == (
                "EDGES: none", usage if kept else {}
            )
            sampler = RemoteSampler(config, task, inst)
            try:
                sampler.next_proposal([])
            finally:
                sampler.close()
        assert sampler.total_tokens == (usage.get("total_tokens", 0) if kept else 0)


def _prompt(task, instance, history):
    """The prompt for ``history``, every line formatted here."""
    lines = [history_line(i, text) for i, text in enumerate(history, 1)]
    return render_prompt(prompt_base(task, instance), lines)


class TestPromptBodies:
    def test_each_request_sends_the_reference_prompt(self, remote):
        task = get_task("causal")
        inst = task.generate(seed=11, level="1")
        texts = ["EDGES: A>B", "EDGES: B>C", "EDGES: none", "not a graph"]
        script = [("content", texts[0]), ("status", 503)] + [
            ("content", t) for t in texts[1:]
        ]
        with StubChatServer(script, drop_after_response=True) as server:
            config = SamplerConfig(kind="remote", endpoint=server.url, max_attempts=2)
            sampler = RemoteSampler(config, task, inst)
            try:
                log = run_instance(task, inst, sampler, config, n_override=len(texts))
            finally:
                sampler.close()
        assert log.complete
        expected = [_prompt(task, inst, texts[:i]) for i in range(4)]
        expected.insert(1, expected[1])  # the 503 is retried with its prompt
        sent = [r["body"]["messages"][0]["content"] for r in server.requests]
        assert sent == expected
        assert remote == [0.5]

    def test_a_history_that_does_not_extend_the_last_is_rendered_anew(self, remote):
        task = get_task("causal")
        inst = task.generate(seed=11, level="1")
        a, b, c = (f"EDGES: X{i}->X2" for i in range(3))
        shared, other, fresh = [a, b], [b, a, c], []
        expected = []
        with StubChatServer([("content", "EDGES: none")]) as server:
            config = SamplerConfig(kind="remote", endpoint=server.url)
            sampler = RemoteSampler(config, task, inst)

            def propose(history):
                expected.append(_prompt(task, inst, history))
                sampler.next_proposal(history)

            try:
                propose(shared)
                shared.append(c)
                propose(shared)  # extends the one before
                propose(other)  # another list as long, with the same last entry
                del other[1:]
                propose(other)  # shorter
                other.extend([a, c])
                propose(other)
                propose((b, a, c))  # not a list
                propose((b, a, c, a))
                propose(fresh)
                fresh.append(a)
                propose(fresh)
                fresh[0] = c  # an entry replaced in place: not append-only
                propose(fresh)
            finally:
                sampler.close()
        sent = [r["body"]["messages"][0]["content"] for r in server.requests]
        assert sent == expected

    def test_observations_are_rendered_once_per_run(self, remote, monkeypatch):
        task = get_task("voxel")
        inst = task.generate(seed=5, level="2")
        rendered = []
        observations_text = task.observations_text
        monkeypatch.setattr(
            task, "observations_text",
            lambda instance: rendered.append(instance) or observations_text(instance),
        )
        with StubChatServer([("content", "LAYERS:\n1")]) as server:
            config = SamplerConfig(kind="remote", endpoint=server.url)
            sampler = RemoteSampler(config, task, inst)
            try:
                log = run_instance(task, inst, sampler, config, n_override=4)
            finally:
                sampler.close()
        assert len(log.records) == 4 and len(server.requests) == 4
        assert rendered == [inst]

    @pytest.mark.parametrize(
        "name, level, seed", [("causal", "1", 11), ("voxel", "2", 5), ("bool", "basic", 3)]
    )
    def test_each_body_is_the_chat_body_of_the_reference_prompt(
        self, remote, name, level, seed
    ):
        task = get_task(name)
        inst = task.generate(seed=seed, level=level)
        a, b, c, d = ADVERSARIAL
        shared, other, fresh = [], [c, b, a], []
        expected = []
        script = [("status", 503), ("content", "EDGES: none")]
        with StubChatServer(script) as server:
            config = SamplerConfig(
                kind="remote", endpoint=server.url, model='a "quoted" {{history}} model',
                temperature=0.25, max_tokens=64, max_attempts=2, backoff=0.0,
            )
            sampler = RemoteSampler(config, task, inst)

            def propose(history):
                expected.append(chat_body(config, _prompt(task, inst, history)))
                sampler.next_proposal(history)

            try:
                propose(shared)  # empty; its 503 is retried
                for text in ADVERSARIAL:
                    shared.append(text)
                    propose(shared)  # extends the one before
                propose(other)  # another list as long, with the same last entry
                del other[1:]
                propose(other)  # shorter
                other.extend([d, a])
                propose(other)
                propose((b, d, a))  # not a list
                propose((b, d, a, c))
                propose(fresh)
                fresh.append(d)
                propose(fresh)
                fresh[0] = b  # an entry replaced in place: not append-only
                propose(fresh)
            finally:
                sampler.close()
        sent = [r["raw"] for r in server.requests]
        assert sent[0] == sent[1]  # the retry resends the same bytes
        assert sent[1:] == expected
        empty = prompt_base(task, inst).replace("{{history}}", "(none)")
        assert sent[0] == chat_body(config, empty)
